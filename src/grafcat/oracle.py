"""Exhaustive small-scale enumeration and the equivalence check.

Graphs are generated from raw combinatorial data (valence lists and
involutions), one per class of their vertex multigraphs, so on the
vertex/flag side alone; morphisms by building only the triples the
morphism clauses allow, and cospans by pairing each reduced cover of
the source's picture (one per port matching) with each refinement into
its apex, again built only as the refinement clauses allow.  A graph's
picture, the covers out of it, its graph clauses and the layout the
refinement enumerator reads are memoised on the graph and the picture,
so each is built once however many pairs the graph is in.  So are the
ghost graphs of its morphisms (one per port matching, as its covers),
phi's cover leg onto each ghost with that leg's validation, and the
left-leg part of cospan_key on each cover, enumerated or phi's.  A leaf
of either hom search gets its vertex maps from _surjections, which
joins only the ends of the leaf's ties and reads forced points off the
class roots; the refinement search places a flag, and on an inner edge
its partner, from the entries of the memoised layout, with no dict per
candidate.  Neither changes an order: both match, map insertion order
included, the test references that join every vertex in a union-find
and build a dict per candidate.  No apex bound is needed: a reduced
cover is bijective on vertices, so every apex has its source's vertex
count.  Cospans are compared through their normal form (cospan_key):
the cover leg forces the apex isomorphism, so equal cospans have equal
keys and the bijection checks are set operations.  The main entry
point check_equivalence compares, for every ordered pair of graphs
within bounds, the morphisms of the vertex/flag encoding against the
cover/refinement cospans of the arc encoding, and verifies that the
translation phi is a bijection between the two."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .bm import BMGraph, BMMorphism
from .cospan_equiv import (
    GraphCospan,
    cospan_key,
    phi,
    phi1_graph,
    phi_inv,
    validate_cospan,
)
from .etale import ReducedCover, replay_gluings, require_cover_base
from .graph_core import (
    JKGraph,
    flag_view,
    involutions,
    isolated_edges,
    memoised,
    multigraph_key,
    ports,
    validate_graph,
)
from .kleisli import Refinement


def _valence_lists(n_vertices: int, max_flags: int):
    """Weakly decreasing valence lists with a bounded total, in descending lexicographic order."""
    for valences in itertools.combinations_with_replacement(range(max_flags, -1, -1), n_vertices):
        if sum(valences) <= max_flags:
            yield valences


def enumerate_bm_graphs(max_vertices: int, max_flags: int) -> list[BMGraph]:
    """All vertex/flag graphs within the bounds, one per isomorphism
    class: the first raw graph of each, in a deterministic order.  The
    flags at a vertex permute freely, so raw graphs are isomorphic iff
    their vertex multigraphs, labelled by valence and tail count, have
    the same multigraph_key."""
    found: dict[tuple, BMGraph] = {}
    for n_v in range(max_vertices + 1):
        vertices = [f"v{i}" for i in range(1, n_v + 1)]
        for valences in _valence_lists(n_v, max_flags):
            owner = [i for i, d in enumerate(valences) for _ in range(d)]
            at = {f"f{k}": i for k, i in enumerate(owner, start=1)}
            flags = list(at)
            boundary = {f: vertices[i] for f, i in at.items()}
            for involution in involutions(flags):
                tails = Counter(at[f] for f, f2 in involution.items() if f == f2)
                links = [(at[f], at[f2]) for f, f2 in involution.items() if f < f2]
                key = multigraph_key([(d, tails[i]) for i, d in enumerate(valences)], links)
                if key not in found:
                    found[key] = BMGraph(set(vertices), set(flags), boundary, involution)
    return list(found.values())


def _surjections(
    domain: list[str], codomain: list[str], ties: list[tuple[str, str]], forced: dict[str, str]
):
    """Every map of the sorted domain onto the sorted codomain that sends
    the two ends of each tie to one point and agrees with forced, in
    product order.  Only the tie ends are joined, so a point in no tie is
    a class of its own; each forced point goes on its class's root, and
    two that differ on one class end the search at once.  A class takes
    its forced point, or every point, and the classes vary in order of
    their first element, which keeps product order; each point reads its
    image off its class's place in the product tuple."""
    link: dict[str, str] = {}  # a joined tie end -> another point of its class
    for a, b in ties:
        while a in link:
            a = link[a]
        while b in link:
            b = link[b]
        if a != b:
            link[a] = b
    fixed: dict[str, str] = {}  # class root -> its forced point
    for v, w in forced.items():
        while v in link:
            v = link[v]
        if fixed.setdefault(v, w) != w:
            return
    slot: dict[str, int] = {}  # class root -> its place, in order of the first element
    places = []  # the slot of each domain point
    for v in domain:
        while v in link:
            v = link[v]
        places.append(slot.setdefault(v, len(slot)))
    for values in itertools.product(*[(fixed[v],) if v in fixed else codomain for v in slot]):
        if len(set(values)) == len(codomain):
            yield dict(zip(domain, map(values.__getitem__, places)))


def enumerate_bm_morphisms(tau: BMGraph, rho: BMGraph) -> list[BMMorphism]:
    """All morphisms tau -> rho, built clause by clause.  Target flags
    take unused source flags in sorted order: a tail takes a tail, and an
    edge whose partner is placed takes the partner of that image, or any
    tail if the image is a tail.  Each image flag forces its vertex into
    its target flag's fibre, each source edge outside the image lies in
    one fibre, and leftover tails pair only within a fibre.  The order is
    that of the candidate triples: image permutations, then vertex
    surjections in product order, then involutions of the complement."""
    tau_flags = sorted(tau.flags)
    rho_flags = sorted(rho.flags)
    tau_vertices = sorted(tau.vertices)
    rho_vertices = sorted(rho.vertices)
    if len(rho_flags) > len(tau_flags) or len(rho_vertices) > len(tau_vertices):
        return []
    if (len(tau_flags) - len(rho_flags)) % 2:
        return []  # the contracted flags pair up
    tj, rj = tau.involution, rho.involution
    tb, rb = tau.boundary, rho.boundary
    tails = [f for f in tau_flags if tj[f] == f]
    out = []
    flag_map: dict[str, str] = {}
    used: set[str] = set()
    forced: dict[str, str] = {}  # source vertex -> target vertex

    def candidates(x: str) -> list[str]:
        y = rj[x]
        if y in flag_map:
            g = flag_map[y]
            if tj[g] != g:
                return [tj[g]]
        elif y != x:
            # a source edge half needs its partner free for y
            return [f for f in tau_flags if f not in used and tj[f] not in used]
        return [f for f in tails if f not in used]

    def complete():
        # the two ends of each contracted source edge lie in one fibre
        complement = [f for f in tau_flags if f not in used]
        ties = [(tb[f], tb[tj[f]]) for f in complement]
        for vertex_map in _surjections(tau_vertices, rho_vertices, ties, forced):

            def pairs(a: str, b: str) -> bool:
                if tj[a] != a:
                    return tj[a] == b
                return tj[b] == b and vertex_map[tb[a]] == vertex_map[tb[b]]

            for virtual in involutions(complement, fixpoints=False, pairs=pairs):
                out.append(BMMorphism(tau, rho, flag_map, vertex_map, virtual))

    def place(i: int):
        if i == len(rho_flags):
            complete()
            return
        x = rho_flags[i]
        w = rb[x]
        for f in candidates(x):
            v = tb[f]
            fresh = v not in forced
            if not fresh and forced[v] != w:
                continue
            forced[v] = w
            flag_map[x] = f
            used.add(f)
            place(i + 1)
            used.discard(f)
            del flag_map[x]
            if fresh:
                del forced[v]

    place(0)
    del place  # it closes over itself: a cycle that would keep tau, rho and out
    return out


def covers_from(t: JKGraph) -> list[ReducedCover]:
    """All reduced covers with source t: one per involution of its ports
    (each swapped pair is glued).  ValueError unless t is valid and has no isolated edges."""
    require_cover_base(t)
    out = []
    for matching in involutions(sorted(ports(t))):
        steps = [(p, q) for p, q in sorted(matching.items()) if p < q]
        _, cover = replay_gluings(t, steps)
        out.append(cover)
    return out


@memoised
def _covers(picture: JKGraph) -> tuple[ReducedCover, ...]:
    return tuple(covers_from(picture))


class _Layout(NamedTuple):
    """What enumerate_refinements reads of a graph at either end.  A
    flag's entry is (flag, its vertex, its partner, the partner's vertex,
    its arc, the opposite arc); on a port the partner is the flag itself
    and the opposite arc is the port.  An inner edge's entry is (its
    lesser flag, that flag's vertex, the other flag's vertex)."""

    vertices: list[str]  # sorted
    leaders: list[tuple]  # the entries of the flags no greater than their partner
    on_port: list[tuple]  # the entries of the flags that are their own partner
    on_edge: list[tuple]  # the entries of the others
    inner_edges: list[tuple[str, str, str]]


@memoised
def _layout(g: JKGraph) -> _Layout | None:
    """g's layout, or None if g is invalid or has isolated edges; found
    once per graph.  Entries come in the sorted order of their flags."""
    if not validate_graph(g).ok or isolated_edges(g):
        return None
    partner = flag_view(g)[1]
    at = g.incidence
    entries = [
        (h, at[h], partner[h], at[partner[h]], g.embed[h], g.involution[g.embed[h]])
        for h in sorted(g.flags)
    ]
    return _Layout(
        sorted(g.vertices),
        [e for e in entries if e[0] <= e[2]],
        [e for e in entries if e[0] == e[2]],
        [e for e in entries if e[0] != e[2]],
        [(h, v, w) for h, v, h2, w, _, _ in entries if h < h2],
    )


def enumerate_refinements(r: JKGraph, s: JKGraph) -> list[Refinement]:
    """All refinements r -> s, built clause by clause; none unless both
    graphs are valid and without isolated edges.  The flags of r, in
    sorted order and an inner edge at its lesser flag, take unused flags
    of s in sorted order: a flag on a port takes a flag on a port, and an
    inner edge takes an inner edge, its second flag the partner of the
    first.  Each taken flag forces its vertex into the piece of its
    taker's vertex, and each inner edge of s left untaken lies in one
    piece; the pieces not forced take every vertex of r, as long as
    every vertex of r gets a piece.  A leaf of the flag search reads its
    ties off the untaken inner edges of s's layout and hands them, with
    the forced pieces, to _surjections; its flag and arc maps are filled
    from the layout entries it placed and shared by all its vertex
    maps.  The order is that of the vertex surjections in product order
    over the sorted vertices of s, then of the flag choices."""
    if len(r.vertices) > len(s.vertices) or len(r.flags) > len(s.flags):
        return []
    lr, ls = _layout(r), _layout(s)
    if lr is None or ls is None or len(lr.on_port) != len(ls.on_port):
        return []
    r_vertices, leaders = lr.vertices, lr.leaders
    s_vertices, on_port, on_edge, inner_edges = ls.vertices, ls.on_port, ls.on_edge, ls.inner_edges
    found: list[tuple[tuple[str, ...], Refinement]] = []
    placed: list[tuple] = [()] * len(leaders)  # the entry of s each leader took, by depth
    taken: set[str] = set()  # the flags of s placed: port flags and whole edges, never half one
    forced: dict[str, str] = {}  # vertex of s -> vertex of r

    def complete():
        # Every flag of s on a port is taken, so the untaken flags are
        # whole inner edges, and each lies in one piece.
        ties = [(v, w) for h, v, w in inner_edges if h not in taken]
        flag_map: dict[str, str] = {}
        arc_map: dict[str, str] = {}
        for (g, _, g2, _, a, a2), (h, _, h2, _, b, b2) in zip(leaders, placed):
            flag_map[g] = h
            flag_map[g2] = h2
            arc_map[a] = b
            arc_map[a2] = b2
        for vm in _surjections(s_vertices, r_vertices, ties, forced):
            # r's vertices are sorted, so their names order the maps as product order does
            ref = tuple.__new__(Refinement, (r, s, arc_map, vm, flag_map))
            found.append((tuple(vm.values()), ref))

    def place(i: int):
        if i == len(leaders):
            complete()
            return
        g, x, g2, x2, _, _ = leaders[i]
        for entry in on_port if g2 == g else on_edge:
            h, v, h2, v2, _, _ = entry
            if h in taken:
                continue
            n_forced = len(forced)
            # a port's partner is itself, so its second test holds at once
            if forced.setdefault(v, x) == x and forced.setdefault(v2, x2) == x2:
                placed[i] = entry
                taken.add(h)
                taken.add(h2)
                place(i + 1)
                taken.discard(h)
                taken.discard(h2)
            while len(forced) > n_forced:
                forced.popitem()  # the vertices this entry forced, last in first out

    place(0)
    del place  # it closes over itself: a cycle that would keep r, s and found
    found.sort(key=lambda item: item[0])
    return [ref for _, ref in found]


def enumerate_cospans(t: BMGraph, r: BMGraph) -> list[GraphCospan]:
    """Every cover/refinement cospan from the picture of t to the picture
    of r, none dropped: each of t's covers paired with every refinement
    of r's picture into the cover's apex, which has t's vertex count."""
    picture = phi1_graph(r)
    return [
        GraphCospan(cover, ref)
        for cover in _covers(phi1_graph(t))
        for ref in enumerate_refinements(picture, cover.target)
    ]


@dataclass(frozen=True)
class PairResult:
    """The comparison for one ordered pair of graphs."""

    tau_index: int
    rho_index: int
    bm_count: int
    cospan_count: int
    translation_injective: bool
    translation_surjective: bool
    roundtrip_exact: bool

    @property
    def ok(self) -> bool:
        return (
            self.bm_count == self.cospan_count
            and self.translation_injective
            and self.translation_surjective
            and self.roundtrip_exact
        )


@dataclass(frozen=True)
class EquivalenceReport:
    graphs: tuple[BMGraph, ...]
    pairs: tuple[PairResult, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.pairs)

    @property
    def total_bm(self) -> int:
        return sum(p.bm_count for p in self.pairs)

    @property
    def total_cospans(self) -> int:
        return sum(p.cospan_count for p in self.pairs)


def check_pair(tau: BMGraph, rho: BMGraph, ti: int, ri: int) -> PairResult:
    """Count both hom-sets and check that phi is a bijection between
    them.  An image that is not a valid cospan fails the roundtrip and
    gets no key, so the pair also fails injectivity.  Two enumerated
    cospans with one key fail it too: the images must have exactly the
    enumerated keys, and the cospan count is the raw count."""
    homs = enumerate_bm_morphisms(tau, rho)
    cospans = enumerate_cospans(tau, rho)
    cospan_keys = {cospan_key(c) for c in cospans}
    keys = set()
    roundtrip = True
    for h in homs:
        c = phi(h)
        if not validate_cospan(c).ok:
            roundtrip = False
            continue
        if phi_inv(c) != h:
            roundtrip = False
        keys.add(cospan_key(c))
    injective = len(keys) == len(homs)
    surjective = keys == cospan_keys
    return PairResult(
        ti, ri, len(homs), len(cospans), injective, surjective, roundtrip
    )


def check_equivalence(max_vertices: int, max_flags: int, progress=None) -> EquivalenceReport:
    """Compare the two encodings over every ordered pair of graphs in
    bounds.  progress, if given, is called with each PairResult as it is
    produced."""
    graphs = enumerate_bm_graphs(max_vertices, max_flags)
    results = []
    for ti, tau in enumerate(graphs):
        for ri, rho in enumerate(graphs):
            res = check_pair(tau, rho, ti, ri)
            results.append(res)
            if progress is not None:
                progress(res)
    return EquivalenceReport(tuple(graphs), tuple(results))
