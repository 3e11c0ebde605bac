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
left-leg part of cospan_key on each cover, enumerated or phi's.  No apex
bound is needed: a reduced cover is bijective on vertices, so every
apex has its source's vertex count.  Cospans are compared through their
normal form (cospan_key): the cover leg forces the apex isomorphism, so
equal cospans have equal keys and the bijection checks are set
operations.  The main entry point check_equivalence compares, for every
ordered pair of graphs within bounds, the morphisms of the vertex/flag
encoding against the cover/refinement cospans of the arc encoding, and
verifies that the translation phi is a bijection between the two."""

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
    _UnionFind,
    flag_view,
    graph_clauses,
    involutions,
    memoised,
    multigraph_key,
    ports,
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
    product order.  Ties join the domain into classes; a class takes its
    forced point, or every point, and free classes vary in order of
    their first element, which keeps product order."""
    uf = _UnionFind(domain)
    for a, b in ties:
        uf.union(a, b)
    root = {v: uf.find(v) for v in domain}
    fixed: dict[str, str] = {}
    for v, w in forced.items():
        if fixed.setdefault(root[v], w) != w:
            return
    free = list(dict.fromkeys(root[v] for v in domain if root[v] not in fixed))
    hit = set(fixed.values())
    for values in itertools.product(codomain, repeat=len(free)):
        if len(hit.union(values)) == len(codomain):
            fibre = {**fixed, **dict(zip(free, values))}
            yield {v: fibre[root[v]] for v in domain}


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
    """What enumerate_refinements reads of a graph at either end."""

    vertices: list[str]  # sorted
    rank: dict[str, int]  # of each vertex in vertices
    partner: dict[str, str]  # as in flag_view
    flags: list[str]  # sorted
    leaders: list[str]  # the flags no greater than their partner
    on_port: list[str]  # the flags that are their own partner
    on_edge: list[str]  # the others


@memoised
def _layout(g: JKGraph) -> _Layout | None:
    """g's layout, or None if g is invalid or has isolated edges; found
    once per graph."""
    c = graph_clauses(g)
    if c.problems or c.isolated:
        return None
    vertices = sorted(g.vertices)
    partner = flag_view(g)[1]
    flags = sorted(g.flags)
    return _Layout(
        vertices,
        {x: i for i, x in enumerate(vertices)},
        partner,
        flags,
        [h for h in flags if h <= partner[h]],
        [h for h in flags if partner[h] == h],
        [h for h in flags if partner[h] != h],
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
    every vertex of r gets a piece.  The order is that of the vertex
    surjections in product order over the sorted vertices of s, then of
    the flag choices."""
    if len(r.vertices) > len(s.vertices) or len(r.flags) > len(s.flags):
        return []
    lr, ls = _layout(r), _layout(s)
    if lr is None or ls is None or len(lr.on_port) != len(ls.on_port):
        return []
    r_vertices, rank, r_partner, leaders = lr.vertices, lr.rank, lr.partner, lr.leaders
    s_vertices, s_partner, s_flags = ls.vertices, ls.partner, ls.flags
    on_port, on_edge = ls.on_port, ls.on_edge
    found: list[tuple[tuple[int, ...], Refinement]] = []
    chosen: dict[str, str] = {}  # flag of r -> flag of s, partners after leaders
    taken: set[str] = set()  # the values of chosen: port flags and whole edges, never half one
    forced: dict[str, str] = {}  # vertex of s -> vertex of r

    def complete():
        # Every flag of s on a port is taken, so the untaken flags are
        # whole inner edges, and each lies in one piece.
        ties = [(s.incidence[h], s.incidence[s_partner[h]]) for h in s_flags if h not in taken]
        arc_map: dict[str, str] = {}
        for g, h in chosen.items():
            arc_map[r.embed[g]] = s.embed[h]
            arc_map.setdefault(r.involution[r.embed[g]], s.involution[s.embed[h]])
        flag_map = dict(chosen)  # the search goes on changing chosen
        for vm in _surjections(s_vertices, r_vertices, ties, forced):
            key = tuple(rank[vm[v]] for v in s_vertices)
            found.append((key, tuple.__new__(Refinement, (r, s, arc_map, vm, flag_map))))

    def place(i: int):
        if i == len(leaders):
            complete()
            return
        g = leaders[i]
        g2 = r_partner[g]
        for h in on_port if g2 == g else on_edge:
            if h in taken:
                continue
            step = {g: h}
            if g2 != g:
                step[g2] = s_partner[h]
            fresh = []
            for a, b in step.items():
                v, x = s.incidence[b], r.incidence[a]
                if v not in forced:
                    forced[v] = x
                    fresh.append(v)
                elif forced[v] != x:
                    break
            else:
                chosen.update(step)
                taken.update(step.values())
                place(i + 1)
                for a, b in step.items():
                    del chosen[a]
                    taken.discard(b)
            for v in fresh:
                del forced[v]

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
