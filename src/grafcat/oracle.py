"""Exhaustive small-scale enumeration and the equivalence check.

Graphs are generated from raw combinatorial data (valence lists and
involutions), morphisms by building only the triples the morphism
clauses allow, and cospans by combining all port matchings with all
refinements.  No apex bound is needed: a reduced cover is bijective on
vertices, so every apex has its source's vertex count.  Cospans are
compared through their normal form (cospan_key): the cover leg forces
the apex isomorphism, so equal cospans have equal keys and deduplication
and the bijection checks are set operations.  The main entry point
check_equivalence compares, for every ordered pair of graphs within
bounds, the morphisms of the vertex/flag encoding against the
cover/refinement cospans of the arc encoding, and verifies that the
translation phi is a bijection between the two."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .bm import BMGraph, BMMorphism
from .cospan_equiv import (
    GraphCospan,
    cospan_key,
    phi,
    phi1_graph,
    phi_inv,
    validate_cospan,
)
from .etale import ReducedCover, replay_gluings
from .graph_core import JKGraph, _UnionFind, canonical_key, involutions, ports
from .kleisli import FlaggedSubgraphRef, Refinement, validate_refinement


@dataclass(frozen=True)
class EnumBounds:
    max_vertices: int
    max_flags: int


def _valence_lists(n_vertices: int, max_flags: int):
    """Weakly decreasing valence assignments with a bounded total."""
    def rec(i: int, cap: int, budget: int, acc: list[int]):
        if i == n_vertices:
            yield tuple(acc)
            return
        for d in range(min(cap, budget), -1, -1):
            acc.append(d)
            yield from rec(i + 1, d, budget - d, acc)
            acc.pop()

    yield from rec(0, max_flags, max_flags, [])


def enumerate_bm_graphs(max_vertices: int, max_flags: int) -> list[BMGraph]:
    """All vertex/flag graphs within the bounds, one per isomorphism
    class: the first raw graph with each canonical key of its arc
    picture, in a deterministic order."""
    found: dict[tuple, BMGraph] = {}
    for n_v in range(max_vertices + 1):
        vertices = [f"v{i}" for i in range(1, n_v + 1)]
        for valences in _valence_lists(n_v, max_flags):
            flags = []
            boundary = {}
            k = 0
            for v, d in zip(vertices, valences):
                for _ in range(d):
                    k += 1
                    f = f"f{k}"
                    flags.append(f)
                    boundary[f] = v
            for involution in involutions(flags):
                g = BMGraph(set(vertices), set(flags), boundary, involution)
                found.setdefault(canonical_key(phi1_graph(g)), g)
    return list(found.values())


def _surjections(domain: list[str], codomain: list[str]):
    if not codomain:
        if not domain:
            yield {}
        return
    for values in itertools.product(codomain, repeat=len(domain)):
        if set(values) == set(codomain):
            yield dict(zip(domain, values))


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
        # Tie the two ends of each contracted source edge into one class.
        # A class takes its forced target vertex, or every target vertex;
        # free classes vary in order of their first vertex, which keeps
        # product order over the sorted source vertices.
        complement = [f for f in tau_flags if f not in used]
        uf = _UnionFind(tau_vertices)
        for f in complement:
            uf.union(tb[f], tb[tj[f]])
        root = {v: uf.find(v) for v in tau_vertices}
        fixed: dict[str, str] = {}
        for v, w in forced.items():
            if fixed.setdefault(root[v], w) != w:
                return
        free = list(dict.fromkeys(root[v] for v in tau_vertices if root[v] not in fixed))
        hit = set(fixed.values())
        for values in itertools.product(rho_vertices, repeat=len(free)):
            if len(hit.union(values)) != len(rho_vertices):
                continue
            fibre = {**fixed, **dict(zip(free, values))}
            vertex_map = {v: fibre[root[v]] for v in tau_vertices}

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
    return out


def covers_from(t: JKGraph) -> list[ReducedCover]:
    """All reduced covers with source t: one per involution of its ports
    (each swapped pair is glued)."""
    out = []
    for matching in involutions(sorted(ports(t))):
        steps = [(p, q) for p, q in sorted(matching.items()) if p < q]
        _, cover = replay_gluings(t, steps)
        out.append(cover)
    return out


def enumerate_refinements(r: JKGraph, s: JKGraph) -> list[Refinement]:
    """All refinements r -> s, by solving for the flag choices edge by
    edge and filtering through the validator."""
    if len(r.vertices) > len(s.vertices) or len(r.flags) > len(s.flags):
        return []
    if len(ports(r)) != len(ports(s)):
        return []
    out = []
    r_vertices = sorted(r.vertices)
    s_flag_of_arc = {a: h for h, a in s.embed.items()}

    # group the flags of r into edge leaders and their forced partners
    leaders = []
    partner_of: dict[str, str] = {}
    for g in sorted(r.flags):
        a = r.involution[r.embed[g]]
        if a in set(r.embed.values()):
            g2 = next(h for h in r.flags if r.embed[h] == a)
            if g2 < g:
                partner_of[g2] = g
                continue
        leaders.append(g)

    for vm in _surjections(sorted(s.vertices), r_vertices):
        vertex_map = {x: frozenset(v for v, y in vm.items() if y == x) for x in r_vertices}
        flags_in_piece = {
            x: [h for h in sorted(s.flags) if s.incidence[h] in vertex_map[x]]
            for x in r_vertices
        }

        def candidates(g: str):
            return flags_in_piece[r.incidence[g]]

        def build(idx: int, chosen: dict[str, str]):
            if idx == len(leaders):
                arc_map = {}
                ok = True
                for g, h in chosen.items():
                    arc_map[r.embed[g]] = s.embed[h]
                    back = s.involution[s.embed[h]]
                    partner_arc = r.involution[r.embed[g]]
                    if arc_map.setdefault(partner_arc, back) != back:
                        ok = False
                        break
                if ok and set(arc_map) == set(r.arcs):
                    ref = Refinement(
                        r,
                        s,
                        arc_map,
                        vertex_map,
                        {
                            g: FlaggedSubgraphRef(vertex_map[r.incidence[g]], h)
                            for g, h in chosen.items()
                        },
                    )
                    if validate_refinement(ref).ok:
                        out.append(ref)
                return
            g = leaders[idx]
            for h in candidates(g):
                if h in chosen.values():
                    continue
                step = {g: h}
                if g in partner_of:
                    g2 = partner_of[g]
                    back = s.involution[s.embed[h]]
                    h2 = s_flag_of_arc.get(back)
                    if h2 is None or h2 in chosen.values() or h2 == h:
                        continue
                    if h2 not in candidates(g2):
                        continue
                    step[g2] = h2
                build(idx + 1, {**chosen, **step})

        build(0, {})
    return out


def enumerate_cospans(t: JKGraph, r: JKGraph) -> list[GraphCospan]:
    """All cover/refinement cospans from t to r, one per equality class:
    the first cospan found with each cospan_key.  Every apex is the
    target of a reduced cover of t, so it has t's vertex count."""
    found: dict[tuple, GraphCospan] = {}
    for cover in covers_from(t):
        for ref in enumerate_refinements(r, cover.target):
            c = GraphCospan(cover, ref)
            found.setdefault(cospan_key(c), c)
    return list(found.values())


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
    bounds: EnumBounds
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
    gets no key, so the pair also fails injectivity."""
    homs = enumerate_bm_morphisms(tau, rho)
    cospans = enumerate_cospans(phi1_graph(tau), phi1_graph(rho))
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
    surjective = all(cospan_key(c) in keys for c in cospans)
    return PairResult(
        ti, ri, len(homs), len(cospans), injective, surjective, roundtrip
    )


def check_equivalence(max_vertices: int, max_flags: int, progress=None) -> EquivalenceReport:
    """Compare the two encodings over every ordered pair of graphs in
    bounds.  progress, if given, is called with each PairResult as it is
    produced."""
    bounds = EnumBounds(max_vertices, max_flags)
    graphs = enumerate_bm_graphs(max_vertices, max_flags)
    results = []
    for ti, tau in enumerate(graphs):
        for ri, rho in enumerate(graphs):
            res = check_pair(tau, rho, ti, ri)
            results.append(res)
            if progress is not None:
                progress(res)
    return EquivalenceReport(bounds, tuple(graphs), tuple(results))
