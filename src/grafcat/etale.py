"""Etale maps between arc/flag/vertex graphs, and reduced covers.

An etale map is a levelwise map of diagrams whose arc component commutes
with the involutions and whose flag/vertex square is a pullback: around
every vertex of the source it restricts to a valence-preserving bijection
of flags.  Reduced covers are the etale maps that are jointly surjective
on edges and vertices and bijective on vertices; they are exactly the
quotient maps that glue ports together in pairs.

The EtaleMorphism class lives in graph_core, whose isomorphism search
returns it; the etale clauses are checked here.  A reduced cover is an
EtaleMorphism too: the cover builders return ReducedCover, its subclass,
and validate_reduced_cover accepts any EtaleMorphism.
"""

from __future__ import annotations

import itertools

from .graph_core import (
    EtaleMorphism,
    JKGraph,
    ValidationReport,
    embed_image,
    endpoint_problems,
    flag_view,
    inner_edges,
    isolated_edges,
    ports,
    spanned_subgraph,
    validate_graph,
)


def validate_etale(m: EtaleMorphism) -> ValidationReport:
    """Check the etale clauses; the report lists each violated one."""
    problems = endpoint_problems(m.source, m.target)
    if problems:
        return ValidationReport(tuple(problems))
    src, tgt = m.source, m.target
    if m.arc_map.keys() != src.arcs or not tgt.arcs.issuperset(m.arc_map.values()):
        problems.append("arc-map: not a total map from source arcs to target arcs")
    if m.flag_map.keys() != src.flags or not tgt.flags.issuperset(m.flag_map.values()):
        problems.append("flag-map: not a total map from source flags to target flags")
    if m.vertex_map.keys() != src.vertices or not tgt.vertices.issuperset(m.vertex_map.values()):
        problems.append("vertex-map: not a total map from source vertices to target vertices")
    if problems:
        return ValidationReport(tuple(problems))
    for a in sorted(src.arcs):
        if m.arc_map[src.involution[a]] != tgt.involution[m.arc_map[a]]:
            problems.append(f"involution: arc map does not commute with involutions at {a!r}")
    for h in sorted(src.flags):
        if m.arc_map[src.embed[h]] != tgt.embed[m.flag_map[h]]:
            problems.append(f"left-square: embed squares do not commute at flag {h!r}")
        if m.vertex_map[src.incidence[h]] != tgt.incidence[m.flag_map[h]]:
            problems.append(f"right-square: incidence squares do not commute at flag {h!r}")
    at_src, at_tgt = flag_view(src)[0], flag_view(tgt)[0]
    for v in sorted(src.vertices):
        image = [m.flag_map[h] for h in at_src[v]]
        if sorted(image) != at_tgt[m.vertex_map[v]]:
            problems.append(
                f"pullback: flags at {v!r} do not map bijectively onto flags at {m.vertex_map[v]!r}"
            )
    return ValidationReport(tuple(problems))


def identity_etale(g: JKGraph) -> EtaleMorphism:
    return EtaleMorphism(
        g, g, {a: a for a in g.arcs}, {h: h for h in g.flags}, {v: v for v in g.vertices}
    )


def compose_etale(m1: EtaleMorphism, m2: EtaleMorphism) -> EtaleMorphism:
    """The composite m2 after m1 (m1 first)."""
    source, middle, arcs1, flags1, vertices1 = m1
    middle2, target, arcs2, flags2, vertices2 = m2
    if middle is not middle2 and middle != middle2:
        raise ValueError("etale maps are not composable: middle graphs differ")
    arc_map = {}
    for a, b in arcs1.items():
        arc_map[a] = arcs2[b]
    flag_map = {}
    for h, k in flags1.items():
        flag_map[h] = flags2[k]
    vertex_map = {}
    for v, w in vertices1.items():
        vertex_map[v] = vertices2[w]
    return tuple.__new__(EtaleMorphism, (source, target, arc_map, flag_map, vertex_map))


def is_injective_etale(m: EtaleMorphism) -> bool:
    return (
        len(set(m.arc_map.values())) == len(m.arc_map)
        and len(set(m.flag_map.values())) == len(m.flag_map)
        and len(set(m.vertex_map.values())) == len(m.vertex_map)
    )


def open_subgraph(g: JKGraph, vertex_set) -> tuple[JKGraph, EtaleMorphism]:
    """The open subgraph spanned by a nonempty vertex subset, with its
    inclusion.  The inclusion is etale and levelwise injective."""
    W = set(vertex_set)
    if not W:
        raise ValueError("empty vertex set spans no effective subgraph")
    if not W <= g.vertices:
        raise ValueError(f"not a vertex subset: {sorted(W - g.vertices)}")
    sub = spanned_subgraph(g, W)
    return sub, identity_etale(sub)._replace(target=g)


class ReducedCover(EtaleMorphism):
    """A covering etale map that is bijective on vertices: an
    EtaleMorphism with its fields, constructor and equality.  It
    declares no __slots__, so memoised can keep per-cover data on it."""

    @property
    def morphism(self) -> EtaleMorphism:
        """The cover itself, as the etale map it is."""
        return self


def is_covering_family(ms: list[EtaleMorphism]) -> bool:
    """Jointly surjective on edges and on vertices (common target).

    An etale arc map commutes with the involutions, so it sends each
    edge onto an edge, and the members hit every target edge exactly
    when they hit every target arc."""
    if not ms:
        return False
    tgt = ms[0].target
    if any(m.target != tgt for m in ms):
        raise ValueError("covering family members must share a target")
    hit_vertices = {w for m in ms for w in m.vertex_map.values()}
    hit_arcs = {b for m in ms for b in m.arc_map.values()}
    return hit_vertices == tgt.vertices and hit_arcs == tgt.arcs


def validate_reduced_cover(rc: EtaleMorphism) -> ValidationReport:
    rep = validate_etale(rc)
    if not rep.ok:
        return rep
    problems = []
    if isolated_edges(rc.source) or isolated_edges(rc.target):
        problems.append("isolated-edges: reduced covers live between graphs without isolated edges")
    if not is_covering_family([rc]):
        problems.append("covering: not jointly surjective on edges and vertices")
    vm = rc.vertex_map
    if len(set(vm.values())) != len(vm):
        problems.append("reduced: vertex map is not injective")
    return ValidationReport(tuple(problems))


def is_reduced_cover(m: EtaleMorphism) -> bool:
    return validate_reduced_cover(m).ok


def identity_cover(g: JKGraph) -> ReducedCover:
    return tuple.__new__(ReducedCover, identity_etale(g))


def compose_covers(c1: ReducedCover, c2: ReducedCover) -> ReducedCover:
    return tuple.__new__(ReducedCover, compose_etale(c1, c2))


def glue_ports(g: JKGraph, a: str, b: str) -> tuple[JKGraph, ReducedCover]:
    """Identify ports a and b, merging their edges into one inner edge:
    replay_gluings with the single step (a, b)."""
    return replay_gluings(g, [(a, b)])


def decompose_reduced_cover(m: EtaleMorphism) -> list[tuple[str, str]]:
    """The port gluings that rebuild the cover under replay_gluings, up
    to isomorphism of the target, sorted.  They are read off the arc map:
    a source port sent to the image of a source flag arc a is glued to
    the partner of a."""
    src, am = m.source, m.arc_map
    over = {am[a]: a for a in src.embed.values()}
    glued = {p: src.involution[over[am[p]]] for p in ports(src) if am[p] in over}
    return sorted((p, q) for p, q in glued.items() if p < q)


def replay_gluings(g: JKGraph, steps: list[tuple[str, str]]) -> tuple[JKGraph, ReducedCover]:
    """Glue the steps' ports, distinct free ports of g, in one quotient,
    a reduced cover.  A step (a, b) merges the edges of a and b into one
    inner edge with arc classes {a, i(b)} and {i(a), b}, each named by
    its least member.  ValueError at the first step that names a
    non-port or a port used before (by its glued name), two ports of one
    edge, or a port on an isolated edge."""
    if not steps:
        return g, identity_cover(g)
    im = embed_image(g)
    rename: dict[str, str] = {}
    for a, b in steps:
        for x in (a, b):
            if x in rename or x not in g.arcs or x in im:
                raise ValueError(f"not a port: {rename.get(x, x)!r}")
        ia, ib = g.involution[a], g.involution[b]
        if b in (a, ia):
            raise ValueError("ports must lie on two distinct edges")
        for x, px in ((a, ia), (b, ib)):
            if px not in im:
                raise ValueError(f"port {x!r} lies on an isolated edge")
        rename[a] = rename[ib] = min(a, ib)
        rename[ia] = rename[b] = min(ia, b)
    arc_map = {x: rename.get(x, x) for x in g.arcs}
    quotient = JKGraph(
        arc_map.values(),
        g.flags,
        g.vertices,
        {arc_map[x]: arc_map[y] for x, y in g.involution.items()},
        {h: arc_map[x] for h, x in g.embed.items()},
        g.incidence,
    )
    return quotient, tuple.__new__(
        ReducedCover,
        (g, quotient, arc_map, {h: h for h in g.flags}, {v: v for v in g.vertices}),
    )


def fresh_label(label: str, used: set[str]) -> str:
    """label with the fewest trailing carets that is not in used."""
    candidate = label + "^"
    while candidate in used:
        candidate += "^"
    return candidate


def cut_edges(g: JKGraph, cut: set[tuple[str, str]]) -> tuple[JKGraph, ReducedCover]:
    """Sever the given inner edges of g, sorted arc pairs as inner_edges
    gives them, into pairs of ports; the map back to g is a reduced cover
    hitting each cut edge twice.  With nothing to cut, g itself and its
    identity cover.  ValueError names the least pair that is no inner edge."""
    if not cut:
        return g, identity_cover(g)
    cut = sorted(cut)
    inner = inner_edges(g)
    for e in cut:
        if e not in inner:
            raise ValueError(f"not an inner edge: {e}")
    arcs = set(g.arcs)
    involution = dict(g.involution)
    arc_map = {x: x for x in g.arcs}
    for a1, a2 in cut:
        c1 = fresh_label(a1, arcs)
        arcs.add(c1)
        c2 = fresh_label(a2, arcs)
        arcs.add(c2)
        involution[a1] = c1
        involution[c1] = a1
        involution[a2] = c2
        involution[c2] = a2
        arc_map[c1] = a2
        arc_map[c2] = a1
    source = JKGraph(arcs, g.flags, g.vertices, involution, g.embed, g.incidence)
    return source, tuple.__new__(
        ReducedCover,
        (source, g, arc_map, {h: h for h in g.flags}, {v: v for v in g.vertices}),
    )


def require_cover_base(x: JKGraph) -> None:
    """ValueError unless x is a valid graph without isolated edges."""
    if not validate_graph(x).ok:
        raise ValueError("invalid graph")
    if isolated_edges(x):
        raise ValueError("reduced covers are only formed over graphs without isolated edges")


def reduced_covers_of(x: JKGraph) -> list[ReducedCover]:
    """All reduced covers of x up to isomorphism, one per subset of its
    inner edges; they form a boolean lattice of size 2^(number of inner
    edges)."""
    require_cover_base(x)
    inner = sorted(inner_edges(x))
    covers = []
    for r in range(len(inner) + 1):
        for combo in itertools.combinations(inner, r):
            covers.append(cut_edges(x, set(combo))[1])
    return covers
