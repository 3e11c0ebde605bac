"""Graphs encoded as vertex/flag structures, and their morphisms.

Here a graph is a quadruple (V, F, boundary, involution): flags are
half-edges attached to vertices by the boundary map, and the involution
j: F -> F pairs flags into edges.  Fixpoints of j are tails (open ends);
free orbits are edges.

A morphism tau -> rho runs covariantly on vertices and contravariantly
on flags: it is a triple

    flag_map:    F_rho -> F_tau   injective,
    vertex_map:  V_tau -> V_rho   surjective,
    virtual_involution:  a fixpoint-free involution on the flags of tau
                         missed by flag_map.

Flags outside the image are contracted; the virtual involution groups
them into contracted edges, reusing the actual pairing where one exists
and pairing leftover tails among themselves.  Such a pair of paired
tails is a virtual edge: an edge that exists only in the eyes of the
morphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .graph_core import ValidationReport, _UnionFind, flag_isomorphisms, flags_by_vertex, memoised


@dataclass(frozen=True)
class BMGraph:
    """A vertex/flag graph: boundary F -> V, involution j: F -> F."""

    vertices: frozenset[str]
    flags: frozenset[str]
    boundary: dict[str, str]
    involution: dict[str, str]

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        object.__setattr__(self, "flags", frozenset(self.flags))
        object.__setattr__(self, "boundary", dict(self.boundary))
        object.__setattr__(self, "involution", dict(self.involution))


def validate_bm_graph(g: BMGraph) -> ValidationReport:
    problems = []
    if g.boundary.keys() != g.flags:
        problems.append("boundary-domain: boundary must be defined on exactly the flags")
    else:
        for f in sorted(g.flags):
            if g.boundary[f] not in g.vertices:
                problems.append(f"boundary-image: boundary of {f!r} is not a vertex")
    if g.involution.keys() != g.flags:
        problems.append("involution-domain: involution must be defined on exactly the flags")
    else:
        for f in sorted(g.flags):
            t = g.involution[f]
            if t not in g.flags:
                problems.append(f"involution-image: j({f!r}) = {t!r} is not a flag")
            elif g.involution[t] != f:
                problems.append(f"involution: j(j({f!r})) != {f!r}")
    return ValidationReport(tuple(problems))


def bm_tails(g: BMGraph) -> set[str]:
    return {f for f in g.flags if g.involution[f] == f}


def bm_edges(g: BMGraph) -> set[frozenset[str]]:
    return {frozenset((f, g.involution[f])) for f in g.flags if g.involution[f] != f}


def bm_point() -> BMGraph:
    return BMGraph({"v"}, set(), {}, {})


def bm_corolla(n: int) -> BMGraph:
    flags = [str(i) for i in range(1, n + 1)]
    return BMGraph({"v"}, set(flags), {f: "v" for f in flags}, {f: f for f in flags})


class _BMMorphismFields(NamedTuple):
    source: BMGraph
    target: BMGraph
    flag_map: dict[str, str]
    vertex_map: dict[str, str]
    virtual_involution: dict[str, str]


class BMMorphism(_BMMorphismFields):
    """A morphism of vertex/flag graphs; see the module docstring.

    flag_map sends each flag of the target to the source flag it comes
    from; virtual_involution pairs up the source flags outside its image.
    An immutable value that compares as the tuple of its five fields.
    The constructor copies the three maps, so no caller's dict is
    aliased.  The builders in this module skip the copy and hand their
    maps to one tuple.__new__ call:
      - compose_bm, the identities, factorise_bm's graftings and
        find_bm_isomorphisms between two graphs build fresh maps;
      - the automorphisms of a graph share the maps memoised on it;
      - the compression of factorise_bm holds the maps of the morphism
        it splits.
    Callers must not write into the maps.
    """

    __slots__ = ()

    def __new__(cls, source, target, flag_map, vertex_map, virtual_involution={}):
        maps = dict(flag_map), dict(vertex_map), dict(virtual_involution)
        return tuple.__new__(cls, (source, target, *maps))


def contracted_pairs(m: BMMorphism) -> set[frozenset[str]]:
    """The contracted edges: orbits of the virtual involution (actual
    edges of the source where both halves survive in it)."""
    return {frozenset((f, t)) for f, t in m.virtual_involution.items()}


def validate_bm_morphism(m: BMMorphism) -> ValidationReport:
    problems = []
    for rep, name in (
        (validate_bm_graph(m.source), "source"),
        (validate_bm_graph(m.target), "target"),
    ):
        if not rep.ok:
            problems.append(f"{name}-invalid: " + "; ".join(rep.problems))
    if problems:
        return ValidationReport(tuple(problems))
    src, tgt = m.source, m.target
    if m.flag_map.keys() != tgt.flags or not src.flags.issuperset(m.flag_map.values()):
        problems.append("flag-map: not a total map from target flags to source flags")
    if m.vertex_map.keys() != src.vertices or not tgt.vertices.issuperset(m.vertex_map.values()):
        problems.append("vertex-map: not a total map from source vertices to target vertices")
    if problems:
        return ValidationReport(tuple(problems))
    image = set(m.flag_map.values())
    if len(image) != len(m.flag_map):
        problems.append("flag-injective: flag map identifies two target flags")
    if set(m.vertex_map.values()) != tgt.vertices:
        problems.append("vertex-surjective: some target vertex has empty fibre")
    for f in sorted(image):
        if src.involution[f] not in image and src.involution[f] != f:
            problems.append(f"image-closed: {f!r} is hit but its partner is not")
    comp = src.flags - image
    vi = m.virtual_involution
    if vi.keys() != comp:
        problems.append(
            "virtual-involution: must be defined on exactly the flags outside the image"
        )
    else:
        for f in sorted(comp):
            t = vi[f]
            if t not in comp or vi.get(t) != f:
                problems.append(f"virtual-involution: not an involution of the complement at {f!r}")
            elif t == f:
                problems.append(f"virtual-involution: fixes {f!r}")
            elif src.involution[f] != f and src.involution[f] != t:
                problems.append(
                    f"virtual-matches-actual: {f!r} is half of an actual edge but is "
                    "virtually paired elsewhere"
                )
    if problems:
        return ValidationReport(tuple(problems))
    inv = {f: x for x, f in m.flag_map.items()}
    for x in sorted(tgt.flags):
        if m.vertex_map[src.boundary[m.flag_map[x]]] != tgt.boundary[x]:
            problems.append(f"boundary: boundaries disagree at target flag {x!r}")
    for pair in sorted(contracted_pairs(m), key=sorted):
        f, t = sorted(pair)
        if m.vertex_map[src.boundary[f]] != m.vertex_map[src.boundary[t]]:
            problems.append(
                f"contracted-ends: contracted pair ({f!r}, {t!r}) straddles two target vertices"
            )
    for f in sorted(image):
        t = src.involution[f]
        if t != f and t in image and tgt.involution[inv[f]] != inv[t]:
            problems.append(f"edge-pullback: source edge ({f!r}, {t!r}) does not pull back")
    return ValidationReport(tuple(problems))


def bm_identity(g: BMGraph) -> BMMorphism:
    flag_map, vertex_map = {f: f for f in g.flags}, {v: v for v in g.vertices}
    return tuple.__new__(BMMorphism, (g, g, flag_map, vertex_map, {}))


def compose_bm(m1: BMMorphism, m2: BMMorphism) -> BMMorphism:
    """The composite of m1: tau -> sigma and m2: sigma -> rho.

    Vertices compose forward, flags backward; the composite misses the
    flags m1 misses plus the m1-images of the flags m2 misses, and its
    virtual involution is m1's on the former and m2's transported along
    m1's flag map on the latter.  The composite owns its three maps:
    none of them is a map of m1 or m2.
    """
    source, middle, flags1, vertices1, virtual1 = m1
    middle2, target, flags2, vertices2, virtual2 = m2
    if middle is not middle2 and middle != middle2:
        raise ValueError("morphisms are not composable: middle graphs differ")
    flag_map = {}
    for x, f in flags2.items():
        flag_map[x] = flags1[f]
    vertex_map = {}
    for v, w in vertices1.items():
        vertex_map[v] = vertices2[w]
    virtual = virtual1.copy()
    for f, t in virtual2.items():
        virtual[flags1[f]] = flags1[t]
    return tuple.__new__(BMMorphism, (source, target, flag_map, vertex_map, virtual))


@dataclass(frozen=True)
class BMClassification:
    """Which of the distinguished morphism classes a morphism lands in."""

    is_isomorphism: bool
    is_grafting: bool
    is_compression: bool
    is_contraction: bool
    is_merger: bool


def classify_bm(m: BMMorphism) -> BMClassification:
    """Classify a (valid) morphism.

    grafting: bijective on flags and vertices (only the pairing grows);
    compression: restricts to a bijection of tails;
    contraction: a compression whose vertex fibres are connected by
        contracted edges;
    merger: a compression under which edges correspond to edges;
    isomorphism: a grafting that is also a compression.
    """
    src, tgt = m.source, m.target
    grafting = len(m.flag_map) == len(src.flags) and len(
        set(m.vertex_map.values())
    ) == len(src.vertices)
    src_tails = bm_tails(src)
    tgt_tails = bm_tails(tgt)
    compression = {m.flag_map[x] for x in tgt_tails} == src_tails
    contraction = compression and _fibres_connected(m)
    merger = compression and _edges_onto(m)
    return BMClassification(
        is_isomorphism=grafting and compression,
        is_grafting=grafting,
        is_compression=compression,
        is_contraction=contraction,
        is_merger=merger,
    )


def _fibres_connected(m: BMMorphism) -> bool:
    src = m.source
    if not src.vertices:
        return True
    uf = _UnionFind(src.vertices)
    for pair in contracted_pairs(m):
        f, t = tuple(pair)
        uf.union(src.boundary[f], src.boundary[t])
    fibre_root: dict[str, str] = {}
    for v in sorted(src.vertices):
        w = m.vertex_map[v]
        r = uf.find(v)
        if fibre_root.setdefault(w, r) != r:
            return False
    return True


def _edges_onto(m: BMMorphism) -> bool:
    src, tgt = m.source, m.target
    hit = set()
    for e in bm_edges(tgt):
        x, y = tuple(e)
        f, t = m.flag_map[x], m.flag_map[y]
        if src.involution[f] != t:
            return False  # a target edge made of source tails
        hit.add(frozenset((f, t)))
    return hit == bm_edges(src)


@memoised
def _ghosts(g: BMGraph) -> dict[frozenset[tuple[str, str]], BMGraph]:
    """The ghost graphs of the morphisms out of g, by involution; a
    table that ghost_graph fills."""
    return {}


def ghost_graph(m: BMMorphism) -> BMGraph:
    """The intermediate graph of the grafting/compression factorisation:
    the source's vertices and flags, re-paired so that the pairing of the
    target is pulled back across the image and the virtual edges become
    actual.

    One graph per source and involution: the morphisms out of a source
    whose ghosts pair the flags alike share one ghost object, and with
    it everything memoised on it, so callers must not write into it."""
    src, tgt = m.source, m.target
    involution = {m.flag_map[x]: m.flag_map[y] for x, y in tgt.involution.items()}
    involution.update(m.virtual_involution)
    ghosts = _ghosts(src)
    key = frozenset(involution.items())
    ghost = ghosts.get(key)
    if ghost is None:
        ghost = ghosts[key] = BMGraph(src.vertices, src.flags, src.boundary, involution)
    return ghost


def factorise_bm(m: BMMorphism) -> tuple[BMGraph, BMMorphism, BMMorphism]:
    """Split m into a grafting followed by a compression through its
    ghost graph.  The two parts compose back to m on the nose.  The
    ghost is shared by every morphism out of m's source with the same
    ghost (see ghost_graph).  The compression holds m's own three maps.
    Callers must not write into any of them."""
    source, target, flag_map, vertex_map, virtual = m
    mid = ghost_graph(m)
    identity = {f: f for f in source.flags}, {v: v for v in source.vertices}
    graft = tuple.__new__(BMMorphism, (source, mid, *identity, {}))
    compress = tuple.__new__(BMMorphism, (mid, target, flag_map, vertex_map, virtual))
    return mid, graft, compress


def commute_bm(m1: BMMorphism, m2: BMMorphism) -> tuple[BMGraph, BMMorphism, BMMorphism]:
    """Rewrite a compression followed by a grafting as a grafting
    followed by a compression (with the same composite)."""
    if not classify_bm(m1).is_compression:
        raise ValueError("first morphism must be a compression")
    if not classify_bm(m2).is_grafting:
        raise ValueError("second morphism must be a grafting")
    return factorise_bm(compose_bm(m1, m2))


@memoised
def _flags_at(g: BMGraph) -> dict[str, list[str]]:
    """Each vertex's sorted flags, built once per graph."""
    return flags_by_vertex(g.vertices, g.boundary)


def _search_maps(g1: BMGraph, g2: BMGraph) -> Iterator[tuple[dict[str, str], ...]]:
    """The (flag_map, vertex_map, virtual_involution) maps of the
    isomorphisms g1 -> g2 of two graphs of equal size, in
    flag_isomorphisms' order."""
    return (
        ({x: f for f, x in fmap.items()}, vmap, {})
        for vmap, fmap in flag_isomorphisms(
            _flags_at(g1), g1.involution, _flags_at(g2), g2.involution
        )
    )


@memoised
def _automorphism_maps(g: BMGraph) -> tuple[tuple[dict[str, str], ...], ...]:
    """The maps of g's automorphisms, searched once per graph.  They hold
    no reference to g, so the memo does not keep g in a cycle."""
    return tuple(_search_maps(g, g))


def find_bm_isomorphisms(g1: BMGraph, g2: BMGraph) -> list[BMMorphism]:
    """All isomorphisms g1 -> g2, as morphism triples: the involution is
    the partner map, with tails as their own partners.

    The automorphisms of a graph (g1 is g2) are searched once per graph
    object and their maps kept on it; each call builds fresh morphisms
    around those shared maps, so callers must not write into them."""
    if g1 is g2:
        maps = _automorphism_maps(g1)
    elif len(g1.vertices) != len(g2.vertices) or len(g1.flags) != len(g2.flags):
        return []
    else:
        maps = _search_maps(g1, g2)
    ends = (g1, g2)
    return [tuple.__new__(BMMorphism, ends + m) for m in maps]


def is_bm_isomorphic(g1: BMGraph, g2: BMGraph) -> bool:
    return bool(find_bm_isomorphisms(g1, g2))
