"""Refinements of graphs, and the generic/free calculus built on them.

A refinement R -> S exhibits S as the result of replacing every vertex
of R by a graph (the piece at that vertex) and gluing the pieces along
the edges of R.  It is recorded by three maps:

    arc_map:     arcs of R     -> arcs of S
    vertex_map:  vertices of S -> the vertex x of R whose piece contains
                                  it (onto: every piece has a vertex)
    flag_map:    flags g of R  -> the flag h of S where the piece at g's
                                  vertex meets the slot of g

Pieces may glue to themselves: an inner edge of S both of whose flags
are chosen by flags at the same x comes from a loop edge of R, and the
piece is recovered by cutting that edge open.  The flags of the piece at
x that are not chosen must pair up internally; this closure clause,
together with the commuting squares below, is what makes the pieces glue
back to exactly S.

Refinements are the generic morphisms of a Kleisli category whose free
morphisms are etale maps; this module also provides the generic/free
factorisation data, the pushout of a refinement against a reduced
cover, and equality of composites by the middle isomorphism they force.

Two constructions are cuts of a refinement's target: the pieces summed
into one reduced cover are the target with every edge between two
chosen flags cut open, and a reduced cover followed by a refinement
factors through the target with the edges the cover glues cut open.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .etale import (
    EtaleMorphism,
    ReducedCover,
    compose_etale,
    cut_edges,
    decompose_reduced_cover,
    open_subgraph,
    replay_gluings,
)
from .graph_core import (
    JKGraph,
    ValidationReport,
    components,
    corolla,
    endpoint_problems,
    flag_view,
    graph_clauses,
    graph_sum,
    inner_edges,
    isolated_edges,
    local_interface,
    memoised,
    ports,
    relabel,
)


class _RefinementFields(NamedTuple):
    source: JKGraph
    target: JKGraph
    arc_map: dict[str, str]
    vertex_map: dict[str, str]
    flag_map: dict[str, str]


class Refinement(_RefinementFields):
    """A refinement source -> target by its three maps (module docstring).

    The paper's W_x, the vertices of the piece at x, is the fibre of
    vertex_map over x (piece_vertices lists them all), and the flagged
    subgraph (W_x, h) of a flag g at x is that fibre together with
    h = flag_map[g].

    An immutable value that compares as the tuple of its five fields.
    The constructor copies the three maps, so no caller's dict is
    aliased; the library's builders hand over maps they have just built
    in one tuple.__new__ call, and may share a map between the values
    they return.  Callers must not write into the maps."""

    __slots__ = ()

    def __new__(cls, source, target, arc_map, vertex_map, flag_map):
        maps = dict(arc_map), dict(vertex_map), dict(flag_map)
        return tuple.__new__(cls, (source, target, *maps))


def piece_vertices(r: Refinement) -> dict[str, list[str]]:
    """x -> the sorted vertices W_x of the piece at x, for every source
    vertex x and every other value of vertex_map."""
    out: dict[str, list[str]] = {x: [] for x in sorted(r.source.vertices)}
    for v in sorted(r.vertex_map):
        out.setdefault(r.vertex_map[v], []).append(v)
    return out


def validate_refinement(r: Refinement) -> ValidationReport:
    """Check the refinement clauses; the report lists each violated one.
    The last, closure, asks each unchosen target flag to pair across its
    edge with another unchosen flag of its piece.  It runs once the others
    hold, and then the squares and the port bijection make a flag facing a
    port or a chosen flag chosen itself: only the partner's piece is left."""
    problems = endpoint_problems(r.source, r.target)
    if problems:
        return ValidationReport(tuple(problems))
    for g, name in ((r.source, "source"), (r.target, "target")):
        if graph_clauses(g).isolated:
            problems.append(
                f"{name}-isolated: refinements run between graphs without isolated edges"
            )
    src, tgt = r.source, r.target
    if r.arc_map.keys() != src.arcs or not tgt.arcs.issuperset(r.arc_map.values()):
        problems.append("arc-map: not a total map from source arcs to target arcs")
    if r.vertex_map.keys() != tgt.vertices or not src.vertices.issuperset(r.vertex_map.values()):
        problems.append("vertex-map: not a total map from target vertices to source vertices")
    if r.flag_map.keys() != src.flags or not tgt.flags.issuperset(r.flag_map.values()):
        problems.append("flag-map: not a total map from source flags to target flags")
    if problems:
        return ValidationReport(tuple(problems))
    for x in sorted(src.vertices.difference(r.vertex_map.values())):
        problems.append(f"pieces: the piece at {x!r} occupies no vertices")
    for g in sorted(src.flags):
        h = r.flag_map[g]
        if r.vertex_map[tgt.incidence[h]] != src.incidence[g]:
            problems.append(f"flag-in-piece: chosen flag for {g!r} sits outside the piece")
        if r.arc_map[src.embed[g]] != tgt.embed[h]:
            problems.append(f"left-square: embed squares do not commute at flag {g!r}")
    for x, at_x in sorted(flag_view(src)[0].items()):
        if len({r.flag_map[g] for g in at_x}) != len(at_x):
            problems.append(f"pullback: two flags at {x!r} choose the same target flag")
    for a in sorted(src.arcs):
        if r.arc_map[src.involution[a]] != tgt.involution[r.arc_map[a]]:
            problems.append(f"involution: arc map does not commute with involutions at {a!r}")
    src_ports, tgt_ports = ports(src), ports(tgt)
    port_image = {r.arc_map[a] for a in src_ports}
    if len(port_image) != len(src_ports) or port_image != tgt_ports:
        problems.append("ports: arc map is not a bijection from source ports to target ports")
    if problems:
        return ValidationReport(tuple(problems))
    piece_of = {h: r.vertex_map[v] for h, v in tgt.incidence.items()}
    chosen = set(r.flag_map.values())
    partner = flag_view(tgt)[1]
    for x, h in sorted((piece_of[h], h) for h in tgt.flags - chosen):
        if piece_of[partner[h]] != x:
            problems.append(
                f"closure: unchosen flag {h!r} of the piece at {x!r} reaches outside it"
            )
    return ValidationReport(tuple(problems))


def identity_refinement(g: JKGraph) -> Refinement:
    return Refinement(
        g,
        g,
        {a: a for a in g.arcs},
        {v: v for v in g.vertices},
        {h: h for h in g.flags},
    )


def pieces(r: Refinement) -> dict[str, tuple[JKGraph, dict[str, str]]]:
    """The piece at each source vertex, with its interface.

    Returns x -> (piece, bij) where the piece is the subgraph of the
    target spanned by W_x with its self-glued edges (both flags chosen
    at x) cut open, and bij sends each port of the piece to the source
    arc pointing into x along the corresponding flag.
    """
    src, tgt = r.source, r.target
    out = {}
    for x, w in piece_vertices(r).items():
        span, _ = open_subgraph(tgt, w)
        at_x = flag_view(src)[0].get(x, ())
        chosen_arcs = {tgt.embed[r.flag_map[g]] for g in at_x}
        piece, _ = cut_edges(span, {e for e in inner_edges(span) if e <= chosen_arcs})
        out[x] = piece, {
            piece.involution[piece.embed[r.flag_map[g]]]: src.involution[src.embed[g]]
            for g in at_x
        }
    return out


def _disjoint_pieces(
    assignment: dict[str, tuple[JKGraph, dict[str, str]]],
) -> tuple[JKGraph, dict[str, str]]:
    """Sum the pieces with per-vertex prefixes in one pass; returns the
    sum and the slot map, from each incoming arc of a vertex x to the
    prefixed port of x's piece occupying that slot.  ValueError if two
    prefixed labels collide."""
    involution, embed, incidence, vertices, slot = {}, {}, {}, set(), {}
    size = 0
    for x in sorted(assignment):
        piece, bij = assignment[x]
        pfx = x + "."
        involution.update((pfx + a, pfx + b) for a, b in piece.involution.items())
        embed.update((pfx + h, pfx + a) for h, a in piece.embed.items())
        incidence.update((pfx + h, pfx + v) for h, v in piece.incidence.items())
        vertices.update(pfx + v for v in piece.vertices)
        slot.update((a, pfx + q) for q, a in bij.items())
        size += len(piece.arcs) + len(piece.flags) + len(piece.vertices)
    if len(involution) + len(embed) + len(vertices) != size:
        raise ValueError("summed graphs share a label")
    return JKGraph(set(involution), set(embed), vertices, involution, embed, incidence), slot


def refine(r: JKGraph, assignment: dict[str, tuple[JKGraph, dict[str, str]]]) -> Refinement:
    """Replace each vertex of r by its assigned piece and glue along the
    edges of r; returns the refinement of r by the glued graph.

    assignment maps each vertex x to (piece, bij) with bij a bijection
    from the piece's ports to the arcs pointing into x.
    """
    refinement, _ = _refine_with_cover(r, assignment)
    return refinement


def _refine_with_cover(
    r: JKGraph, assignment: dict[str, tuple[JKGraph, dict[str, str]]]
) -> tuple[Refinement, ReducedCover]:
    """refine(), also returning the gluing quotient from the summed
    prefixed pieces onto the refined graph."""
    clauses = graph_clauses(r)
    if clauses.problems:
        raise ValueError("invalid graph: " + "; ".join(clauses.problems))
    if clauses.isolated:
        raise ValueError("cannot refine a graph with isolated edges")
    if assignment.keys() != r.vertices:
        raise ValueError("assignment must cover exactly the vertices")
    for x in sorted(assignment):
        piece, bij = assignment[x]
        clauses = graph_clauses(piece)
        if clauses.problems:
            raise ValueError(f"piece at {x!r} invalid: " + "; ".join(clauses.problems))
        if (not piece.vertices and not piece.arcs) or clauses.isolated:
            raise ValueError(f"piece at {x!r} must be nonempty without isolated edges")
        if bij.keys() != ports(piece):
            raise ValueError(f"interface at {x!r} is not defined on the piece's ports")
        if len(set(bij.values())) != len(bij) or set(bij.values()) != local_interface(r, x):
            raise ValueError(f"interface at {x!r} is not a bijection onto the incoming arcs")

    total, slot = _disjoint_pieces(assignment)
    steps = [
        (slot[r.involution[a1]], slot[r.involution[a2]])
        for a1, a2 in sorted(tuple(sorted(e)) for e in inner_edges(r))
    ]
    glued, cover = replay_gluings(total, steps)

    vertex_map = {x + "." + v: x for x in sorted(r.vertices) for v in assignment[x][0].vertices}
    flag_map, arc_map = {}, {}
    flag_of_arc = {a: h for h, a in total.embed.items()}
    for g in sorted(r.flags):
        a = r.embed[g]
        q = slot[r.involution[a]]
        h = flag_of_arc[total.involution[q]]
        flag_map[g] = h
        arc_map[a] = cover.arc_map[total.embed[h]]
        arc_map[r.involution[a]] = cover.arc_map[q]
    return tuple.__new__(Refinement, (r, glued, arc_map, vertex_map, flag_map)), cover


def compose_refinements(r1: Refinement, r2: Refinement) -> Refinement:
    """The composite of r1: R -> S and r2: S -> T: each piece of r1 is
    refined in turn by the pieces of r2 sitting over it."""
    source, middle, arcs1, vertices1, flags1 = r1
    middle2, target, arcs2, vertices2, flags2 = r2
    if middle is not middle2 and middle != middle2:
        raise ValueError("refinements are not composable: middle graphs differ")
    arc_map = {}
    for a, b in arcs1.items():
        arc_map[a] = arcs2[b]
    vertex_map = {}
    for v, w in vertices2.items():
        vertex_map[v] = vertices1[w]
    flag_map = {}
    for g, h in flags1.items():
        flag_map[g] = flags2[h]
    return tuple.__new__(Refinement, (source, target, arc_map, vertex_map, flag_map))


def transport_refinement(r: Refinement, iso: EtaleMorphism) -> Refinement:
    """Push a refinement forward along an isomorphism of its target."""
    arc_map = {a: iso.arc_map[b] for a, b in r.arc_map.items()}
    vertex_map = {iso.vertex_map[v]: x for v, x in r.vertex_map.items()}
    flag_map = {g: iso.flag_map[h] for g, h in r.flag_map.items()}
    return tuple.__new__(Refinement, (r.source, iso.target, arc_map, vertex_map, flag_map))


def refinement_to_cover(r: Refinement) -> ReducedCover:
    """The target with every edge between two chosen flags cut open,
    mapping back onto the target: the sum of the pieces as a single
    reduced cover that remembers only the pieces."""
    cut = {frozenset(r.arc_map[a] for a in e) for e in inner_edges(r.source)}
    return cut_edges(r.target, cut)[1]


def cover_to_refinement(rc: ReducedCover) -> Refinement:
    """The refinement whose pieces are the connected components of the
    cover's source, with one corolla-shaped vertex per component (named
    after the component's least vertex, with the component's own port
    labels)."""
    src, tgt = rc.source, rc.target
    comp_vertex = {}
    corollas = []
    for comp in components(src):
        if not comp.vertices:
            raise ValueError("cover source has an isolated edge component")
        name = min(comp.vertices)
        comp_vertex[name] = comp
        corollas.append(relabel(corolla(sorted(ports(comp))), vertex_map={"v": name}))

    # ports of the source glued pairwise onto inner edges of the target
    coarse, cover = replay_gluings(graph_sum(corollas), decompose_reduced_cover(rc))

    vertex_map = {
        rc.vertex_map[u]: name for name, comp in comp_vertex.items() for u in comp.vertices
    }
    ref_flag_map = {}
    arc_map = {}
    for name, comp in comp_vertex.items():
        for p in sorted(ports(comp)):
            # the flag of the source across p's edge, and its image below
            h_p = next(h for h in comp.flags if comp.embed[h] == src.involution[p])
            ref_flag_map[p + "*"] = rc.flag_map[h_p]
            arc_map[cover.arc_map[p + "*"]] = rc.arc_map[src.embed[h_p]]
            arc_map[cover.arc_map[p]] = rc.arc_map[p]
    return Refinement(coarse, tgt, arc_map, vertex_map, ref_flag_map)


def pushout_gen_rc(gen: Refinement, rc: EtaleMorphism) -> tuple[Refinement, ReducedCover]:
    """Push out a refinement gen: R -> S against a reduced cover
    rc: R -> R' sharing its source.  Returns (gen': R' -> S',
    rc': S -> S') closing the square; when rc is an identity the inputs
    come back unchanged."""
    if gen.source != rc.source:
        raise ValueError("pushout needs a refinement and a cover with a common source")
    steps = decompose_reduced_cover(rc)
    transported = [tuple(sorted((gen.arc_map[p], gen.arc_map[q]))) for p, q in steps]
    new_target, rc_out = replay_gluings(gen.target, transported)

    vertex_map = {rc_out.vertex_map[v]: rc.vertex_map[x] for v, x in gen.vertex_map.items()}
    flag_map = {rc.flag_map[g]: rc_out.flag_map[h] for g, h in gen.flag_map.items()}
    arc_map = {}
    for a in rc.source.arcs:
        arc_map[rc.arc_map[a]] = rc_out.arc_map[gen.arc_map[a]]
    gen_out = tuple.__new__(Refinement, (rc.target, new_target, arc_map, vertex_map, flag_map))
    return gen_out, rc_out


@dataclass(frozen=True)
class KleisliMorphism:
    """A morphism presented by its generic/free factorisation: a
    refinement followed by an etale map out of the refined graph."""

    generic: Refinement
    free: EtaleMorphism

    @property
    def source(self) -> JKGraph:
        return self.generic.source

    @property
    def target(self) -> JKGraph:
        return self.free.target


def free_kleisli(m: EtaleMorphism) -> KleisliMorphism:
    return KleisliMorphism(identity_refinement(m.source), m)


def compose_cover_then_refinement(rc: ReducedCover, u: Refinement) -> KleisliMorphism:
    """The composite of the free morphism of a reduced cover rc: T -> R
    with a refinement u: R -> U, again in generic/free form: U with the
    edges that rc glues cut open, refined from T, followed by the cover
    that glues them back.

    rc is bijective on vertices and flags, so the pieces of u pulled
    back along rc are u's own pieces; only the inner edges of R that no
    inner edge of T provides stay open in the middle."""
    if rc.target is not u.source and rc.target != u.source:
        raise ValueError("cover and refinement are not composable")
    src = rc.source
    kept, vmap_inv = _cover_layout(rc)
    cut = {frozenset(u.arc_map[a] for a in e) for e in inner_edges(u.source) - kept}
    mid, free = cut_edges(u.target, cut)
    vertex_map = {v: vmap_inv[y] for v, y in u.vertex_map.items()}
    flag_map = {g: u.flag_map[rc.flag_map[g]] for g in src.flags}
    arc_map = {}
    for g, h in flag_map.items():
        a = src.embed[g]
        arc_map[a] = mid.embed[h]
        arc_map[src.involution[a]] = mid.involution[mid.embed[h]]
    refinement = tuple.__new__(Refinement, (src, mid, arc_map, vertex_map, flag_map))
    return KleisliMorphism(refinement, free)


@memoised
def _cover_layout(rc: ReducedCover) -> tuple[frozenset[frozenset[str]], dict[str, str]]:
    """The inner edges of rc's target that inner edges of its source
    provide, and the inverse of its vertex bijection, found once per
    cover."""
    kept = frozenset(frozenset(rc.arc_map[a] for a in e) for e in inner_edges(rc.source))
    return kept, {y: x for x, y in rc.vertex_map.items()}


def _middle_iso(k1: KleisliMorphism, k2: KleisliMorphism) -> EtaleMorphism | None:
    """The isomorphism of middles that both parts force, or None.

    Free parts are etale: once a middle vertex v goes to w, each flag at v
    goes to the flag at w over the same flag below, and its partner to
    that flag's partner.  Walks start from the flags the generic parts
    choose and check that partners (so ports) meet and that vertices keep
    pieces and images below.  A component with no chosen flag lies in one
    piece and takes the first unused vertex that completes it, which is
    exact: component maps keeping pieces and images compose and invert."""
    (r1, m1), (r2, m2) = (k1.generic, k1.free), (k2.generic, k2.free)
    mid1, mid2 = r1.target, r2.target
    (at1, partner1), (_, partner2) = flag_view(mid1), flag_view(mid2)
    piece1, piece2 = r1.vertex_map, r2.vertex_map
    over = {(mid2.incidence[k], m2.flag_map[k]): k for k in mid2.flags}
    fmap = {h: r2.flag_map[g] for g, h in r1.flag_map.items()}
    vmap: dict[str, str] = {}
    used: set[str] = set()

    def grow(stack: list[tuple[str, str]]) -> bool:
        """Map the components the vertex pairs on the stack reach; False on a clash."""
        while stack:
            v, w = stack.pop()
            if v in vmap:  # at w, since fmap sends its flag that led here into w
                continue
            if w in used or piece1.get(v) != piece2.get(w) or m1.vertex_map[v] != m2.vertex_map[w]:
                return False
            vmap[v] = w
            used.add(w)
            for h in at1[v]:
                k = over.get((w, m1.flag_map[h]))
                if k is None or fmap.setdefault(h, k) != k:
                    return False
                p, q = partner1[h], partner2[k]
                if fmap.setdefault(p, q) != q:  # a port is its own partner
                    return False
                stack.append((mid1.incidence[p], mid2.incidence[q]))
        return True

    if not grow([(mid1.incidence[h], mid2.incidence[k]) for h, k in fmap.items()]):
        return None
    for v in sorted(mid1.vertices):
        if v in vmap:
            continue
        for w in sorted(mid2.vertices - used):
            before = set(vmap)
            if grow([(v, w)]):
                break
            for u in vmap.keys() - before:  # no chosen flag here: undo the whole trial
                used.discard(vmap.pop(u))
                for h in at1[u]:
                    fmap.pop(h, None)
                    fmap.pop(partner1[h], None)
        else:
            return None
    amap = {mid1.embed[h]: mid2.embed[k] for h, k in fmap.items()}
    amap.update({mid1.involution[a]: mid2.involution[b] for a, b in amap.items()})
    return tuple.__new__(EtaleMorphism, (mid1, mid2, amap, fmap, vmap))


def kleisli_equal(k1: KleisliMorphism, k2: KleisliMorphism) -> bool:
    """Same endpoints, the same composite on flags, and the middle
    isomorphism that _middle_iso builds commutes with both parts.
    ValueError if a free part does not start at its generic part's
    target or a middle has isolated edges."""
    for k in (k1, k2):
        if k.free.source is not k.generic.target and k.free.source != k.generic.target:
            raise ValueError("the free part does not start at the generic part's target")
        if isolated_edges(k.generic.target):
            raise ValueError("middles of Kleisli morphisms have no isolated edges")
    if (k1.source is not k2.source and k1.source != k2.source) or (
        k1.target is not k2.target and k1.target != k2.target
    ):
        return False
    # equal morphisms send each source flag to one target flag, and most
    # unequal ones already differ there, before any middle is looked at
    f1, f2, chosen2 = k1.free.flag_map, k2.free.flag_map, k2.generic.flag_map
    if any(f1[h] != f2[chosen2[g]] for g, h in k1.generic.flag_map.items()):
        return False
    iso = _middle_iso(k1, k2)
    return (
        iso is not None
        and transport_refinement(k1.generic, iso) == k2.generic
        and compose_etale(iso, k2.free) == k1.free
    )
