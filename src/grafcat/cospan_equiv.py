"""The bridge between the two graph encodings.

A vertex/flag graph (bm module) becomes an arc/flag/vertex graph
(graph_core) by doubling: every flag becomes an arc, and every tail gets
a freshly named companion arc so that the involution is fixpoint-free.
Ports of the arc picture correspond to tails, inner edges to edges.

A morphism of vertex/flag graphs tau -> rho factors as a grafting
followed by a compression through its ghost graph sigma.  On the arc
side the grafting becomes a reduced cover out of the picture of tau, and
the compression becomes a refinement out of the picture of rho, giving a
cospan

    phi(tau) --cover--> phi(sigma) <--refinement-- phi(rho).

phi translates morphisms to cospans and phi_inv translates back; the two
are mutually inverse on the nose, and composition on one side matches
composition (by pushout) on the other up to cospan equality.  This
module provides the cospan category and both translations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bm import (
    BMGraph,
    BMMorphism,
    bm_tails,
    compose_bm,
    factorise_bm,
)
from .etale import (
    ReducedCover,
    compose_covers,
    fresh_label,
    identity_cover,
    validate_reduced_cover,
)
from .graph_core import JKGraph, ValidationReport, flag_view, memoised
from .kleisli import (
    Refinement,
    compose_refinements,
    identity_refinement,
    pushout_gen_rc,
    validate_refinement,
)


@memoised
def tail_companions(g: BMGraph) -> dict[str, str]:
    """The deterministic fresh arc name given to each tail's open end."""
    taken = set(g.flags)
    out = {}
    for t in sorted(bm_tails(g)):
        c = fresh_label(t, taken)
        taken.add(c)
        out[t] = c
    return out


@memoised
def phi1_graph(g: BMGraph) -> JKGraph:
    """The arc picture of a vertex/flag graph: flags become arcs (with
    the embedding the identity), tails gain companion port arcs.  Built
    once per graph, so the two legs of phi(m) share their apex."""
    comp = tail_companions(g)
    arcs = g.flags.union(comp.values())
    involution = {}
    for f in g.flags:
        t = g.involution[f]
        involution[f] = comp[f] if t == f else t
    for t, c in comp.items():
        involution[c] = t
    return JKGraph(arcs, g.flags, g.vertices, involution, {f: f for f in g.flags}, g.boundary)


@memoised
def phi1_graph_inv(g: JKGraph) -> BMGraph:
    """Read a vertex/flag graph off any arc picture without isolated
    edges: its flag view, in which flags keep their names, inner edges
    pair their two flags and the flag of a port is its own partner, so
    ports become tails.  Built once per picture, so phi_inv's two parts
    share their middle graph."""
    return BMGraph(g.vertices, g.flags, g.incidence, flag_view(g)[1])


def phi1_mor(m: BMMorphism) -> ReducedCover:
    """The arc picture of a grafting tau -> sigma: a reduced cover
    phi1(tau) -> phi1(sigma) gluing the companion ports of the tails
    that the grafting pairs up."""
    src_jk = phi1_graph(m.source)
    tgt_jk = phi1_graph(m.target)
    inv = {f: x for x, f in m.flag_map.items()}  # F_tau -> F_sigma, the flag map
    comp_src = tail_companions(m.source)
    comp_tgt = tail_companions(m.target)
    tgt_inv = m.target.involution
    arc_map = {f: inv[f] for f in m.source.flags}
    for t, c in comp_src.items():
        u = inv[t]
        arc_map[c] = comp_tgt[u] if tgt_inv[u] == u else tgt_inv[u]
    return tuple.__new__(ReducedCover, (src_jk, tgt_jk, arc_map, inv, m.vertex_map))


def phi1_mor_inv(rc: ReducedCover) -> BMMorphism:
    """Read a grafting off a reduced cover between arc pictures."""
    src = phi1_graph_inv(rc.source)
    tgt = phi1_graph_inv(rc.target)
    flag_map = {x: h for h, x in rc.flag_map.items()}
    return BMMorphism(src, tgt, flag_map, rc.vertex_map, {})


def phi2_mor(m: BMMorphism) -> Refinement:
    """The arc picture of a compression sigma -> rho: a refinement
    phi1(rho) -> phi1(sigma) with the compression's own vertex and flag
    maps, so the piece at each rho-vertex is the sigma-subgraph its
    fibre spans and each rho-flag chooses the sigma-flag it comes from."""
    src_jk = phi1_graph(m.target)  # picture of rho
    tgt_jk = phi1_graph(m.source)  # picture of sigma
    comp_sigma = tail_companions(m.source)
    arc_map = dict(m.flag_map)
    for t, c in tail_companions(m.target).items():
        arc_map[c] = comp_sigma[m.flag_map[t]]
    return Refinement(src_jk, tgt_jk, arc_map, m.vertex_map, m.flag_map)


def phi2_mor_inv(r: Refinement) -> BMMorphism:
    """Read a compression off a refinement between arc pictures."""
    sigma = phi1_graph_inv(r.target)
    rho = phi1_graph_inv(r.source)
    image = set(r.flag_map.values())
    virtual = {
        f: sigma.involution[f] for f in sigma.flags if f not in image
    }
    return BMMorphism(sigma, rho, r.flag_map, r.vertex_map, virtual)


@dataclass(frozen=True)
class GraphCospan:
    """A cover/refinement cospan: the arc-picture form of a morphism.

    Runs from the cover's source to the refinement's source through the
    shared apex."""

    left: ReducedCover
    right: Refinement

    @property
    def source(self) -> JKGraph:
        return self.left.source

    @property
    def apex(self) -> JKGraph:
        return self.left.target

    @property
    def target(self) -> JKGraph:
        return self.right.source


@memoised
def _cover_report(rc: ReducedCover) -> ValidationReport:
    """validate_reduced_cover(rc), checked once per cover: phi shares
    each cover leg among the images through its ghost."""
    return validate_reduced_cover(rc)


def validate_cospan(c: GraphCospan) -> ValidationReport:
    """Check both legs and that they share their apex.  The left leg's
    report is memoised on it; the right leg is checked on every call."""
    problems = []
    rep = _cover_report(c.left)
    if not rep.ok:
        problems.append("left: " + "; ".join(rep.problems))
    rep = validate_refinement(c.right)
    if not rep.ok:
        problems.append("right: " + "; ".join(rep.problems))
    if c.left.target != c.right.target:
        problems.append("apex: the two legs land in different graphs")
    return ValidationReport(tuple(problems))


def identity_cospan(g: JKGraph) -> GraphCospan:
    return GraphCospan(identity_cover(g), identity_refinement(g))


def compose_cospan(c1: GraphCospan, c2: GraphCospan) -> GraphCospan:
    """Composite of c1: T -> R and c2: R -> Q by pushing the right leg
    of c1 out against the left leg of c2."""
    if c1.target != c2.source:
        raise ValueError("cospans are not composable: feet differ")
    gen_out, rc_out = pushout_gen_rc(c1.right, c2.left)
    left = compose_covers(c1.left, rc_out)
    right = compose_refinements(c2.right, gen_out)
    return GraphCospan(left, right)


@memoised
def _left_key(left: ReducedCover) -> tuple[dict[str, str], dict[str, str], tuple]:
    """What cospan_key reads of a left leg, found once per cover: the
    names it gives the apex vertices and arcs, and its own arc map so
    renamed.  ValueError unless the leg is bijective on vertices and
    flags and onto the apex arcs."""
    apex = left.target
    vertex_name = {w: v for v, w in left.vertex_map.items()}
    if len(vertex_name) != len(left.vertex_map) or set(vertex_name) != apex.vertices:
        raise ValueError("cospan_key: the left leg is not bijective on vertices")
    flag_image = set(left.flag_map.values())
    if len(flag_image) != len(left.flag_map) or flag_image != apex.flags:
        raise ValueError("cospan_key: the left leg is not bijective on flags")
    arc_name: dict[str, str] = {}
    for a, b in sorted(left.arc_map.items()):
        arc_name.setdefault(b, a)
    if set(arc_name) != apex.arcs:
        raise ValueError("cospan_key: the left leg is not onto the apex arcs")
    return vertex_name, arc_name, tuple(sorted((a, arc_name[b]) for a, b in left.arc_map.items()))


def cospan_key(c: GraphCospan) -> tuple:
    """A hashable normal form of a cospan up to apex isomorphism.

    The left leg is a reduced cover, bijective on vertices and flags and
    onto the apex arcs, so it fixes the apex isomorphism: naming each
    apex vertex after its preimage and each arc after its least preimage
    makes it the identity.  The key lists three maps so renamed: the
    cover's arc map and the right leg's arc and vertex maps, which fix a
    valid right leg's flag map, as embeddings are injective.  The left
    leg's part is memoised on the cover, which the cospans through it
    share.  ValueError unless the left leg is bijective on vertices and
    flags and onto the apex arcs."""
    vertex_name, arc_name, left_part = _left_key(c.left)
    right = c.right
    return (
        left_part,
        tuple(sorted((a, arc_name[b]) for a, b in right.arc_map.items())),
        tuple(sorted((vertex_name[w], x) for w, x in right.vertex_map.items())),
    )


def cospan_equal(c1: GraphCospan, c2: GraphCospan) -> bool:
    """Same feet, and an isomorphism of apexes commuting with both legs.

    The left legs force that isomorphism, so on valid cospans equality
    is equality of the normal forms given by cospan_key."""
    if c1.source != c2.source or c1.target != c2.target:
        return False
    return cospan_key(c1) == cospan_key(c2)


def cospan_factorise(c: GraphCospan) -> tuple[GraphCospan, GraphCospan]:
    """Split a cospan into a pure-cover cospan followed by a
    pure-refinement cospan (composing back to it)."""
    apex = c.apex
    return (
        GraphCospan(c.left, identity_refinement(apex)),
        GraphCospan(identity_cover(apex), c.right),
    )


@memoised
def _cover_legs(tau: BMGraph) -> dict[int, tuple[BMGraph, ReducedCover]]:
    """phi's cover leg onto each ghost of tau, by the ghost's id; a table
    that phi fills.  Each entry holds its ghost, so no other graph takes
    that id while tau lives."""
    return {}


def phi(m: BMMorphism) -> GraphCospan:
    """Translate a vertex/flag morphism into its cover/refinement
    cospan through the arc picture of its ghost graph.

    The grafting is the identity on flags and vertices, so its cover is
    fixed by the source and the ghost, which factorise_bm shares among
    the morphisms out of the source: each cover leg, and its apex, is
    built once per ghost and shared by every image through it, so
    callers must not write into them."""
    ghost, graft, compress = factorise_bm(m)
    legs = _cover_legs(m.source)
    leg = legs.get(id(ghost))
    if leg is None:
        leg = legs[id(ghost)] = ghost, phi1_mor(graft)
    return GraphCospan(leg[1], phi2_mor(compress))


def phi_inv(c: GraphCospan) -> BMMorphism:
    """Translate a cover/refinement cospan back into a vertex/flag
    morphism: read a grafting off the left leg, a compression off the
    right leg, and compose."""
    graft = phi1_mor_inv(c.left)
    compress = phi2_mor_inv(c.right)
    return compose_bm(graft, compress)
