import copy
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bm_graphs
from grafcat import cospan_equiv, graph_core, oracle
from grafcat.bm import (
    BMGraph,
    BMMorphism,
    bm_corolla,
    bm_identity,
    bm_point,
    bm_tails,
    compose_bm,
    factorise_bm,
)
from grafcat.cospan_equiv import (
    GraphCospan,
    compose_cospan,
    cospan_equal,
    cospan_key,
    cospan_factorise,
    identity_cospan,
    phi,
    phi1_graph,
    phi1_graph_inv,
    phi1_mor,
    phi1_mor_inv,
    phi2_mor,
    phi2_mor_inv,
    phi_inv,
    tail_companions,
    validate_cospan,
)
from grafcat.etale import (
    EtaleMorphism,
    ReducedCover,
    compose_etale,
    identity_cover,
    validate_reduced_cover,
)
from grafcat.graph_core import (
    JKGraph,
    corolla,
    edges,
    find_isomorphisms,
    graph_sum,
    inner_edges,
    is_isomorphic,
    ports,
    relabel,
    unit_graph,
    validate_graph,
)
from grafcat.kleisli import (
    Refinement,
    identity_refinement,
    transport_refinement,
    validate_refinement,
)
from grafcat.oracle import (
    check_pair,
    covers_from,
    enumerate_bm_graphs,
    enumerate_bm_morphisms,
    enumerate_refinements,
)


def make_graft(LOOP):
    return BMMorphism(bm_corolla(2), LOOP, {"f1": "1", "f2": "2"}, {"v": "v"}, {})


def make_contract(LOOP):
    return BMMorphism(LOOP, bm_point(), {}, {"v": "v"}, {"f1": "f2", "f2": "f1"})


# -- graph translation -----------------------------------------------------------

def test_phi1_graph_roundtrips(LOOP, E2):
    for g in (bm_corolla(2), bm_point(), LOOP, E2):
        jk = phi1_graph(g)
        assert validate_graph(jk).ok
        assert len(ports(jk)) == len(bm_tails(g))
        assert len(inner_edges(jk)) == len(edges(jk)) - len(ports(jk))
        assert phi1_graph_inv(jk) == g


def test_phi1_names_tail_companions():
    jk = phi1_graph(bm_corolla(2))
    assert jk.arcs == {"1", "2", "1^", "2^"}
    assert ports(jk) == {"1^", "2^"}


# -- morphism translation ----------------------------------------------------------

def test_grafting_becomes_cover(LOOP):
    graft = make_graft(LOOP)
    cov = phi1_mor(graft)
    assert validate_reduced_cover(cov).ok
    assert phi1_mor_inv(cov) == graft


def test_compression_becomes_refinement(LOOP):
    _, _, c_part = factorise_bm(make_contract(LOOP))
    ref = phi2_mor(c_part)
    assert validate_refinement(ref).ok
    assert phi2_mor_inv(ref) == c_part


def test_merger_gives_disconnected_piece():
    pp = BMGraph({"u", "w"}, set(), {}, {})
    merge = BMMorphism(pp, bm_point(), {}, {"u": "v", "w": "v"}, {})
    _, _, merge_c = factorise_bm(merge)
    ref = phi2_mor(merge_c)
    assert validate_refinement(ref).ok
    assert ref.vertex_map == {"u": "v", "w": "v"}


def test_phi_roundtrip_on_archetypes(LOOP):
    graft, contract = make_graft(LOOP), make_contract(LOOP)
    pp = BMGraph({"u", "w"}, set(), {}, {})
    merge = BMMorphism(pp, bm_point(), {}, {"u": "v", "w": "v"}, {})
    for m in (graft, contract, merge, bm_identity(LOOP), compose_bm(graft, contract)):
        c = phi(m)
        assert validate_cospan(c).ok
        assert phi_inv(c) == m


def test_identity_translates_to_identity_cospan(LOOP):
    for g in (bm_corolla(2), LOOP, bm_point()):
        c = phi(bm_identity(g))
        assert cospan_equal(c, identity_cospan(phi1_graph(g)))


# -- functoriality ---------------------------------------------------------------------

def test_phi_respects_composition(LOOP):
    h1, h2 = make_graft(LOOP), make_contract(LOOP)
    lhs = phi(compose_bm(h1, h2))
    rhs = compose_cospan(phi(h1), phi(h2))
    assert validate_cospan(rhs).ok
    assert cospan_equal(lhs, rhs)


def test_phi_respects_triple_composites(LOOP):
    h1, h2, h3 = make_graft(LOOP), make_contract(LOOP), bm_identity(bm_point())
    lhs = phi(compose_bm(compose_bm(h1, h2), h3))
    assert cospan_equal(lhs, compose_cospan(compose_cospan(phi(h1), phi(h2)), phi(h3)))
    assert cospan_equal(lhs, compose_cospan(phi(h1), compose_cospan(phi(h2), phi(h3))))


def test_cospan_factorise_recomposes(LOOP):
    c = phi(compose_bm(make_graft(LOOP), make_contract(LOOP)))
    part1, part2 = cospan_factorise(c)
    assert validate_cospan(part1).ok and validate_cospan(part2).ok
    assert cospan_equal(compose_cospan(part1, part2), c)


def test_classification_is_visible_in_the_legs(LOOP):
    # a grafting's cospan degenerates on the right, a compression's on the left
    cg = phi(make_graft(LOOP))
    assert is_isomorphic(cg.right.source, cg.apex)
    cc = phi(make_contract(LOOP))
    assert cc.left.morphism.arc_map == {a: a for a in cc.source.arcs}


# -- properties -------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(bm_graphs(max_vertices=2, max_valence=3))
def test_phi1_roundtrip_random(g):
    jk = phi1_graph(g)
    assert validate_graph(jk).ok
    assert phi1_graph_inv(jk) == g


@settings(max_examples=15, deadline=None)
@given(bm_graphs(max_vertices=2, max_valence=2))
def test_phi_roundtrip_random(g):
    for rho in (bm_point(), g):
        for m in enumerate_bm_morphisms(g, rho):
            c = phi(m)
            assert validate_cospan(c).ok
            assert phi_inv(c) == m


# -- equality by normal form ---------------------------------------------------------

def search_equal(c1, c2):
    """Cospan equality by listing every apex isomorphism and keeping one
    that commutes with both legs: the reference for cospan_key."""
    if c1.source != c2.source or c1.target != c2.target:
        return False
    for iso in find_isomorphisms(c1.apex, c2.apex):
        if compose_etale(c1.left.morphism, iso) != c2.left.morphism:
            continue
        if transport_refinement(c1.right, iso) == c2.right:
            return True
    return False


def test_key_equality_matches_the_isomorphism_search():
    # every raw cospan of the (2,4) window, before any deduplication,
    # together with the phi image of every morphism
    graphs = enumerate_bm_graphs(2, 4)
    compared = agreed_true = 0
    for tau in graphs:
        covers = covers_from(phi1_graph(tau))
        for rho in graphs:
            raw = [
                GraphCospan(rc, ref)
                for rc in covers
                for ref in enumerate_refinements(phi1_graph(rho), rc.target)
            ]
            raw += [phi(h) for h in enumerate_bm_morphisms(tau, rho)]
            keys = [cospan_key(c) for c in raw]
            for i in range(len(raw)):
                for j in range(i, len(raw)):
                    expected = search_equal(raw[i], raw[j])
                    assert (keys[i] == keys[j]) == expected, (tau, rho, i, j)
                    compared += 1
                    agreed_true += expected
    assert (compared, agreed_true) == (26263, 2979)


@functools.cache
def window_morphisms():
    graphs = enumerate_bm_graphs(2, 4)
    return [h for tau in graphs for rho in graphs for h in enumerate_bm_morphisms(tau, rho)]


def relabelled(c, arc_perm, flag_perm, vertex_perm):
    """c with its apex renamed by the given permutations of the apex's
    own labels, both legs transported along the renaming."""
    apex = c.apex
    maps = (
        dict(zip(sorted(apex.arcs), arc_perm)),
        dict(zip(sorted(apex.flags), flag_perm)),
        dict(zip(sorted(apex.vertices), vertex_perm)),
    )
    iso = EtaleMorphism(apex, relabel(apex, *maps), *maps)
    left = ReducedCover(*compose_etale(c.left, iso))
    return GraphCospan(left, transport_refinement(c.right, iso))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_key_is_invariant_under_apex_relabelling(data):
    c = phi(data.draw(st.sampled_from(window_morphisms())))
    apex = c.apex
    moved = relabelled(
        c,
        data.draw(st.permutations(sorted(apex.arcs))),
        data.draw(st.permutations(sorted(apex.flags))),
        data.draw(st.permutations(sorted(apex.vertices))),
    )
    assert validate_cospan(moved).ok
    assert cospan_key(moved) == cospan_key(c)
    assert cospan_equal(moved, c) and cospan_equal(c, moved)


def not_onto_apex(level):
    """The identity cospan of a 1-corolla, with an extra vertex, an extra
    edge, or an extra isolated edge in the apex that the left leg misses."""
    g = phi1_graph(bm_corolla(1))
    if level == "vertices":
        apex = JKGraph(g.arcs, g.flags, g.vertices | {"w"}, g.involution, g.embed, g.incidence)
    elif level == "isolated-edge":
        apex = graph_sum([g, unit_graph()])
    else:
        apex = JKGraph(
            g.arcs | {"x", "y"},
            g.flags | {"hx", "hy"},
            g.vertices,
            {**g.involution, "x": "y", "y": "x"},
            {**g.embed, "hx": "x", "hy": "y"},
            {**g.incidence, "hx": "v", "hy": "v"},
        )
    m = identity_cover(g).morphism
    left = ReducedCover(g, apex, m.arc_map, m.flag_map, m.vertex_map)
    return GraphCospan(left, identity_refinement(apex))


@pytest.mark.parametrize("level", ["vertices", "arcs", "isolated-edge"])
def test_key_rejects_a_left_leg_not_onto_the_apex(level):
    # an extra edge has flags, which the leg misses first; an isolated
    # edge has none
    missed = {"vertices": "bijective on vertices", "arcs": "bijective on flags"}
    with pytest.raises(ValueError) as exc:
        cospan_key(not_onto_apex(level))
    missed = missed.get(level, "onto the apex arcs")
    assert str(exc.value) == f"cospan_key: the left leg is not {missed}"


def test_compose_cospan_needs_matching_feet():
    c1, c2 = identity_cospan(corolla(1)), identity_cospan(corolla(2))
    compose_cospan(c1, c1)
    with pytest.raises(ValueError) as exc:
        compose_cospan(c1, c2)
    assert str(exc.value) == "cospans are not composable: feet differ"


def test_check_pair_fails_an_invalid_image(monkeypatch):
    c1 = bm_corolla(1)
    assert check_pair(c1, c1, 0, 0).ok
    monkeypatch.setattr(oracle, "phi", lambda h: not_onto_apex("arcs"))
    res = check_pair(c1, c1, 0, 0)
    assert not res.ok
    assert not res.roundtrip_exact and not res.translation_injective


def broken_cospans():
    """Cospans that fail in each way validate_cospan reports: a bad apex,
    an apex with an isolated edge (also as two equal objects), legs
    landing in different apexes, a broken map on either leg, and an
    invalid foot."""
    c = identity_cospan(phi1_graph(bm_corolla(2)))
    g = c.apex
    fixed_arc = JKGraph(
        g.arcs | {"z"}, g.flags, g.vertices, {**g.involution, "z": "z"}, g.embed, g.incidence
    )
    with_edge = graph_sum([g, unit_graph()])
    bad_arcs = Refinement(g, g, {**c.right.arc_map, "1": "2"}, c.right.vertex_map, c.right.flag_map)
    out = [not_onto_apex("vertices"), not_onto_apex("arcs")]
    for apex in (fixed_arc, with_edge):
        m = c.left.morphism
        left = ReducedCover(g, apex, m.arc_map, m.flag_map, m.vertex_map)
        out.append(GraphCospan(left, identity_refinement(apex)))
        out.append(GraphCospan(left, c.right))
        out.append(GraphCospan(c.left, identity_refinement(apex)))
    out.append(GraphCospan(c.left, bad_arcs))
    out.append(GraphCospan(identity_cover(fixed_arc), identity_refinement(fixed_arc)))
    # with_edge's left leg again, into an equal apex that is another object
    twin = graph_sum([g, unit_graph()])
    out.append(GraphCospan(left, identity_refinement(twin)))
    return out


def test_validate_cospan_checks_only_the_apex_of_each_image(monkeypatch):
    # phi takes both feet from the memoised pictures and gives both legs
    # one apex, shared by every image through one ghost graph, so once
    # the pictures are checked the 993 images of the (2,4) window cost
    # one fresh validate_graph run per distinct apex: the counter records
    # a graph only while it lacks validate_graph's memo
    graphs = enumerate_bm_graphs(2, 4)
    images = [phi(h) for t in graphs for r in graphs for h in enumerate_bm_morphisms(t, r)]
    assert len(images) == 993
    apexes = {id(c.apex) for c in images}
    assert len(apexes) == len({id(c.left) for c in images}) == 87
    for g in graphs:
        validate_graph(phi1_graph(g))
    calls = []
    real = graph_core.validate_graph
    memo = f"{real.__module__}.{real.__qualname__}"

    def counted(g):
        if not hasattr(g, memo):
            calls.append(g)
        return real(g)

    monkeypatch.setattr(graph_core, "validate_graph", counted)
    assert all(validate_cospan(c).ok for c in images)
    assert len(calls) == 87
    assert {id(g) for g in calls} == apexes


def test_phi_inv_parts_share_their_middle_graph():
    # phi gives both legs one apex and phi1_graph_inv is memoised on it,
    # so on every (2,4) image the grafting read off the left leg and the
    # compression read off the right leg meet in one graph object
    graphs = enumerate_bm_graphs(2, 4)
    images = 0
    for t in graphs:
        assert tail_companions(t) is tail_companions(t)
        for r in graphs:
            for h in enumerate_bm_morphisms(t, r):
                c = phi(h)
                graft, compress = phi1_mor_inv(c.left), phi2_mor_inv(c.right)
                assert graft.target is compress.source is phi1_graph_inv(c.apex)
                assert graft.source is phi1_graph_inv(phi1_graph(t))
                assert phi_inv(c) == h
                images += 1
    assert images == 993


@pytest.mark.parametrize("window, total", [((2, 4), 87), ((2, 5), 226), ((3, 5), 503)])
def test_ghosts_match_the_covers_out_of_each_source(window, total):
    # a grafting out of t is fixed by the ports it glues, so the ghost
    # graphs of the morphisms out of t match the reduced covers of its
    # picture one to one, and factorise_bm builds one ghost object for
    # each
    graphs = enumerate_bm_graphs(*window)
    ghosts = 0
    for t in graphs:
        out_of_t = [factorise_bm(h)[0] for r in graphs for h in enumerate_bm_morphisms(t, r)]
        seen = {tuple(sorted(g.involution.items())) for g in out_of_t}
        assert len({id(g) for g in out_of_t}) == len(seen) == len(oracle._covers(phi1_graph(t)))
        ghosts += len(seen)
    assert ghosts == total


def copied(g):
    return BMGraph(g.vertices, g.flags, g.boundary, g.involution)


def leg_state(leg):
    """Copies of a cover leg's three maps and of its memoised key part."""
    maps = (dict(leg.arc_map), dict(leg.flag_map), dict(leg.vertex_map))
    return maps, copy.deepcopy(cospan_equiv._left_key(leg))


def test_translations_write_into_no_graph():
    # memoised pictures, ghosts, cover legs and key parts are shared by
    # every caller, so the translations may read a morphism, its graphs,
    # its ghost and its cover leg but never write into them
    graphs = enumerate_bm_graphs(2, 4)
    legs = {}  # id of a cover leg -> the leg and its state when first seen
    for t in graphs:
        for r in graphs:
            for h in enumerate_bm_morphisms(t, r):
                ghost = factorise_bm(h)[0]
                graphs_before = (copied(h.source), copied(h.target), copied(ghost))
                maps_before = BMMorphism(t, r, h.flag_map, h.vertex_map, h.virtual_involution)
                c = phi(h)
                leg, state = legs.setdefault(id(c.left), (c.left, leg_state(c.left)))
                assert validate_cospan(c).ok
                assert phi_inv(c) == h
                cospan_key(c)
                assert (h.source, h.target, ghost) == graphs_before
                assert h == maps_before
                assert leg is c.left and leg_state(leg) == state
    assert len(legs) == 87


@pytest.mark.parametrize("c", broken_cospans())
def test_cospan_problems_are_those_of_its_legs(c):
    # each leg reports exactly what its own validator reports, and the
    # apexes are compared by value
    expected = []
    for name, rep in (("left", validate_reduced_cover(c.left)), ("right", validate_refinement(c.right))):
        if not rep.ok:
            expected.append(f"{name}: " + "; ".join(rep.problems))
    if c.left.target != c.right.target:
        expected.append("apex: the two legs land in different graphs")
    assert expected
    assert validate_cospan(c).problems == tuple(expected)
