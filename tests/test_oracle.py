import itertools

from hypothesis import given, settings

from conftest import bm_graphs
from grafcat.bm import (
    BMGraph,
    BMMorphism,
    bm_corolla,
    bm_point,
    bm_tails,
    validate_bm_graph,
    validate_bm_morphism,
)
from grafcat.cospan_equiv import phi1_graph
from grafcat.kleisli import validate_refinement
from grafcat.oracle import (
    check_equivalence,
    check_pair,
    covers_from,
    enumerate_bm_graphs,
    enumerate_bm_morphisms,
    enumerate_cospans,
    enumerate_refinements,
)
from grafcat.graph_core import involutions

C1 = bm_corolla(1)
C2 = bm_corolla(2)
P = bm_point()


def test_graph_classes_at_one_vertex_two_flags():
    small = enumerate_bm_graphs(1, 2)
    assert len(small) == 5
    profile = sorted(
        (len(g.vertices), len(g.flags), len(bm_tails(g))) for g in small
    )
    assert profile == [(0, 0, 0), (1, 0, 0), (1, 1, 1), (1, 2, 0), (1, 2, 2)]
    for g in small:
        assert validate_bm_graph(g).ok


def test_graph_classes_grow():
    assert len(enumerate_bm_graphs(2, 3)) == 18
    assert len(enumerate_bm_graphs(2, 4)) == 33
    assert len(enumerate_bm_graphs(2, 5)) == 51
    assert len(enumerate_bm_graphs(2, 6)) == 83
    assert len(enumerate_bm_graphs(3, 5)) == 112


def test_hom_counts_frozen(LOOP, E2, CC):
    pp = BMGraph({"u", "w"}, set(), {}, {})
    cy = BMGraph(
        {"u", "w"},
        {"u1", "u2", "w1", "w2"},
        {"u1": "u", "u2": "u", "w1": "w", "w2": "w"},
        {"u1": "w1", "w1": "u1", "u2": "w2", "w2": "u2"},
    )
    assert len(enumerate_bm_morphisms(C1, C1)) == 1
    assert len(enumerate_bm_morphisms(LOOP, P)) == 1
    assert len(enumerate_bm_morphisms(P, C1)) == 0
    assert len(enumerate_bm_morphisms(CC, P)) == 1
    assert len(enumerate_bm_morphisms(C2, C2)) == 2
    assert len(enumerate_bm_morphisms(cy, LOOP)) == 4
    assert len(enumerate_bm_morphisms(pp, P)) == 1
    assert len(enumerate_bm_morphisms(LOOP, LOOP)) == 2
    assert len(enumerate_bm_morphisms(CC, E2)) == 2


def test_cover_counts_frozen(LOOP):
    assert len(covers_from(phi1_graph(C2))) == 2
    assert len(covers_from(phi1_graph(C1))) == 1
    assert len(covers_from(phi1_graph(LOOP))) == 1


def test_refinement_enumeration_is_valid(LOOP):
    src = phi1_graph(LOOP)
    found = enumerate_refinements(src, src)
    assert found
    for r in found:
        assert validate_refinement(r).ok


def test_check_pair_spot_checks(LOOP, E2, CC):
    pp = BMGraph({"u", "w"}, set(), {}, {})
    pairs = [
        (C1, C1), (LOOP, P), (P, C1), (CC, P), (C2, C2),
        (pp, P), (LOOP, LOOP), (CC, E2),
    ]
    for tau, rho in pairs:
        res = check_pair(tau, rho, 0, 0)
        assert res.ok, (res.bm_count, res.cospan_count)


def test_cospans_match_homs_on_an_interesting_pair(LOOP):
    homs = enumerate_bm_morphisms(LOOP, P)
    cospans = enumerate_cospans(phi1_graph(LOOP), phi1_graph(P))
    assert len(homs) == len(cospans) == 1


def test_small_equivalence_report():
    report = check_equivalence(1, 2)
    assert report.ok
    assert len(report.graphs) == 5
    assert len(report.pairs) == 25
    assert report.total_bm == report.total_cospans == 11
    assert all(p.ok for p in report.pairs)


def test_progress_callback_fires():
    # three classes at one vertex and one flag: nine ordered pairs
    seen = []
    check_equivalence(1, 1, progress=lambda res: seen.append(res))
    assert len(seen) == 9
    assert all(r.ok for r in seen)


# -- constructive hom-sets against the candidate filter -----------------------------

def filtered_bm_morphisms(tau, rho):
    """Test-only reference: every (injective flag map, vertex surjection,
    fixpoint-free involution of the complement) triple, in that nesting
    order, kept if it validates."""
    out = []
    tau_flags = sorted(tau.flags)
    rho_flags = sorted(rho.flags)
    if len(rho_flags) > len(tau_flags):
        return []
    tau_vertices = sorted(tau.vertices)
    rho_vertices = sorted(rho.vertices)
    surjections = [
        dict(zip(tau_vertices, values))
        for values in itertools.product(rho_vertices, repeat=len(tau_vertices))
        if set(values) == set(rho_vertices)
    ]
    for image in itertools.permutations(tau_flags, len(rho_flags)):
        flag_map = dict(zip(rho_flags, image))
        complement = sorted(set(tau_flags) - set(image))
        for vertex_map in surjections:
            for virtual in involutions(complement, fixpoints=False):
                m = BMMorphism(tau, rho, flag_map, vertex_map, virtual)
                if validate_bm_morphism(m).ok:
                    out.append(m)
    return out


def _in_order(homs):
    # the maps with their insertion order, so that printed output agrees too
    return [
        (tuple(m.flag_map.items()), tuple(m.vertex_map.items()),
         tuple(m.virtual_involution.items()))
        for m in homs
    ]


def _match_filter_on_window(max_vertices, max_flags):
    graphs = enumerate_bm_graphs(max_vertices, max_flags)
    pairs = morphisms = 0
    for tau in graphs:
        for rho in graphs:
            built = enumerate_bm_morphisms(tau, rho)
            reference = filtered_bm_morphisms(tau, rho)
            assert _in_order(built) == _in_order(reference), (tau, rho)
            pairs += 1
            morphisms += len(built)
    return pairs, morphisms


def test_constructed_homs_match_the_filter_on_the_two_five_window():
    assert _match_filter_on_window(2, 5) == (2601, 4449)


def test_constructed_homs_match_the_filter_on_the_three_four_window():
    assert _match_filter_on_window(3, 4) == (4096, 3774)


def test_empty_graph_homs():
    empty = BMGraph(set(), set(), {}, {})
    assert len(enumerate_bm_morphisms(empty, empty)) == 1
    assert enumerate_bm_morphisms(P, empty) == []
    assert enumerate_bm_morphisms(C2, empty) == []
    assert enumerate_bm_morphisms(empty, P) == []


def test_two_tails_graft_into_a_target_edge(CC, E2, LOOP):
    homs = enumerate_bm_morphisms(CC, E2)
    assert [m.flag_map for m in homs] == [{"e1": "s", "e2": "t"}, {"e1": "t", "e2": "s"}]
    assert all(m.virtual_involution == {} for m in homs)
    assert [m.flag_map for m in enumerate_bm_morphisms(C2, LOOP)] == [
        {"f1": "1", "f2": "2"},
        {"f1": "2", "f2": "1"},
    ]


def test_tails_in_different_fibres_are_never_paired(CC):
    # contracting both tails needs one fibre; two isolated vertices split them
    two_points = BMGraph({"u", "w"}, set(), {}, {})
    assert enumerate_bm_morphisms(CC, two_points) == []
    (onto_point,) = enumerate_bm_morphisms(CC, P)
    assert onto_point.virtual_involution == {"s": "t", "t": "s"}
    # three tails on two vertices onto a corolla and a point: the kept tail
    # decides which fibre holds the pair
    tau = BMGraph(
        {"x", "y"}, {"a", "b", "c"}, {"a": "x", "b": "x", "c": "y"},
        {"a": "a", "b": "b", "c": "c"},
    )
    rho = BMGraph({"u", "w"}, {"k"}, {"k": "u"}, {"k": "k"})
    (m,) = enumerate_bm_morphisms(tau, rho)
    assert m.flag_map == {"k": "c"} and m.vertex_map == {"x": "w", "y": "u"}
    assert m.virtual_involution == {"a": "b", "b": "a"}


@settings(max_examples=150, deadline=None)
@given(
    bm_graphs(max_vertices=3, max_valence=3).filter(lambda g: len(g.flags) <= 5),
    bm_graphs(max_vertices=3, max_valence=3).filter(lambda g: len(g.flags) <= 5),
)
def test_constructed_homs_are_valid_and_match_the_filter(tau, rho):
    built = enumerate_bm_morphisms(tau, rho)
    assert all(validate_bm_morphism(m).ok for m in built)
    assert _in_order(built) == _in_order(filtered_bm_morphisms(tau, rho))
