from grafcat.bm import BMGraph, bm_corolla, bm_point, bm_tails, validate_bm_graph
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
