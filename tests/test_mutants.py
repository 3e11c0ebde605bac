"""Broken constructions that the law checks must catch.

Each case monkeypatches one construction with a mutant and counts how
often a named check fails on the smallest window that shows it."""

from collections import Counter

import pytest

from grafcat import bm, cospan_equiv, etale, oracle
from grafcat.bm import BMGraph, BMMorphism
from grafcat.graph_core import is_effective, memoised, ports
from grafcat.kleisli import Refinement
from grafcat.species import decorated_isomorphic, truncated_free

import test_acceptance
from test_acceptance import SP1, SP2, right_unit_holds

UNIT_CONFIGS = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)]


def unit_elements():
    """The 46 elements of the monad-law sweep that have vertices."""
    return [
        (sp, S, dec)
        for sp in (SP1, SP2)
        for n_ports, max_v in UNIT_CONFIGS
        for S, dec in truncated_free(sp, n_ports, max_v)
        if S.vertices
    ]


def swap_first_two_ports(real):
    """monad_mult_element, but its refinement sends the first two sorted
    ports of r to each other's images."""

    def mutant(sp, r, *args):
        ref, dec = real(sp, r, *args)
        if len(ports(r)) < 2:
            return ref, dec
        p, q = sorted(ports(r))[:2]
        arc_map = dict(ref.arc_map)
        arc_map[p], arc_map[q] = arc_map[q], arc_map[p]
        return Refinement(ref.source, ref.target, arc_map, ref.vertex_map, ref.flag_map), dec

    return mutant


def test_right_unit_pins_the_ports_of_the_flattening(monkeypatch):
    elements = unit_elements()
    assert len(elements) == 46
    monkeypatch.setattr(
        test_acceptance,
        "monad_mult_element",
        swap_first_two_ports(test_acceptance.monad_mult_element),
    )
    pinned_failures = sum(not right_unit_holds(*e) for e in elements)

    # the same check with any isomorphism accepted, ports included
    monkeypatch.setattr(
        test_acceptance,
        "pinned_decorated_isomorphic",
        lambda sp, g1, dec1, g2, dec2, pin: decorated_isomorphic(sp, g1, dec1, g2, dec2),
    )
    unpinned_failures = sum(not right_unit_holds(*e) for e in elements)
    assert (pinned_failures, unpinned_failures) == (30, 0)


def failed_checks(res):
    """The names of the checks a PairResult fails."""
    return tuple(
        name
        for name, bad in (
            ("count", res.bm_count != res.cospan_count),
            ("injective", not res.translation_injective),
            ("surjective", not res.translation_surjective),
            ("roundtrip", not res.roundtrip_exact),
        )
        if bad
    )


def without_second_virtual_pairs(real):
    """compose_bm, but the second morphism's virtual pairs are dropped."""

    def mutant(m1, m2):
        return real(m1, BMMorphism(m2.source, m2.target, m2.flag_map, m2.vertex_map, {}))

    return mutant


def test_validation_catches_a_composite_without_the_second_virtual_pairs():
    # every composable pair of the (2,4) hom matrix, composed by the real
    # compose_bm and by the mutant
    graphs = oracle.enumerate_bm_graphs(2, 4)
    homs = {
        (i, j): oracle.enumerate_bm_morphisms(a, b)
        for i, a in enumerate(graphs)
        for j, b in enumerate(graphs)
    }
    pairs = [
        (m1, m2)
        for (i, j), firsts in homs.items()
        for k in range(len(graphs))
        for m2 in homs[(j, k)]
        for m1 in firsts
    ]
    assert len(pairs) == 27521
    mutant = without_second_virtual_pairs(bm.compose_bm)
    assert all(bm.validate_bm_morphism(bm.compose_bm(m1, m2)).ok for m1, m2 in pairs)
    problems = Counter(
        problem
        for m1, m2 in pairs
        for problem in bm.validate_bm_morphism(mutant(m1, m2)).problems
    )
    # one problem on each composite whose m2 contracts a flag pair
    assert sum(bool(m2.virtual_involution) for _, m2 in pairs) == 8469
    assert problems == {
        "virtual-involution: must be defined on exactly the flags outside the image": 8469
    }


def swap_first_two_chosen_flags(real):
    """phi2_mor, but its first two sorted source flags swap their choices."""

    def mutant(m):
        ref = real(m)
        flag_map = dict(ref.flag_map)
        if len(flag_map) >= 2:
            g, h = sorted(flag_map)[:2]
            flag_map[g], flag_map[h] = flag_map[h], flag_map[g]
        return Refinement(ref.source, ref.target, ref.arc_map, ref.vertex_map, flag_map)

    return mutant


def swap_first_two_companion_images(real):
    """phi1_mor, but the first two sorted companion ports of its source
    swap their arc images."""

    def mutant(m):
        rc = real(m)
        companions = sorted(cospan_equiv.tail_companions(m.source).values())
        if len(companions) < 2:
            return rc
        p, q = companions[:2]
        arc_map = dict(rc.arc_map)
        arc_map[p], arc_map[q] = arc_map[q], arc_map[p]
        return rc._replace(arc_map=arc_map)

    return mutant


def first_virtual_edge_left_as_tails(real):
    """ghost_graph, but the first sorted virtual edge (two source tails
    paired by the virtual involution) stays two tails."""

    def mutant(m):
        ghost = real(m)
        virtual = sorted(f for f in m.virtual_involution if m.source.involution[f] == f)
        if not virtual:
            return ghost
        f = virtual[0]
        t = m.virtual_involution[f]
        involution = {**ghost.involution, f: f, t: t}
        return BMGraph(ghost.vertices, ghost.flags, ghost.boundary, involution)

    return mutant


@pytest.mark.parametrize(
    "module, name, mutate, failures",
    [
        (cospan_equiv, "compose_bm", without_second_virtual_pairs, {("roundtrip",): 81}),
        (
            cospan_equiv,
            "phi2_mor",
            swap_first_two_chosen_flags,
            {("injective", "surjective", "roundtrip"): 129},
        ),
        (
            oracle,
            "enumerate_refinements",
            lambda real: lambda r, s: real(r, s)[:-1],
            {("count", "surjective"): 176},
        ),
        (
            oracle,
            "enumerate_bm_morphisms",
            lambda real: lambda tau, rho: real(tau, rho)[1:],
            {("count", "surjective"): 176},
        ),
        # the key without the cover's arc map
        (oracle, "cospan_key", lambda real: lambda c: real(c)[1:], {("injective",): 16}),
        (
            cospan_equiv,
            "phi1_mor",
            swap_first_two_companion_images,
            {("injective", "surjective", "roundtrip"): 123},
        ),
        (
            bm,
            "ghost_graph",
            first_virtual_edge_left_as_tails,
            {("injective", "surjective", "roundtrip"): 46},
        ),
    ],
    ids=[
        "compose_bm",
        "phi2_mor",
        "enumerate_refinements",
        "enumerate_bm_morphisms",
        "cospan_key",
        "phi1_mor",
        "ghost_graph",
    ],
)
def test_the_equivalence_check_catches_a_broken_construction(
    monkeypatch, module, name, mutate, failures
):
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    report = oracle.check_equivalence(2, 4)
    assert len(report.pairs) == 1089
    assert Counter(failed_checks(res) for res in report.pairs if not res.ok) == failures


class KeyedBySize(dict):
    """A cut table that files each cut under the number of edges cut, so
    a later cut of as many other edges gets the first one's cut graph."""

    def get(self, key, default=None):
        return super().get(len(key), default)

    def __setitem__(self, key, value):
        super().__setitem__(len(key), value)


@memoised
def cuts_by_size(g):
    return KeyedBySize()


def test_the_pushout_check_catches_a_cut_table_keyed_by_size(monkeypatch):
    # the pushout loops of test_pushouts_mediate_uniquely on the (3,4)
    # pictures, with the real cut table and then with the mutant: no
    # mediating refinement is miscounted (the loops would raise), but 14
    # cocones are lost.  On the (2,4) pictures no count changes.
    jks = [
        g
        for g in map(cospan_equiv.phi1_graph, oracle.enumerate_bm_graphs(3, 4))
        if is_effective(g)
    ]
    assert test_acceptance.pushout_squares(jks) == (6146, 6146)
    monkeypatch.setattr(etale, "_cuts", cuts_by_size)
    assert test_acceptance.pushout_squares(jks) == (6146, 6132)
