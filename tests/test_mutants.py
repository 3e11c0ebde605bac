"""Broken constructions that the law checks must catch.

Each case monkeypatches one construction with a mutant and counts how
often a named check fails on the smallest window that shows it."""

from grafcat.graph_core import ports
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
