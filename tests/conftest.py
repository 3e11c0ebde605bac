"""Shared example graphs, test references and hypothesis strategies."""

import itertools

import pytest
from hypothesis import strategies as st

from grafcat.bm import BMGraph
from grafcat.graph_core import JKGraph, find_isomorphisms, ports, relabel
from grafcat.species import act, operation_profile, transport_decoration


# -- arc/flag/vertex examples ------------------------------------------------

EMPTY_GRAPH = JKGraph(frozenset(), frozenset(), frozenset(), {}, {}, {})


def make_loop():
    # one vertex, one inner edge onto itself
    return JKGraph(
        {"l1", "l2"}, {"f1", "f2"}, {"v"},
        {"l1": "l2", "l2": "l1"}, {"f1": "l1", "f2": "l2"}, {"f1": "v", "f2": "v"},
    )


def make_cycle():
    # two vertices joined by two parallel inner edges
    return JKGraph(
        {"a1", "a2", "b1", "b2"},
        {"u1", "u2", "w1", "w2"},
        {"u", "w"},
        {"a1": "a2", "a2": "a1", "b1": "b2", "b2": "b1"},
        {"u1": "a1", "w1": "a2", "u2": "b1", "w2": "b2"},
        {"u1": "u", "u2": "u", "w1": "w", "w2": "w"},
    )


def make_path_piece():
    # two 2-valent vertices in a row, open at both ends: ports p and q
    return JKGraph(
        {"p", "pm", "e1", "e2", "q", "qn"},
        {"m_p", "m_e", "n_e", "n_q"},
        {"m", "n"},
        {"p": "pm", "pm": "p", "e1": "e2", "e2": "e1", "q": "qn", "qn": "q"},
        {"m_p": "pm", "m_e": "e1", "n_e": "e2", "n_q": "qn"},
        {"m_p": "m", "m_e": "m", "n_e": "n", "n_q": "n"},
    )


def make_two_isolated_edges():
    # two edges and nothing else
    return JKGraph(
        {"a", "b", "c", "d"}, set(), set(), {"a": "b", "b": "a", "c": "d", "d": "c"}, {}, {}
    )


def shuffled(g):
    """g with the labels of each level renamed in reverse sorted order."""
    rev = lambda xs: dict(zip(sorted(xs), sorted(xs, reverse=True)))
    return relabel(g, rev(g.arcs), rev(g.flags), rev(g.vertices))


def pinned_decorated_isomorphic(sp, g1, dec1, g2, dec2, pin=None) -> bool:
    """Some isomorphism g1 -> g2 that sends each port p of g1 to pin[p]
    carries dec1 to dec2; with no pin, each port goes to itself."""
    pin = {p: p for p in ports(g1)} if pin is None else pin
    return any(
        all(iso.arc_map[p] == pin[p] for p in ports(g1))
        and transport_decoration(sp, dec1, iso) == dec2
        for iso in find_isomorphisms(g1, g2)
    )


def operations_of_arity(sp, n: int) -> dict[str, tuple[str, ...]]:
    """Every operation of arity n (for a free species: all relabelings
    of the generators); the independent reference that the counts and
    the truncation recount read."""
    names = [name for name, profile in sp.operations.items() if len(profile) == n]
    if sp.action is None:
        names = [act(sp, name, p) for name in names for p in itertools.permutations(range(n))]
    return {m: operation_profile(sp, m) for m in names}


@pytest.fixture
def L():
    return make_loop()


@pytest.fixture
def CY():
    return make_cycle()


@pytest.fixture
def PATH():
    return make_path_piece()


# -- vertex/flag examples ----------------------------------------------------

def make_bm_loop():
    return BMGraph({"v"}, {"f1", "f2"}, {"f1": "v", "f2": "v"}, {"f1": "f2", "f2": "f1"})


def make_bm_edge():
    return BMGraph({"u", "w"}, {"e1", "e2"}, {"e1": "u", "e2": "w"}, {"e1": "e2", "e2": "e1"})


def make_bm_cycle():
    return BMGraph(
        {"u", "w"},
        {"u1", "u2", "w1", "w2"},
        {"u1": "u", "u2": "u", "w1": "w", "w2": "w"},
        {"u1": "w1", "w1": "u1", "u2": "w2", "w2": "u2"},
    )


def make_bm_two_corollas():
    # two 1-corollas, not yet grafted
    return BMGraph({"x", "y"}, {"s", "t"}, {"s": "x", "t": "y"}, {"s": "s", "t": "t"})


@pytest.fixture
def LOOP():
    return make_bm_loop()


@pytest.fixture
def E2():
    return make_bm_edge()


@pytest.fixture
def CY_BM():
    return make_bm_cycle()


@pytest.fixture
def CC():
    return make_bm_two_corollas()


# -- random instances --------------------------------------------------------

@st.composite
def jk_graphs(draw, max_vertices=3, max_valence=3, max_ports=3):
    """A random valid arc/flag/vertex graph (possibly disconnected,
    possibly with isolated edges)."""
    n_v = draw(st.integers(0, max_vertices))
    flags = []
    incidence = {}
    for i in range(1, n_v + 1):
        for j in range(1, draw(st.integers(0, max_valence)) + 1):
            f = f"v{i}.{j}"
            flags.append(f)
            incidence[f] = f"v{i}"
    n_p = draw(st.integers(0, max_ports))
    if (len(flags) + n_p) % 2:
        n_p += 1
    items = [f + "*" for f in flags] + [f"p{k}" for k in range(1, n_p + 1)]
    involution = {}
    rest = list(items)
    while rest:
        a = rest.pop(0)
        b = rest.pop(draw(st.integers(0, len(rest) - 1)))
        involution[a] = b
        involution[b] = a
    return JKGraph(
        set(items),
        set(flags),
        {f"v{i}" for i in range(1, n_v + 1)},
        involution,
        {f: f + "*" for f in flags},
        incidence,
    )


@st.composite
def bm_graphs(draw, max_vertices=3, max_valence=3):
    """A random valid vertex/flag graph."""
    n_v = draw(st.integers(0, max_vertices))
    flags = []
    boundary = {}
    for i in range(1, n_v + 1):
        for j in range(1, draw(st.integers(0, max_valence)) + 1):
            f = f"v{i}.{j}"
            flags.append(f)
            boundary[f] = f"v{i}"
    involution = {}
    rest = list(flags)
    while rest:
        f = rest.pop(0)
        if not rest or draw(st.booleans()):
            involution[f] = f  # a tail
            continue
        g = rest.pop(draw(st.integers(0, len(rest) - 1)))
        involution[f] = g
        involution[g] = f
    return BMGraph(
        {f"v{i}" for i in range(1, n_v + 1)}, set(flags), boundary, involution
    )
