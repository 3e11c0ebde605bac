import itertools
import re
from collections import Counter

import pytest
from hypothesis import given, settings

from conftest import jk_graphs, make_cycle, make_loop, make_two_isolated_edges, shuffled
from grafcat.bm import bm_edges
from grafcat.cospan_equiv import phi1_graph
from grafcat.etale import (
    EtaleMorphism,
    ReducedCover,
    compose_covers,
    compose_etale,
    cut_edges,
    decompose_reduced_cover,
    glue_ports,
    identity_cover,
    identity_etale,
    is_covering_family,
    is_injective_etale,
    is_reduced_cover,
    open_subgraph,
    reduced_covers_of,
    replay_gluings,
    validate_etale,
    validate_reduced_cover,
)
from grafcat.graph_core import (
    JKGraph,
    corolla,
    disjoint_union,
    edges,
    embed_image,
    find_isomorphisms,
    graph_sum,
    inner_edges,
    is_effective,
    is_isomorphic,
    ports,
    prefix_graph,
    unit_graph,
    validate_graph,
)
from grafcat.oracle import covers_from, enumerate_bm_graphs


# -- etale validation -----------------------------------------------------------

def test_identity_is_etale(L, CY):
    for g in (L, CY, corolla(3)):
        m = identity_etale(g)
        assert validate_etale(m).ok
        assert is_injective_etale(m)


def test_compose_etale_identity(CY):
    m = identity_etale(CY)
    assert compose_etale(m, m).arc_map == m.arc_map


def test_non_local_bijection_rejected(CY):
    # drop one flag of u: the incidence square still commutes but the
    # per-vertex interface condition fails
    sub = corolla(1)
    m = EtaleMorphism(
        sub, CY,
        {"1": "a1", "1*": "a2"},
        {"f1": "u1"},
        {"v": "u"},
    )
    rep = validate_etale(m)
    assert not rep.ok


def test_involution_square_rejected(L):
    two = corolla(2)
    m = EtaleMorphism(
        two, L,
        {"1": "l1", "1*": "l1", "2": "l2", "2*": "l2"},
        {"f1": "f1", "f2": "f2"},
        {"v": "v"},
    )
    assert not validate_etale(m).ok


# the two-port corolla wound once round the loop: its ports end on the
# loop's two arcs
FOLD = EtaleMorphism(
    corolla(2), make_loop(), {"1*": "l1", "1": "l2", "2*": "l2", "2": "l1"},
    {"1*": "f1", "2*": "f2"}, {"v": "v"},
)
NO_ARC_ONE = JKGraph(
    corolla(2).arcs, corolla(2).flags, {"v"}, {"1*": "1", "2": "2*", "2*": "2"},
    corolla(2).embed, corolla(2).incidence,
)


@pytest.mark.parametrize(
    "broken, problems",
    [
        (lambda CY: FOLD._replace(source=NO_ARC_ONE), (
            "source-invalid: involution-domain: involution must be defined on exactly the arcs",)),
        (lambda CY: FOLD._replace(arc_map={"1*": "l1", "1": "l2", "2*": "l2"}), (
            "arc-map: not a total map from source arcs to target arcs",)),
        (lambda CY: FOLD._replace(flag_map={"1*": "f1", "2*": "f3"}), (
            "flag-map: not a total map from source flags to target flags",)),
        (lambda CY: FOLD._replace(vertex_map={"v": "w"}), (
            "vertex-map: not a total map from source vertices to target vertices",)),
        (lambda CY: FOLD._replace(arc_map={"1*": "l1", "1": "l1", "2*": "l2", "2": "l1"}), (
            "involution: arc map does not commute with involutions at '1'",
            "involution: arc map does not commute with involutions at '1*'")),
        (lambda CY: FOLD._replace(flag_map={"1*": "f2", "2*": "f1"}), (
            "left-square: embed squares do not commute at flag '1*'",
            "left-square: embed squares do not commute at flag '2*'")),
        # the flags at w keep their images but w goes to u: a failing right
        # square puts a flag over another vertex, so the pullback fails too
        (lambda CY: identity_etale(CY)._replace(vertex_map={"u": "u", "w": "u"}), (
            "right-square: incidence squares do not commute at flag 'w1'",
            "right-square: incidence squares do not commute at flag 'w2'",
            "pullback: flags at 'w' do not map bijectively onto flags at 'u'")),
        (lambda CY: FOLD._replace(
            arc_map={"1*": "l1", "1": "l2", "2*": "l1", "2": "l2"},
            flag_map={"1*": "f1", "2*": "f1"},
        ), ("pullback: flags at 'v' do not map bijectively onto flags at 'v'",)),
    ],
)
def test_each_etale_clause_is_reported(CY, broken, problems):
    assert validate_etale(FOLD).ok and validate_etale(identity_etale(CY)).ok
    assert validate_etale(broken(CY)).problems == problems


def _two_tails_onto_one():
    # two one-port corollas onto one: etale and covering, two vertices onto one
    src = graph_sum([prefix_graph(corolla(1), p)[0] for p in ("a.", "b.")])
    arcs = {a: a[2:] for a in src.arcs}
    flags = {h: h[2:] for h in src.flags}
    return EtaleMorphism(src, corolla(1), arcs, flags, {v: "v" for v in src.vertices})


@pytest.mark.parametrize(
    "cover, problems",
    [
        (lambda CY: identity_etale(CY)._replace(vertex_map={"u": "u"}), (
            "vertex-map: not a total map from source vertices to target vertices",)),
        (lambda CY: identity_etale(unit_graph()), (
            "isolated-edges: reduced covers live between graphs without isolated edges",)),
        (lambda CY: open_subgraph(CY, {"u"})[1], (
            "covering: not jointly surjective on edges and vertices",)),
        (lambda CY: _two_tails_onto_one(), ("reduced: vertex map is not injective",)),
    ],
)
def test_each_reduced_cover_clause_is_reported(CY, cover, problems):
    assert validate_reduced_cover(identity_etale(CY)).ok
    assert validate_reduced_cover(cover(CY)).problems == problems


# -- open subgraphs --------------------------------------------------------------

def test_open_subgraph_of_cycle(CY):
    sub, incl = open_subgraph(CY, {"u"})
    assert validate_graph(sub).ok
    assert validate_etale(incl).ok
    assert is_injective_etale(incl)
    assert is_isomorphic(sub, corolla(2))
    assert ports(sub) == {"a2", "b2"}


def test_open_subgraph_full_is_identity(CY):
    sub, incl = open_subgraph(CY, CY.vertices)
    assert sub == CY
    assert incl.arc_map == {a: a for a in CY.arcs}


def test_covering_family(CY):
    _, i1 = open_subgraph(CY, {"u"})
    _, i2 = open_subgraph(CY, {"w"})
    assert is_covering_family([i1, i2])
    assert not is_covering_family([i1])


def edge_pass_covering(ms):
    """Reference for is_covering_family: the image of every source edge,
    collected edge by edge, against the target's edges."""
    tgt = ms[0].target
    hit_vertices = {w for m in ms for w in m.vertex_map.values()}
    hit_edges = {tuple(sorted(m.arc_map[a] for a in e)) for m in ms for e in edges(m.source)}
    return hit_vertices == set(tgt.vertices) and hit_edges == edges(tgt)


def test_covering_by_arcs_matches_the_edge_pass():
    covers, inclusions, isos = [], [], []
    for window in ((2, 4), (3, 5), (2, 6)):
        for b in enumerate_bm_graphs(*window):
            g = phi1_graph(b)
            if is_effective(g):
                covers += [[rc] for rc in reduced_covers_of(g) + covers_from(g)]
    for b in enumerate_bm_graphs(2, 4):
        g = phi1_graph(b)
        vs = sorted(g.vertices)
        subsets = [w for r in range(1, len(vs) + 1) for w in itertools.combinations(vs, r)]
        members = [open_subgraph(g, w)[1] for w in subsets]
        inclusions += [list(f) for f in itertools.combinations_with_replacement(members, 2)]
    for g in small_graphs():
        isos += [[iso] for h in (g, shuffled(g)) for iso in find_isomorphisms(g, h)]
    answers = []
    for families in (covers, inclusions, isos):
        got = [is_covering_family(ms) for ms in families]
        assert got == [edge_pass_covering(ms) for ms in families]
        answers.append(Counter(got))
    assert answers == [{True: 1851}, {True: 101, False: 46}, {True: 318}]


# -- isomorphisms, renamings and inclusions are etale maps -------------------------

def small_graphs():
    """The (2,4) pictures, the unit graph and two isolated edges."""
    pictures = [phi1_graph(b) for b in enumerate_bm_graphs(2, 4)]
    return pictures + [unit_graph(), make_two_isolated_edges()]


def test_isomorphisms_are_etale_bijections_between_their_ends():
    checked = 0
    for g in small_graphs():
        for h in (g, shuffled(g)):
            isos = find_isomorphisms(g, h)
            assert all(i1 != i2 for i1, i2 in itertools.combinations(isos, 2))
            for iso in isos:
                assert iso.source is g and iso.target is h
                assert validate_etale(iso).ok and is_injective_etale(iso)
                assert set(iso.arc_map.values()) == h.arcs
                assert set(iso.flag_map.values()) == h.flags
                assert set(iso.vertex_map.values()) == h.vertices
                checked += 1
    assert checked == 318


def test_renamings_and_sum_inclusions_are_injective_etale():
    gs = small_graphs()
    checked = 0
    for g, h in zip(gs, gs[1:] + gs[:1]):
        copy, renaming = prefix_graph(g, "x.")
        total, left, right = disjoint_union(g, h)
        for m, source, target in ((renaming, g, copy), (left, g, total), (right, h, total)):
            assert m.source is source and m.target is target
            assert validate_etale(m).ok and is_injective_etale(m)
            checked += 1
    assert checked == 105


# -- gluing ----------------------------------------------------------------------

def test_glue_two_corollas():
    total, _, _ = disjoint_union(corolla(1), corolla(1))
    glued, rc = glue_ports(total, "L.1", "R.1")
    assert validate_reduced_cover(rc).ok
    assert len(inner_edges(glued)) == 1
    assert ports(glued) == set()
    assert len(glued.vertices) == 2


def test_glue_self():
    c = corolla(2)
    glued, rc = glue_ports(c, "1", "2")
    assert validate_reduced_cover(rc).ok
    assert is_isomorphic(glued, make_loop())


def test_glue_rejects_non_ports(L):
    with pytest.raises(ValueError):
        glue_ports(L, "l1", "l2")
    with pytest.raises(ValueError):
        glue_ports(corolla(2), "1", "1")


# -- reference: the gluings one at a time, each quotient composed onto the last ---

def glue_one(g: JKGraph, a: str, b: str) -> tuple[JKGraph, ReducedCover]:
    """A single gluing of ports a and b as a quotient of g."""
    im = embed_image(g)
    for x in (a, b):
        if x not in g.arcs or x in im:
            raise ValueError(f"not a port: {x!r}")
    ia, ib = g.involution[a], g.involution[b]
    if b in (a, ia):
        raise ValueError("ports must lie on two distinct edges")
    for x, px in ((a, ia), (b, ib)):
        if px not in im:
            raise ValueError(f"port {x!r} lies on an isolated edge")
    rename = {a: min(a, ib), ib: min(a, ib), ia: min(ia, b), b: min(ia, b)}
    ra = lambda x: rename.get(x, x)
    quotient = JKGraph(
        {ra(x) for x in g.arcs},
        g.flags,
        g.vertices,
        {ra(x): ra(y) for x, y in g.involution.items()},
        {h: ra(x) for h, x in g.embed.items()},
        dict(g.incidence),
    )
    return quotient, ReducedCover(
        g, quotient, {x: ra(x) for x in g.arcs}, {h: h for h in g.flags}, {v: v for v in g.vertices}
    )


def sequential_gluings(g: JKGraph, steps) -> tuple[JKGraph, ReducedCover]:
    """replay_gluings as a chain of single gluings, each step's ports
    renamed by the cover so far."""
    current, cover = g, identity_cover(g)
    for p, q in steps:
        current, step = glue_one(current, cover.arc_map[p], cover.arc_map[q])
        cover = compose_covers(cover, step)
    return current, cover


def test_one_quotient_matches_the_sequential_gluings_on_the_two_four_window():
    covers = 0
    for b in enumerate_bm_graphs(2, 4):
        g = phi1_graph(b)
        if not is_effective(g):
            continue
        # the covers onto g and the covers out of g
        for rc in reduced_covers_of(g) + covers_from(g):
            steps = decompose_reduced_cover(rc)
            for order in (steps, [(q, p) for p, q in reversed(steps)]):
                glued, cover = replay_gluings(rc.source, order)
                ref_glued, ref_cover = sequential_gluings(rc.source, order)
                assert glued == ref_glued
                assert cover.arc_map == ref_cover.arc_map
                assert cover.morphism == ref_cover.morphism
            covers += 1
    assert covers == 60 + 86


def raised(f, *args) -> str:
    with pytest.raises(ValueError) as info:
        f(*args)
    return str(info.value)


@pytest.mark.parametrize(
    "steps, message",
    [
        ([("L.1", "R.1"), ("R.1", "L.2")], "not a port: 'L.1*'"),  # reused, named as renamed
        ([("L.1", "R.2"), ("a1", "a2")], "ports must lie on two distinct edges"),
        ([("L.1", "L.1")], "ports must lie on two distinct edges"),
        ([("L.1", "a1")], "port 'a1' lies on an isolated edge"),
        ([("L.1", "R.1"), ("R.1*", "L.2")], "not a port: 'L.1'"),  # an arc under a flag
    ],
)
def test_one_quotient_rejects_bad_steps_as_the_sequential_gluings_do(steps, message):
    total, _, _ = disjoint_union(corolla(2), corolla(2))
    g = graph_sum([total, unit_graph()])
    assert raised(replay_gluings, g, steps) == raised(sequential_gluings, g, steps) == message


def replays_to(rc, rc2, back) -> bool:
    """True when some iso back -> rc.target identifies the replayed cover
    with the original one, arc by arc."""
    src = rc.source
    return any(
        all(u.arc_map[rc2.arc_map[a]] == rc.arc_map[a] for a in src.arcs)
        for u in find_isomorphisms(back, rc.target)
    )


def test_cut_then_glue_roundtrip(L):
    e = next(iter(inner_edges(L)))
    cut, rc = cut_edges(L, {e})
    assert validate_reduced_cover(rc).ok
    assert is_isomorphic(cut, corolla(2))
    steps = decompose_reduced_cover(rc)
    assert len(steps) == 1
    back, rc2 = replay_gluings(cut, steps)
    assert replays_to(rc, rc2, back)


def test_cut_edge_with_clashing_arc_names():
    # the two fresh port names must not collide when an arc is already
    # called "x^" (the very name cutting "x" would mint)
    g = JKGraph(
        {"x", "x^"}, {"h1", "h2"}, {"v"},
        {"x": "x^", "x^": "x"}, {"h1": "x", "h2": "x^"}, {"h1": "v", "h2": "v"},
    )
    assert validate_graph(g).ok
    cut, rc = cut_edges(g, {("x", "x^")})
    assert len(cut.arcs) == 4
    assert validate_graph(cut).ok
    assert validate_reduced_cover(rc).ok


def test_cut_edges_takes_the_sorted_pairs_that_inner_edges_gives():
    g = JKGraph(
        {"x", "x^"}, {"h1", "h2"}, {"v"},
        {"x": "x^", "x^": "x"}, {"h1": "x", "h2": "x^"}, {"h1": "v", "h2": "v"},
    )
    assert inner_edges(g) == {("x", "x^")}
    for bad in (("x^", "x"), ("x", "y")):
        with pytest.raises(ValueError, match=re.escape(f"not an inner edge: {bad}")):
            cut_edges(g, {bad})
    # with several bad pairs the error names the least of them
    with pytest.raises(ValueError, match=re.escape("not an inner edge: ('x^', 'x')")):
        cut_edges(g, {("y", "z"), ("x", "x^"), ("x^", "x")})
    cuts = 0
    for b in enumerate_bm_graphs(2, 4):
        pic = phi1_graph(b)
        for e in inner_edges(pic):
            assert validate_reduced_cover(cut_edges(pic, {e})[1]).ok
            with pytest.raises(ValueError, match=re.escape(f"not an inner edge: {e[::-1]}")):
                cut_edges(pic, {e[::-1]})
            cuts += 1
        for e in edges(pic) - inner_edges(pic):
            with pytest.raises(ValueError, match=re.escape(f"not an inner edge: {e}")):
                cut_edges(pic, {e})
    assert cuts == sum(len(bm_edges(b)) for b in enumerate_bm_graphs(2, 4)) == 23


def test_cutting_nothing_gives_the_graph_and_its_identity_cover(CY):
    cut, rc = cut_edges(CY, set())
    assert cut is CY
    assert rc == identity_cover(CY)


def test_decompose_replay_on_cycle(CY):
    cut, rc = cut_edges(CY, inner_edges(CY))
    assert len(cut.vertices) == 2
    assert len(ports(cut)) == 4
    back, rc2 = replay_gluings(cut, decompose_reduced_cover(rc))
    assert replays_to(rc, rc2, back)


def scanned_decompose(m):
    """Reference decomposition: over each target inner edge, sorted by
    its arcs, glue the partners of the two source flag arcs above it
    unless one source edge covers it."""
    src, tgt = m.source, m.target
    flag_of_arc_t = {a: h for h, a in tgt.embed.items()}
    preimage_flag = {m.flag_map[h]: h for h in src.flags}
    steps = []
    for e in sorted(inner_edges(tgt), key=lambda e: tuple(sorted(e))):
        y1, y2 = sorted(e)
        a1 = src.embed[preimage_flag[flag_of_arc_t[y1]]]
        a2 = src.embed[preimage_flag[flag_of_arc_t[y2]]]
        if src.involution[a1] == a2:
            continue  # hit by a single source edge
        steps.append(tuple(sorted((src.involution[a1], src.involution[a2]))))
    return steps


def test_decomposition_matches_the_inner_edge_scan():
    covers = 0
    for window in ((2, 4), (3, 5), (2, 6)):
        for b in enumerate_bm_graphs(*window):
            g = phi1_graph(b)
            if not is_effective(g):
                continue
            # the covers onto g and the covers out of g
            for rc in reduced_covers_of(g) + covers_from(g):
                assert decompose_reduced_cover(rc) == scanned_decompose(rc)
                covers += 1
    assert covers == 1851


# -- the cover lattice ------------------------------------------------------------

def test_cover_counts(L, CY):
    assert len(reduced_covers_of(corolla(2))) == 1
    assert len(reduced_covers_of(L)) == 2
    assert len(reduced_covers_of(CY)) == 4


def test_covers_are_reduced_and_roundtrip(CY):
    for rc in reduced_covers_of(CY):
        assert validate_reduced_cover(rc).ok
        assert is_reduced_cover(rc.morphism)
        assert rc.target == CY
        back, rc2 = replay_gluings(rc.source, decompose_reduced_cover(rc))
        assert replays_to(rc, rc2, back)


def test_identity_cover_composes(CY):
    for rc in reduced_covers_of(CY):
        left = compose_covers(identity_cover(rc.source), rc)
        right = compose_covers(rc, identity_cover(CY))
        assert left.morphism == rc.morphism
        assert right.morphism == rc.morphism


def test_covers_need_effective_source():
    with pytest.raises(ValueError):
        reduced_covers_of(unit_graph())


def test_cover_sources_unique_up_to_iso(CY):
    # the four covers of the 2-cycle have pairwise distinct gluing states:
    # full cut, two single cuts (isomorphic sources, different maps), identity
    sources = [rc.source for rc in reduced_covers_of(CY)]
    port_counts = sorted(len(ports(s)) for s in sources)
    assert port_counts == [0, 2, 2, 4]


# -- properties --------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(jk_graphs(max_vertices=2, max_valence=3, max_ports=2))
def test_cover_lattice_size(g):
    if not is_effective(g):
        return
    covers = reduced_covers_of(g)
    assert len(covers) == 2 ** len(inner_edges(g))
    for rc in covers:
        assert validate_reduced_cover(rc).ok
        assert len(rc.source.vertices) == len(g.vertices)


@settings(max_examples=40, deadline=None)
@given(jk_graphs(max_vertices=2, max_valence=2, max_ports=2))
def test_cut_all_then_replay(g):
    if not is_effective(g):
        return
    cut, rc = cut_edges(g, inner_edges(g))
    assert not inner_edges(cut)
    back, rc2 = replay_gluings(cut, decompose_reduced_cover(rc))
    assert replays_to(rc, rc2, back)
