import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EMPTY_GRAPH, jk_graphs, make_cycle, make_path_piece
from grafcat import oracle, species
from grafcat.graph_core import (
    JKGraph,
    components,
    corolla,
    disjoint_union,
    edges,
    elements,
    find_isomorphisms,
    flag_isomorphisms,
    flag_view,
    flags_by_vertex,
    graph_sum,
    inner_edges,
    involutions,
    is_connected,
    is_effective,
    is_isomorphic,
    isolated_edges,
    local_interface,
    multigraph_key,
    ports,
    prefix_graph,
    recompose_elements,
    relabel,
    spanned_subgraph,
    unit_graph,
    validate_graph,
)
from grafcat.bm import bm_edges, contracted_pairs
from grafcat.cospan_equiv import phi1_graph
from grafcat.oracle import enumerate_bm_graphs, enumerate_bm_morphisms
from grafcat.species import graphs_with_ports


# -- validation ---------------------------------------------------------------

def test_examples_validate(L, CY, PATH):
    for g in (L, CY, PATH, EMPTY_GRAPH, unit_graph(), corolla(3)):
        assert validate_graph(g).ok


def test_fixpoint_involution_rejected():
    g = JKGraph({"a"}, set(), set(), {"a": "a"}, {}, {})
    rep = validate_graph(g)
    assert not rep.ok
    assert any("fixpoint-free" in p for p in rep.problems)


def test_embed_must_be_injective():
    g = JKGraph(
        {"a", "b"}, {"f", "g"}, {"v"},
        {"a": "b", "b": "a"}, {"f": "a", "g": "a"}, {"f": "v", "g": "v"},
    )
    rep = validate_graph(g)
    assert not rep.ok
    assert any("injective" in p for p in rep.problems)


def test_unknown_vertex_rejected():
    g = JKGraph(
        {"a", "b"}, {"f"}, {"v"},
        {"a": "b", "b": "a"}, {"f": "a"}, {"f": "nope"},
    )
    assert not validate_graph(g).ok


def test_involution_must_close():
    g = JKGraph({"a", "b", "c"}, set(), set(), {"a": "b", "b": "a", "c": "b"}, {}, {})
    assert not validate_graph(g).ok


# -- structure ----------------------------------------------------------------

@pytest.mark.parametrize(
    "field, value, problems",
    [
        ("involution", {"1": "1*", "1*": "1", "2*": "2"}, (
            "involution-domain: involution must be defined on exactly the arcs",)),
        ("involution", {"1": "z", "1*": "1", "2": "2*", "2*": "2"}, (
            "involution-image: i('1') = 'z' is not an arc", "involution: i(i('1*')) != '1*'")),
        ("involution", {"1": "1*", "1*": "2", "2": "2*", "2*": "2"}, (
            "involution: i(i('1')) != '1'", "involution: i(i('1*')) != '1*'")),
        ("involution", {"1": "1", "1*": "1*", "2": "2*", "2*": "2"}, (
            "fixpoint-free: involution fixes arc '1'", "fixpoint-free: involution fixes arc '1*'")),
        ("embed", {"1*": "1*"}, ("embed-domain: embed must be defined on exactly the flags",)),
        ("embed", {"1*": "z", "2*": "2*"}, ("embed-image: s('1*') = 'z' is not an arc",)),
        ("embed", {"1*": "1*", "2*": "1*"}, (
            "s injective: flags '1*' and '2*' share arc '1*'",)),
        ("incidence", {"2*": "v"}, (
            "incidence-domain: incidence must be defined on exactly the flags",)),
        ("incidence", {"1*": "x", "2*": "v"}, ("incidence-image: p('1*') is not a vertex",)),
    ],
)
def test_each_graph_clause_is_reported(field, value, problems):
    assert validate_graph(corolla(2)).ok
    assert validate_graph(dataclasses.replace(corolla(2), **{field: value})).problems == problems


def test_edge_kinds(L, CY, PATH):
    assert edges(L) == {("l1", "l2")}
    assert inner_edges(L) == edges(L)
    assert ports(L) == set()
    assert len(inner_edges(CY)) == 2
    assert ports(PATH) == {"p", "q"}
    assert len(inner_edges(PATH)) == 1
    assert isolated_edges(unit_graph()) == {("a1", "a2")}
    assert isolated_edges(L) == set()


def test_inner_edges_are_kept_on_the_graph_and_cannot_be_changed(CY):
    first = inner_edges(CY)
    assert inner_edges(CY) is first
    im = set(CY.embed.values())
    fresh = {(a, b) for a, b in CY.involution.items() if a < b and {a, b} <= im}
    assert first == fresh
    with pytest.raises(AttributeError):
        first.add(("x", "y"))
    assert isinstance(first, frozenset) and all(isinstance(e, tuple) for e in first)


def test_edges_are_a_frozenset_kept_on_the_graph(CY):
    first = edges(CY)
    assert edges(CY) is first
    assert isinstance(first, frozenset)
    assert first == {(a, b) for a, b in CY.involution.items() if a < b}


def test_isolated_edges_are_a_frozenset_kept_on_the_graph():
    g = graph_sum([unit_graph(), corolla(1)])
    first = isolated_edges(g)
    assert isolated_edges(g) is first
    assert isinstance(first, frozenset) and first == {("a1", "a2")}


def assert_sorted_pairs(pairs, orbits):
    """pairs holds each orbit once, as the tuple of its two members in
    sorted order."""
    assert all(type(e) is tuple and len(e) == 2 and e[0] < e[1] for e in pairs)
    assert len(pairs) == len(orbits) and {frozenset(e) for e in pairs} == orbits


def test_edges_and_contracted_pairs_are_sorted_pairs():
    pictures = [phi1_graph(b) for b in enumerate_bm_graphs(3, 5)]
    for g in pictures + [graph_sum([unit_graph(), corolla(1)])]:
        im = set(g.embed.values())
        orbits = {frozenset((a, g.involution[a])) for a in g.arcs}
        assert_sorted_pairs(edges(g), orbits)
        assert_sorted_pairs(inner_edges(g), {e for e in orbits if e <= im})
        assert_sorted_pairs(isolated_edges(g), {e for e in orbits if not e & im})
    graphs = enumerate_bm_graphs(2, 4)
    for b in graphs:
        orbits = {frozenset((f, b.involution[f])) for f in b.flags}
        assert_sorted_pairs(bm_edges(b), {e for e in orbits if len(e) == 2})
    morphisms = [h for t in graphs for r in graphs for h in enumerate_bm_morphisms(t, r)]
    assert len(morphisms) == 993
    for h in morphisms:
        vi = h.virtual_involution
        assert_sorted_pairs(contracted_pairs(h), {frozenset((f, vi[f])) for f in vi})


def test_flag_view_is_kept_on_the_graph(CY):
    first = flag_view(CY)
    assert flag_view(CY) is first
    at, partner = first
    assert at == {"u": ["u1", "u2"], "w": ["w1", "w2"]}
    assert partner == {"u1": "w1", "w1": "u1", "u2": "w2", "w2": "u2"}


def test_local_interface_is_the_inward_arcs():
    c = corolla(3)
    assert local_interface(c, "v") == {"1", "2", "3"}
    with pytest.raises(ValueError):
        local_interface(c, "w")


def test_local_interface_counts_loops_twice(L):
    assert local_interface(L, "v") == {"l1", "l2"}


def test_effective(L):
    assert is_effective(L)
    assert not is_effective(unit_graph())      # isolated edge
    assert not is_effective(EMPTY_GRAPH)       # empty


# -- constructors --------------------------------------------------------------

def test_corolla_by_count_and_by_labels():
    c = corolla(2)
    assert ports(c) == {"1", "2"}
    assert c.vertices == {"v"}
    named = corolla(["a", "b"])
    assert ports(named) == {"a", "b"}
    with pytest.raises(ValueError):
        corolla(["a", "a"])
    with pytest.raises(ValueError):
        corolla(["a", "a*"])


def test_corolla_zero():
    c = corolla(0)
    assert c.vertices == {"v"} and not c.arcs


# -- components ----------------------------------------------------------------

def test_components_of_disjoint_union(L, CY):
    total, lm, rm = disjoint_union(L, CY)
    assert validate_graph(total).ok
    assert not is_connected(total)
    comps = components(total)
    assert len(comps) == 2
    assert sorted(len(c.vertices) for c in comps) == [1, 2]
    assert any(is_isomorphic(c, L) for c in comps)
    assert any(is_isomorphic(c, CY) for c in comps)


def test_graph_sum_rejects_a_shared_label(L):
    with pytest.raises(ValueError):
        graph_sum([L, prefix_graph(L, "x.")[0], L])


def test_unit_graph_is_one_component():
    assert len(components(unit_graph())) == 1
    assert is_connected(unit_graph())


def test_connectivity_of_small_graphs():
    assert not is_connected(EMPTY_GRAPH)
    assert is_connected(unit_graph())
    two, _, _ = disjoint_union(corolla(1), corolla(1))
    assert not is_connected(two)
    # vertex "x" and arc "x" belong to different components
    shared = JKGraph({"x", "y"}, set(), {"x"}, {"x": "y", "y": "x"}, {}, {})
    assert not is_connected(shared)
    assert len(components(shared)) == 2


def test_spanned_subgraph_of_one_vertex(CY):
    sub = spanned_subgraph(CY, {"u"})
    assert validate_graph(sub).ok
    assert sub.vertices == {"u"} and sub.flags == {"u1", "u2"}
    assert sub.arcs == CY.arcs
    assert spanned_subgraph(CY, CY.vertices) == CY


def test_prefix_graph_is_isomorphic(CY):
    copy, maps = prefix_graph(CY, "x.")
    assert validate_graph(copy).ok
    assert is_isomorphic(copy, CY)
    assert all(a.startswith("x.") for a in copy.arcs)
    assert maps.arc_map["a1"] == "x.a1"


# -- elements ------------------------------------------------------------------

def test_elements_of_cycle(CY):
    recipe = elements(CY)
    assert set(recipe.vertex_elements) == {"u", "w"}
    assert len(recipe.edge_elements) == 2
    for elem in recipe.vertex_elements.values():
        assert is_isomorphic(elem, corolla(2))
    for elem in recipe.edge_elements.values():
        assert is_isomorphic(elem, unit_graph())


def test_recompose_elements_roundtrip(L, CY, PATH):
    # the elements keep g's labels, so gluing them gives back g itself
    pictures = [phi1_graph(b) for b in enumerate_bm_graphs(3, 5)]
    for g in (L, CY, PATH, corolla(3), unit_graph(), EMPTY_GRAPH, *pictures):
        back = recompose_elements(elements(g))
        assert validate_graph(back).ok
        assert back == g


# -- isomorphism oracle ---------------------------------------------------------

def brute_isomorphism_count(g1: JKGraph, g2: JKGraph) -> int:
    """Count isomorphisms by filtering raw arc permutations; the flag
    and vertex maps are forced by the arc map, except that isolated
    vertices permute freely."""
    if (
        len(g1.arcs) != len(g2.arcs)
        or len(g1.flags) != len(g2.flags)
        or len(g1.vertices) != len(g2.vertices)
    ):
        return 0
    flag_of1 = {g1.embed[f]: f for f in g1.flags}
    flag_of2 = {g2.embed[f]: f for f in g2.flags}
    iso_v1 = [v for v in g1.vertices if all(g1.incidence[f] != v for f in g1.flags)]
    iso_v2 = [v for v in g2.vertices if all(g2.incidence[f] != v for f in g2.flags)]
    if len(iso_v1) != len(iso_v2):
        return 0
    free = 1
    for k in range(2, len(iso_v1) + 1):
        free *= k
    a1 = sorted(g1.arcs)
    count = 0
    for perm in itertools.permutations(sorted(g2.arcs)):
        amap = dict(zip(a1, perm))
        if any(amap[g1.involution[a]] != g2.involution[amap[a]] for a in a1):
            continue
        if {amap[a] for a in flag_of1} != set(flag_of2):
            continue
        vmap = {}
        ok = True
        for a, f in flag_of1.items():
            v = g1.incidence[f]
            w = g2.incidence[flag_of2[amap[a]]]
            if vmap.setdefault(v, w) != w:
                ok = False
                break
        if ok and len(set(vmap.values())) == len(vmap):
            count += free
    return count


def test_automorphism_counts_frozen(L, CY):
    assert len(find_isomorphisms(corolla(2), corolla(2))) == 2
    assert len(find_isomorphisms(L, L)) == 2
    assert len(find_isomorphisms(CY, CY)) == 4
    assert len(find_isomorphisms(L, corolla(2))) == 0
    assert brute_isomorphism_count(L, L) == 2
    assert brute_isomorphism_count(CY, CY) == 4


def test_loop_vs_cycle_not_isomorphic(L, CY):
    assert not is_isomorphic(L, CY)


@settings(max_examples=60, deadline=None)
@given(jk_graphs(max_vertices=2, max_valence=2, max_ports=2))
def test_random_graphs_validate(g):
    assert validate_graph(g).ok


@settings(max_examples=40, deadline=None)
@given(
    jk_graphs(max_vertices=2, max_valence=2, max_ports=2),
    jk_graphs(max_vertices=2, max_valence=2, max_ports=2),
)
def test_iso_search_agrees_with_brute_force(g, h):
    assert len(find_isomorphisms(g, g)) == brute_isomorphism_count(g, g)
    count = brute_isomorphism_count(g, h)
    assert len(find_isomorphisms(g, h)) == count
    assert is_isomorphic(g, h) == (count > 0)
    shuffled = relabel(
        g,
        {a: "A" + a for a in g.arcs},
        {f: "F" + f for f in g.flags},
        {v: "V" + v for v in g.vertices},
    )
    assert len(find_isomorphisms(g, shuffled)) == brute_isomorphism_count(g, shuffled)
    assert is_isomorphic(g, shuffled)


@settings(max_examples=40, deadline=None)
@given(jk_graphs())
def test_isomorphisms_are_valid_triples(g):
    for iso in find_isomorphisms(g, g)[:6]:
        assert {iso.arc_map[a] for a in g.arcs} == set(g.arcs)
        for a in g.arcs:
            assert iso.arc_map[g.involution[a]] == g.involution[iso.arc_map[a]]
        for f in g.flags:
            assert iso.arc_map[g.embed[f]] == g.embed[iso.flag_map[f]]
            assert iso.vertex_map[g.incidence[f]] == g.incidence[iso.flag_map[f]]


@settings(max_examples=40, deadline=None)
@given(jk_graphs())
def test_recompose_random(g):
    back = recompose_elements(elements(g))
    assert validate_graph(back).ok
    assert back == g


# -- flag search ---------------------------------------------------------------------


def uncoloured_flag_isomorphisms(at1, partner1, at2, partner2):
    """flag_isomorphisms written out on its own: the reference for its
    output and its order."""

    def signature(at, partner, v):
        return len(at[v]), sum(1 for h in at[v] if partner[h] == h)

    sig1 = {v: signature(at1, partner1, v) for v in at1}
    sig2 = {w: signature(at2, partner2, w) for w in at2}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return
    vs1, vs2 = sorted(at1), sorted(at2)
    if not vs1:
        yield {}, {}
        return
    placed: set[str] = set()
    checks = []
    for v in vs1:
        placed.update(at1[v])
        checks.append([(h, partner1[h]) for h in at1[v] if partner1[h] in placed])
    vmap: dict[str, str] = {}
    fmap: dict[str, str] = {}

    def place(i):
        v = vs1[i]
        used = {vmap[u] for u in vs1[:i]}
        for w in vs2:
            if w in used or sig2[w] != sig1[v]:
                continue
            vmap[v] = w
            for image in itertools.permutations(at2[w]):
                fmap.update(zip(at1[v], image))
                if all(fmap[p] == partner2[fmap[h]] for h, p in checks[i]):
                    if i + 1 == len(vs1):
                        yield dict(vmap), dict(fmap)
                    else:
                        yield from place(i + 1)

    yield from place(0)


def _flag_search_window():
    """Each (2,4) vertex/flag graph as (at, partner)."""
    return [
        (flags_by_vertex(g.vertices, g.boundary), g.involution) for g in enumerate_bm_graphs(2, 4)
    ]


def test_uncoloured_flag_search_is_unchanged():
    window = _flag_search_window()
    found = 0
    for at1, p1 in window:
        for at2, p2 in window:
            isos = list(flag_isomorphisms(at1, p1, at2, p2))
            assert isos == list(uncoloured_flag_isomorphisms(at1, p1, at2, p2))
            found += len(isos)
    assert (len(window), found) == (33, 149)


# -- multigraph key -----------------------------------------------------------------

@st.composite
def vertex_multigraphs(draw, n_vertices):
    """Labels in {0, 1} on n_vertices vertices and up to five links
    between them, loops included."""
    labels = draw(st.lists(st.integers(0, 1), min_size=n_vertices, max_size=n_vertices))
    if not n_vertices:
        return labels, []
    ends = st.integers(0, n_vertices - 1)
    return labels, draw(st.lists(st.tuples(ends, ends), max_size=5))


def same_multigraph(labels1, links1, labels2, links2) -> bool:
    """Reference: some vertex bijection keeping labels maps the links of
    one onto the links of the other, as multisets."""
    n = len(labels1)
    if len(labels2) != n:
        return False
    target = sorted(tuple(sorted(link)) for link in links2)
    return any(
        all(labels2[perm[i]] == labels1[i] for i in range(n))
        and sorted(tuple(sorted((perm[i], perm[j]))) for i, j in links1) == target
        for perm in itertools.permutations(range(n))
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_multigraph_key_agrees_with_brute_force(data):
    n = data.draw(st.integers(0, 4))
    labels, links = data.draw(vertex_multigraphs(n))
    key = multigraph_key(labels, links)
    # a relabelled copy, its links listed in another order and each
    # link's ends in either order
    perm = data.draw(st.permutations(range(n)))
    moved_labels = [None] * n
    for i, x in enumerate(labels):
        moved_labels[perm[i]] = x
    moved_links = [
        (perm[j], perm[i]) if data.draw(st.booleans()) else (perm[i], perm[j]) for i, j in links
    ]
    moved_links = data.draw(st.permutations(moved_links))
    assert multigraph_key(moved_labels, moved_links) == key
    other = data.draw(vertex_multigraphs(data.draw(st.integers(max(n - 1, 0), n))))
    assert (multigraph_key(*other) == key) == same_multigraph(labels, links, *other)


def reference_multigraph_key(labels: list, links: list[tuple[int, int]]) -> tuple:
    """Reference: multigraph_key trying every order within each class of
    equal label, linkless vertices too, and listing every key before
    taking the least."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    classes = [list(c) for _, c in itertools.groupby(order, key=labels.__getitem__)]
    keys = []
    for perms in itertools.product(*map(itertools.permutations, classes)):
        pos = {v: k for k, v in enumerate(itertools.chain.from_iterable(perms))}
        keys.append(sorted((min(pos[i], pos[j]), max(pos[i], pos[j])) for i, j in links))
    return tuple(sorted(labels)), tuple(min(keys))


def test_multigraph_key_matches_its_reference_on_both_enumerators(monkeypatch):
    # every key that the two graph enumerators ask for on the tier-1
    # windows, BM graphs and species graphs with ports alike
    asked = []

    def recording(labels, links):
        asked.append((list(labels), list(links)))
        return multigraph_key(labels, links)

    monkeypatch.setattr(oracle, "multigraph_key", recording)
    monkeypatch.setattr(species, "multigraph_key", recording)
    for window in ((2, 4), (2, 5), (3, 5), (2, 6), (4, 6), (3, 7)):
        enumerate_bm_graphs(*window)
    for allowed in ([3], [2, 3]):
        for n_ports in range(4):
            graphs_with_ports(allowed, n_ports, 3)
    assert len(asked) == 7590 + 176  # BM windows, then species ones

    def skips_a_vertex(labels, links):
        # some linkless vertex shares its label: its orders are not tried
        linked = {v for link in links for v in link}
        return any(labels.count(labels[v]) > 1 for v in range(len(labels)) if v not in linked)

    assert sum(skips_a_vertex(*a) for a in asked) == 1124
    for labels, links in asked:
        assert multigraph_key(labels, links) == reference_multigraph_key(labels, links)


# -- involutions ------------------------------------------------------------------

@pytest.mark.parametrize(
    "fixpoints, counts",
    [(True, [1, 1, 2, 4, 10, 26, 76]), (False, [1, 0, 1, 0, 3, 0, 15])],
)
def test_involutions_are_counted_and_distinct(fixpoints, counts):
    for n, expected in enumerate(counts):
        items = [f"x{i}" for i in range(n)]
        found = list(involutions(items, fixpoints))
        assert len(found) == expected
        assert len({tuple(sorted(inv.items())) for inv in found}) == expected
        for inv in found:
            assert set(inv) == set(items)
            assert all(inv[inv[x]] == x for x in items)
            assert fixpoints or all(inv[x] != x for x in items)
