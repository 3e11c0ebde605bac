import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings

from conftest import bm_graphs, make_bm_loop
from grafcat import oracle
from grafcat.bm import (
    BMGraph,
    BMMorphism,
    bm_corolla,
    bm_point,
    bm_tails,
    find_bm_isomorphisms,
    validate_bm_graph,
    validate_bm_morphism,
)
from grafcat.cospan_equiv import phi1_graph
from grafcat.kleisli import Refinement, validate_refinement
from grafcat.oracle import (
    check_equivalence,
    check_pair,
    covers_from,
    enumerate_bm_graphs,
    enumerate_bm_morphisms,
    enumerate_cospans,
    enumerate_refinements,
)
from grafcat.graph_core import (
    JKGraph,
    _UnionFind,
    corolla,
    find_isomorphisms,
    disjoint_union,
    flag_view,
    graph_sum,
    involutions,
    ports,
    unit_graph,
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


def raw_bm_graphs(max_vertices, max_flags):
    """Reference: every valence list and every involution of its flags,
    with no deduplication."""
    for n_v in range(max_vertices + 1):
        vertices = {f"v{i}" for i in range(1, n_v + 1)}
        for valences in oracle._valence_lists(n_v, max_flags):
            owners = [f"v{i}" for i, d in enumerate(valences, start=1) for _ in range(d)]
            boundary = {f"f{k}": v for k, v in enumerate(owners, start=1)}
            for involution in involutions(list(boundary)):
                yield BMGraph(vertices, set(boundary), boundary, involution)


def bm_bucket(g):
    """What every isomorphism keeps: the valence multiset and the tail count."""
    valences = sorted(sum(1 for f in g.flags if g.boundary[f] == v) for v in g.vertices)
    return tuple(valences), len(bm_tails(g))


@pytest.mark.parametrize(
    "window, raw_count, classes",
    [((2, 4), 63, 33), ((2, 5), 167, 51), ((3, 5), 355, 112), ((2, 6), 547, 83)],
)
def test_graph_classes_match_the_bm_isomorphism_search(window, raw_count, classes):
    """The classes are decided on the vertex/flag side: every raw graph
    is isomorphic to exactly one representative of its bucket, and no
    two representatives are isomorphic."""
    reps = enumerate_bm_graphs(*window)
    buckets = {}
    for h in reps:
        buckets.setdefault(bm_bucket(h), []).append(h)
    raw = list(raw_bm_graphs(*window))
    for g in raw:
        assert sum(bool(find_bm_isomorphisms(g, h)) for h in buckets[bm_bucket(g)]) == 1
    for group in buckets.values():
        for h1, h2 in itertools.combinations(group, 2):
            assert not find_bm_isomorphisms(h1, h2)
    assert (len(raw), len(reps)) == (raw_count, classes)


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


@pytest.mark.parametrize(
    "graph, message",
    [
        (unit_graph(), "reduced covers are only formed over graphs without isolated edges"),
        (
            disjoint_union(corolla(1), unit_graph())[0],
            "reduced covers are only formed over graphs without isolated edges",
        ),
        # the involution misses the arc 1*
        (
            JKGraph({"1", "1*"}, {"1*"}, {"v"}, {"1": "1*"}, {"1*": "1*"}, {"1*": "v"}),
            "invalid graph",
        ),
    ],
)
def test_covers_need_a_valid_graph_without_isolated_edges(graph, message):
    with pytest.raises(ValueError) as info:
        covers_from(graph)
    assert str(info.value) == message


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


def test_check_pair_fails_repeated_cospans(monkeypatch, LOOP):
    # every refinement built twice: each cospan is enumerated twice
    real = oracle.enumerate_refinements
    assert check_pair(LOOP, P, 0, 0).ok
    monkeypatch.setattr(oracle, "enumerate_refinements", lambda r, s: 2 * real(r, s))
    res = check_pair(LOOP, P, 0, 0)
    assert not res.ok
    assert (res.bm_count, res.cospan_count) == (1, 2)


def test_cospans_match_homs_on_an_interesting_pair(LOOP):
    homs = enumerate_bm_morphisms(LOOP, P)
    cospans = enumerate_cospans(LOOP, P)
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


SMALL_BM_GRAPHS = bm_graphs(max_vertices=3, max_valence=3).filter(lambda g: len(g.flags) <= 5)


@settings(max_examples=150, deadline=None)
@given(SMALL_BM_GRAPHS, SMALL_BM_GRAPHS)
def test_constructed_homs_are_valid_and_match_the_filter(tau, rho):
    built = enumerate_bm_morphisms(tau, rho)
    assert all(validate_bm_morphism(m).ok for m in built)
    assert _in_order(built) == _in_order(filtered_bm_morphisms(tau, rho))


# -- constructive refinements against the candidate filter ---------------------------

def filtered_refinements(r, s):
    """Test-only reference: for every vertex surjection of s onto r in
    product order, every choice of target flags edge by edge (an inner
    edge of r at its lesser flag, its partner following), kept if the
    refinement validates."""
    if len(r.vertices) > len(s.vertices) or len(r.flags) > len(s.flags):
        return []
    if len(ports(r)) != len(ports(s)):
        return []
    out = []
    r_vertices = sorted(r.vertices)
    s_vertices = sorted(s.vertices)
    s_flag_of_arc = {a: h for h, a in s.embed.items()}
    leaders = []
    partner_of = {}
    for g in sorted(r.flags):
        a = r.involution[r.embed[g]]
        if a in set(r.embed.values()):
            g2 = next(h for h in r.flags if r.embed[h] == a)
            if g2 < g:
                partner_of[g2] = g
                continue
        leaders.append(g)
    surjections = [
        dict(zip(s_vertices, values))
        for values in itertools.product(r_vertices, repeat=len(s_vertices))
        if set(values) == set(r_vertices)
    ]
    for vm in surjections:
        in_piece = {x: [h for h in sorted(s.flags) if vm[s.incidence[h]] == x] for x in r_vertices}

        def build(idx, chosen):
            if idx == len(leaders):
                arc_map = {}
                for g, h in chosen.items():
                    arc_map[r.embed[g]] = s.embed[h]
                    back = s.involution[s.embed[h]]
                    if arc_map.setdefault(r.involution[r.embed[g]], back) != back:
                        return
                if set(arc_map) != set(r.arcs):
                    return
                ref = Refinement(r, s, arc_map, vm, chosen)
                if validate_refinement(ref).ok:
                    out.append(ref)
                return
            g = leaders[idx]
            for h in in_piece[r.incidence[g]]:
                if h in chosen.values():
                    continue
                step = {g: h}
                if g in partner_of:
                    g2 = partner_of[g]
                    h2 = s_flag_of_arc.get(s.involution[s.embed[h]])
                    if h2 is None or h2 in chosen.values() or h2 == h:
                        continue
                    if h2 not in in_piece[r.incidence[g2]]:
                        continue
                    step[g2] = h2
                build(idx + 1, {**chosen, **step})

        build(0, {})
    return out


def _refinements_in_order(refs):
    # the maps with their insertion order, so that printed output agrees too
    return [
        (r.source, r.target, tuple(r.arc_map.items()), tuple(r.vertex_map.items()),
         tuple(r.flag_map.items()))
        for r in refs
    ]


def _match_refinement_filter(pairs):
    """Every (r, s) pair gives the filter's list, order included; returns
    the number of pairs and of refinements."""
    n_pairs = n_refs = 0
    for r, s in pairs:
        built = enumerate_refinements(r, s)
        assert _refinements_in_order(built) == _refinements_in_order(filtered_refinements(r, s))
        n_pairs += 1
        n_refs += len(built)
    return n_pairs, n_refs


def _picture_apex_pairs(max_vertices, max_flags):
    """(picture of rho, cover apex) for every rho and every reduced cover
    of every picture in the window: the pairs enumerate_cospans visits."""
    pictures = [phi1_graph(g) for g in enumerate_bm_graphs(max_vertices, max_flags)]
    apexes = [cover.target for t in pictures for cover in covers_from(t)]
    return [(r, apex) for r in pictures for apex in apexes]


def test_constructed_refinements_match_the_filter_on_the_two_five_window():
    assert _match_refinement_filter(_picture_apex_pairs(2, 5)) == (11526, 4449)


def test_constructed_refinements_match_the_filter_on_the_three_four_window():
    assert _match_refinement_filter(_picture_apex_pairs(3, 4)) == (11072, 3774)


def reference_surjections(domain, codomain, ties, forced):
    """Test-only reference: the vertex search as a union-find over the
    whole domain, with a root and a fibre dict per call.  Every map of the
    sorted domain onto the sorted codomain that sends the two ends of
    each tie to one point and agrees with forced, in product order."""
    uf = _UnionFind(domain)
    for a, b in ties:
        uf.union(a, b)
    root = {v: uf.find(v) for v in domain}
    fixed = {}
    for v, w in forced.items():
        if fixed.setdefault(root[v], w) != w:
            return
    free = list(dict.fromkeys(root[v] for v in domain if root[v] not in fixed))
    hit = set(fixed.values())
    for values in itertools.product(codomain, repeat=len(free)):
        if len(hit.union(values)) == len(codomain):
            fibre = {**fixed, **dict(zip(free, values))}
            yield {v: fibre[root[v]] for v in domain}


def partner_checked_refinements(r, s):
    """Test-only reference: enumerate_refinements as it was with a step
    dict per candidate and reference_surjections for the vertex maps,
    and with one more check, that the partner of an untaken flag on an
    edge is untaken too."""
    if len(r.vertices) > len(s.vertices) or len(r.flags) > len(s.flags):
        return []
    lr, ls = oracle._layout(r), oracle._layout(s)
    if lr is None or ls is None or len(lr.on_port) != len(ls.on_port):
        return []
    r_partner, s_partner = flag_view(r)[1], flag_view(s)[1]
    r_vertices, s_vertices, s_flags = sorted(r.vertices), sorted(s.vertices), sorted(s.flags)
    rank = {x: i for i, x in enumerate(r_vertices)}
    leaders = [g for g in sorted(r.flags) if g <= r_partner[g]]
    on_port = [h for h in s_flags if s_partner[h] == h]
    on_edge = [h for h in s_flags if s_partner[h] != h]
    found: list[tuple[tuple[int, ...], Refinement]] = []
    chosen: dict[str, str] = {}  # flag of r -> flag of s, partners after leaders
    taken: set[str] = set()  # the values of chosen
    forced: dict[str, str] = {}  # vertex of s -> vertex of r

    def complete():
        # Every flag of s on a port is taken, so the untaken flags are
        # whole inner edges, and each lies in one piece.
        ties = [(s.incidence[h], s.incidence[s_partner[h]]) for h in s_flags if h not in taken]
        arc_map: dict[str, str] = {}
        for g, h in chosen.items():
            arc_map[r.embed[g]] = s.embed[h]
            arc_map.setdefault(r.involution[r.embed[g]], s.involution[s.embed[h]])
        flag_map = dict(chosen)  # the search goes on changing chosen
        for vm in reference_surjections(s_vertices, r_vertices, ties, forced):
            key = tuple(rank[vm[v]] for v in s_vertices)
            found.append((key, tuple.__new__(Refinement, (r, s, arc_map, vm, flag_map))))

    def place(i: int):
        if i == len(leaders):
            complete()
            return
        g = leaders[i]
        g2 = r_partner[g]
        for h in on_port if g2 == g else on_edge:
            if h in taken:
                continue
            step = {g: h}
            if g2 != g:
                h2 = s_partner[h]
                if h2 in taken:
                    continue
                step[g2] = h2
            fresh = []
            for a, b in step.items():
                v, x = s.incidence[b], r.incidence[a]
                if v not in forced:
                    forced[v] = x
                    fresh.append(v)
                elif forced[v] != x:
                    break
            else:
                chosen.update(step)
                taken.update(step.values())
                place(i + 1)
                for a, b in step.items():
                    del chosen[a]
                    taken.discard(b)
            for v in fresh:
                del forced[v]

    place(0)
    found.sort(key=lambda item: item[0])
    return [ref for _, ref in found]


def test_refinements_need_no_partner_check_on_the_three_five_window():
    pictures = [phi1_graph(g) for g in enumerate_bm_graphs(3, 5)]
    n_refs = 0
    for r, s in itertools.product(pictures, repeat=2):
        built = enumerate_refinements(r, s)
        assert _refinements_in_order(built) == _refinements_in_order(
            partner_checked_refinements(r, s)
        )
        n_refs += len(built)
    assert (len(pictures), n_refs) == (112, 5234)


def _maps_in_order(maps):
    # the maps with their insertion order
    return [tuple(m.items()) for m in maps]


def test_surjections_match_the_reference_on_every_enumerator_call(monkeypatch):
    # every call both hom enumerators make on the (2,5) and (3,4) windows
    real = oracle._surjections
    sizes = []

    def checked(domain, codomain, ties, forced):
        maps = list(real(domain, codomain, ties, forced))
        expected = reference_surjections(domain, codomain, ties, forced)
        assert _maps_in_order(maps) == _maps_in_order(expected), (domain, codomain, ties, forced)
        sizes.append(len(maps))
        return iter(maps)

    monkeypatch.setattr(oracle, "_surjections", checked)
    for max_vertices, max_flags in [(2, 5), (3, 4)]:
        graphs = enumerate_bm_graphs(max_vertices, max_flags)
        for tau, rho in itertools.product(graphs, repeat=2):
            enumerate_bm_morphisms(tau, rho)
        for r, s in _picture_apex_pairs(max_vertices, max_flags):
            enumerate_refinements(r, s)
    assert (len(sizes), sum(sizes)) == (20842, 16774)


def test_surjections_match_the_reference_on_every_small_input():
    # sorted domains of 0-4 points and codomains of 0-3 that share names,
    # every set of ties between two points and every partial forced map
    calls = empty = 0
    for n in range(5):
        domain = list("abcd"[:n])
        pool = list(itertools.combinations(domain, 2))
        for k in range(4):
            codomain = list("abc"[:k])
            for picked in itertools.product((False, True), repeat=len(pool)):
                ties = list(itertools.compress(pool, picked))
                for images in itertools.product((None, *codomain), repeat=n):
                    forced = {v: w for v, w in zip(domain, images) if w is not None}
                    maps = list(oracle._surjections(domain, codomain, ties, forced))
                    expected = reference_surjections(domain, codomain, ties, forced)
                    assert _maps_in_order(maps) == _maps_in_order(expected), (
                        domain, codomain, ties, forced
                    )
                    calls += 1
                    empty += not maps
    assert (calls, empty) == (23530, 20655)
    # two forced points that differ conflict through a chain of ties
    chain = [("a", "b"), ("b", "c")]
    forced = {"a": "a", "c": "b"}
    assert list(oracle._surjections(["a", "b", "c"], ["a", "b"], chain, forced)) == []
    assert list(oracle._surjections(["a", "b", "c"], ["a", "b"], chain[:1], forced)) == [
        {"a": "a", "b": "a", "c": "b"}
    ]


def test_pictures_and_covers_are_built_once_per_graph(LOOP):
    picture = phi1_graph(C2)
    assert phi1_graph(C2) is picture
    assert oracle._covers(picture) is oracle._covers(picture)
    assert oracle._covers(picture) == tuple(covers_from(picture))
    assert len(oracle._covers(phi1_graph(LOOP))) == 1


def test_refinements_need_valid_graphs_without_isolated_edges(LOOP):
    src = phi1_graph(LOOP)
    broken = JKGraph(src.arcs, src.flags, src.vertices, src.involution, src.embed, {})
    assert enumerate_refinements(broken, src) == enumerate_refinements(src, broken) == []
    with_edge = graph_sum([src, unit_graph()])
    assert enumerate_refinements(with_edge, with_edge) == []
    assert enumerate_refinements(src, src)


@settings(max_examples=150, deadline=None)
@given(SMALL_BM_GRAPHS, SMALL_BM_GRAPHS)
def test_constructed_refinements_are_valid_and_match_the_filter(tau, rho):
    r = phi1_graph(rho)
    for g in (tau, rho):
        for cover in covers_from(phi1_graph(g)):
            built = enumerate_refinements(r, cover.target)
            assert all(validate_refinement(ref).ok for ref in built)
            assert _refinements_in_order(built) == _refinements_in_order(
                filtered_refinements(r, cover.target)
            )


# -- the searches leave no cycle behind -----------------------------------------------

@pytest.mark.parametrize(
    "search, picture",
    [(enumerate_bm_morphisms, False), (enumerate_refinements, True), (find_isomorphisms, True)],
)
def test_a_graph_dropped_after_a_search_is_freed_at_once(search, picture):
    # with the collector off, reference counting alone frees the graph
    # and its results, and no cyclic garbage is left to collect
    gc.collect()
    gc.disable()
    try:
        g = phi1_graph(make_bm_loop()) if picture else make_bm_loop()
        alive = weakref.ref(g)
        assert search(g, g)
        del g
        assert alive() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
