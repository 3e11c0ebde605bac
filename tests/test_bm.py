import dataclasses
import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings

import grafcat.bm
from conftest import bm_graphs, make_bm_edge, make_bm_loop, make_bm_two_corollas
from test_kleisli import in_order as fields_in_order
from grafcat.bm import (
    BMGraph,
    BMMorphism,
    bm_corolla,
    bm_edges,
    bm_identity,
    bm_point,
    bm_tails,
    classify_bm,
    commute_bm,
    compose_bm,
    contracted_pairs,
    factorise_bm,
    find_bm_isomorphisms,
    ghost_graph,
    is_bm_isomorphic,
    validate_bm_graph,
    validate_bm_morphism,
)
from grafcat.cospan_equiv import phi1_graph
from grafcat.etale import EtaleMorphism, compose_etale, identity_cover, reduced_covers_of
from grafcat.graph_core import corolla, flag_isomorphisms, flags_by_vertex, is_effective
from grafcat.kleisli import Refinement, compose_refinements, identity_refinement
from grafcat.oracle import (
    covers_from,
    enumerate_bm_graphs,
    enumerate_bm_morphisms,
    enumerate_refinements,
)


# -- graphs --------------------------------------------------------------------

def test_graph_validation(LOOP, E2):
    for g in (LOOP, E2, bm_point(), bm_corolla(2)):
        assert validate_bm_graph(g).ok
    bad = BMGraph({"v"}, {"f"}, {"f": "w"}, {"f": "f"})
    assert not validate_bm_graph(bad).ok


def test_tails_and_edges(LOOP, E2):
    assert bm_tails(bm_corolla(2)) == {"1", "2"}
    assert bm_tails(LOOP) == set()
    assert bm_edges(LOOP) == {frozenset({"f1", "f2"})}
    assert bm_edges(E2) == {frozenset({"e1", "e2"})}


# -- morphism classification ------------------------------------------------------

def test_identity_is_everything(LOOP):
    c = classify_bm(bm_identity(LOOP))
    assert c.is_isomorphism and c.is_grafting and c.is_compression
    assert c.is_contraction and c.is_merger


def test_grafting_loop(LOOP):
    graft = BMMorphism(bm_corolla(2), LOOP, {"f1": "1", "f2": "2"}, {"v": "v"}, {})
    assert validate_bm_morphism(graft).ok
    c = classify_bm(graft)
    assert c.is_grafting and not c.is_compression and not c.is_isomorphism


def test_contraction_of_loop(LOOP):
    contract = BMMorphism(LOOP, bm_point(), {}, {"v": "v"}, {"f1": "f2", "f2": "f1"})
    assert validate_bm_morphism(contract).ok
    c = classify_bm(contract)
    assert c.is_compression and c.is_contraction
    assert not c.is_merger and not c.is_grafting
    assert contracted_pairs(contract) == {frozenset({"f1", "f2"})}


def test_merger_of_points():
    pp = BMGraph({"u", "w"}, set(), {}, {})
    merge = BMMorphism(pp, bm_point(), {}, {"u": "v", "w": "v"}, {})
    assert validate_bm_morphism(merge).ok
    c = classify_bm(merge)
    assert c.is_merger and c.is_compression
    assert not c.is_contraction and not c.is_grafting


def test_edge_contraction(E2):
    m = BMMorphism(E2, bm_point(), {}, {"u": "v", "w": "v"}, {"e1": "e2", "e2": "e1"})
    assert validate_bm_morphism(m).ok
    assert classify_bm(m).is_contraction


# -- validation clauses -------------------------------------------------------------

def test_virtual_must_match_actual_pairing():
    four = BMGraph(
        {"v"}, {"a", "b", "c", "d"},
        {f: "v" for f in "abcd"},
        {"a": "b", "b": "a", "c": "d", "d": "c"},
    )
    bad = BMMorphism(four, bm_point(), {}, {"v": "v"},
                     {"a": "c", "c": "a", "b": "d", "d": "b"})
    rep = validate_bm_morphism(bad)
    assert not rep.ok
    assert any("virtual-matches-actual" in p for p in rep.problems)


def test_image_must_be_edge_closed(LOOP):
    bad = BMMorphism(LOOP, bm_corolla(1), {"1": "f1"}, {"v": "v"}, {"f2": "f2"})
    rep = validate_bm_morphism(bad)
    assert not rep.ok
    assert any("image-closed" in p for p in rep.problems)


def test_virtual_must_be_fixpoint_free(LOOP):
    bad = BMMorphism(LOOP, bm_point(), {}, {"v": "v"}, {"f1": "f1", "f2": "f2"})
    assert not validate_bm_morphism(bad).ok


def test_flag_map_must_be_injective(E2):
    bad = BMMorphism(E2, bm_corolla(2), {"1": "e1", "2": "e1"}, {"u": "v", "w": "v"}, {})
    assert not validate_bm_morphism(bad).ok


# two vertices joined by the edge a-b, a tail at each; and its contraction
# onto the two-tailed corolla, which pairs a with b virtually
TAU = BMGraph(
    {"u", "w"}, set("abcd"), dict(a="u", b="w", c="u", d="w"), dict(a="b", b="a", c="c", d="d")
)
SHRINK = BMMorphism(
    TAU, bm_corolla(2), {"1": "c", "2": "d"}, {"u": "v", "w": "v"}, {"a": "b", "b": "a"}
)
TWO_POINT_C2 = BMGraph({"v", "x"}, {"1", "2"}, {"1": "v", "2": "v"}, {"1": "1", "2": "2"})
SPLIT_C2 = BMGraph({"v", "x"}, {"1", "2"}, {"1": "v", "2": "x"}, {"1": "1", "2": "2"})


@pytest.mark.parametrize(
    "field, value, problems",
    [
        ("boundary", dict(a="u", b="w", c="u"), (
            "boundary-domain: boundary must be defined on exactly the flags",)),
        ("boundary", dict(a="u", b="w", c="u", d="x"), (
            "boundary-image: boundary of 'd' is not a vertex",)),
        ("involution", dict(a="b", b="a", c="c"), (
            "involution-domain: involution must be defined on exactly the flags",)),
        ("involution", dict(a="b", b="a", c="c", d="z"), (
            "involution-image: j('d') = 'z' is not a flag",)),
        ("involution", dict(a="b", b="a", c="a", d="d"), ("involution: j(j('c')) != 'c'",)),
    ],
)
def test_each_graph_clause_is_reported(field, value, problems):
    assert validate_bm_graph(TAU).ok
    assert validate_bm_graph(dataclasses.replace(TAU, **{field: value})).problems == problems


@pytest.mark.parametrize(
    "change, problems",
    [
        (dict(source=dataclasses.replace(TAU, involution=dict(a="b", b="a", c="c"))), (
            "source-invalid: involution-domain: involution must be defined on exactly the flags",)),
        (dict(target=dataclasses.replace(bm_corolla(2), boundary={"1": "v"})), (
            "target-invalid: boundary-domain: boundary must be defined on exactly the flags",)),
        (dict(flag_map={"1": "c"}), (
            "flag-map: not a total map from target flags to source flags",)),
        (dict(flag_map={"1": "c", "2": "z"}), (
            "flag-map: not a total map from target flags to source flags",)),
        (dict(vertex_map={"u": "v"}), (
            "vertex-map: not a total map from source vertices to target vertices",)),
        (dict(vertex_map={"u": "v", "w": "x"}), (
            "vertex-map: not a total map from source vertices to target vertices",)),
        (dict(flag_map={"1": "c", "2": "c"}), (
            "flag-injective: flag map identifies two target flags",
            "virtual-involution: must be defined on exactly the flags outside the image")),
        (dict(target=TWO_POINT_C2), (
            "vertex-surjective: some target vertex has empty fibre",)),
        (dict(virtual_involution={"a": "b", "b": "a", "c": "d"}), (
            "virtual-involution: must be defined on exactly the flags outside the image",)),
        (dict(virtual_involution={"a": "b", "b": "c"}), (
            "virtual-involution: not an involution of the complement at 'a'",
            "virtual-involution: not an involution of the complement at 'b'")),
        (dict(virtual_involution={"a": "a", "b": "b"}), (
            "virtual-involution: fixes 'a'", "virtual-involution: fixes 'b'")),
        (dict(target=SPLIT_C2, vertex_map={"u": "v", "w": "x"}), (
            "contracted-ends: contracted pair ('a', 'b') straddles two target vertices",)),
    ],
)
def test_each_morphism_clause_is_reported(change, problems):
    assert validate_bm_morphism(SHRINK).ok
    assert validate_bm_morphism(SHRINK._replace(**change)).problems == problems


@pytest.mark.parametrize(
    "first, second, message",
    [
        ("graft", "contract", "first morphism must be a compression"),
        ("identity", "contract", "second morphism must be a grafting"),
    ],
)
def test_commute_bm_takes_a_compression_then_a_grafting(LOOP, first, second, message):
    parts = {
        "graft": BMMorphism(bm_corolla(2), LOOP, {"f1": "1", "f2": "2"}, {"v": "v"}, {}),
        "identity": bm_identity(LOOP),
        "contract": BMMorphism(LOOP, bm_point(), {}, {"v": "v"}, {"f1": "f2", "f2": "f1"}),
    }
    with pytest.raises(ValueError) as exc:
        commute_bm(parts[first], parts[second])
    assert str(exc.value) == message


# -- composition ---------------------------------------------------------------------

def test_unit_laws(LOOP):
    graft = BMMorphism(bm_corolla(2), LOOP, {"f1": "1", "f2": "2"}, {"v": "v"}, {})
    assert compose_bm(bm_identity(bm_corolla(2)), graft) == graft
    assert compose_bm(graft, bm_identity(LOOP)) == graft


def test_composite_carries_virtual_edge(LOOP):
    graft = BMMorphism(bm_corolla(2), LOOP, {"f1": "1", "f2": "2"}, {"v": "v"}, {})
    contract = BMMorphism(LOOP, bm_point(), {}, {"v": "v"}, {"f1": "f2", "f2": "f1"})
    comp = compose_bm(graft, contract)
    assert validate_bm_morphism(comp).ok
    assert comp.virtual_involution == {"1": "2", "2": "1"}
    assert comp.flag_map == {} and comp.vertex_map == {"v": "v"}


def test_associativity_on_chain(LOOP):
    graft = BMMorphism(bm_corolla(2), LOOP, {"f1": "1", "f2": "2"}, {"v": "v"}, {})
    contract = BMMorphism(LOOP, bm_point(), {}, {"v": "v"}, {"f1": "f2", "f2": "f1"})
    left = compose_bm(compose_bm(graft, contract), bm_identity(bm_point()))
    right = compose_bm(graft, compose_bm(contract, bm_identity(bm_point())))
    assert left == right


def test_non_composable_rejected(LOOP, E2):
    graft = BMMorphism(bm_corolla(2), LOOP, {"f1": "1", "f2": "2"}, {"v": "v"}, {})
    ident = bm_identity(E2)
    with pytest.raises(ValueError):
        compose_bm(graft, ident)


@pytest.mark.parametrize(
    "compose, identity, graph, other, message",
    [
        (compose_bm, bm_identity, make_bm_loop, make_bm_two_corollas,
         "morphisms are not composable: middle graphs differ"),
        (compose_refinements, identity_refinement, lambda: corolla(2), lambda: corolla(3),
         "refinements are not composable: middle graphs differ"),
        (compose_etale, identity_cover, lambda: corolla(2), lambda: corolla(3),
         "etale maps are not composable: middle graphs differ"),
    ],
    ids=["bm", "refinements", "etale"],
)
def test_composites_need_an_equal_middle_not_the_same_one(compose, identity, graph, other, message):
    g, twin = graph(), graph()
    assert g == twin and g is not twin
    composite = compose(identity(g), identity(twin))
    assert composite == identity(g)
    assert composite.source is g and composite.target is twin
    with pytest.raises(ValueError) as exc:
        compose(identity(g), identity(other()))
    assert str(exc.value) == message


# -- factorisation ---------------------------------------------------------------------

def test_factorise_composite(LOOP):
    graft = BMMorphism(bm_corolla(2), LOOP, {"f1": "1", "f2": "2"}, {"v": "v"}, {})
    contract = BMMorphism(LOOP, bm_point(), {}, {"v": "v"}, {"f1": "f2", "f2": "f1"})
    comp = compose_bm(graft, contract)
    mid, g1, c1 = factorise_bm(comp)
    assert validate_bm_graph(mid).ok
    assert is_bm_isomorphic(mid, LOOP)
    assert classify_bm(g1).is_grafting
    assert classify_bm(c1).is_compression
    assert compose_bm(g1, c1) == comp
    assert ghost_graph(comp) == mid


def test_factorise_pure_grafting(LOOP):
    graft = BMMorphism(bm_corolla(2), LOOP, {"f1": "1", "f2": "2"}, {"v": "v"}, {})
    mid, g2, c2 = factorise_bm(graft)
    assert is_bm_isomorphic(mid, LOOP)
    assert classify_bm(c2).is_isomorphism
    assert compose_bm(g2, c2) == graft


def test_commute_compression_past_grafting(LOOP):
    contract = BMMorphism(LOOP, bm_point(), {}, {"v": "v"}, {"f1": "f2", "f2": "f1"})
    mid, g3, c3 = commute_bm(contract, bm_identity(bm_point()))
    assert classify_bm(g3).is_grafting
    assert classify_bm(c3).is_compression
    assert compose_bm(g3, c3) == compose_bm(contract, bm_identity(bm_point()))


def test_factorise_all_morphisms_between_small_graphs(LOOP, E2, CC):
    graphs = [bm_point(), bm_corolla(1), bm_corolla(2), LOOP, E2, CC]
    seen = 0
    for tau in graphs:
        for rho in graphs:
            for h in enumerate_bm_morphisms(tau, rho):
                mid, g, c = factorise_bm(h)
                assert classify_bm(g).is_grafting
                assert classify_bm(c).is_compression
                assert compose_bm(g, c) == h
                seen += 1
    assert seen > 20


# -- the morphism value ---------------------------------------------------------------------

def test_morphism_copies_the_callers_maps(LOOP):
    maps = {"f1": "1", "f2": "2"}, {"v": "v"}, {}
    graft = BMMorphism(bm_corolla(2), LOOP, *maps)
    for d in maps:
        d["x"] = "y"
    assert (graft.flag_map, graft.vertex_map, graft.virtual_involution) == (
        {"f1": "1", "f2": "2"}, {"v": "v"}, {}
    )
    defaulted = BMMorphism(LOOP, LOOP, {}, {})
    assert defaulted.virtual_involution == {}
    assert defaulted.virtual_involution is not BMMorphism(LOOP, LOOP, {}, {}).virtual_involution


def test_morphism_fields_cannot_be_assigned(LOOP):
    m = bm_identity(LOOP)
    for name in ("source", "target", "flag_map", "vertex_map", "virtual_involution", "other"):
        with pytest.raises(AttributeError):
            setattr(m, name, {})
    assert m == bm_identity(LOOP)


def test_morphism_repr_names_every_field(LOOP):
    m = BMMorphism(LOOP, bm_point(), {}, {"v": "v"}, {"f1": "f2", "f2": "f1"})
    assert repr(m) == (
        f"BMMorphism(source={LOOP!r}, target={bm_point()!r}, flag_map={{}}, "
        "vertex_map={'v': 'v'}, virtual_involution={'f1': 'f2', 'f2': 'f1'})"
    )


def test_morphisms_compare_as_their_five_fields(LOOP):
    m = BMMorphism(LOOP, bm_point(), {}, {"v": "v"}, {"f1": "f2", "f2": "f1"})
    assert m == BMMorphism(make_bm_loop(), bm_point(), {}, {"v": "v"}, {"f2": "f1", "f1": "f2"})
    assert m != BMMorphism(LOOP, bm_point(), {}, {"v": "v"}, {})
    assert m == (LOOP, bm_point(), {}, {"v": "v"}, {"f1": "f2", "f2": "f1"})


# -- the builders against the copying constructor -------------------------------------------
#
# compose_bm, factorise_bm and find_bm_isomorphisms hand their fresh maps
# straight to the tuple; the references below build the same values
# through the public constructor, as the builders first did.  The
# composites of refinements and of etale maps are checked against their
# comprehension bodies, kept as they were before the three composites
# unpacked their factors and filled their maps by plain loops.

def reference_compose(m1, m2):
    flag_map = {x: m1.flag_map[m2.flag_map[x]] for x in m2.flag_map}
    vertex_map = {v: m2.vertex_map[m1.vertex_map[v]] for v in m1.vertex_map}
    virtual = dict(m1.virtual_involution)
    for f, t in m2.virtual_involution.items():
        virtual[m1.flag_map[f]] = m1.flag_map[t]
    return BMMorphism(m1.source, m2.target, flag_map, vertex_map, virtual)


def reference_compose_refinements(r1, r2):
    if r1.target != r2.source:
        raise ValueError("refinements are not composable: middle graphs differ")
    vertex_map = {v: r1.vertex_map[w] for v, w in r2.vertex_map.items()}
    flag_map = {g: r2.flag_map[h] for g, h in r1.flag_map.items()}
    arc_map = {a: r2.arc_map[b] for a, b in r1.arc_map.items()}
    return tuple.__new__(Refinement, (r1.source, r2.target, arc_map, vertex_map, flag_map))


def reference_compose_etale(m1, m2):
    if m1.target is not m2.source and m1.target != m2.source:
        raise ValueError("etale maps are not composable: middle graphs differ")
    arc_map = {a: m2.arc_map[b] for a, b in m1.arc_map.items()}
    flag_map = {h: m2.flag_map[k] for h, k in m1.flag_map.items()}
    vertex_map = {v: m2.vertex_map[w] for v, w in m1.vertex_map.items()}
    return tuple.__new__(EtaleMorphism, (m1.source, m2.target, arc_map, flag_map, vertex_map))


def reference_factorise(m):
    mid = ghost_graph(m)
    graft = BMMorphism(
        m.source, mid, {f: f for f in m.source.flags}, {v: v for v in m.source.vertices}, {}
    )
    compress = BMMorphism(mid, m.target, m.flag_map, m.vertex_map, m.virtual_involution)
    return mid, graft, compress


def reference_isomorphisms(g1, g2):
    if len(g1.vertices) != len(g2.vertices) or len(g1.flags) != len(g2.flags):
        return []
    return [
        BMMorphism(g1, g2, {x: f for f, x in fmap.items()}, vmap, {})
        for vmap, fmap in flag_isomorphisms(
            flags_by_vertex(g1.vertices, g1.boundary),
            g1.involution,
            flags_by_vertex(g2.vertices, g2.boundary),
            g2.involution,
        )
    ]


def in_order(m):
    """A morphism's fields, each map with its insertion order."""
    return (
        m.source, m.target, tuple(m.flag_map.items()), tuple(m.vertex_map.items()),
        tuple(m.virtual_involution.items()),
    )


@pytest.fixture(scope="module")
def hom_matrix():
    graphs = enumerate_bm_graphs(2, 4)
    return graphs, {
        (i, j): enumerate_bm_morphisms(a, b)
        for i, a in enumerate(graphs)
        for j, b in enumerate(graphs)
    }


def test_compose_matches_the_reference_on_every_composable_pair(hom_matrix):
    graphs, homs = hom_matrix
    n = len(graphs)
    pairs = 0
    for (i, j), firsts in homs.items():
        for k in range(n):
            for m2 in homs[(j, k)]:
                for m1 in firsts:
                    built = compose_bm(m1, m2)
                    assert type(built) is BMMorphism
                    assert in_order(built) == in_order(reference_compose(m1, m2))
                    assert built.source is m1.source and built.target is m2.target
                    pairs += 1
    assert pairs == 27521


@pytest.fixture(scope="module")
def picture_window():
    """The composable pairs of refinements between the effective (2,4)
    pictures, and of the reduced covers onto and out of them."""
    pictures = [g for g in map(phi1_graph, enumerate_bm_graphs(2, 4)) if is_effective(g)]
    refs = {(a, b): enumerate_refinements(A, B) for a, A in enumerate(pictures)
            for b, B in enumerate(pictures)}
    n = len(pictures)
    refinement_pairs = [
        (r1, r2)
        for (a, b), firsts in refs.items()
        for c in range(n)
        for r2 in refs[(b, c)]
        for r1 in firsts
    ]
    covers = [rc for g in pictures for rc in reduced_covers_of(g) + covers_from(g)]
    cover_pairs = [(c1, c2) for c1 in covers for c2 in covers if c1.target == c2.source]
    return refinement_pairs, cover_pairs


def test_refinement_and_etale_composites_match_their_references(picture_window):
    refinement_pairs, cover_pairs = picture_window
    for compose, reference, pairs, kind, count in (
        (compose_refinements, reference_compose_refinements, refinement_pairs, Refinement, 5776),
        (compose_etale, reference_compose_etale, cover_pairs, EtaleMorphism, 346),
    ):
        assert len(pairs) == count
        for m1, m2 in pairs:
            built = compose(m1, m2)
            assert type(built) is kind
            assert fields_in_order(built) == fields_in_order(reference(m1, m2))
            assert built.source is m1.source and built.target is m2.target


def owns_its_maps(composite, *factors):
    """No map of the composite is a map of one of its factors."""
    theirs = {id(f) for m in factors for f in m[2:]}
    return all(id(f) not in theirs for f in composite[2:])


def test_composites_own_their_maps(hom_matrix, picture_window):
    graphs, homs = hom_matrix
    n = len(graphs)
    bm_pairs = [
        (m1, m2)
        for (i, j), firsts in homs.items()
        for k in range(n)
        for m2 in homs[(j, k)]
        for m1 in firsts
    ]
    assert len(bm_pairs) == 27521
    # m2 without a virtual involution: the composite's is a copy of m1's
    assert sum(not m2.virtual_involution for _, m2 in bm_pairs) == 19052
    morphisms = [m for ms in homs.values() for m in ms]
    # identities whose maps every identity and grafting of the graph
    # share, and the two halves of each factorisation
    bm_pairs += [(bm_identity(m.source), m) for m in morphisms]
    bm_pairs += [(m, bm_identity(m.target)) for m in morphisms]
    bm_pairs += [factorise_bm(m)[1:] for m in morphisms]
    refinement_pairs, cover_pairs = picture_window
    refinement_pairs = refinement_pairs + [
        pair
        for r in {id(r): r for pair in refinement_pairs for r in pair}.values()
        for pair in ((identity_refinement(r.source), r), (r, identity_refinement(r.target)))
    ]
    cover_pairs = cover_pairs + [
        pair
        for c in {id(c): c for pair in cover_pairs for c in pair}.values()
        for pair in ((identity_cover(c.source), c), (c, identity_cover(c.target)))
    ]
    for compose, pairs in (
        (compose_bm, bm_pairs),
        (compose_refinements, refinement_pairs),
        (compose_etale, cover_pairs),
    ):
        for m1, m2 in pairs:
            assert owns_its_maps(compose(m1, m2), m1, m2)


def test_factorise_and_identities_match_the_reference_on_the_window(hom_matrix):
    graphs, homs = hom_matrix
    morphisms = [m for ms in homs.values() for m in ms]
    assert len(morphisms) == 993
    for m in morphisms:
        mid, graft, compress = factorise_bm(m)
        ref_mid, ref_graft, ref_compress = reference_factorise(m)
        assert mid == ref_mid and graft.target is mid is compress.source
        assert in_order(graft) == in_order(ref_graft)
        assert in_order(compress) == in_order(ref_compress)
        assert type(graft) is type(compress) is BMMorphism
    for g in graphs:
        assert in_order(bm_identity(g)) == in_order(
            BMMorphism(g, g, {f: f for f in g.flags}, {v: v for v in g.vertices})
        )


def test_isomorphisms_match_the_reference_on_every_pair(hom_matrix):
    graphs, _ = hom_matrix
    total = 0
    for g1 in graphs:
        for g2 in graphs:
            found = find_bm_isomorphisms(g1, g2)
            assert [in_order(m) for m in found] == [
                in_order(m) for m in reference_isomorphisms(g1, g2)
            ]
            total += len(found)
    assert (len(graphs) ** 2, total) == (1089, 149)


# -- isomorphisms -------------------------------------------------------------------------

def test_automorphism_counts(LOOP, E2):
    assert len(find_bm_isomorphisms(bm_corolla(2), bm_corolla(2))) == 2
    assert len(find_bm_isomorphisms(LOOP, LOOP)) == 2
    assert len(find_bm_isomorphisms(E2, E2)) == 2
    assert len(find_bm_isomorphisms(bm_point(), bm_point())) == 1
    assert find_bm_isomorphisms(bm_corolla(2), LOOP) == []
    assert not is_bm_isomorphic(bm_corolla(2), LOOP)


def equal_copy(g):
    return BMGraph(g.vertices, g.flags, g.boundary, g.involution)


@pytest.mark.parametrize("window", [(2, 5), (3, 4)])
def test_memoised_automorphisms_match_the_search(window):
    for g in enumerate_bm_graphs(*window):
        first = find_bm_isomorphisms(g, g)
        assert [in_order(m) for m in first] == [in_order(m) for m in reference_isomorphisms(g, g)]
        twin = equal_copy(g)
        across = find_bm_isomorphisms(g, twin)
        assert all(m.source is g and m.target is twin for m in across)
        assert [(g, g) + in_order(m)[2:] for m in across] == [in_order(m) for m in first]
        again = find_bm_isomorphisms(g, g)
        assert again is not first
        assert again == first
        first.clear()
        assert [in_order(m) for m in find_bm_isomorphisms(g, g)] == [in_order(m) for m in again]


def test_automorphisms_are_searched_once_per_graph(monkeypatch):
    searches = []

    def counted(*args):
        searches.append(args)
        return flag_isomorphisms(*args)

    monkeypatch.setattr(grafcat.bm, "flag_isomorphisms", counted)
    g = make_bm_two_corollas()
    for _ in range(50):
        assert len(find_bm_isomorphisms(g, g)) == 2
    assert len(searches) == 1
    twin = equal_copy(g)
    assert len(find_bm_isomorphisms(twin, twin)) == 2
    assert len(searches) == 2
    assert len(find_bm_isomorphisms(g, twin)) == 2
    assert len(searches) == 3


def test_a_graph_whose_automorphisms_were_asked_for_is_freed_at_once():
    # the memo holds maps, not morphisms, so nothing on the graph points
    # back at it and reference counting frees it; the collector is off
    # so that a cycle would keep it alive
    gc.disable()
    try:
        g = bm_corolla(3)
        alive = weakref.ref(g)
        assert len(find_bm_isomorphisms(g, g)) == 6
        del g
        assert alive() is None
    finally:
        gc.enable()


def test_a_source_whose_morphisms_were_factorised_is_freed_at_once(LOOP):
    # the ghosts memoised on the source hold no reference to it, and the
    # enumerator leaves no cycle, so reference counting frees it; the
    # collector is off so that a cycle would keep it alive
    gc.disable()
    try:
        g = make_bm_two_corollas()
        alive = weakref.ref(g)
        morphisms = [m for h in (g, LOOP, bm_point()) for m in enumerate_bm_morphisms(g, h)]
        assert len(morphisms) == 5
        parts = [factorise_bm(m) for m in morphisms] + [bm_identity(g)]
        del g, morphisms, parts
        assert alive() is None
    finally:
        gc.enable()


def product_isomorphisms(g1: BMGraph, g2: BMGraph) -> set:
    """Reference search: every vertex bijection with matching
    (valence, tails, loops) signatures, times every product of per-vertex
    flag permutations, filtered by the involution.  Returns the set of
    (flag_map, vertex_map) pairs, flag maps from g2 to g1."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.flags) != len(g2.flags):
        return set()

    def flags_at(g, v):
        return sorted(f for f in g.flags if g.boundary[f] == v)

    def signature(g, v):
        fs = flags_at(g, v)
        tails = sum(1 for f in fs if g.involution[f] == f)
        loops = sum(1 for f in fs if g.involution[f] != f and g.boundary[g.involution[f]] == v)
        return (len(fs), tails, loops)

    sig1 = {v: signature(g1, v) for v in g1.vertices}
    sig2 = {v: signature(g2, v) for v in g2.vertices}
    vs1 = sorted(g1.vertices)
    found = set()
    for ws in itertools.permutations(sorted(g2.vertices)):
        if any(sig1[v] != sig2[w] for v, w in zip(vs1, ws)):
            continue
        vmap = dict(zip(vs1, ws))
        per_vertex = [
            [list(zip(flags_at(g1, v), perm)) for perm in itertools.permutations(flags_at(g2, vmap[v]))]
            for v in vs1
        ]
        for choice in itertools.product(*per_vertex):
            fmap = {f: x for pairs in choice for f, x in pairs}
            if all(fmap[g1.involution[f]] == g2.involution[fmap[f]] for f in fmap):
                found.add((frozenset((x, f) for f, x in fmap.items()), frozenset(vmap.items())))
    return found


def iso_set(g1: BMGraph, g2: BMGraph) -> set:
    found = find_bm_isomorphisms(g1, g2)
    keys = {(frozenset(m.flag_map.items()), frozenset(m.vertex_map.items())) for m in found}
    assert len(keys) == len(found)
    return keys


def test_flag_search_matches_the_product_search_on_a_window():
    graphs = enumerate_bm_graphs(2, 5)
    total = 0
    for g1 in graphs:
        for g2 in graphs:
            found = iso_set(g1, g2)
            assert found == product_isomorphisms(g1, g2)
            total += len(found)
    assert (len(graphs) ** 2, total) == (2601, 511)


def test_flag_search_matches_the_product_search_on_renamed_copies():
    for g in enumerate_bm_graphs(2, 5):
        fr = {f: "F" + f for f in g.flags}
        vr = {v: "V" + v for v in g.vertices}
        h = BMGraph(
            set(vr.values()),
            set(fr.values()),
            {fr[f]: vr[v] for f, v in g.boundary.items()},
            {fr[f]: fr[t] for f, t in g.involution.items()},
        )
        found = iso_set(g, h)
        assert found and found == product_isomorphisms(g, h)


def test_isomorphisms_validate(E2):
    for iso in find_bm_isomorphisms(E2, E2):
        assert validate_bm_morphism(iso).ok
        assert classify_bm(iso).is_isomorphism


# -- properties ----------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(bm_graphs(max_vertices=2, max_valence=3))
def test_random_bm_graphs_validate(g):
    assert validate_bm_graph(g).ok


@settings(max_examples=30, deadline=None)
@given(bm_graphs(max_vertices=2, max_valence=2))
def test_identity_factorises_trivially(g):
    mid, graft, compress = factorise_bm(bm_identity(g))
    assert is_bm_isomorphic(mid, g)
    assert compose_bm(graft, compress) == bm_identity(g)


@settings(max_examples=25, deadline=None)
@given(bm_graphs(max_vertices=2, max_valence=2))
def test_random_factorisation(g):
    targets = [bm_point(), make_bm_loop(), make_bm_edge(), make_bm_two_corollas()]
    for rho in targets:
        for h in enumerate_bm_morphisms(g, rho):
            mid, graft, compress = factorise_bm(h)
            assert classify_bm(graft).is_grafting
            assert classify_bm(compress).is_compression
            assert compose_bm(graft, compress) == h
