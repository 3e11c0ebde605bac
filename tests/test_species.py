import dataclasses
import itertools

import pytest

from conftest import operations_of_arity, pinned_decorated_isomorphic
from grafcat.graph_core import (
    JKGraph,
    corolla,
    find_isomorphisms,
    flag_view,
    involutions,
    is_connected,
    local_interface,
    ports,
    relabel,
    validate_graph,
)
from grafcat.kleisli import _refine_with_cover, compose_refinements
from grafcat.species import (
    Decoration,
    VertexLabel,
    GraphicalSpecies,
    act,
    canonical_label,
    decorated_isomorphic,
    evaluate_species,
    graphs_with_ports,
    monad_mult_element,
    monad_unit,
    operation_profile,
    transport_decoration,
    truncated_free,
    validate_decoration,
    validate_species,
)

# free species: directed graphs with one binary-multiplication generator
SP = GraphicalSpecies(
    colours=frozenset({"in", "out"}),
    colour_involution={"in": "out", "out": "in"},
    operations={"m": ("in", "in", "out")},
)
# adds a unary generator: the second species of the monad-law sweep
SP2 = GraphicalSpecies(
    colours=frozenset({"in", "out"}),
    colour_involution={"in": "out", "out": "in"},
    operations={"b": ("in", "out"), "m": ("in", "in", "out")},
)


def _coset_name(q):
    swapped = tuple({0: 1, 1: 0}.get(v, v) for v in q)
    rep = min(q, swapped)
    return "c" if q[2] == 2 else "c" + "".join(str(i) for i in rep)


def make_commutative_species():
    # commutative multiplication: operations are cosets of the slot swap
    ops = {}
    for q in itertools.permutations(range(3)):
        ops[_coset_name(q)] = tuple(("in", "in", "out")[q[i]] for i in range(3))
    action = {}
    for name in ops:
        base_q = (0, 1, 2) if name == "c" else tuple(int(ch) for ch in name[1:])
        for p in itertools.permutations(range(3)):
            q = tuple(base_q[p[i]] for i in range(3))
            action[(name, p)] = _coset_name(q)
    return GraphicalSpecies(
        frozenset({"in", "out"}), {"in": "out", "out": "in"}, ops, action
    )


CSP = make_commutative_species()


# -- species validation -----------------------------------------------------------

def test_species_validate():
    assert validate_species(SP).ok
    assert validate_species(CSP).ok


def test_bad_profile_colour_rejected():
    bad = GraphicalSpecies(frozenset({"in"}), {"in": "in"}, {"m": ("in", "up")})
    assert not validate_species(bad).ok


def test_broken_action_table_rejected():
    # arbitrary-representative naming breaks composition of the action
    ops = dict(CSP.operations)
    action = dict(CSP.action)
    some_key = next(k for k, v in action.items() if k[1] != (0, 1, 2) and v != k[0])
    action[some_key] = some_key[0]
    assert not validate_species(
        GraphicalSpecies(CSP.colours, dict(CSP.colour_involution), ops, action)
    ).ok


def test_action_entries_for_unknown_operations_rejected():
    # a full table for b, plus one entry for an operation not in the species
    action = {("b", (0, 1)): "b", ("b", (1, 0)): "b", ("zzz", (0,)): "nope"}
    sp = GraphicalSpecies(frozenset({"in"}), {"in": "in"}, {"b": ("in", "in")}, action)
    assert validate_species(sp).problems == (
        "action: entry for unknown operation 'zzz' under (0,)",
    )
    del action[("zzz", (0,))]
    assert validate_species(
        GraphicalSpecies(frozenset({"in"}), {"in": "in"}, {"b": ("in", "in")}, action)
    ).ok


def test_action_keys_that_are_not_permutations_rejected():
    # a key of the right length must still permute the slots
    table = {("b", (0, 1)): "b", ("b", (1, 0)): "b"}
    for p in ((0, 0), (1, 1)):
        action = {**table, ("b", p): "b"}
        sp = GraphicalSpecies(frozenset({"in"}), {"in": "in"}, {"b": ("in", "in")}, action)
        assert validate_species(sp).problems == (
            f"action: {p} does not permute the 2 slots of 'b'",
        )
    assert validate_species(
        GraphicalSpecies(frozenset({"in"}), {"in": "in"}, {"b": ("in", "in")}, table)
    ).ok


# two binary operations on one colour; every permutation sends both to d
BD = GraphicalSpecies(
    frozenset({"in"}), {"in": "in"}, {"b": ("in", "in"), "d": ("in", "in")},
    {(n, p): "d" for n in "bd" for p in itertools.permutations(range(2))},
)


@pytest.mark.parametrize(
    "species, problems",
    [
        (dataclasses.replace(SP, colour_involution={"in": "in", "out": "in"}), (
            "colour-involution: not an involution at 'out'",)),
        (dataclasses.replace(SP, colour_involution={"in": "out", "out": "in", "x": "x"}), (
            "colour-involution: must be defined on exactly the colours",)),
        (dataclasses.replace(SP, operations={"m": ("in", "in", "up")}), (
            "profile: operation 'm' uses unknown colours",)),
        (dataclasses.replace(SP, operations={"m@2,1,3": ("in", "in", "out")}), (
            "operation-name: generator 'm@2,1,3' may not contain '@'",)),
        # d is fixed by the identity and composes as an action should; b is not fixed
        (BD, ("action: identity permutation must fix 'b'",)),
    ],
)
def test_each_species_clause_is_reported(species, problems):
    assert validate_species(SP).ok
    assert validate_species(species).problems == problems


# -- the symmetric-group action ------------------------------------------------------

def test_action_laws():
    for p in itertools.permutations(range(3)):
        assert operation_profile(SP, act(SP, "m", p)) == tuple(
            SP.operations["m"][p[i]] for i in range(3)
        )
        for q in itertools.permutations(range(3)):
            pq = tuple(p[q[i]] for i in range(3))
            assert act(SP, act(SP, "m", p), q) == act(SP, "m", pq)
    assert act(SP, "m", (0, 1, 2)) == "m"


def test_arity_counts():
    assert len(operations_of_arity(SP, 3)) == 6
    assert operations_of_arity(SP, 2) == {}
    assert len(operations_of_arity(CSP, 3)) == 3


def test_canonical_label_is_orbit_invariant():
    arcs = ("a", "b", "c")
    base = canonical_label(SP, "m", arcs)
    for p in itertools.permutations(range(3)):
        moved = canonical_label(
            SP, act(SP, "m", p), tuple(arcs[p[i]] for i in range(3))
        )
        assert moved == base


def orbit_least_label(sp, operation, arcs):
    """canonical_label as the minimum over every slot permutation."""
    n = len(arcs)
    return VertexLabel(
        *min(
            (act(sp, operation, p), tuple(arcs[p[i]] for i in range(n)))
            for p in itertools.permutations(range(n))
        )
    )


def label_outcome(f, sp, operation, arcs):
    """The label, or the type of the exception raised instead."""
    try:
        return f(sp, operation, arcs)
    except Exception as exc:
        return type(exc)


def test_free_label_closed_form_matches_the_orbit_minimum():
    checked = 0
    for sp in (SP, SP2):
        for gen, profile in sp.operations.items():
            n = len(profile)
            names = [gen] + [
                f"{gen}@{','.join(str(i + 1) for i in p)}"  # identity tails too
                for p in itertools.permutations(range(n))
            ]
            for name in names:
                for arcs in itertools.permutations("xyz"[:n]):
                    assert canonical_label(sp, name, arcs) == orbit_least_label(sp, name, arcs)
                    checked += 1
    assert checked == 42 + 6 + 42


def test_explicit_action_labels_keep_the_orbit_minimum():
    # the species of the command-line documents: a symmetric binary
    # operation, whose swap is a stabiliser
    symmetric = GraphicalSpecies(
        frozenset({"c"}), {"c": "c"}, {"m": ("c", "c")},
        {("m", (0, 1)): "m", ("m", (1, 0)): "m"},
    )
    for sp in (symmetric, CSP):
        for name, profile in sp.operations.items():
            for arcs in itertools.permutations("xyz"[: len(profile)]):
                assert canonical_label(sp, name, arcs) == orbit_least_label(sp, name, arcs)
    assert canonical_label(symmetric, "m", ("y", "x")) == VertexLabel("m", ("x", "y"))


@pytest.mark.parametrize(
    "name",
    ["m@1,1,2", "m@2,3", "m@1,2,3,4", "m@0,1,2", "m@2,3,4", "m@a,b,c", "m@", "m@1,2,3,", "m@3,1,2@1"],
)
def test_malformed_free_tails_behave_as_the_orbit_minimum(name):
    for n in range(5):
        arcs = tuple("wxyz"[:n])
        assert label_outcome(canonical_label, SP, name, arcs) == label_outcome(
            orbit_least_label, SP, name, arcs
        )


# -- decorations ----------------------------------------------------------------------

def test_corolla_evaluation_counts():
    c3 = corolla(3)
    decs = evaluate_species(SP, c3)
    assert len(decs) == 6
    for dec in decs:
        assert validate_decoration(SP, c3, dec).ok
    assert len(evaluate_species(CSP, c3)) == 3


def test_decorated_iso_vs_port_fixing():
    c3 = corolla(3)
    col = {"1": "in", "1*": "out", "2": "in", "2*": "out", "3": "out", "3*": "in"}
    d1 = Decoration(col, {"v": canonical_label(SP, "m", ("1", "2", "3"))})
    d2 = Decoration(dict(col), {"v": canonical_label(SP, "m", ("2", "1", "3"))})
    assert validate_decoration(SP, c3, d1).ok
    assert validate_decoration(SP, c3, d2).ok
    assert d1 != d2
    assert decorated_isomorphic(SP, c3, d1, c3, d2)
    assert not pinned_decorated_isomorphic(SP, c3, d1, c3, d2)


def test_non_canonical_label_rejected():
    c3 = corolla(3)
    col = {"1": "in", "1*": "out", "2": "in", "2*": "out", "3": "out", "3*": "in"}
    lab = canonical_label(SP, "m", ("1", "2", "3"))
    twisted = type(lab)(act(SP, lab.operation, (1, 0, 2)), lab.arcs_by_slot)
    if twisted != lab:
        assert not validate_decoration(SP, c3, Decoration(col, {"v": twisted})).ok


@pytest.mark.parametrize("name", ["m@x", "m@", "m@5,1,2", "m@3,3,3", "m@1,2", "m@1,2,3,4", "n@1,2,3"])
def test_names_that_are_not_operations_are_reported(name):
    # every incoming arc coloured out, which the profile of m@3,3,3
    # would match if it were read as an operation
    c3 = corolla(3)
    col = {a: "in" if a.endswith("*") else "out" for a in c3.arcs}
    dec = Decoration(col, {"v": VertexLabel(name, ("1", "2", "3"))})
    assert validate_decoration(SP, c3, dec).problems == ("label: unknown operation at 'v'",)
    for f in (operation_profile, lambda sp, m: act(sp, m, (1, 0, 2))):
        with pytest.raises(KeyError):
            f(SP, name)
    with pytest.raises(KeyError):
        canonical_label(SP, name, ("1", "2", "3"))


@pytest.mark.parametrize(
    "call",
    [
        lambda: act(SP, "zz", (1, 0)),
        lambda: act(SP, "m", (1, 0)),
        lambda: act(SP, "m@2,1,3", (1, 0)),
        lambda: act(SP, "m", (0, 0, 1)),
        lambda: canonical_label(SP, "zz", ("x", "y")),
        lambda: canonical_label(SP, "m", ("x", "y")),
        lambda: canonical_label(SP, "m@2,1,3", ("x", "y")),
        lambda: canonical_label(SP, "m", ("w", "x", "y", "z")),
    ],
)
def test_free_species_calls_that_name_no_operation_raise(call):
    # a free species' operations are its generators, each relabelled only
    # by permutations of its own slots
    with pytest.raises(KeyError):
        call()


def test_transport_decoration_roundtrip():
    c3 = corolla(3)
    dec = evaluate_species(SP, c3)[0]
    moved = relabel(c3, {a: "x" + a for a in c3.arcs})
    for iso in find_isomorphisms(c3, moved):
        dec2 = transport_decoration(SP, dec, iso)
        assert validate_decoration(SP, moved, dec2).ok
        assert decorated_isomorphic(SP, c3, dec, moved, dec2)


# -- the unit -----------------------------------------------------------------------------

def test_monad_unit():
    g, dec = monad_unit(SP, "m")
    assert validate_graph(g).ok
    assert validate_decoration(SP, g, dec).ok
    assert [dec.arc_colouring[p] for p in ("1", "2", "3")] == ["in", "in", "out"]
    assert ports(g) == {"1", "2", "3"}


UNIT, UNIT_DEC = monad_unit(SP, "m")


@pytest.mark.parametrize(
    "change, problems",
    [
        (dict(arc_colouring={a: c for a, c in UNIT_DEC.arc_colouring.items() if a != "1"}), (
            "colouring-domain: colouring must be defined on exactly the arcs",)),
        (dict(arc_colouring={**UNIT_DEC.arc_colouring, "1": "up"}), (
            "colouring-image: unknown colour",)),
        (dict(arc_colouring={**UNIT_DEC.arc_colouring, "1": "out"}), (
            "colouring: edge of '1' is not colour-paired",
            "colouring: edge of '1*' is not colour-paired")),
        (dict(vertex_labels={}), ("labels-domain: one label per vertex required",)),
        (dict(vertex_labels={"v": VertexLabel("zz", ("1", "2", "3"))}), (
            "label: unknown operation at 'v'",)),
        (dict(vertex_labels={"v": VertexLabel("m", ("1", "2", "2"))}), (
            "label: slots at 'v' do not list the arcs pointing in",)),
        # the edges of 1 and 3 with their colours swapped: still paired
        (dict(arc_colouring={**UNIT_DEC.arc_colouring, "1": "out", "1*": "in", "3": "in",
                             "3*": "out"}),
         ("label: colours at 'v' do not match the profile",)),
        (dict(vertex_labels={"v": VertexLabel("m@2,1,3", ("2", "1", "3"))}), (
            "label: not in canonical form at 'v'",)),
    ],
)
def test_each_decoration_clause_is_reported(change, problems):
    assert UNIT == corolla(3) and UNIT_DEC.vertex_labels == {"v": VertexLabel("m", ("1", "2", "3"))}
    assert validate_decoration(SP, UNIT, UNIT_DEC).ok
    broken = dataclasses.replace(UNIT_DEC, **change)
    assert validate_decoration(SP, UNIT, broken).problems == problems


# -- truncated free algebra ----------------------------------------------------------------

def stub_graphs(allowed_valences, n_ports, n_vertices):
    """Reference enumerator: every matching of all stubs and ports with
    no port-port edge, kept when connected; raw, with duplicates."""
    port_names = [str(i) for i in range(1, n_ports + 1)]
    for valences in itertools.product(sorted(allowed_valences), repeat=n_vertices):
        if sum(valences) < n_ports or (sum(valences) - n_ports) % 2:
            continue
        flags = []
        incidence = {}
        for i, d in enumerate(valences, start=1):
            for j in range(1, d + 1):
                f = f"v{i}.{j}"
                flags.append(f)
                incidence[f] = f"v{i}"
        items = [f + "*" for f in flags] + port_names
        for involution in involutions(items, fixpoints=False):
            if any(involution[p] in port_names for p in port_names):
                continue  # a port-port edge would be isolated
            g = JKGraph(
                set(items),
                set(flags),
                {f"v{i}" for i in range(1, n_vertices + 1)},
                involution,
                {f: f + "*" for f in flags},
                incidence,
            )
            if is_connected(g):
                yield g


def port_bucket(g):
    """What every port-fixing isomorphism keeps: each vertex's valence
    and ports, in sorted order."""
    at, partner = flag_view(g)
    signature = (
        (len(flags), tuple(sorted(g.involution[g.embed[h]] for h in flags if partner[h] == h)))
        for flags in at.values()
    )
    return tuple(sorted(signature))


def port_fixing_classes(reps, allowed_valences, n_ports, max_vertices):
    """Reference: for each raw graph of stub_graphs, with the unit graph
    for two ports, the number of reps it is port-fixing isomorphic to,
    searched among the reps of its port_bucket."""
    unit = JKGraph({"1", "2"}, set(), set(), {"1": "2", "2": "1"}, {}, {})
    raw = [unit] if n_ports == 2 else []
    for n_v in range(1, max_vertices + 1):
        raw.extend(stub_graphs(allowed_valences, n_ports, n_v))
    buckets = {}
    for h in reps:
        buckets.setdefault(port_bucket(h), []).append(h)
    return [sum(port_fixing_isomorphic(g, h) for h in buckets.get(port_bucket(g), [])) for g in raw]


# the monad-law sweep's calls (outers, middle pools, SP2 truncations),
# then valences 0, 1 and 4, a repeated valence, no vertices and a wider
# window
ENUMERATOR_ARGS = [([2, 3], p, 3) for p in range(4)] + [
    ([2, 3], 2, 2),
    ([2, 3], 3, 2),
    ([2, 3], 1, 1),
    ([2, 3], 2, 1),
    ([2, 3], 3, 1),
    ([2, 3], 1, 2),
    ([3], 3, 1),
    ([3], 2, 2),
    ([1], 2, 2),
    ([0, 1, 2], 0, 2),
    ([4], 2, 2),
    ([3, 2, 3], 2, 2),
    ([2, 3], 4, 3),
]


@pytest.mark.parametrize("args", ENUMERATOR_ARGS, ids=str)
def test_multigraph_enumeration_matches_the_stub_matchings(args):
    allowed, n_ports, max_v = args
    gs = graphs_with_ports(allowed, n_ports, max_v)
    # every raw graph lies in exactly one class, and no two classes meet
    assert all(n == 1 for n in port_fixing_classes(gs, allowed, n_ports, max_v))
    for h1, h2 in itertools.combinations(gs, 2):
        assert port_bucket(h1) != port_bucket(h2) or not port_fixing_isomorphic(h1, h2)
    if n_ports == 2:
        assert not gs[0].vertices
    for g in gs:
        assert validate_graph(g).ok
        assert is_connected(g)
        assert ports(g) == {str(k) for k in range(1, n_ports + 1)}
        assert all(len(flags) in allowed for flags in flag_view(g)[0].values())
        assert len(g.vertices) <= max_v


def test_graphs_with_ports_rejects_negative_arguments():
    with pytest.raises(ValueError):
        graphs_with_ports([-1, 3], 2, 2)
    with pytest.raises(ValueError):
        graphs_with_ports([3], -1, 2)
    with pytest.raises(ValueError):
        graphs_with_ports([3, -2], 2, 0)


def test_graphs_with_ports_without_vertices():
    for max_v in (0, -1):
        (unit,) = graphs_with_ports([3], 2, max_v)
        assert not unit.vertices and ports(unit) == {"1", "2"}
        assert graphs_with_ports([3], 3, max_v) == []
        assert graphs_with_ports([2], 0, max_v) == []


def test_graphs_with_ports_shapes():
    gs = graphs_with_ports([3], 3, 1)
    assert len(gs) == 1 and len(gs[0].vertices) == 1
    gs2 = graphs_with_ports([3], 2, 2)
    for g in gs2:
        assert ports(g) == {"1", "2"}
        assert validate_graph(g).ok


def test_unit_graph_appears_at_two_ports():
    gs = graphs_with_ports([3], 2, 1)
    assert any(not g.vertices for g in gs)


def port_fixing_isomorphic(g1, g2) -> bool:
    """Reference: list every isomorphism, then look for one that fixes
    each port by name."""
    return any(
        all(iso.arc_map[p] == p for p in ports(g1)) for iso in find_isomorphisms(g1, g2)
    )


def test_port_fixing_key_matches_the_isomorphism_search():
    classes = {p: graphs_with_ports([2, 3], p, 3) for p in range(4)}
    assert [len(classes[p]) for p in range(4)] == [8, 9, 13, 17]
    comparisons = matches = 0
    for p, reps in classes.items():
        for n_v in range(1, 4):
            for g in stub_graphs([2, 3], p, n_v):
                same = [port_fixing_isomorphic(g, h) for h in reps]
                # every raw graph lies in exactly one class
                assert sum(same) == 1
                comparisons += len(same)
                matches += sum(same)
    assert (comparisons, matches) == (140141, 9333)


def pairwise_truncated_free(sp, n_ports, max_v):
    """Reference for truncated_free: list every decoration of every
    admissible graph and keep each one that no earlier kept decoration
    of its graph matches by port-fixing decorated isomorphism."""
    arities = sorted({len(p) for p in sp.operations.values()})
    reps = []
    for g in graphs_with_ports(arities, n_ports, max_v):
        kept = []
        for dec in evaluate_species(sp, g):
            if not any(pinned_decorated_isomorphic(sp, g, d0, g, dec) for d0 in kept):
                kept.append(dec)
        reps.extend((g, d) for d in kept)
    return reps


def test_truncated_free_counts_frozen():
    elems = truncated_free(SP, 2, 2)
    assert len(elems) == 10
    hist = {}
    for g, dec in elems:
        assert validate_graph(g).ok
        assert validate_decoration(SP, g, dec).ok
        hist[len(g.vertices)] = hist.get(len(g.vertices), 0) + 1
    assert hist == {0: 2, 2: 8}
    assert len(truncated_free(SP, 3, 1)) == 6
    assert len(truncated_free(SP, 1, 2)) == 2
    assert len(truncated_free(CSP, 3, 1)) == 3


def test_truncated_free_matches_flat_recount():
    # keying by automorphism orbit keeps the same elements, in the same
    # order, as the pairwise dedup; SP2 with the unit configs is the
    # monad-law sweep's second species (SP is its first)
    configs = [(sp, p, v) for sp in (SP, CSP) for p in range(4) for v in (1, 2)]
    configs += [(SP2, p, v) for p, v in [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)]]
    sizes = []
    for sp, n_ports, max_v in configs:
        elems = truncated_free(sp, n_ports, max_v)
        assert elems == pairwise_truncated_free(sp, n_ports, max_v), (n_ports, max_v)
        sizes.append(len(elems))
    # 42 elements over SP and CSP, 32 over SP2
    assert sum(sizes) == 74


def test_pruned_decorated_isomorphic_reads_labels_as_transport_does():
    # a label off its canonical form still matches its canonical twin
    c3 = corolla(3)
    dec = evaluate_species(SP, c3)[0]
    (v, label), = dec.vertex_labels.items()
    p = (1, 0, 2)
    moved = VertexLabel(act(SP, label.operation, p), tuple(label.arcs_by_slot[i] for i in p))
    assert moved != label
    raw = Decoration(dec.arc_colouring, {v: moved})
    assert decorated_isomorphic(SP, c3, raw, c3, dec)
    assert pinned_decorated_isomorphic(SP, c3, raw, c3, dec)


def test_truncated_free_has_no_duplicates():
    elems = truncated_free(SP, 2, 2)
    for i, (g1, d1) in enumerate(elems):
        for g2, d2 in elems[i + 1:]:
            assert not pinned_decorated_isomorphic(SP, g1, d1, g2, d2)


def test_a_port_leaves_each_decoration_one_port_fixing_symmetry():
    # the premise of deciding a pinned decorated isomorphism by forced
    # construction: with a port, only the identity among the port-fixing
    # automorphisms fixes a decoration; without one, more can
    fixed_by_one = {}
    for name, sp in (("SP", SP), ("SP2", SP2), ("CSP", CSP)):
        arities = sorted({len(p) for p in sp.operations.values()})
        for n_ports in range(4):
            counts = []
            for g in graphs_with_ports(arities, n_ports, 3):
                autos = [
                    iso for iso in find_isomorphisms(g, g)
                    if all(iso.arc_map[p] == p for p in ports(g))
                ]
                for dec in evaluate_species(sp, g):
                    counts.append(sum(transport_decoration(sp, dec, iso) == dec for iso in autos))
            fixed_by_one[name, n_ports] = (len(counts), counts.count(1))
    assert fixed_by_one == {
        ("SP", 0): (0, 0), ("SP", 1): (4, 4), ("SP", 2): (18, 18), ("SP", 3): (118, 118),
        ("SP2", 0): (6, 2), ("SP2", 1): (24, 24), ("SP2", 2): (80, 80), ("SP2", 3): (172, 172),
        ("CSP", 0): (0, 0), ("CSP", 1): (2, 2), ("CSP", 2): (6, 6), ("CSP", 3): (17, 17),
    }


# -- multiplication ---------------------------------------------------------------------------

def test_left_unit_law():
    # grafting an element into a bare corolla flattens to the element itself
    S, dec_S = truncated_free(SP, 3, 1)[0]
    n = len(ports(S))
    cn = corolla(n)
    outer_col = {}
    for k in range(1, n + 1):
        c = dec_S.arc_colouring[str(k)]
        outer_col[str(k)] = c
        outer_col[str(k) + "*"] = SP.colour_involution[c]
    bij = {str(k): str(k) for k in range(1, n + 1)}
    ref, dec_out = monad_mult_element(SP, cn, outer_col, {"v": (S, bij)}, {"v": dec_S})
    assert validate_decoration(SP, ref.target, dec_out).ok
    strip = {a: a.removeprefix("v.") for a in ref.target.arcs}
    back = relabel(
        ref.target,
        strip,
        {f: f.removeprefix("v.") for f in ref.target.flags},
        {w: w.removeprefix("v.") for w in ref.target.vertices},
    )
    assert back == S
    assert {strip[a]: c for a, c in dec_out.arc_colouring.items()} == dec_S.arc_colouring


def test_right_unit_law():
    # replacing every vertex by its own unit corolla flattens back
    R, dec_R = next(e for e in truncated_free(SP, 2, 2) if len(e[0].vertices) == 2)
    assignment = {}
    decorations = {}
    for x in sorted(R.vertices):
        label = dec_R.vertex_labels[x]
        gx, dx = monad_unit(SP, label.operation)
        assignment[x] = (
            gx, {str(k): a for k, a in enumerate(label.arcs_by_slot, start=1)}
        )
        decorations[x] = dx
    ref, dec_back = monad_mult_element(SP, R, dec_R.arc_colouring, assignment, decorations)
    assert validate_decoration(SP, ref.target, dec_back).ok
    # the flattened graph names its ports after the refinement's images
    pin = {ref.arc_map[p]: p for p in ports(R)}
    assert pinned_decorated_isomorphic(SP, ref.target, dec_back, R, dec_R, pin)


def port_vertices(g):
    flag_of = {g.embed[f]: f for f in g.flags}
    return {g.incidence[flag_of[g.involution[p]]] for p in ports(g)}


def nested_instance():
    """Outer 2-star, middle double-edge pair, inner corollas: one full
    three-layer stack for the associativity check."""
    outer = corolla(2)
    outer_col = {"1": "in", "1*": "out", "2": "in", "2*": "out"}
    mid = next(
        g for g in graphs_with_ports([3], 2, 2)
        if len(g.vertices) == 2 and port_vertices(g) == g.vertices
    )
    mid_col = next(
        dec.arc_colouring for dec in evaluate_species(SP, mid)
        if dec.arc_colouring["1"] == "in" and dec.arc_colouring["2"] == "in"
    )
    inner_assign = {}
    inner_decs = {}
    for w in sorted(mid.vertices):
        iface = sorted(local_interface(mid, w))
        gw = corolla(len(iface))
        colw = {}
        for k, a in enumerate(iface, start=1):
            colw[str(k)] = mid_col[a]
            colw[str(k) + "*"] = SP.colour_involution[mid_col[a]]
        slots = sorted(range(1, len(iface) + 1), key=lambda k: colw[str(k)] != "in")
        labelw = canonical_label(SP, "m", tuple(str(k) for k in slots))
        inner_assign[w] = (gw, {str(k): a for k, a in enumerate(iface, start=1)})
        inner_decs[w] = Decoration(colw, {"v": labelw})
    return outer, outer_col, mid, mid_col, inner_assign, inner_decs


def test_multiplication_associativity_instance():
    outer, outer_col, mid, mid_col, inner_assign, inner_decs = nested_instance()

    # inner first: flatten the middle layer, then graft into the outer star
    refA1, decA1 = monad_mult_element(SP, mid, mid_col, inner_assign, inner_decs)
    midA = refA1.target
    bijA = {refA1.arc_map[q]: q for q in ("1", "2")}
    refA2, decA = monad_mult_element(
        SP, outer, outer_col, {"v": (midA, bijA)}, {"v": decA1}
    )

    # outer first: graft the middle structurally, then flatten once
    rsref, rscover = _refine_with_cover(outer, {"v": (mid, {"1": "1", "2": "2"})})
    colRS = {rscover.arc_map["v." + a]: c for a, c in mid_col.items()}
    assignB = {}
    decsB = {}
    for w in sorted(mid.vertices):
        gw, bijw = inner_assign[w]
        assignB["v." + w] = (
            gw, {q: rscover.arc_map["v." + a] for q, a in bijw.items()}
        )
        decsB["v." + w] = inner_decs[w]
    refB2, decB = monad_mult_element(SP, rsref.target, colRS, assignB, decsB)

    assert validate_decoration(SP, refA2.target, decA).ok
    assert validate_decoration(SP, refB2.target, decB).ok
    # both orders send each outer port where their refinements send it
    composite = compose_refinements(rsref, refB2)
    pin = {refA2.arc_map[p]: composite.arc_map[p] for p in ports(outer)}
    assert pinned_decorated_isomorphic(SP, refA2.target, decA, refB2.target, decB, pin)


def corolla_missing_an_involution_arc():
    c3 = corolla(3)
    inv = {a: b for a, b in c3.involution.items() if a != "1"}
    return JKGraph(c3.arcs, c3.flags, c3.vertices, inv, c3.embed, c3.incidence)


def test_invalid_graphs_are_reported_not_raised():
    dec = evaluate_species(SP, corolla(3))[0]
    assert validate_decoration(SP, corolla_missing_an_involution_arc(), dec).problems == (
        "graph-invalid: involution-domain: involution must be defined on exactly the arcs",
    )


def test_multiplication_rejects_invalid_pieces_and_missing_decorations():
    dec = evaluate_species(SP, corolla(3))[0]
    bij = {str(k): str(k) for k in range(1, 4)}
    with pytest.raises(ValueError, match="graph-invalid"):
        monad_mult_element(
            SP, corolla(3), dec.arc_colouring, {"v": (corolla_missing_an_involution_arc(), bij)},
            {"v": dec},
        )
    with pytest.raises(ValueError, match="exactly the assigned vertices"):
        monad_mult_element(SP, corolla(3), dec.arc_colouring, {"v": (corolla(3), bij)}, {})
    # an invalid outer graph is reported before any of its maps is read
    unit, unit_dec = monad_unit(SP, "m")
    with pytest.raises(ValueError, match="invalid graph: involution-domain"):
        monad_mult_element(
            SP, corolla_missing_an_involution_arc(), unit_dec.arc_colouring,
            {"v": (unit, bij)}, {"v": unit_dec},
        )


def test_colour_mismatch_rejected():
    S, dec_S = truncated_free(SP, 3, 1)[0]
    n = len(ports(S))
    outer_col = {}
    for k in range(1, n + 1):
        c = dec_S.arc_colouring[str(k)]
        outer_col[str(k)] = SP.colour_involution[c]      # deliberately flipped
        outer_col[str(k) + "*"] = c
    bij = {str(k): str(k) for k in range(1, n + 1)}
    with pytest.raises(ValueError):
        monad_mult_element(SP, corolla(n), outer_col, {"v": (S, bij)}, {"v": dec_S})


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(decorations={}), "decorations must be given at exactly the assigned vertices"),
        (dict(r=corolla_missing_an_involution_arc()),
         "invalid graph: involution-domain: involution must be defined on exactly the arcs"),
        # only the partner of 1 lacks a colour: reported as missing whatever
        # order the arcs come in, not a KeyError from the pairing check
        (dict(outer={a: c for a, c in UNIT_DEC.arc_colouring.items() if a != "1*"}),
         "outer colouring misses arc '1*'"),
        (dict(outer={**UNIT_DEC.arc_colouring, "1": "up"}), "outer colouring misses arc '1'"),
        (dict(outer={**UNIT_DEC.arc_colouring, "1*": "in"}),
         "outer colouring is not edge-paired at '1'"),
        (dict(decorations={"v": dataclasses.replace(UNIT_DEC, vertex_labels={})}),
         "decoration at 'v' invalid: labels-domain: one label per vertex required"),
        (dict(outer={**UNIT_DEC.arc_colouring, "1": "out", "1*": "in"}),
         "piece at 'v' disagrees with the outer colouring at port '1'"),
        (dict(bij={"1": "1", "2": "1", "3": "3"}),
         "interface at 'v' is not a bijection onto the incoming arcs"),
        # a port that is not an arc of the piece, and an arc that is not an
        # arc of r: rejected before their colours are read, not a KeyError
        (dict(bij={"1": "1", "2": "2", "x": "3"}),
         "interface at 'v' is not defined on the piece's ports"),
        (dict(bij={"1": "1", "2": "2", "3": "y"}),
         "interface at 'v' is not a bijection onto the incoming arcs"),
        # an arc of the piece that is not one of its ports
        (dict(bij={"1*": "1", "2": "2", "3": "3"}),
         "interface at 'v' is not defined on the piece's ports"),
    ],
)
def test_multiplication_rejects_each_bad_input(change, message):
    # the unit at m grafted into the three-port corolla, then one input broken
    args = dict(
        r=corolla(3), outer=UNIT_DEC.arc_colouring, bij={"1": "1", "2": "2", "3": "3"},
        decorations={"v": UNIT_DEC},
    )

    def flatten(r, outer, bij, decorations):
        return monad_mult_element(SP, r, outer, {"v": (UNIT, bij)}, decorations)

    flatten(**args)
    with pytest.raises(ValueError) as exc:
        flatten(**{**args, **change})
    assert str(exc.value) == message
