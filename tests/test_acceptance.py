"""Full acceptance sweep.

Every check in this file enumerates its whole stated window and accepts
no mismatches: counts are compared exactly, comparison isomorphisms are
counted exhaustively, and laws are asserted on every instance.  Each
test finishes by printing one PASS line with the verified counts, so
`pytest -s tests/test_acceptance.py` reads as a scoreboard.
"""

import collections
import contextlib
import functools
import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import operations_of_arity, pinned_decorated_isomorphic
from grafcat import etale, kleisli, oracle
from grafcat.bm import (
    bm_identity,
    bm_tails,
    classify_bm,
    commute_bm,
    compose_bm,
    factorise_bm,
    find_bm_isomorphisms,
)
from grafcat.cospan_equiv import (
    GraphCospan,
    compose_cospan,
    cospan_equal,
    cospan_key,
    identity_cospan,
    phi,
    phi1_graph,
    phi1_graph_inv,
    phi1_mor,
    phi1_mor_inv,
    phi2_mor,
    phi2_mor_inv,
    phi_inv,
    validate_cospan,
)
from grafcat.etale import reduced_covers_of
from grafcat.graph_core import (
    EtaleMorphism,
    corolla,
    edges,
    find_isomorphisms,
    flag_view,
    graph_clauses,
    inner_edges,
    is_connected,
    is_effective,
    is_isomorphic,
    isolated_edges,
    local_interface,
    ports,
    relabel,
)
from grafcat.kleisli import (
    KleisliMorphism,
    Refinement,
    _refine_with_cover,
    compose_cover_then_refinement,
    compose_refinements,
    cover_to_refinement,
    free_kleisli,
    kleisli_equal,
    pieces,
    pushout_gen_rc,
    refinement_to_cover,
)
from grafcat.oracle import (
    check_equivalence,
    covers_from,
    enumerate_bm_graphs,
    enumerate_bm_morphisms,
    enumerate_cospans,
    enumerate_refinements,
)
from grafcat.species import (
    Decoration,
    GraphicalSpecies,
    VertexLabel,
    _edge_colourings,
    canonical_label,
    evaluate_species,
    graphs_with_ports,
    monad_mult_element,
    monad_unit,
    truncated_free,
    validate_decoration,
)

from test_kleisli import covers_agree, in_order, summed_refinement_to_cover
from test_oracle import _refinements_in_order, filtered_refinements

SRC = str(Path(__file__).resolve().parent.parent / "src")

# one- and two-generator species used for the monad-law sweeps
SP1 = GraphicalSpecies(
    colours=frozenset({"in", "out"}),
    colour_involution={"in": "out", "out": "in"},
    operations={"m": ("in", "in", "out")},
)
SP2 = GraphicalSpecies(
    colours=frozenset({"in", "out"}),
    colour_involution={"in": "out", "out": "in"},
    operations={"b": ("in", "out"), "m": ("in", "in", "out")},
)


@pytest.fixture(scope="module")
def bm_world():
    """Every graph with at most 2 vertices and 4 flags, with the full
    morphism matrix between them."""
    graphs = enumerate_bm_graphs(2, 4)
    homs = {}
    for i, g1 in enumerate(graphs):
        for j, g2 in enumerate(graphs):
            homs[(i, j)] = enumerate_bm_morphisms(g1, g2)
    return graphs, homs


@pytest.fixture(scope="module")
def jk_world(bm_world):
    graphs, _ = bm_world
    return [g for g in (phi1_graph(b) for b in graphs) if is_effective(g)]


@pytest.fixture(scope="module")
def ref_matrix(jk_world):
    return {
        (a, b): enumerate_refinements(A, B)
        for a, A in enumerate(jk_world)
        for b, B in enumerate(jk_world)
    }


STDOUT_243 = "81f0923845de8524168724c6835e80db3bb34f3150d60b6ef621aab3d28c2f2b"
STDERR_243 = "dc92084699a945fe842441c241a1f51b17d946c1334e5ae1ca9570c651c22627"


def test_encodings_agree_end_to_end():
    # the headline comparison, driven through the command line
    t0 = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, "-m", "grafcat.cli", "check-equivalence",
            "--max-vertices", "2", "--max-flags", "4", "--apex-bound", "3",
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 300
    lines = proc.stdout.splitlines()
    header = json.loads(lines[0])
    rows = [json.loads(line) for line in lines[1:]]
    assert len(header["graphs"]) == 33
    assert len(rows) == 1089
    assert all(r["bijection_verified"] for r in rows)
    assert all(r["bm_count"] == r["cospan_count"] for r in rows)
    assert "all pairs pass" in proc.stderr
    # the whole output is pinned, so no row or table line may drift
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_243
    assert hashlib.sha256(proc.stderr.encode()).hexdigest() == STDERR_243
    total = sum(r["bm_count"] for r in rows)
    print(
        f"PASS encoding equivalence: {len(header['graphs'])} graphs, "
        f"{len(rows)} ordered pairs, {total} morphisms matched both ways "
        f"in {elapsed:.1f}s"
    )


def _agree_on_window(max_vertices, max_flags, n_graphs, n_morphisms):
    t0 = time.monotonic()
    report = check_equivalence(max_vertices, max_flags)
    elapsed = time.monotonic() - t0
    assert report.ok
    assert len(report.graphs) == n_graphs
    assert len(report.pairs) == n_graphs**2
    assert report.total_bm == n_morphisms
    assert report.total_cospans == n_morphisms
    print(
        f"PASS encoding equivalence ({max_vertices},{max_flags}): "
        f"{len(report.graphs)} graphs, {len(report.pairs)} ordered pairs, "
        f"{report.total_bm} morphisms matched both ways in {elapsed:.1f}s"
    )


def test_encodings_agree_on_the_two_five_window():
    # the next window up: every graph with at most 2 vertices and 5 flags
    _agree_on_window(2, 5, 51, 4449)


def test_encodings_agree_on_the_two_six_window():
    # every graph with at most 2 vertices and 6 flags: 83 graphs, 6889
    # ordered pairs
    _agree_on_window(2, 6, 83, 39857)


OUTPUT_35 = "7ad4a61790c99758640ac5fd6582ce97a356aae55fb0b3033f5ca3dd9bd51431"
STDERR_35 = "e94819129f3fc8f9d55d82dfac8617d66c0544352d11cacc0a0e9b99d976c4d1"


def test_encodings_agree_on_the_three_five_window(tmp_path):
    # every graph with at most 3 vertices and 5 flags: 12544 ordered
    # pairs, driven through the command line with its output pinned
    out = tmp_path / "three_five.jsonl"
    t0 = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, "-m", "grafcat.cli", "check-equivalence",
            "--max-vertices", "3", "--max-flags", "5", "-o", str(out),
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    rows = [json.loads(line) for line in lines[1:]]
    total = sum(r["bm_count"] for r in rows)
    assert len(header["graphs"]) == 112
    assert len(rows) == 12544
    assert all(r["bijection_verified"] for r in rows)
    assert total == sum(r["cospan_count"] for r in rows) == 17679
    assert "all pairs pass" in proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OUTPUT_35
    assert hashlib.sha256(proc.stderr.encode()).hexdigest() == STDERR_35
    print(
        f"PASS encoding equivalence (3,5): {len(header['graphs'])} graphs, "
        f"{len(rows)} ordered pairs, {total} morphisms matched both ways "
        f"in {elapsed:.1f}s"
    )


def test_factorisations_compose_back_and_compare_uniquely(bm_world):
    graphs, homs = bm_world
    grafts = {k: [m for m in ms if classify_bm(m).is_grafting] for k, ms in homs.items()}
    comps = {k: [m for m in ms if classify_bm(m).is_compression] for k, ms in homs.items()}
    total_h = total_facts = total_pairs = 0
    for i, tau in enumerate(graphs):
        for j, rho in enumerate(graphs):
            if not homs[(i, j)]:
                continue
            # a middle inherits tau's vertex/flag counts and rho's tail count
            mids = [
                k
                for k, m in enumerate(graphs)
                if len(m.vertices) == len(tau.vertices)
                and len(m.flags) == len(tau.flags)
                and len(bm_tails(m)) == len(bm_tails(rho))
            ]
            candidates = [
                (g, c)
                for k in mids
                for g in grafts[(i, k)]
                for c in comps[(k, j)]
            ]
            for h in homs[(i, j)]:
                total_h += 1
                mid0, g0, c0 = factorise_bm(h)
                assert classify_bm(g0).is_grafting
                assert classify_bm(c0).is_compression
                assert compose_bm(g0, c0) == h
                facts = [(mid0, g0, c0)] + [
                    (g.target, g, c) for g, c in candidates if compose_bm(g, c) == h
                ]
                total_facts += len(facts)
                for m1, ga, ca in facts:
                    for m2, gb, cb in facts:
                        count = sum(
                            1
                            for u in find_bm_isomorphisms(m1, m2)
                            if compose_bm(ga, u) == gb and compose_bm(u, cb) == ca
                        )
                        assert count == 1
                        total_pairs += 1
    assert (total_h, total_facts, total_pairs) == (993, 7076, 81340)
    print(
        f"PASS factorisation: {total_h} morphisms composed back exactly, "
        f"{total_facts} factorisations, {total_pairs} ordered comparisons, "
        f"one comparison isomorphism each"
    )


def test_compression_then_grafting_commutes(bm_world):
    graphs, homs = bm_world
    n = len(graphs)
    comps = {k: [m for m in ms if classify_bm(m).is_compression] for k, ms in homs.items()}
    grafts = {k: [m for m in ms if classify_bm(m).is_grafting] for k, ms in homs.items()}
    checked = 0
    for t in range(n):
        for s in range(n):
            for u in comps[(t, s)]:
                gen = phi2_mor(u)
                for r in range(n):
                    for v in grafts[(s, r)]:
                        h = compose_bm(u, v)
                        # the swapped factorisation composes to the same map
                        _, g2, c2 = commute_bm(u, v)
                        assert classify_bm(g2).is_grafting
                        assert classify_bm(c2).is_compression
                        assert compose_bm(g2, c2) == h
                        # and the translated square closes by pushout
                        gen2, rc2 = pushout_gen_rc(gen, phi1_mor(v))
                        assert cospan_equal(phi(h), GraphCospan(rc2, gen2))
                        checked += 1
    assert checked == 10537
    print(
        f"PASS exchange: {checked} (compression, grafting) pairs swap and "
        f"match the pushout route"
    )


def test_phi_is_a_functor(bm_world):
    # the only exhaustive check of compose_cospan, whose covers come from
    # compose_covers and pushout_gen_rc
    graphs, homs = bm_world
    n = len(graphs)

    def mismatch(c1, c2) -> bool:
        return (c1.source, c1.target) != (c2.source, c2.target) or cospan_key(c1) != cospan_key(c2)

    identity_bad = sum(mismatch(phi(bm_identity(g)), identity_cospan(phi1_graph(g))) for g in graphs)
    images = {k: [phi(h) for h in hs] for k, hs in homs.items()}
    pairs = composite_bad = 0
    for (a, b), hs1 in homs.items():
        for c in range(n):
            for h1, c1 in zip(hs1, images[(a, b)]):
                for h2, c2 in zip(homs[(b, c)], images[(b, c)]):
                    composite_bad += mismatch(phi(compose_bm(h1, h2)), compose_cospan(c1, c2))
                    pairs += 1
    assert (len(graphs), identity_bad, pairs, composite_bad) == (33, 0, 27521, 0)
    print(f"PASS functor: {len(graphs)} identities and {pairs} composites keep their cospans")


def test_enumerated_cospans_compose_as_their_bm_preimages(bm_world):
    # the other direction of test_phi_is_a_functor: composites of
    # enumerated cospans, whose apexes replay_gluings named, not phi
    graphs, _ = bm_world
    n = len(graphs)
    cospans = {(a, b): enumerate_cospans(graphs[a], graphs[b]) for a in range(n) for b in range(n)}
    composites = invalid = bad = 0
    for (a, b), cs1 in cospans.items():
        for c in range(n):
            for c1 in cs1:
                for c2 in cospans[(b, c)]:
                    got = compose_cospan(c1, c2)
                    invalid += not validate_cospan(got).ok
                    want = phi(compose_bm(phi_inv(c1), phi_inv(c2)))
                    bad += (got.source, got.target) != (want.source, want.target) or (
                        cospan_key(got) != cospan_key(want)
                    )
                    composites += 1
    assert (composites, invalid, bad) == (27521, 0, 0)
    print(f"PASS functor: {composites} composites of enumerated cospans keep their keys")


def test_cover_lattices_are_boolean():
    classes = [
        g for g in (phi1_graph(b) for b in enumerate_bm_graphs(2, 6)) if is_effective(g)
    ]
    hist: dict[int, int] = {}
    for x in classes:
        k = len(inner_edges(x))
        assert k <= 3
        cs = reduced_covers_of(x)
        assert len(cs) == 2 ** k
        # each cover keeps a different subset of the inner edges uncut
        kept = {frozenset(inner_edges(c.source)) for c in cs}
        assert len(kept) == 2 ** k
        assert all(c.target == x for c in cs)
        hist[k] = hist.get(k, 0) + 1
    assert len(classes) == 82
    assert set(hist) == {0, 1, 2, 3}
    print(
        f"PASS cover lattice: {len(classes)} graphs, sizes 2^k verified, "
        f"inner-edge histogram {dict(sorted(hist.items()))}"
    )


def test_refinement_matrix_matches_the_filter(jk_world, ref_matrix):
    # the constructed refinements between the window's effective pictures
    # are the filter's, order included
    for (a, b), refs in ref_matrix.items():
        reference = filtered_refinements(jk_world[a], jk_world[b])
        assert _refinements_in_order(refs) == _refinements_in_order(reference), (a, b)
    total = sum(len(refs) for refs in ref_matrix.values())
    assert (len(ref_matrix), total) == (1024, 368)
    print(f"PASS refinements: {len(ref_matrix)} pairs, {total} refinements, as filtered")


def test_duality_roundtrips(bm_world, jk_world, ref_matrix):
    graphs, homs = bm_world

    # cover -> refinement -> cover: same target, sources matched by an
    # isomorphism commuting with both covers
    covers_checked = 0
    for x in jk_world:
        for rc in reduced_covers_of(x):
            r = cover_to_refinement(rc)
            back = refinement_to_cover(r)
            assert back.target == rc.target
            assert any(
                all(rc.arc_map[u.arc_map[a]] == back.arc_map[a] for a in back.source.arcs)
                for u in find_isomorphisms(back.source, rc.source)
            )
            covers_checked += 1

    # every refinement's cut cover agrees with the sum of its pieces;
    # refinement -> cover -> refinement on connected-piece refinements (a
    # disconnected piece cannot survive, since the cover forgets how its
    # components were grouped)
    refs_summed = refs_checked = 0
    for key, refs in ref_matrix.items():
        for r in refs:
            assert covers_agree(refinement_to_cover(r), summed_refinement_to_cover(r))
            refs_summed += 1
            if not all(is_connected(p) for p, _ in pieces(r).values()):
                continue
            rc = refinement_to_cover(r)
            r2 = cover_to_refinement(rc)
            assert r2.target == r.target
            assert is_isomorphic(r2.source, r.source)
            rc2 = refinement_to_cover(r2)
            assert rc2.target == rc.target
            assert any(
                all(rc.arc_map[w.arc_map[a]] == rc2.arc_map[a] for a in rc2.source.arcs)
                for w in find_isomorphisms(rc2.source, rc.source)
            )
            refs_checked += 1

    # object translations both ways
    for b in graphs:
        assert phi1_graph_inv(phi1_graph(b)) == b
    for x in jk_world:
        assert is_isomorphic(phi1_graph(phi1_graph_inv(x)), x)

    # morphism translations: every morphism through the cospan form,
    # graftings through covers, compressions through refinements
    n_all = n_g = n_c = 0
    for ms in homs.values():
        for m in ms:
            assert phi_inv(phi(m)) == m
            n_all += 1
            cl = classify_bm(m)
            if cl.is_grafting:
                assert phi1_mor_inv(phi1_mor(m)) == m
                n_g += 1
            if cl.is_compression:
                assert phi2_mor_inv(phi2_mor(m)) == m
                n_c += 1
    assert (covers_checked, refs_checked) == (60, 195)
    assert refs_summed == 368
    print(
        f"PASS duality: {covers_checked} cover and {refs_checked} refinement "
        f"roundtrips, {refs_summed} cut covers as summed pieces, "
        f"{len(graphs)} objects both ways, {n_all} morphisms "
        f"({n_g} graftings, {n_c} compressions)"
    )


def pushout_squares(jks, scope=contextlib.nullcontext):
    """Push out every refinement R -> S against every reduced cover of R
    and assert that exactly one refinement mediates each cocone over the
    square; returns (squares, cocones).  scope() wraps the work for each
    R and for each square."""
    squares = cocones = 0
    for R in jks:
        with scope():
            rcs = covers_from(R)
            for S in jks:
                refs = enumerate_refinements(R, S)
                if not refs:
                    continue
                covers_S = covers_from(S)
                for gen in refs:
                    for rc in rcs:
                        with scope():
                            squares += 1
                            cocones += _mediate_cocones(gen, rc, covers_S)
    return squares, cocones


def _mediate_cocones(gen, rc, covers_S) -> int:
    """The cocones over the pushout square of gen and rc whose free leg
    is a cover in covers_S, each with its one mediating refinement."""
    gen2, rc2 = pushout_gen_rc(gen, rc)
    cocones = 0
    for w in covers_S:
        T = w.target
        pool = None
        for v in enumerate_refinements(rc.target, T):
            if not kleisli_equal(
                compose_cover_then_refinement(rc, v),
                KleisliMorphism(gen, w.morphism),
            ):
                continue
            cocones += 1
            if pool is None:
                pool = enumerate_refinements(rc2.target, T)
            count = sum(
                1
                for m in pool
                if compose_refinements(gen2, m) == v
                and kleisli_equal(
                    compose_cover_then_refinement(rc2, m),
                    free_kleisli(w.morphism),
                )
            )
            assert count == 1
    return cocones


def test_pushouts_mediate_uniquely(jk_world):
    jks = jk_world
    squares, cocones = pushout_squares(jks)
    assert (squares, cocones) == (1718, 1718)

    # uniqueness rests on covers being epi: distinct refinements out of
    # a cover's target stay distinct after composing with the cover
    pairs = 0
    for R in jks:
        for rc in covers_from(R):
            for T in jks:
                ks = [
                    compose_cover_then_refinement(rc, v)
                    for v in enumerate_refinements(rc.target, T)
                ]
                for i in range(len(ks)):
                    for j in range(i + 1, len(ks)):
                        assert not kleisli_equal(ks[i], ks[j])
                        pairs += 1
    assert pairs == 2899
    print(
        f"PASS pushout: {squares} spans, {cocones} cocones with exactly one "
        f"mediating refinement; epi check on {pairs} pairs"
    )


# -- handed-over maps -------------------------------------------------------------------
#
# These builders pass the maps they have just built straight to the
# tuple of an EtaleMorphism or a Refinement, and may share one map
# between the values they return.  The copying constructor is the
# reference: each value is rebuilt through it as it is returned, as the
# builders first built it, and must still equal that copy, field for
# field, when the scope it was made in ends.  The layouts memoised on
# the graphs and covers that the enumerator and the cover composite read
# must equal a fresh recomputation then, and so must each list of
# enumerated refinements.

HANDING_OVER = {
    etale: ("compose_etale", "cut_edges", "replay_gluings"),
    kleisli: (
        "_middle_iso",
        "compose_refinements",
        "transport_refinement",
        "pushout_gen_rc",
        "_refine_with_cover",
        "compose_cover_then_refinement",
    ),
    oracle: ("enumerate_refinements",),
}
GRAPH_MEMOS = (edges, inner_edges, isolated_edges, graph_clauses, flag_view, oracle._layout)


def handed_over(result):
    """The EtaleMorphisms and Refinements in a builder's result."""
    if isinstance(result, (EtaleMorphism, Refinement)):
        yield result
    elif isinstance(result, KleisliMorphism):
        yield from (result.generic, result.free)
    elif isinstance(result, (tuple, list)):
        for x in result:
            yield from handed_over(x)


class Recorder:
    """Wraps every module binding of the HANDING_OVER builders; scope()
    checks what was recorded inside it, then forgets it, which keeps the
    records of a long loop small."""

    def __init__(self, monkeypatch):
        self.records = []  # (kind, object, reference)
        self.compared = collections.Counter()
        for module, names in HANDING_OVER.items():
            for name in names:
                fn = getattr(module, name)
                recorded = self._recording(name, fn)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__dict__", {}).get(name) is fn:
                        monkeypatch.setattr(mod, name, recorded)

    def _recording(self, name, fn):
        @functools.wraps(fn)
        def recorded(*args):
            result = fn(*args)
            for value in handed_over(result):
                self.records.append(("value", value, in_order(type(value)(*value))))
            if name == "enumerate_refinements":
                self.records.append(("enumerated", (fn, args), result))
                self.records.extend(("graph", g, None) for g in args)
            elif name == "compose_cover_then_refinement":
                self.records.append(("cover", args[0], None))
            return result

        return recorded

    @contextlib.contextmanager
    def scope(self):
        mark = len(self.records)
        yield
        seen = set()  # a cover is recorded both as a value and as a cover
        for kind, obj, ref in self.records[mark:]:
            if (kind, id(obj)) in seen:
                continue
            seen.add((kind, id(obj)))
            if kind == "value":
                assert in_order(obj) == ref
            elif kind == "enumerated":
                fn, args = obj
                assert [in_order(r) for r in ref] == [in_order(r) for r in fn(*args)]
            elif kind == "graph":
                for memo in GRAPH_MEMOS:
                    assert memo(obj) == memo.__wrapped__(obj), memo.__name__
            else:
                assert kleisli._cover_layout(obj) == kleisli._cover_layout.__wrapped__(obj)
            self.compared[kind] += 1
        del self.records[mark:]


def test_pushout_values_keep_their_copying_construction(jk_world, monkeypatch):
    rec = Recorder(monkeypatch)
    assert pushout_squares(jk_world, rec.scope) == (1718, 1718)
    assert not rec.records
    assert dict(rec.compared) == {"value": 130238, "enumerated": 16964, "graph": 18166, "cover": 3436}
    print(f"PASS handed-over maps on the pushout loop: {dict(rec.compared)}")


def test_composite_values_keep_their_copying_construction(ref_matrix, monkeypatch):
    rec = Recorder(monkeypatch)
    assert associative_triples(ref_matrix, rec.scope) == 123550
    assert dict(rec.compared) == {"value": 376426}
    print(f"PASS handed-over maps on the associativity loop: {dict(rec.compared)}")


# -- monad law helpers ----------------------------------------------------------------


def left_unit_exact(sp, S, dec_S) -> bool:
    """Grafting an element into a bare corolla and flattening returns
    the element on the nose once the piece prefix is stripped."""
    n = len(ports(S))
    cn = corolla(n)
    outer_col = {}
    for k in range(1, n + 1):
        c = dec_S.arc_colouring[str(k)]
        outer_col[str(k)] = c
        outer_col[str(k) + "*"] = sp.colour_involution[c]
    bij = {str(k): str(k) for k in range(1, n + 1)}
    ref, dec_out = monad_mult_element(sp, cn, outer_col, {"v": (S, bij)}, {"v": dec_S})
    strip = {a: a.removeprefix("v.") for a in ref.target.arcs}
    back = relabel(
        ref.target,
        strip,
        {f: f.removeprefix("v.") for f in ref.target.flags},
        {w: w.removeprefix("v.") for w in ref.target.vertices},
    )
    if back != S:
        return False
    if {strip[a]: c for a, c in dec_out.arc_colouring.items()} != dec_S.arc_colouring:
        return False
    relabeled = {
        w.removeprefix("v."): VertexLabel(
            l.operation, tuple(strip[a] for a in l.arcs_by_slot)
        )
        for w, l in dec_out.vertex_labels.items()
    }
    return relabeled == dec_S.vertex_labels


def right_unit_holds(sp, R, dec_R) -> bool:
    """Replacing every vertex by the unit corolla of its own label
    flattens back to the original decorated graph, by an isomorphism
    that undoes the refinement on the ports."""
    assignment = {}
    decorations = {}
    for x in sorted(R.vertices):
        label = dec_R.vertex_labels[x]
        gx, dx = monad_unit(sp, label.operation)
        assignment[x] = (
            gx, {str(k): a for k, a in enumerate(label.arcs_by_slot, start=1)}
        )
        decorations[x] = dx
    ref, dec_back = monad_mult_element(sp, R, dec_R.arc_colouring, assignment, decorations)
    pin = {ref.arc_map[p]: p for p in ports(R)}
    return pinned_decorated_isomorphic(sp, ref.target, dec_back, R, dec_R, pin)


def raw_decoration_count(sp, n_ports, max_v) -> int:
    """Independent recount of the truncated free monad: enumerate arc
    colourings and slot orders directly, keep the valid decorations, and
    dedup by port-fixing decorated isomorphism."""
    arities = sorted({len(p) for p in sp.operations.values()})
    total = 0
    for g in graphs_with_ports(arities, n_ports, max_v):
        arcs = sorted(g.arcs)
        kept: list[Decoration] = []
        for combo in itertools.product(sorted(sp.colours), repeat=len(arcs)):
            col = dict(zip(arcs, combo))
            if any(col[g.involution[a]] != sp.colour_involution[col[a]] for a in arcs):
                continue
            per_vertex = []
            for v in sorted(g.vertices):
                iface = sorted(local_interface(g, v))
                opts = set()
                for name, profile in operations_of_arity(sp, len(iface)).items():
                    for order in itertools.permutations(iface):
                        if all(col[a] == profile[i] for i, a in enumerate(order)):
                            opts.add(canonical_label(sp, name, order))
                per_vertex.append(sorted(opts))
            for labels in itertools.product(*per_vertex):
                dec = Decoration(col, dict(zip(sorted(g.vertices), labels)))
                if not validate_decoration(sp, g, dec).ok:
                    continue
                if not any(pinned_decorated_isomorphic(sp, g, d0, g, dec) for d0 in kept):
                    kept.append(dec)
        total += len(kept)
    return total


def nested_flatten_agrees(sp, outer, outer_col, middles, inner_assigns, inner_decs) -> bool:
    """Compare the two flattening orders of a three-layer stack.

    middles maps each outer vertex to (piece, bij, piece colouring);
    inner_assigns / inner_decs give each middle piece its own total
    corolla assignment.  The two results must agree by an isomorphism
    that sends each outer port's image under the first order to its
    image under the second.
    """
    # inner first: flatten every middle piece, then graft the results
    outer_assign = {}
    outer_decs = {}
    for x in sorted(outer.vertices):
        mid, bij, mcol = middles[x]
        ref1, dec1 = monad_mult_element(sp, mid, mcol, inner_assigns[x], inner_decs[x])
        outer_assign[x] = (
            ref1.target, {ref1.arc_map[q]: bij[q] for q in sorted(ports(mid))}
        )
        outer_decs[x] = dec1
    ref_a, dec_a = monad_mult_element(sp, outer, outer_col, outer_assign, outer_decs)

    # outer first: graft the middle layer structurally, then flatten once
    rsref, rscover = _refine_with_cover(
        outer, {x: (middles[x][0], middles[x][1]) for x in sorted(outer.vertices)}
    )
    col_rs = {}
    assign_b = {}
    decs_b = {}
    for x in sorted(outer.vertices):
        mid, _, mcol = middles[x]
        for a, c in mcol.items():
            col_rs[rscover.arc_map[x + "." + a]] = c
        for w in sorted(mid.vertices):
            gw, bijw = inner_assigns[x][w]
            assign_b[x + "." + w] = (
                gw, {q: rscover.arc_map[x + "." + a] for q, a in bijw.items()}
            )
            decs_b[x + "." + w] = inner_decs[x][w]
    ref_b, dec_b = monad_mult_element(sp, rsref.target, col_rs, assign_b, decs_b)

    if not validate_decoration(sp, ref_a.target, dec_a).ok:
        return False
    if not validate_decoration(sp, ref_b.target, dec_b).ok:
        return False
    composite = compose_refinements(rsref, ref_b)
    pin = {ref_a.arc_map[p]: composite.arc_map[p] for p in ports(outer)}
    return pinned_decorated_isomorphic(sp, ref_a.target, dec_a, ref_b.target, dec_b, pin)


def bounded_combos(options, budget):
    """The tuples of itertools.product(*options), in its order, whose
    middles have at most budget vertices in total; a prefix over the
    budget is cut off at once."""
    if not options:
        yield ()
        return
    for opt in options[0]:
        left = budget - len(opt[0].vertices)
        if left >= 0:
            for rest in bounded_combos(options[1:], left):
                yield (opt, *rest)


def associative_triples(ref_matrix, scope=contextlib.nullcontext) -> int:
    """Assert (r1 r2) r3 == r1 (r2 r3) for every composable triple of
    the matrix; returns the number of triples.  scope() wraps the work
    for each composable pair (r1, r2)."""
    jk_index = sorted({a for a, _ in ref_matrix} | {b for _, b in ref_matrix})
    triples = 0
    for a in jk_index:
        for b in jk_index:
            for r1 in ref_matrix[(a, b)]:
                for c in jk_index:
                    for r2 in ref_matrix[(b, c)]:
                        with scope():
                            left = compose_refinements(r1, r2)
                            for d in jk_index:
                                for r3 in ref_matrix[(c, d)]:
                                    assert compose_refinements(left, r3) == compose_refinements(
                                        r1, compose_refinements(r2, r3)
                                    )
                                    triples += 1
    return triples


def test_monad_laws_hold_at_small_scale(ref_matrix):
    # unit laws, exactly, over every truncated element of two species
    unit_configs = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)]
    lefts = rights = 0
    for sp in (SP1, SP2):
        for n_ports, max_v in unit_configs:
            for S, dec_S in truncated_free(sp, n_ports, max_v):
                if not S.vertices:
                    continue        # bare edges are not substitutable pieces
                assert left_unit_exact(sp, S, dec_S)
                lefts += 1
                assert right_unit_holds(sp, S, dec_S)
                rights += 1

    # associativity of refinement composition over the full matrix
    triples = associative_triples(ref_matrix)
    assert triples == 123550

    # flattening associativity over every three-layer stack built from
    # connected outers (<= 3 ports, <= 3 vertices), middle pieces of
    # <= 2 vertices with <= 3 middle vertices in total, and inner
    # corollas, all bijections taken in sorted order
    outers = [
        g for p in range(4) for g in graphs_with_ports([2, 3], p, 3) if g.vertices
    ]
    # bare edges are excluded from the pools: not substitutable pieces
    pool = {
        k: [g for g in graphs_with_ports([2, 3], k, 2) if g.vertices] for k in (2, 3)
    }

    @functools.cache
    def middle_options(k, iface_cols):
        opts = []
        for mid in pool[k]:
            mid_ports = sorted(ports(mid))
            for mcol in _edge_colourings(SP2, mid):
                if all(mcol[mid_ports[i]] == iface_cols[i] for i in range(k)):
                    opts.append((mid, mcol))
        return opts

    @functools.cache
    def inner_options(j, iface_cols):
        return [
            dec
            for dec in evaluate_species(SP2, corolla(j))
            if all(dec.arc_colouring[str(i + 1)] == iface_cols[i] for i in range(j))
        ]

    instances = 0
    for outer in outers:
        vs = sorted(outer.vertices)
        ifaces = {x: sorted(local_interface(outer, x)) for x in vs}
        for col in _edge_colourings(SP2, outer):
            per_vertex = [
                middle_options(len(ifaces[x]), tuple(col[a] for a in ifaces[x]))
                for x in vs
            ]
            for combo in bounded_combos(per_vertex, 3):
                middles = {}
                inner_lists = []
                for x, (mid, mcol) in zip(vs, combo):
                    mid_ports = sorted(ports(mid))
                    bij = dict(zip(mid_ports, ifaces[x]))
                    middles[x] = (mid, bij, mcol)
                    for w in sorted(mid.vertices):
                        iface_w = sorted(local_interface(mid, w))
                        inner_lists.append(
                            (
                                x,
                                w,
                                iface_w,
                                inner_options(
                                    len(iface_w), tuple(mcol[a] for a in iface_w)
                                ),
                            )
                        )
                for decs in itertools.product(*(opts for *_, opts in inner_lists)):
                    inner_assigns = {x: {} for x in vs}
                    inner_decs = {x: {} for x in vs}
                    for (x, w, iface_w, _), dec in zip(inner_lists, decs):
                        inner_assigns[x][w] = (
                            corolla(len(iface_w)),
                            {str(k): a for k, a in enumerate(iface_w, start=1)},
                        )
                        inner_decs[x][w] = dec
                    assert nested_flatten_agrees(
                        SP2, outer, col, middles, inner_assigns, inner_decs
                    )
                    instances += 1
    assert instances == 666

    # the truncation matches a from-scratch recount
    recounts = 0
    for sp in (SP1, SP2):
        for n_ports, max_v in unit_configs:
            assert len(truncated_free(sp, n_ports, max_v)) == raw_decoration_count(
                sp, n_ports, max_v
            )
            recounts += 1
    print(
        f"PASS monad laws: {lefts} left and {rights} right unit instances exact, "
        f"{triples} composition triples, {instances} nested flattenings, "
        f"{recounts} truncation recounts"
    )


def test_composition_is_associative_everywhere(bm_world):
    graphs, homs = bm_world
    n = len(graphs)
    triples = 0
    for b in range(n):
        for c in range(n):
            for h2 in homs[(b, c)]:
                for a in range(n):
                    for h1 in homs[(a, b)]:
                        left = compose_bm(h1, h2)
                        for d in range(n):
                            for h3 in homs[(c, d)]:
                                assert compose_bm(left, h3) == compose_bm(
                                    h1, compose_bm(h2, h3)
                                )
                                triples += 1
    assert triples == 736417
    print(f"PASS associativity: {triples} composable triples, exact equality")
