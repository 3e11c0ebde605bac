"""The benchmark's workloads: each sets up its inputs, then checks laws
of grafcat on them through the library's public functions.

A workload runs in three sizes: ``bench`` (what timed runs use),
``tiny`` (a seconds-long smoke run) and ``full`` (the exhaustive
window, which must reproduce the totals of tests/test_acceptance.py).
Where a workload samples, the seed picks a stratified sample from a
cost-ordered list of units, so every seed gets about the same work.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import os
import random
import time

from grafcat import cli
from grafcat.bm import bm_tails, classify_bm, compose_bm, factorise_bm, find_bm_isomorphisms
from grafcat.cospan_equiv import phi1_graph
from grafcat.graph_core import corolla, edges, is_effective, local_interface, ports, relabel
from grafcat.kleisli import (
    KleisliMorphism,
    _refine_with_cover,
    compose_cover_then_refinement,
    compose_refinements,
    free_kleisli,
    kleisli_equal,
    pushout_gen_rc,
)
from grafcat.oracle import (
    covers_from,
    enumerate_bm_graphs,
    enumerate_bm_morphisms,
    enumerate_refinements,
)
from grafcat.species import (
    GraphicalSpecies,
    VertexLabel,
    decorated_isomorphic,
    evaluate_species,
    graphs_with_ports,
    monad_mult_element,
    monad_unit,
    truncated_free,
    validate_decoration,
)


class Gate:
    """Counts law instances and count checks, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def tally(self, what: str, attempted: int, failed: int = 0):
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 10:
            self.problems.append(f"{what}: {failed} of {attempted} failed")

    def check(self, ok: bool, what: str):
        self.tally(what, 1, 0 if ok else 1)

    def expect(self, what: str, got, want):
        self.check(got == want, f"{what} = {got!r}, expected {want!r}")


def _speed_snippet():
    """Fixed pure-Python work that does not touch grafcat: the dict,
    tuple and sorting operations the library is made of."""
    d = {}
    for i in range(1200):
        d[(i % 13, i)] = str(i)
    return sorted(d.items())


class Probe:
    """Times unit checks, tells a tracer which unit is running, and
    samples the host's speed between units."""

    SPEED_PERIOD_S = 0.25  # time the speed snippet at most this often during a verdict

    def __init__(self, tracer=None):
        self.latencies_ms: list[float] = []
        self.speed_ms: list[float] = []
        self.speed_probe_s = 0.0  # time spent on the speed snippet
        self._tracer = tracer
        self._start = 0.0
        self._last_speed = time.perf_counter()

    def sample_speed(self, times: int = 1):
        t0 = time.perf_counter()
        for _ in range(times):
            t = time.perf_counter()
            _speed_snippet()
            self.speed_ms.append((time.perf_counter() - t) * 1e3)
        self._last_speed = time.perf_counter()
        self.speed_probe_s += self._last_speed - t0

    def start(self, unit_id):
        if time.perf_counter() - self._last_speed > self.SPEED_PERIOD_S:
            self.sample_speed()
        if self._tracer is not None:
            self._tracer.unit = unit_id
        self._start = time.perf_counter()

    def stop(self):
        self.latencies_ms.append((time.perf_counter() - self._start) * 1e3)
        if self._tracer is not None:
            self._tracer.unit = None


def _stratified_sample(units: list, stride: int, seed: int) -> list:
    """One unit drawn at random from each run of stride consecutive
    units: a 1/stride sample that represents every stretch of the list's
    cost order (a single offset for all runs would alias with periodic
    structure in the order)."""
    rng = random.Random(seed)
    return [units[rng.randrange(b, min(b + stride, len(units)))] for b in range(0, len(units), stride)]


# -- equivalence ----------------------------------------------------------------------


class Equivalence:
    """The check-equivalence command on a fixed window; one unit is one
    ordered pair of graphs."""

    name = "equivalence"
    WINDOWS = {"bench": (2, 4, 3), "tiny": (1, 2, 3), "full": (2, 4, 3)}
    EXPECT = {
        "bench": {"graphs": 33, "pairs": 1089, "morphisms": 993},
        "tiny": {"graphs": 5, "pairs": 25, "morphisms": 11},
        "full": {"graphs": 33, "pairs": 1089, "morphisms": 993},
    }

    def __init__(self, size: str, seed: int, out_dir):
        self.size = size
        self.out_path = os.path.join(out_dir, f"equivalence-{os.getpid()}.jsonl")

    def run(self, probe: Probe, gate: Gate) -> dict:
        nv, nf, ab = self.WINDOWS[self.size]
        real = cli.check_equivalence
        pair = [0]

        def timed_check_equivalence(*args, progress, **kwargs):
            def on_pair(res):
                probe.stop()
                gate.check(res.ok, f"pair g{res.tau_index} -> g{res.rho_index}")
                progress(res)
                pair[0] += 1
                probe.start(pair[0])

            probe.start(0)
            return real(*args, progress=on_pair, **kwargs)

        argv = [
            "check-equivalence", "--max-vertices", str(nv), "--max-flags", str(nf),
            "--apex-bound", str(ab), "-o", self.out_path,
        ]
        err = io.StringIO()
        cli.check_equivalence = timed_check_equivalence
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            cli.check_equivalence = real
        try:
            with open(self.out_path) as fh:
                lines = fh.read().splitlines()
        finally:
            os.remove(self.out_path)
        header = json.loads(lines[0])
        rows = [json.loads(line) for line in lines[1:]]
        counts = {
            "graphs": len(header["graphs"]),
            "pairs": len(rows),
            "morphisms": sum(r["bm_count"] for r in rows),
        }
        gate.expect("exit status", code, 0)
        for key, want in self.EXPECT[self.size].items():
            gate.expect(key, counts[key], want)
        gate.expect("pairs reported", pair[0], counts["pairs"])
        gate.expect(
            "cospans", sum(r["cospan_count"] for r in rows), counts["morphisms"]
        )
        gate.tally(
            "rows with bijection_verified",
            len(rows),
            sum(1 for r in rows if not r["bijection_verified"]),
        )
        summary = err.getvalue().splitlines()[-1] if err.getvalue() else ""
        gate.check(summary.endswith("all pairs pass"), f"summary line {summary!r}")
        return counts


# -- bm-laws --------------------------------------------------------------------------


class BmLaws:
    """Factorisation, unique comparison and associativity around each
    sampled vertex/flag morphism h of the window's hom matrix."""

    name = "bm-laws"
    # window and sampling stride per size
    SIZES = {"bench": ((2, 4), 5), "tiny": ((1, 3), 2), "full": ((2, 4), 1)}
    EXPECT = {
        "bench": {"graphs": 33, "morphisms": 993},
        "tiny": {"graphs": 7, "morphisms": 29},
        "full": {"graphs": 33, "morphisms": 993},
    }
    # exhaustive totals asserted by tests/test_acceptance.py
    REFERENCE = {"units": 993, "comparisons": 81340, "triples": 736417}

    def __init__(self, size: str, seed: int, out_dir):
        self.size = size
        window, stride = self.SIZES[size]
        graphs = enumerate_bm_graphs(*window)
        n = len(graphs)
        homs = {
            (i, j): enumerate_bm_morphisms(a, b)
            for i, a in enumerate(graphs)
            for j, b in enumerate(graphs)
        }
        grafts = {k: [m for m in ms if classify_bm(m).is_grafting] for k, ms in homs.items()}
        comps = {k: [m for m in ms if classify_bm(m).is_compression] for k, ms in homs.items()}
        into = [sum(len(homs[(a, i)]) for a in range(n)) for i in range(n)]
        out_of = [sum(len(homs[(j, d)]) for d in range(n)) for j in range(n)]

        # factorisation candidates: a middle inherits tau's vertex and
        # flag counts and rho's tail count
        candidates = {}
        for (i, j), ms in homs.items():
            if not ms:
                continue
            tau, rho = graphs[i], graphs[j]
            mids = [
                k
                for k, m in enumerate(graphs)
                if len(m.vertices) == len(tau.vertices)
                and len(m.flags) == len(tau.flags)
                and len(bm_tails(m)) == len(bm_tails(rho))
            ]
            candidates[(i, j)] = [
                (g, c) for k in mids for g in grafts[(i, k)] for c in comps[(k, j)]
            ]

        def cost(i, j, h):
            """Estimated work for h: the associativity triples around it,
            the factorisation candidates, and the comparisons, which grow
            with the square of its ghost graph's automorphism count."""
            ghost = factorise_bm(h)[0]
            auts = len(find_bm_isomorphisms(ghost, ghost))
            return into[i] * out_of[j] + len(candidates[(i, j)]) + 50 * (1 + auts) ** 2

        units = sorted(
            (cost(i, j, h), i, j, k) for (i, j), ms in homs.items() for k, h in enumerate(ms)
        )
        self.sample = [(i, j, homs[(i, j)][k]) for _, i, j, k in _stratified_sample(units, stride, seed)]
        self.graphs, self.homs, self.candidates = graphs, homs, candidates
        self.expected_triples = sum(into[i] * out_of[j] for i, j, _ in self.sample)

    def run(self, probe: Probe, gate: Gate) -> dict:
        n = len(self.graphs)
        homs = self.homs
        comparisons = triples = 0
        for unit, (i, j, h) in enumerate(self.sample):
            probe.start(unit)
            mid0, g0, c0 = factorise_bm(h)
            gate.check(
                classify_bm(g0).is_grafting
                and classify_bm(c0).is_compression
                and compose_bm(g0, c0) == h,
                f"factorisation of unit {unit}",
            )
            facts = [(mid0, g0, c0)] + [
                (g.target, g, c) for g, c in self.candidates[(i, j)] if compose_bm(g, c) == h
            ]
            bad = 0
            for m1, ga, ca in facts:
                for m2, gb, cb in facts:
                    count = sum(
                        1
                        for u in find_bm_isomorphisms(m1, m2)
                        if compose_bm(ga, u) == gb and compose_bm(u, cb) == ca
                    )
                    bad += count != 1
            gate.tally(f"unique comparison at unit {unit}", len(facts) ** 2, bad)
            comparisons += len(facts) ** 2
            done = bad = 0
            for a in range(n):
                for h1 in homs[(a, i)]:
                    left = compose_bm(h1, h)
                    for d in range(n):
                        for h3 in homs[(j, d)]:
                            bad += compose_bm(left, h3) != compose_bm(h1, compose_bm(h, h3))
                            done += 1
            gate.tally(f"associativity at unit {unit}", done, bad)
            triples += done
            probe.stop()
        counts = {
            "graphs": n,
            "morphisms": sum(len(ms) for ms in homs.values()),
            "units": len(self.sample),
            "comparisons": comparisons,
            "triples": triples,
        }
        for key, want in self.EXPECT[self.size].items():
            gate.expect(key, counts[key], want)
        gate.expect("triples", triples, self.expected_triples)
        if self.size == "full":
            for key, want in self.REFERENCE.items():
                gate.expect(key, counts[key], want)
        return counts


# -- pushout --------------------------------------------------------------------------


class Pushout:
    """Pushouts of a refinement against a reduced cover, and the unique
    mediating refinement of every cocone; one unit is one span."""

    name = "pushout"
    SIZES = {"bench": ((2, 4), 8), "tiny": ((2, 2), 2), "full": ((2, 4), 1)}
    EXPECT = {
        "bench": {"graphs": 32, "spans": 1718},
        "tiny": {"graphs": 10, "spans": 42},
        "full": {"graphs": 32, "spans": 1718},
    }
    # exhaustive totals: spans as in tests/test_acceptance.py, cocones as
    # counted by the seed library (the test asserts at least 1500)
    REFERENCE = {"units": 1718, "cocones": 1718}

    def __init__(self, size: str, seed: int, out_dir):
        self.size = size
        window, stride = self.SIZES[size]
        jks = [g for g in (phi1_graph(b) for b in enumerate_bm_graphs(*window)) if is_effective(g)]
        self.covers = [covers_from(g) for g in jks]
        spans = [
            (gen, rc, s)
            for r, R in enumerate(jks)
            for s, S in enumerate(jks)
            for gen in enumerate_refinements(R, S)
            for rc in self.covers[r]
        ]
        self.population = {"graphs": len(jks), "spans": len(spans)}
        self.sample = _stratified_sample(spans, stride, seed)

    def run(self, probe: Probe, gate: Gate) -> dict:
        cocones = 0
        for unit, (gen, rc, s) in enumerate(self.sample):
            probe.start(unit)
            gen2, rc2 = pushout_gen_rc(gen, rc)
            gate.check(
                gen2.source == rc.target and rc2.source == gen.target,
                f"pushout square of unit {unit}",
            )
            for w in self.covers[s]:
                T = w.target
                pool = None
                for v in enumerate_refinements(rc.target, T):
                    if not kleisli_equal(
                        compose_cover_then_refinement(rc, v), KleisliMorphism(gen, w.morphism)
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
                            compose_cover_then_refinement(rc2, m), free_kleisli(w.morphism)
                        )
                    )
                    gate.check(count == 1, f"mediating refinement at unit {unit}")
            probe.stop()
        counts = dict(self.population, units=len(self.sample), cocones=cocones)
        for key, want in self.EXPECT[self.size].items():
            gate.expect(key, counts[key], want)
        if self.size == "full":
            for key, want in self.REFERENCE.items():
                gate.expect(key, counts[key], want)
        return counts


# -- monad ----------------------------------------------------------------------------

# b: in -> out and m: in, in -> out, as in the acceptance test
SP2 = GraphicalSpecies(
    colours=frozenset({"in", "out"}),
    colour_involution={"in": "out", "out": "in"},
    operations={"b": ("in", "out"), "m": ("in", "in", "out")},
)


def _edge_colourings(sp, g):
    """Every arc colouring constant on flags and swapped across edges."""
    eds = sorted(tuple(sorted(e)) for e in edges(g))
    for combo in itertools.product(sorted(sp.colours), repeat=len(eds)):
        col = {}
        for (a, b), c in zip(eds, combo):
            col[a] = c
            col[b] = sp.colour_involution[c]
        yield col


def _left_unit_exact(sp, S, dec_S) -> bool:
    """Grafting an element into a bare corolla and flattening returns
    the element on the nose once the piece prefix is stripped."""
    n = len(ports(S))
    outer_col = {}
    for k in range(1, n + 1):
        c = dec_S.arc_colouring[str(k)]
        outer_col[str(k)] = c
        outer_col[str(k) + "*"] = sp.colour_involution[c]
    bij = {str(k): str(k) for k in range(1, n + 1)}
    ref, dec_out = monad_mult_element(sp, corolla(n), outer_col, {"v": (S, bij)}, {"v": dec_S})
    strip = {a: a.removeprefix("v.") for a in ref.target.arcs}
    back = relabel(
        ref.target,
        strip,
        {f: f.removeprefix("v.") for f in ref.target.flags},
        {w: w.removeprefix("v.") for w in ref.target.vertices},
    )
    relabeled = {
        w.removeprefix("v."): VertexLabel(l.operation, tuple(strip[a] for a in l.arcs_by_slot))
        for w, l in dec_out.vertex_labels.items()
    }
    return (
        back == S
        and {strip[a]: c for a, c in dec_out.arc_colouring.items()} == dec_S.arc_colouring
        and relabeled == dec_S.vertex_labels
    )


def _right_unit_holds(sp, R, dec_R) -> bool:
    """Replacing every vertex by the unit corolla of its own label
    flattens back to the original decorated graph."""
    assignment = {}
    decorations = {}
    for x in sorted(R.vertices):
        label = dec_R.vertex_labels[x]
        gx, dx = monad_unit(sp, label.operation)
        assignment[x] = (gx, {str(k): a for k, a in enumerate(label.arcs_by_slot, start=1)})
        decorations[x] = dx
    ref, dec_back = monad_mult_element(sp, R, dec_R.arc_colouring, assignment, decorations)
    return decorated_isomorphic(sp, ref.target, dec_back, R, dec_R)


def _nested_flatten_agrees(sp, outer, outer_col, middles, inner_assigns, inner_decs) -> bool:
    """Flatten a three-layer stack inner layers first and outer layers
    first; both must give isomorphic valid decorated graphs."""
    outer_assign = {}
    outer_decs = {}
    for x in sorted(outer.vertices):
        mid, bij, mcol = middles[x]
        ref1, dec1 = monad_mult_element(sp, mid, mcol, inner_assigns[x], inner_decs[x])
        outer_assign[x] = (ref1.target, {ref1.arc_map[q]: bij[q] for q in sorted(ports(mid))})
        outer_decs[x] = dec1
    ref_a, dec_a = monad_mult_element(sp, outer, outer_col, outer_assign, outer_decs)

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
            assign_b[x + "." + w] = (gw, {q: rscover.arc_map[x + "." + a] for q, a in bijw.items()})
            decs_b[x + "." + w] = inner_decs[x][w]
    ref_b, dec_b = monad_mult_element(sp, rsref.target, col_rs, assign_b, decs_b)
    return (
        validate_decoration(sp, ref_a.target, dec_a).ok
        and validate_decoration(sp, ref_b.target, dec_b).ok
        and decorated_isomorphic(sp, ref_a.target, dec_a, ref_b.target, dec_b)
    )


class Monad:
    """Generation of the truncated free monad on SP2, its unit laws, and
    flattening associativity over every three-layer stack; one unit is
    one law instance.  Nothing is sampled."""

    name = "monad"
    # outer ports and vertices, middle-piece vertices, truncation configs
    SIZES = {
        "bench": (3, 3, 2, ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2))),
        "tiny": (2, 2, 1, ((1, 1), (2, 1))),
        "full": (3, 3, 2, ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2))),
    }
    EXPECT = {
        "bench": {"outers": 46, "elements": 32, "unit_laws": 56, "stacks": 666},
        "tiny": {"outers": 11, "elements": 6, "unit_laws": 8, "stacks": 36},
        "full": {"outers": 46, "elements": 32, "unit_laws": 56, "stacks": 666},
    }

    def __init__(self, size: str, seed: int, out_dir):
        self.size = size

    def run(self, probe: Probe, gate: Gate) -> dict:
        sp = SP2
        max_ports, max_v, mid_v, configs = self.SIZES[self.size]
        outers = [
            g
            for p in range(max_ports + 1)
            for g in graphs_with_ports([2, 3], p, max_v)
            if g.vertices
        ]
        # bare edges are not substitutable pieces
        pool = {k: [g for g in graphs_with_ports([2, 3], k, mid_v) if g.vertices] for k in (2, 3)}
        elements = [e for n_ports, v in configs for e in truncated_free(sp, n_ports, v)]

        unit = 0
        unit_laws = 0
        for S, dec_S in elements:
            if not S.vertices:
                continue
            for law in (_left_unit_exact, _right_unit_holds):
                probe.start(unit)
                gate.check(law(sp, S, dec_S), f"{law.__name__} at unit {unit}")
                probe.stop()
                unit += 1
                unit_laws += 1

        @functools.cache
        def middle_options(k, iface_cols):
            opts = []
            for mid in pool[k]:
                mid_ports = sorted(ports(mid))
                for mcol in _edge_colourings(sp, mid):
                    if all(mcol[mid_ports[i]] == iface_cols[i] for i in range(k)):
                        opts.append((mid, mcol))
            return opts

        @functools.cache
        def inner_options(j, iface_cols):
            return [
                dec
                for dec in evaluate_species(sp, corolla(j))
                if all(dec.arc_colouring[str(i + 1)] == iface_cols[i] for i in range(j))
            ]

        stacks = 0
        for outer in outers:
            vs = sorted(outer.vertices)
            ifaces = {x: sorted(local_interface(outer, x)) for x in vs}
            for col in _edge_colourings(sp, outer):
                per_vertex = [
                    middle_options(len(ifaces[x]), tuple(col[a] for a in ifaces[x])) for x in vs
                ]
                for combo in itertools.product(*per_vertex):
                    if sum(len(m.vertices) for m, _ in combo) > 3:
                        continue
                    middles = {}
                    inner_lists = []
                    for x, (mid, mcol) in zip(vs, combo):
                        middles[x] = (mid, dict(zip(sorted(ports(mid)), ifaces[x])), mcol)
                        for w in sorted(mid.vertices):
                            iface_w = sorted(local_interface(mid, w))
                            opts = inner_options(len(iface_w), tuple(mcol[a] for a in iface_w))
                            inner_lists.append((x, w, iface_w, opts))
                    for decs in itertools.product(*(opts for *_, opts in inner_lists)):
                        probe.start(unit)
                        inner_assigns = {x: {} for x in vs}
                        inner_decs = {x: {} for x in vs}
                        for (x, w, iface_w, _), dec in zip(inner_lists, decs):
                            inner_assigns[x][w] = (
                                corolla(len(iface_w)),
                                {str(k): a for k, a in enumerate(iface_w, start=1)},
                            )
                            inner_decs[x][w] = dec
                        gate.check(
                            _nested_flatten_agrees(sp, outer, col, middles, inner_assigns, inner_decs),
                            f"nested flattening at unit {unit}",
                        )
                        probe.stop()
                        unit += 1
                        stacks += 1
        counts = {
            "outers": len(outers),
            "elements": len(elements),
            "unit_laws": unit_laws,
            "stacks": stacks,
        }
        for key, want in self.EXPECT[self.size].items():
            gate.expect(key, counts[key], want)
        return counts


WORKLOADS = {w.name: w for w in (Equivalence, BmLaws, Pushout, Monad)}
