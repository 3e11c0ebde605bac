"""Per-layer tracing of grafcat from outside its source.

A Tracer replaces every module-level binding of each function in
TRACED, in every loaded ``grafcat.*`` module and in the benchmark's own
modules that call them, with a wrapper that records a span per call.  The modules import each other with ``from .x import f``, so one
function has several bindings (``oracle.cospan_equal`` is its own name
for ``cospan_equiv.cospan_equal``); all of them are replaced, and
uninstall() puts every original back.

A span is (id, parent id, unit id, name, start, end).  Calls with no
traced callee are hot leaves; they are aggregated per (name, parent
span) instead of stored one by one, which bounds memory on workloads
that make millions of such calls.  Self time is a call's duration minus
the time covered by its traced callees.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

# module -> traced public functions, in report order
TRACED = {
    "oracle": [
        "enumerate_bm_graphs",
        "enumerate_bm_morphisms",
        "enumerate_refinements",
        "enumerate_cospans",
        "covers_from",
        "check_pair",
    ],
    "bm": [
        "compose_bm",
        "factorise_bm",
        "classify_bm",
        "find_bm_isomorphisms",
        "is_bm_isomorphic",
        "validate_bm_morphism",
    ],
    "cospan_equiv": ["cospan_equal", "phi", "phi_inv", "phi1_graph", "validate_cospan"],
    "graph_core": ["find_isomorphisms", "is_isomorphic"],
    "etale": ["replay_gluings", "glue_ports"],
    "kleisli": [
        "pushout_gen_rc",
        "kleisli_equal",
        "transport_refinement",
        "compose_cover_then_refinement",
        "compose_refinements",
        "validate_refinement",
    ],
    "species": [
        "graphs_with_ports",
        "truncated_free",
        "evaluate_species",
        "decorated_isomorphic",
        "monad_unit",
        "monad_mult_element",
    ],
    "cli": ["main"],
    "jsonio": ["dumps_line"],
}

# extra statistic per function: (stat, value taken from each result,
# divided by the call count or not)
RATIOS = {
    "oracle.enumerate_bm_morphisms": ("kept", len, False),
    "oracle.enumerate_refinements": ("kept", len, False),
    "oracle.enumerate_cospans": ("kept", len, False),
    "bm.find_bm_isomorphisms": ("isos_per_call", len, True),
    "bm.validate_bm_morphism": ("ok_frac", lambda r: r.ok, True),
    "cospan_equiv.cospan_equal": ("true_frac", bool, True),
    "graph_core.find_isomorphisms": ("isos_per_call", len, True),
    "graph_core.is_isomorphic": ("true_frac", bool, True),
    "kleisli.kleisli_equal": ("true_frac", bool, True),
    "kleisli.validate_refinement": ("ok_frac", lambda r: r.ok, True),
    "species.graphs_with_ports": ("kept", len, False),
    "species.truncated_free": ("kept", len, False),
    "species.decorated_isomorphic": ("true_frac", bool, True),
}

STAT_UNITS = {
    "calls": "count",
    "total_s": "s",
    "self_s": "s",
    "kept": "count",
    "isos_per_call": "iso/call",
    "true_frac": "ratio",
    "ok_frac": "ratio",
}


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def layer_metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-function statistic."""
    out = []
    for name in traced_names():
        stats = ["calls", "total_s", "self_s"]
        if name in RATIOS:
            stats.append(RATIOS[name][0])
        out.extend((f"{name}.{s}", STAT_UNITS[s]) for s in stats)
    return out


class Tracer:
    """Spans and per-function statistics for one traced process."""

    def __init__(self):
        self.unit = None  # id of the unit check in progress, set by the workload
        self._stack = []  # open calls: [span id, child seconds, has children]
        self._next_id = 1
        self.spans = []
        self.leaves = {}  # (name, parent id) -> [calls, seconds]
        # name -> [calls, total_s, self_s, ratio sum]
        self.stats = {name: [0, 0.0, 0.0, 0] for name in traced_names()}
        self._patches = []

    # -- installing ---------------------------------------------------------

    def install(self, callers=()):
        """Wrap the traced functions in every loaded grafcat module and
        in the given caller modules (the benchmark's own)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name in traced_names():
            mod, fn_name = name.split(".")
            fn = getattr(importlib.import_module("grafcat." + mod), fn_name)
            ratio = RATIOS.get(name)
            wrappers[id(fn)] = (fn, self._wrap(name, fn, ratio[1] if ratio else None))
        modules = [
            module
            for mod_name, module in list(sys.modules.items())
            if mod_name == "grafcat" or mod_name.startswith("grafcat.")
        ]
        for module in modules + list(callers):
            namespace = vars(module)
            for key, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[key] = hit[1]
                    self._patches.append((namespace, key, value))

    def uninstall(self):
        while self._patches:
            namespace, key, original = self._patches.pop()
            namespace[key] = original

    def _wrap(self, name, fn, extract):
        stack = self._stack
        stat = self.stats[name]
        leaves = self.leaves
        spans = self.spans
        clock = time.perf_counter
        active = [0]  # open calls of this function, so recursion counts once in total_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else None
            unit = self.unit
            frame = [span_id, 0.0, False]
            stack.append(frame)
            active[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if extract is not None:
                    stat[3] += extract(result)
                return result
            finally:
                end = clock()
                stack.pop()
                active[0] -= 1
                dur = end - start
                stat[0] += 1
                if not active[0]:
                    stat[1] += dur
                stat[2] += dur - frame[1]
                parent_id = None
                if parent is not None:
                    parent[1] += dur
                    parent[2] = True
                    parent_id = parent[0]
                if frame[2]:
                    spans.append((span_id, parent_id, unit, name, start, end))
                else:
                    leaf = leaves.get((name, parent_id))
                    if leaf is None:
                        leaves[(name, parent_id)] = [1, dur]
                    else:
                        leaf[0] += 1
                        leaf[1] += dur

        return traced

    # -- reading ------------------------------------------------------------

    def snapshot(self) -> dict[str, list]:
        return {name: list(s) for name, s in self.stats.items()}

    def metrics(self, since: dict[str, list] | None = None) -> dict[str, float]:
        """Per-function statistics, optionally as the change since a
        snapshot."""
        out = {}
        for name, (calls, total, self_s, ratio_sum) in self.stats.items():
            if since is not None:
                c0, t0, s0, r0 = since[name]
                calls, total, self_s, ratio_sum = calls - c0, total - t0, self_s - s0, ratio_sum - r0
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
            if name in RATIOS:
                stat, _, per_call = RATIOS[name]
                if per_call:
                    out[f"{name}.{stat}"] = ratio_sum / calls if calls else 0.0
                else:
                    out[f"{name}.{stat}"] = ratio_sum
        return out

    def dump(self, path):
        """Write spans and aggregated leaves as gzipped JSON."""
        doc = {
            "span_fields": ["id", "parent", "unit", "name", "start", "end"],
            "spans": self.spans,
            "leaf_fields": ["name", "parent", "calls", "seconds"],
            "leaves": [[n, p, c, s] for (n, p), (c, s) in self.leaves.items()],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
