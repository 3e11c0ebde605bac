"""The tracer sees every call of the traced equivalence workload, and
leaves no wrapper behind.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from tracer import Tracer, traced_names  # noqa: E402


def originals() -> dict:
    import importlib

    out = {}
    for name in traced_names():
        mod, fn = name.split(".")
        out[name] = getattr(importlib.import_module("grafcat." + mod), fn)
    return out


def bindings(functions) -> dict:
    """Every module-level binding, in grafcat and in the workloads, whose
    value is one of the given functions: (module, key) -> value."""
    wanted = {id(f) for f in functions}
    modules = [m for n, m in sys.modules.items() if n == "grafcat" or n.startswith("grafcat.")]
    found = {}
    for module in modules + [workloads]:
        for key, value in vars(module).items():
            if id(value) in wanted:
                found[(module.__name__, key)] = value
    return found


def test_traced_equivalence_counts_every_call(tmp_path):
    fns = originals()
    before = bindings(fns.values())
    assert ("grafcat.oracle", "cospan_equal") in before

    tracer = Tracer()
    tracer.install(callers=[workloads])
    try:
        missed = bindings(fns.values())
        gate = workloads.Gate()
        workloads.Equivalence("bench", 1, tmp_path).run(workloads.Probe(tracer), gate)
    finally:
        tracer.uninstall()

    assert missed == {}, f"bindings left unwrapped: {sorted(missed)}"
    assert gate.failed == 0, gate.problems
    m = tracer.metrics()
    assert m["oracle.check_pair.calls"] == 1089
    assert m["oracle.enumerate_bm_morphisms.calls"] == 1089
    assert m["cospan_equiv.cospan_equal.calls"] == 18456
    assert m["graph_core.find_isomorphisms.calls"] == 18456
    assert m["cli.main.calls"] == 1
    assert 0 < m["cospan_equiv.cospan_equal.self_s"] < m["cospan_equiv.cospan_equal.total_s"]
    assert tracer.spans and tracer.leaves
    # every wrapper is gone again
    assert bindings(fns.values()) == before
