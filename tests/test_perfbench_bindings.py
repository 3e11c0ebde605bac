"""The benchmark under perfbench/ still finds every library name it
uses: its workloads import, every traced module.function resolves, and
every workload passes its gate at size tiny.  A name or attribute
removed from grafcat fails here, not only in a benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    """Import perfbench/<name>.py under a private module name."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_workloads_import():
    assert set(load("workloads").WORKLOADS) == {"equivalence", "bm-laws", "pushout", "monad"}


def test_traced_names_resolve():
    names = load("tracer").traced_names()
    assert names
    for name in names:
        mod, fn = name.split(".")
        assert callable(getattr(importlib.import_module("grafcat." + mod), fn, None)), name


@pytest.mark.parametrize("name", ["equivalence", "bm-laws", "pushout", "monad"])
def test_tiny_workload_passes_its_gate(name, tmp_path):
    workloads = load("workloads")
    cls = workloads.WORKLOADS[name]
    gate = workloads.Gate()
    counts = cls("tiny", 3, str(tmp_path)).run(workloads.Probe(), gate)
    assert (gate.failed, gate.problems) == (0, [])
    assert {k: counts[k] for k in cls.EXPECT["tiny"]} == cls.EXPECT["tiny"]
