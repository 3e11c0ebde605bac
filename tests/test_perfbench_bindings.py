"""The benchmark under perfbench/ still finds every library name it
uses: its workloads import, and every traced module.function resolves.
A name removed from grafcat fails here, not only in a traced run."""

import importlib
import importlib.util
import sys
from pathlib import Path

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
