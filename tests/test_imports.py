"""Every module of the package imports first, in a fresh interpreter: an
import cycle between the modules shows only for some import orders."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p.stem for p in (SRC / "grafcat").glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    name = "grafcat" if module == "__init__" else f"grafcat.{module}"
    proc = subprocess.run(
        [sys.executable, "-c", f"import {name}"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
