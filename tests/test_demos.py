"""Every demo script, and the README's "A taste" example, runs to completion;
each demo prints exactly its golden output in tests/golden/demos."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], capture_output=True, text=True, env=ENV
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / demo).with_suffix(".txt").read_text()


def test_readme_taste_runs():
    readme = (ROOT / "README.md").read_text()
    taste = re.search(r"^## A taste\n\n```python\n(.*?)^```", readme, re.S | re.M)
    assert taste, "README.md has no python block under '## A taste'"
    proc = subprocess.run(
        [sys.executable, "-c", taste.group(1)], capture_output=True, text=True, env=ENV
    )
    assert proc.returncode == 0, proc.stderr
