"""Every demo script, and the README's "A taste" example, runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], capture_output=True, text=True, env=ENV
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_taste_runs():
    readme = (ROOT / "README.md").read_text()
    taste = re.search(r"^## A taste\n\n```python\n(.*?)^```", readme, re.S | re.M)
    assert taste, "README.md has no python block under '## A taste'"
    proc = subprocess.run(
        [sys.executable, "-c", taste.group(1)], capture_output=True, text=True, env=ENV
    )
    assert proc.returncode == 0, proc.stderr
