"""Every module of the package imports first, in a fresh interpreter: an
import cycle between the modules shows only for some import orders.  And
every public top-level name of the package is used by something other
than the tests.  And no module of the package builds an edge anew as an
unordered pair."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
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


# Category identities and units: nothing in the package builds them, and
# the tests check the identity and unit laws on them.
TEST_ONLY = {"bm.bm_identity", "bm.bm_point", "cospan_equiv.identity_cospan"}


def public_names(node: ast.stmt) -> list[str]:
    """The public names that a top-level statement defines: a function,
    a class, or the targets of an assignment.  Names with a leading
    underscore, dunders such as __version__ among them, are private."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def test_every_public_name_is_used_outside_the_tests():
    """A public top-level function, class or constant of src/grafcat must
    be named somewhere other than its own definition: in the package, a
    demo, or the benchmark (perfbench/ without its tests)."""
    users = [*(ROOT / "demos").glob("*.py")]
    bench = ROOT / "perfbench"
    users += [p for p in bench.rglob("*.py") if "tests" not in p.relative_to(bench).parts]
    outside = "\n".join(p.read_text() for p in users)
    unused = []
    for path in sorted((SRC / "grafcat").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        others = "\n".join(p.read_text() for p in (SRC / "grafcat").glob("*.py") if p != path)
        for node in ast.parse(text).body:
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
            rest = "\n".join(lines[: first - 1] + lines[node.end_lineno :])
            for name in public_names(node):
                word = re.compile(rf"\b{name}\b")
                if not any(word.search(t) for t in (rest, others, outside)):
                    unused.append(f"{path.stem}.{name}")
    assert sorted(unused) == sorted(TEST_ONLY)


def sorts_each_item(key: ast.expr) -> bool:
    """key is sorted itself, or a lambda that calls sorted on its argument."""
    if isinstance(key, ast.Name):
        return key.id == "sorted"
    if not isinstance(key, ast.Lambda):
        return False
    params = {p.arg for p in key.args.args}
    return any(
        isinstance(n, ast.Call)
        and isinstance(n.func, ast.Name)
        and n.func.id == "sorted"
        and any(isinstance(a, ast.Name) and a.id in params for a in n.args)
        for n in ast.walk(key.body)
    )


def unordered_pair_offences(path: Path) -> list[str]:
    """Where a module builds an edge anew as an unordered pair, or sorts
    its edges by sorting each one: a frozenset(...) call on a two-element
    tuple, set or list display, and a sorted(...) call keyed by sorted or
    by a lambda that sorts its argument."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
            continue
        args = node.args
        if node.func.id == "frozenset":
            displays = (ast.Tuple, ast.Set, ast.List)
            if len(args) == 1 and isinstance(args[0], displays) and len(args[0].elts) == 2:
                found.append(f"{path.name}:{node.lineno}")
        elif node.func.id == "sorted":
            if any(kw.arg == "key" and sorts_each_item(kw.value) for kw in node.keywords):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_edges_keep_their_sorted_pair_form():
    """An edge is its sorted arc (or flag) pair everywhere in the package:
    only the image of an edge under a map is sorted, with tuple(sorted(...))."""
    offences = []
    for path in sorted((SRC / "grafcat").glob("*.py")):
        offences += unordered_pair_offences(path)
    assert offences == []
