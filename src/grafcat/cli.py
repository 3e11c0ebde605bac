"""Command-line interface over the JSON file formats.

Subcommands validate documents, compose and factorise morphisms,
translate between the two encodings, compute pushouts, enumerate graphs,
count and compare hom-sets, and export DOT drawings.  Every run is
deterministic.  Exit status: 0 success, 1 validation failure (report
on stderr), 2 parse or usage error or output that cannot be written."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

from . import jsonio
from .bm import classify_bm, compose_bm, factorise_bm, validate_bm_graph, validate_bm_morphism
from .cospan_equiv import compose_cospan, phi, phi1_graph, validate_cospan
from .etale import (
    compose_etale,
    is_injective_etale,
    is_reduced_cover,
    validate_etale,
    validate_reduced_cover,
)
from .graph_core import JKGraph, edges, validate_graph
from .kleisli import compose_refinements, pushout_gen_rc, validate_refinement
from .oracle import check_equivalence, check_pair, enumerate_bm_graphs
from .species import validate_species


class _Failure(Exception):
    """A validation failure: report goes to stderr, exit status 1."""

    def __init__(self, problems):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


class _Unwritable(Exception):
    """The output cannot be opened or written: exit status 2."""


@contextlib.contextmanager
def _open_output(output: str | None):
    """Where a command writes: stdout, or the -o file opened now so that an
    unwritable path is reported before any work; so is a failed write."""
    name = "<stdout>" if output is None else output
    try:
        fh = sys.stdout if output is None else open(output, "w")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise _Unwritable(f"cannot write {name}: {exc}") from exc
    try:
        with contextlib.nullcontext() if output is None else fh:
            yield fh
            fh.flush()
    except OSError as exc:
        if output is None:  # stdout keeps the unwritten bytes: flush them to nowhere at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise _Unwritable(f"cannot write {name}: {exc}") from exc


def _write(text: str, output: str | None):
    with _open_output(output) as fh:
        fh.write(text)


_VALIDATORS = {
    "jk-graph": validate_graph,
    "bm-graph": validate_bm_graph,
    "bm-morphism": validate_bm_morphism,
    "etale": validate_etale,
    "refinement": validate_refinement,
    "cospan": validate_cospan,
    "species": validate_species,
}


def _load_checked(path: str, kinds: set[str]):
    kind, value = jsonio.load_document(path)
    if kind not in kinds:
        raise jsonio.JsonFormatError(
            f"{path}: expected one of {sorted(kinds)}, got {kind!r}"
        )
    report = _VALIDATORS[kind](value)
    if not report.ok:
        raise _Failure([f"{path}: {p}" for p in report.problems])
    return kind, value


def _cmd_validate(args) -> int:
    kind, value = jsonio.load_document(args.file)
    report = _VALIDATORS[kind](value)
    doc = {"kind": kind, "ok": report.ok, "problems": list(report.problems)}
    if report.ok and kind == "bm-morphism":
        fields = dataclasses.asdict(classify_bm(value))
        doc["classification"] = {name.removeprefix("is_"): v for name, v in fields.items()}
    if report.ok and kind == "etale":
        doc["classification"] = {
            "injective": is_injective_etale(value),
            "reduced-cover": is_reduced_cover(value),
        }
    _write(jsonio.dumps(doc), args.output)
    return 0 if report.ok else 1


def _cmd_compose(args) -> int:
    kind1, first = _load_checked(args.first, {"bm-morphism", "etale", "refinement", "cospan"})
    kind2, second = _load_checked(args.second, {kind1})
    try:
        if kind1 == "bm-morphism":
            doc = jsonio.bm_morphism_to_json(compose_bm(first, second))
        elif kind1 == "etale":
            doc = jsonio.etale_to_json(compose_etale(first, second))
        elif kind1 == "refinement":
            doc = jsonio.refinement_to_json(compose_refinements(first, second))
        else:
            doc = jsonio.cospan_to_json(compose_cospan(first, second))
    except ValueError as exc:
        raise _Failure([str(exc)])
    _write(jsonio.dumps(doc), args.output)
    return 0


def _cmd_factorise(args) -> int:
    _, m = _load_checked(args.file, {"bm-morphism"})
    middle, graft, compress = factorise_bm(m)
    doc = {
        "middle": jsonio.bm_graph_to_json(middle),
        "grafting": jsonio.bm_morphism_to_json(graft),
        "compression": jsonio.bm_morphism_to_json(compress),
    }
    _write(jsonio.dumps(doc), args.output)
    return 0


def _cmd_phi(args) -> int:
    _, m = _load_checked(args.file, {"bm-morphism"})
    _write(jsonio.dumps(jsonio.cospan_to_json(phi(m))), args.output)
    return 0


def _cmd_pushout(args) -> int:
    _, gen = _load_checked(args.refinement, {"refinement"})
    _, cover = _load_checked(args.cover, {"etale"})
    report = validate_reduced_cover(cover)
    if not report.ok:
        raise _Failure([f"{args.cover}: {p}" for p in report.problems])
    try:
        gen_out, rc_out = pushout_gen_rc(gen, cover)
    except ValueError as exc:
        raise _Failure([str(exc)])
    doc = {
        "refinement": jsonio.refinement_to_json(gen_out),
        "cover": jsonio.etale_to_json(rc_out),
    }
    _write(jsonio.dumps(doc), args.output)
    return 0


def _check_window(args):
    """A negative bound would silently make the window empty."""
    for flag, value in (("--max-vertices", args.max_vertices), ("--max-flags", args.max_flags)):
        if value < 0:
            args.error(f"{flag} {value} is negative")


def _cmd_enumerate(args) -> int:
    _check_window(args)
    graphs = enumerate_bm_graphs(args.max_vertices, args.max_flags)
    doc = [jsonio.bm_graph_to_json(g) for g in graphs]
    _write(jsonio.dumps(doc), args.output)
    return 0


def _check_bound(args, n_vertices: int):
    """Every apex has its source's vertex count, so a bound below a
    source's count would drop all its cospans and report false failures;
    any other bound changes nothing."""
    if args.bound is not None and args.bound < n_vertices:
        args.error(
            f"--apex-bound {args.bound} is below {n_vertices}, "
            "the vertex count of a source graph"
        )


def _pair_row(source: str, target: str, res) -> dict:
    """What hom-count and check-equivalence report of one pair."""
    return {
        "source": source,
        "target": target,
        "bm_count": res.bm_count,
        "cospan_count": res.cospan_count,
        "bijection_verified": res.ok,
    }


def _cmd_hom_count(args) -> int:
    _, tau = _load_checked(args.source, {"bm-graph"})
    _, rho = _load_checked(args.target, {"bm-graph"})
    with _open_output(args.output) as out:
        res = check_pair(tau, rho, 0, 1)
        out.write(jsonio.dumps(_pair_row(args.source, args.target, res)))
    return 0 if res.ok else 1


def _cmd_check_equivalence(args) -> int:
    _check_window(args)
    _check_bound(args, args.max_vertices)
    lines = []

    def progress(res):
        row = _pair_row(f"g{res.tau_index}", f"g{res.rho_index}", res)
        lines.append(jsonio.dumps_line(row))

    with _open_output(args.output) as out:
        report = check_equivalence(args.max_vertices, args.max_flags, progress=progress)
        header = {"graphs": [jsonio.bm_graph_to_json(g) for g in report.graphs]}
        out.write("\n".join([jsonio.dumps_line(header)] + lines) + "\n")

    widths = ("source", "target", "bm", "cospan", "ok")
    fmt = "{:>8} {:>8} {:>6} {:>8} {:>5}"
    print(fmt.format(*widths), file=sys.stderr)
    for res in report.pairs:
        print(
            fmt.format(
                f"g{res.tau_index}",
                f"g{res.rho_index}",
                res.bm_count,
                res.cospan_count,
                "pass" if res.ok else "FAIL",
            ),
            file=sys.stderr,
        )
    n_fail = sum(1 for res in report.pairs if not res.ok)
    print(
        f"{len(report.graphs)} graphs, {len(report.pairs)} pairs, "
        f"{report.total_bm} morphisms each way; "
        + (f"{n_fail} FAILURES" if n_fail else "all pairs pass"),
        file=sys.stderr,
    )
    return 1 if n_fail else 0


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _jk_dot(g: JKGraph) -> str:
    lines = ["graph {", "  node [shape=circle];"]
    for v in sorted(g.vertices):
        lines.append(f"  {_dot_quote(v)};")
    anchors = []
    links = []
    flag_of = {g.embed[f]: f for f in g.flags}

    def end(a: str) -> str:
        # an arc is drawn at its flag's vertex, or at an invisible anchor
        if a in flag_of:
            return _dot_quote(g.incidence[flag_of[a]])
        anchor = f"open:{a}"
        anchors.append(f"  {_dot_quote(anchor)} [shape=point, style=invis];")
        return _dot_quote(anchor)

    for a, b in sorted(edges(g)):
        links.append(f"  {end(a)} -- {end(b)} [label={_dot_quote(a + '~' + b)}];")
    return "\n".join(lines + sorted(set(anchors)) + links + ["}"]) + "\n"


def _cmd_export_dot(args) -> int:
    kind, value = _load_checked(args.file, {"jk-graph", "bm-graph"})
    _write(_jk_dot(value if kind == "jk-graph" else phi1_graph(value)), args.output)
    return 0


_BOUND_HELP = "must be at least every source graph's vertex count; has no other effect"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grafcat",
        description="Graphs with open-ended edges: validation, composition, "
        "factorisation, translation and exhaustive small-scale checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-o", "--output", default=None, help="write to this file instead of stdout")
        p.set_defaults(fn=fn, error=p.error)
        return p

    p = add("validate", _cmd_validate, "check a document against its kind's laws")
    p.add_argument("file")

    p = add("compose", _cmd_compose, "compose two morphisms of the same kind (first, then second)")
    p.add_argument("first")
    p.add_argument("second")

    p = add("factorise", _cmd_factorise, "split a morphism into a grafting then a compression")
    p.add_argument("file")

    p = add("phi", _cmd_phi, "translate a vertex/flag morphism into a cover/refinement cospan")
    p.add_argument("file")

    p = add("pushout", _cmd_pushout, "push a refinement out along a reduced cover")
    p.add_argument("refinement")
    p.add_argument("cover")

    p = add("enumerate", _cmd_enumerate, "list all graphs within bounds, one per iso class")
    p.add_argument("--max-vertices", type=int, required=True)
    p.add_argument("--max-flags", type=int, required=True)

    p = add("hom-count", _cmd_hom_count, "count morphisms and cospans between two graphs")
    p.add_argument("source")
    p.add_argument("target")

    p = add(
        "check-equivalence",
        _cmd_check_equivalence,
        "compare hom-sets against cospans over every pair of graphs in bounds",
    )
    p.add_argument("--max-vertices", type=int, required=True)
    p.add_argument("--max-flags", type=int, required=True)
    p.add_argument("--apex-bound", dest="bound", type=int, default=None, help=_BOUND_HELP)

    p = add("export-dot", _cmd_export_dot, "draw a graph in DOT format")
    p.add_argument("file")

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (jsonio.JsonFormatError, _Unwritable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _Failure as exc:
        print(jsonio.dumps({"ok": False, "problems": exc.problems}), file=sys.stderr, end="")
        return 1


if __name__ == "__main__":
    sys.exit(main())
