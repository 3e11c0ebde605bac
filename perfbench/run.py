"""Benchmark driver for grafcat.

    python3 perfbench/run.py --workload equivalence --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another
    python3 perfbench/run.py --workload pushout --trace 1   # per-layer numbers
    python3 perfbench/run.py --workload bm-laws --size full # the exhaustive window

Each workload runs in fresh single-threaded Python processes, one at a
time (see child.py).  A timed run (--trace 0) starts a few set-up-only
processes, then whole workload processes until --seconds is used up,
and reports medians.  A traced run (--trace 1) alternates an untraced
and a traced process and reports per-layer statistics and the tracing
overhead.  Every verdict and count is checked; the last line of stdout
is one JSON object with keys correct, attempted, failed and metrics,
and the exit status is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import TRACED, layer_metric_names, traced_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

PROBES = 4  # set-up-only processes per timed run
REF_SPEED_MS = 1.0  # times are reported as if the speed snippet took this long
HARD_STOP_S = 150  # start no process after this long, whatever --seconds says
KILL_S = 170  # end any process still running this long after the run began

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "check_p50_ms": "ms",
    "check_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class ChildFailed(Exception):
    pass


def spawn(workload, seed, size, deadline, *, setup_only=False, trace_file=None) -> dict:
    """Run child.py once, killing it at the deadline (a CLOCK_MONOTONIC
    reading), and return its JSON report plus its wall time."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--size", size,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    # a fixed hash seed makes set iteration order, and so search order, repeat
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    spawned = time.monotonic()
    cmd += ["--spawned-at", repr(spawned)]
    timeout = max(deadline - spawned, 1.0)
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload}: process timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{workload}: process exited {proc.returncode}\n{proc.stderr[-3000:]}")
    doc = json.loads(proc.stdout)
    doc["wall_s"] = time.monotonic() - spawned
    return doc


def speed_scale(doc: dict) -> float:
    """The factor that turns one process's wall times into reference
    times: the host's speed drifts by tens of percent over minutes, and
    the speed snippet (workloads.Probe) slows down with it."""
    return REF_SPEED_MS / statistics.median(doc["speed_ms"])


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def check_reps(reps: list[dict]) -> tuple[int, int, list[str]]:
    """Sum the checks of all workload processes; differing counts
    between processes of one run count as one more failure."""
    attempted = sum(r["attempted"] for r in reps) + 1  # + the agreement check
    failed = sum(r["failed"] for r in reps)
    problems = [p for r in reps for p in r["problems"]]
    if any(r["counts"] != reps[0]["counts"] for r in reps):
        failed += 1
        problems.append("counts differ between processes of one run")
    return attempted, failed, problems


def timed_run(workload, seed, seconds, size) -> dict:
    start = time.monotonic()
    deadline = start + KILL_S
    probes = [spawn(workload, seed, size, deadline, setup_only=True) for _ in range(PROBES)]
    min_reps = 1 if size == "full" else 2
    reps = []
    while True:
        reps.append(spawn(workload, seed, size, deadline))
        elapsed = time.monotonic() - start
        typical = statistics.median(r["wall_s"] for r in reps)
        if elapsed > HARD_STOP_S or (len(reps) >= min_reps and elapsed + typical > seconds):
            break
    with open(OUT / f"run-{workload}-seed{seed}.json", "w") as fh:
        json.dump({"probes": probes, "reps": reps}, fh)
    setups = [d["setup_s"] * speed_scale(d) for d in probes + reps]
    verdicts = [r["verdict_s"] * speed_scale(r) for r in reps]
    # every process checks the same units in the same order; a unit's
    # latency is the fastest of its measurements, which drops pauses the
    # host imposed on one process but not on the next
    lat = sorted(
        min(xs) for xs in zip(*([x * speed_scale(r) for x in r["latencies_ms"]] for r in reps))
    )
    p50, _ = percentile(lat, 0.50)
    p99, beyond = percentile(lat, 0.99)
    attempted, failed, problems = check_reps(reps)
    metrics = {
        "setup_s": statistics.median(setups),
        "verdict_s": statistics.median(verdicts),
        "check_p50_ms": p50,
        "check_p99_ms": p99,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    notes = {
        "setup_s": "median of %d set-ups, quartiles %.4f..%.4f" % (len(setups), *quartiles(setups)),
        "verdict_s": "median of %d, min %.4f max %.4f; wall %.4f at host speed %.3f"
        % (
            len(verdicts), min(verdicts), max(verdicts),
            statistics.median(r["verdict_s"] for r in reps),
            statistics.median(1 / speed_scale(r) for r in reps),
        ),
        "check_p50_ms": f"{len(lat)} units, fastest of {len(reps)} measurements each",
        "check_p99_ms": f"{len(lat)} units, {beyond} beyond it",
        "peak_rss_mb": f"median of {len(reps)}",
    }
    lines = [f"workload {workload}, seed {seed}, size {size}: {len(reps)} workload processes"]
    for name, value in metrics.items():
        lines.append(f"  {name:<14}{value:>12.4f} {END_TO_END[name]:<3} {notes[name]}")
    lines.append(f"  {'failed_frac':<14}{failed / attempted:>12.4f}     {failed} of {attempted} checks")
    lines.append("  counts " + " ".join(f"{k}={v}" for k, v in reps[0]["counts"].items()))
    lines += [f"  FAILED: {p}" for p in problems]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }
    return {"lines": lines, "result": result}


def module_report(rep: dict) -> list[str]:
    """Self time per module and its busiest functions, as shares of the
    traced verdict; then the largest inclusive times, and what set-up
    spent in traced functions."""
    verdict_s, layers = rep["verdict_s"], rep["verdict_layers"]
    lines = [f"  {'module':<14}{'self_s':>10}{'share':>8}   busiest functions (self s / calls)"]
    covered = 0.0
    for mod, fns in TRACED.items():
        stats = [(layers[f"{mod}.{fn}.self_s"], fn, layers[f"{mod}.{fn}.calls"]) for fn in fns]
        total = sum(s for s, _, _ in stats)
        covered += total
        top = sorted((st for st in stats if st[2]), reverse=True)[:3]
        desc = ", ".join(f"{fn} {s:.3f}/{calls}" for s, fn, calls in top) or "no calls"
        lines.append(f"  {mod:<14}{total:>10.3f}{total / verdict_s:>8.1%}   {desc}")
    rest = verdict_s - covered
    lines.append(f"  {'(untraced)':<14}{rest:>10.3f}{rest / verdict_s:>8.1%}   benchmark code and untraced callees")
    inclusive = sorted((layers[f"{n}.total_s"], n) for n in traced_names() if n != "cli.main")[::-1][:4]
    lines.append("  inclusive: " + ", ".join(f"{n} {t / verdict_s:.1%}" for t, n in inclusive))
    setup = sorted(
        (rep["layers"][f"{n}.self_s"] - layers[f"{n}.self_s"], n) for n in traced_names()
    )[::-1][:3]
    setup = [(t, n) for t, n in setup if t > 0]
    lines.append("  set-up self time: " + (", ".join(f"{n} {t:.3f} s" for t, n in setup) or "none traced"))
    return lines


def traced_run(workload, seed, seconds, size) -> dict:
    start = time.monotonic()
    deadline = start + KILL_S
    trace_file = OUT / f"trace-{workload}-seed{seed}.json.gz"
    plain, traced = [], []
    while True:
        plain.append(spawn(workload, seed, size, deadline))
        traced.append(spawn(workload, seed, size, deadline, trace_file=trace_file))
        elapsed = time.monotonic() - start
        if elapsed > HARD_STOP_S or elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    plain_v = statistics.median(r["verdict_s"] * speed_scale(r) for r in plain)
    traced_v = statistics.median(r["verdict_s"] * speed_scale(r) for r in traced)
    metrics = {
        name: {"value": statistics.median_low(r["layers"][name] for r in traced), "unit": unit}
        for name, unit in layer_metric_names()
    }
    overhead = (traced_v - plain_v) / plain_v
    metrics["trace.verdict_s"] = {"value": traced_v, "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    attempted, failed, problems = check_reps(plain + traced)
    median_rep = sorted(traced, key=lambda r: r["verdict_s"])[len(traced) // 2]
    lines = [
        f"workload {workload}, seed {seed}, size {size}: per-layer report",
        f"  untraced verdict_s {plain_v:.4f} s, traced {traced_v:.4f} s (reference times), "
        f"tracing overhead {overhead:+.1%} ({len(plain)} + {len(traced)} processes)",
        "  self time during the verdict, as a share of the traced verdict_s:",
    ]
    lines += module_report(median_rep)
    lines.append(f"  spans written to {trace_file.relative_to(ROOT)}")
    lines += [f"  FAILED: {p}" for p in problems]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"lines": lines, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="grafcat benchmark")
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="bench", choices=("bench", "tiny", "full"))
    args = parser.parse_args(argv)

    if not (SRC / "grafcat" / "__init__.py").is_file():
        print(f"error: no grafcat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if names[0] not in WORKLOADS:
        print(f"error: unknown workload {names[0]!r}; choose from {list(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(SRC / "grafcat", quiet=1)  # so no set-up pays for compiling
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    run = traced_run if args.trace else timed_run
    results = {}
    for name in names:
        try:
            out = run(name, args.seed, args.seconds, args.size)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(out["lines"]), flush=True)
        results[name] = out["result"]
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
