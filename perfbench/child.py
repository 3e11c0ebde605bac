"""One workload in one fresh process: set up, check, report.

Started by run.py, never by hand.  The parent passes the CLOCK_MONOTONIC
reading taken just before it started this process, so set-up time
covers interpreter start, importing grafcat and building the inputs.
Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer

SPEED_SAMPLES = 9  # speed snippets timed after set-up and after the verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file", default=None, help="trace this run; write spans here")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_file is not None:
        tracer = Tracer()
        tracer.install(callers=[workloads])  # before set-up, which calls the enumerators
    out_dir = Path(__file__).resolve().parent / "out"
    workload = workloads.WORKLOADS[args.workload](args.size, args.seed, out_dir)
    doc = {"setup_s": time.monotonic() - args.spawned_at}
    probe, gate = workloads.Probe(tracer), workloads.Gate()
    probe.sample_speed(SPEED_SAMPLES)
    if not args.setup_only:
        before = tracer.snapshot() if tracer is not None else None
        probe.speed_probe_s = 0.0  # only snippets inside the verdict are taken out of it
        t0 = time.perf_counter()
        counts = workload.run(probe, gate)
        doc["verdict_s"] = time.perf_counter() - t0 - probe.speed_probe_s
        probe.sample_speed(SPEED_SAMPLES)
        if tracer is not None:
            tracer.uninstall()
            doc["layers"] = tracer.metrics()
            doc["verdict_layers"] = tracer.metrics(since=before)
            tracer.dump(args.trace_file)
        doc.update(
            latencies_ms=probe.latencies_ms,
            attempted=gate.attempted,
            failed=gate.failed,
            problems=gate.problems,
            counts=counts,
        )
    doc["speed_ms"] = probe.speed_ms
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(doc, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
