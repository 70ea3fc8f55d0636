"""Benchmark of raysep's Monte-Carlo sweep, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table1_full --seed 1 --seconds 20 --trace 0

Workloads are in ``workloads.py``. With ``--trace 0`` the run measures:

* ``setup_s``: median over several fresh processes of the time from spawn
  to a built plan (interpreter, imports, config -> ``ExperimentPlan``);
* in one measuring process (``sweep.py``), sweeps of the plan repeated
  for ``--seconds``: ``cells_per_s`` (median over sweeps of cells / sweep
  wall), ``peak_rss_mb`` (the measuring process plus its largest worker
  process), ``solved_share`` (share of (cell, algorithm) solves that
  returned peaks and were not flagged) and ``detect_rate.mean`` (mean over
  the workload's algorithms of matched paths / (cells x paths)).

With ``--trace 1`` it reports the per-layer metrics of traced sweeps
instead (see ``spans.py``). BLAS is pinned to one thread in every process;
``--size smoke`` shrinks every workload to a few seconds for the
benchmark's own tests. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; earlier lines
record the machine, every check and the per-algorithm accuracy.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import envinfo
from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0


def time_setup(args) -> float:
    """Seconds from spawning a set-up probe to its ``ready`` line."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed), args.size]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=envinfo.ROOT) as p:
        line = p.stdout.readline()
        elapsed = perf_counter() - start
        p.stdout.read()
        code = p.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=SIZES, default="full")
    args = parser.parse_args(argv)
    began = perf_counter()
    if not envinfo.have_sources():
        print(f"error: no raysep sources under {envinfo.SOURCES}", file=sys.stderr)
        return 2

    envinfo.pin_blas_threads()
    metrics = {}
    if not args.trace:
        samples = [time_setup(args) for _ in range(SETUP_REPEATS)]
        print("setup_s samples: " + " ".join(f"{t:.4f}" for t in samples))
        metrics["setup_s"] = {"value": statistics.median(samples), "unit": "s"}

    cmd = [
        sys.executable, str(HERE / "sweep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
    ]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, cwd=envinfo.ROOT,
            timeout=max(1.0, RUN_LIMIT_S - (perf_counter() - began)),
        )
    except subprocess.TimeoutExpired:
        print(f"error: measuring process exceeded {RUN_LIMIT_S:g} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("\n".join(lines))
        print(f"error: measuring process exited with code {proc.returncode}", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    metrics.update(result["metrics"])
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
