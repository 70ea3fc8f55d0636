"""Measuring process of the benchmark: repeated sweeps, checks and metrics.

``run.py`` starts it; run by hand it takes the same arguments. One sweep is
what ``raysep bench`` does after set-up: ``run_experiment`` on the plan,
then ``write_report_csv`` and ``write_report_json``. Sweeps of the same plan
repeat until ``--seconds`` have passed; every run checks that its sweeps,
and earlier runs of the same seed on the same sources, wrote a
byte-identical ``report.csv``.

With ``--trace 0`` no sweep is traced and the run reports the end-to-end
metrics. With ``--trace 1`` sweeps alternate untraced and traced: the
traced ones give the per-layer metrics (median over traced sweeps) and the
pair gives the tracing overhead. Human-readable lines come first; the last
line of standard output is one JSON object with the run's results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
from collections import namedtuple
from contextlib import nullcontext
from time import perf_counter

import envinfo

envinfo.pin_blas_threads()

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, SIZES, plan_from_config, workload_config  # noqa: E402

OUT_DIR = envinfo.ROOT / ".perfbench_out"


# One sweep: wall seconds, the RmseReport, report.csv bytes, Tracer or None.
Sweep = namedtuple("Sweep", "wall report csv tracer")


def run_sweep(bench, fileio, plan, threads, out, provenance, meta, tracer) -> Sweep:
    """One ``raysep bench`` sweep; traced when ``tracer`` is given."""
    with tracer.installed() if tracer else nullcontext():
        start = perf_counter()
        report = bench.run_experiment(plan, threads=threads)
        fileio.write_report_csv(out / "report.csv", report, provenance)
        fileio.write_report_json(out / "report.json", report, meta)
        wall = perf_counter() - start
    return Sweep(wall, report, (out / "report.csv").read_bytes(), tracer)


def report_problems(report, plan) -> list:
    """Violated report invariants, as messages."""
    problems = []
    num_paths = plan.paths.num_paths
    lo, hi = plan.grid.angles_deg.min(), plan.grid.angles_deg.max()
    expected = len(plan.algorithms) * len(plan.snr_list) * num_paths
    if len(report.entries) != expected:
        problems.append(f"{len(report.entries)} report rows, expected {expected}")
    for e in report.entries:
        where = f"{e.algorithm} {e.snr_db:g} dB path {e.path_index}"
        if not 0.0 <= e.detection_rate <= 1.0:
            problems.append(f"{where}: detection rate {e.detection_rate} outside [0, 1]")
        if not 0 <= e.trials_used <= plan.trials:
            problems.append(f"{where}: trials_used {e.trials_used} outside [0, {plan.trials}]")
        if math.isnan(e.rmse_deg) != (e.trials_used == 0):
            problems.append(f"{where}: rmse {e.rmse_deg} with trials_used {e.trials_used}")
        elif e.trials_used and not 0.0 <= e.rmse_deg <= plan.match_window_deg:
            problems.append(f"{where}: rmse {e.rmse_deg} outside the match window")
    for (alg, snr), per_trial in report.trial_peaks.items():
        if len(per_trial) != plan.trials:
            problems.append(f"{alg} {snr:g} dB: {len(per_trial)} trials, expected {plan.trials}")
        for peaks in per_trial:
            peaks = np.asarray(peaks)
            if peaks.size > num_paths:
                problems.append(f"{alg} {snr:g} dB: {peaks.size} peaks > {num_paths} paths")
            if peaks.size and (peaks.min() < lo or peaks.max() > hi):
                problems.append(f"{alg} {snr:g} dB: peak outside the grid [{lo}, {hi}]")
    return problems


def accuracy(report, plan) -> dict:
    """Per algorithm: pooled RMSE [deg], detection rate and solves without peaks."""
    base = len(plan.snr_list) * plan.trials * plan.paths.num_paths
    out = {}
    for alg in plan.algorithms:
        rows = [e for e in report.entries if e.algorithm == alg]
        matched = sum(e.trials_used for e in rows)
        sq = sum(e.rmse_deg**2 * e.trials_used for e in rows if e.trials_used)
        no_peaks = sum(
            1
            for snr in plan.snr_list
            for peaks in report.trial_peaks[(alg, snr)]
            if len(peaks) == 0
        )
        out[alg] = {
            "rmse_deg": math.sqrt(sq / matched) if matched else math.nan,
            "detect_rate": matched / base,
            "no_peaks": no_peaks,
        }
    return out


def rerun_check(sweeps, store, cfg) -> tuple:
    """Every sweep, and every earlier run of these sources and config, wrote one report.csv.

    The first run of a config on given sources stores its report, so a run
    with a single sweep is still checked against the next run of its seed.
    """
    h = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode())
    for path in sorted((envinfo.SOURCES / "raysep").rglob("*.py")):
        h.update(path.relative_to(envinfo.SOURCES).as_posix().encode())
        h.update(path.read_bytes())
    reference = store / f"{h.hexdigest()[:24]}.csv"
    same = all(s.csv == sweeps[0].csv for s in sweeps)
    detail = f"{len(sweeps)} sweeps"
    if reference.exists():
        same = same and reference.read_bytes() == sweeps[0].csv
        detail += " and an earlier run"
    else:
        store.mkdir(exist_ok=True)
        reference.write_bytes(sweeps[0].csv)
        detail += "; stored for the next run of this seed"
    return same, detail


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest of its waited children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=SIZES, default="full")
    args = parser.parse_args(argv)

    raysep = envinfo.import_checkout_raysep()
    from raysep import bench, fileio

    cfg, workers = workload_config(args.workload, args.seed, args.size)
    threads = min(workers, envinfo.usable_cpus())
    plan = plan_from_config(cfg)
    out = OUT_DIR / args.workload
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    digest = fileio.config_hash(cfg)
    provenance = fileio.provenance_lines(raysep.__version__, digest, plan.seed)
    meta = {"version": raysep.__version__, "config_sha256": digest, "seed": plan.seed}
    print("env " + json.dumps(envinfo.environment_record(threads), sort_keys=True))

    cells = len(plan.snr_list) * plan.trials
    sweeps = []
    began = perf_counter()
    while len(sweeps) < 1 + args.trace or perf_counter() - began < args.seconds:
        tracer = spans.Tracer() if args.trace and len(sweeps) % 2 == 1 else None
        sweeps.append(run_sweep(bench, fileio, plan, threads, out, provenance, meta, tracer))
    for with_trace in (False, True):
        walls = [s.wall for s in sweeps if (s.tracer is not None) == with_trace]
        if walls:
            print(
                f"sweeps traced={int(with_trace)}: {len(walls)} x {cells} cells, wall [s] "
                f"min={min(walls):.4f} median={statistics.median(walls):.4f} max={max(walls):.4f}"
            )

    report = sweeps[0].report
    checks = {}
    problems = report_problems(report, plan)
    checks["report_invariants"] = (not problems, "; ".join(problems[:5]) or "ok")
    checks["report_csv_identical"] = rerun_check(sweeps, out / "reruns", cfg)
    traced = [s for s in sweeps if s.tracer is not None]
    if traced:
        checked = violating = 0
        for s in traced:
            c, v = spans.converged_residual_violations(s.tracer.spans)
            checked += c
            violating += v
        checks["converged_residual_within_bound"] = (
            violating == 0,
            f"{violating} of {checked} converged solves over the bound",
        )
    acc = accuracy(report, plan)
    detecting = sum(1 for a in acc.values() if a["detect_rate"] > 0)
    checks["paths_detected"] = (detecting > 0, f"{detecting} of {len(acc)} algorithms matched a path")
    for name, (ok, detail) in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    for alg, a in acc.items():
        print(
            f"accuracy {alg}: rmse_deg={a['rmse_deg']:.6f} detect_rate={a['detect_rate']:.6f} "
            f"solves_without_peaks={a['no_peaks']} of {cells}"
        )

    solves = cells * len(plan.algorithms)
    failed_share = sum(a["no_peaks"] for a in acc.values()) / solves
    metrics = {}
    if not args.trace:
        walls = [s.wall for s in sweeps]
        metrics["cells_per_s"] = (statistics.median(cells / w for w in walls), "1/s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        metrics["solved_share"] = (1.0 - failed_share, "ratio")
        metrics["detect_rate.mean"] = (
            statistics.fmean(a["detect_rate"] for a in acc.values()),
            "ratio",
        )
    else:
        per_sweep = [spans.layer_metrics(s.tracer.spans, threads) for s in traced]
        for key in per_sweep[0]:
            metrics[key] = (statistics.median_low(m[key] for m in per_sweep), spans.unit_of(key))
        untraced = statistics.median(s.wall for s in sweeps if s.tracer is None)
        metrics["trace.overhead_share"] = (
            statistics.median(s.wall for s in traced) / untraced - 1.0,
            "ratio",
        )
        metrics["bench.failed_share"] = (failed_share, "ratio")
        # 0 where the workload does not run the algorithm or it matched no path.
        for alg in bench.ALGORITHMS:
            a = acc.get(alg, {"rmse_deg": 0.0, "detect_rate": 0.0})
            rmse_deg = 0.0 if math.isnan(a["rmse_deg"]) else a["rmse_deg"]
            metrics[f"accuracy.{alg}.rmse_deg"] = (rmse_deg, "deg")
            metrics[f"accuracy.{alg}.detect_rate"] = (a["detect_rate"], "ratio")
        print(f"stage times of traced sweep {sweeps.index(traced[0]) + 1}:")
        for row in spans.stage_table(traced[0].tracer.spans):
            print("  " + row)
        with open(out / "spans.jsonl", "w") as f:
            for i, s in enumerate(traced):
                for span in s.tracer.spans:
                    f.write(json.dumps({"sweep": i, **span.to_json()}) + "\n")

    print(
        json.dumps(
            {
                "correct": all(ok for ok, _ in checks.values()),
                "attempted": solves * len(sweeps),
                "failed": sum(len(s.report.flagged_trials) for s in sweeps),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
