"""Tests of the benchmark itself, at the smoke size: ``python3 -m pytest perfbench``."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import envinfo
import spans
from workloads import WORKLOADS, plan_from_config, workload_config

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_benchmark(root: Path, *args):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=root, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = run_benchmark(
        HERE.parent, "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--size", "smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and isinstance(result["failed"], int)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name


def test_run_without_sources_fails(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(
        tmp_path, "--workload", "table1_full", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_sweep_spans_form_a_tree_of_cells(workload):
    envinfo.import_checkout_raysep()
    from raysep import bench

    cfg, threads = workload_config(workload, 5, "smoke")
    plan = plan_from_config(cfg)
    tracer = spans.Tracer()
    with tracer.installed():
        bench.run_experiment(plan, threads=threads)
    assert bench.run_experiment.__name__ == "run_experiment"  # originals restored

    by_id = {s.id: s for s in tracer.spans}
    assert len(by_id) == len(tracer.spans)
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["bench.run_experiment"]
    for s in tracer.spans:
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end, (s.name, parent.name)
    cells = [s for s in tracer.spans if s.name == "bench.cell"]
    assert len(cells) == len(plan.snr_list) * plan.trials
    assert sorted(c.info["snr_db"] for c in cells) == sorted(plan.snr_list * plan.trials)
    for s in tracer.spans:
        if s.name.startswith(("simulate.", "baselines.", "solvers.")):
            assert by_id[s.parent].name == "bench.cell" and s.cell == by_id[s.parent].cell
    metrics = spans.layer_metrics(tracer.spans, threads)
    assert metrics["bench.cell.count"] == len(cells)
    assert 0 < metrics["bench.executor.efficiency"] <= 1
