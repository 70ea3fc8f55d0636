"""Mini Monte-Carlo RMSE sweep.

A scaled-down version of the benchmark harness run (5 trials per SNR
instead of 20) comparing the subspace solver against reweighted recovery
and MUSIC. Prints the per-path RMSE / detection-rate table and optionally
plots RMSE against SNR. The CLI ``raysep bench`` command produces the same
numbers from a JSON config, written to CSV/JSON instead.
"""

import time

import numpy as np

from raysep import (
    AngleGrid,
    ArrayGeometry,
    ExperimentPlan,
    WaveguideScenario,
    eigenray_angles,
    run_experiment,
)

geom = ArrayGeometry(num_sensors=11, spacing_m=2.5, sound_speed_mps=1500.0)
scenario = WaveguideScenario(
    water_depth_m=100.0,
    range_m=2000.0,
    source_depth_m=50.0,
    receiver_depths_m=37.5 + 2.5 * np.arange(11),
    num_paths=5,
)
paths = eigenray_angles(scenario)

plan = ExperimentPlan(
    paths=paths,
    geometry=geom,
    grid=AngleGrid.uniform(-10.0, 10.0, 0.2),
    snr_list=(0.0, 5.0, 10.0),
    trials=5,
    algorithms=("subspace_cs", "reweighted_cs", "music"),
    seed=99,
)

print("truth angles:", np.round(np.sort(paths.angles_deg), 3))
print(f"running {len(plan.snr_list)} SNRs x {plan.trials} trials ...")
start = time.time()
report = run_experiment(plan)
print(f"done in {time.time()-start:.0f} s; flagged trials: {len(report.flagged_trials)}")

print(f"\n{'algorithm':>14s} {'snr':>5s}  per-path rmse[deg]/detection")
for alg in plan.algorithms:
    for snr in plan.snr_list:
        cells = []
        for p in range(paths.num_paths):
            e = report.entry(alg, snr, p)
            if np.isnan(e.rmse_deg):
                cells.append("  none  ")
            else:
                cells.append(f"{e.rmse_deg:4.2f}/{e.detection_rate:3.1f}")
        print(f"{alg:>14s} {snr:5.1f}  " + " ".join(cells))

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6.5, 4))
    for alg, marker in (("subspace_cs", "o"), ("reweighted_cs", "s"), ("music", "^")):
        avg = []
        for snr in plan.snr_list:
            values = [report.entry(alg, snr, p).rmse_deg for p in range(5)]
            values = [v for v in values if not np.isnan(v)]
            avg.append(np.mean(values) if values else np.nan)
        ax.plot(plan.snr_list, avg, marker + "-", label=alg)
    ax.set_xlabel("SNR [dB]")
    ax.set_ylabel("mean per-path RMSE [deg]")
    ax.set_title("Raypath-separation error vs SNR (5 trials per point)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("benchmark_rmse.png", dpi=120)
    print("\nsaved benchmark_rmse.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the plot)")
