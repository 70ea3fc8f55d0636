"""Benchmark workloads as ``raysep bench`` configs, and config -> plan.

Every workload shares the Table-1 truth: an 11-sensor vertical array at
2.5 m spacing, the five-path eigenray fan of a 100 m waveguide at 2 km
range, a 0.2 degree grid over +/-10 degrees and a 1-2 kHz band. The
configs use the schema of ``raysep bench --config``, so writing one to a
file and passing ``--seed`` reproduces the benchmark's ``report.csv``
byte for byte.

``plan_from_config`` turns a config into an ``ExperimentPlan`` through the
package's public constructors only; it is the config -> plan step whose
cost ``setup_s`` includes.
"""

from __future__ import annotations

import copy

TABLE1 = {
    "geometry": {"num_sensors": 11, "spacing_m": 2.5, "sound_speed_mps": 1500.0},
    "scenario": {
        "waveguide": {
            "water_depth_m": 100.0,
            "range_m": 2000.0,
            "source_depth_m": 50.0,
            "receiver_top_depth_m": 37.5,
            "num_paths": 5,
        }
    },
    "grid": {"start_deg": -10.0, "stop_deg": 10.0, "step_deg": 0.2},
    "signal": {
        "band_hz": [1000.0, 2000.0],
        "num_bins": 32,
        "num_snapshots": 150,
        "coherence": "coherent",
    },
}

# Trials per SNR are sized so that one sweep of every workload is a
# fixed, seed-determined amount of work: on a 2-core x86-64 machine a
# table1_full sweep takes ~45 s and the other two 2-15 s each.
WORKLOADS = {
    "table1_full": {
        "config": {
            **TABLE1,
            "snr_db": [-5.0, 0.0, 5.0, 20.0],
            "trials": 2,
            "algorithms": ["subspace_cs", "reweighted_cs", "bpdn", "music", "cbf"],
        },
        "threads": 1,
    },
    "subspace_sweep": {
        "config": {
            **TABLE1,
            "snr_db": [-5.0, 0.0, 5.0, 10.0, 20.0],
            "trials": 20,
            "algorithms": ["subspace_cs", "music", "cbf"],
        },
        "threads": 1,
    },
    "frontend_parallel": {
        "config": {
            **TABLE1,
            "signal": {
                "band_hz": [1000.0, 2000.0],
                "num_bins": 64,
                "num_snapshots": 150,
                "coherence": 0.5,
            },
            "snr_db": [-5.0, 0.0, 10.0],
            "trials": 20,
            "algorithms": ["music", "cbf"],
            "music_smoothing": True,
        },
        "threads": 2,
    },
}

# The smoke size keeps every workload's SNR list, algorithms and executor
# but shrinks the data and the solver budgets so a run takes seconds. It
# exists for the benchmark's own tests, not for measurement.
SMOKE = {
    "grid": {"start_deg": -10.0, "stop_deg": 10.0, "step_deg": 1.0},
    "trials": 1,
    "num_bins": 8,
    "num_snapshots": 20,
    "solver": {"max_reweight_iters": 2, "inner_max_iters": 60, "inner_tol": 1e-3},
}

SIZES = ("full", "smoke")


def workload_config(name: str, seed: int, size: str = "full") -> tuple:
    """The ``raysep bench`` config of a workload and its worker count.

    Raises:
        KeyError: For an unknown workload name or size.
    """
    if size not in SIZES:
        raise KeyError(f"unknown size {size!r} (choose from {list(SIZES)})")
    spec = WORKLOADS[name]
    cfg = copy.deepcopy(spec["config"])
    cfg["seed"] = int(seed)
    if size == "smoke":
        cfg["grid"] = dict(SMOKE["grid"])
        cfg["trials"] = SMOKE["trials"]
        cfg["signal"]["num_bins"] = SMOKE["num_bins"]
        cfg["signal"]["num_snapshots"] = SMOKE["num_snapshots"]
        cfg["solver"] = dict(SMOKE["solver"])
    return cfg, spec["threads"]


def plan_from_config(cfg: dict):
    """Build the ``ExperimentPlan`` a ``raysep bench`` config describes."""
    import numpy as np

    from raysep import (
        AngleGrid,
        ArrayGeometry,
        ExperimentPlan,
        SolverConfig,
        WaveguideScenario,
        eigenray_angles,
    )

    geometry = ArrayGeometry(**cfg["geometry"])
    grid = AngleGrid.uniform(
        cfg["grid"]["start_deg"], cfg["grid"]["stop_deg"], cfg["grid"]["step_deg"]
    )
    wg = dict(cfg["scenario"]["waveguide"])
    top = wg.pop("receiver_top_depth_m")
    scenario = WaveguideScenario(
        receiver_depths_m=top + geometry.spacing_m * np.arange(geometry.num_sensors),
        sound_speed_mps=geometry.sound_speed_mps,
        **wg,
    )
    paths = eigenray_angles(scenario, reference_index=geometry.reference_index)
    signal = cfg["signal"]
    # Without a solver block the plan keeps its defaults, which are the CLI's.
    extra = {"solver": SolverConfig(**cfg["solver"])} if "solver" in cfg else {}
    return ExperimentPlan(
        paths=paths,
        geometry=geometry,
        grid=grid,
        snr_list=tuple(float(s) for s in cfg["snr_db"]),
        trials=cfg["trials"],
        algorithms=tuple(cfg["algorithms"]),
        seed=cfg["seed"],
        band_hz=tuple(float(b) for b in signal["band_hz"]),
        num_bins=signal["num_bins"],
        num_snapshots=signal["num_snapshots"],
        coherence=signal["coherence"],
        music_smoothing=bool(cfg.get("music_smoothing", False)),
        **extra,
    )
