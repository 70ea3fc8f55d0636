"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria 5 and 6 run
seeded Monte-Carlo sweeps (a few minutes); everything else is fast.
"""

import itertools
import time

import numpy as np

from raysep import (
    AngleGrid,
    ArrayGeometry,
    ExperimentPlan,
    NoiseSpec,
    RaypathSet,
    SolverConfig,
    SpectralMatrix,
    WaveguideScenario,
    bpdn,
    build_dictionary,
    build_lifted_system,
    decompose,
    detect_peaks,
    eigenray_angles,
    estimate_spectral_matrix,
    focus_and_smooth,
    lift_dictionary,
    music_spectrum,
    reweighted_cs,
    rmse,
    run_experiment,
    subspace_cs,
    synthesize_broadband,
    synthesize_snapshots,
)
from raysep.bench import _match_peaks

from conftest import random_hermitian_psd


def _report(num: int, text: str):
    print(f"\nPASS criterion {num}: {text}")


def table1_benchmark():
    """Table-1 simulation geometry with eigenray-derived 5-path truth."""
    geom = ArrayGeometry(num_sensors=11, spacing_m=2.5, sound_speed_mps=1500.0)
    scenario = WaveguideScenario(
        water_depth_m=100.0,
        range_m=2000.0,
        source_depth_m=50.0,
        receiver_depths_m=37.5 + 2.5 * np.arange(11),
        sound_speed_mps=1500.0,
        num_paths=5,
    )
    paths = eigenray_angles(scenario)
    # spacing is 2.5 wavelengths: grating lobes repeat every 0.4 in sin(angle),
    # so the search grid covers the +/-10 degree sector holding all arrivals
    grid = AngleGrid.uniform(-10.0, 10.0, 0.2)
    return geom, paths, grid


def test_criterion_01_lift_oracle_equivalence():
    geom = ArrayGeometry(num_sensors=11, spacing_m=0.5, sound_speed_mps=1500.0)
    grid = AngleGrid.uniform(-90.0, 90.0, 0.2)
    d = build_dictionary(grid, 1500.0, geom)
    start = time.perf_counter()
    lifted = lift_dictionary(d)
    rng = np.random.default_rng(101)
    worst = 0.0
    for q in rng.integers(0, len(grid), 100):
        gq = d.matrix[:, q]
        brute = np.outer(gq, gq.conj()).reshape(-1)
        worst = max(worst, float(np.max(np.abs(lifted[:, q] - brute))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-14
    assert elapsed < 1.0
    _report(1, f"lift matches outer-product oracle, max |delta| = {worst:.2e}, "
               f"{elapsed*1e3:.0f} ms")


def test_criterion_02_eigen_reconstruction():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        r = random_hermitian_psd(rng, 11)
        dec = decompose(r, int(rng.integers(1, 11)))
        err = np.linalg.norm(dec.signal_matrix + dec.noise_matrix - r) / np.linalg.norm(r)
        worst = max(worst, float(err))
    assert worst < 1e-10

    worst3 = 0.0
    for _ in range(100):
        r = random_hermitian_psd(rng, 3)
        dec = decompose(r, 1)
        tr = np.trace(r).real
        minors = (
            np.linalg.det(r[np.ix_([0, 1], [0, 1])])
            + np.linalg.det(r[np.ix_([0, 2], [0, 2])])
            + np.linalg.det(r[np.ix_([1, 2], [1, 2])])
        ).real
        det = np.linalg.det(r).real
        roots = np.sort(np.roots([1.0, -tr, minors, -det]).real)[::-1]
        worst3 = max(worst3, float(np.max(np.abs(dec.eigenvalues - roots))))
    assert worst3 < 1e-10
    _report(2, f"eigen reconstruction {worst:.2e}, M=3 oracle gap {worst3:.2e}")


def test_criterion_03_noise_free_exact_recovery():
    geom = ArrayGeometry(num_sensors=11, spacing_m=0.5, sound_speed_mps=1500.0)
    grid = AngleGrid.uniform(-90.0, 90.0, 0.2)
    d = build_dictionary(grid, 1500.0, geom)
    qstar = grid.nearest_index(12.4)
    amplitude = 1.3 - 0.4j
    y = amplitude * d.matrix[:, qstar]
    cfg = SolverConfig(inner_tol=1e-6, inner_max_iters=4000)

    start = time.perf_counter()
    results = {
        "bpdn": bpdn(d, y, 0.0, cfg),
        "reweighted_cs": reweighted_cs(d, y, 0.0, cfg),
    }
    spectral = SpectralMatrix(
        np.outer(y, y.conj()), num_snapshots=1, frequency_hz=1500.0
    )
    lifted = build_lifted_system(decompose(spectral, 1), d)
    results["subspace_cs"] = subspace_cs(lifted, 0.0, cfg)
    elapsed = time.perf_counter() - start

    ratios = {}
    for name, spec in results.items():
        mags = np.abs(spec.values)
        assert int(np.argmax(mags)) == qstar, name
        off = float(np.max(np.delete(mags, qstar)))
        ratios[name] = off / mags[qstar]
        assert ratios[name] < 1e-6, name
    assert elapsed < 10.0
    _report(3, "single-spike recovery, off-support/peak = "
               + ", ".join(f"{k}:{v:.1e}" for k, v in ratios.items())
               + f", {elapsed:.1f} s")


def test_criterion_04_small_instance_solver_oracle():
    geom = ArrayGeometry(num_sensors=8, spacing_m=0.5, sound_speed_mps=1500.0)
    grid = AngleGrid.uniform(-60.0, 60.0, 6.0)
    d = build_dictionary(grid, 1500.0, geom)
    assert len(grid) == 21
    rng = np.random.default_rng(104)
    cfg = SolverConfig(inner_tol=1e-6, inner_max_iters=4000)
    matched = 0
    for _ in range(50):
        p = int(rng.integers(1, 3))
        # adjacent endfire atoms are so coherent that the minimum-l1
        # interpolator is a dense mixture, not the generating pair; draws
        # keep two grid cells of separation so the sparse representation is
        # the program's own answer
        while True:
            support = tuple(np.sort(rng.choice(21, size=p, replace=False)))
            if p == 1 or support[1] - support[0] >= 2:
                break
        coef = rng.uniform(0.5, 2.0, p) * np.exp(2j * np.pi * rng.random(p))
        y = d.matrix[:, support] @ coef

        best_l1, oracle = np.inf, None
        for size in (1, 2):
            for combo in itertools.combinations(range(21), size):
                sub = d.matrix[:, combo]
                fit, *_ = np.linalg.lstsq(sub, y, rcond=None)
                if np.linalg.norm(sub @ fit - y) > 1e-8 * np.linalg.norm(y):
                    continue
                l1 = float(np.sum(np.abs(fit)))
                if l1 < best_l1 - 1e-12:
                    best_l1, oracle = l1, (combo, fit)

        spec = bpdn(d, y, 0.0, cfg)
        got = tuple(np.flatnonzero(np.abs(spec.values) > 1e-5 * np.max(np.abs(spec.values))))
        if got == oracle[0] and np.allclose(spec.values[list(got)], oracle[1], atol=1e-5):
            matched += 1
    assert matched >= 49
    _report(4, f"solver matches exhaustive least-squares oracle in {matched}/50 instances")


def test_criterion_05_coherent_separation_headline():
    geom, paths, grid = table1_benchmark()
    truth = np.sort(paths.angles_deg)
    start = time.perf_counter()
    d = build_dictionary(grid, 1500.0, geom)

    sub_success = 0
    music_full_detect = 0
    trials = 20
    for trial in range(trials):
        bins = synthesize_broadband(
            paths, (1000.0, 2000.0), 32, 150,
            NoiseSpec(snr_db=0.0, seed=50_000 + trial), geom, "coherent",
        )
        smoothed = focus_and_smooth(bins, 1500.0, grid, geom)
        dec = decompose(smoothed, 5)
        lifted = build_lifted_system(dec, d)
        from raysep import choose_delta

        cfg = SolverConfig(inner_tol=1e-4, inner_max_iters=600)
        peaks = detect_peaks(subspace_cs(lifted, choose_delta(dec, 1.5), cfg), 5)
        matches, _ = _match_peaks(peaks, truth, 0.6)
        sub_success += len(matches) == 5

        freqs = np.array([b.frequency_hz for b in bins])
        center = bins[int(np.argmin(np.abs(freqs - 1500.0)))]
        center_d = build_dictionary(grid, center.frequency_hz, geom)
        music = music_spectrum(estimate_spectral_matrix(center), 5, center_d)
        mpeaks = detect_peaks(music, 5)
        mmatches, _ = _match_peaks(mpeaks, truth, 0.6)
        music_full_detect += len(mmatches) == 5
    elapsed = time.perf_counter() - start

    # "detects" is held to the same accuracy standard for both algorithms:
    # a path counts as detected when a peak lands within 0.6 degrees of it
    assert sub_success >= int(0.8 * trials)
    assert trials - music_full_detect >= int(0.8 * trials)
    assert elapsed < 600.0
    _report(5, f"subspace separates all 5 paths within 0.6 deg in {sub_success}/20 "
               f"trials; unsmoothed MUSIC does so in only {music_full_detect}/20; "
               f"{elapsed:.0f} s")


def test_criterion_06_rmse_ranking():
    geom, paths, grid = table1_benchmark()
    plan = ExperimentPlan(
        paths=paths, geometry=geom, grid=grid,
        snr_list=(-5.0, 0.0, 5.0), trials=20,
        algorithms=("subspace_cs", "reweighted_cs", "music"),
        seed=106,
    )
    report = run_experiment(plan)

    compared = 0
    lines = []
    for snr in plan.snr_list:
        for p in range(paths.num_paths):
            entries = {a: report.entry(a, snr, p) for a in plan.algorithms}
            # a path enters the comparison when every algorithm separates it
            # in at least half the trials
            if not all(e.detection_rate >= 0.5 for e in entries.values()):
                continue
            compared += 1
            sub = entries["subspace_cs"].rmse_deg
            for other in ("reweighted_cs", "music"):
                assert sub <= 1.1 * entries[other].rmse_deg, (
                    f"snr={snr} path={p}: subspace {sub:.3f} vs "
                    f"{other} {entries[other].rmse_deg:.3f}"
                )
            lines.append(f"snr={snr:+.0f} path={p}")
    assert compared >= 3
    _report(6, f"subspace RMSE is smallest (10% slack) at every commonly "
               f"separated point ({compared} points: {', '.join(lines)})")


def test_criterion_07_frequency_smoothing_rank_restoration():
    geom = ArrayGeometry(num_sensors=11, spacing_m=0.5, sound_speed_mps=1500.0)
    grid = AngleGrid.uniform(-40.0, 40.0, 1.0)
    paths = RaypathSet([-12.0, 14.0], [1.0, 1.0], [0.0, 0.005])
    restored = 0
    raw_always_one = True
    for trial in range(20):
        bins = synthesize_broadband(
            paths, (1350.0, 1650.0), 32, 100,
            NoiseSpec(snr_db=10.0, seed=70_000 + trial), geom, "coherent",
        )
        smoothed = focus_and_smooth(bins, 1500.0, grid, geom)
        eigs = np.linalg.eigvalsh(smoothed.matrix)[::-1]
        restored += int(np.sum(eigs > 10.0 * np.median(eigs)) >= 2)
        raw = estimate_spectral_matrix(bins[16])
        eigs_raw = np.linalg.eigvalsh(raw.matrix)[::-1]
        raw_always_one &= int(np.sum(eigs_raw > 10.0 * np.median(eigs_raw))) == 1
    assert restored >= 18
    assert raw_always_one
    _report(7, f"32-bin smoothing restores rank 2 in {restored}/20 trials; "
               f"unsmoothed covariance stays rank 1 in all")


def test_criterion_08_rmse_arithmetic():
    scores = rmse([np.array([3.0]), np.array([4.0])], np.array([0.0]), window_deg=5.0)
    assert abs(scores.rmse_deg[0] - np.sqrt(12.5)) < 1e-12
    assert abs(scores.rmse_deg[0] - 3.5355339059327378) < 1e-12
    exact = rmse([np.array([-3.0, 4.0])] * 7, np.array([-3.0, 4.0]))
    assert np.all(exact.rmse_deg == 0.0)
    single = rmse([np.array([1.0])], np.array([0.0]))
    assert abs(single.rmse_deg[0] - 1.0) < 1e-12
    _report(8, "per-path RMSE arithmetic exact (sqrt(12.5) case to 1e-12)")


def test_criterion_09_bench_determinism(tmp_path):
    import json

    from raysep.cli import main

    config = {
        "geometry": {"num_sensors": 8, "spacing_m": 0.5, "sound_speed_mps": 1500.0},
        "grid": {"start_deg": -60.0, "stop_deg": 60.0, "step_deg": 1.0},
        "scenario": {"paths": {"angles_deg": [-20.0, 15.0], "delays_s": [0.0, 0.004]}},
        "signal": {"band_hz": [1400.0, 1600.0], "num_bins": 4,
                   "num_snapshots": 24, "coherence": "incoherent"},
        "snr_db": [0.0, 10.0],
        "trials": 3,
        "algorithms": ["music", "cbf", "subspace_cs"],
        "seed": 109,
    }
    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps(config))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["bench", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["bench", "--config", str(cfg), "--out", str(out2)]) == 0
    csv1 = (out1 / "report.csv").read_bytes()
    csv2 = (out2 / "report.csv").read_bytes()
    assert csv1 == csv2
    _report(9, f"bench rerun produced byte-identical CSV ({len(csv1)} bytes)")


def test_criterion_10_snr_calibration():
    geom = ArrayGeometry(num_sensors=11, spacing_m=0.5, sound_speed_mps=1500.0)
    paths = RaypathSet([3.0, -7.0], [1.0, -1.0], [0.0, 0.002])
    worst = 0.0
    for snr_db in (-5.0, 0.0, 10.0):
        noisy = synthesize_snapshots(paths, 1500.0, 10_000, NoiseSpec(snr_db, 110), geom)
        clean = synthesize_snapshots(paths, 1500.0, 10_000, NoiseSpec(np.inf, 110), geom)
        noise = noisy.data - clean.data
        measured = 10.0 * np.log10(
            np.mean(np.abs(clean.data) ** 2) / np.mean(np.abs(noise) ** 2)
        )
        worst = max(worst, abs(measured - snr_db))
    assert worst < 0.2
    _report(10, f"empirical SNR within {worst:.3f} dB of nominal at L=10^4")
