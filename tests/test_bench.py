import copy
import gc
import math
import os
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import raysep.bench
import raysep.simulate
import raysep.solvers
import raysep.spectral
import raysep.subspace
from raysep import (
    AngleGrid,
    ArrayGeometry,
    EstimatorSettings,
    ExperimentPlan,
    FocusingError,
    NoiseSpec,
    PseudoSpectrum,
    RaypathSet,
    SolverConfig,
    SolverInfeasibleError,
    WaveguideScenario,
    build_dictionary,
    build_lifted_system,
    choose_delta,
    decompose,
    detect_peaks,
    eigenray_angles,
    estimate_spectra,
    estimate_spectral_matrix,
    music_spectrum,
    rmse,
    run_experiment,
    subspace_cs,
    synthesize_broadband,
)


def tiny_grid():
    return AngleGrid.uniform(-10.0, 10.0, 1.0)


def spectrum_from(values):
    return PseudoSpectrum(tiny_grid(), np.asarray(values, dtype=float), "test")


def test_detect_peaks_single_spike():
    v = np.zeros(21)
    v[7] = 1.0
    peaks = detect_peaks(spectrum_from(v), 1)
    assert_array_equal(peaks, [tiny_grid().angles_deg[7]])


def test_detect_peaks_flat_spectrum_returns_empty():
    peaks = detect_peaks(spectrum_from(np.ones(21)), 3)
    assert peaks.size == 0


def test_detect_peaks_tie_breaks_to_lower_angle():
    v = np.zeros(21)
    v[5] = 1.0
    v[15] = 1.0
    peaks = detect_peaks(spectrum_from(v), 1)
    assert_array_equal(peaks, [tiny_grid().angles_deg[5]])


def test_detect_peaks_takes_largest_maxima_sorted_by_angle():
    v = np.zeros(21)
    v[3], v[9], v[16] = 0.5, 1.0, 0.8
    peaks = detect_peaks(spectrum_from(v), 2)
    assert_array_equal(peaks, tiny_grid().angles_deg[[9, 16]])


def test_detect_peaks_endpoints_never_qualify():
    v = np.zeros(21)
    v[0], v[20] = 2.0, 3.0
    v[10] = 1.0
    peaks = detect_peaks(spectrum_from(v), 3)
    assert_array_equal(peaks, [tiny_grid().angles_deg[10]])


def test_detect_peaks_under_detection_is_short_result():
    v = np.zeros(21)
    v[4] = 1.0
    peaks = detect_peaks(spectrum_from(v), 5)
    assert peaks.size == 1


def test_rmse_exact_estimates_zero():
    scores = rmse([np.array([-3.0, 4.0])] * 5, np.array([-3.0, 4.0]))
    assert_array_equal(scores.rmse_deg, [0.0, 0.0])
    assert_array_equal(scores.detection_rate, [1.0, 1.0])
    assert scores.false_alarms == 0


def test_rmse_single_trial_single_degree_error():
    scores = rmse([np.array([1.0])], np.array([0.0]))
    assert scores.rmse_deg[0] == pytest.approx(1.0, abs=1e-15)


def test_rmse_hand_computed_two_trials():
    scores = rmse([np.array([3.0]), np.array([4.0])], np.array([0.0]), window_deg=5.0)
    assert scores.rmse_deg[0] == pytest.approx(np.sqrt(12.5), abs=1e-12)
    assert scores.trials_used[0] == 2


def test_rmse_misses_counted_against_detection_rate():
    trials = [np.array([0.5]), np.array([]), np.array([9.0])]
    scores = rmse(trials, np.array([0.0]), window_deg=3.0)
    # third trial's 9-degree peak is outside the window: a false alarm
    assert scores.trials_used[0] == 1
    assert scores.detection_rate[0] == pytest.approx(1.0 / 3.0)
    assert scores.false_alarms == 1
    assert scores.rmse_deg[0] == pytest.approx(0.5)


def test_rmse_undetected_path_reported_missing():
    scores = rmse([np.array([0.1])], np.array([0.0, 8.0]), window_deg=3.0)
    assert np.isnan(scores.rmse_deg[1])
    assert scores.trials_used[1] == 0


def test_rmse_matching_is_bijective_nearest_first():
    # one peak between two truths must match the nearer truth only
    scores = rmse([np.array([1.0])], np.array([0.0, 1.5]), window_deg=3.0)
    assert scores.trials_used[0] == 0
    assert scores.trials_used[1] == 1
    assert scores.rmse_deg[1] == pytest.approx(0.5)


def bench_fixture():
    geom = ArrayGeometry(num_sensors=8, spacing_m=0.5, sound_speed_mps=1500.0)
    paths = RaypathSet([-20.0, 15.0], [1.0, 1.0], [0.0, 0.004])
    grid = AngleGrid.uniform(-60.0, 60.0, 1.0)
    return geom, paths, grid


def test_estimate_spectra_runs_selected_algorithms():
    geom, paths, grid = bench_fixture()
    bins = synthesize_broadband(paths, (1400.0, 1600.0), 8, 64, NoiseSpec(10.0, 3), geom, "incoherent")
    settings = EstimatorSettings(
        geometry=geom, grid=grid, num_paths=2,
        algorithms=("music", "cbf", "subspace_cs"),
    )
    spectra = estimate_spectra(bins, settings)
    assert set(spectra) == {"music", "cbf", "subspace_cs"}
    peaks = detect_peaks(spectra["music"], 2)
    assert np.max(np.abs(np.sort(peaks) - np.array([-20.0, 15.0]))) <= 2.0


def test_music_smoothing_option_routes_smoothed_covariance():
    from raysep import estimate_spectral_matrix, focus_and_smooth, music_spectrum

    geom, paths, grid = bench_fixture()
    bins = synthesize_broadband(
        paths, (1300.0, 1700.0), 16, 128, NoiseSpec(15.0, 9), geom, "coherent"
    )
    base = dict(geometry=geom, grid=grid, num_paths=2, algorithms=("music",))
    raw = estimate_spectra(bins, EstimatorSettings(**base))["music"]
    smoothed = estimate_spectra(bins, EstimatorSettings(**base, music_smoothing=True))["music"]
    freqs = np.array([b.frequency_hz for b in bins])
    center = bins[int(np.argmin(np.abs(freqs - 1500.0)))]
    expect_raw = music_spectrum(estimate_spectral_matrix(center), 2, grid, geom, 1500.0)
    expect_smooth = music_spectrum(
        focus_and_smooth(bins, 1500.0, grid, geom), 2, grid, geom, 1500.0
    )
    np.testing.assert_array_equal(raw.values, expect_raw.values)
    np.testing.assert_array_equal(smoothed.values, expect_smooth.values)
    assert not np.array_equal(raw.values, smoothed.values)
    # the smoothed covariance localizes the coherent pair
    peaks = detect_peaks(smoothed, 2)
    assert np.max(np.abs(peaks - np.sort(paths.angles_deg))) <= 1.5


def test_run_experiment_reproducible_and_complete():
    geom, paths, grid = bench_fixture()
    plan = ExperimentPlan(
        paths=paths, geometry=geom, grid=grid,
        snr_list=(10.0,), trials=3, algorithms=("music", "cbf"),
        seed=11, band_hz=(1400.0, 1600.0), num_bins=4, num_snapshots=32,
        coherence="incoherent",
    )
    r1 = run_experiment(plan)
    r2 = run_experiment(plan)
    assert r1.to_json_dict() == r2.to_json_dict()
    assert len(r1.entries) == 2 * 1 * 2  # algorithms x snrs x paths
    for e in r1.entries:
        assert 0.0 <= e.detection_rate <= 1.0
        assert e.trials_used <= plan.trials


def test_run_experiment_thread_count_does_not_change_results():
    geom, paths, grid = bench_fixture()
    plan = ExperimentPlan(
        paths=paths, geometry=geom, grid=grid,
        snr_list=(5.0, 10.0), trials=2, algorithms=("cbf",),
        seed=42, band_hz=(1400.0, 1600.0), num_bins=4, num_snapshots=16,
    )
    serial = run_experiment(plan, threads=1)
    parallel = run_experiment(plan, threads=4)
    assert serial.to_json_dict() == parallel.to_json_dict()


def test_run_experiment_noise_free_single_path_rmse_zero_on_grid():
    geom = ArrayGeometry(num_sensors=8, spacing_m=0.5, sound_speed_mps=1500.0)
    grid = AngleGrid.uniform(-60.0, 60.0, 1.0)
    paths = RaypathSet([grid.angles_deg[45]], [1.0], [0.0])
    plan = ExperimentPlan(
        paths=paths, geometry=geom, grid=grid,
        snr_list=(np.inf,), trials=1,
        algorithms=("cbf", "music", "bpdn", "subspace_cs"),
        seed=0, band_hz=(1500.0, 1500.0), num_bins=1, num_snapshots=8,
    )
    report = run_experiment(plan)
    for e in report.entries:
        assert e.rmse_deg == pytest.approx(0.0, abs=1e-9), e
        assert e.detection_rate == 1.0


def test_plan_validation():
    geom, paths, grid = bench_fixture()
    with pytest.raises(ValueError):
        ExperimentPlan(paths=paths, geometry=geom, grid=grid, snr_list=(), trials=2)
    with pytest.raises(ValueError):
        ExperimentPlan(paths=paths, geometry=geom, grid=grid, snr_list=(0.0,), trials=0)
    with pytest.raises(ValueError):
        ExperimentPlan(paths=paths, geometry=geom, grid=grid, snr_list=(0.0,),
                       trials=1, algorithms=("madeup",))


@pytest.mark.parametrize(
    "change, message",
    [
        ({"paths": RaypathSet(np.linspace(-40.0, 40.0, 8), np.ones(8), np.zeros(8))},
         "num_paths must satisfy 1 <= num_paths < 8 sensors, got 8"),
        ({"band_hz": (2000.0, 1000.0)}, "band_hz must satisfy 0 < low <= high"),
        ({"num_bins": 0}, "num_bins must be at least 1, got 0"),
        ({"num_snapshots": 0}, "num_snapshots must be at least 1, got 0"),
        ({"coherence": 1.5}, "coherence must lie in [0, 1], got 1.5"),
    ],
    ids=["paths-as-sensors", "band-reversed", "no-bins", "no-snapshots", "coherence-above-1"],
)
def test_plan_that_cannot_run_is_refused_when_built(change, message):
    geom, paths, grid = bench_fixture()
    fields = dict(paths=paths, geometry=geom, grid=grid, snr_list=(0.0,), trials=1,
                  algorithms=("music", "cbf"))
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentPlan(**{**fields, **change})


def test_report_entry_lookup_and_rows():
    geom, paths, grid = bench_fixture()
    plan = ExperimentPlan(
        paths=paths, geometry=geom, grid=grid,
        snr_list=(10.0,), trials=2, algorithms=("cbf",),
        seed=1, band_hz=(1400.0, 1600.0), num_bins=2, num_snapshots=16,
    )
    report = run_experiment(plan)
    entry = report.entry("cbf", 10.0, 0)
    assert entry.algorithm == "cbf"
    rows = report.rows()
    assert len(rows) == 2
    assert list(rows[0]) == ["algorithm", "snr_db", "path_index", "rmse_deg",
                             "detection_rate", "trials_used"]
    with pytest.raises(KeyError):
        report.entry("music", 10.0, 0)


@pytest.mark.parametrize(
    "error", [np.linalg.LinAlgError("singular"), FocusingError("rank deficient")]
)
def test_run_experiment_flags_numerical_failure_and_completes(monkeypatch, error):
    geom, paths, grid = bench_fixture()
    plan = ExperimentPlan(
        paths=paths, geometry=geom, grid=grid,
        snr_list=(5.0, 10.0), trials=2, algorithms=("cbf", "music"),
        seed=3, band_hz=(1400.0, 1600.0), num_bins=2, num_snapshots=16,
    )
    expected = run_experiment(plan)

    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(raysep.bench, "cbf_spectrum", broken)
    report = run_experiment(plan)
    assert report.flagged_trials == tuple(
        ("cbf", snr, ti) for snr in plan.snr_list for ti in range(plan.trials)
    )
    for snr in plan.snr_list:
        assert all(p.size == 0 for p in report.trial_peaks[("cbf", snr)])
        assert report.entry("cbf", snr, 0).trials_used == 0
        # the other algorithm of the same cells is untouched
        for got, want in zip(
            report.trial_peaks[("music", snr)], expected.trial_peaks[("music", snr)]
        ):
            assert_array_equal(got, want)


@pytest.mark.parametrize(
    "affinity, cpu_count, asked, workers",
    [
        ({0, 1}, 8, 8, [2]),  # clamped to the CPUs the process may run on
        ({0, 1, 2, 3}, 8, 3, [3]),  # fewer threads than CPUs: kept
        ({0}, 8, 4, []),  # one CPU: serial, no executor
        (None, 3, 8, [3]),  # no affinity support: os.cpu_count()
        (None, None, 8, []),  # unknown CPU count: serial
    ],
)
def test_run_experiment_clamps_threads_to_usable_cpus(
    monkeypatch, affinity, cpu_count, asked, workers
):
    geom, paths, grid = bench_fixture()
    plan = ExperimentPlan(
        paths=paths, geometry=geom, grid=grid,
        snr_list=(10.0,), trials=2, algorithms=("cbf",),
        seed=4, band_hz=(1400.0, 1600.0), num_bins=2, num_snapshots=16,
    )
    expected = run_experiment(plan)
    created = []

    class RecordingExecutor:
        """Records the worker count and runs the cells in this thread."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: affinity, raising=False
        )
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    monkeypatch.setattr(raysep.bench, "ThreadPoolExecutor", RecordingExecutor)
    report = run_experiment(plan, threads=asked)
    assert created == workers
    assert report.to_json_dict() == expected.to_json_dict()


def table1_fixture():
    """Table-1 geometry, 5-path eigenray truth and the +/-10 degree grid."""
    geom = ArrayGeometry(num_sensors=11, spacing_m=2.5, sound_speed_mps=1500.0)
    scenario = WaveguideScenario(
        water_depth_m=100.0,
        range_m=2000.0,
        source_depth_m=50.0,
        receiver_depths_m=37.5 + 2.5 * np.arange(11),
        sound_speed_mps=1500.0,
        num_paths=5,
    )
    return geom, eigenray_angles(scenario), AngleGrid.uniform(-10.0, 10.0, 0.2)


def front_end_plan():
    # The benchmark's front-end cell: 64 bins of 150 snapshots, synthesized
    # in several blocks per cell, with smoothed MUSIC and CBF.
    geom, paths, grid = table1_fixture()
    plan = ExperimentPlan(
        paths=paths, geometry=geom, grid=grid,
        snr_list=(-5.0, 10.0), trials=2, algorithms=("music", "cbf"),
        seed=11, band_hz=(1000.0, 2000.0), num_bins=64, num_snapshots=150,
        coherence=0.5, music_smoothing=True,
    )
    per_bin = geom.num_sensors * plan.num_snapshots * 16
    assert raysep.simulate._BLOCK_BYTES // per_bin < plan.num_bins
    return plan


def test_thread_count_does_not_change_a_multi_block_front_end_plan():
    plan = front_end_plan()
    serial = run_experiment(plan, threads=1)
    parallel = run_experiment(plan, threads=2)
    assert parallel.to_json_dict() == serial.to_json_dict()
    assert serial.flagged_trials == ()


def test_threads_that_meet_an_empty_focusing_cache_give_the_serial_report():
    # Both workers miss the cache at their first cell and may compute the
    # same transforms side by side; what they cache must serve every cell.
    plan = front_end_plan()
    raysep.spectral._focusing_stacks.cache_clear()
    parallel = run_experiment(plan, threads=2)
    assert raysep.spectral._focusing_stacks.cache_info().currsize == 1
    raysep.spectral._focusing_stacks.cache_clear()
    serial = run_experiment(plan, threads=1)
    assert parallel.to_json_dict() == serial.to_json_dict()
    assert parallel.flagged_trials == ()


def test_subspace_retry_solves_at_the_certified_floor():
    # at +20 dB the coherent cross terms put the noise-floor allowance out of reach
    geom, paths, grid = table1_fixture()
    settings = EstimatorSettings(
        geometry=geom, grid=grid, num_paths=5, algorithms=("subspace_cs",),
        focus_frequency_hz=1500.0,
    )
    bins = synthesize_broadband(
        paths, (1000.0, 2000.0), 32, 150, NoiseSpec(snr_db=20.0, seed=3), geom, "coherent"
    )
    dictionary = build_dictionary(grid, 1500.0, geom)
    data = raysep.bench._TrialData(settings, bins, dictionary, 1500.0)
    retried = raysep.bench._run_algorithm(data, "subspace_cs")
    assert retried.retried and retried.diagnostics()["retried"] is True

    # the retry is the refused walk's point; compare it with a walk of its own
    dec = decompose(data.smoothed_covariance(), 5)
    bound = choose_delta(dec, 5, factor=settings.delta_factor)
    with pytest.raises(SolverInfeasibleError) as exc:
        subspace_cs(
            build_lifted_system(dec, dictionary), replace(settings.solver, residual_bound=bound)
        )
    direct = subspace_cs(
        build_lifted_system(dec, dictionary),
        replace(settings.solver, residual_bound=1.1 * exc.value.min_residual),
    )
    assert not direct.retried
    assert_array_equal(retried.values, direct.values)
    assert retried.residual == direct.residual
    assert retried.residual_bound == direct.residual_bound
    assert_array_equal(retried.objective_history, direct.objective_history)
    # it counts the whole refused walk, which went past the retry's point
    assert retried.inner_solves > direct.inner_solves

    # without the retry the refusal propagates; the CLI reports its message
    strict = raysep.bench._TrialData(
        replace(settings, subspace_retry=False), bins, dictionary, 1500.0
    )
    with pytest.raises(SolverInfeasibleError, match="residual"):
        raysep.bench._run_algorithm(strict, "subspace_cs")


def test_solver_outcomes_count_retries_and_zero_spectra_without_flagging():
    geom, paths, grid = table1_fixture()
    plan = ExperimentPlan(
        paths=paths, geometry=geom, grid=grid,
        snr_list=(-5.0, 20.0), trials=2, algorithms=("subspace_cs", "music"),
        seed=7,
    )
    serial = run_experiment(plan, threads=1)
    parallel = run_experiment(plan, threads=2)
    # -5 dB: the allowance covers the whole signal subspace; +20 dB: the
    # allowance is below the nonnegative floor and the solve is retried
    assert serial.to_json_dict()["solver_outcomes"] == {
        "subspace_cs": {
            "-5.0": {"retried": 0, "zero_spectrum": 2, "not_converged": 0},
            "20.0": {"retried": 2, "zero_spectrum": 0, "not_converged": 0},
        }
    }
    assert serial.flagged_trials == ()
    assert parallel.to_json_dict() == serial.to_json_dict()


def test_a_run_lifts_once_and_its_path_memo_ends_with_it(monkeypatch):
    geom, paths, grid = table1_fixture()
    lifts, built, solved = [], [], []
    lift, post_init = raysep.bench.lift_dictionary, raysep.subspace.LiftedSystem.__post_init__
    solve = raysep.bench.subspace_cs

    def counted_lift(dictionary):
        lifts.append(dictionary)
        return lift(dictionary)

    def counted_post_init(system):
        built.append(system)
        post_init(system)

    def recorded_solve(lifted, config=None, retry=False):
        solved.append(lifted)
        return solve(lifted, config, retry)

    monkeypatch.setattr(raysep.bench, "lift_dictionary", counted_lift)
    monkeypatch.setattr(raysep.subspace.LiftedSystem, "__post_init__", counted_post_init)
    monkeypatch.setattr(raysep.bench, "subspace_cs", recorded_solve)
    small = dict(paths=paths, geometry=geom, grid=grid, snr_list=(20.0,), trials=2,
                 num_bins=4, num_snapshots=30, seed=3)
    run_experiment(ExperimentPlan(algorithms=("music", "cbf"), **small))
    assert lifts == [] and built == []
    report = run_experiment(ExperimentPlan(algorithms=("subspace_cs", "cbf"), **small))
    assert len(lifts) == 1 and len(built) == 1
    # two cells, each retried within its one solve: one memo serves both
    assert report.solver_outcomes[("subspace_cs", 20.0)]["retried"] == 2
    assert len(solved) == 2
    memo = solved[0]._memo["path"]
    assert all(s._memo["path"] is memo and s.matrix is built[0].matrix for s in solved)
    memo_ref = weakref.ref(memo)
    del memo, solved[:], built[:]
    gc.collect()
    assert memo_ref() is None  # it ended with the run


def test_a_table1_sweep_stays_inside_the_path_memo_bound(monkeypatch):
    # The seed-101 Table-1 sweep of subspace_cs, MUSIC and CBF at -5 to +20
    # dB: every passive set its walks visit fits in the memo, so each set is
    # solved once in the run.
    geom, paths, grid = table1_fixture()
    solve, solved = raysep.bench.subspace_cs, []

    def recorded_solve(lifted, config=None, retry=False):
        solved.append(lifted)
        return solve(lifted, config, retry)

    monkeypatch.setattr(raysep.bench, "subspace_cs", recorded_solve)
    run_experiment(ExperimentPlan(
        paths=paths, geometry=geom, grid=grid, snr_list=(-5.0, 0.0, 5.0, 10.0, 20.0),
        trials=20, algorithms=("subspace_cs", "music", "cbf"), seed=101,
    ))
    memo = solved[0]._memo["path"]
    assert all(s._memo["path"] is memo for s in solved)
    assert 0 < len(memo._sets) < raysep.solvers._PATH_MEMO_SETS


def smoke_plans():
    """Two seeded Table-1 plans at smoke size: every algorithm, and smoothed MUSIC/CBF."""
    geom, paths, _ = table1_fixture()
    small = dict(paths=paths, geometry=geom, grid=AngleGrid.uniform(-10.0, 10.0, 1.0),
                 snr_list=(0.0, 20.0), trials=2, seed=101, num_bins=8, num_snapshots=20)
    return {
        "all_algorithms": ExperimentPlan(
            algorithms=("subspace_cs", "reweighted_cs", "bpdn", "music", "cbf"),
            solver=SolverConfig(max_reweight_iters=2, inner_max_iters=60, inner_tol=1e-3),
            **small,
        ),
        "smoothed_baselines": ExperimentPlan(
            algorithms=("music", "cbf"), coherence=0.5, music_smoothing=True, **small
        ),
    }


# report.csv rows (algorithm, snr_db, path_index, rmse_deg, detection_rate,
# trials_used) of the plans above, as this version of raysep computes them
SEEDED_ROWS = {
    "all_algorithms": [
        ("subspace_cs", 0.0, 0, 0.519747365919694, 1.0, 2),
        ("subspace_cs", 0.0, 1, 0.49490713275860054, 1.0, 2),
        ("subspace_cs", 0.0, 2, 0.2194948968528294, 1.0, 2),
        ("subspace_cs", 0.0, 3, 0.3558250428551899, 1.0, 2),
        ("subspace_cs", 0.0, 4, 0.06492244544795511, 1.0, 2),
        ("subspace_cs", 20.0, 0, 0.6419060406764289, 1.0, 2),
        ("subspace_cs", 20.0, 1, 0.49490713275860054, 1.0, 2),
        ("subspace_cs", 20.0, 2, 0.2194948968528294, 1.0, 2),
        ("subspace_cs", 20.0, 3, 0.3558250428551899, 1.0, 2),
        ("subspace_cs", 20.0, 4, 0.06492244544795511, 1.0, 2),
        ("reweighted_cs", 0.0, 0, 0.35809395932357113, 1.0, 2),
        ("reweighted_cs", 0.0, 1, 0.49490713275860054, 0.5, 1),
        ("reweighted_cs", 0.0, 2, 0.2194948968528294, 1.0, 2),
        ("reweighted_cs", 0.0, 3, 0.9911793500563294, 1.0, 2),
        ("reweighted_cs", 0.0, 4, 0.06492244544795511, 1.0, 2),
        ("reweighted_cs", 20.0, 0, 0.35809395932357113, 1.0, 2),
        ("reweighted_cs", 20.0, 1, 0.49490713275860054, 1.0, 2),
        ("reweighted_cs", 20.0, 2, 0.2194948968528294, 1.0, 2),
        ("reweighted_cs", 20.0, 3, 0.3558250428551899, 1.0, 2),
        ("reweighted_cs", 20.0, 4, 0.06492244544795511, 1.0, 2),
        ("bpdn", 0.0, 0, 0.35809395932357113, 0.5, 1),
        ("bpdn", 0.0, 1, math.nan, 0.0, 0),
        ("bpdn", 0.0, 2, 0.2194948968528294, 0.5, 1),
        ("bpdn", 0.0, 3, 1.35582504285519, 0.5, 1),
        ("bpdn", 0.0, 4, math.nan, 0.0, 0),
        ("bpdn", 20.0, 0, 0.35809395932357113, 1.0, 2),
        ("bpdn", 20.0, 1, 0.50002593662403, 1.0, 2),
        ("bpdn", 20.0, 2, 0.2194948968528294, 1.0, 2),
        ("bpdn", 20.0, 3, 0.3558250428551899, 1.0, 2),
        ("bpdn", 20.0, 4, 0.06492244544795511, 1.0, 2),
        ("music", 0.0, 0, 0.35809395932357113, 1.0, 2),
        ("music", 0.0, 1, 0.50002593662403, 1.0, 2),
        ("music", 0.0, 2, 0.2194948968528294, 1.0, 2),
        ("music", 0.0, 3, 2.64417495714481, 0.5, 1),
        ("music", 0.0, 4, 0.6627914290898665, 1.0, 2),
        ("music", 20.0, 0, 0.9931390854394979, 1.0, 2),
        ("music", 20.0, 1, math.nan, 0.0, 0),
        ("music", 20.0, 2, 0.5733089157614809, 1.0, 2),
        ("music", 20.0, 3, 0.9911793500563294, 1.0, 2),
        ("music", 20.0, 4, 2.485880668230711, 1.0, 2),
        ("cbf", 0.0, 0, 0.35809395932357113, 1.0, 2),
        ("cbf", 0.0, 1, math.nan, 0.0, 0),
        ("cbf", 0.0, 2, 0.2194948968528294, 1.0, 2),
        ("cbf", 0.0, 3, 0.9911793500563294, 1.0, 2),
        ("cbf", 0.0, 4, 0.06492244544795511, 1.0, 2),
        ("cbf", 20.0, 0, 0.35809395932357113, 1.0, 2),
        ("cbf", 20.0, 1, math.nan, 0.0, 0),
        ("cbf", 20.0, 2, 0.2194948968528294, 1.0, 2),
        ("cbf", 20.0, 3, 1.35582504285519, 1.0, 2),
        ("cbf", 20.0, 4, 0.06492244544795511, 1.0, 2),
    ],
    "smoothed_baselines": [
        ("music", 0.0, 0, 0.35809395932357113, 1.0, 2),
        ("music", 0.0, 1, 0.50002593662403, 1.0, 2),
        ("music", 0.0, 2, 0.2194948968528294, 1.0, 2),
        ("music", 0.0, 3, 0.3558250428551899, 1.0, 2),
        ("music", 0.0, 4, 0.06492244544795511, 1.0, 2),
        ("music", 20.0, 0, 0.35809395932357113, 1.0, 2),
        ("music", 20.0, 1, 0.5050928672413995, 1.0, 2),
        ("music", 20.0, 2, 0.2194948968528294, 1.0, 2),
        ("music", 20.0, 3, 0.3558250428551899, 1.0, 2),
        ("music", 20.0, 4, 0.06492244544795511, 1.0, 2),
        ("cbf", 0.0, 0, 0.35809395932357113, 1.0, 2),
        ("cbf", 0.0, 1, 0.50002593662403, 1.0, 2),
        ("cbf", 0.0, 2, 0.2194948968528294, 1.0, 2),
        ("cbf", 0.0, 3, 0.520371423377291, 1.0, 2),
        ("cbf", 0.0, 4, 0.06492244544795511, 1.0, 2),
        ("cbf", 20.0, 0, 0.35809395932357113, 1.0, 2),
        ("cbf", 20.0, 1, 0.49490713275860054, 1.0, 2),
        ("cbf", 20.0, 2, 0.2194948968528294, 1.0, 2),
        ("cbf", 20.0, 3, 0.3558250428551899, 1.0, 2),
        ("cbf", 20.0, 4, 0.06492244544795511, 1.0, 2),
    ],
}


@pytest.mark.parametrize("name", sorted(SEEDED_ROWS))
def test_seeded_smoke_reports_hold_across_versions(name):
    # The across-versions guard of the README's test policy: a change that
    # moves a row here must update it and list it in CHANGES.md.
    rows = run_experiment(smoke_plans()[name]).rows()
    assert len(rows) == len(SEEDED_ROWS[name])
    for row, want in zip(rows, SEEDED_ROWS[name]):
        *key, rmse_deg, detection_rate, trials_used = want
        assert [row["algorithm"], row["snr_db"], row["path_index"]] == key
        assert (row["detection_rate"], row["trials_used"]) == (detection_rate, trials_used), key
        if math.isnan(rmse_deg):
            assert math.isnan(row["rmse_deg"]), key
        else:
            assert row["rmse_deg"] == pytest.approx(rmse_deg, rel=1e-12, abs=0), key


def public_values():
    """One value of each public type that holds arrays, plus AngleGrid and ExperimentPlan."""
    geom, paths, grid = bench_fixture()
    scenario = WaveguideScenario(
        water_depth_m=100.0, range_m=2000.0, source_depth_m=50.0,
        receiver_depths_m=37.5 + 2.5 * np.arange(8), sound_speed_mps=1500.0, num_paths=3,
    )
    snapshots = synthesize_broadband(
        paths, (1500.0, 1500.0), 1, 32, NoiseSpec(10.0, 3), geom, "incoherent"
    )[0]
    spectral = estimate_spectral_matrix(snapshots)
    decomposition = decompose(spectral, 2)
    dictionary = build_dictionary(grid, 1500.0, geom)
    lifted = build_lifted_system(decomposition, dictionary)
    plan = ExperimentPlan(
        paths=paths, geometry=geom, grid=grid, snr_list=(10.0,), trials=1,
        algorithms=("cbf",), seed=1, num_bins=1, band_hz=(1500.0, 1500.0), num_snapshots=16,
    )
    return {
        "AngleGrid": grid,
        "SteeringDictionary": dictionary,
        "RaypathSet": paths,
        "WaveguideScenario": scenario,
        "SnapshotMatrix": snapshots,
        "SpectralMatrix": spectral,
        "SubspaceDecomposition": decomposition,
        "LiftedSystem": lifted,
        "SparseSpectrum": subspace_cs(
            lifted, SolverConfig(residual_bound=0.5 * np.linalg.norm(lifted.vector))
        ),
        "PseudoSpectrum": music_spectrum(spectral, 2, grid, geom, 1500.0),
        "RmseReport": run_experiment(plan),
        "PathScores": rmse([np.array([-20.0, 15.0])], paths),
        "ExperimentPlan": plan,
    }


@pytest.fixture(scope="module")
def public_value_set():
    return public_values()


@pytest.mark.parametrize("name", [
    "AngleGrid", "SteeringDictionary", "RaypathSet", "WaveguideScenario", "SnapshotMatrix",
    "SpectralMatrix", "SubspaceDecomposition", "LiftedSystem", "SparseSpectrum",
    "PseudoSpectrum", "RmseReport", "PathScores", "ExperimentPlan",
])
def test_public_values_compare_and_hash_without_raising(public_value_set, name):
    # Types that hold arrays compare and hash by identity; AngleGrid compares
    # by its angles, and ExperimentPlan by its fields.
    value = public_value_set[name]
    assert type(value).__name__ == name
    twin = copy.deepcopy(value)
    assert value == value and not value != value
    assert (twin == value) is (name == "AngleGrid")
    assert (twin != value) is (name != "AngleGrid")
    hash(value)
