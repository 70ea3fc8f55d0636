import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import raysep.spectral
from raysep import (
    AngleGrid,
    ArrayGeometry,
    ExperimentPlan,
    FocusingError,
    NoiseSpec,
    RaypathSet,
    SnapshotMatrix,
    SpectralMatrix,
    build_dictionary,
    estimate_spectral_matrix,
    focus_and_smooth,
    focusing_transform,
    run_experiment,
    steering_vector,
    synthesize_broadband,
    synthesize_snapshots,
)


def geometry():
    return ArrayGeometry(num_sensors=8, spacing_m=0.5, sound_speed_mps=1500.0)


def test_single_snapshot_rank_one():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    snap = SnapshotMatrix(y[:, None], 1500.0)
    r = estimate_spectral_matrix(snap)
    assert_allclose(r.matrix, np.outer(y, y.conj()), atol=1e-12)
    eigs = np.linalg.eigvalsh(r.matrix)[::-1]
    assert eigs[1] < 1e-12 * eigs[0]


def test_white_noise_covariance_approaches_identity():
    rng = np.random.default_rng(1)
    sigma2 = 2.0
    n = 10_000
    y = np.sqrt(sigma2 / 2) * (rng.standard_normal((8, n)) + 1j * rng.standard_normal((8, n)))
    r = estimate_spectral_matrix(SnapshotMatrix(y, 1500.0)).matrix
    assert_allclose(np.diag(r).real, sigma2, rtol=0.1)
    off = r - np.diag(np.diag(r))
    assert np.max(np.abs(off)) < 5 * sigma2 / np.sqrt(n)


def test_two_incoherent_paths_analytic_covariance():
    geom = geometry()
    g1 = steering_vector(-10.0, 1500.0, geom)
    g2 = steering_vector(25.0, 1500.0, geom)
    analytic = np.outer(g1, g1.conj()) + np.outer(g2, g2.conj())
    eigs_true = np.linalg.eigvalsh(analytic)[::-1]
    paths = RaypathSet([-10.0, 25.0], [1.0, 1.0], [0.0, 0.0])
    snap = synthesize_snapshots(paths, 1500.0, 40_000, NoiseSpec(np.inf, 5), geom, "incoherent")
    eigs = np.linalg.eigvalsh(estimate_spectral_matrix(snap).matrix)[::-1]
    assert_allclose(eigs[:2], eigs_true[:2], rtol=0.05)
    assert eigs[2] < 1e-10 * eigs[0]


def test_trace_equals_average_snapshot_power():
    rng = np.random.default_rng(2)
    y = rng.standard_normal((8, 33)) + 1j * rng.standard_normal((8, 33))
    r = estimate_spectral_matrix(SnapshotMatrix(y, 1500.0))
    assert_allclose(
        np.trace(r.matrix).real,
        np.mean(np.sum(np.abs(y) ** 2, axis=0)),
        rtol=1e-12,
    )


def test_hermitian_and_psd_invariants_enforced():
    bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        SpectralMatrix(bad, 1, 1500.0)
    not_psd = np.diag([1.0, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        SpectralMatrix(not_psd, 1, 1500.0)


def test_spectral_matrix_keeps_a_private_read_only_copy():
    matrix = np.eye(3, dtype=complex)
    spectral = SpectralMatrix(matrix, 1, 1500.0)
    assert not np.shares_memory(spectral.matrix, matrix)
    base = spectral.matrix
    while isinstance(base, np.ndarray):
        with pytest.raises(ValueError):
            base.setflags(write=True)
        base = base.base
    matrix.setflags(write=True)
    matrix[0, 0] = 5.0
    assert_array_equal(spectral.matrix, np.eye(3))


def test_stacked_checks_judge_each_matrix_on_its_own_scale():
    # A non-Hermitian or indefinite matrix is refused next to one 1e12 times
    # larger, with the message SpectralMatrix gives for it alone.
    big = 1e12 * np.eye(2, dtype=complex)
    cases = [
        (np.array([[1.0, 1e-6], [0.0, 1.0]], dtype=complex), "not Hermitian"),
        (np.diag([1.0, -1e-6]).astype(complex), "min eigenvalue -1.000e-06"),
    ]
    for bad, message in cases:
        with pytest.raises(ValueError, match=message):
            SpectralMatrix(bad, 1, 1500.0)
        with pytest.raises(ValueError, match=message):
            raysep.spectral._check_hermitian_psd(np.stack([big, bad, big]))
    raysep.spectral._check_hermitian_psd(np.stack([big, np.eye(2, dtype=complex)]))


def test_single_bin_focusing_is_identity():
    geom = geometry()
    grid = AngleGrid.uniform(-40.0, 40.0, 1.0)
    paths = RaypathSet([5.0], [1.0], [0.0])
    snap = synthesize_snapshots(paths, 1500.0, 16, NoiseSpec(10.0, 3), geom)
    direct = estimate_spectral_matrix(snap)
    smoothed = focus_and_smooth([snap], None, grid, geom)
    assert_allclose(smoothed.matrix, direct.matrix, atol=1e-12)
    t = focusing_transform(1500.0, 1500.0, grid, geom)
    assert_allclose(t, np.eye(8), atol=1e-10)


def focusing_residuals(transform, from_frequency_hz, to_frequency_hz, grid, geometry):
    """Per-grid-angle alignment error ||T g_from - g_to|| / sqrt(M).

    Bounded by sqrt(2) (orthogonal vectors); it should sit well below 1 for
    usable focusing bands.
    """
    g_from = build_dictionary(grid, from_frequency_hz, geometry).matrix
    g_to = build_dictionary(grid, to_frequency_hz, geometry).matrix
    err = transform @ g_from - g_to
    return np.linalg.norm(err, axis=0) / np.sqrt(geometry.num_sensors)


def test_focusing_transform_is_unitary_and_aligns_steering():
    geom = geometry()
    grid = AngleGrid.uniform(-40.0, 40.0, 1.0)
    t = focusing_transform(1300.0, 1500.0, grid, geom)
    assert_allclose(t @ t.conj().T, np.eye(8), atol=1e-10)
    res = focusing_residuals(t, 1300.0, 1500.0, grid, geom)
    # documented alignment quality for a ~15% frequency offset over this sector
    assert np.max(res) < 0.75
    assert np.mean(res) < 0.5
    # focusing must beat not focusing
    res_raw = focusing_residuals(np.eye(8), 1300.0, 1500.0, grid, geom)
    assert np.mean(res) < np.mean(res_raw)


def test_smoothing_restores_rank_for_coherent_pair():
    geom = geometry()
    grid = AngleGrid.uniform(-40.0, 40.0, 1.0)
    paths = RaypathSet([-12.0, 14.0], [1.0, 1.0], [0.0, 0.005])
    bins = synthesize_broadband(paths, (1350.0, 1650.0), 32, 100, NoiseSpec(10.0, 17), geom, "coherent")
    smoothed = focus_and_smooth(bins, None, grid, geom)
    eigs = np.linalg.eigvalsh(smoothed.matrix)[::-1]
    assert np.sum(eigs > 10.0 * np.median(eigs)) >= 2
    raw = estimate_spectral_matrix(bins[16])
    eigs_raw = np.linalg.eigvalsh(raw.matrix)[::-1]
    assert np.sum(eigs_raw > 10.0 * np.median(eigs_raw)) == 1
    assert smoothed.frequency_hz == pytest.approx(1500.0)


def test_signal_subspace_dimension_nondecreasing_in_bins():
    geom = geometry()
    grid = AngleGrid.uniform(-40.0, 40.0, 1.0)
    paths = RaypathSet([-12.0, 14.0], [1.0, 1.0], [0.0, 0.005])
    dims = []
    for num_bins in (1, 4, 16, 32):
        bins = synthesize_broadband(
            paths, (1350.0, 1650.0), num_bins, 100, NoiseSpec(30.0, 23), geom, "coherent"
        )
        smoothed = focus_and_smooth(bins, 1500.0, grid, geom)
        eigs = np.linalg.eigvalsh(smoothed.matrix)[::-1]
        dims.append(int(np.sum(eigs > 10.0 * np.median(eigs))))
    assert dims == sorted(dims)
    assert dims[-1] >= 2


def test_focusing_rejects_degenerate_grid():
    geom = geometry()
    # near-identical grid angles collapse the cross matrix to rank one
    grid = AngleGrid(np.linspace(-4e-7, 4e-7, 9))
    with pytest.raises(FocusingError) as exc:
        focusing_transform(1000.0, 2000.0, grid, geom)
    assert "condition number" in str(exc.value)


def reference_focus_and_smooth(bins, focus_frequency_hz, grid, geometry):
    """The per-bin focusing loop, written plainly.

    The stacked focus_and_smooth in raysep.spectral must reproduce it bit
    for bit: per bin the hermitized sample covariance, mapped by its own
    focusing transform unless the bin sits at the focus, summed in bin
    order.
    """
    freqs = [b.frequency_hz for b in bins]
    if focus_frequency_hz is None:
        focus_frequency_hz = 0.5 * (min(freqs) + max(freqs))
    m = bins[0].num_sensors
    acc = np.zeros((m, m), dtype=complex)
    for snap in bins:
        y = snap.data
        r = y @ y.conj().T / snap.num_snapshots
        r = 0.5 * (r + r.conj().T)
        if snap.frequency_hz == focus_frequency_hz:
            acc += r
        else:
            t = focusing_transform(snap.frequency_hz, focus_frequency_hz, grid, geometry)
            acc += t @ r @ t.conj().T
    r = acc / len(bins)
    return 0.5 * (r + r.conj().T), sum(b.num_snapshots for b in bins), float(focus_frequency_hz)


def table1_geometry():
    return ArrayGeometry(num_sensors=11, spacing_m=2.5, sound_speed_mps=1500.0)


def table1_grid():
    return AngleGrid.uniform(-10.0, 10.0, 0.2)


def assert_matches_reference(bins, focus_frequency_hz, grid, geom):
    got = focus_and_smooth(bins, focus_frequency_hz, grid, geom)
    matrix, num_snapshots, frequency_hz = reference_focus_and_smooth(
        bins, focus_frequency_hz, grid, geom
    )
    assert_array_equal(got.matrix, matrix)
    assert got.num_snapshots == num_snapshots
    assert got.frequency_hz == frequency_hz


@pytest.mark.parametrize("num_bins", [1, 3, 32])
@pytest.mark.parametrize("snr_db", [-5.0, 20.0, np.inf])
@pytest.mark.parametrize("coherence", ["coherent", "incoherent", 0.5])
def test_focus_and_smooth_matches_the_per_bin_loop_bit_for_bit(
    coherence, snr_db, num_bins, five_path_fan
):
    geom = table1_geometry()
    bins = synthesize_broadband(
        five_path_fan, (1000.0, 2000.0), num_bins, 40, NoiseSpec(snr_db, 907), geom, coherence
    )
    if num_bins == 3:  # the middle bin sits at the focus and enters unmapped
        assert bins[1].frequency_hz == 1500.0
    assert_matches_reference(bins, None, table1_grid(), geom)


@pytest.mark.parametrize("focus_frequency_hz", [None, 1500.0, 1234.5])
def test_focus_and_smooth_with_unequal_snapshot_counts_matches_the_loop(focus_frequency_hz):
    geom = table1_geometry()
    rng = np.random.default_rng(41)
    freqs = [1000.0, 1234.5, 1500.0, 1750.0, 2000.0]
    bins = [
        SnapshotMatrix(rng.standard_normal((11, n)) + 1j * rng.standard_normal((11, n)), f, 0.5)
        for f, n in zip(freqs, [1, 7, 40, 13, 150])
    ]
    assert_matches_reference(bins, focus_frequency_hz, table1_grid(), geom)


@pytest.fixture
def empty_focusing_memo():
    raysep.spectral._focusing_stacks.cache_clear()
    yield
    raysep.spectral._focusing_stacks.cache_clear()


def smoothed_plan(grid, geom, **changes):
    fields = dict(
        paths=RaypathSet([-2.0, 3.0], [1.0, -1.0], [0.0, 0.004]),
        geometry=geom,
        grid=grid,
        snr_list=(0.0, 10.0),
        trials=2,
        algorithms=("music", "cbf"),
        seed=5,
        num_bins=5,
        num_snapshots=20,
        music_smoothing=True,
    )
    fields.update(changes)
    return ExperimentPlan(**fields)


def test_focusing_transforms_are_computed_once_per_plan(monkeypatch, empty_focusing_memo):
    calls = []
    original = raysep.spectral.focusing_transform

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(raysep.spectral, "focusing_transform", counted)
    geom, grid = table1_geometry(), table1_grid()
    # Five bins over 1-2 kHz: the middle one sits at the focus, so B - 1 = 4
    # transforms serve all 2 x 2 cells.
    run_experiment(smoothed_plan(grid, geom))
    assert len(calls) == 4
    assert {c[0] for c in calls} == {1000.0, 1250.0, 1750.0, 2000.0}
    run_experiment(smoothed_plan(grid, geom, seed=6))
    assert len(calls) == 4

    # A different grid or geometry misses the memo.
    run_experiment(smoothed_plan(AngleGrid.uniform(-10.0, 10.0, 0.25), geom))
    assert len(calls) == 8
    run_experiment(smoothed_plan(grid, ArrayGeometry(11, 2.0, 1500.0)))
    assert len(calls) == 12


def test_memoized_focusing_stacks_are_read_only(empty_focusing_memo):
    geom, grid = table1_geometry(), table1_grid()
    freqs = (1000.0, 1250.0, 2000.0)
    t, t_h = raysep.spectral._focusing_stacks(freqs, 1500.0, grid, geom)
    assert t.shape == t_h.shape == (3, 11, 11)
    assert not t.flags.writeable and not t_h.flags.writeable
    for k, f in enumerate(freqs):
        fresh = focusing_transform(f, 1500.0, grid, geom)
        assert fresh.flags.writeable
        assert_array_equal(t[k], fresh)
        assert_array_equal(t_h[k], fresh.conj().T)
    assert raysep.spectral._focusing_stacks(freqs, 1500.0, grid, geom)[0] is t

    # The memo is bounded: old sets are dropped, least recently used first.
    info = raysep.spectral._focusing_stacks.cache_info()
    for step in range(1, 2 * info.maxsize):
        raysep.spectral._focusing_stacks((1000.0 + step,), 1500.0, grid, geom)
    assert raysep.spectral._focusing_stacks.cache_info().currsize == info.maxsize


def test_focusing_failure_is_raised_on_every_call_and_flags_every_smoothed_solve(
    empty_focusing_memo,
):
    geom = geometry()
    # near-identical grid angles collapse the cross matrix to rank one
    grid = AngleGrid(np.linspace(-4e-7, 4e-7, 9))
    paths = RaypathSet([-2.0, 3.0], [1.0, 1.0], [0.0, 0.004])
    bins = synthesize_broadband(paths, (1000.0, 2000.0), 4, 10, NoiseSpec(10.0, 3), geom)
    for _ in range(3):
        with pytest.raises(FocusingError, match="condition number"):
            focus_and_smooth(bins, None, grid, geom)
    assert raysep.spectral._focusing_stacks.cache_info().currsize == 0

    plan = smoothed_plan(grid, geom, paths=paths, num_bins=4)
    report = run_experiment(plan)
    expected = {
        (alg, snr, trial)
        for alg in plan.algorithms
        for snr in plan.snr_list
        for trial in range(plan.trials)
    }
    assert set(report.flagged_trials) == expected
    assert len(report.flagged_trials) == len(expected)
    assert all(e.trials_used == 0 for e in report.entries)
