import numpy as np
import pytest
from numpy.testing import assert_allclose

from raysep import (
    AngleGrid,
    ArrayGeometry,
    FocusingError,
    NoiseSpec,
    RaypathSet,
    SnapshotMatrix,
    SpectralMatrix,
    build_dictionary,
    estimate_spectral_matrix,
    focus_and_smooth,
    focusing_transform,
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

