import copy
import dataclasses
import gc
import itertools
import pickle
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from raysep import (
    AngleGrid,
    ArrayGeometry,
    LiftedSystem,
    NoiseSpec,
    RaypathSet,
    SolverConfig,
    SolverInfeasibleError,
    SpectralMatrix,
    WaveguideScenario,
    bpdn,
    build_dictionary,
    build_lifted_system,
    choose_delta,
    decompose,
    detect_peaks,
    eigenray_angles,
    focus_and_smooth,
    lift_dictionary,
    reweighted_cs,
    subspace_cs,
    synthesize_broadband,
    synthesize_snapshots,
)
import raysep.solvers
from raysep.solvers import _polish_complex

# At the exact-fit floor the penalty is ~1e-9 of the data scale, so a
# penalty-relative stationarity certificate below ~1e-7 drowns in float
# round-off; 1e-6 is the tightest certifiable setting.
TIGHT = SolverConfig(residual_bound=0.0, inner_tol=1e-6, inner_max_iters=4000)


def small_dictionary():
    # M=8, Q=21: the exhaustive-oracle size
    geom = ArrayGeometry(num_sensors=8, spacing_m=0.5, sound_speed_mps=1500.0)
    grid = AngleGrid.uniform(-60.0, 60.0, 6.0)
    return geom, grid, build_dictionary(grid, 1500.0, geom)


def medium_dictionary():
    geom = ArrayGeometry(num_sensors=11, spacing_m=0.5, sound_speed_mps=1500.0)
    grid = AngleGrid.uniform(-90.0, 90.0, 1.0)
    return geom, grid, build_dictionary(grid, 1500.0, geom)


def exhaustive_l1_oracle(a: np.ndarray, y: np.ndarray, max_support: int):
    """Minimum-l1 exact interpolator over all supports up to max_support."""
    best_l1 = np.inf
    best = None
    for size in range(1, max_support + 1):
        for combo in itertools.combinations(range(a.shape[1]), size):
            sub = a[:, combo]
            coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
            if np.linalg.norm(sub @ coef - y) > 1e-8 * np.linalg.norm(y):
                continue
            l1 = np.sum(np.abs(coef))
            if l1 < best_l1 - 1e-12:
                best_l1 = l1
                best = (combo, coef)
    return best


def test_bpdn_zero_data_returns_zero():
    _, _, d = medium_dictionary()
    spec = bpdn(d, np.zeros(11, dtype=complex))
    assert np.all(spec.values == 0)
    assert spec.converged


def test_bpdn_loose_bound_returns_zero():
    _, grid, d = medium_dictionary()
    y = d.matrix[:, 40]
    spec = bpdn(d, y, SolverConfig(residual_bound=float(np.linalg.norm(y))))
    assert np.all(spec.values == 0)


def test_bpdn_single_atom_exact_recovery():
    _, grid, d = medium_dictionary()
    qstar = 123
    y = (1.5 - 0.5j) * d.matrix[:, qstar]
    spec = bpdn(d, y, TIGHT)
    mags = np.abs(spec.values)
    off = np.delete(mags, qstar)
    assert mags[qstar] > 1.0
    assert np.max(off) < 1e-6 * mags[qstar]
    assert spec.residual <= spec.residual_bound * (1 + 1e-6)
    assert spec.converged


def test_bpdn_negative_bound_rejected():
    with pytest.raises(ValueError):
        SolverConfig(residual_bound=-1.0)


def test_bpdn_dimension_check():
    _, _, d = medium_dictionary()
    with pytest.raises(ValueError):
        bpdn(d, np.zeros(7, dtype=complex))


def test_bpdn_matches_exhaustive_oracle():
    geom, grid, d = small_dictionary()
    rng = np.random.default_rng(2024)
    matched = 0
    trials = 25
    for _ in range(trials):
        p = int(rng.integers(1, 3))
        support = np.sort(rng.choice(len(grid), size=p, replace=False))
        coef = (rng.uniform(0.5, 2.0, p) * np.exp(2j * np.pi * rng.random(p)))
        y = d.matrix[:, support] @ coef
        spec = bpdn(d, y, TIGHT)
        oracle_support, oracle_coef = exhaustive_l1_oracle(d.matrix, y, 2)
        got_support = np.flatnonzero(np.abs(spec.values) > 1e-5 * np.max(np.abs(spec.values)))
        if tuple(got_support) == tuple(oracle_support) and np.allclose(
            spec.values[got_support], oracle_coef, atol=1e-5
        ):
            matched += 1
    assert matched >= trials - 1


def test_reweighted_single_snapshot_matches_bpdn_limit():
    # with a huge stabilizer the weights stay essentially uniform
    _, grid, d = medium_dictionary()
    qstar = 60
    y = 2.0 * d.matrix[:, qstar]
    cfg = SolverConfig(residual_bound=0.0, reweight_xi=1e9, max_reweight_iters=2,
                       inner_tol=1e-8, inner_max_iters=4000)
    rw = reweighted_cs(d, y, cfg)
    bp = bpdn(d, y, TIGHT)
    assert_allclose(rw.values, bp.values, atol=1e-5)


def test_reweighted_noise_free_single_source():
    _, grid, d = medium_dictionary()
    qstar = 95
    y = 1.7 * d.matrix[:, qstar]
    rw = reweighted_cs(d, y, TIGHT)
    mags = np.abs(rw.values)
    assert np.argmax(mags) == qstar
    assert np.max(np.delete(mags, qstar)) < 1e-6 * mags[qstar]


def test_reweighted_fixed_point_weight_identity():
    _, grid, d = medium_dictionary()
    qstar = 95
    y = 1.7 * d.matrix[:, qstar]
    rw = reweighted_cs(d, y, TIGHT)
    agg = np.abs(rw.values)
    xi = 1e-3 * agg.max()
    weights = 1.0 / (agg + xi)
    on = agg > 1e-6 * agg.max()
    assert_allclose((weights * agg)[on], 1.0, atol=2e-3)
    assert np.all((weights * agg)[~on] < 1e-5)


def test_reweighted_multisnapshot_resolves_incoherent_pair():
    geom, grid, d = medium_dictionary()
    paths = RaypathSet([-4.0, 6.0], [1.0, 1.0], [0.0, 0.002])
    snap = synthesize_snapshots(paths, 1500.0, 50, NoiseSpec(10.0, 11), geom, "incoherent")
    eps = 1.1 * np.sqrt(snap.noise_power * 11 * 50)
    cfg = SolverConfig(residual_bound=eps, inner_tol=1e-4, inner_max_iters=600,
                       max_reweight_iters=4)
    rw = reweighted_cs(d, snap, cfg)
    assert np.all(rw.values >= 0)  # aggregated magnitudes
    peaks = detect_peaks(rw, 2)
    assert peaks.size == 2
    assert np.max(np.abs(np.sort(peaks) - np.array([-4.0, 6.0]))) <= 1.0
    assert rw.residual <= eps * (1 + 1e-6)


def lifted_single_path(power=3.0, qstar=110):
    _, grid, d = medium_dictionary()
    g = d.matrix[:, qstar]
    spectral = SpectralMatrix(power * np.outer(g, g.conj()), 1, 1500.0)
    dec = decompose(spectral, 1)
    return build_lifted_system(dec, d), grid, qstar, power


def test_subspace_cs_zero_data():
    lifted, grid, _, _ = lifted_single_path()
    zero = LiftedSystem(np.zeros_like(lifted.vector), lifted.matrix, grid)
    spec = subspace_cs(zero)
    assert np.all(spec.values == 0)
    assert spec.converged


def test_subspace_cs_noise_free_single_path():
    lifted, grid, qstar, power = lifted_single_path()
    spec = subspace_cs(lifted, SolverConfig(inner_tol=1e-8, inner_max_iters=4000))
    assert np.all(spec.values >= 0)
    assert np.argmax(spec.values) == qstar
    assert abs(spec.values[qstar] - power) < 1e-5
    assert np.max(np.delete(spec.values, qstar)) < 1e-6 * power


def test_subspace_cs_scaling_covariance():
    lifted, grid, qstar, power = lifted_single_path()
    spec = subspace_cs(lifted, SolverConfig(inner_tol=1e-8, inner_max_iters=4000))
    scaled = LiftedSystem(5.0 * lifted.vector, lifted.matrix, grid)
    spec5 = subspace_cs(scaled, SolverConfig(inner_tol=1e-8, inner_max_iters=4000))
    assert np.argmax(spec5.values) == np.argmax(spec.values)
    assert_allclose(spec5.values[qstar] / spec.values[qstar], 5.0, rtol=1e-6)


def test_subspace_cs_matches_nonneg_oracle_small_instance():
    geom, grid, d = small_dictionary()
    lifted_matrix = lift_dictionary(d)
    rng = np.random.default_rng(31)
    for _ in range(10):
        support = np.sort(rng.choice(len(grid), size=2, replace=False))
        powers = rng.uniform(0.5, 2.0, 2)
        vec = lifted_matrix[:, support] @ powers
        lifted = LiftedSystem(vec, lifted_matrix, grid)
        spec = subspace_cs(lifted, SolverConfig(inner_tol=1e-8, inner_max_iters=4000))
        got = np.flatnonzero(spec.values > 1e-5 * spec.values.max())
        assert tuple(got) == tuple(support)
        assert_allclose(spec.values[support], powers, atol=1e-5)


def test_subspace_cs_infeasible_bound_reports_min_residual():
    # data orthogonal to what nonnegative combinations can reach
    _, grid, d = medium_dictionary()
    lifted_matrix = lift_dictionary(d)
    vec = -np.sum(lifted_matrix, axis=1) / lifted_matrix.shape[1]
    lifted = LiftedSystem(vec, lifted_matrix, grid)
    with pytest.raises(SolverInfeasibleError) as exc:
        subspace_cs(lifted, SolverConfig(residual_bound=1e-6 * np.linalg.norm(vec)))
    assert exc.value.min_residual > 0



def small_lifted_instance(seed: int) -> LiftedSystem:
    """4 sensors, 9-point grid, and a random covariance as the data.

    The lifted columns only span Toeplitz matrices, so the rest of a random
    covariance is out of reach of every nonnegative combination.
    """
    geom = ArrayGeometry(num_sensors=4, spacing_m=0.5, sound_speed_mps=1500.0)
    grid = AngleGrid.uniform(-80.0, 80.0, 20.0)
    matrix = lift_dictionary(build_dictionary(grid, 1500.0, geom))
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return LiftedSystem((h @ h.conj().T).reshape(-1), matrix, grid)


def exhaustive_nnls_residual(a: np.ndarray, b: np.ndarray) -> float:
    """min ||b - a p|| over real p >= 0, by trying every support.

    The optimum is the least-squares fit on its own support, where every
    entry is positive; any other positive support fit is feasible too, so
    the smallest of them is the optimum.
    """
    real_a = np.vstack([a.real, a.imag])
    real_b = np.concatenate([b.real, b.imag])
    best = float(np.linalg.norm(real_b))
    for size in range(1, a.shape[1] + 1):
        for combo in itertools.combinations(range(a.shape[1]), size):
            coef, *_ = np.linalg.lstsq(real_a[:, combo], real_b, rcond=None)
            if np.all(coef > 0):
                best = min(best, float(np.linalg.norm(real_b - real_a[:, combo] @ coef)))
    return best


def test_subspace_cs_refuses_unreachable_bound_with_certified_floor(monkeypatch):
    def no_engine(*args, **kwargs):
        raise AssertionError("subspace_cs must not run the complex lasso engine")

    monkeypatch.setattr(raysep.solvers, "_cd_lasso", no_engine)
    for seed in range(5):
        lifted = small_lifted_instance(seed)
        floor = exhaustive_nnls_residual(lifted.matrix, lifted.vector)
        with pytest.raises(SolverInfeasibleError, match="residual") as exc:
            subspace_cs(lifted, SolverConfig(residual_bound=0.5 * floor))
        assert exc.value.min_residual == pytest.approx(floor, rel=1e-9)
    spec = subspace_cs(lifted, SolverConfig(residual_bound=1.5 * floor))
    assert spec.residual <= 1.5 * floor * (1 + 1e-6)


def table1_lifted_system(snr_db: float, seed: int):
    """Coherent five-path Table-1 cell: lifted system and noise-floor allowance."""
    geom = ArrayGeometry(num_sensors=11, spacing_m=2.5, sound_speed_mps=1500.0)
    scenario = WaveguideScenario(
        water_depth_m=100.0, range_m=2000.0, source_depth_m=50.0,
        receiver_depths_m=37.5 + 2.5 * np.arange(11), sound_speed_mps=1500.0,
        num_paths=5,
    )
    grid = AngleGrid.uniform(-10.0, 10.0, 0.2)
    bins = synthesize_broadband(
        eigenray_angles(scenario), (1000.0, 2000.0), 32, 150,
        NoiseSpec(snr_db=snr_db, seed=seed), geom, "coherent",
    )
    dec = decompose(focus_and_smooth(bins, 1500.0, grid, geom), 5)
    lifted = build_lifted_system(dec, build_dictionary(grid, 1500.0, geom))
    return lifted, choose_delta(dec, 5)


def assert_nonneg_lasso_stationary(lifted: LiftedSystem, p: np.ndarray):
    """p >= 0 meets the nonnegative-lasso conditions at its own level, to 1e-9."""
    a, b = lifted.matrix, lifted.vector
    gram = (a.conj().T @ a).real
    grad = (a.conj().T @ b).real - gram @ p
    on = p > 0
    assert np.all(p >= 0) and on.any()
    level = float(np.mean(grad[on]))
    assert level > 0
    assert_allclose(grad[on], level, rtol=1e-9, atol=0)
    assert np.max(grad[~on]) <= level * (1 + 1e-9)


def test_subspace_cs_path_is_stationary_and_lands_in_the_band():
    solver = SolverConfig(inner_tol=1e-4, inner_max_iters=600)
    lifted, delta = table1_lifted_system(0.0, seed=5)
    bounds = [(lifted, delta)]
    # at +20 dB the allowance is below the nonnegative floor: solve at the retry bound
    strong, strong_delta = table1_lifted_system(20.0, seed=3)
    with pytest.raises(SolverInfeasibleError) as exc:
        subspace_cs(strong, replace(solver, residual_bound=strong_delta))
    bounds.append((strong, 1.1 * exc.value.min_residual))
    for system, bound in bounds:
        spec = subspace_cs(system, replace(solver, residual_bound=bound))
        assert 0.9 * bound <= spec.residual <= bound
        assert spec.converged
        assert spec.residual == pytest.approx(
            np.linalg.norm(system.vector - system.matrix @ spec.values), rel=1e-12
        )
        assert_nonneg_lasso_stationary(system, spec.values)

    # a bound between the floor and floor / 0.95 is met by the end of the path
    small = small_lifted_instance(2)
    floor = exhaustive_nnls_residual(small.matrix, small.vector)
    spec = subspace_cs(small, SolverConfig(residual_bound=1.02 * floor))
    assert spec.residual == pytest.approx(floor, rel=1e-9)
    assert spec.converged


def test_subspace_cs_solves_tight_reachable_bound():
    # Exact nonnegative 3-atom data on a fine grid. A floor that stops before
    # the nonnegative least-squares optimum (say, once no correlation exceeds
    # 1e-10 of the largest data correlation) reports ~1e-6 ||b|| on the third
    # and fourth draws and would refuse this bound, which the search reaches.
    geom = ArrayGeometry(num_sensors=11, spacing_m=0.5, sound_speed_mps=1500.0)
    grid = AngleGrid.uniform(-90.0, 90.0, 0.2)
    matrix = lift_dictionary(build_dictionary(grid, 1500.0, geom))
    rng = np.random.default_rng(0)
    for _ in range(4):
        support = rng.choice(len(grid), size=3, replace=False)
        vec = matrix[:, support] @ rng.uniform(0.5, 2.0, 3)
        bound = 1e-7 * np.linalg.norm(vec)
        spec = subspace_cs(LiftedSystem(vec, matrix, grid), SolverConfig(residual_bound=bound))
        assert spec.residual <= bound * (1 + 1e-6)

def test_objective_history_monotone():
    _, grid, d = medium_dictionary()
    y = 2.0 * d.matrix[:, 44] - 0.7 * d.matrix[:, 101]
    for spec in (
        bpdn(d, y, SolverConfig(residual_bound=0.5)),
        reweighted_cs(d, y, SolverConfig(residual_bound=0.5, max_reweight_iters=3)),
    ):
        diffs = np.diff(spec.objective_history)
        assert np.all(diffs <= 1e-9 * max(1.0, abs(spec.objective_history[0])))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(reweight_xi=0.0)
    with pytest.raises(ValueError):
        SolverConfig(inner_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(inner_max_iters=0)


def test_choose_delta_noise_free_floor():
    lifted, grid, qstar, power = lifted_single_path()
    _, _, d = medium_dictionary()
    g = d.matrix[:, qstar]
    spectral = SpectralMatrix(power * np.outer(g, g.conj()), 1, 1500.0)
    delta = choose_delta(spectral, 1)
    # pure rank-one: only the 1e-9 floor remains
    assert 0 < delta < 1e-6 * power * 11


def test_choose_delta_white_noise_scaling():
    rng = np.random.default_rng(77)
    m, num, sigma2, p = 11, 4000, 2.0, 2
    y = np.sqrt(sigma2 / 2) * (rng.standard_normal((m, num)) + 1j * rng.standard_normal((m, num)))
    spectral = SpectralMatrix(y @ y.conj().T / num, num, 1500.0)
    delta = choose_delta(spectral, p, factor=1.5)
    assert delta == pytest.approx(1.5 * sigma2 * np.sqrt(m - p), rel=0.25)


def test_choose_delta_factor_zero_strict_mode():
    lam = np.array([5.0, 3.0, 1.0, 0.5])
    delta = choose_delta(lam, 2, factor=0.0)
    assert delta == pytest.approx(1e-9 * np.sqrt(34.0), rel=1e-6)


def test_choose_delta_validation():
    with pytest.raises(ValueError):
        choose_delta(np.array([1.0, 0.5]), 3)
    with pytest.raises(ValueError):
        choose_delta(np.array([1.0, 0.5]), 1, factor=-1.0)


def test_diagnostics_payload():
    _, grid, d = medium_dictionary()
    spec = bpdn(d, d.matrix[:, 10], SolverConfig(residual_bound=0.1))
    diag = spec.diagnostics()
    assert set(diag) == {"method", "iterations", "residual", "residual_bound",
                         "objective", "converged", "inner_solves", "peak_support"}
    assert diag["method"] == "bpdn"
    assert diag["inner_solves"] >= 1 and diag["peak_support"] >= 1
    assert diag["residual"] <= 0.1 * (1 + 1e-6)


def polish_instance(seed=8):
    """Low-coherence 11 x 12 steering set and 16 snapshots of 3-4 paths each.

    Every third snapshot starts with a spurious entry the polish must
    prune, every third with a true entry it must re-admit.
    """
    rng = np.random.default_rng(seed)
    m, n, num_l = 11, 12, 16
    a = np.exp(1j * np.pi * np.outer(np.arange(m), np.linspace(-0.9, 0.9, n)))
    x_true = np.zeros((n, num_l), dtype=complex)
    for col in range(num_l):
        sup = rng.choice(n, size=rng.integers(3, 5), replace=False)
        x_true[sup, col] = rng.uniform(1.0, 2.0, sup.size) * np.exp(
            2j * np.pi * rng.uniform(size=sup.size)
        )
    b = a @ x_true + 0.002 * (
        rng.standard_normal((m, num_l)) + 1j * rng.standard_normal((m, num_l))
    )
    lam = rng.uniform(0.05, 0.1, n)
    x0 = x_true * np.exp(0.2j * rng.uniform(-1, 1, x_true.shape))
    for col in range(num_l):
        if col % 3 == 1:
            q = rng.choice(np.flatnonzero(x_true[:, col] == 0))
            x0[q, col] = -0.3 * (a[:, q].conj() @ b[:, col]) / m
        if col % 3 == 2:
            x0[rng.choice(np.flatnonzero(x_true[:, col])), col] = 0
    return a, b, lam, x0, x_true


def test_polish_columns_are_independent_and_stationary():
    a, b, lam, x0, x_true = polish_instance()
    together = _polish_complex(a, b, lam, x0)
    for col in range(b.shape[1]):
        alone = _polish_complex(a, b[:, [col]], lam, x0[:, [col]])[:, 0]
        assert_allclose(together[:, col], alone, rtol=0, atol=1e-12)
    # prunes and re-admissions end on the true supports (live <= M)
    np.testing.assert_array_equal(together != 0, x_true != 0)
    # complex-lasso stationarity: a_i^H r = lam_i phase(x_i) on the support,
    # |a_i^H r| <= lam_i off it
    corr = a.conj().T @ (b - a @ together)
    on = together != 0
    line = corr - lam[:, None] * together / np.where(on, np.abs(together), 1.0)
    assert np.max(np.abs(line[on])) <= 1e-8 * lam.min()
    assert np.all(np.abs(corr[~on]) <= np.broadcast_to(lam[:, None], corr.shape)[~on])


def test_polish_singular_support_falls_back_without_raising():
    a, b, lam, x0, _ = polish_instance()
    # dictionary columns 0 and 1 are identical: any support holding both
    # has an exactly singular Gram block
    a = np.column_stack([a[:, :1], a])
    lam = np.concatenate([lam[:1], lam])
    x0 = np.vstack([np.zeros((1, b.shape[1]), dtype=complex), x0])
    x0[:2, 0] = [1.0, 1.0j]
    x0[2:, 0] = 0
    x0[:, 1] = 0
    x0[5:7, 1] = [1.0, -1.0]  # same support size, nonsingular
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a[:, :2].conj().T @ a[:, :2], np.ones(2))
    out = _polish_complex(a, b, lam, x0)
    assert np.all(np.isfinite(out))
    # the singular member of the stack leaves the others' solves alone
    alone = _polish_complex(a, b[:, [1]], lam, x0[:, [1]])[:, 0]
    assert_allclose(out[:, 1], alone, rtol=0, atol=1e-12)


def test_zero_spectrum_reports_data_norm_as_residual():
    _, grid, d = medium_dictionary()
    y = d.matrix[:, 40]
    norm = float(np.linalg.norm(y))
    loose = SolverConfig(residual_bound=2.0 * norm)
    lifted, _, _, _ = lifted_single_path()
    vec_norm = float(np.linalg.norm(lifted.vector))
    for spec, data_norm in (
        (bpdn(d, y, loose), norm),
        (reweighted_cs(d, np.column_stack([y, y]), loose), np.sqrt(2) * norm),
        (subspace_cs(lifted, SolverConfig(residual_bound=2.0 * vec_norm)), vec_norm),
    ):
        assert np.all(spec.values == 0)
        assert spec.residual == pytest.approx(data_norm, rel=1e-12)
        assert spec.residual <= spec.residual_bound


def reference_polish_column(a_sub, b_col, lam_sub, x_col):
    """One-column active-set polish, written as a plain loop.

    The batched polish must follow exactly this iteration for every
    snapshot column; it is the reference the lockstep version is checked
    against.
    """
    size = x_col.size
    mag = np.abs(x_col)
    alive = mag > 0
    if np.count_nonzero(alive) < 2:
        return x_col.copy()
    phases = np.zeros(size, dtype=complex)
    phases[alive] = x_col[alive] / mag[alive]
    out = np.zeros(size, dtype=complex)

    def solve(idx):
        asub = a_sub[:, idx]
        h = asub.conj().T @ asub
        c = asub.conj().T @ b_col - lam_sub[idx] * phases[idx]
        try:
            return asub, np.linalg.solve(h, c)
        except np.linalg.LinAlgError:
            return asub, np.linalg.lstsq(h, c, rcond=None)[0]

    for _ in range(6):
        idx = np.flatnonzero(alive)
        asub, z = solve(idx)
        while True:
            crossing = (z.conj() * phases[idx]).real
            if not np.any(crossing <= 0):
                break
            alive[idx[int(np.argmin(crossing))]] = False
            idx = np.flatnonzero(alive)
            if idx.size == 0:
                return np.zeros(size, dtype=complex)
            asub, z = solve(idx)
        new_phases = z / np.maximum(np.abs(z), np.finfo(float).tiny)
        moved = float(np.max(np.abs(new_phases - phases[idx])))
        phases[idx] = new_phases
        out[:] = 0
        out[idx] = z
        corr = a_sub.conj().T @ (b_col - asub @ z)
        dropped = ~alive
        if np.any(dropped):
            viol = np.abs(corr[dropped]) - lam_sub[dropped]
            worst_local = int(np.argmax(viol))
            if viol[worst_local] > 1e-7 * max(float(np.max(lam_sub)), np.finfo(float).tiny):
                worst = np.flatnonzero(dropped)[worst_local]
                alive[worst] = True
                phases[worst] = corr[worst] / max(abs(corr[worst]), np.finfo(float).tiny)
                continue
        if moved < 1e-13:
            break
    return out


def table1_scene(num_snapshots: int, noise_seed: int):
    """A coherent five-path Table-1 style scene at 0 dB: dictionary and snapshots."""
    geom = ArrayGeometry(num_sensors=11, spacing_m=2.5, sound_speed_mps=1500.0)
    d = build_dictionary(AngleGrid.uniform(-10.0, 10.0, 0.2), 1500.0, geom)
    paths = RaypathSet([-6.0, -2.5, 0.4, 3.1, 7.0], [1.0, 0.8, 0.9, 0.7, 0.6],
                       [0.0, 0.001, 0.002, 0.003, 0.004])
    snap = synthesize_snapshots(
        paths, 1500.0, num_snapshots, NoiseSpec(0.0, noise_seed), geom, "coherent"
    )
    return d, snap


def dense_lasso_state(num_snapshots=20, noise_seed=3):
    """Five coordinate sweeps from zero over all 101 rows at a tenth of lam_max.

    This is the kind of state a lambda_max/10 solve polishes after a round
    of sweeps on a large working set: most snapshot columns have more live
    entries than the 11 sensors.
    """
    d, snap = table1_scene(num_snapshots, noise_seed)
    a, b = d.matrix, snap.data
    lam_rows = np.full(a.shape[1], 0.1 * float(np.max(np.abs(a.conj().T @ b))))
    norms = np.sum(np.abs(a) ** 2, axis=0)
    x = np.zeros((a.shape[1], b.shape[1]), dtype=complex)
    r = b.copy()
    a_h = a.conj().T.copy()
    for _ in range(5):
        raysep.solvers._cd_sweep(a, a_h, r, x, list(range(a.shape[1])), lam_rows, norms)
    return a, b, lam_rows, norms, x, r


def test_polish_reproduces_one_column_loop_on_dense_lasso_state():
    # On the dense state most polished columns start with more live entries
    # than the 11 sensors, so their Gram blocks are rank deficient and a
    # last-bit difference in any product would move the result. The lockstep
    # polish does the same arithmetic per column as the loop, so every
    # column matches exactly.
    a, b, lam_rows, _, x, _ = dense_lasso_state()
    idx = np.flatnonzero(np.any(x != 0, axis=1))
    got = _polish_complex(a[:, idx], b, lam_rows[idx], x[idx])
    for col in range(b.shape[1]):
        want = reference_polish_column(a[:, idx], b[:, col], lam_rows[idx], x[idx, col])
        np.testing.assert_array_equal(got[:, col], want)
    columns = b.shape[1]
    rank_deficient = int(np.sum(np.count_nonzero(x[idx], axis=0) > 11))
    assert rank_deficient >= 0.25 * columns > 0


def test_polish_of_a_dense_working_set_does_not_lower_the_objective():
    # The premise of the polish gate in _cd_lasso: on a working set with
    # more rows than sensors, after the sweeps of a round, the polished
    # candidate is no better than the coordinate-descent point, so _cd_lasso
    # would reject it anyway.
    a, b, lam_rows, _, x, r = dense_lasso_state()
    idx = np.flatnonzero(np.any(x != 0, axis=1))
    assert idx.size > a.shape[0]
    cand = _polish_complex(a[:, idx], b, lam_rows[idx], x[idx])

    def objective(res, lam, coef):
        return 0.5 * float(np.linalg.norm(res) ** 2) + raysep.solvers._penalty(lam, coef)

    f_cd = objective(r, lam_rows, x)
    f_cand = objective(b - a[:, idx] @ cand, lam_rows[idx], cand)
    assert not f_cand < f_cd


def test_reweighted_polishes_only_working_sets_the_sensors_resolve(monkeypatch):
    # The 0 dB, 20-snapshot scene with the bench's settings and noise-norm
    # bound: the gate still lets small working sets be polished, and no
    # polish runs on more rows than the 11 sensors.
    d, snap = table1_scene(20, 3)
    eps = 1.1 * np.sqrt(snap.noise_power * 11 * 20)
    cfg = SolverConfig(residual_bound=eps, inner_tol=1e-4, inner_max_iters=600,
                       max_reweight_iters=6)
    rows = []

    def recording(a_sub, b, lam_sub, x):
        rows.append(a_sub.shape[1])
        return _polish_complex(a_sub, b, lam_sub, x)

    monkeypatch.setattr(raysep.solvers, "_polish_complex", recording)
    reweighted_cs(d, snap, cfg)
    assert rows
    assert max(rows) <= 11


def reference_soft_threshold(v, threshold):
    mag = np.abs(v)
    keep = np.maximum(mag - threshold, 0.0)
    return v * (keep / np.maximum(mag, np.finfo(float).tiny))


def reference_cd_sweep(a, r, x, order, lam_rows, col_norms_sq):
    """One cyclic pass of exact coordinate updates, written plainly.

    The lean sweep in raysep.solvers must do exactly this arithmetic.
    """
    max_step = 0.0
    for q in order:
        aq = a[:, q]
        u = aq.conj() @ r + col_norms_sq[q] * x[q]
        xq_new = reference_soft_threshold(u, lam_rows[q]) / col_norms_sq[q]
        delta = xq_new - x[q]
        step = float(np.max(np.abs(delta)))
        if step > 0.0:
            r -= np.outer(aq, delta)
            x[q] = xq_new
            max_step = max(
                max_step, step * col_norms_sq[q] / max(lam_rows[q], np.finfo(float).tiny)
            )
    return max_step


@pytest.mark.parametrize("num_snapshots, noise_seed", [(20, 3), (1, 5)])
def test_cd_sweep_matches_the_plain_loop_bit_for_bit(num_snapshots, noise_seed):
    a, _, lam_rows, norms, x0, r0 = dense_lasso_state(num_snapshots, noise_seed)
    assert np.count_nonzero(np.any(x0 != 0, axis=1)) > 11
    a_h = a.conj().T.copy()
    order = list(range(a.shape[1]))
    x_lean, r_lean = x0.copy(), r0.copy()
    x_ref, r_ref = x0.copy(), r0.copy()
    for _ in range(5):
        step_lean = raysep.solvers._cd_sweep(a, a_h, r_lean, x_lean, order, lam_rows, norms)
        step_ref = reference_cd_sweep(a, r_ref, x_ref, order, lam_rows, norms)
        np.testing.assert_array_equal(x_lean, x_ref)
        np.testing.assert_array_equal(r_lean, r_ref)
        assert step_lean == step_ref


def test_bpdn_is_the_first_reweighted_pass_bit_for_bit():
    # A coherent five-path Table-1 style snapshot at 0 dB with the bench's
    # noise-norm bound: the solve continues the penalty toward the bound and
    # polishes the working sets of at most 11 rows.
    d, snap = table1_scene(1, 5)
    eps = 1.1 * np.sqrt(snap.noise_power * 11)
    cfg = SolverConfig(residual_bound=eps, inner_tol=1e-4, inner_max_iters=600,
                       max_reweight_iters=6)
    bp = bpdn(d, snap.data[:, 0], cfg)
    rw = reweighted_cs(d, snap.data[:, 0], replace(cfg, max_reweight_iters=1))
    assert bp.method == "bpdn" and rw.method == "reweighted_cs"
    np.testing.assert_array_equal(bp.values, rw.values)
    assert bp.residual == rw.residual
    assert bp.iterations == rw.iterations
    assert bp.converged == rw.converged
    assert bp.objective == rw.objective
    assert np.count_nonzero(bp.values) >= 2


def test_reweighted_passes_approach_the_bound_without_dense_detours(monkeypatch):
    # A coherent five-path Table-1 style scene at 0 dB over 20 snapshots,
    # with the bench's solver settings and noise-norm bound. Every inner
    # solve is recorded; its per-row penalties are level * weights, so the
    # weights change, and a new reweighting pass begins, exactly when the
    # penalties stop being a multiple of the previous ones.
    d, snap = table1_scene(20, 3)
    eps = 1.1 * np.sqrt(snap.noise_power * 11 * 20)
    cfg = SolverConfig(residual_bound=eps, inner_tol=1e-4, inner_max_iters=600,
                       max_reweight_iters=6)
    engine = raysep.solvers._cd_lasso
    solves = []

    def recording(a, b, lam_rows, *rest):
        res = engine(a, b, lam_rows, *rest)
        support = np.count_nonzero(np.any(res.x, axis=1))
        solves.append((lam_rows.copy(), res.residual, support))
        return res

    monkeypatch.setattr(raysep.solvers, "_cd_lasso", recording)
    spec = reweighted_cs(d, snap, cfg)

    passes = []
    for lam_rows, residual, _ in solves:
        scale = lam_rows / passes[-1][0] if passes else None
        if passes and np.allclose(scale, scale[0], rtol=1e-9, atol=0):
            passes[-1][1].append((float(scale[0]), residual))
        else:
            passes.append((lam_rows, [(1.0, residual)]))
    assert len(passes) >= 2
    assert spec.inner_solves == len(solves)
    assert spec.peak_support == max(support for *_, support in solves)
    for _, levels in passes:
        final = max(level for level, residual in levels if residual <= eps)
        assert min(level for level, _ in levels) >= 0.5 * final * (1 - 1e-12)
    assert spec.residual <= eps * (1 + 1e-6)


def reference_path_direction(gram, free, tied, log):
    """The path direction with every passive set solved afresh.

    The memoized direction in raysep.solvers must return exactly this.
    """
    S = raysep.solvers
    passive, admissible, d = free.copy(), tied.copy(), np.zeros(free.size)
    j = -1
    for _ in range(3 * free.size):
        idx = np.flatnonzero(passive)
        if idx.size:
            z = S._solve_psd(gram[np.ix_(idx, idx)], np.ones(idx.size))
            log.iterations += 1
            neg = tied[idx] & (z <= 0.0)
            if neg.any():
                cur = d[idx[neg]]
                ratios = cur / np.maximum(cur - z[neg], S._TINY)
                m = int(np.argmin(ratios))
                d[idx] += ratios[m] * (z - d[idx])
                d[idx[neg][m]] = 0.0
                out = idx[tied[idx] & (d[idx] <= 0.0)]
                d[out] = 0.0
                passive[out] = False
                if j >= 0 and not passive[j]:
                    admissible[j] = False
                continue
            d[idx] = z
        growth = np.where(admissible & ~passive, 1.0 - gram[:, idx] @ d[idx], -np.inf)
        j = int(np.argmax(growth))
        if growth[j] <= S._ADMIT_TOL:
            break
        passive[j] = True
    return d, passive


def reference_nonneg_path(a, b, bound, log):
    """The nonnegative lasso homotopy with its Gram and segments computed per call."""
    S = raysep.solvers
    a_h = a.conj().T
    gram, c = (a_h @ a).real, (a_h @ b).real
    lam_max = lam = float(np.max(c))
    tie = S._TIE_REL * max(lam_max, S._TINY)
    aim = S._PATH_AIM * bound
    x = np.zeros(c.size)
    history, segments, event = [], 0, -1
    while lam > 0.0 and segments < S._PATH_SEGMENTS_PER_ATOM * c.size:
        segments += 1
        on = np.flatnonzero(x > 0.0)
        r = b - a[:, on] @ x[on]
        residual = float(np.linalg.norm(r))
        grad = c - gram[:, on] @ x[on]
        history.append(0.5 * residual**2 + lam * float(np.sum(x)))
        tied = (x == 0.0) & (grad >= lam - tie)
        if event >= 0:
            tied[event] = True
        d, passive = reference_path_direction(gram, x > 0.0, tied, log)
        idx = np.flatnonzero(passive)
        log.inner_solves += 1
        log.peak_support = max(log.peak_support, int(idx.size))
        ratios = np.full(c.size, np.inf)
        falling = idx[d[idx] < 0.0]
        ratios[falling] = x[falling] / -d[falling]
        slope = 1.0 - gram[:, idx] @ d[idx]
        rising = ~passive & ~tied & (slope > 0.0)
        ratios[rising] = (lam - grad[rising]) / slope[rising]
        event = int(np.argmin(ratios))
        t = min(float(ratios[event]), lam)
        u = a[:, idx] @ d[idx]
        if np.linalg.norm(r - t * u) <= aim:
            gap = residual**2 - aim**2
            ru, uu = float(np.vdot(u, r).real), float(np.vdot(u, u).real)
            s = min(gap / (ru + np.sqrt(max(ru * ru - uu * gap, 0.0))), t)
            x[idx] += s * d[idx]
            lam -= s
            break
        x[idx] = np.maximum(x[idx] + t * d[idx], 0.0)
        if t < lam:
            x[event] = 0.0
        lam = lam - t if t < lam else 0.0

    on = np.flatnonzero(x > 0.0)
    residual = float(np.linalg.norm(b - a[:, on] @ x[on]))
    if lam <= 0.0 and residual > bound:
        raise S._unreachable(bound, residual)
    history.append(0.5 * residual**2 + lam * float(np.sum(x)))
    grad = c - gram[:, on] @ x[on]
    excess = np.where(x > 0.0, np.abs(grad - lam), np.maximum(grad - lam, 0.0))
    kkt = float(np.max(excess)) / (lam if lam > 0.0 else lam_max)
    return S._InnerResult(x, residual, kkt, segments, history)


def walk(path, a, b, bound, *memo):
    """(result or refused min_residual, log) of one nonnegative path walk."""
    log = raysep.solvers._SearchLog()
    try:
        return path(a, b, bound, log, *memo), log
    except SolverInfeasibleError as exc:
        return exc.min_residual, log


def assert_same_walk(got, want):
    (res, log), (ref, ref_log) = got, want
    assert type(res) is type(ref)
    if isinstance(ref, float):
        assert res == ref
    else:
        assert_array_equal(res.x, ref.x)
        assert res.residual == ref.residual
        assert res.kkt == ref.kkt
        assert_array_equal(res.objective_history, ref.objective_history)
        assert res.iterations == ref.iterations
    assert (log.iterations, log.inner_solves, log.peak_support) == (
        ref_log.iterations, ref_log.inner_solves, ref_log.peak_support
    )


def memo_walk_cases():
    """(matrix, vector, bound) on one shared lifted matrix per scene.

    Table-1 cells at 0, +5 and +20 dB (seeds 3, 5, 7) at their noise-floor
    allowance, and the small random-covariance instances (seeds 0-4) at the
    exact-fit limit, which every one of them refuses.
    """
    table1 = [table1_lifted_system(snr, seed) for snr in (0.0, 5.0, 20.0) for seed in (3, 5, 7)]
    shared = table1[0][0].matrix
    cases = [(shared, lifted.vector, delta) for lifted, delta in table1]
    small = [small_lifted_instance(seed) for seed in range(5)]
    cases += [
        (small[0].matrix, s.vector, 1e-9 * np.linalg.norm(s.vector)) for s in small
    ]
    return cases


def test_memoized_path_matches_the_unmemoized_walk_bit_for_bit():
    S = raysep.solvers
    memos = {}
    refused = 0
    for a, b, bound in memo_walk_cases():
        shared = memos.setdefault(id(a), S._PathMemo(a))
        want = walk(reference_nonneg_path, a, b, bound)
        assert_same_walk(walk(S._nonneg_path, a, b, bound, S._PathMemo(a)), want)
        assert_same_walk(walk(S._nonneg_path, a, b, bound, shared), want)
        # the same walk again, with every set it visits in the memo
        assert_same_walk(walk(S._nonneg_path, a, b, bound, shared), want)
        if isinstance(want[0], float):
            refused += 1
            retry = 1.1 * want[0]
            want = walk(reference_nonneg_path, a, b, retry)
            assert not isinstance(want[0], float)
            assert_same_walk(walk(S._nonneg_path, a, b, retry, shared), want)
            assert_same_walk(walk(S._nonneg_path, a, b, retry, S._PathMemo(a)), want)
    # +5 and +20 dB and every small instance are refused; 0 dB is not
    assert refused == 11


def test_path_memo_is_bounded_and_read_only(monkeypatch):
    S = raysep.solvers
    for bound in (8, S._PATH_MEMO_SETS):
        monkeypatch.setattr(S, "_PATH_MEMO_SETS", bound)
        cases = memo_walk_cases()[:9]
        memo = S._PathMemo(cases[0][0])
        segment, sizes, visited = memo.segment, [], set()

        def counted(idx):
            visited.add(idx.tobytes())
            seg = segment(idx)
            sizes.append(len(memo._sets))
            return seg

        memo.segment = counted
        for a, b, delta in cases:
            got = walk(S._nonneg_path, a, b, delta, memo)
            assert_same_walk(got, walk(reference_nonneg_path, a, b, delta))
        assert len(visited) > bound  # the walks overflow the memo
        assert max(sizes) == bound
        assert not memo.gram.flags.writeable
        for seg in memo._sets.values():
            assert not seg.z.flags.writeable and not seg.rate.flags.writeable
            assert seg._move is None or not seg._move.flags.writeable


def test_shared_path_memo_keeps_its_bound_and_results_under_threads(monkeypatch):
    S = raysep.solvers
    monkeypatch.setattr(S, "_PATH_MEMO_SETS", 2)
    cases = memo_walk_cases()[:9] * 4
    wants = [walk(reference_nonneg_path, a, b, delta) for a, b, delta in cases]
    memo = S._PathMemo(cases[0][0])
    segment, sizes = memo.segment, []

    def counted(idx):
        seg = segment(idx)
        sizes.append(len(memo._sets))
        return seg

    memo.segment = counted
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(walk, S._nonneg_path, a, b, delta, memo) for a, b, delta in cases]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    for got, want in zip(results, wants):
        assert_same_walk(got, want)
    assert max(sizes) == 2


def path_memo(lifted: LiftedSystem):
    """The nonnegative-path memo ``subspace_cs`` keeps on ``lifted`` (None before a solve)."""
    return lifted._memo.get("path")


def test_path_memo_lives_as_long_as_its_lifted_matrix():
    lifted, delta = table1_lifted_system(0.0, seed=5)
    other = lifted._with_vector(2.0 * lifted.vector)
    assert other.matrix is lifted.matrix and other.grid is lifted.grid
    assert path_memo(lifted) is None
    subspace_cs(other, SolverConfig(residual_bound=2.0 * delta))
    memo = path_memo(lifted)
    assert memo is not None and memo._sets
    got = subspace_cs(lifted, SolverConfig(residual_bound=delta))
    assert path_memo(lifted) is memo and path_memo(other) is memo
    # a system built by the constructor, even from the same arrays, never shares it
    fresh = LiftedSystem(lifted.vector, lifted.matrix, lifted.grid)
    assert fresh.matrix is not lifted.matrix
    want = subspace_cs(fresh, SolverConfig(residual_bound=delta))
    assert path_memo(fresh) is not memo
    assert_array_equal(got.values, want.values)
    assert got.diagnostics() == want.diagnostics()
    matrix_ref, memo_ref = weakref.ref(lifted.matrix), weakref.ref(memo)
    del lifted, memo
    gc.collect()
    assert memo_ref() is not None  # ``other`` still holds it
    del other
    gc.collect()
    assert matrix_ref() is None and memo_ref() is None


def test_systems_first_solved_on_threads_share_one_path_memo():
    lifted, delta = table1_lifted_system(0.0, seed=5)
    cfg = SolverConfig(residual_bound=delta)
    want = subspace_cs(LiftedSystem(lifted.vector, lifted.matrix, lifted.grid), cfg)
    systems = [lifted._with_vector(lifted.vector) for _ in range(16)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(subspace_cs, s, cfg) for s in systems]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    for got in results:
        assert_array_equal(got.values, want.values)
        assert got.diagnostics() == want.diagnostics()
    assert all(path_memo(s) is path_memo(lifted) for s in systems)


def test_path_memo_never_serves_another_lifted_matrix():
    S = raysep.solvers
    lifted, delta = table1_lifted_system(0.0, seed=5)
    subspace_cs(lifted, SolverConfig(residual_bound=delta))
    first = path_memo(lifted)
    assert first._sets
    geom = ArrayGeometry(num_sensors=11, spacing_m=2.5, sound_speed_mps=1500.0)
    shifted = AngleGrid.uniform(-9.9, 10.1, 0.2)  # as many angles, other directions
    for grid, focus in ((shifted, 1500.0), (lifted.grid, 1400.0)):
        b = lifted.vector
        system = LiftedSystem(b, lift_dictionary(build_dictionary(grid, focus, geom)), grid)
        assert system.matrix.shape == lifted.matrix.shape
        subspace_cs(system, SolverConfig(residual_bound=delta))
        assert path_memo(system) is not first
        want = walk(reference_nonneg_path, system.matrix, b, delta)
        assert_same_walk(walk(S._nonneg_path, system.matrix, b, delta, path_memo(system)), want)


def test_caller_lifted_matrix_changed_after_a_solve_gets_the_new_answer():
    S = raysep.solvers
    lifted, delta = table1_lifted_system(0.0, seed=5)
    b, grid = lifted.vector, lifted.grid
    geom = ArrayGeometry(num_sensors=11, spacing_m=2.5, sound_speed_mps=1500.0)
    source = lift_dictionary(build_dictionary(grid, 1500.0, geom))
    before = LiftedSystem(b, source, grid)
    assert before.matrix is not source and source.flags.writeable
    first = subspace_cs(before, SolverConfig(residual_bound=delta))
    source[:] = lift_dictionary(build_dictionary(grid, 1400.0, geom))
    after = LiftedSystem(b, source, grid)
    second = subspace_cs(after, SolverConfig(residual_bound=delta))
    got = walk(S._nonneg_path, after.matrix, b, delta, path_memo(after))
    assert_same_walk(got, walk(reference_nonneg_path, source, b, delta))
    assert_array_equal(second.values, got[0].x)
    assert not np.array_equal(second.values, first.values)
    # the first system kept its own copy of the caller's array, and its memo
    again = subspace_cs(before, SolverConfig(residual_bound=delta))
    assert_array_equal(again.values, first.values)


def test_caller_vector_changed_after_building_never_reaches_the_system():
    _, grid, d = small_dictionary()
    matrix = lift_dictionary(d)
    cfg = SolverConfig(inner_tol=1e-8, inner_max_iters=4000)
    vector = matrix[:, [5, 12]] @ np.array([1.0, 2.0])
    system = LiftedSystem(vector, matrix, grid)
    first = subspace_cs(system, cfg)
    assert np.flatnonzero(first.values > 1e-5 * first.values.max()).tolist() == [5, 12]
    vector[:] = matrix[:, 3]
    again = subspace_cs(system, cfg)
    assert_array_equal(again.values, first.values)
    assert again.diagnostics() == first.diagnostics()


@pytest.mark.parametrize("duplicate", ["pickle", "deepcopy", "copy"])
def test_solved_lifted_system_pickles_and_copies_to_the_same_spectrum(duplicate):
    lifted, delta = table1_lifted_system(5.0, seed=5)
    system = lifted._with_vector(lifted.vector)
    cfg = SolverConfig(residual_bound=delta)
    with pytest.raises(SolverInfeasibleError) as exc:
        subspace_cs(system, cfg)
    cfg = SolverConfig(residual_bound=1.1 * exc.value.min_residual)
    want = subspace_cs(system, cfg)
    assert path_memo(system) is not None
    twin = {
        "pickle": lambda s: pickle.loads(pickle.dumps(s)),
        "deepcopy": copy.deepcopy,
        "copy": copy.copy,
    }[duplicate](system)
    # the copy is a new system with a memo of its own
    assert path_memo(twin) is None and twin.matrix is not system.matrix
    assert_array_equal(twin.vector, system.vector)
    assert_array_equal(twin.matrix, system.matrix)
    assert_array_equal(twin.grid.angles_deg, system.grid.angles_deg)
    assert not twin.vector.flags.writeable and not twin.matrix.flags.writeable
    got = subspace_cs(twin, cfg)
    assert_array_equal(got.values, want.values)
    assert got.diagnostics() == want.diagnostics()
    assert path_memo(twin) is not path_memo(system)


def kept_walk(lifted: LiftedSystem):
    """The path walk ``subspace_cs`` keeps on ``lifted`` (None before a solve)."""
    return lifted._kept.get("walk")


def solve_or_refusal(lifted: LiftedSystem, bound: float):
    """The spectrum of ``subspace_cs`` at ``bound``, or the refusal's min_residual."""
    try:
        return subspace_cs(lifted, SolverConfig(residual_bound=bound))
    except SolverInfeasibleError as exc:
        return exc.min_residual


def assert_same_spectrum(got, want):
    """Field-for-field equality of two spectra, or of two refusals' floors."""
    assert type(got) is type(want)
    if isinstance(want, float):
        assert got == want
        return
    for f in dataclasses.fields(want):
        g, w = getattr(got, f.name), getattr(want, f.name)
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype
            assert_array_equal(g, w)
        else:
            assert g == w, f.name


def build_lifted_system_like(lifted: LiftedSystem) -> LiftedSystem:
    """A system of the same arrays that shares nothing with ``lifted``."""
    return LiftedSystem(np.array(lifted.vector), np.array(lifted.matrix), lifted.grid)


def kept_walk_bounds(lifted: LiftedSystem, delta: float) -> list:
    """Bounds from loose to refused on one Table-1 system, tightest last.

    They span the whole path: a bound the zero spectrum meets, levels that
    stop early and late on it, 1.1 x the nonnegative least-squares floor
    (the bench's retry), and the noise-floor allowance, which is refused.
    """
    floor = walk(reference_nonneg_path, lifted.matrix, lifted.vector, delta)[0]
    assert isinstance(floor, float)
    data_norm = float(np.linalg.norm(lifted.vector))
    return [1.01 * data_norm, 0.6 * data_norm, 0.2 * data_norm, 2.0 * floor, 1.1 * floor, delta]


def test_kept_walk_matches_a_fresh_walk_at_every_bound_in_any_order():
    S = raysep.solvers
    lifted, delta = table1_lifted_system(5.0, seed=5)
    a, b = lifted.matrix, lifted.vector
    descending = kept_walk_bounds(lifted, delta)[1:]
    ascending = descending[::-1]
    repeated = [descending[3], descending[3], descending[0], descending[3], descending[4]]
    memo = S._PathMemo(a)
    for order in (descending, ascending, repeated):
        kept = S._PathWalk(a, b, memo)
        for bound in order:
            want = walk(reference_nonneg_path, a, b, bound)
            assert_same_walk(walk(S._nonneg_path, a, b, bound, memo, kept), want)
    # the same orders through subspace_cs on one system, against a fresh system per bound
    for order in (descending, ascending, repeated):
        system = lifted._with_vector(b)
        for bound in [kept_walk_bounds(lifted, delta)[0]] + order:
            got = solve_or_refusal(system, bound)
            assert_same_spectrum(got, solve_or_refusal(build_lifted_system_like(lifted), bound))
            if not isinstance(got, float):
                got.values[:] = np.nan  # a caller's edit never reaches the kept walk
        assert kept_walk(system) is not None


def test_kept_walk_that_ended_at_the_segment_cap_matches_a_fresh_walk(monkeypatch):
    S = raysep.solvers
    lifted, _ = table1_lifted_system(20.0, seed=7)
    a, b = lifted.matrix, lifted.vector
    data_norm = float(np.linalg.norm(b))
    # a 6-segment cap: 0.9 ||b|| stops on segment 5, 0.6 ||b|| (segment 9
    # uncapped) and the exact-fit limit end at the cap with lam > 0
    monkeypatch.setattr(S, "_PATH_SEGMENTS_PER_ATOM", 6 / len(lifted.grid))
    early, late, tiny = 0.9 * data_norm, 0.6 * data_norm, 1e-9 * data_norm
    wants = {bound: walk(reference_nonneg_path, a, b, bound) for bound in (early, late, tiny)}
    assert wants[early][0].iterations == 5
    for bound in (late, tiny):
        assert wants[bound][0].iterations == 6 and wants[bound][0].residual > bound
    memo = S._PathMemo(a)
    for order in ((tiny, early, late, tiny), (early, late, early, tiny)):
        kept = S._PathWalk(a, b, memo)
        for bound in order:
            got = walk(S._nonneg_path, a, b, bound, memo, kept)
            assert_same_walk(got, wants[bound])
            got[0].x[:] = np.nan  # a caller's edit never reaches the kept walk
        assert len(kept.breaks) == 6


def test_two_threads_on_one_system_give_the_serial_results():
    lifted, delta = table1_lifted_system(5.0, seed=5)
    bounds = kept_walk_bounds(lifted, delta)
    bounds = (bounds[::-1] + bounds) * 2
    wants = [solve_or_refusal(build_lifted_system_like(lifted), bound) for bound in bounds]
    system = lifted._with_vector(lifted.vector)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(solve_or_refusal, system, bound) for bound in bounds]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    for got, want in zip(results, wants):
        assert_same_spectrum(got, want)
    assert kept_walk(system) is not None


@pytest.mark.parametrize("make", ["with_vector", "pickle", "deepcopy", "copy"])
def test_systems_made_from_a_solved_system_start_without_its_walk(make):
    lifted, delta = table1_lifted_system(5.0, seed=5)
    system = lifted._with_vector(lifted.vector)
    bound = kept_walk_bounds(system, delta)[4]  # 1.1 x floor
    want = solve_or_refusal(system, bound)
    walked = kept_walk(system)
    assert walked is not None and walked.breaks
    twin = {
        "with_vector": lambda s: s._with_vector(s.vector),
        "pickle": lambda s: pickle.loads(pickle.dumps(s)),
        "deepcopy": copy.deepcopy,
        "copy": copy.copy,
    }[make](system)
    assert kept_walk(twin) is None
    assert_same_spectrum(solve_or_refusal(twin, bound), want)
    assert kept_walk(twin) is not walked and kept_walk(system) is walked
