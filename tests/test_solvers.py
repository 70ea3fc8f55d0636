import copy
import dataclasses
import functools
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
import raysep._sweep
import raysep.solvers
from raysep.solvers import _polish_complex

# At the exact-fit floor the penalty is ~1e-9 of the data scale, so a
# penalty-relative stationarity certificate below ~1e-7 drowns in float
# round-off; 1e-6 is the tightest certifiable setting.
TIGHT = SolverConfig(inner_tol=1e-6, inner_max_iters=4000)


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
    spec = bpdn(d, np.zeros(11, dtype=complex), 0.0)
    assert np.all(spec.values == 0)
    assert spec.converged


def test_bpdn_loose_bound_returns_zero():
    _, grid, d = medium_dictionary()
    y = d.matrix[:, 40]
    spec = bpdn(d, y, float(np.linalg.norm(y)))
    assert np.all(spec.values == 0)


def test_bpdn_single_atom_exact_recovery():
    _, grid, d = medium_dictionary()
    qstar = 123
    y = (1.5 - 0.5j) * d.matrix[:, qstar]
    spec = bpdn(d, y, 0.0, TIGHT)
    mags = np.abs(spec.values)
    off = np.delete(mags, qstar)
    assert mags[qstar] > 1.0
    assert np.max(off) < 1e-6 * mags[qstar]
    assert spec.residual <= spec.residual_bound * (1 + 1e-6)
    assert spec.converged


def test_bpdn_negative_bound_rejected():
    _, _, d = medium_dictionary()
    with pytest.raises(ValueError):
        bpdn(d, d.matrix[:, 40], -1.0)


def test_bpdn_dimension_check():
    _, _, d = medium_dictionary()
    with pytest.raises(ValueError):
        bpdn(d, np.zeros(7, dtype=complex), 0.0)


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
        spec = bpdn(d, y, 0.0, TIGHT)
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
    cfg = SolverConfig(reweight_xi=1e9, max_reweight_iters=2, inner_tol=1e-8,
                       inner_max_iters=4000)
    rw = reweighted_cs(d, y, 0.0, cfg)
    bp = bpdn(d, y, 0.0, TIGHT)
    assert_allclose(rw.values, bp.values, atol=1e-5)


def test_reweighted_noise_free_single_source():
    _, grid, d = medium_dictionary()
    qstar = 95
    y = 1.7 * d.matrix[:, qstar]
    rw = reweighted_cs(d, y, 0.0, TIGHT)
    mags = np.abs(rw.values)
    assert np.argmax(mags) == qstar
    assert np.max(np.delete(mags, qstar)) < 1e-6 * mags[qstar]


def test_reweighted_fixed_point_weight_identity():
    _, grid, d = medium_dictionary()
    qstar = 95
    y = 1.7 * d.matrix[:, qstar]
    rw = reweighted_cs(d, y, 0.0, TIGHT)
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
    cfg = SolverConfig(inner_tol=1e-4, inner_max_iters=600, max_reweight_iters=4)
    rw = reweighted_cs(d, snap, eps, cfg)
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
    spec = subspace_cs(zero, 0.0)
    assert np.all(spec.values == 0)
    assert spec.converged


def test_subspace_cs_noise_free_single_path():
    lifted, grid, qstar, power = lifted_single_path()
    spec = subspace_cs(lifted, 0.0, SolverConfig(inner_tol=1e-8, inner_max_iters=4000))
    assert np.all(spec.values >= 0)
    assert np.argmax(spec.values) == qstar
    assert abs(spec.values[qstar] - power) < 1e-5
    assert np.max(np.delete(spec.values, qstar)) < 1e-6 * power


def test_subspace_cs_scaling_covariance():
    lifted, grid, qstar, power = lifted_single_path()
    spec = subspace_cs(lifted, 0.0, SolverConfig(inner_tol=1e-8, inner_max_iters=4000))
    scaled = LiftedSystem(5.0 * lifted.vector, lifted.matrix, grid)
    spec5 = subspace_cs(scaled, 0.0, SolverConfig(inner_tol=1e-8, inner_max_iters=4000))
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
        spec = subspace_cs(lifted, 0.0, SolverConfig(inner_tol=1e-8, inner_max_iters=4000))
        got = np.flatnonzero(spec.values > 1e-5 * spec.values.max())
        assert tuple(got) == tuple(support)
        assert_allclose(spec.values[support], powers, atol=1e-5)


def test_subspace_cs_infeasible_bound_reports_min_residual():
    # data orthogonal to what nonnegative combinations can reach
    _, grid, d = medium_dictionary()
    lifted_matrix = lift_dictionary(d)
    vec = -np.sum(lifted_matrix, axis=1) / lifted_matrix.shape[1]
    lifted = LiftedSystem(vec, lifted_matrix, grid)
    bound = 1e-6 * np.linalg.norm(vec)
    with pytest.raises(SolverInfeasibleError) as exc:
        subspace_cs(lifted, bound)
    assert exc.value.min_residual > 0
    # no p >= 0 beats p = 0 here, so 1.1 x the floor covers the data: a
    # requested retry gives the zero spectrum at that bound
    spec = subspace_cs(lifted, bound, retry=True)
    assert spec.retried and spec.converged and not np.any(spec.values)
    assert spec.residual_bound == 1.1 * exc.value.min_residual >= spec.residual



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
            subspace_cs(lifted, 0.5 * floor)
        assert exc.value.min_residual == pytest.approx(floor, rel=1e-9)
    spec = subspace_cs(lifted, 1.5 * floor)
    assert spec.residual <= 1.5 * floor * (1 + 1e-6)


def test_subspace_cs_meets_the_exact_fit_bound_on_noiseless_lifted_data():
    # Exact nonnegative combinations of 1-7 Table-1 lifted columns, solved at
    # the default exact-fit limit (1e-9 of the data norm). Near zero residual
    # the stopping root's discriminant must not cancel, or the path stops
    # above the bound or short of stationarity.
    geom = ArrayGeometry(num_sensors=11, spacing_m=2.5, sound_speed_mps=1500.0)
    grid = AngleGrid.uniform(-10.0, 10.0, 0.2)
    matrix = lift_dictionary(build_dictionary(grid, 1500.0, geom))
    rng = np.random.default_rng(0)
    for _ in range(40):
        k = int(rng.integers(1, 8))
        p = np.zeros(len(grid))
        p[rng.choice(len(grid), k, replace=False)] = rng.uniform(0.1, 2.0, k)
        spec = subspace_cs(LiftedSystem(matrix @ p, matrix, grid), 0.0)
        assert spec.residual <= spec.residual_bound
        assert spec.converged


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
    return lifted, choose_delta(dec, 1.5)


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
        subspace_cs(strong, strong_delta, solver)
    bounds.append((strong, 1.1 * exc.value.min_residual))
    for system, bound in bounds:
        spec = subspace_cs(system, bound, solver)
        assert 0.9 * bound <= spec.residual <= bound
        assert spec.converged
        assert spec.residual == pytest.approx(
            np.linalg.norm(system.vector - system.matrix @ spec.values), rel=1e-12
        )
        assert_nonneg_lasso_stationary(system, spec.values)

    # a bound between the floor and floor / 0.95 is met by the end of the path
    small = small_lifted_instance(2)
    floor = exhaustive_nnls_residual(small.matrix, small.vector)
    spec = subspace_cs(small, 1.02 * floor)
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
        spec = subspace_cs(LiftedSystem(vec, matrix, grid), bound)
        assert spec.residual <= bound * (1 + 1e-6)

def test_objective_history_monotone():
    _, grid, d = medium_dictionary()
    y = 2.0 * d.matrix[:, 44] - 0.7 * d.matrix[:, 101]
    for spec in (
        bpdn(d, y, 0.5),
        reweighted_cs(d, y, 0.5, SolverConfig(max_reweight_iters=3)),
    ):
        diffs = np.diff(spec.objective_history)
        assert np.all(diffs <= 1e-9 * max(1.0, abs(spec.objective_history[0])))


@pytest.mark.parametrize(
    "field, value",
    [
        ("reweight_xi", 0.0), ("reweight_xi", np.nan), ("reweight_xi", np.inf),
        ("inner_tol", 0.0), ("inner_tol", np.nan), ("inner_tol", np.inf), ("inner_tol", True),
        ("inner_max_iters", 0), ("inner_max_iters", True), ("inner_max_iters", 60.0),
        ("max_reweight_iters", 0), ("max_reweight_iters", 2.5),
    ],
)
def test_solver_config_validation(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SolverConfig(**{field: value})


def test_solver_config_takes_numpy_scalars():
    cfg = SolverConfig(reweight_xi=1, inner_tol=np.float64(1e-3), inner_max_iters=np.int64(60))
    assert cfg.inner_max_iters == 60 and cfg.inner_tol == 1e-3


def test_solver_config_holds_only_the_tolerances_with_the_bench_defaults():
    fields = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
    assert fields == {"reweight_xi": None, "max_reweight_iters": 6, "inner_tol": 1e-4,
                      "inner_max_iters": 600}


@pytest.mark.parametrize("bound", [-1.0, np.nan])
@pytest.mark.parametrize("solver", ["bpdn", "reweighted_cs", "subspace_cs"])
def test_each_solver_rejects_a_negative_or_nan_bound(solver, bound):
    _, _, d = medium_dictionary()
    lifted, _, _, _ = lifted_single_path()
    with pytest.raises(ValueError, match="residual bound must be nonnegative"):
        {
            "bpdn": lambda: bpdn(d, d.matrix[:, 40], bound),
            "reweighted_cs": lambda: reweighted_cs(d, d.matrix[:, :2], bound),
            "subspace_cs": lambda: subspace_cs(lifted, bound),
        }[solver]()


def test_a_config_in_the_place_of_the_bound_is_refused():
    _, _, d = medium_dictionary()
    with pytest.raises(TypeError):
        bpdn(d, d.matrix[:, 40], SolverConfig())


def test_choose_delta_noise_free_floor():
    lifted, grid, qstar, power = lifted_single_path()
    _, _, d = medium_dictionary()
    g = d.matrix[:, qstar]
    spectral = SpectralMatrix(power * np.outer(g, g.conj()), 1, 1500.0)
    delta = choose_delta(decompose(spectral, 1), 1.5)
    # pure rank-one: only the 1e-9 floor remains
    assert 0 < delta < 1e-6 * power * 11


def test_choose_delta_white_noise_scaling():
    rng = np.random.default_rng(77)
    m, num, sigma2, p = 11, 4000, 2.0, 2
    y = np.sqrt(sigma2 / 2) * (rng.standard_normal((m, num)) + 1j * rng.standard_normal((m, num)))
    spectral = SpectralMatrix(y @ y.conj().T / num, num, 1500.0)
    delta = choose_delta(decompose(spectral, p), 1.5)
    assert delta == pytest.approx(1.5 * sigma2 * np.sqrt(m - p), rel=0.25)


def test_choose_delta_factor_zero_strict_mode():
    lam = np.array([5.0, 3.0, 1.0, 0.5])
    delta = choose_delta(decompose(np.diag(lam), 2), 0.0)
    assert delta == pytest.approx(1e-9 * np.sqrt(34.0), rel=1e-6)


def test_choose_delta_validation():
    with pytest.raises(ValueError):
        choose_delta(decompose(np.diag([1.0, 0.5]), 1), -1.0)


def test_diagnostics_payload():
    _, grid, d = medium_dictionary()
    spec = bpdn(d, d.matrix[:, 10], 0.1)
    diag = spec.diagnostics()
    assert set(diag) == {"method", "iterations", "residual", "residual_bound",
                         "objective", "converged", "inner_solves", "peak_support",
                         "retried", "stops"}
    assert diag["method"] == "bpdn" and diag["retried"] is False
    assert diag["inner_solves"] >= 1 and diag["peak_support"] >= 1
    assert set(diag["stops"]) == {"kkt", "no_newcomer", "budget", "round_cap"}
    assert sum(diag["stops"].values()) == diag["inner_solves"]
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


def test_polish_ends_stationary_on_the_true_supports():
    a, b, lam, x0, x_true = polish_instance()
    for col in range(b.shape[1]):
        out = _polish_complex(a, b[:, col], lam, x0[:, col])
        # prunes and re-admissions end on the true support (live <= M)
        np.testing.assert_array_equal(out != 0, x_true[:, col] != 0)
        # complex-lasso stationarity: a_i^H r = lam_i phase(x_i) on the
        # support, |a_i^H r| <= lam_i off it
        corr = a.conj().T @ (b[:, col] - a @ out)
        on = out != 0
        line = corr - lam * out / np.where(on, np.abs(out), 1.0)
        assert np.max(np.abs(line[on])) <= 1e-8 * lam.min()
        assert np.all(np.abs(corr[~on]) <= lam[~on])


def test_polish_singular_support_falls_back_without_raising():
    a, b, lam, x0, _ = polish_instance()
    # dictionary columns 0 and 1 are identical: a support holding both has
    # an exactly singular Gram block
    a = np.column_stack([a[:, :1], a])
    lam = np.concatenate([lam[:1], lam])
    x_col = np.zeros(a.shape[1], dtype=complex)
    x_col[:2] = [1.0, 1.0j]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a[:, :2].conj().T @ a[:, :2], np.ones(2))
    out = _polish_complex(a, b[:, 0], lam, x_col)
    assert np.all(np.isfinite(out))
    np.testing.assert_array_equal(out, reference_polish_column(a, b[:, 0], lam, x_col))


def test_zero_spectrum_reports_data_norm_as_residual():
    _, grid, d = medium_dictionary()
    y = d.matrix[:, 40]
    norm = float(np.linalg.norm(y))
    loose = 2.0 * norm
    lifted, _, _, _ = lifted_single_path()
    vec_norm = float(np.linalg.norm(lifted.vector))
    for spec, data_norm in (
        (bpdn(d, y, loose), norm),
        (reweighted_cs(d, np.column_stack([y, y]), loose), np.sqrt(2) * norm),
        (subspace_cs(lifted, 2.0 * vec_norm), vec_norm),
    ):
        assert np.all(spec.values == 0)
        assert spec.residual == pytest.approx(data_norm, rel=1e-12)
        assert spec.residual <= spec.residual_bound


def reference_polish_column(a_sub, b_col, lam_sub, x_col):
    """One-column active-set polish, written as a plain loop.

    ``_polish_complex`` must follow exactly this iteration on each snapshot
    it polishes; it is kept as the fixed copy the polish is checked
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
        c = (asub.conj().T @ b_col[:, None])[:, 0] - lam_sub[idx] * phases[idx]
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
                phases[worst] = corr[worst] / np.maximum(np.abs(corr[worst]), np.finfo(float).tiny)
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


def lean_sweep(a, r, x, order, lam_rows, norms):
    """raysep's sweep over the rows ``order``, on a (M, L) residual and the full x."""
    ws = raysep._sweep._WorkingSet(a[:, order], norms[order], lam_rows[order])
    r_t, x_w = r.T.copy(), x[order]
    step = raysep._sweep._cd_sweep(ws, r_t, x_w)
    r[:] = r_t.T
    x[order] = x_w
    return step


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
    for _ in range(5):
        lean_sweep(a, r, x, list(range(a.shape[1])), lam_rows, norms)
    return a, b, lam_rows, norms, x, r


def test_polish_reproduces_one_column_loop_on_dense_lasso_state():
    # On the dense state most columns start with more live entries than the
    # 11 sensors, so their Gram blocks are rank deficient and a last-bit
    # difference in any product would move the result. The polish does the
    # same arithmetic as the loop, so every column matches exactly.
    a, b, lam_rows, _, x, _ = dense_lasso_state()
    idx = np.flatnonzero(np.any(x != 0, axis=1))
    for col in range(b.shape[1]):
        got = _polish_complex(a[:, idx], b[:, col], lam_rows[idx], x[idx, col])
        want = reference_polish_column(a[:, idx], b[:, col], lam_rows[idx], x[idx, col])
        np.testing.assert_array_equal(got, want)
    columns = b.shape[1]
    rank_deficient = int(np.sum(np.count_nonzero(x[idx], axis=0) > 11))
    assert rank_deficient >= 0.25 * columns > 0


@pytest.mark.parametrize("num_snapshots, noise_seed", [(20, 3), (1, 5)])
def test_reweighted_polishes_only_working_sets_the_sensors_resolve(
    num_snapshots, noise_seed, monkeypatch
):
    # The 0 dB Table-1 scene with the bench's settings and noise-norm bound:
    # a 20-snapshot solve makes no polish call, and a one-snapshot solve
    # polishes, but never more rows than the 11 sensors.
    d, snap = table1_scene(num_snapshots, noise_seed)
    eps = 1.1 * np.sqrt(snap.noise_power * 11 * num_snapshots)
    cfg = SolverConfig(inner_tol=1e-4, inner_max_iters=600, max_reweight_iters=6)
    rows = []

    def recording(a_sub, b, lam_sub, x):
        assert b.shape == (11,) and x.shape == (a_sub.shape[1],)
        rows.append(a_sub.shape[1])
        return _polish_complex(a_sub, b, lam_sub, x)

    monkeypatch.setattr(raysep.solvers, "_polish_complex", recording)
    reweighted_cs(d, snap, eps, cfg)
    if num_snapshots > 1:
        assert rows == []
    else:
        assert rows and max(rows) <= 11


def reference_soft_threshold(v, threshold):
    mag = np.abs(v)
    keep = np.maximum(mag - threshold, 0.0)
    return v * (keep / np.maximum(mag, np.finfo(float).tiny))


def reference_cd_sweep(a, r, x, order, lam_rows, col_norms_sq, candidates=False):
    """One cyclic pass of exact coordinate updates, one snapshot column at a time.

    Written plainly: each column visits the rows of ``order`` in turn and
    skips a zero entry whose correlation is within its threshold at the
    visit. With ``candidates`` (the rule of a column pass) each column
    visits only its start candidates, the rows whose entry is nonzero or
    whose correlation exceeds the threshold before the column's first
    update, so a zero entry that crosses its threshold during the pass
    stays zero. The sweep in raysep must do exactly this arithmetic: the
    correlation is np.vecdot of the atom with the column's residual, both
    contiguous.
    """
    tiny = np.finfo(float).tiny
    max_step = 0.0
    for col in range(x.shape[1]):
        res = r[:, col].copy()
        rows = order
        if candidates:
            rows = [q for q in order
                    if x[q, col] != 0 or np.abs(np.vecdot(a[:, q], res)) > lam_rows[q]]
        for q in rows:
            aq = a[:, q].copy()
            xq = x[q, col:col + 1]
            u = np.vecdot(aq, res) + col_norms_sq[q] * xq
            mag = np.abs(u)
            if xq[0] == 0 and mag[0] <= lam_rows[q]:
                continue
            new = reference_soft_threshold(u, lam_rows[q]) / col_norms_sq[q]
            delta = new - xq
            step = float(np.abs(delta)[0])
            if step > 0.0:
                res -= aq * delta
                x[q, col] = new[0]
                max_step = max(max_step, step * col_norms_sq[q] / max(lam_rows[q], tiny))
        r[:, col] = res
    return max_step


def reference_row_sweep(a, r, x, order, lam_rows, col_norms_sq):
    """One cyclic pass of exact coordinate updates, one row over every column at a time.

    Written plainly in the arithmetic of raysep's row-by-row pass over many
    snapshots: each visit takes the row's correlations with every column
    from one real product of the residual's real view with the atom's
    columns (Re a, Im a) and (-Im a, Re a), interleaved by sensor; then
    soft-thresholds each column's entry on its own as in
    ``reference_cd_sweep``, skipping a zero entry whose correlation is
    within its threshold; then subtracts every column's move from the
    residual with one real product of the moves' real view with the
    transpose of those two columns.
    """
    tiny = np.finfo(float).tiny
    num_sensors, num_cols = a.shape[0], x.shape[1]
    res = r.T.copy()  # one row per snapshot column
    rv = res.view(float)
    max_step = 0.0
    for q in order:
        aq = a[:, q]
        pair = np.empty((2 * num_sensors, 2))
        pair[0::2, 0], pair[1::2, 0] = aq.real, aq.imag
        pair[0::2, 1], pair[1::2, 1] = -aq.imag, aq.real
        corr = (rv @ pair).view(complex)[:, 0]
        delta = np.zeros(num_cols, dtype=complex)
        for col in range(num_cols):
            xq = x[q, col:col + 1]
            u = corr[col:col + 1] + col_norms_sq[q] * xq
            if xq[0] == 0 and np.abs(u)[0] <= lam_rows[q]:
                continue
            new = reference_soft_threshold(u, lam_rows[q]) / col_norms_sq[q]
            delta[col] = (new - xq)[0]
            x[q, col] = new[0]
            step = float(np.abs(delta[col]))
            max_step = max(max_step, step * col_norms_sq[q] / max(lam_rows[q], tiny))
        rv -= delta.view(float).reshape(-1, 2) @ pair.T.copy()
    r[:] = res.T
    return max_step


@pytest.fixture
def sweep_forms(monkeypatch):
    """Counts the passes that ran row by row and those that ran column by column."""
    seen = {"rows": 0, "columns": 0}
    rows, steps = raysep._sweep._cd_rows, raysep._sweep._cd_steps

    def by_rows(*args):
        seen["rows"] += 1
        return rows(*args)

    def by_columns(*args):
        seen["columns"] += 1
        return steps(*args)

    monkeypatch.setattr(raysep._sweep, "_cd_rows", by_rows)
    monkeypatch.setattr(raysep._sweep, "_cd_steps", by_columns)
    return seen


def checked_sweep(a, r, x, order, lam_rows, norms, sweep_forms):
    """``lean_sweep``, held bit for bit to the oracle of the form the pass took.

    A column pass is held to ``reference_cd_sweep`` with its candidate
    rule; a row-by-row pass over many snapshot columns to
    ``reference_row_sweep``; and a row-by-row pass over one snapshot (the
    same dots on scalars) to ``reference_cd_sweep`` with its visit rule.
    """
    x_ref, r_ref = x.copy(), r.copy()
    columns = sweep_forms["columns"]
    step = lean_sweep(a, r, x, order, lam_rows, norms)
    if sweep_forms["columns"] > columns:
        oracle = functools.partial(reference_cd_sweep, candidates=True)
    elif x.shape[1] > 1:
        oracle = reference_row_sweep
    else:
        oracle = reference_cd_sweep
    assert step == oracle(a, r_ref, x_ref, order, lam_rows, norms)
    np.testing.assert_array_equal(x, x_ref)
    np.testing.assert_array_equal(r, r_ref)
    return step


@pytest.mark.parametrize("num_snapshots, noise_seed", [(20, 3), (1, 5)])
def test_cd_sweep_matches_the_plain_loop_bit_for_bit(num_snapshots, noise_seed, sweep_forms):
    # From the dense state, over all rows and over every third row: at its
    # own thresholds the columns are too dense to sweep but row by row; at
    # six times them they thin out, and the sweep goes by column.
    a, _, lam_rows, norms, x, r = dense_lasso_state(num_snapshots, noise_seed)
    assert np.count_nonzero(np.any(x != 0, axis=1)) > 11
    for scale in (1.0, 6.0):
        for order in (list(range(a.shape[1])), list(range(0, a.shape[1], 3))):
            for _ in range(3):
                checked_sweep(a, r, x, order, scale * lam_rows, norms, sweep_forms)
    assert sweep_forms["rows"] > 0 and sweep_forms["columns"] > 0


@pytest.mark.parametrize("num_snapshots, noise_seed", [(20, 3), (1, 5)])
def test_cd_sweep_from_warm_starts_with_zero_rows_matches_the_plain_loop(
    num_snapshots, noise_seed, sweep_forms
):
    # Warm starts as a working set makes them: sweeps over the five most
    # correlated rows leave the other rows zero. Over all rows, at unequal
    # thresholds, some zero entries enter and the others stay zero, and the
    # sweep goes by column.
    d, snap = table1_scene(num_snapshots, noise_seed)
    a, b = d.matrix, snap.data
    norms = np.sum(np.abs(a) ** 2, axis=0)
    corr = np.max(np.abs(a.conj().T @ b), axis=1)
    lam_max = float(corr.max())
    x0 = np.zeros((a.shape[1], b.shape[1]), dtype=complex)
    r0 = b.copy()
    start = sorted(np.argsort(-corr)[:5].tolist())
    for _ in range(3):
        checked_sweep(a, r0, x0, start, np.full(a.shape[1], 0.3 * lam_max), norms, sweep_forms)
    zero0 = ~np.any(x0 != 0, axis=1)
    assert 0 < np.count_nonzero(~zero0) <= 5
    order = list(range(a.shape[1]))
    weights = np.random.default_rng(noise_seed).uniform(0.5, 2.0, a.shape[1])
    entered = stayed = 0
    for scale in (0.5, 0.2, 0.05):
        lam_rows = scale * lam_max * weights
        x, r = x0.copy(), r0.copy()
        for _ in range(3):
            checked_sweep(a, r, x, order, lam_rows, norms, sweep_forms)
        nonzero = np.any(x != 0, axis=1)
        entered += np.count_nonzero(zero0 & nonzero)
        stayed += np.count_nonzero(zero0 & ~nonzero)
    assert entered > 0 and stayed > 0
    assert sweep_forms["columns"] > 0


def mid_pass_instance():
    """The 20-snapshot scene at unequal thresholds, after a sweep of its five top rows."""
    d, snap = table1_scene(20, 3)
    a, b = d.matrix, snap.data
    norms = np.sum(np.abs(a) ** 2, axis=0)
    lam_max = float(np.max(np.abs(a.conj().T @ b)))
    lam_rows = 0.3 * lam_max * np.random.default_rng(3).uniform(0.5, 2.0, a.shape[1])
    x, r = np.zeros((a.shape[1], b.shape[1]), dtype=complex), b.copy()
    lean_sweep(a, r, x, sorted(np.argsort(-np.abs(a.conj().T @ b).max(axis=1))[:5].tolist()),
               lam_rows, norms)
    return a, b, lam_rows, norms, x, r


def deferring_column_pass(a, lam_rows, norms, x, r, sweep_forms):
    """Checked passes over all rows up to the first column pass that defers an entry.

    An entry is deferred when it is zero and within its threshold as the
    pass starts but the plain visit-rule loop lets it in, because its
    column's earlier updates push its correlation over the threshold
    before its visit. Returns the deferred entries' mask.
    """
    order = list(range(a.shape[1]))
    for _ in range(4):
        x_visit, r_visit = x.copy(), r.copy()
        reference_cd_sweep(a, r_visit, x_visit, order, lam_rows, norms)
        start = (x != 0) | (np.abs(a.conj().T @ r) > lam_rows[:, None])
        columns = sweep_forms["columns"]
        checked_sweep(a, r, x, order, lam_rows, norms, sweep_forms)
        deferred = ~start & (x_visit != 0)
        if sweep_forms["columns"] > columns and deferred.any():
            return deferred
    pytest.fail("no column pass met an entry that crosses its threshold mid-pass")


def test_cd_sweep_defers_an_entry_that_crosses_its_threshold_mid_sweep(sweep_forms):
    # A column pass moves only the entries that are candidates when it
    # starts: an entry whose correlation crosses its threshold before its
    # visit stays zero in that pass (the pass matches the candidate oracle)
    # and is a candidate when the next pass starts.
    a, _, lam_rows, norms, x, r = mid_pass_instance()
    deferred = deferring_column_pass(a, lam_rows, norms, x, r, sweep_forms)
    assert np.all(x[deferred] == 0)
    assert np.all((np.abs(a.conj().T @ r) > lam_rows[:, None])[deferred])


def restarted_cd_lasso(a, b, lam_rows, x, norms, tol, max_calls):
    """``_cd_lasso`` restarted from its own result until kkt <= tol.

    A call leaves after one round once every violating row is already in
    its working set, so a slow solve needs restarts to reach tol.
    """
    for _ in range(max_calls):
        result = raysep.solvers._cd_lasso(a, b, lam_rows, x, tol, 600, norms)
        if result.kkt <= tol:
            break
        x = result.x
    return result


def test_cd_lasso_admits_the_deferred_entry_and_ends_stationary(sweep_forms, monkeypatch):
    # From the state the deferring pass leaves, _cd_lasso with every pass in
    # the column form lets the deferred entries in and ends stationary.
    a, b, lam_rows, norms, x, r = mid_pass_instance()
    deferred = deferring_column_pass(a, lam_rows, norms, x, r, sweep_forms)
    monkeypatch.setattr(raysep._sweep, "_ROW_SWEEP_MARGIN", -2 * a.shape[1] - 1)
    rows, tol = sweep_forms["rows"], 1e-4
    result = restarted_cd_lasso(a, b, lam_rows, x, norms, tol, 50)
    assert result.kkt <= tol
    assert np.all(result.x[deferred] != 0)
    assert sweep_forms["rows"] == rows


def test_row_and_column_forms_of_cd_lasso_reach_the_same_stationary_support(monkeypatch):
    # The two forms of a pass differ in when a zero entry may enter: at its
    # visit (rows) or at the next pass (columns). From the dense state, at
    # its own thresholds, where most columns are denser than the sensors,
    # _cd_lasso forced to either form reaches kkt <= tol with the same
    # nonzero entries.
    a, b, lam_rows, norms, x0, _ = dense_lasso_state()
    tol = 1e-3
    support = {}
    for form, margin in (("rows", a.shape[1] + 1), ("columns", -2 * a.shape[1] - 1)):
        monkeypatch.setattr(raysep._sweep, "_ROW_SWEEP_MARGIN", margin)
        result = restarted_cd_lasso(a, b, lam_rows, x0, norms, tol, 200)
        assert result.kkt <= tol
        support[form] = result.x != 0
    np.testing.assert_array_equal(support["rows"], support["columns"])


@pytest.mark.parametrize("scale", [6.0])
def test_row_and_column_passes_agree_to_rounding(scale, monkeypatch):
    # The two forms of a pass make the same updates with different
    # products when no zero entry crosses its threshold mid-pass, so from
    # the dense state, at six times its thresholds, where the columns thin
    # out, three passes of each agree to within 1e-12 of the largest
    # coefficient and leave the same entries nonzero.
    a, _, lam_rows, norms, x0, r0 = dense_lasso_state()
    order = list(range(a.shape[1]))
    passes = {}
    for form, margin in (("rows", a.shape[1] + 1), ("columns", -2 * a.shape[1] - 1)):
        monkeypatch.setattr(raysep._sweep, "_ROW_SWEEP_MARGIN", margin)
        x, r = x0.copy(), r0.copy()
        for _ in range(3):
            lean_sweep(a, r, x, order, scale * lam_rows, norms)
        passes[form] = x, r
    (x_rows, r_rows), (x_cols, r_cols) = passes["rows"], passes["columns"]
    tol = 1e-12
    np.testing.assert_array_equal(x_rows != 0, x_cols != 0)
    np.testing.assert_allclose(x_rows, x_cols, rtol=0, atol=tol * np.abs(x_cols).max())
    np.testing.assert_allclose(r_rows, r_cols, rtol=0, atol=tol * np.abs(r0).max())


def test_cd_sweeps_take_at_most_half_a_step_per_working_set_row(monkeypatch):
    # The 0 dB, 20-snapshot scene with the bench's settings: the snapshot
    # columns are swept by their live entries, so the passes take at most
    # half as many steps as a row-by-row pass over the working sets would.
    d, snap = table1_scene(20, 3)
    eps = 1.1 * np.sqrt(snap.noise_power * 11 * 20)
    cfg = SolverConfig(inner_tol=1e-4, inner_max_iters=600, max_reweight_iters=6)
    count = {"rows": 0, "steps": 0}
    sweep, steps, rows = raysep.solvers._cd_sweep, raysep._sweep._cd_steps, raysep._sweep._cd_rows

    def counted_sweep(ws, r, x):
        count["rows"] += x.shape[0]
        return sweep(ws, r, x)

    def counted_steps(a_t, res, xs, batches, moves):
        batches = list(batches)
        count["steps"] += len(batches)
        return steps(a_t, res, xs, batches, moves)

    def counted_rows(ws, r, x, zero_rows):
        count["steps"] += x.shape[0]
        return rows(ws, r, x, zero_rows)

    monkeypatch.setattr(raysep.solvers, "_cd_sweep", counted_sweep)
    monkeypatch.setattr(raysep._sweep, "_cd_steps", counted_steps)
    monkeypatch.setattr(raysep._sweep, "_cd_rows", counted_rows)
    reweighted_cs(d, snap, eps, cfg)
    assert count["rows"] > 0
    assert count["steps"] <= 0.5 * count["rows"]


def record_cd_lasso_solves(monkeypatch):
    """Per ``_cd_lasso`` call: its start, what it ran and what it returned.

    Each record counts the objective's penalty evaluations, the working
    sets built (one per round that sweeps), the sweeps with the rows of
    each, and the polishes.
    """
    solvers = raysep.solvers
    engine, penalty, polish = solvers._cd_lasso, solvers._penalty, solvers._polish_complex
    working_set, sweep = solvers._WorkingSet, solvers._cd_sweep
    solves = []

    def counted(key, fn):
        def wrapper(*args):
            solves[-1][key] += 1
            return fn(*args)
        return wrapper

    def recording(a, b, lam_rows, x0, *rest):
        solves.append({"cold": not np.any(x0), "penalty": 0, "rounds": 0, "polishes": 0,
                       "sweep_rows": []})
        solves[-1]["result"] = engine(a, b, lam_rows, x0, *rest)
        return solves[-1]["result"]

    def recorded_sweep(ws, r, x):
        solves[-1]["sweep_rows"].append(x.shape[0])
        return sweep(ws, r, x)

    monkeypatch.setattr(solvers, "_cd_lasso", recording)
    monkeypatch.setattr(solvers, "_penalty", counted("penalty", penalty))
    monkeypatch.setattr(solvers, "_polish_complex", counted("polishes", polish))
    monkeypatch.setattr(solvers, "_WorkingSet", counted("rounds", working_set))
    monkeypatch.setattr(solvers, "_cd_sweep", recorded_sweep)
    return solves


@pytest.mark.parametrize("num_snapshots, noise_seed", [(20, 3), (1, 5)])
def test_cd_lasso_takes_one_objective_per_round_and_per_polish(
    num_snapshots, noise_seed, monkeypatch
):
    # The Table-1 scene with the bench's settings and noise-norm bound: each
    # inner solve evaluates its objective once at the start, once after each
    # round's sweeps and once per polish candidate, and the history it keeps
    # (the start, each round, each adopted polish) does not increase.
    d, snap = table1_scene(num_snapshots, noise_seed)
    eps = 1.1 * np.sqrt(snap.noise_power * 11 * num_snapshots)
    cfg = SolverConfig(inner_tol=1e-4, inner_max_iters=600, max_reweight_iters=6)
    solves = record_cd_lasso_solves(monkeypatch)
    reweighted_cs(d, snap, eps, cfg)
    polishes = sum(s["polishes"] for s in solves)
    # only one-snapshot solves are polished
    assert solves and (polishes > 0 if num_snapshots == 1 else polishes == 0)
    for s in solves:
        history = np.asarray(s["result"].objective_history)
        assert s["penalty"] == 1 + s["rounds"] + s["polishes"]
        assert s["rounds"] + 1 <= history.size <= 1 + s["rounds"] + s["polishes"]
        assert np.all(np.diff(history) <= 0)


def test_cd_lasso_makes_no_sweep_of_an_empty_working_set(monkeypatch):
    # A solve from zero admits its first working set from the stationarity
    # pass instead of sweeping an empty one, so every sweep has rows, and
    # the reported iterations are its sweeps plus its polishes.
    d, snap = table1_scene(20, 3)
    eps = 1.1 * np.sqrt(snap.noise_power * 11 * 20)
    cfg = SolverConfig(inner_tol=1e-4, inner_max_iters=600, max_reweight_iters=6)
    solves = record_cd_lasso_solves(monkeypatch)
    reweighted_cs(d, snap, eps, cfg)
    assert any(s["cold"] for s in solves)
    for s in solves:
        assert min(s["sweep_rows"]) > 0
        assert s["result"].iterations == len(s["sweep_rows"]) + s["polishes"]


def scene_lasso(level, x0=None, tol=1e-4, max_sweeps=600):
    """``_cd_lasso`` on the 0 dB, 20-snapshot scene at ``level`` x lam_max, from x0 or zero."""
    d, snap = table1_scene(20, 3)
    a, b = d.matrix, snap.data
    lam_rows = np.full(a.shape[1], level * float(np.max(np.abs(a.conj().T @ b))))
    norms = np.sum(np.abs(a) ** 2, axis=0)
    x0 = np.zeros((a.shape[1], b.shape[1]), dtype=complex) if x0 is None else x0
    return raysep.solvers._cd_lasso(a, b, lam_rows, x0, tol, max_sweeps, norms), (a, b, lam_rows)


def test_a_warm_start_sweeps_its_support_and_every_violator_in_its_first_round(monkeypatch):
    # Warm-started at 0.7 lam_max from the 0.9 lam_max solution, more than
    # 25 rows off the start's support violate stationarity. The first round
    # sweeps exactly the support plus every row with rel > tol.
    solvers, tol = raysep.solvers, 1e-4
    x0 = scene_lasso(0.9)[0].x
    working_sets = []
    working_set = solvers._WorkingSet

    def recording(a_w, *rest):
        working_sets.append(a_w)
        return working_set(a_w, *rest)

    monkeypatch.setattr(solvers, "_WorkingSet", recording)
    _, (a, b, lam_rows) = scene_lasso(0.7, x0, tol=tol)
    rel = solvers._violation(a, b - a @ x0, x0, lam_rows)
    support, violators = solvers._support(x0), np.flatnonzero(rel > tol)
    assert np.setdiff1d(violators, support).size > 25
    want = np.union1d(support, violators)
    assert want.size < a.shape[1]
    # each working-set atom is one dictionary column
    first = [int(np.flatnonzero(np.all(a == col[:, None], axis=0))[0]) for col in working_sets[0].T]
    assert_array_equal(first, want)


@pytest.mark.parametrize("stop", ["kkt", "no_newcomer", "budget", "round_cap"])
def test_cd_lasso_names_the_exit_that_ended_it(stop, monkeypatch):
    # On the 0 dB, 20-snapshot scene, from zero: at 0.9 lam_max the solve
    # meets tol; at 0.5 lam_max it stops when a round admits no row off its
    # support, and on the budget when that is one sweep; with the cap at
    # one round, a solve at 0.1 lam_max still has rows to admit.
    tol = 1e-4
    if stop == "round_cap":
        monkeypatch.setattr(raysep.solvers, "_MAX_WORKING_SET_ROUNDS", 1)
    level, max_sweeps = {"kkt": (0.9, 600), "no_newcomer": (0.5, 600), "budget": (0.5, 1),
                         "round_cap": (0.1, 600)}[stop]
    result, _ = scene_lasso(level, tol=tol, max_sweeps=max_sweeps)
    assert result.stop == stop
    assert (result.kkt <= tol) == (stop == "kkt")
    assert (result.iterations >= max_sweeps) == (stop == "budget")
    if stop == "kkt":
        # the check before the first round ends a stationary warm start unswept
        again, _ = scene_lasso(level, result.x, tol=tol)
        assert again.stop == "kkt" and again.iterations == 0
        assert_array_equal(again.x, result.x)


def test_a_spectrum_counts_the_exit_of_every_inner_solve(monkeypatch):
    # The 0 dB, 20-snapshot scene with the bench's settings: the spectrum's
    # stop counts are the exits of its inner solves. subspace_cs and an
    # all-zero spectrum run none.
    d, snap = table1_scene(20, 3)
    eps = 1.1 * np.sqrt(snap.noise_power * 11 * 20)
    solves = record_cd_lasso_solves(monkeypatch)
    spec = reweighted_cs(d, snap, eps)
    want = dict.fromkeys(("kkt", "no_newcomer", "budget", "round_cap"), 0)
    for s in solves:
        want[s["result"].stop] += 1
    assert spec.diagnostics()["stops"] == want
    assert sum(want.values()) == spec.inner_solves == len(solves)
    zero = dict.fromkeys(want, 0)
    assert reweighted_cs(d, snap, 2.0 * np.linalg.norm(snap.data)).diagnostics()["stops"] == zero
    lifted = lifted_single_path()[0]
    assert subspace_cs(lifted, 0.1).diagnostics()["stops"] == zero


def test_bpdn_is_the_first_reweighted_pass_bit_for_bit():
    # A coherent five-path Table-1 style snapshot at 0 dB with the bench's
    # noise-norm bound: the solve continues the penalty toward the bound and
    # polishes the working sets of at most 11 rows.
    d, snap = table1_scene(1, 5)
    eps = 1.1 * np.sqrt(snap.noise_power * 11)
    cfg = SolverConfig(inner_tol=1e-4, inner_max_iters=600, max_reweight_iters=6)
    bp = bpdn(d, snap.data[:, 0], eps, cfg)
    rw = reweighted_cs(d, snap.data[:, 0], eps, replace(cfg, max_reweight_iters=1))
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
    cfg = SolverConfig(inner_tol=1e-4, inner_max_iters=600, max_reweight_iters=6)
    engine = raysep.solvers._cd_lasso
    solves = []

    def recording(a, b, lam_rows, *rest):
        res = engine(a, b, lam_rows, *rest)
        support = np.count_nonzero(np.any(res.x, axis=1))
        solves.append((lam_rows.copy(), res.residual, support))
        return res

    monkeypatch.setattr(raysep.solvers, "_cd_lasso", recording)
    spec = reweighted_cs(d, snap, eps, cfg)

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
            p = float(np.linalg.norm(r - (ru / uu) * u))
            s = min(gap / (ru + np.sqrt(max(uu * (aim - p) * (aim + p), 0.0))), t)
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


def test_a_requested_retry_returns_the_refused_walks_point_at_the_raised_bound():
    # The request changes nothing on a bound the path meets. On a refused
    # bound, its point is the one a walk to 1.1 x the floor returns, and its
    # work is that of the refused walk, which went to the path's end.
    S = raysep.solvers
    refused = 0
    for a, b, bound in memo_walk_cases():
        want = walk(reference_nonneg_path, a, b, bound)
        got = walk(functools.partial(S._nonneg_path, retry=True), a, b, bound, S._PathMemo(a))
        if not isinstance(want[0], float):
            assert_same_walk(got, want)
            assert got[0].retry_bound is None
            continue
        refused += 1
        floor, refused_log = want
        assert_same_walk(got, (walk(reference_nonneg_path, a, b, 1.1 * floor)[0], refused_log))
        assert got[0].retry_bound == 1.1 * floor
    assert refused == 11


def test_path_memo_is_bounded_and_read_only(monkeypatch):
    S = raysep.solvers
    # the nine walks visit 196 distinct sets, fewer than the module's bound,
    # so both bounds here are smaller than that number
    for bound in (8, 64):
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
    subspace_cs(other, 2.0 * delta)
    memo = path_memo(lifted)
    assert memo is not None and memo._sets
    got = subspace_cs(lifted, delta)
    assert path_memo(lifted) is memo and path_memo(other) is memo
    # a system built by the constructor, even from the same arrays, never shares it
    fresh = LiftedSystem(lifted.vector, lifted.matrix, lifted.grid)
    assert fresh.matrix is not lifted.matrix
    want = subspace_cs(fresh, delta)
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
    want = subspace_cs(LiftedSystem(lifted.vector, lifted.matrix, lifted.grid), delta)
    systems = [lifted._with_vector(lifted.vector) for _ in range(16)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(subspace_cs, s, delta) for s in systems]
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
    subspace_cs(lifted, delta)
    first = path_memo(lifted)
    assert first._sets
    geom = ArrayGeometry(num_sensors=11, spacing_m=2.5, sound_speed_mps=1500.0)
    shifted = AngleGrid.uniform(-9.9, 10.1, 0.2)  # as many angles, other directions
    for grid, focus in ((shifted, 1500.0), (lifted.grid, 1400.0)):
        b = lifted.vector
        system = LiftedSystem(b, lift_dictionary(build_dictionary(grid, focus, geom)), grid)
        assert system.matrix.shape == lifted.matrix.shape
        subspace_cs(system, delta)
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
    first = subspace_cs(before, delta)
    source[:] = lift_dictionary(build_dictionary(grid, 1400.0, geom))
    after = LiftedSystem(b, source, grid)
    second = subspace_cs(after, delta)
    got = walk(S._nonneg_path, after.matrix, b, delta, path_memo(after))
    assert_same_walk(got, walk(reference_nonneg_path, source, b, delta))
    assert_array_equal(second.values, got[0].x)
    assert not np.array_equal(second.values, first.values)
    # the first system kept its own copy of the caller's array, and its memo
    again = subspace_cs(before, delta)
    assert_array_equal(again.values, first.values)


def test_caller_vector_changed_after_building_never_reaches_the_system():
    _, grid, d = small_dictionary()
    matrix = lift_dictionary(d)
    cfg = SolverConfig(inner_tol=1e-8, inner_max_iters=4000)
    vector = matrix[:, [5, 12]] @ np.array([1.0, 2.0])
    system = LiftedSystem(vector, matrix, grid)
    first = subspace_cs(system, 0.0, cfg)
    assert np.flatnonzero(first.values > 1e-5 * first.values.max()).tolist() == [5, 12]
    vector[:] = matrix[:, 3]
    again = subspace_cs(system, 0.0, cfg)
    assert_array_equal(again.values, first.values)
    assert again.diagnostics() == first.diagnostics()


@pytest.mark.parametrize("duplicate", ["pickle", "deepcopy", "copy"])
def test_solved_lifted_system_pickles_and_copies_to_the_same_spectrum(duplicate):
    lifted, delta = table1_lifted_system(5.0, seed=5)
    system = lifted._with_vector(lifted.vector)
    with pytest.raises(SolverInfeasibleError) as exc:
        subspace_cs(system, delta)
    bound = 1.1 * exc.value.min_residual
    want = subspace_cs(system, bound)
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
    got = subspace_cs(twin, bound)
    assert_array_equal(got.values, want.values)
    assert got.diagnostics() == want.diagnostics()
    assert path_memo(twin) is not path_memo(system)


def solve_or_refusal(lifted: LiftedSystem, bound: float, retry: bool = False):
    """The spectrum of ``subspace_cs`` at ``bound``, or the refusal's min_residual."""
    try:
        return subspace_cs(lifted, bound, retry=retry)
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


def path_bounds(lifted: LiftedSystem, delta: float) -> list:
    """Bounds from loose to refused on one Table-1 system, tightest last.

    They span the whole path: a bound the zero spectrum meets, levels that
    stop early and late on it, 1.1 x the nonnegative least-squares floor
    (the bench's retry), and the noise-floor allowance, which is refused.
    """
    floor = walk(reference_nonneg_path, lifted.matrix, lifted.vector, delta)[0]
    assert isinstance(floor, float)
    data_norm = float(np.linalg.norm(lifted.vector))
    return [1.01 * data_norm, 0.6 * data_norm, 0.2 * data_norm, 2.0 * floor, 1.1 * floor, delta]


def test_repeated_solves_of_one_system_equal_fresh_systems_at_bounds_in_any_order():
    lifted, delta = table1_lifted_system(5.0, seed=5)
    bounds = path_bounds(lifted, delta)
    descending = bounds[1:]
    ascending = descending[::-1]
    repeated = [descending[3], descending[3], descending[0], descending[3], descending[4]]
    for order in (descending, ascending, repeated):
        system = lifted._with_vector(lifted.vector)
        for bound in [bounds[0]] + order:
            got = solve_or_refusal(system, bound)
            want = solve_or_refusal(build_lifted_system_like(lifted), bound)
            assert_same_spectrum(got, want)
            if not isinstance(got, float):
                got.values[:] = np.nan  # a caller's edit never reaches the system
            # a retry, when requested, changes only what the path refused
            again = solve_or_refusal(system, bound, retry=True)
            if isinstance(want, float):
                assert again.retried and again.residual_bound == 1.1 * want
            else:
                assert_same_spectrum(again, want)
                assert not again.retried


def test_a_walk_that_ends_at_the_segment_cap_matches_the_reference(monkeypatch):
    S = raysep.solvers
    lifted, _ = table1_lifted_system(20.0, seed=7)
    a, b = lifted.matrix, lifted.vector
    data_norm = float(np.linalg.norm(b))
    # a 6-segment cap: 0.9 ||b|| stops on segment 5, 0.6 ||b|| (segment 9
    # uncapped) and the exact-fit limit end at the cap with lam > 0, which
    # is no refusal, so a requested retry does not apply
    monkeypatch.setattr(S, "_PATH_SEGMENTS_PER_ATOM", 6 / len(lifted.grid))
    early, late, tiny = 0.9 * data_norm, 0.6 * data_norm, 1e-9 * data_norm
    memo = S._PathMemo(a)
    for bound in (early, late, tiny):
        want = walk(reference_nonneg_path, a, b, bound)
        assert want[0].iterations == (5 if bound == early else 6)
        assert bound == early or want[0].residual > bound
        assert_same_walk(walk(S._nonneg_path, a, b, bound, memo), want)
        retried = walk(functools.partial(S._nonneg_path, retry=True), a, b, bound, memo)
        assert_same_walk(retried, want)
        assert retried[0].retry_bound is None


def test_two_threads_on_one_system_give_the_serial_results():
    lifted, delta = table1_lifted_system(5.0, seed=5)
    bounds = path_bounds(lifted, delta)
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
