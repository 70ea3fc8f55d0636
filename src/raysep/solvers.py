"""Sparse-recovery programs for angle spectra, on one l1 engine.

* ``subspace_cs``: nonnegative l1 recovery of path powers from the
  row-stacked signal-subspace vector against the lifted dictionary.
* ``reweighted_cs``: iteratively reweighted complex l1 over one or many
  snapshots; the weight of each grid angle is the reciprocal of its current
  aggregated magnitude, so surviving support sharpens across passes.
* ``bpdn``: minimum l1 norm of a complex angle spectrum subject to a
  residual bound on one snapshot, run as the first, unit-weight pass of
  ``reweighted_cs``.

One engine, ``_cd_lasso``, solves the penalized form of all three by
working-set cyclic coordinate descent: coordinates enter the working set
only when they violate the stationarity conditions, every coordinate update
is an exact one-dimensional minimization (so the objective never increases
and off-support entries are exactly zero), a dense active-set polish of the
working set is adopted when it lowers the objective, and a full
stationarity sweep certifies the solution. Two penalties plug into it:
``_ComplexL1`` (row-weighted l1 of complex coefficients) and ``_NonnegL1``
(l1 of nonnegative real coefficients). A search over the penalty level then
puts the data residual just under the requested bound, which makes the
returned point a stationary pair for the residual-constrained program: the
complex solvers follow the residual curve by penalty continuation, with
warm-started steps of at most 2x and a safeguarded secant on log residual
against log level (``_continue_penalty``); ``subspace_cs`` walks its level
down by decades and bisects (``_bisect_penalty``). The contract is the
achieved feasibility and stationarity tolerance, not the particular
iteration. ``subspace_cs`` first checks its bound against the nonnegative
least-squares floor (``_nonneg_floor``), so an unreachable bound is refused
without a penalty search.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .arrays import AngleGrid, SteeringDictionary
from .simulate import SnapshotMatrix
from .spectral import SpectralMatrix
from .subspace import LiftedSystem, SubspaceDecomposition

__all__ = [
    "SolverConfig",
    "SparseSpectrum",
    "SolverInfeasibleError",
    "bpdn",
    "reweighted_cs",
    "subspace_cs",
    "choose_delta",
]

# Residual bounds below this fraction of the data norm are treated as the
# exact-interpolation limit.
_BOUND_FLOOR_REL = 1e-9
# The penalty search drives the residual into [(1 - _BISECT_BAND) * bound, bound].
_BISECT_BAND = 0.1
# The complex penalty search aims its secant steps at this share of the bound.
_SEARCH_AIM = 1.0 - 0.8 * _BISECT_BAND
_FEASIBILITY_SLACK = 1e-6
_MAX_WORKING_SET_ROUNDS = 200
_NEW_COORDS_PER_ROUND = 25
_SWEEPS_PER_ROUND = 25
# Lawson–Hanson stationarity test, relative to ||a_j|| * ||residual||.
_NNLS_KKT_REL = 1e-9
_TINY = np.finfo(float).tiny


class SolverInfeasibleError(RuntimeError):
    """Residual bound below the minimum achievable residual.

    Attributes:
        min_residual: Smallest residual the solver could reach.
    """

    def __init__(self, message: str, min_residual: float):
        super().__init__(message)
        self.min_residual = min_residual


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances shared by all solvers.

    Args:
        residual_bound: Upper bound on the data-fit residual norm (same
            units as the data). ``None`` or 0 selects the exact-fit limit,
            floored at 1e-9 of the data norm.
        reweight_xi: Stabilizer added to magnitudes in the reweighting
            update; ``None`` picks 1e-3 of the first pass's peak magnitude.
        max_reweight_iters: Cap on reweighting passes.
        inner_tol: Stationarity tolerance of the inner solver, relative to
            the active penalty level; also the between-pass change
            tolerance for reweighting.
        inner_max_iters: Coordinate-sweep budget per inner solve.
    """

    residual_bound: float | None = None
    reweight_xi: float | None = None
    max_reweight_iters: int = 10
    inner_tol: float = 1e-6
    inner_max_iters: int = 2000

    def __post_init__(self):
        if self.residual_bound is not None and self.residual_bound < 0:
            raise ValueError("residual_bound must be nonnegative")
        if self.reweight_xi is not None and self.reweight_xi <= 0:
            raise ValueError("reweight_xi must be positive")
        if self.inner_tol <= 0 or self.inner_max_iters < 1 or self.max_reweight_iters < 1:
            raise ValueError("tolerances and iteration caps must be positive")


@dataclass(frozen=True)
class SparseSpectrum:
    """Recovered angle spectrum plus solver diagnostics."""

    grid: AngleGrid
    values: np.ndarray
    method: str
    iterations: int
    residual: float
    residual_bound: float
    objective: float
    converged: bool
    # Objective trajectory of the final inner run; non-increasing by
    # construction of the inner solver.
    objective_history: np.ndarray = field(repr=False, default=None)
    # Number of inner (penalized) solves behind the spectrum, and the
    # largest support any of them returned, in grid angles that are nonzero
    # in some snapshot.
    inner_solves: int = 0
    peak_support: int = 0

    def diagnostics(self) -> dict:
        """JSON-ready summary of the solve."""
        return {
            "method": self.method,
            "iterations": int(self.iterations),
            "residual": float(self.residual),
            "residual_bound": float(self.residual_bound),
            "objective": float(self.objective),
            "converged": bool(self.converged),
            "inner_solves": int(self.inner_solves),
            "peak_support": int(self.peak_support),
        }


@dataclass
class _InnerResult:
    x: np.ndarray
    residual: float
    kkt: float
    iterations: int
    objective_history: list


def _soft_threshold(v: np.ndarray, threshold: float) -> np.ndarray:
    mag = np.abs(v)
    keep = np.maximum(mag - threshold, 0.0)
    return v * (keep / np.maximum(mag, _TINY))


def _solve_psd(h: np.ndarray, c: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(h, c)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(h, c, rcond=None)[0]


def _solve_stack(h: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve h[g] z[g] = c[g] for a stack of square systems.

    One stacked LAPACK call; a singular member makes numpy reject the whole
    stack, and then each system falls back to ``_solve_psd`` on its own.
    """
    try:
        return np.linalg.solve(h, c[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return np.stack([_solve_psd(hg, cg) for hg, cg in zip(h, c)])


_POLISH_PASSES = 6


def _polish_complex(
    a_sub: np.ndarray, b: np.ndarray, lam_sub: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Active-set solve of the support-restricted problem, all snapshots at once.

    Every snapshot column runs its own active-set iteration: a dense solve
    of a_subᴴ a_sub z = a_subᴴ b - lam * phase(x) on the column's live
    entries (phases re-linearized each pass), single-entry prunes of
    coefficients pushed through zero, and re-admission of the dropped entry
    whose stationarity is violated worst; at most ``_POLISH_PASSES`` passes,
    stopping early once the phases stop moving. Near-parallel active
    columns are resolved by the dense solve, which coordinate updates cannot
    do in reasonable time.

    The columns advance in lockstep so the linear algebra is shared: each
    step stacks the running columns by live support size k and, per size,
    forms their k x k systems with one stacked product and solves them with
    one stacked call; the re-admission correlations of every column that
    finished a pass come from one more product. The stacked products round
    exactly as one-column products do, so a column's result does not
    depend on which other columns are polished with it. Columns with fewer
    than two live entries are returned unchanged (a lone coordinate is
    already solved exactly by its update).

    Args:
        a_sub: Working-set dictionary columns, shape (M, n).
        b: Snapshots, shape (M, L).
        lam_sub: Per-entry penalties, shape (n,).
        x: Current coefficients, shape (n, L).

    Returns:
        Polished coefficients, shape (n, L).
    """
    a_h = a_sub.conj().T
    out = x.T.copy()  # row l is snapshot column l
    mag = np.abs(out)
    alive = mag > 0
    phases = np.zeros_like(out)
    phases[alive] = out[alive] / mag[alive]
    live = np.count_nonzero(alive, axis=1)
    passes = np.zeros(live.size, dtype=int)
    readmit_tol = 1e-7 * max(float(np.max(lam_sub)), _TINY)
    running = np.flatnonzero(live >= 2)
    while running.size:
        sizes = live[running]
        keep, finished, residuals, moved = [], [], [], []
        for k in sorted(set(sizes.tolist())):
            cols = running[sizes == k]
            idx = np.nonzero(alive[cols])[1].reshape(cols.size, k)
            ph = phases[cols[:, None], idx]
            asub = a_sub[:, idx].transpose(1, 0, 2)  # asub[g] == a_sub[:, idx[g]]
            asub_h = asub.conj().transpose(0, 2, 1)
            b_cols = b[:, cols].T
            if k == 1:
                # a one-entry product is a BLAS dot, whose rounding depends on
                # the stride of the snapshot column: take it from b in place
                proj = np.array([a_sub[:, q].conj().T @ b[:, c] for q, c in zip(idx, cols)])
            else:
                proj = (asub_h @ b_cols[..., None])[..., 0]
            z = _solve_stack(asub_h @ asub, proj - lam_sub[idx] * ph)
            crossing = (z.conj() * ph).real
            bad = (crossing <= 0).any(axis=1)
            if bad.any():
                # prune the most negative crossing; an emptied column is zero
                pruned = cols[bad]
                alive[pruned, idx[bad, crossing[bad].argmin(axis=1)]] = False
                live[pruned] -= 1
                if k == 1:
                    out[pruned] = 0
                else:
                    keep.append(pruned)
                ok = ~bad
                cols, idx, ph, asub, b_cols, z = (
                    cols[ok], idx[ok], ph[ok], asub[ok], b_cols[ok], z[ok]
                )
            if cols.size:
                new_ph = z / np.maximum(np.abs(z), _TINY)
                moved.append(np.abs(new_ph - ph).max(axis=1))
                phases[cols[:, None], idx] = new_ph
                out[cols] = 0
                out[cols[:, None], idx] = z
                finished.append(cols)
                residuals.append(b_cols - (asub @ z[..., None])[..., 0])
        if finished:
            cols = np.concatenate(finished)
            # re-admit the dropped entry whose stationarity is violated worst
            corr = (a_h @ np.concatenate(residuals)[..., None])[..., 0]
            viol = np.where(alive[cols], -np.inf, np.abs(corr) - lam_sub)
            worst = viol.argmax(axis=1)
            rows = np.arange(cols.size)
            readmit = viol[rows, worst] > readmit_tol
            back, entry = cols[readmit], worst[readmit]
            alive[back, entry] = True
            live[back] += 1
            # scalar abs, not numpy's vectorized one: the two can differ in the
            # last bit, and on a rank-deficient support one bit changes the
            # polished column
            phases[back, entry] = [
                c / max(abs(c), _TINY) for c in corr[rows[readmit], entry]
            ]
            passes[cols] += 1
            more = readmit | ~(np.concatenate(moved) < 1e-13)
            keep.append(cols[more & (passes[cols] < _POLISH_PASSES)])
        running = np.concatenate(keep) if keep else np.empty(0, dtype=int)
    return out.T


def _polish_nonneg(
    a_sub: np.ndarray, b: np.ndarray, lam_sub: np.ndarray, x_sub: np.ndarray
) -> np.ndarray:
    """Active-set solve of the support-restricted nonnegative lasso.

    Starts from the live entries of ``x_sub``, which the caller keeps
    nonempty. It is a polish for lam > 0 only, adopted by ``_cd_lasso``
    when it lowers the objective, and not a nonnegative least-squares
    solver at lam = 0: it prunes the most negative entry without the
    Lawson–Hanson step back along the segment, so it can stop above the
    optimum. ``_nonneg_floor`` is the only floor.
    """
    size = x_sub.size
    alive = x_sub > 0
    out = np.zeros(size)

    def solve(idx):
        asub = a_sub[:, idx]
        h = (asub.conj().T @ asub).real
        c = (asub.conj().T @ b).real - lam_sub[idx]
        return asub, _solve_psd(h, c)

    for _ in range(2 * size + 10):
        idx = np.flatnonzero(alive)
        asub, z = solve(idx)
        while np.any(z <= 0):
            alive[idx[int(np.argmin(z))]] = False
            idx = np.flatnonzero(alive)
            if idx.size == 0:
                return np.zeros(size)
            asub, z = solve(idx)
        out[:] = 0
        out[idx] = z
        dropped = ~alive
        if np.any(dropped):
            corr = (a_sub.conj().T @ (b - asub @ z)).real
            viol = corr[dropped] - lam_sub[dropped]
            worst_local = int(np.argmax(viol))
            if viol[worst_local] > 1e-7 * max(float(np.max(lam_sub)), _TINY):
                alive[np.flatnonzero(dropped)[worst_local]] = True
                continue
        break
    return out


class _ComplexL1:
    """sum_q lam[q] * sum_l |x[q, l]| over complex x of shape (K, L)."""

    @staticmethod
    def sweep(a, r, x, order, lam_rows, col_norms_sq) -> float:
        max_step = 0.0
        for q in order:
            aq = a[:, q]
            u = aq.conj() @ r + col_norms_sq[q] * x[q]
            xq_new = _soft_threshold(u, lam_rows[q]) / col_norms_sq[q]
            delta = xq_new - x[q]
            step = float(np.max(np.abs(delta)))
            if step > 0.0:
                r -= np.outer(aq, delta)
                x[q] = xq_new
                max_step = max(
                    max_step, step * col_norms_sq[q] / max(lam_rows[q], _TINY)
                )
        return max_step

    @staticmethod
    def violation(a, r, x, lam_rows) -> np.ndarray:
        corr = a.conj().T @ r
        viol = np.maximum(np.abs(corr) - lam_rows[:, None], 0.0)
        nz = np.abs(x) > 0
        line = corr - lam_rows[:, None] * (x / np.maximum(np.abs(x), _TINY))
        viol[nz] = np.abs(line[nz])
        return np.max(viol / np.maximum(lam_rows[:, None], _TINY), axis=1)

    @staticmethod
    def value(lam_rows, x) -> float:
        return float(np.sum(lam_rows * np.sum(np.abs(x), axis=1)))

    @staticmethod
    def polish(a_sub, b, lam_sub, x_sub) -> np.ndarray:
        # looked up per call, so a test can substitute a checked polish
        return _polish_complex(a_sub, b, lam_sub, x_sub)


class _NonnegL1:
    """lam * sum(x) over real x >= 0 of shape (K,); ``lam_rows`` is all lam."""

    @staticmethod
    def sweep(a, r, x, order, lam_rows, col_norms_sq) -> float:
        max_step = 0.0
        for q in order:
            aq = a[:, q]
            u = (aq.conj() @ r).real + col_norms_sq[q] * x[q]
            xq_new = max(u - lam_rows[q], 0.0) / col_norms_sq[q]
            delta = xq_new - x[q]
            if delta != 0.0:
                r -= aq * delta
                x[q] = xq_new
                max_step = max(
                    max_step, abs(delta) * col_norms_sq[q] / max(lam_rows[q], _TINY)
                )
        return max_step

    @staticmethod
    def violation(a, r, x, lam_rows) -> np.ndarray:
        grad = lam_rows - (a.conj().T @ r).real  # gradient of the penalized objective
        rel = np.where(x > 0, np.abs(grad), np.maximum(-grad, 0.0))
        return rel / np.maximum(lam_rows, _TINY)

    @staticmethod
    def value(lam_rows, x) -> float:
        # level times sum, not a sum of products: the two round differently
        return float(lam_rows[0]) * float(np.sum(x))

    polish = staticmethod(_polish_nonneg)


def _support(x: np.ndarray) -> np.ndarray:
    """Rows of ``x`` holding a nonzero entry."""
    return np.flatnonzero(x if x.ndim == 1 else np.any(x != 0, axis=1))


def _cd_lasso(
    a: np.ndarray,
    b: np.ndarray,
    lam_rows: np.ndarray,
    x0: np.ndarray,
    tol: float,
    max_sweeps: int,
    col_norms_sq: np.ndarray,
    penalty,
) -> _InnerResult:
    """Working-set coordinate descent for an l1-penalized least-squares fit.

    Minimizes 0.5 * ||a x - b||^2 + penalty.value(lam_rows, x). The penalty,
    ``_ComplexL1`` or ``_NonnegL1``, supplies the parts that depend on it:

    * ``sweep(a, r, x, order, lam_rows, col_norms_sq)``: one cyclic pass of
      exact coordinate updates over ``order``, updating ``x`` and the
      residual ``r`` in place; returns the largest step relative to its
      coordinate's threshold;
    * ``violation(a, r, x, lam_rows)``: per-row stationarity violation,
      relative to the row's threshold;
    * ``value(lam_rows, x)``: the penalty term;
    * ``polish(a_sub, b, lam_sub, x_sub)``: dense active-set solve of the
      problem restricted to the nonzero rows ``x_sub``.
    """
    x = x0.copy()
    r = b - a @ x

    def objective(res, lam, coef):
        return 0.5 * float(np.linalg.norm(res) ** 2) + penalty.value(lam, coef)

    history = [objective(r, lam_rows, x)]
    active = set(_support(x).tolist())
    sweeps = 0
    for _ in range(_MAX_WORKING_SET_ROUNDS):
        # Exact solve on the working set.
        order = sorted(active)
        for _ in range(max(1, min(_SWEEPS_PER_ROUND, max_sweeps - sweeps))):
            sweeps += 1
            max_step = penalty.sweep(a, r, x, order, lam_rows, col_norms_sq)
            history.append(objective(r, lam_rows, x))
            if max_step <= 0.1 * tol or sweeps >= max_sweeps:
                break
        # Dense polish on the working set; adopt only on objective decrease.
        idx = _support(x)
        if idx.size:
            sweeps += 1
            a_sub = a[:, idx]
            x_cand = penalty.polish(a_sub, b, lam_rows[idx], x[idx])
            r_cand = b - a_sub @ x_cand
            f_cand = objective(r_cand, lam_rows[idx], x_cand)
            if f_cand <= history[-1]:
                x[:] = 0
                x[idx] = x_cand
                r = r_cand
                history.append(f_cand)
        active = set(_support(x).tolist())
        # Full stationarity pass; admit violating coordinates.
        rel = penalty.violation(a, r, x, lam_rows)
        kkt = float(np.max(rel))
        if kkt <= tol or sweeps >= max_sweeps:
            break
        newcomers = np.flatnonzero(rel > tol)
        newcomers = newcomers[np.argsort(-rel[newcomers], kind="stable")]
        before = len(active)
        active.update(newcomers[:_NEW_COORDS_PER_ROUND].tolist())
        if len(active) == before:
            break
    return _InnerResult(x, float(np.linalg.norm(r)), kkt, sweeps, history)


def _nonneg_floor(
    a: np.ndarray, b: np.ndarray, corr: np.ndarray, col_norms_sq: np.ndarray, bound: float
) -> float | None:
    """Certified min ||b - a p|| over p >= 0, when it exceeds ``bound``.

    Lawson–Hanson active-set NNLS on the real normal equations
    Re(aᴴa) p = Re(aᴴb) = ``corr``: each outer step moves the coordinate
    whose correlation with the residual is largest into the passive set,
    solves the passive set exactly, and, while a passive entry of that
    solution is nonpositive, steps back along the segment to the last
    nonnegative point and drops the entry it zeroes. It stops when no
    coordinate correlates with the residual r by more than
    ``_NNLS_KKT_REL * ||a_j|| * ||r||``; when the passive entries also meet
    that test in absolute value, the iterate is stationary and ||r|| is the
    certified floor.

    Every p >= 0 only bounds the floor from above, so nothing short of that
    certificate is reported: returns None as soon as an iterate's residual
    is within ``bound`` (the bound is reachable) or when the step cap is
    hit first.
    """
    x = np.zeros(a.shape[1])
    passive = np.zeros(a.shape[1], dtype=bool)
    col_norms = np.sqrt(col_norms_sq)
    r = b
    for _ in range(3 * a.shape[1]):
        residual = float(np.linalg.norm(r))
        if residual <= bound:
            return None
        grad = (a.conj().T @ r).real
        slack = _NNLS_KKT_REL * col_norms * residual
        excess = np.where(passive, -np.inf, grad - slack)
        j = int(np.argmax(excess))
        if excess[j] <= 0.0:
            # certified only if the passive entries are stationary too
            stationary = np.all(np.abs(grad[passive]) <= slack[passive])
            return residual if stationary else None
        passive[j] = True
        while passive.any():
            idx = np.flatnonzero(passive)
            sub = a[:, idx]
            z = _solve_psd((sub.conj().T @ sub).real, corr[idx])
            if np.all(z > 0.0):
                x[idx] = z
                break
            # step back to where the first nonpositive entry reaches zero
            neg = np.flatnonzero(z <= 0.0)
            x_neg = x[idx[neg]]
            ratios = np.where(x_neg > 0.0, x_neg / np.maximum(x_neg - z[neg], _TINY), 0.0)
            m = int(np.argmin(ratios))
            x[idx] += ratios[m] * (z - x[idx])
            x[idx[neg[m]]] = 0.0
            passive &= x > 0.0
        idx = np.flatnonzero(passive)
        r = b - a[:, idx] @ x[idx]
    return None


def _effective_bound(bound: float | None, data_norm: float) -> float:
    if bound is None:
        bound = 0.0
    return max(float(bound), _BOUND_FLOOR_REL * data_norm)


@dataclass
class _SearchLog:
    """Work of every inner solve behind one returned spectrum."""

    iterations: int = 0
    inner_solves: int = 0
    peak_support: int = 0


def _solve_at(a, b, lam, weights, x_start, penalty, norms, config, log: _SearchLog):
    """One ``_cd_lasso`` run at per-row penalties ``lam * weights``, logged."""
    res = _cd_lasso(
        a, b, lam * weights, x_start, config.inner_tol, config.inner_max_iters,
        norms, penalty,
    )
    log.iterations += res.iterations
    log.inner_solves += 1
    log.peak_support = max(log.peak_support, int(_support(res.x).size))
    return res


def _unreachable(bound: float, res: _InnerResult) -> SolverInfeasibleError:
    return SolverInfeasibleError(
        f"residual bound {bound:.6e} unreachable; minimum achieved "
        f"residual {res.residual:.6e}",
        min_residual=res.residual,
    )


def _bisect_penalty(
    a, b, x0, norms, config: SolverConfig, lam_max: float, bound: float, log: _SearchLog
):
    """Walk the nonnegative penalty down to feasibility, then bisect toward the bound.

    Serves only ``subspace_cs``; the complex solvers use
    ``_continue_penalty``. Each inner solve runs ``_cd_lasso`` with
    ``_NonnegL1`` at level ``lam``, warm-started from an earlier solve.
    Returns the feasible result with the largest level whose residual is at
    most ``bound``, aiming for a residual within (1 - _BISECT_BAND) of it.
    The returned result keeps the objective history of its own (final)
    inner run.

    Raises:
        SolverInfeasibleError: If no penalty reaches the bound.
    """
    weights = np.ones(a.shape[1])
    lam_hi = lam_max
    lam = lam_max
    x_warm = x0
    feasible = None
    for _ in range(18):
        lam /= 10.0
        res = _solve_at(a, b, lam, weights, x_warm, _NonnegL1, norms, config, log)
        x_warm = res.x
        if res.residual <= bound:
            feasible = (lam, res)
            break
        lam_hi = lam
    if feasible is None:
        raise _unreachable(bound, res)

    lam_lo, best = feasible
    for _ in range(40):
        if best.residual >= (1.0 - _BISECT_BAND) * bound or lam_hi / lam_lo < 1.05:
            break
        lam_mid = np.sqrt(lam_lo * lam_hi)
        res = _solve_at(a, b, lam_mid, weights, best.x, _NonnegL1, norms, config, log)
        if res.residual <= bound:
            lam_lo, best = lam_mid, res
        else:
            lam_hi = lam_mid
    return best


def _log_secant(p, q, target: float) -> float:
    """Level where the line through two (level, residual) points, in logs, hits target."""
    (lam_p, r_p), (lam_q, r_q) = p, q
    slope = np.log(r_q / r_p) / np.log(lam_q / lam_p)
    if not np.isfinite(slope) or slope <= 0.0:
        return np.nan
    return float(lam_q * np.exp(np.log(target / r_q) / slope))


def _continue_penalty(
    a, b, weights, x0, norms, config: SolverConfig, lam_max: float, lam_start: float,
    bound: float, log: _SearchLog,
):
    """Penalty continuation toward the residual bound (complex penalty).

    The residual of the penalized solution grows with the level, from 0 to
    ||b|| at ``lam_max`` (the zero solution), roughly as a power law, so the
    search works on log ||r|| against log lam, as SPGL1 root-finds its
    Pareto curve (van den Berg & Friedlander 2008). Its aim is
    ``_SEARCH_AIM * bound``, near the low end of the band
    [(1 - _BISECT_BAND) * bound, bound]. Every solve is warm-started, and
    the search never moves the level by more than 2x:

    * from ``lam_start`` (below ``lam_max``), an infeasible residual
      steps the level down toward the aim of the secant through the last
      two points, the first being the zero solution, until the residual is
      within ``bound``;
    * a feasible start below the band climbs once, to twice the level, from
      the start's solution; if that is still feasible, it is returned even
      below the band;
    * inside the bracket, regula falsi on the same logs, kept a tenth of the
      bracket's width off its ends and warm-started from the feasible end,
      runs until the residual is in the band or the bracket is narrower
      than 5 %.

    So no solve runs below half the level that is returned, and the dense
    supports of small levels are never visited on the way.

    Returns:
        The feasible result with the largest level, and that level.

    Raises:
        SolverInfeasibleError: If no level above ``lam_max * 1e-18`` reaches
            the bound.
    """
    lower = (1.0 - _BISECT_BAND) * bound
    aim = _SEARCH_AIM * bound

    def solve(lam, x_start):
        return _solve_at(a, b, lam, weights, x_start, _ComplexL1, norms, config, log)

    above = (lam_max, float(np.linalg.norm(b)))
    lam = lam_start
    res = solve(lam, x0)
    if res.residual <= bound:
        if res.residual >= lower:
            return res, lam
        lo = (lam, res)
        if 2.0 * lam < lam_max:
            lam *= 2.0
            res = solve(lam, res.x)
            if res.residual <= bound:
                return res, lam
            above = (lam, res.residual)
    else:
        while res.residual > bound:
            previous, above = above, (lam, res.residual)
            guess = _log_secant(previous, above, aim)
            lam = min(max(guess, 0.5 * lam), lam / 1.05) if guess < lam else 0.5 * lam
            if lam < 1e-18 * lam_max:
                raise _unreachable(bound, res)
            res = solve(lam, res.x)
        lo = (lam, res)

    for _ in range(40):
        (lam_lo, best), lam_hi = lo, above[0]
        if best.residual >= lower or lam_hi / lam_lo < 1.05:
            break
        span = np.log(lam_hi / lam_lo)
        guess = _log_secant((lam_lo, max(best.residual, _TINY)), above, aim)
        share = np.log(guess / lam_lo) / span if np.isfinite(guess) else 0.5
        lam = float(lam_lo * np.exp(span * min(max(share, 0.1), 0.9)))
        res = solve(lam, best.x)
        if res.residual <= bound:
            lo = (lam, res)
        else:
            above = (lam, res.residual)
    return lo[1], lo[0]


def _spectrum_from_result(grid, values, method, result, log, bound, tol) -> SparseSpectrum:
    feasible = result.residual <= bound * (1.0 + _FEASIBILITY_SLACK)
    stationary = result.kkt <= tol
    return SparseSpectrum(
        grid=grid,
        values=values,
        method=method,
        iterations=log.iterations,
        residual=result.residual,
        residual_bound=bound,
        objective=float(np.sum(np.abs(result.x))),
        converged=bool(feasible and stationary),
        objective_history=np.asarray(result.objective_history),
        inner_solves=log.inner_solves,
        peak_support=log.peak_support,
    )


def _snapshot_array(snapshots) -> np.ndarray:
    if isinstance(snapshots, SnapshotMatrix):
        return snapshots.data
    arr = np.asarray(snapshots, dtype=complex)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError("snapshots must be a vector or 2-D array")
    return arr


def _zero_spectrum(grid, method, bound, data_norm, dtype=float) -> SparseSpectrum:
    """All-zero spectrum for data already inside the residual bound.

    The residual of the zero fit is the data itself, so ``data_norm`` is
    reported as the residual.
    """
    return SparseSpectrum(
        grid=grid,
        values=np.zeros(len(grid), dtype=dtype),
        method=method,
        iterations=0,
        residual=data_norm,
        residual_bound=bound,
        objective=0.0,
        converged=True,
        objective_history=np.zeros(1),
    )


def bpdn(
    dictionary: SteeringDictionary, snapshot, config: SolverConfig | None = None
) -> SparseSpectrum:
    """Basis-pursuit denoising: min ||s||_1 s.t. ||G s - y||_2 <= bound.

    This is the first, unit-weight pass of ``reweighted_cs`` on one
    snapshot.

    Args:
        dictionary: Over-complete steering dictionary.
        snapshot: Complex observation vector (length num_sensors).
        config: Solver tolerances; ``residual_bound`` is the noise-norm
            bound. ``None`` or 0 requests the exact-fit limit.

    Returns:
        SparseSpectrum with complex values over the grid.
    """
    config = config or SolverConfig()
    y = _snapshot_array(snapshot)
    if y.shape[1] != 1:
        raise ValueError("bpdn takes a single snapshot; use reweighted_cs for several")
    spectrum = reweighted_cs(dictionary, y, replace(config, max_reweight_iters=1))
    return replace(spectrum, method="bpdn")


def reweighted_cs(
    dictionary: SteeringDictionary, snapshots, config: SolverConfig | None = None
) -> SparseSpectrum:
    """Iteratively reweighted l1 recovery over one or more snapshots.

    The first pass runs with unit weights. After each pass the magnitude of
    every grid angle is aggregated across snapshots (sum of absolute
    values) and the next pass weights each angle by
    ``1 / (aggregate + xi)``, so angles with persistent energy get cheap
    and the rest are driven to zero. Iteration stops when consecutive
    aggregates agree to ``inner_tol`` in max norm or after
    ``max_reweight_iters`` passes.

    Returns:
        SparseSpectrum; complex values for a single snapshot, nonnegative
        per-angle aggregates when several snapshots are supplied.
    """
    config = config or SolverConfig()
    a = dictionary.matrix
    y = _snapshot_array(snapshots)
    if y.shape[0] != a.shape[0]:
        raise ValueError(
            f"snapshot rows {y.shape[0]} do not match {a.shape[0]} sensors"
        )
    num_l = y.shape[1]
    grid = dictionary.grid
    data_norm = float(np.linalg.norm(y))
    bound = _effective_bound(config.residual_bound, data_norm)
    if data_norm <= bound:
        return _zero_spectrum(
            grid, "reweighted_cs", bound, data_norm,
            dtype=complex if num_l == 1 else float,
        )

    norms = np.sum(np.abs(a) ** 2, axis=0)
    corr0 = np.abs(a.conj().T @ y)
    weights = np.ones(a.shape[1])
    xi = config.reweight_xi
    x_warm = np.zeros((a.shape[1], num_l), dtype=complex)
    prev_agg = None
    log = _SearchLog()
    share = 1.0  # where the last pass ended, relative to its lam_max
    for _ in range(config.max_reweight_iters):
        lam_max = float(np.max(corr0 / weights[:, None]))
        # start one halving below the carried level, so that the pass
        # usually reaches the band from the denser, feasible side
        best, lam = _continue_penalty(
            a, y, weights, x_warm, norms, config, lam_max, 0.5 * share * lam_max,
            bound, log,
        )
        share = lam / lam_max
        x_warm = best.x
        agg = np.sum(np.abs(best.x), axis=1)
        if xi is None:
            peak = float(np.max(agg))
            if peak == 0.0:
                break
            xi = 1e-3 * peak
        if prev_agg is not None and float(np.max(np.abs(agg - prev_agg))) < config.inner_tol:
            break
        prev_agg = agg
        weights = 1.0 / (agg + xi)

    values = best.x[:, 0] if num_l == 1 else np.sum(np.abs(best.x), axis=1)
    return _spectrum_from_result(
        grid, values, "reweighted_cs", best, log, bound, config.inner_tol
    )


def subspace_cs(lifted: LiftedSystem, config: SolverConfig | None = None) -> SparseSpectrum:
    """Nonnegative l1 recovery of path powers from the lifted system.

    Solves min ||p||_1 over p >= 0 subject to
    ``||vector - matrix @ p|| <= bound``. Peak positions of the returned
    values are the arrival-angle estimates. Path cross terms are not
    modelled; they are absorbed by the residual bound.

    Before the penalty search, a Lawson–Hanson nonnegative least-squares
    solve looks for the smallest residual any p >= 0 reaches. It stops as
    soon as the bound is reached, and then the search runs; when it
    certifies a floor above the bound, the bound is refused without any
    penalized solve.

    Args:
        lifted: Vectorized signal subspace and lifted dictionary.
        config: Tolerances; ``residual_bound`` is the covariance-domain
            residual allowance (see ``choose_delta``).

    Raises:
        SolverInfeasibleError: If the bound is below the best achievable
            residual. ``min_residual`` is the certified nonnegative
            least-squares floor, or, when the floor could not be
            certified, the smallest residual the penalty walk-down reached.
    """
    config = config or SolverConfig()
    a = lifted.matrix
    b = lifted.vector
    grid = lifted.grid
    data_norm = float(np.linalg.norm(b))
    bound = _effective_bound(config.residual_bound, data_norm)
    if data_norm <= bound:
        return _zero_spectrum(grid, "subspace_cs", bound, data_norm)

    norms = np.sum(np.abs(a) ** 2, axis=0)
    corr = (a.conj().T @ b).real
    floor = _nonneg_floor(a, b, corr, norms, bound)
    if floor is not None:
        raise SolverInfeasibleError(
            f"residual bound {bound:.6e} unreachable; minimum achievable "
            f"residual {floor:.6e}",
            min_residual=floor,
        )
    lam_max = max(float(np.max(corr)), np.finfo(float).tiny)
    log = _SearchLog()
    best = _bisect_penalty(a, b, np.zeros(a.shape[1]), norms, config, lam_max, bound, log)
    return _spectrum_from_result(
        grid, best.x, "subspace_cs", best, log, bound, config.inner_tol
    )


def choose_delta(spectral, num_paths: int, factor: float = 1.5) -> float:
    """Residual allowance for ``subspace_cs`` from the noise eigenvalues.

    Takes the root-sum-square of the eigenvalues outside the signal
    subspace, scaled by ``factor``, plus a floor of 1e-9 times the
    signal-subspace energy so the result is always positive. ``factor=0``
    selects strict interpolation of the signal subspace.

    Args:
        spectral: SpectralMatrix, SubspaceDecomposition, or a 1-D array of
            eigenvalues (any order).
        num_paths: Signal-subspace dimension.
        factor: Scale on the noise-floor estimate.
    """
    if isinstance(spectral, SubspaceDecomposition):
        lam = spectral.eigenvalues
    elif isinstance(spectral, SpectralMatrix):
        lam = np.linalg.eigvalsh(spectral.matrix)[::-1]
    else:
        lam = np.sort(np.asarray(spectral, dtype=float))[::-1]
    if not 1 <= num_paths <= lam.size:
        raise ValueError(f"num_paths must lie in [1, {lam.size}]")
    if factor < 0:
        raise ValueError("factor must be nonnegative")
    noise = float(np.sqrt(np.sum(lam[num_paths:] ** 2)))
    signal = float(np.sqrt(np.sum(lam[:num_paths] ** 2)))
    return factor * noise + _BOUND_FLOOR_REL * signal
