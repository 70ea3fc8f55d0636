"""Sparse-recovery programs for angle spectra.

* ``subspace_cs``: nonnegative l1 recovery of path powers from the
  row-stacked signal-subspace vector against the lifted dictionary.
* ``reweighted_cs``: iteratively reweighted complex l1 over one or many
  snapshots; the weight of each grid angle is the reciprocal of its current
  aggregated magnitude, so surviving support sharpens across passes.
* ``bpdn``: minimum l1 norm of a complex angle spectrum subject to a
  residual bound on one snapshot, run as the first, unit-weight pass of
  ``reweighted_cs``.

``subspace_cs`` follows the nonnegative lasso path exactly
(``_nonneg_path``): the solution is piecewise linear in the penalty level
(Osborne, Presnell & Turlach 2000), so the path is walked from breakpoint
to breakpoint in the Gram domain until the data residual reaches the
requested bound. Its end at level 0 is the nonnegative least-squares
optimum (Lawson & Hanson 1974), so an unreachable bound is refused with a
certified floor by the same loop, or, when the caller asks for a retry,
met at 1.1 x that floor by the point of the same walk. What a segment
computes from the lifted matrix alone (the Gram, and per passive set its
solve, rate and move) is kept in a memo (``_PathMemo``) that the
``LiftedSystem`` owns, so it lives as long as the system and the systems
made from it by ``_with_vector``. The walk itself is one loop in
``_nonneg_path`` and lives and ends within one call.

The complex solvers run ``_cd_lasso``, working-set cyclic coordinate
descent with exact one-dimensional updates, a dense active-set polish of
a one-snapshot support (adopted when it lowers the objective) and a full
stationarity sweep. That sweep opens every round, the first one of a warm
or cold start included, and admits at once every row whose relative
violation exceeds the tolerance: a round's working set is the current
support plus every violator, as in the KKT check of the strong-rules
working set (Tibshirani et al. 2012), so a solve from zero never sweeps an
empty set. The objective is evaluated once per round, after its sweeps,
and once per polish candidate. Each snapshot column is its own lasso, so
a coordinate pass (``_cd_sweep``) moves only each column's start
candidates, the entries nonzero or over their threshold when the pass
starts, the next candidate of every column in one step; its updates are
those of a plain column-by-column loop over the candidates. A zero entry
that crosses its threshold during the pass waits for the next pass or the
stationarity sweep. A small or dense working set is swept row by row
instead, each row in every column with two real BLAS products, letting a
zero entry in at its visit. The polish runs only on one snapshot, with no
more nonzero rows than the array has sensors: above that, the support
Gram can be singular, so the dense solve has no unique support solution,
and over many snapshots the polish changed no seeded report. Penalty
continuation (``_continue_penalty``), with warm-started steps of at most
2x and a safeguarded secant on log residual against log level, puts the
residual just under the requested bound, so the returned point is a
stationary pair for the residual-constrained program. The contract is the
achieved feasibility and stationarity tolerance, not the particular
iteration.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from numbers import Integral, Real

import numpy as np

from .arrays import AngleGrid, SteeringDictionary
from .simulate import SnapshotMatrix
from ._sweep import _WorkingSet, _cd_sweep
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
# Target band of a returned residual: [(1 - _BAND) * bound, bound].
_BAND = 0.1
# The complex penalty search aims its secant steps at this share of the bound.
_SEARCH_AIM = 1.0 - 0.8 * _BAND
# The nonnegative path stops where the residual reaches this share of the bound.
_PATH_AIM = 1.0 - 0.5 * _BAND
_FEASIBILITY_SLACK = 1e-6
_MAX_WORKING_SET_ROUNDS = 200
_SWEEPS_PER_ROUND = 25
# A zero entry whose correlation is within this share of max Re(aᴴb) below
# the level ties at a breakpoint of the nonnegative path.
_TIE_REL = 1e-15
# The path admits a tied entry whose correlation would outgrow the level
# faster than this, relative to the level's own rate.
_ADMIT_TOL = 1e-10
_PATH_SEGMENTS_PER_ATOM = 10
# A requested retry meets this multiple of the nonnegative least-squares floor.
_RETRY_FACTOR = 1.1
# Passive sets whose segment solves the path memo of one lifted matrix keeps.
_PATH_MEMO_SETS = 1024
_TINY = np.finfo(float).tiny


def _stop_counts() -> dict:
    """Zero counts of the exits of ``_cd_lasso``, by the name it gives each."""
    return dict.fromkeys(("kkt", "no_newcomer", "budget", "round_cap"), 0)


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
    """Tolerances shared by the sparse solvers, with the benchmark's defaults.

    Each solver takes its residual bound as its own argument.

    Args:
        reweight_xi: Stabilizer added to magnitudes in the reweighting
            update; ``None`` picks 1e-3 of the first pass's peak magnitude.
        max_reweight_iters: Cap on reweighting passes.
        inner_tol: Stationarity tolerance of the inner solver, relative to
            the active penalty level.
        inner_max_iters: Coordinate-sweep budget per inner solve.
    """

    reweight_xi: float | None = None
    max_reweight_iters: int = 6
    inner_tol: float = 1e-4
    inner_max_iters: int = 600

    def __post_init__(self):
        reals = ("inner_tol",) if self.reweight_xi is None else ("reweight_xi", "inner_tol")
        for name in reals:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("max_reweight_iters", "inner_max_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")


@dataclass(frozen=True, eq=False)
class SparseSpectrum:
    """Recovered angle spectrum plus solver diagnostics."""

    grid: AngleGrid
    values: np.ndarray
    method: str
    # Work over every inner solve: for the complex solvers, coordinate sweeps
    # plus the polishes that ran (only one-snapshot supports of at most M
    # rows are polished); for subspace_cs, the k x k passive-set systems its
    # walk visits, each counted whether its solve came from the path memo or
    # was computed; a retried walk counts all of them, to the path's end.
    iterations: int
    residual: float
    residual_bound: float
    objective: float
    converged: bool
    # Objective trajectory of the final inner run: its start, then one entry
    # per working-set round (after the round's sweeps) and one per adopted
    # polish; for subspace_cs, the path's breakpoints, each at its own
    # level. Non-increasing.
    objective_history: np.ndarray = field(repr=False, default=None)
    # Number of inner (penalized) solves behind the spectrum, and the
    # largest support any of them returned, in grid angles that are nonzero
    # in some snapshot; for subspace_cs, the segments of the path and the
    # largest set of entries that moved on one.
    inner_solves: int = 0
    peak_support: int = 0
    # subspace_cs only: residual_bound is 1.1 x the floor above the requested bound
    retried: bool = False
    # Inner complex solves by the exit that ended them (see ``_cd_lasso``);
    # all zero for subspace_cs and for an all-zero spectrum of loose bound.
    stops: dict = field(default_factory=_stop_counts)

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
            "retried": bool(self.retried),
            "stops": {name: int(n) for name, n in self.stops.items()},
        }


@dataclass
class _InnerResult:
    x: np.ndarray
    residual: float
    kkt: float
    iterations: int
    objective_history: list
    retry_bound: float | None = None  # the bound a retried path walk raised to
    stop: str | None = None  # the exit that ended a _cd_lasso run


def _solve_psd(h: np.ndarray, c: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(h, c)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(h, c, rcond=None)[0]


_POLISH_PASSES = 6


def _polish_complex(
    a_sub: np.ndarray, b: np.ndarray, lam_sub: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Active-set solve of the support-restricted problem on one snapshot.

    A dense solve of a_subᴴ a_sub z = a_subᴴ b - lam * phase(x) on the live
    entries (phases re-linearized each pass), single-entry prunes of
    coefficients pushed through zero, and re-admission of the dropped entry
    whose stationarity is violated worst; at most ``_POLISH_PASSES`` passes,
    stopping early once the phases stop moving. Near-parallel active
    columns are resolved by the dense solve, which coordinate updates cannot
    do in reasonable time. Fewer than two live entries are returned
    unchanged (a lone coordinate is already solved exactly by its update).

    Args:
        a_sub: Working-set dictionary columns, shape (M, n).
        b: Snapshot, shape (M,).
        lam_sub: Per-entry penalties, shape (n,).
        x: Current coefficients, shape (n,).

    Returns:
        Polished coefficients, shape (n,).
    """
    mag = np.abs(x)
    alive = mag > 0
    if np.count_nonzero(alive) < 2:
        return x.copy()
    phases = np.zeros_like(x)
    phases[alive] = x[alive] / mag[alive]
    readmit_tol = 1e-7 * max(float(np.max(lam_sub)), _TINY)
    for _ in range(_POLISH_PASSES):
        while True:
            idx = np.flatnonzero(alive)
            if idx.size == 0:
                return np.zeros_like(x)
            asub = a_sub[:, idx]
            asub_h = asub.conj().T
            z = _solve_psd(asub_h @ asub, asub_h @ b - lam_sub[idx] * phases[idx])
            crossing = (z.conj() * phases[idx]).real
            if not np.any(crossing <= 0):
                break
            # prune the most negative crossing
            alive[idx[np.argmin(crossing)]] = False
        new_phases = z / np.maximum(np.abs(z), _TINY)
        moved = np.max(np.abs(new_phases - phases[idx]))
        phases[idx] = new_phases
        # re-admit the dropped entry whose stationarity is violated worst
        corr = a_sub.conj().T @ (b - asub @ z)
        viol = np.where(alive, -np.inf, np.abs(corr) - lam_sub)
        worst = int(np.argmax(viol))
        if viol[worst] > readmit_tol:
            alive[worst] = True
            phases[worst] = corr[worst] / np.maximum(np.abs(corr[worst]), _TINY)
        elif moved < 1e-13:
            break
    out = np.zeros_like(x)
    out[idx] = z
    return out


def _violation(a, r, x, lam_rows) -> np.ndarray:
    """Per-row stationarity violation, relative to the row's threshold."""
    corr = a.conj().T @ r
    viol = np.maximum(np.abs(corr) - lam_rows[:, None], 0.0)
    nz = np.abs(x) > 0
    line = corr - lam_rows[:, None] * (x / np.maximum(np.abs(x), _TINY))
    viol[nz] = np.abs(line[nz])
    return np.max(viol / np.maximum(lam_rows[:, None], _TINY), axis=1)


def _penalty(lam_rows, x) -> float:
    """sum_q lam[q] * sum_l |x[q, l]|."""
    return float(np.sum(lam_rows * np.sum(np.abs(x), axis=1)))


def _support(x: np.ndarray) -> np.ndarray:
    """Rows of ``x`` holding a nonzero entry."""
    return np.flatnonzero(np.any(x != 0, axis=1))


def _cd_lasso(
    a: np.ndarray,
    b: np.ndarray,
    lam_rows: np.ndarray,
    x0: np.ndarray,
    tol: float,
    max_sweeps: int,
    col_norms_sq: np.ndarray,
) -> _InnerResult:
    """Working-set coordinate descent for a row-weighted complex lasso.

    Minimizes 0.5 * ||a x - b||^2 + sum_q lam_rows[q] * sum_l |x[q, l]|
    over complex x of shape (K, L), with ``_cd_sweep`` as the inner pass
    over the working set's rows, ``_polish_complex`` as the dense polish of
    the nonzero rows and ``_violation`` as the stationarity test. x is zero
    off the working set, so the objective's penalty is taken over its rows.

    Every round starts with a full stationarity check, the first round of a
    warm start included: its working set is the current support plus every
    row whose relative violation exceeds ``tol``, and it runs up to
    ``_SWEEPS_PER_ROUND`` sweeps on it. The run ends at the first check
    that finds kkt <= tol (stop ``"kkt"``), the sweep budget spent
    (``"budget"``), after a round, every violator already in the support
    (``"no_newcomer"``), or ``_MAX_WORKING_SET_ROUNDS`` rounds run
    (``"round_cap"``); the result's ``stop`` names that exit.

    The polish runs, and counts as a sweep, only on one snapshot (L = 1)
    whose nonzero rows are no more than the M sensors. Above M rows the
    support Gram can be singular, so the dense solve has no unique support
    solution; such a polish can still lower the objective (it did in 5 of
    the 20 columns of a dense 20-snapshot state, by 0.8-1.7 %). Over many
    snapshots the polish changed no seeded report and took about a tenth
    of a Table-1 run, so those solves run on coordinate descent alone.
    """
    x = x0.copy()
    r = (b - a @ x).T.copy()  # one row per snapshot column

    def objective(res, lam, coef):
        return 0.5 * float(np.linalg.norm(res) ** 2) + _penalty(lam, coef)

    support = _support(x)
    history = [objective(r, lam_rows[support], x[support])]
    sweeps = 0
    for rounds in range(_MAX_WORKING_SET_ROUNDS + 1):
        # Full stationarity pass; the working set is the support plus every violator.
        rel = _violation(a, r.T, x, lam_rows)
        kkt = float(np.max(rel))
        w = np.union1d(support, np.flatnonzero(rel > tol))
        stop = (
            "kkt" if kkt <= tol
            else "budget" if sweeps >= max_sweeps
            else "no_newcomer" if rounds and w.size == support.size
            else "round_cap" if rounds == _MAX_WORKING_SET_ROUNDS
            else None
        )
        if stop is not None:
            break
        ws, x_w = _WorkingSet(a[:, w], col_norms_sq[w], lam_rows[w]), x[w]
        for _ in range(min(_SWEEPS_PER_ROUND, max_sweeps - sweeps)):
            sweeps += 1
            if _cd_sweep(ws, r, x_w) <= 0.1 * tol:
                break
        x[w] = x_w
        history.append(objective(r, ws.lam, x_w))
        # Dense polish of one snapshot on a support the sensors can resolve;
        # adopt only on objective decrease.
        support = _support(x)
        if b.shape[1] == 1 and 0 < support.size <= a.shape[0]:
            sweeps += 1
            a_sub = a[:, support]
            x_cand = _polish_complex(a_sub, b[:, 0], lam_rows[support], x[support, 0])[:, None]
            r_cand = (b - a_sub @ x_cand).T.copy()
            f_cand = objective(r_cand, lam_rows[support], x_cand)
            if f_cand <= history[-1]:
                x[:] = 0
                x[support] = x_cand
                r = r_cand
                history.append(f_cand)
                support = _support(x)
    return _InnerResult(x, float(np.linalg.norm(r)), kkt, sweeps, history, stop=stop)


def _effective_bound(bound: float, data_norm: float) -> float:
    """``bound`` floored at the exact-fit limit; a negative or NaN bound is refused."""
    bound = float(bound)
    if not bound >= 0.0:
        raise ValueError(f"residual bound must be nonnegative, got {bound}")
    return max(bound, _BOUND_FLOOR_REL * data_norm)


@dataclass
class _SearchLog:
    """Work of every inner solve behind one returned spectrum."""

    iterations: int = 0
    inner_solves: int = 0
    peak_support: int = 0
    stops: dict = field(default_factory=_stop_counts)


def _solve_at(a, b, lam, weights, x_start, norms, config, log: _SearchLog):
    """One ``_cd_lasso`` run at per-row penalties ``lam * weights``, logged."""
    res = _cd_lasso(
        a, b, lam * weights, x_start, config.inner_tol, config.inner_max_iters, norms
    )
    log.iterations += res.iterations
    log.inner_solves += 1
    log.peak_support = max(log.peak_support, int(_support(res.x).size))
    log.stops[res.stop] += 1
    return res


def _unreachable(bound: float, residual: float) -> SolverInfeasibleError:
    return SolverInfeasibleError(
        f"residual bound {bound:.6e} unreachable; minimum achieved "
        f"residual {residual:.6e}",
        min_residual=residual,
    )


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
    """Penalty continuation toward the residual bound.

    The residual of the penalized solution grows with the level, from 0 to
    ||b|| at ``lam_max`` (the zero solution), roughly as a power law, so the
    search works on log ||r|| against log lam, as SPGL1 root-finds its
    Pareto curve (van den Berg & Friedlander 2008). Its aim is
    ``_SEARCH_AIM * bound``, near the low end of the band
    [(1 - _BAND) * bound, bound]. Every solve is warm-started, and
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
    lower = (1.0 - _BAND) * bound
    aim = _SEARCH_AIM * bound

    def solve(lam, x_start):
        return _solve_at(a, b, lam, weights, x_start, norms, config, log)

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
                raise _unreachable(bound, res.residual)
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


class _Segment:
    """Passive set P's solve z of G_PP z = 1, its rate 1 - G[:, P] z and its move a[:, P] z.

    ``nonpos`` is the mask z <= 0, or None when every entry of z is positive.
    """

    __slots__ = ("z", "rate", "nonpos", "_move")

    def __init__(self, z, rate):
        self.z, self.rate, self._move = z, rate, None
        nonpos = z <= 0.0
        self.nonpos = _read_only(nonpos) if nonpos.any() else None

    def move(self, a, idx) -> np.ndarray:
        """a[:, idx] @ z, formed the first time a segment ends on P."""
        if self._move is None:
            self._move = _read_only(a[:, idx] @ self.z)
        return self._move


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class _PathMemo:
    """The part of nonnegative-path segments that depends on one lifted matrix only.

    The real Gram G = Re(aᴴa) is formed once. A segment on passive set P
    solves G_PP z = 1, and its correlations change at the rate 1 - G[:, P] z;
    neither depends on the data, so both are kept, with the segment's move
    a[:, P] z in the data domain, for the first ``_PATH_MEMO_SETS`` sets
    visited, keyed by the sorted indices of P. A set visited once the memo
    is full is solved afresh each time and not kept; nothing is evicted.
    Every array is what the unmemoized expression gives on the same inputs,
    and is read-only.
    """

    def __init__(self, a):
        a_h = a.conj().T
        self.gram = _read_only(np.ascontiguousarray((a_h @ a).real))
        self._sets: dict = {}
        self._lock = threading.Lock()

    def segment(self, idx) -> _Segment:
        key = idx.tobytes()
        with self._lock:
            seg = self._sets.get(key)
            if seg is None:
                gram = self.gram
                z = _solve_psd(gram[np.ix_(idx, idx)], np.ones(idx.size))
                seg = _Segment(_read_only(z), _read_only(1.0 - gram[:, idx] @ z))
                if len(self._sets) < _PATH_MEMO_SETS:
                    self._sets[key] = seg
        return seg


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D complex vector, computed as numpy computes it."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _path_direction(memo: _PathMemo, free, tied, log: _SearchLog):
    """Direction of the nonnegative lasso path just below a breakpoint.

    Below the breakpoint the solution moves as x + t d while the level falls
    by t. d minimizes 0.5 dᵀ G d - sum(d), free in sign on the positive
    entries ``free`` of x, >= 0 on the zero entries ``tied`` whose
    correlation is at the level, and 0 elsewhere. Lawson–Hanson steps solve
    it from the positive entries: admit the tied entry whose correlation
    would outgrow the level fastest, solve the passive set, and step back
    along the segment while a tied entry would go <= 0. An entry dropped as
    soon as it is admitted is not admitted again, so rounding cannot cycle.
    The passive-set solves come from ``memo``; every one counts in
    ``log.iterations``, found or solved.

    Returns:
        The direction d, its passive set as a mask and as sorted indices,
        and the memo's segment of that set when d is its solve (None for an
        empty set or a spent budget).
    """
    passive, admissible, d = free.copy(), tied.copy(), np.zeros(free.size)
    j = -1
    for _ in range(3 * free.size):
        idx = passive.nonzero()[0]
        seg = None
        if idx.size:
            seg = memo.segment(idx)
            z = seg.z
            log.iterations += 1
            neg = None if seg.nonpos is None else tied[idx] & seg.nonpos
            if neg is not None and neg.any():
                # step back to where the first tied entry reaches zero
                cur = d[idx[neg]]
                ratios = cur / np.maximum(cur - z[neg], _TINY)
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
        # the candidate whose correlation outgrows the level fastest, at the
        # rate 1 - G d (1 with d = 0); the first of equals
        candidates = (admissible & ~passive).nonzero()[0]
        if not candidates.size:
            return d, passive, idx, seg
        j = 0
        if idx.size:
            growth = seg.rate[candidates]
            j = int(growth.argmax())
            if growth[j] <= _ADMIT_TOL:
                return d, passive, idx, seg
        j = int(candidates[j])
        passive[j] = True
    return d, passive, passive.nonzero()[0], None


def _nonneg_path(
    a, b, bound: float, log: _SearchLog, memo: _PathMemo, retry: bool = False
) -> _InnerResult:
    """Nonnegative lasso homotopy down to ``_PATH_AIM * bound``.

    The solution of min 0.5 ||b - a p||^2 + lam * sum(p) over real p >= 0
    is piecewise linear in lam (Osborne, Presnell & Turlach 2000). The path
    runs in the Gram domain, G = Re(aᴴa) and c = Re(aᴴb), from p = 0 at
    lam = max(c) down to lam = 0, one segment per pass of the loop: at a
    breakpoint ``_path_direction`` gives the segment, which ends where a
    positive entry reaches zero, an inactive correlation c - G x reaches
    the level, or the level reaches zero. The residual stays in the data
    domain: along a segment it is r - t u, u = a d, so the point where its
    norm reaches the aim is the smaller root of a quadratic. ``memo``, the
    path memo of ``a``, holds the Gram and each segment's part that does
    not depend on ``b``; ``log`` counts the walk.

    Only the stop test ||r - t u|| <= aim depends on the bound, so every
    walked segment is kept (``walked``) with that norm: a looser aim is met
    by scanning the kept norms, without walking again.

    The end at lam = 0 is the nonnegative least-squares optimum (Lawson &
    Hanson 1974), the smallest residual any p >= 0 reaches (the floor); it
    is returned when it is within ``bound``. Above it, with ``retry``, the
    result is the same walk's point at ``_RETRY_FACTOR`` x the floor (the
    zero solution if that covers b), with that bound as ``retry_bound``.

    Raises:
        SolverInfeasibleError: If the path ends above ``bound`` and
            ``retry`` is False, with that end's residual as
            ``min_residual``.
    """
    gram = memo.gram
    c = (a.conj().T @ b).real
    lam_max = lam = float(np.max(c))
    tie = _TIE_REL * max(lam_max, _TINY)
    aim, retry_bound = _PATH_AIM * bound, None
    x, event, k = np.zeros(c.size), -1, None
    walked, history = [], []  # per segment: (stop norm, x, lam, residual, r, idx, d, t, u)
    while lam > 0.0 and len(walked) < _PATH_SEGMENTS_PER_ATOM * c.size:
        pos = x > 0.0
        on = pos.nonzero()[0]
        x_on = x[on]
        r = b - a[:, on] @ x_on
        residual = _norm(r)
        grad = c - gram[:, on] @ x_on
        history.append(0.5 * residual**2 + lam * float(x.sum()))
        tied = (x == 0.0) & (grad >= lam - tie)
        if event >= 0:
            tied[event] = True  # the entry that ended the last segment
        d, passive, idx, seg = _path_direction(memo, pos, tied, log)
        log.inner_solves += 1
        log.peak_support = max(log.peak_support, int(idx.size))
        d = d[idx]
        ratios = np.full(c.size, np.inf)
        down = d < 0.0
        falling = idx[down]
        if falling.size:
            ratios[falling] = x[falling] / -d[down]
        slope = seg.rate if seg is not None else 1.0 - gram[:, idx] @ d
        rising = ~(passive | tied) & (slope > 0.0)
        np.divide(lam - grad, slope, out=ratios, where=rising)
        event = int(ratios.argmin())
        t = min(float(ratios[event]), lam)
        u = seg.move(a, idx) if seg is not None else a[:, idx] @ d
        stop = _norm(r - t * u)
        walked.append((stop, x, lam, residual, r, idx, d, t, u))
        if stop <= aim:
            k = len(walked) - 1
            break
        x = x.copy()
        x[idx] = np.maximum(x[idx] + t * d, 0.0)
        if t < lam:
            x[event] = 0.0
        lam = lam - t if t < lam else 0.0

    if k is None:
        on = np.flatnonzero(x > 0.0)
        residual = float(np.linalg.norm(b - a[:, on] @ x[on]))
        if lam <= 0.0 and residual > bound:
            if not retry:
                raise _unreachable(bound, residual)
            # above the floor, so above the refused bound too
            retry_bound = _RETRY_FACTOR * residual
            data_norm = float(np.linalg.norm(b))
            if data_norm <= retry_bound:
                # the zero solution meets it, as subspace_cs reports a loose bound
                return _InnerResult(np.zeros(x.size), data_norm, 0.0, 0, [0.0], retry_bound)
            aim = _PATH_AIM * retry_bound
            k = next((j for j, kept in enumerate(walked) if kept[0] <= aim), None)
    segments = len(walked)
    if k is not None:
        _, x, lam, start, r, idx, d, t, u = walked[k]
        segments = k + 1
        # smaller root of ||r - s u||^2 = aim^2, in a form free of cancellation:
        # the discriminant ru^2 - uu * gap is uu * (aim^2 - p^2), with p the
        # part of r orthogonal to u, which stays accurate near exact fit
        gap = start**2 - aim**2
        ru, uu = float(np.vdot(u, r).real), float(np.vdot(u, u).real)
        p = _norm(r - (ru / uu) * u)
        s = min(gap / (ru + np.sqrt(max(uu * (aim - p) * (aim + p), 0.0))), t)
        x[idx] += s * d  # the kept x is this call's own
        lam -= s
        on = np.flatnonzero(x > 0.0)
        residual = float(np.linalg.norm(b - a[:, on] @ x[on]))

    history = history[:segments]
    history.append(0.5 * residual**2 + lam * float(np.sum(x)))
    grad = c - gram[:, on] @ x[on]
    excess = np.where(x > 0.0, np.abs(grad - lam), np.maximum(grad - lam, 0.0))
    kkt = float(np.max(excess)) / (lam if lam > 0.0 else lam_max)
    return _InnerResult(x, residual, kkt, segments, history, retry_bound)


def _spectrum_from_result(grid, values, method, result, log, bound, tol) -> SparseSpectrum:
    if result.retry_bound is not None:
        bound = result.retry_bound  # a retried path walk met this bound instead
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
        retried=result.retry_bound is not None,
        stops=log.stops,
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
    dictionary: SteeringDictionary, snapshot, bound: float, config: SolverConfig | None = None
) -> SparseSpectrum:
    """Basis-pursuit denoising: min ||s||_1 s.t. ||G s - y||_2 <= bound.

    This is the first, unit-weight pass of ``reweighted_cs`` on one
    snapshot.

    Args:
        dictionary: Over-complete steering dictionary.
        snapshot: Complex observation vector (length num_sensors).
        bound: Noise-norm bound epsilon on the residual. 0 requests the
            exact-fit limit, floored at 1e-9 of the data norm; a negative
            or NaN bound raises ``ValueError``.
        config: Solver tolerances.

    Returns:
        SparseSpectrum with complex values over the grid.
    """
    config = config or SolverConfig()
    y = _snapshot_array(snapshot)
    if y.shape[1] != 1:
        raise ValueError("bpdn takes a single snapshot; use reweighted_cs for several")
    spectrum = reweighted_cs(dictionary, y, bound, replace(config, max_reweight_iters=1))
    return replace(spectrum, method="bpdn")


def reweighted_cs(
    dictionary: SteeringDictionary, snapshots, bound: float, config: SolverConfig | None = None
) -> SparseSpectrum:
    """Iteratively reweighted l1 recovery over one or more snapshots.

    Every pass keeps the residual over all snapshots within ``bound``, taken
    as by ``bpdn``. The first pass runs with unit weights. After each pass
    the magnitude of every grid angle is aggregated across snapshots (sum of
    absolute values) and the next pass weights each angle by ``1 /
    (aggregate + xi)``, so angles with persistent energy get cheap and the
    rest are driven to zero. It runs ``max_reweight_iters`` passes, or stops
    after the first if that returns all zeros.

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
    bound = _effective_bound(bound, data_norm)
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
        weights = 1.0 / (agg + xi)

    values = best.x[:, 0] if num_l == 1 else np.sum(np.abs(best.x), axis=1)
    return _spectrum_from_result(
        grid, values, "reweighted_cs", best, log, bound, config.inner_tol
    )


def subspace_cs(
    lifted: LiftedSystem, bound: float, config: SolverConfig | None = None, retry: bool = False
) -> SparseSpectrum:
    """Nonnegative l1 recovery of path powers from the lifted system.

    Solves min ||p||_1 over p >= 0 subject to
    ``||vector - matrix @ p|| <= bound``. Peak positions of the returned
    values are the arrival-angle estimates. Path cross terms are not
    modelled; they are absorbed by the residual bound.

    The solve follows the nonnegative lasso path down from the zero
    solution (``_nonneg_path``) and returns the point of the path whose
    residual is ``0.95 * bound``; it is stationary for the penalty level it
    sits at. When the nonnegative least-squares floor, the end of the path,
    lies between that and the bound, the floor's solution is returned.
    Each call walks the path once, and its counters count that walk.

    Args:
        lifted: Vectorized signal subspace and lifted dictionary.
        bound: Covariance-domain residual allowance delta (see
            ``choose_delta``), taken as by ``bpdn``.
        config: Tolerances; ``inner_tol`` decides ``converged``.
        retry: Meet a bound below the floor at 1.1 x the floor instead of
            refusing it. The spectrum is then the walk's own point at that
            bound (or all zeros, if that bound covers the data), with
            ``retried`` set and the raised bound as ``residual_bound``.

    Raises:
        SolverInfeasibleError: If the bound is below the best achievable
            residual and ``retry`` is False. ``min_residual`` is the
            nonnegative least-squares floor, the residual at the end of the
            path.
    """
    config = config or SolverConfig()
    b = lifted.vector
    grid = lifted.grid
    data_norm = float(np.linalg.norm(b))
    bound = _effective_bound(bound, data_norm)
    if data_norm <= bound:
        return _zero_spectrum(grid, "subspace_cs", bound, data_norm)

    # the path memo, shared by every system made from this one by
    # _with_vector; when two threads race to start it, setdefault keeps one
    memo = lifted._memo.get("path")
    if memo is None:
        memo = lifted._memo.setdefault("path", _PathMemo(lifted.matrix))
    log = _SearchLog()
    best = _nonneg_path(lifted.matrix, b, bound, log, memo, retry)
    return _spectrum_from_result(
        grid, best.x, "subspace_cs", best, log, bound, config.inner_tol
    )


def choose_delta(decomposition: SubspaceDecomposition, factor: float) -> float:
    """Residual allowance delta for ``subspace_cs`` from the noise eigenvalues.

    Takes the root-sum-square of the eigenvalues outside the signal
    subspace, scaled by ``factor``, plus a floor of 1e-9 times the
    signal-subspace energy so the result is always positive. ``factor=0``
    selects strict interpolation of the signal subspace.

    Args:
        decomposition: Eigenvalues (descending) and signal-subspace
            dimension of the covariance.
        factor: Scale on the noise-floor estimate.
    """
    if not factor >= 0:
        raise ValueError(f"factor must be nonnegative, got {factor}")
    lam, num_paths = decomposition.eigenvalues, decomposition.num_paths
    noise = float(np.sqrt(np.sum(lam[num_paths:] ** 2)))
    signal = float(np.sqrt(np.sum(lam[:num_paths] ** 2)))
    return factor * noise + _BOUND_FLOOR_REL * signal
