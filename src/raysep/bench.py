"""Monte-Carlo benchmark harness: peak picking, per-path RMSE, SNR sweeps.

A plan fixes the ground-truth arrivals, the data synthesis settings and the
algorithm list; the harness then repeats synthesize -> estimate -> peak-pick
for every (SNR, trial) cell, matches detected peaks to the true angles and
reports per-path RMSE with detection rates. Per-trial random streams are
derived from (base seed, trial index, SNR index), so results do not depend
on execution order and rerunning a plan reproduces every number.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .arrays import AngleGrid, ArrayGeometry, RaypathSet, build_dictionary
from .baselines import cbf_spectrum, music_spectrum
from .simulate import NoiseSpec, _check_signal, synthesize_broadband
from .solvers import (
    SolverConfig,
    SolverInfeasibleError,
    bpdn,
    choose_delta,
    reweighted_cs,
    subspace_cs,
)
from .spectral import FocusingError, estimate_spectral_matrix, focus_and_smooth
from .subspace import LiftedSystem, decompose, lift_dictionary, vectorize_signal_subspace

__all__ = [
    "ALGORITHMS",
    "EstimatorSettings",
    "ExperimentPlan",
    "PathScores",
    "RmseReport",
    "detect_peaks",
    "estimate_spectra",
    "rmse",
    "run_experiment",
]

ALGORITHMS = ("subspace_cs", "reweighted_cs", "bpdn", "music", "cbf")
# Algorithms that return a SparseSpectrum, whose outcome the report counts.
_SPARSE = ("subspace_cs", "reweighted_cs", "bpdn")


def detect_peaks(spectrum, num_paths: int) -> np.ndarray:
    """Angles of the ``num_paths`` largest strict local maxima.

    A peak is a grid point whose magnitude exceeds both neighbors; endpoints
    never qualify. Among equal-valued peaks the lower angle wins. If fewer
    strict maxima exist than requested, all of them are returned (the short
    length is the under-detection signal).

    Args:
        spectrum: Object with ``values`` and ``grid`` (SparseSpectrum or
            PseudoSpectrum).
        num_paths: Number of peaks wanted.

    Returns:
        Peak angles in degrees, sorted ascending.
    """
    if num_paths < 1:
        raise ValueError("num_paths must be at least 1")
    mag = np.abs(np.asarray(spectrum.values))
    angles = spectrum.grid.angles_deg
    interior = np.arange(1, mag.size - 1)
    is_peak = (mag[interior] > mag[interior - 1]) & (mag[interior] > mag[interior + 1])
    peak_idx = interior[is_peak]
    if peak_idx.size == 0:
        return np.empty(0)
    order = np.argsort(-mag[peak_idx], kind="stable")
    chosen = peak_idx[order[:num_paths]]
    return np.sort(angles[chosen])


def _match_peaks(peaks: np.ndarray, truth: np.ndarray, window_deg: float):
    """Greedy nearest-angle bijection between peaks and truths.

    Returns (per-path error dict, number of unmatched peaks).
    """
    pairs = []
    for ti, t in enumerate(truth):
        for pi, p in enumerate(peaks):
            dist = abs(p - t)
            if dist <= window_deg:
                pairs.append((dist, ti, pi))
    pairs.sort()
    used_t: set = set()
    used_p: set = set()
    errors = {}
    for dist, ti, pi in pairs:
        if ti in used_t or pi in used_p:
            continue
        used_t.add(ti)
        used_p.add(pi)
        errors[ti] = dist
    false_alarms = len(peaks) - len(used_p)
    return errors, false_alarms


@dataclass(frozen=True, eq=False)
class PathScores:
    """Per-path RMSE statistics over a set of trials."""

    rmse_deg: np.ndarray
    detection_rate: np.ndarray
    trials_used: np.ndarray
    false_alarms: int


def rmse(trial_estimates: list, truth, window_deg: float = 3.0) -> PathScores:
    """Per-path root-mean-square angle error over Monte-Carlo trials.

    Each trial's peak list is matched to the true angles by a greedy
    nearest-angle bijection within ``window_deg``. A path's RMSE averages
    the squared errors over the trials where that path was matched; paths
    never matched get NaN. Detection rate is the matched fraction per path;
    unmatched peaks count as false alarms.

    Args:
        trial_estimates: One array of peak angles per trial.
        truth: True angles (array) or a RaypathSet.
    """
    truth_angles = (
        truth.angles_deg if isinstance(truth, RaypathSet) else np.asarray(truth, dtype=float)
    )
    num_paths = truth_angles.size
    num_trials = len(trial_estimates)
    if num_trials == 0:
        raise ValueError("need at least one trial")
    sq_sums = np.zeros(num_paths)
    counts = np.zeros(num_paths, dtype=int)
    false_alarms = 0
    for peaks in trial_estimates:
        errors, fa = _match_peaks(np.asarray(peaks, dtype=float), truth_angles, window_deg)
        false_alarms += fa
        for ti, err in errors.items():
            sq_sums[ti] += err * err
            counts[ti] += 1
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.sqrt(sq_sums / counts)
    out[counts == 0] = np.nan
    return PathScores(
        rmse_deg=out,
        detection_rate=counts / num_trials,
        trials_used=counts,
        false_alarms=false_alarms,
    )


def _default_solver() -> SolverConfig:
    return SolverConfig(inner_tol=1e-4, inner_max_iters=600, max_reweight_iters=6)


@dataclass(frozen=True)
class EstimatorSettings:
    """How to turn synthesized or recorded snapshot bins into spectra.

    Args:
        geometry: Array description.
        grid: Search grid shared by all algorithms.
        num_paths: Assumed number of arrivals.
        algorithms: Subset of ``ALGORITHMS``.
        focus_frequency_hz: Focus for smoothing and dictionary frequency;
            ``None`` picks the center of the supplied bins.
        music_smoothing: When True the classical beamformers also see the
            focused-and-smoothed covariance instead of the raw center bin.
        epsilon: Explicit residual bound for the snapshot-domain solvers;
            ``None`` derives it from the recorded noise power.
        epsilon_factor: Scale on the derived noise-norm bound.
        delta_factor: Scale handed to ``choose_delta`` for subspace_cs.
        subspace_retry: The noise-floor residual allowance knows nothing
            about path cross terms, which dominate at high SNR and can push
            the requested bound below what any nonnegative fit can reach.
            ``subspace_cs`` then ends its path at the nonnegative
            least-squares floor, above the bound. When True (default), it is
            asked to meet 1.1x that floor instead and marks its spectrum
            retried; when False the refusal propagates.
        solver: Inner-solver tolerances for all sparse programs.
    """

    geometry: ArrayGeometry
    grid: AngleGrid
    num_paths: int
    algorithms: tuple
    focus_frequency_hz: float | None = None
    music_smoothing: bool = False
    epsilon: float | None = None
    epsilon_factor: float = 1.1
    delta_factor: float = 1.5
    subspace_retry: bool = True
    solver: SolverConfig = field(default_factory=_default_solver)

    def __post_init__(self):
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        if len(self.algorithms) == 0:
            raise ValueError("algorithms must not be empty")
        m = self.geometry.num_sensors
        if not 1 <= self.num_paths < m:
            raise ValueError(
                f"num_paths must satisfy 1 <= num_paths < {m} sensors, got {self.num_paths}"
            )


class _TrialData:
    """One snapshot data set plus lazily shared covariance estimates.

    ``lifted`` is the lifted system a run shares between its data sets;
    without one, the dictionary is lifted at the first ``subspace_cs``
    solve.
    """

    def __init__(self, settings: EstimatorSettings, bins, dictionary, focus_hz, lifted=None):
        self.settings = settings
        self.bins = bins
        self.dictionary = dictionary
        self.focus_hz = focus_hz
        self.lifted = lifted
        freqs = np.array([b.frequency_hz for b in bins])
        self.center = bins[int(np.argmin(np.abs(freqs - focus_hz)))]
        self._raw = None
        self._smooth = None

    def center_covariance(self):
        if self._raw is None:
            self._raw = estimate_spectral_matrix(self.center)
        return self._raw

    def smoothed_covariance(self):
        if self._smooth is None:
            if len(self.bins) == 1:
                self._smooth = self.center_covariance()
            else:
                self._smooth = focus_and_smooth(
                    self.bins, self.focus_hz, self.settings.grid, self.settings.geometry
                )
        return self._smooth

    def lifted_system(self, decomposition):
        vector = vectorize_signal_subspace(decomposition)
        if self.lifted is None:
            self.lifted = LiftedSystem(
                vector, lift_dictionary(self.dictionary), self.dictionary.grid
            )
            return self.lifted
        return self.lifted._with_vector(vector)


def _with_bound(config: SolverConfig, bound: float) -> SolverConfig:
    return replace(config, residual_bound=float(bound))


def _run_algorithm(data: _TrialData, alg: str):
    """One algorithm's spectrum for one data set."""
    s = data.settings
    sigma2 = data.center.noise_power
    if alg == "cbf":
        cov = data.smoothed_covariance() if s.music_smoothing else data.center_covariance()
        return cbf_spectrum(cov, s.grid, s.geometry, data.focus_hz)
    if alg == "music":
        cov = data.smoothed_covariance() if s.music_smoothing else data.center_covariance()
        return music_spectrum(cov, s.num_paths, s.grid, s.geometry, data.focus_hz)
    if alg == "bpdn":
        if s.epsilon is not None:
            bound = s.epsilon
        else:
            bound = s.epsilon_factor * np.sqrt(sigma2 * s.geometry.num_sensors)
        return bpdn(data.dictionary, data.center.data[:, 0], _with_bound(s.solver, bound))
    if alg == "reweighted_cs":
        if s.epsilon is not None:
            bound = s.epsilon
        else:
            bound = s.epsilon_factor * np.sqrt(
                sigma2 * s.geometry.num_sensors * data.center.num_snapshots
            )
        return reweighted_cs(data.dictionary, data.center, _with_bound(s.solver, bound))
    if alg == "subspace_cs":
        dec = decompose(data.smoothed_covariance(), s.num_paths)
        lifted = data.lifted_system(dec)
        bound = choose_delta(dec, s.num_paths, factor=s.delta_factor)
        return subspace_cs(lifted, _with_bound(s.solver, bound), retry=s.subspace_retry)
    raise ValueError(f"unknown algorithm {alg!r}")


def estimate_spectra(bins: list, settings: EstimatorSettings) -> dict:
    """Run every selected algorithm on the given snapshot bins.

    ``subspace_cs``, if selected, lifts the dictionary once for the call.

    Returns:
        Mapping from algorithm name to its spectrum object.
    """
    freqs = [b.frequency_hz for b in bins]
    focus = settings.focus_frequency_hz
    if focus is None:
        focus = 0.5 * (min(freqs) + max(freqs))
    dictionary = build_dictionary(settings.grid, focus, settings.geometry)
    data = _TrialData(settings, bins, dictionary, focus)
    return {alg: _run_algorithm(data, alg) for alg in settings.algorithms}


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything needed to reproduce an SNR sweep.

    Args:
        paths: Ground-truth arrivals (benchmark truth).
        geometry: Array description.
        grid: Search grid shared by all algorithms.
        snr_list: Nominal SNRs in dB, one sweep point each.
        trials: Monte-Carlo repetitions per SNR.
        algorithms: Subset of ``ALGORITHMS``.
        seed: Base seed; per-trial streams derive from it.
        band_hz / num_bins: Frequency band and bin count for synthesis;
            ``num_bins == 1`` makes everything narrowband.
        num_snapshots: Snapshots per bin.
        coherence: Amplitude model passed to the simulator.
        match_window_deg: Peak-to-truth association window.
        music_smoothing / epsilon_factor / delta_factor / solver: Passed to
            the shared estimator settings.
    """

    paths: RaypathSet
    geometry: ArrayGeometry
    grid: AngleGrid
    snr_list: tuple
    trials: int
    algorithms: tuple = ("subspace_cs", "reweighted_cs", "music")
    seed: int = 0
    band_hz: tuple = (1000.0, 2000.0)
    num_bins: int = 32
    num_snapshots: int = 150
    coherence: object = "coherent"
    match_window_deg: float = 3.0
    music_smoothing: bool = False
    epsilon_factor: float = 1.1
    delta_factor: float = 1.5
    subspace_retry: bool = True
    solver: SolverConfig = field(default_factory=_default_solver)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if len(self.snr_list) == 0:
            raise ValueError("snr_list must not be empty")
        self.estimator_settings()  # validates algorithms and num_paths
        _check_signal(self.band_hz, self.num_bins, self.num_snapshots, self.coherence)

    @property
    def focus_frequency_hz(self) -> float:
        return 0.5 * (self.band_hz[0] + self.band_hz[1])

    def estimator_settings(self) -> EstimatorSettings:
        return EstimatorSettings(
            geometry=self.geometry,
            grid=self.grid,
            num_paths=self.paths.num_paths,
            algorithms=tuple(self.algorithms),
            focus_frequency_hz=self.focus_frequency_hz,
            music_smoothing=self.music_smoothing,
            epsilon_factor=self.epsilon_factor,
            delta_factor=self.delta_factor,
            subspace_retry=self.subspace_retry,
            solver=self.solver,
        )


@dataclass(frozen=True)
class ReportEntry:
    algorithm: str
    snr_db: float
    path_index: int
    rmse_deg: float
    detection_rate: float
    trials_used: int


@dataclass(frozen=True, eq=False)
class RmseReport:
    """Sweep results: per-(algorithm, SNR, path) rows plus per-trial detail."""

    truth_angles: np.ndarray
    snr_list: tuple
    algorithms: tuple
    entries: tuple
    trial_peaks: dict
    flagged_trials: tuple
    # (algorithm, snr) -> {outcome: number of trials} for the sparse
    # algorithms; the outcomes are retried, zero_spectrum and not_converged
    solver_outcomes: dict = field(default_factory=dict)

    def entry(self, algorithm: str, snr_db: float, path_index: int) -> ReportEntry:
        for e in self.entries:
            if (
                e.algorithm == algorithm
                and e.snr_db == snr_db
                and e.path_index == path_index
            ):
                return e
        raise KeyError((algorithm, snr_db, path_index))

    def rows(self) -> list:
        """CSV-ready dict rows in deterministic order."""
        return [
            {
                "algorithm": e.algorithm,
                "snr_db": e.snr_db,
                "path_index": e.path_index,
                "rmse_deg": e.rmse_deg,
                "detection_rate": e.detection_rate,
                "trials_used": e.trials_used,
            }
            for e in self.entries
        ]

    def to_json_dict(self) -> dict:
        """Full per-trial detail, JSON-serializable."""
        detail = {}
        for (alg, snr), per_trial in self.trial_peaks.items():
            detail.setdefault(alg, {})[str(snr)] = [
                [float(a) for a in p] for p in per_trial
            ]
        outcomes = {}
        for (alg, snr), counts in self.solver_outcomes.items():
            outcomes.setdefault(alg, {})[str(snr)] = dict(counts)
        return {
            "truth_angles_deg": [float(a) for a in self.truth_angles],
            "snr_db": [float(s) for s in self.snr_list],
            "algorithms": list(self.algorithms),
            "entries": [
                {
                    "algorithm": e.algorithm,
                    "snr_db": e.snr_db,
                    "path_index": e.path_index,
                    "rmse_deg": None if np.isnan(e.rmse_deg) else e.rmse_deg,
                    "detection_rate": e.detection_rate,
                    "trials_used": e.trials_used,
                }
                for e in self.entries
            ],
            "per_trial_peaks_deg": detail,
            "flagged_trials": [list(t) for t in self.flagged_trials],
            "solver_outcomes": outcomes,
        }


def _trial_seed(base_seed: int, trial_index: int, snr_index: int) -> int:
    seq = np.random.SeedSequence([int(base_seed), int(trial_index), int(snr_index)])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


# Numerical failures that cost one (cell, algorithm) pair its peaks.
_CELL_FAILURES = (SolverInfeasibleError, FocusingError, np.linalg.LinAlgError)


def run_experiment(plan: ExperimentPlan, threads: int = 1) -> RmseReport:
    """Execute the sweep described by ``plan``.

    A numerical failure inside one trial never aborts the sweep: when an
    algorithm's solve is infeasible, its focusing transform is rank
    deficient or a linear solve fails, the trial is recorded with no peaks
    for that algorithm and listed in ``flagged_trials``.

    Solves that return but deserve a look are counted, per sparse algorithm
    and SNR, in ``solver_outcomes``: retried at a raised bound
    (``subspace_retry``), all-zero spectrum (the residual allowance already
    covers the data), and not converged (infeasible or not stationary).
    They keep their peaks and are not flagged.

    Args:
        plan: Sweep description.
        threads: Worker threads, at most one per usable CPU. A plan
            without sparse solvers gains from a second thread, because its
            synthesis makes a few long numpy calls per cell that run
            without the interpreter lock (on the benchmark's 64-bin
            smoothed MUSIC/CBF plan on a 2-core VM, four runs of 6 s gave
            medians of 95-100 cells/s on one thread and 125-137 on two).
            The sparse solvers hold the interpreter lock, so a plan that
            runs them slows (the benchmark's subspace_cs/MUSIC/CBF plan:
            92 -> 82 and 100 -> 76 cells/s in two runs). Trials are
            independent and report assembly is ordered, so the thread count
            never changes results.
    """
    threads = min(threads, _usable_cpus())
    settings = plan.estimator_settings()
    dictionary = build_dictionary(plan.grid, plan.focus_frequency_hz, plan.geometry)
    # one lifted system per run, so its nonnegative-path memo serves every cell
    lifted = None
    if "subspace_cs" in plan.algorithms:
        m = plan.geometry.num_sensors
        lifted = LiftedSystem(np.zeros(m * m), lift_dictionary(dictionary), dictionary.grid)
    cells = [(si, ti) for si in range(len(plan.snr_list)) for ti in range(plan.trials)]

    def run_cell(cell):
        si, ti = cell
        seed = _trial_seed(plan.seed, ti, si)
        bins = synthesize_broadband(
            plan.paths,
            plan.band_hz,
            plan.num_bins,
            plan.num_snapshots,
            NoiseSpec(snr_db=plan.snr_list[si], seed=seed),
            plan.geometry,
            plan.coherence,
        )
        data = _TrialData(settings, bins, dictionary, plan.focus_frequency_hz, lifted)
        peaks = {}
        flagged = []
        outcomes = {}
        for alg in plan.algorithms:
            try:
                spectrum = _run_algorithm(data, alg)
                got = detect_peaks(spectrum, plan.paths.num_paths)
            except _CELL_FAILURES:
                got = np.empty(0)
                flagged.append((alg, si, ti))
                spectrum = None
            peaks[alg] = got
            if alg in _SPARSE:
                outcomes[alg] = {
                    "retried": spectrum is not None and spectrum.retried,
                    "zero_spectrum": spectrum is not None and not np.any(spectrum.values),
                    "not_converged": spectrum is not None and not spectrum.converged,
                }
        return cell, peaks, flagged, outcomes

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            raw = list(pool.map(run_cell, cells))
    else:
        raw = [run_cell(c) for c in cells]
    by_cell = {cell: rest for cell, *rest in raw}

    trial_peaks = {}
    flagged_trials = []
    solver_outcomes = {}
    for si, snr in enumerate(plan.snr_list):
        for alg in plan.algorithms:
            trial_peaks[(alg, snr)] = [
                by_cell[(si, ti)][0][alg] for ti in range(plan.trials)
            ]
            if alg in _SPARSE:
                per_trial = [by_cell[(si, ti)][2][alg] for ti in range(plan.trials)]
                solver_outcomes[(alg, snr)] = {
                    name: sum(o[name] for o in per_trial) for name in per_trial[0]
                }
        for ti in range(plan.trials):
            for alg, fsi, fti in by_cell[(si, ti)][1]:
                flagged_trials.append((alg, float(plan.snr_list[fsi]), fti))

    entries = []
    for alg in plan.algorithms:
        for snr in plan.snr_list:
            scores = rmse(
                trial_peaks[(alg, snr)], plan.paths.angles_deg, plan.match_window_deg
            )
            for p in range(plan.paths.num_paths):
                entries.append(
                    ReportEntry(
                        algorithm=alg,
                        snr_db=float(snr),
                        path_index=p,
                        rmse_deg=float(scores.rmse_deg[p]),
                        detection_rate=float(scores.detection_rate[p]),
                        trials_used=int(scores.trials_used[p]),
                    )
                )
    return RmseReport(
        truth_angles=plan.paths.angles_deg,
        snr_list=tuple(plan.snr_list),
        algorithms=tuple(plan.algorithms),
        entries=tuple(entries),
        trial_peaks=trial_peaks,
        flagged_trials=tuple(flagged_trials),
        solver_outcomes=solver_outcomes,
    )
