"""Spectral (covariance) matrix estimation and frequency smoothing.

Coherent arrivals collapse the snapshot covariance to rank 1, which starves
subspace methods. Smoothing across frequency restores rank: each bin's
covariance is mapped to a common focus frequency by a unitary transform
aligning the two steering manifolds over the search grid, then the mapped
matrices are averaged. The unitary (orthogonal Procrustes) choice keeps the
output Hermitian positive semidefinite and leaves noise statistics intact.

The transforms depend only on the bin frequencies, the focus, the grid and
the geometry, so ``focus_and_smooth`` computes them once per set of these
and keeps them; the per-bin work runs on (B, M, M) stacks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .arrays import AngleGrid, ArrayGeometry, _read_only_copy, _rebuilt_by_constructor, build_dictionary
from .simulate import SnapshotMatrix

__all__ = [
    "SpectralMatrix",
    "FocusingError",
    "estimate_spectral_matrix",
    "focusing_transform",
    "focus_and_smooth",
]

_HERMITIAN_RTOL = 1e-12
_PSD_RTOL = 1e-10


class FocusingError(RuntimeError):
    """Raised when a focusing transform cannot be determined reliably."""


@dataclass(frozen=True, eq=False)
class SpectralMatrix:
    """Hermitian positive-semidefinite covariance estimate.

    The matrix keeps a private read-only copy of ``matrix``.
    """

    matrix: np.ndarray
    num_snapshots: int
    frequency_hz: float

    def __post_init__(self):
        r = np.asarray(self.matrix)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("spectral matrix must be square")
        _check_hermitian_psd(r)
        object.__setattr__(self, "matrix", _read_only_copy(r, complex))

    __reduce__ = _rebuilt_by_constructor

    @property
    def num_sensors(self) -> int:
        return self.matrix.shape[0]


def _check_hermitian_psd(r: np.ndarray) -> None:
    """Raise ValueError unless the (M, M) matrix ``r`` is Hermitian PSD.

    The Hermitian defect is judged against the Frobenius norm, the lowest
    eigenvalue against the trace.
    """
    scale = np.linalg.norm(r)
    if scale > 0 and np.linalg.norm(r - r.conj().T) > _HERMITIAN_RTOL * scale:
        raise ValueError("spectral matrix is not Hermitian")
    lowest = np.linalg.eigvalsh(r)[0]
    if lowest < -_PSD_RTOL * max(np.trace(r).real, np.finfo(float).tiny):
        raise ValueError(
            f"spectral matrix is not positive semidefinite (min eigenvalue {lowest:.3e})"
        )


def _hermitize(r: np.ndarray) -> np.ndarray:
    """The Hermitian part of a matrix or of each matrix of a stack."""
    return 0.5 * (r + r.conj().swapaxes(-1, -2))


def _sample_covariance(snapshots: SnapshotMatrix) -> np.ndarray:
    """The average of y yᴴ over the snapshot columns, before hermitizing."""
    y = snapshots.data
    return y @ y.conj().T / snapshots.num_snapshots


def estimate_spectral_matrix(snapshots: SnapshotMatrix) -> SpectralMatrix:
    """Sample covariance of the snapshots: the average of y yᴴ over columns."""
    r = _hermitize(_sample_covariance(snapshots))
    return SpectralMatrix(
        matrix=r,
        num_snapshots=snapshots.num_snapshots,
        frequency_hz=snapshots.frequency_hz,
    )


def focusing_transform(
    from_frequency_hz: float,
    to_frequency_hz: float,
    grid: AngleGrid,
    geometry: ArrayGeometry,
) -> np.ndarray:
    """Unitary matrix mapping steering vectors at one frequency onto another.

    Solves the orthogonal Procrustes problem min ||T G_from - G_to||_F over
    unitary T, where both dictionaries are evaluated on ``grid``; the
    solution is U Vᴴ from the SVD of G_to G_fromᴴ.

    Raises:
        FocusingError: If the cross dictionary is numerically rank deficient.
    """
    g_from = build_dictionary(grid, from_frequency_hz, geometry).matrix
    g_to = build_dictionary(grid, to_frequency_hz, geometry).matrix
    cross = g_to @ g_from.conj().T
    u, s, vh = np.linalg.svd(cross)
    if s[-1] <= s[0] * np.finfo(float).eps * max(cross.shape):
        cond = np.inf if s[-1] == 0 else s[0] / s[-1]
        raise FocusingError(
            f"singular focusing fit from {from_frequency_hz} Hz to "
            f"{to_frequency_hz} Hz (condition number {cond:.3e}); "
            "widen the grid or reduce the frequency offset"
        )
    return u @ vh


# Focusing transforms depend only on the bin frequencies, the focus, the
# grid and the geometry, which a Monte-Carlo plan fixes for all of its
# cells; the cache holds the last few sets, keyed by value (an AngleGrid
# hashes and compares by its angles, an ArrayGeometry by its fields).
@functools.lru_cache(maxsize=8)
def _focusing_stacks(
    freqs: tuple, focus_frequency_hz: float, grid: AngleGrid, geometry: ArrayGeometry
) -> tuple:
    """Read-only stacks T and Tᴴ, shape (B, M, M), mapping each of ``freqs`` to the focus.

    A miss calls ``focusing_transform`` once per frequency; two threads that
    miss at once both compute the same stacks. A FocusingError propagates
    and is not cached, so the next call raises again. Tᴴ is the
    conjugate-transpose view of a contiguous conjugate, laid out as
    ``t.conj().T`` is for one bin.
    """
    t = np.stack([focusing_transform(f, focus_frequency_hz, grid, geometry) for f in freqs])
    t_conj = t.conj()
    t.setflags(write=False)
    t_conj.setflags(write=False)
    return t, t_conj.swapaxes(-1, -2)


def focus_and_smooth(
    bins: list[SnapshotMatrix],
    focus_frequency_hz: float | None,
    grid: AngleGrid,
    geometry: ArrayGeometry,
) -> SpectralMatrix:
    """Average the per-bin covariances after focusing each to one frequency.

    Args:
        bins: Snapshot matrices, one per frequency bin.
        focus_frequency_hz: Common frequency; defaults to the band center
            (mean of the lowest and highest bin frequencies).
        grid: Angle grid over which steering manifolds are aligned.
        geometry: Array description.

    Returns:
        SpectralMatrix at the focus frequency. The snapshot count records
        the total number of snapshots entering the average.
    """
    if len(bins) == 0:
        raise ValueError("need at least one frequency bin")
    freqs = [b.frequency_hz for b in bins]
    if focus_frequency_hz is None:
        focus_frequency_hz = 0.5 * (min(freqs) + max(freqs))

    # Per-bin covariances, written into one stack without stacking the data.
    m = bins[0].num_sensors
    r = np.empty((len(bins), m, m), dtype=complex)
    for k, snap in enumerate(bins):
        r[k] = _sample_covariance(snap)
    r = _hermitize(r)

    # A bin at the focus frequency enters unmapped, so it stays exact.
    off = [k for k, f in enumerate(freqs) if f != focus_frequency_hz]
    if off:
        t, t_h = _focusing_stacks(
            tuple(freqs[k] for k in off), float(focus_frequency_hz), grid, geometry
        )
        r[off] = t @ r[off] @ t_h

    acc = np.zeros((m, m), dtype=complex)
    for rk in r:  # in bin order
        acc += rk
    return SpectralMatrix(
        matrix=_hermitize(acc / len(bins)),
        num_snapshots=sum(snap.num_snapshots for snap in bins),
        frequency_hz=float(focus_frequency_hz),
    )
