"""Spectral (covariance) matrix estimation and frequency smoothing.

Coherent arrivals collapse the snapshot covariance to rank 1, which starves
subspace methods. Smoothing across frequency restores rank: each bin's
covariance is mapped to a common focus frequency by a unitary transform
aligning the two steering manifolds over the search grid, then the mapped
matrices are averaged. The unitary (orthogonal Procrustes) choice keeps the
output Hermitian positive semidefinite and leaves noise statistics intact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import AngleGrid, ArrayGeometry, build_dictionary
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


@dataclass(frozen=True)
class SpectralMatrix:
    """Hermitian positive-semidefinite covariance estimate."""

    matrix: np.ndarray
    num_snapshots: int
    frequency_hz: float

    def __post_init__(self):
        r = np.asarray(self.matrix)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("spectral matrix must be square")
        scale = np.linalg.norm(r)
        if scale > 0 and np.linalg.norm(r - r.conj().T) > _HERMITIAN_RTOL * scale:
            raise ValueError("spectral matrix is not Hermitian")
        eigvals = np.linalg.eigvalsh(r)
        trace = float(np.trace(r).real)
        if eigvals[0] < -_PSD_RTOL * max(trace, np.finfo(float).tiny):
            raise ValueError(
                f"spectral matrix is not positive semidefinite "
                f"(min eigenvalue {eigvals[0]:.3e})"
            )
        r = np.ascontiguousarray(r, dtype=complex)
        r.setflags(write=False)
        object.__setattr__(self, "matrix", r)

    @property
    def num_sensors(self) -> int:
        return self.matrix.shape[0]


def _hermitize(r: np.ndarray) -> np.ndarray:
    return 0.5 * (r + r.conj().T)


def estimate_spectral_matrix(snapshots: SnapshotMatrix) -> SpectralMatrix:
    """Sample covariance of the snapshots: the average of y yᴴ over columns."""
    y = snapshots.data
    r = _hermitize(y @ y.conj().T / snapshots.num_snapshots)
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

    m = bins[0].num_sensors
    acc = np.zeros((m, m), dtype=complex)
    total_snapshots = 0
    for snap in bins:
        r = estimate_spectral_matrix(snap).matrix
        if snap.frequency_hz == focus_frequency_hz:
            acc += r
        else:
            t = focusing_transform(snap.frequency_hz, focus_frequency_hz, grid, geometry)
            acc += t @ r @ t.conj().T
        total_snapshots += snap.num_snapshots
    return SpectralMatrix(
        matrix=_hermitize(acc / len(bins)),
        num_snapshots=total_snapshots,
        frequency_hz=float(focus_frequency_hz),
    )

