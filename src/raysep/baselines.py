"""Classical comparison beamformers: MUSIC and conventional (Bartlett).

Both scan the steering dictionary they are given, the one the sparse
solvers use, so their outputs can be peak-picked and scored by the common
benchmark machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import AngleGrid, SteeringDictionary, _read_only_copy, _rebuilt_by_constructor
from .spectral import SpectralMatrix
from .subspace import decompose

__all__ = ["PseudoSpectrum", "music_spectrum", "cbf_spectrum"]

_MUSIC_REGULARIZER_SCALE = 1e-12


@dataclass(frozen=True, eq=False)
class PseudoSpectrum:
    """Nonnegative spectrum over an angle grid with an algorithm tag."""

    grid: AngleGrid
    values: np.ndarray
    method: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (len(self.grid),) or not np.all(np.isfinite(v)):
            raise ValueError("pseudo-spectrum must be finite and match the grid")
        if np.any(v < 0):
            raise ValueError("pseudo-spectrum values must be nonnegative")
        object.__setattr__(self, "values", _read_only_copy(v, float))

    __reduce__ = _rebuilt_by_constructor


def music_spectrum(
    spectral: SpectralMatrix, num_paths: int, dictionary: SteeringDictionary
) -> PseudoSpectrum:
    """Noise-subspace scan: 1 / (projection of each steering vector).

    The value at each column of ``dictionary`` is the reciprocal of that
    steering vector's energy inside the noise subspace (plus a small
    regularizer so exact nulls do not overflow), normalized to unit maximum.

    Args:
        spectral: Covariance estimate.
        num_paths: Assumed number of arrivals (signal-subspace dimension).
        dictionary: Steering vectors to scan, one per grid angle.
    """
    noise_vecs = decompose(spectral, num_paths).noise_eigenvectors
    proj = noise_vecs.conj().T @ dictionary.matrix
    denom = np.sum(np.abs(proj) ** 2, axis=0)
    values = 1.0 / (denom + _MUSIC_REGULARIZER_SCALE * dictionary.num_sensors)
    return PseudoSpectrum(dictionary.grid, values / np.max(values), "music")


def cbf_spectrum(spectral: SpectralMatrix, dictionary: SteeringDictionary) -> PseudoSpectrum:
    """Conventional (Bartlett) beamformer power: gᴴ R g / M² per dictionary column."""
    g = dictionary.matrix
    quad = np.einsum("mq,mn,nq->q", g.conj(), spectral.matrix, g).real
    values = np.maximum(quad, 0.0) / dictionary.num_sensors**2
    return PseudoSpectrum(dictionary.grid, values, "cbf")
