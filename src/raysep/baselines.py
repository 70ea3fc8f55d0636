"""Classical comparison beamformers: MUSIC and conventional (Bartlett).

Both scan the same angle grid as the sparse solvers so their outputs can be
peak-picked and scored by the common benchmark machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import AngleGrid, ArrayGeometry, build_dictionary
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
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def music_spectrum(
    spectral: SpectralMatrix,
    num_paths: int,
    grid: AngleGrid,
    geometry: ArrayGeometry,
    frequency_hz: float | None = None,
) -> PseudoSpectrum:
    """Noise-subspace scan: 1 / (projection of each steering vector).

    The value at each grid angle is the reciprocal of the steering vector's
    energy inside the noise subspace (plus a small regularizer so exact
    nulls do not overflow), normalized to unit maximum.

    Args:
        spectral: Covariance estimate; its frequency is used unless
            ``frequency_hz`` overrides it.
        num_paths: Assumed number of arrivals (signal-subspace dimension).
    """
    if frequency_hz is None:
        frequency_hz = spectral.frequency_hz
    dec = decompose(spectral, num_paths)
    noise_vecs = dec.noise_eigenvectors
    g = build_dictionary(grid, frequency_hz, geometry).matrix
    proj = noise_vecs.conj().T @ g
    denom = np.sum(np.abs(proj) ** 2, axis=0)
    eta = _MUSIC_REGULARIZER_SCALE * geometry.num_sensors
    values = 1.0 / (denom + eta)
    return PseudoSpectrum(grid=grid, values=values / np.max(values), method="music")


def cbf_spectrum(
    spectral: SpectralMatrix,
    grid: AngleGrid,
    geometry: ArrayGeometry,
    frequency_hz: float | None = None,
) -> PseudoSpectrum:
    """Conventional (Bartlett) beamformer power: gᴴ R g / M² per angle."""
    if frequency_hz is None:
        frequency_hz = spectral.frequency_hz
    g = build_dictionary(grid, frequency_hz, geometry).matrix
    quad = np.einsum("mq,mn,nq->q", g.conj(), spectral.matrix, g).real
    values = np.maximum(quad, 0.0) / geometry.num_sensors**2
    return PseudoSpectrum(grid=grid, values=values, method="cbf")
