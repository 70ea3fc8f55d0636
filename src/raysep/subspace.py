"""Signal-subspace extraction and covariance lifting.

The covariance estimate is split by eigendecomposition into a signal part
(largest ``num_paths`` eigenpairs) and a noise part. Row-stacking the signal
part into a length-M^2 vector turns the quadratic steering model into a
linear one: the vector is (up to path cross terms) a nonnegative combination
of lifted dictionary columns, each the row-stacked outer product of a
steering vector with itself. Sparse recovery on that lifted system is what
separates arrivals closer than the classical resolution limit.

A ``LiftedSystem`` holds private read-only copies of its vector and matrix,
and owns what ``raysep.solvers.subspace_cs`` keeps from the matrix alone:
the nonnegative path's memo, which systems made from it by ``_with_vector``
share. A benchmark run keeps one lifted system in its frozen run state, and
each cell's record comes from a solve of that system for the cell's own
vector, so the run lifts once for all its cells. The path walk of a solve
lives only as long as that call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import AngleGrid, SteeringDictionary, _read_only_copy, _rebuilt_by_constructor
from .spectral import SpectralMatrix

__all__ = [
    "SubspaceDecomposition",
    "LiftedSystem",
    "decompose",
    "vectorize_signal_subspace",
    "lift_dictionary",
    "build_lifted_system",
]


@dataclass(frozen=True, eq=False)
class SubspaceDecomposition:
    """Eigendecomposition with a designated signal-subspace dimension.

    ``eigenvalues`` are real and descending; ``eigenvectors`` holds the
    matching orthonormal columns. ``signal_matrix`` is the rank-limited
    reconstruction from the first ``num_paths`` eigenpairs.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    num_paths: int
    signal_matrix: np.ndarray

    @property
    def noise_matrix(self) -> np.ndarray:
        """Reconstruction from the trailing eigenpairs; complements signal_matrix."""
        lam = self.eigenvalues[self.num_paths :]
        vec = self.eigenvectors[:, self.num_paths :]
        return (vec * lam) @ vec.conj().T

    @property
    def noise_eigenvectors(self) -> np.ndarray:
        return self.eigenvectors[:, self.num_paths :]


def decompose(spectral: SpectralMatrix | np.ndarray, num_paths: int) -> SubspaceDecomposition:
    """Eigendecompose a Hermitian covariance and keep the top eigenpairs.

    Args:
        spectral: SpectralMatrix or a raw Hermitian ndarray.
        num_paths: Signal-subspace dimension; must satisfy 1 <= P < M.

    Raises:
        ValueError: For an out-of-range ``num_paths`` or non-Hermitian input.
    """
    r = spectral.matrix if isinstance(spectral, SpectralMatrix) else np.asarray(spectral)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("covariance must be square")
    m = r.shape[0]
    if not 1 <= num_paths < m:
        raise ValueError(f"num_paths must satisfy 1 <= P < {m}, got {num_paths}")
    scale = np.linalg.norm(r)
    if scale > 0 and np.linalg.norm(r - r.conj().T) > 1e-10 * scale:
        raise ValueError("covariance must be Hermitian")

    lam, vec = np.linalg.eigh(r)
    lam, vec = lam[::-1].copy(), vec[:, ::-1].copy()
    signal = (vec[:, :num_paths] * lam[:num_paths]) @ vec[:, :num_paths].conj().T
    return SubspaceDecomposition(
        eigenvalues=lam,
        eigenvectors=vec,
        num_paths=num_paths,
        signal_matrix=signal,
    )


def vectorize_signal_subspace(decomposition: SubspaceDecomposition) -> np.ndarray:
    """Row-stack the signal-subspace matrix into a length-M^2 vector.

    Element ``i*M + j`` of the result is entry (i, j) of the signal matrix;
    no conjugation is applied, and reshaping back to (M, M) recovers the
    matrix bit-for-bit.
    """
    return decomposition.signal_matrix.reshape(-1)


def lift_dictionary(dictionary: SteeringDictionary) -> np.ndarray:
    """Lifted dictionary: column q is the row-stacked outer product g_q g_qᴴ.

    Returns an (M^2, Q) complex matrix with unit-modulus entries; the rows
    corresponding to equal sensor pairs (i == j) are all ones.
    """
    g = dictionary.matrix
    m, q = g.shape
    lifted = np.empty((m * m, q), dtype=complex)
    np.multiply(g[:, None, :], g.conj()[None, :, :], out=lifted.reshape(m, m, q))
    return lifted


@dataclass(frozen=True, eq=False)
class LiftedSystem:
    """Vectorized signal subspace paired with the lifted dictionary.

    The system keeps private copies of ``vector`` and ``matrix`` on
    immutable buffers, so later changes to the caller's arrays never reach
    it and nothing can make its own writable. It also owns the memo that
    ``raysep.solvers.subspace_cs`` fills from the matrix (the nonnegative
    path's Gram and passive-set solves). ``_with_vector`` gives the same
    system for another vector, sharing the matrix and the memo; the
    constructor, a copy and an unpickled system start a memo of their own.
    """

    vector: np.ndarray
    matrix: np.ndarray
    grid: AngleGrid

    def __post_init__(self):
        v = _read_only_copy(np.ravel(self.vector), complex)
        g = _read_only_copy(self.matrix, complex)
        if g.ndim != 2 or g.shape[0] != v.size or g.shape[1] != len(self.grid):
            raise ValueError("lifted matrix must be len(vector) x grid size")
        object.__setattr__(self, "vector", v)
        object.__setattr__(self, "matrix", g)
        object.__setattr__(self, "_memo", {})

    def _with_vector(self, vector) -> LiftedSystem:
        """This system for another vector; shares the matrix and the memo."""
        v = _read_only_copy(np.ravel(vector), complex)
        if v.size != self.vector.size:
            raise ValueError("lifted matrix must be len(vector) x grid size")
        other = object.__new__(LiftedSystem)
        other.__dict__.update(self.__dict__, vector=v)
        return other

    # rebuilt by the constructor: the memo holds a lock and stays behind
    __reduce__ = _rebuilt_by_constructor


def build_lifted_system(
    decomposition: SubspaceDecomposition, dictionary: SteeringDictionary
) -> LiftedSystem:
    """Combine a decomposition and dictionary into the lifted linear system."""
    m = decomposition.signal_matrix.shape[0]
    if dictionary.num_sensors != m:
        raise ValueError(
            f"dictionary has {dictionary.num_sensors} sensors, decomposition has {m}"
        )
    return LiftedSystem(
        vector=vectorize_signal_subspace(decomposition),
        matrix=lift_dictionary(dictionary),
        grid=dictionary.grid,
    )
