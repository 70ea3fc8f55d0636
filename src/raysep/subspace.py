"""Signal-subspace extraction and covariance lifting.

The covariance estimate is split by eigendecomposition into a signal part
(largest ``num_paths`` eigenpairs) and a noise part. Row-stacking the signal
part into a length-M^2 vector turns the quadratic steering model into a
linear one: the vector is (up to path cross terms) a nonnegative combination
of lifted dictionary columns, each the row-stacked outer product of a
steering vector with itself. Sparse recovery on that lifted system is what
separates arrivals closer than the classical resolution limit.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .arrays import AngleGrid, SteeringDictionary
from .spectral import SpectralMatrix

__all__ = [
    "SubspaceDecomposition",
    "LiftedSystem",
    "decompose",
    "vectorize_signal_subspace",
    "lift_dictionary",
    "build_lifted_system",
    "split_interference",
]


@dataclass(frozen=True)
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


# Lifted matrices the library holds read-only, by id. Only these are shared
# between lifted systems, so whatever is computed from one of them (the
# nonnegative path's memo in ``raysep.solvers``) stays valid while it lives.
_owned_lifts: dict = {}


def _own(fresh: np.ndarray) -> np.ndarray:
    """A read-only view of ``fresh``, registered as owned.

    ``fresh`` owns its data and nothing else refers to it. The view cannot
    be made writable again, since its base is read-only.
    """
    fresh.setflags(write=False)
    view = fresh.view()
    key = id(view)
    _owned_lifts[key] = weakref.ref(view, lambda _, key=key: _owned_lifts.pop(key, None))
    return view


def _owns_lift(matrix) -> bool:
    """Whether ``matrix`` is a lifted matrix the library made and holds read-only."""
    ref = _owned_lifts.get(id(matrix))
    return ref is not None and ref() is matrix


def _owned_lift(dictionary: SteeringDictionary) -> np.ndarray:
    """``lift_dictionary``, read-only and owned, to share between lifted systems."""
    return _own(lift_dictionary(dictionary))


@dataclass(frozen=True)
class LiftedSystem:
    """Vectorized signal subspace paired with the lifted dictionary.

    A lifted matrix the library made (``build_lifted_system``, or the
    ``matrix`` of another lifted system) is shared as it is; any other array
    is copied once, so later changes to the caller's array never reach the
    system.
    """

    vector: np.ndarray
    matrix: np.ndarray
    grid: AngleGrid

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex).reshape(-1)
        g = self.matrix
        if not _owns_lift(g):
            g = _own(np.array(g, dtype=complex, order="C"))
        if g.ndim != 2 or g.shape[0] != v.size or g.shape[1] != len(self.grid):
            raise ValueError("lifted matrix must be len(vector) x grid size")
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)
        object.__setattr__(self, "matrix", g)


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
        matrix=_owned_lift(dictionary),
        grid=dictionary.grid,
    )


def split_interference(
    dictionary: SteeringDictionary, sparse_signal: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Split G C Gᴴ into auto-term and cross-term matrices.

    ``sparse_signal`` is either a length-Q signal vector (its outer product
    supplies C) or a Q x Q signal covariance. The auto term uses only the
    diagonal of C, the cross term only the off-diagonal part; the two add
    back to the full product. Diagnostic tool for quantifying the
    interference that path correlations inject into the covariance.
    """
    g = dictionary.matrix
    s = np.asarray(sparse_signal, dtype=complex)
    if s.ndim == 1:
        c = np.outer(s, s.conj())
    elif s.ndim == 2 and s.shape[0] == s.shape[1]:
        c = s
    else:
        raise ValueError("sparse_signal must be a length-Q vector or Q x Q matrix")
    if c.shape[0] != g.shape[1]:
        raise ValueError("signal dimension must match the dictionary grid size")

    diag = np.diag(c)
    auto = (g * diag) @ g.conj().T
    cross = g @ (c - np.diag(diag)) @ g.conj().T
    return auto, cross
