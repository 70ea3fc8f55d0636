import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from raysep import (
    LiftedSystem,
    SpectralMatrix,
    build_dictionary,
    build_lifted_system,
    decompose,
    lift_dictionary,
    split_interference,
    steering_vector,
    vectorize_signal_subspace,
)
from raysep.arrays import AngleGrid, ArrayGeometry

from conftest import random_hermitian_psd


def test_identity_covariance_degenerate_spectrum():
    dec = decompose(np.eye(4, dtype=complex), 1)
    assert_allclose(dec.eigenvalues, np.ones(4))
    assert_allclose(np.trace(dec.signal_matrix).real, 1.0, atol=1e-12)
    # signal matrix is a rank-one projector scaled by the eigenvalue
    assert_allclose(dec.signal_matrix @ dec.signal_matrix, dec.signal_matrix, atol=1e-12)


def test_noise_free_incoherent_pair_reconstructs_exactly():
    geom = ArrayGeometry(num_sensors=6, spacing_m=0.5)
    g1 = steering_vector(-20.0, 1500.0, geom)
    g2 = steering_vector(35.0, 1500.0, geom)
    r = np.outer(g1, g1.conj()) + np.outer(g2, g2.conj())
    dec = decompose(r, 2)
    assert_allclose(dec.signal_matrix, r, atol=1e-10)
    assert np.all(np.abs(dec.eigenvalues[2:]) < 1e-10 * dec.eigenvalues[0])


def test_eigen_reconstruction_on_random_psd():
    rng = np.random.default_rng(11)
    for _ in range(25):
        r = random_hermitian_psd(rng, 11)
        dec = decompose(r, 4)
        err = np.linalg.norm(dec.signal_matrix + dec.noise_matrix - r) / np.linalg.norm(r)
        assert err < 1e-10
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12 * abs(dec.eigenvalues[0]))
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(11))) < 1e-10


def test_eigenvalues_match_characteristic_polynomial_at_m3():
    rng = np.random.default_rng(12)
    for _ in range(20):
        r = random_hermitian_psd(rng, 3)
        dec = decompose(r, 1)
        # characteristic polynomial coefficients of a 3x3 Hermitian matrix
        tr = np.trace(r).real
        minors = (
            np.linalg.det(r[np.ix_([0, 1], [0, 1])])
            + np.linalg.det(r[np.ix_([0, 2], [0, 2])])
            + np.linalg.det(r[np.ix_([1, 2], [1, 2])])
        ).real
        det = np.linalg.det(r).real
        roots = np.sort(np.roots([1.0, -tr, minors, -det]).real)[::-1]
        assert_allclose(dec.eigenvalues, roots, atol=1e-10 * max(1.0, tr))


def test_decompose_validation():
    r = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        decompose(r, 4)
    with pytest.raises(ValueError):
        decompose(r, 0)
    skew = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        decompose(skew, 1)


def test_vectorize_is_row_major_and_invertible():
    from raysep import SubspaceDecomposition

    m = np.array([[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]])
    dec = SubspaceDecomposition(
        eigenvalues=np.array([1.0, 0.0]),
        eigenvectors=np.eye(2, dtype=complex),
        num_paths=1,
        signal_matrix=m,
    )
    v = vectorize_signal_subspace(dec)
    assert_array_equal(v, np.array([1 + 2j, 3 + 4j, 5 + 6j, 7 + 8j]))
    assert_array_equal(v.reshape(2, 2), m)


def test_vectorize_hermitian_symmetry():
    rng = np.random.default_rng(13)
    r = random_hermitian_psd(rng, 5)
    dec = decompose(r, 2)
    v = vectorize_signal_subspace(dec)
    m = 5
    for i in range(m):
        for j in range(m):
            assert v[i * m + j] == pytest.approx(np.conj(v[j * m + i]), abs=1e-14)


def lifted_fixture():
    geom = ArrayGeometry(num_sensors=11, spacing_m=0.5)
    grid = AngleGrid.uniform(-90.0, 90.0, 1.0)
    return geom, grid, build_dictionary(grid, 1500.0, geom)


def test_lift_matches_outer_product_oracle():
    _, grid, d = lifted_fixture()
    lifted = lift_dictionary(d)
    rng = np.random.default_rng(14)
    for q in rng.integers(0, len(grid), 50):
        gq = d.matrix[:, q]
        assert np.max(np.abs(lifted[:, q] - np.outer(gq, gq.conj()).reshape(-1))) < 1e-14


def test_lift_unit_modulus_and_equal_pair_rows():
    _, _, d = lifted_fixture()
    lifted = lift_dictionary(d)
    assert np.max(np.abs(np.abs(lifted) - 1.0)) < 1e-12
    m = d.num_sensors
    diag_rows = [i * m + i for i in range(m)]
    assert_allclose(lifted[diag_rows, :], 1.0, atol=1e-12)


def test_lift_hand_example_two_sensors():
    geom = ArrayGeometry(num_sensors=2, spacing_m=0.5)
    grid = AngleGrid(np.array([-30.0, 0.0, 30.0]))
    d = build_dictionary(grid, 1500.0, geom)
    lifted = lift_dictionary(d)
    assert_allclose(lifted[:, 1], np.ones(4), atol=1e-12)
    g = d.matrix[:, 2]
    expected = np.array([1.0, g[0] * np.conj(g[1]), g[1] * np.conj(g[0]), 1.0])
    assert_allclose(lifted[:, 2], expected, atol=1e-14)


def test_single_path_lift_consistency():
    geom, grid, d = lifted_fixture()
    qstar = 77
    power = 2.5
    g = d.matrix[:, qstar]
    r = SpectralMatrix(power * np.outer(g, g.conj()), 1, 1500.0)
    dec = decompose(r, 1)
    lifted = build_lifted_system(dec, d)
    assert_allclose(lifted.vector, power * lifted.matrix[:, qstar], atol=1e-9 * power)


def test_lifted_system_arrays_stay_read_only_and_private():
    _, grid, d = lifted_fixture()
    vector, matrix = np.ones(d.num_sensors**2, dtype=complex), lift_dictionary(d)
    lifted = LiftedSystem(vector, matrix, grid)
    for system in (lifted, lifted._with_vector(vector)):
        for arr in (system.vector, system.matrix):
            with pytest.raises(ValueError):
                arr.setflags(write=True)
        assert not np.shares_memory(system.vector, vector)
        assert not np.shares_memory(system.matrix, matrix)
    with pytest.raises(ValueError, match="len\\(vector\\)"):
        lifted._with_vector(np.ones(5))


def test_lifted_system_arrays_lie_on_buffers_that_stay_immutable():
    import raysep.solvers as S

    _, grid, d = lifted_fixture()
    matrix = lift_dictionary(d)
    vector = matrix[:, [40, 47]] @ np.array([1.0, 0.5]) + 0.01 * matrix[:, 90]
    lifted = LiftedSystem(vector, matrix, grid)
    for system in (lifted, lifted._with_vector(vector)):
        for arr in (system.vector, system.matrix):
            assert arr.flags.c_contiguous and arr.flags.aligned
            base = arr
            while isinstance(base, np.ndarray):
                with pytest.raises(ValueError):
                    base.setflags(write=True)
                base = base.base
            assert isinstance(base, bytes)
    # solves on the immutable buffers match solves on ordinary numpy arrays
    bound = 0.05 * float(np.linalg.norm(vector))
    spec = S.subspace_cs(lifted, S.SolverConfig(residual_bound=bound))
    plain_matrix = np.array(lifted.matrix)
    plain_vector = np.array(lifted.vector)
    assert plain_matrix.flags.writeable and plain_matrix.base is None
    log = S._SearchLog()
    want = S._nonneg_path(plain_matrix, plain_vector, bound, log, S._PathMemo(plain_matrix))
    assert_array_equal(spec.values, want.x)
    assert spec.residual == want.residual
    assert_array_equal(spec.objective_history, want.objective_history)
    assert (spec.iterations, spec.inner_solves, spec.peak_support) == (
        log.iterations, log.inner_solves, log.peak_support
    )


def test_random_lifted_column_subsets_independent():
    _, grid, d = lifted_fixture()
    lifted = lift_dictionary(d)
    rng = np.random.default_rng(15)
    for p in (1, 2, 3):
        for _ in range(20):
            cols = rng.choice(len(grid), size=2 * p, replace=False)
            s = np.linalg.svd(lifted[:, cols], compute_uv=False)
            assert s[-1] > 1e-8


def test_split_interference_incoherent_diagonal_only():
    _, _, d = lifted_fixture()
    powers = np.zeros(len(d.grid))
    powers[[40, 120]] = [1.0, 2.0]
    auto, cross = split_interference(d, np.diag(powers).astype(complex))
    assert np.max(np.abs(cross)) == 0.0
    g = d.matrix
    expected = (g * powers) @ g.conj().T
    assert_allclose(auto, expected, atol=1e-12)


def test_split_interference_additivity_and_coherent_cross():
    rng = np.random.default_rng(16)
    geom = ArrayGeometry(num_sensors=4, spacing_m=0.5)
    grid = AngleGrid.uniform(-60.0, 60.0, 10.0)
    d = build_dictionary(grid, 1500.0, geom)
    s = np.zeros(len(grid), dtype=complex)
    support = rng.choice(len(grid), size=2, replace=False)
    s[support] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    auto, cross = split_interference(d, s)
    full = d.matrix @ np.outer(s, s.conj()) @ d.matrix.conj().T
    assert np.max(np.abs(auto + cross - full)) < 1e-12 * np.max(np.abs(full))
    # equal-amplitude coherent pair: cross term carries the off-diagonal energy
    s2 = np.zeros(len(grid), dtype=complex)
    s2[support] = 1.0
    auto2, cross2 = split_interference(d, s2)
    g1, g2 = d.matrix[:, support[0]], d.matrix[:, support[1]]
    brute = np.outer(g1, g2.conj()) + np.outer(g2, g1.conj())
    assert_allclose(cross2, brute, atol=1e-12)
