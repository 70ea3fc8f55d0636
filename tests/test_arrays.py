import copy
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from raysep import (
    AngleGrid,
    ArrayGeometry,
    RaypathSet,
    SteeringDictionary,
    build_dictionary,
    default_grid,
    steering_vector,
)


def table_geometry():
    # 11 sensors, 2.5 m spacing, 1500 m/s: spacing is 2.5 wavelengths at 1500 Hz
    return ArrayGeometry(num_sensors=11, spacing_m=2.5, sound_speed_mps=1500.0)


def test_zero_angle_gives_all_ones():
    g = steering_vector(0.0, 4321.0, table_geometry())
    assert_array_equal(g, np.ones(11, dtype=complex))


def test_second_sensor_phase_at_30_degrees():
    # phase = -2*pi*2.5*sin(30deg) = -2.5*pi, i.e. exp(-0.5j*pi) = -1j
    g = steering_vector(30.0, 1500.0, table_geometry())
    assert_allclose(g[1], -1j, atol=1e-12)


def test_two_sensor_endfire():
    geom = ArrayGeometry(num_sensors=2, spacing_m=0.5, sound_speed_mps=1500.0)
    g = steering_vector(90.0, 1500.0, geom)
    assert_allclose(g, [1.0, -1.0], atol=1e-12)


def test_reference_sensor_is_one():
    geom = ArrayGeometry(num_sensors=5, spacing_m=0.7, reference_index=2)
    g = steering_vector(41.0, 987.0, geom)
    assert g[2] == 1.0 + 0.0j


def test_conjugate_symmetry():
    geom = table_geometry()
    for angle in (3.7, 22.2, 61.0):
        assert_allclose(
            steering_vector(-angle, 1500.0, geom),
            steering_vector(angle, 1500.0, geom).conj(),
            atol=1e-14,
        )


def test_angle_and_frequency_validation():
    geom = table_geometry()
    with pytest.raises(ValueError):
        steering_vector(90.5, 1500.0, geom)
    with pytest.raises(ValueError):
        steering_vector(10.0, 0.0, geom)
    with pytest.raises(ValueError):
        steering_vector(10.0, -3.0, geom)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(num_sensors=1, spacing_m=0.5)
    with pytest.raises(ValueError):
        ArrayGeometry(num_sensors=4, spacing_m=-1.0)
    with pytest.raises(ValueError):
        ArrayGeometry(num_sensors=4, spacing_m=0.5, sound_speed_mps=0.0)
    with pytest.raises(ValueError):
        ArrayGeometry(num_sensors=4, spacing_m=0.5, reference_index=4)


def test_dictionary_columns_match_steering_vectors_exactly():
    geom = table_geometry()
    grid = AngleGrid.uniform(-10.0, 10.0, 0.2)
    d = build_dictionary(grid, 1500.0, geom)
    for q in (0, 17, 50, 100):
        assert_array_equal(d.matrix[:, q], steering_vector(grid.angles_deg[q], 1500.0, geom))


def test_dictionary_center_column_all_ones():
    grid = AngleGrid(np.array([-10.0, 0.0, 10.0]))
    geom = ArrayGeometry(num_sensors=2, spacing_m=0.5)
    d = build_dictionary(grid, 1500.0, geom)
    assert_array_equal(d.matrix[:, 1], np.ones(2, dtype=complex))


def test_default_grid_shape_and_modulus():
    geom = table_geometry()
    grid = default_grid()
    assert len(grid) == 901
    d = build_dictionary(grid, 1500.0, geom)
    assert d.matrix.shape == (11, 901)
    assert np.max(np.abs(np.abs(d.matrix) - 1.0)) < 1e-12


def test_vandermonde_row_ratio_constant():
    geom = table_geometry()
    d = build_dictionary(default_grid(), 1500.0, geom)
    ratios = d.matrix[1:, :] / d.matrix[:-1, :]
    assert np.max(np.abs(ratios - ratios[0])) < 1e-10


def test_grid_validation():
    with pytest.raises(ValueError):
        AngleGrid(np.array([0.0, 0.0, 1.0]))  # not strictly increasing
    with pytest.raises(ValueError):
        AngleGrid(np.array([-91.0, 0.0]))
    with pytest.raises(ValueError):
        AngleGrid.uniform(0.0, 10.0, -0.5)
    grid = AngleGrid.uniform(-90.0, 90.0, 0.2)
    assert grid.angles_deg[0] == -90.0
    assert grid.angles_deg[-1] == 90.0
    assert grid.resolution_deg == pytest.approx(0.2, abs=1e-12)


def test_dictionary_requires_overcomplete_grid():
    geom = table_geometry()
    with pytest.raises(ValueError):
        build_dictionary(AngleGrid(np.linspace(-5, 5, 11)), 1500.0, geom)


def test_raypath_set_validation():
    with pytest.raises(ValueError):
        RaypathSet([1.0, 1.0], [1.0, 1.0], [0.0, 0.0])  # duplicate angles
    with pytest.raises(ValueError):
        RaypathSet([1.0, 2.0], [1.0], [0.0, 0.0])  # length mismatch
    paths = RaypathSet([1.0, 2.0], [1.0, -1.0], [0.0, 0.001])
    assert paths.num_paths == 2


def assert_private_and_immutable(kept: np.ndarray, source: np.ndarray):
    """``kept`` shares no memory with ``source``, and nothing makes it writable."""
    assert not np.shares_memory(kept, source)
    base = kept
    while isinstance(base, np.ndarray):
        with pytest.raises(ValueError):
            base.setflags(write=True)
        base = base.base


def test_value_types_keep_private_read_only_copies():
    angles = np.linspace(-10.0, 10.0, 21)
    grid = AngleGrid(angles)
    matrix = np.exp(1j * np.outer(np.arange(3), np.arange(21.0)))
    dictionary = SteeringDictionary(frequency_hz=1500.0, matrix=matrix, grid=grid)
    path_angles, amps, delays = np.array([-3.0, 4.0]), np.array([1.0, 0.5j]), np.array([0.1, 0.2])
    paths = RaypathSet(path_angles, amps, delays)
    pairs = [
        (grid.angles_deg, angles),
        (dictionary.matrix, matrix),
        (paths.angles_deg, path_angles),
        (paths.amplitudes, amps),
        (paths.delays_s, delays),
    ]
    for kept, source in pairs:
        before = kept.copy()
        assert_private_and_immutable(kept, source)
        source.setflags(write=True)
        source[0] = -9.99
        assert_array_equal(kept, before)


def test_angle_grid_compares_and_hashes_by_its_angles():
    grid = AngleGrid.uniform(-10.0, 10.0, 0.2)
    for twin in (copy.deepcopy(grid), copy.copy(grid), pickle.loads(pickle.dumps(grid)),
                 AngleGrid(np.array(grid.angles_deg))):
        assert twin == grid and not twin != grid
        assert hash(twin) == hash(grid)
    assert grid != AngleGrid.uniform(-9.9, 10.1, 0.2)
    assert grid != AngleGrid.uniform(-10.0, 10.0, 0.5)
    assert grid != grid.angles_deg.tolist()
    assert len({grid, copy.deepcopy(grid), AngleGrid.uniform(-10.0, 10.0, 0.5)}) == 2
