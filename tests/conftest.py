import numpy as np
import pytest

from raysep import AngleGrid, ArrayGeometry, RaypathSet, build_dictionary


@pytest.fixture
def half_wave_geometry():
    """11 sensors at half-wavelength spacing for 1500 Hz in 1500 m/s water."""
    return ArrayGeometry(num_sensors=11, spacing_m=0.5, sound_speed_mps=1500.0)


@pytest.fixture
def coarse_grid():
    """Alias-free 1-degree grid; adjacent columns stay well separated."""
    return AngleGrid.uniform(-90.0, 90.0, 1.0)


@pytest.fixture
def five_path_fan():
    """Table-1 style eigenray fan with unequal delays and surface-bounce signs."""
    return RaypathSet(
        [-4.3, -1.4, 0.9, 2.9, 5.7],
        [1.0, -1.0, 1.0, -1.0, 1.0],
        [1.3346, 1.3352, 1.3347, 1.3361, 1.3370],
    )


@pytest.fixture
def coarse_dictionary(half_wave_geometry, coarse_grid):
    return build_dictionary(coarse_grid, 1500.0, half_wave_geometry)


def random_hermitian_psd(rng: np.random.Generator, size: int) -> np.ndarray:
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return a @ a.conj().T / size
