"""Array geometry, angle grids, steering vectors and the over-complete dictionary.

Everything downstream (simulation, covariance focusing, sparse solvers,
classical beamformers) shares the plane-wave steering model defined here:
a uniform vertical line array of ``num_sensors`` elements with spacing
``spacing_m``, observing narrowband arrivals whose phase across the array
is set by the sine of the arrival angle. Angles are degrees at every API
boundary and are converted to radians internally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrayGeometry",
    "AngleGrid",
    "SteeringDictionary",
    "RaypathSet",
    "steering_vector",
    "build_dictionary",
    "default_grid",
]


def _read_only_copy(values, dtype) -> np.ndarray:
    """A private C-contiguous copy of ``values`` that can never be made writable.

    The copy lies on an immutable ``bytes`` buffer that nothing else refers
    to, so neither it nor its base accepts ``setflags(write=True)``.
    """
    arr = np.asarray(values, dtype=dtype)
    return np.frombuffer(arr.tobytes(), dtype=dtype).reshape(arr.shape)


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform vertical line array.

    Args:
        num_sensors: Number of array elements (at least 2).
        spacing_m: Distance between adjacent sensors in meters.
        sound_speed_mps: Propagation speed in meters/second.
        reference_index: Index of the sensor whose phase is taken as zero.
    """

    num_sensors: int
    spacing_m: float
    sound_speed_mps: float = 1500.0
    reference_index: int = 0

    def __post_init__(self):
        if self.num_sensors < 2:
            raise ValueError(f"num_sensors must be >= 2, got {self.num_sensors}")
        if self.spacing_m <= 0:
            raise ValueError(f"spacing_m must be positive, got {self.spacing_m}")
        if self.sound_speed_mps <= 0:
            raise ValueError(
                f"sound_speed_mps must be positive, got {self.sound_speed_mps}"
            )
        if not 0 <= self.reference_index < self.num_sensors:
            raise ValueError(
                f"reference_index must lie in [0, {self.num_sensors}), "
                f"got {self.reference_index}"
            )

    def wavelength_m(self, frequency_hz: float) -> float:
        return self.sound_speed_mps / frequency_hz


@dataclass(frozen=True)
class AngleGrid:
    """Strictly increasing grid of candidate arrival angles in degrees.

    The grid keeps a private read-only copy of the angles. Two grids are
    equal, and hash alike, when their angles are the same bytes.
    """

    angles_deg: np.ndarray

    def __post_init__(self):
        angles = np.asarray(self.angles_deg, dtype=float)
        if angles.ndim != 1 or angles.size < 2:
            raise ValueError("angle grid must be a 1-D array with at least 2 points")
        if np.any(angles < -90.0) or np.any(angles > 90.0):
            raise ValueError("grid angles must lie in [-90, 90] degrees")
        if np.any(np.diff(angles) <= 0):
            raise ValueError("grid angles must be strictly increasing")
        object.__setattr__(self, "angles_deg", _read_only_copy(angles, float))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AngleGrid):
            return NotImplemented
        return self.angles_deg.tobytes() == other.angles_deg.tobytes()

    def __hash__(self) -> int:
        return hash(self.angles_deg.tobytes())

    @classmethod
    def uniform(cls, start_deg: float, stop_deg: float, step_deg: float) -> "AngleGrid":
        """Uniform grid from start to stop inclusive with the given step."""
        if step_deg <= 0:
            raise ValueError(f"step_deg must be positive, got {step_deg}")
        count = int(round((stop_deg - start_deg) / step_deg)) + 1
        return cls(np.linspace(start_deg, stop_deg, count))

    def __len__(self) -> int:
        return self.angles_deg.size

    @property
    def resolution_deg(self) -> float:
        """Smallest spacing between adjacent grid points."""
        return float(np.min(np.diff(self.angles_deg)))

    def nearest_index(self, angle_deg: float) -> int:
        return int(np.argmin(np.abs(self.angles_deg - angle_deg)))


def default_grid() -> AngleGrid:
    """Library default: [-90, 90] degrees in 0.2-degree steps (901 points)."""
    return AngleGrid.uniform(-90.0, 90.0, 0.2)


@dataclass(frozen=True)
class SteeringDictionary:
    """Over-complete dictionary of steering vectors over an angle grid.

    ``matrix`` has one unit-modulus column per grid angle; the row of the
    reference sensor is all ones. The dictionary keeps a private read-only
    copy of it.
    """

    frequency_hz: float
    matrix: np.ndarray
    grid: AngleGrid

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[1] != len(self.grid):
            raise ValueError("dictionary matrix must be num_sensors x grid size")
        object.__setattr__(self, "matrix", _read_only_copy(m, complex))

    @property
    def num_sensors(self) -> int:
        return self.matrix.shape[0]

    def column(self, q: int) -> np.ndarray:
        return self.matrix[:, q]


@dataclass(frozen=True)
class RaypathSet:
    """Ground-truth arrivals: angle, complex amplitude and reference-sensor delay.

    The set keeps private read-only copies of the three arrays.
    """

    angles_deg: np.ndarray
    amplitudes: np.ndarray
    delays_s: np.ndarray

    def __post_init__(self):
        angles = np.atleast_1d(np.asarray(self.angles_deg, dtype=float))
        amps = np.atleast_1d(np.asarray(self.amplitudes, dtype=complex))
        delays = np.atleast_1d(np.asarray(self.delays_s, dtype=float))
        if not (angles.shape == amps.shape == delays.shape) or angles.ndim != 1:
            raise ValueError("angles, amplitudes and delays must be equal-length 1-D")
        if angles.size < 1:
            raise ValueError("a raypath set needs at least one path")
        if np.unique(angles).size != angles.size:
            raise ValueError("raypath angles must be pairwise distinct")
        for name, arr in (("angles_deg", angles), ("amplitudes", amps), ("delays_s", delays)):
            object.__setattr__(self, name, _read_only_copy(arr, arr.dtype))

    @property
    def num_paths(self) -> int:
        return self.angles_deg.size


def _plane_wave_phase(angle_deg, frequency_hz, geometry: ArrayGeometry):
    """Phase step between adjacent sensors, in radians, for a plane wave.

    ``-2*pi * frequency_hz * spacing_m * sin(angle) / sound_speed``; sensor
    m carries ``m - reference_index`` steps. Angles and frequencies
    broadcast against each other, and every element is computed with the
    same operations in the same order as for scalar arguments, so a
    broadcast over bins and paths reproduces the per-vector values bit for
    bit. No range checks: callers validate their inputs.
    """
    return (
        -2.0
        * np.pi
        * frequency_hz
        * geometry.spacing_m
        * np.sin(np.deg2rad(angle_deg))
        / geometry.sound_speed_mps
    )


def steering_vector(
    angle_deg: float, frequency_hz: float, geometry: ArrayGeometry
) -> np.ndarray:
    """Unit-modulus array response to a plane wave from ``angle_deg``.

    Element m carries the phase
    ``exp(-1j * 2*pi * frequency_hz * (m - reference_index) * spacing_m
    * sin(angle) / sound_speed)``, so the reference sensor is exactly 1.

    Args:
        angle_deg: Arrival angle in degrees, within [-90, 90].
        frequency_hz: Signal frequency in hertz, positive.
        geometry: Array description.

    Returns:
        Complex vector of length ``geometry.num_sensors``.

    Raises:
        ValueError: If the angle is out of range or the frequency nonpositive.
    """
    if not -90.0 <= angle_deg <= 90.0:
        raise ValueError(f"angle_deg must lie in [-90, 90], got {angle_deg}")
    if frequency_hz <= 0:
        raise ValueError(f"frequency_hz must be positive, got {frequency_hz}")
    m = np.arange(geometry.num_sensors) - geometry.reference_index
    return np.exp(1j * _plane_wave_phase(angle_deg, frequency_hz, geometry) * m)


def build_dictionary(
    grid: AngleGrid, frequency_hz: float, geometry: ArrayGeometry
) -> SteeringDictionary:
    """Assemble the over-complete steering dictionary over ``grid``.

    Column q equals ``steering_vector(grid.angles_deg[q])``; consecutive rows
    of any column differ by a constant ratio (Vandermonde structure in the
    per-sensor phase factor).

    Raises:
        ValueError: If the grid is not larger than the sensor count.
    """
    if len(grid) <= geometry.num_sensors:
        raise ValueError(
            f"grid size {len(grid)} must exceed num_sensors {geometry.num_sensors}"
        )
    m = (np.arange(geometry.num_sensors) - geometry.reference_index)[:, None]
    phase = _plane_wave_phase(grid.angles_deg[None, :], frequency_hz, geometry)
    matrix = np.exp(1j * m * phase)
    return SteeringDictionary(frequency_hz=frequency_hz, matrix=matrix, grid=grid)
