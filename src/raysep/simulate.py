"""Synthetic shallow-water multipath data generation.

Eigenray ground truth comes from the image method in an isovelocity
waveguide (pressure-release surface, rigid bottom): mirror images of the
source across the two boundaries give each path's arrival angle, delay and
surface-bounce sign at the reference sensor. Frequency-domain snapshots are
then drawn from the plane-wave model with circular complex white Gaussian
noise calibrated to a requested array SNR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayGeometry, RaypathSet, _plane_wave_phase, _read_only_copy, _rebuilt_by_constructor

__all__ = [
    "WaveguideScenario",
    "NoiseSpec",
    "SnapshotMatrix",
    "eigenray_angles",
    "synthesize_snapshots",
    "synthesize_broadband",
]


@dataclass(frozen=True, eq=False)
class WaveguideScenario:
    """Isovelocity waveguide geometry for eigenray generation.

    Args:
        water_depth_m: Height of the water column.
        range_m: Horizontal source-to-array distance.
        source_depth_m: Source depth, strictly inside the water column.
        receiver_depths_m: Depths of the array elements, strictly inside
            the water column.
        sound_speed_mps: Constant propagation speed.
        num_paths: Number of eigenrays to keep.

    The scenario keeps a private read-only copy of the receiver depths.
    """

    water_depth_m: float
    range_m: float
    source_depth_m: float
    receiver_depths_m: np.ndarray
    sound_speed_mps: float = 1500.0
    num_paths: int = 5

    def __post_init__(self):
        depths = np.atleast_1d(np.asarray(self.receiver_depths_m, dtype=float))
        if self.water_depth_m <= 0 or self.range_m <= 0:
            raise ValueError("water_depth_m and range_m must be positive")
        if not 0 < self.source_depth_m < self.water_depth_m:
            raise ValueError("source depth must lie strictly inside the water column")
        if np.any(depths <= 0) or np.any(depths >= self.water_depth_m):
            raise ValueError("receiver depths must lie strictly inside the water column")
        if self.num_paths < 1:
            raise ValueError("num_paths must be at least 1")
        object.__setattr__(self, "receiver_depths_m", _read_only_copy(depths, float))

    __reduce__ = _rebuilt_by_constructor

    def array_geometry(self, reference_index: int = 0) -> ArrayGeometry:
        """Derive the uniform-array geometry implied by the receiver depths."""
        steps = np.diff(self.receiver_depths_m)
        if steps.size == 0:
            raise ValueError("need at least two receivers to derive a geometry")
        if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9):
            raise ValueError("receiver depths must be uniformly increasing")
        return ArrayGeometry(
            num_sensors=self.receiver_depths_m.size,
            spacing_m=float(steps[0]),
            sound_speed_mps=self.sound_speed_mps,
            reference_index=reference_index,
        )


@dataclass(frozen=True)
class NoiseSpec:
    """Additive-noise description: nominal array SNR and RNG seed."""

    snr_db: float
    seed: int = 0


@dataclass(frozen=True, eq=False)
class SnapshotMatrix:
    """Complex frequency-domain observations, one column per snapshot.

    ``noise_power`` records the per-sample complex noise variance the
    simulator actually used (0 for noise-free data); estimators may use it
    to size residual bounds. The matrix keeps a private read-only copy of
    ``data``; the bins that ``synthesize_broadband`` returns are instead
    read-only views into blocks that only those bins refer to.
    """

    data: np.ndarray
    frequency_hz: float
    noise_power: float = 0.0

    def __post_init__(self):
        d = np.asarray(self.data)
        if d.ndim != 2 or d.shape[1] < 1:
            raise ValueError("snapshot data must be a 2-D array with >= 1 column")
        if not np.all(np.isfinite(d.view(float))):
            raise ValueError("snapshot data must be finite")
        object.__setattr__(self, "data", _read_only_copy(d, complex))

    __reduce__ = _rebuilt_by_constructor

    @classmethod
    def _of_read_only(cls, data: np.ndarray, frequency_hz: float, noise_power: float):
        """Wrap ``data`` as it is, with neither a check nor a copy.

        ``data`` must already be a finite, read-only, C-contiguous complex
        (M, L) array that nothing else writes to.
        """
        snap = object.__new__(cls)
        object.__setattr__(snap, "data", data)
        object.__setattr__(snap, "frequency_hz", frequency_hz)
        object.__setattr__(snap, "noise_power", noise_power)
        return snap

    @property
    def num_sensors(self) -> int:
        return self.data.shape[0]

    @property
    def num_snapshots(self) -> int:
        return self.data.shape[1]


# Bins per synthesis block: as many as fit in 96 KiB of complex output, and
# at least one (3 bins at M = 11, L = 150). A block and its noise draw stay
# under glibc's default 128 KiB mmap threshold, so they come from the heap
# and freeing them never raises that threshold; and a cell makes a few long
# numpy calls, which run without the interpreter lock, instead of many
# short ones per bin.
_BLOCK_BYTES = 96 * 1024

# Reflections beyond this order carry no energy worth modeling; it also
# bounds how many eigenrays a scenario can request.
_MAX_IMAGE_ORDER = 25


def _image_depths(scenario: WaveguideScenario):
    """Mirror-image source depths with surface-bounce counts.

    Images sit at ``2*k*H + zs`` (k surface and k bottom bounces) and at
    ``2*k*H - zs`` (k-1 or |k| surface bounces depending on sign of k).
    """
    h, zs = scenario.water_depth_m, scenario.source_depth_m
    images = []
    for k in range(-_MAX_IMAGE_ORDER, _MAX_IMAGE_ORDER + 1):
        images.append((2 * k * h + zs, abs(k)))
        surface = k - 1 if k >= 1 else abs(k) + 1
        images.append((2 * k * h - zs, surface))
    return images


def eigenray_angles(
    scenario: WaveguideScenario, reference_index: int = 0
) -> RaypathSet:
    """Image-method eigenrays at the reference receiver, sorted by |angle|.

    Each image at depth z contributes a path with angle
    ``atan((z_receiver - z) / range)``, delay ``path_length / c`` and unit
    amplitude with one sign flip per surface bounce. The ``num_paths``
    arrivals closest to broadside are kept.

    Raises:
        ValueError: If fewer distinct-angle images exist than requested.
    """
    zr = float(scenario.receiver_depths_m[reference_index])
    d = scenario.range_m
    images = _image_depths(scenario)

    angles, amps, delays = [], [], []
    seen = set()
    for z, surface_bounces in images:
        angle = np.degrees(np.arctan2(zr - z, d))
        key = round(angle, 12)
        if key in seen:
            continue
        seen.add(key)
        length = np.hypot(d, zr - z)
        angles.append(angle)
        amps.append((-1.0) ** surface_bounces)
        delays.append(length / scenario.sound_speed_mps)

    order = np.argsort(np.abs(angles), kind="stable")
    if scenario.num_paths > order.size:
        raise ValueError(
            f"requested {scenario.num_paths} paths but only {order.size} "
            "distinct-angle images were generated"
        )
    keep = order[: scenario.num_paths]
    return RaypathSet(
        angles_deg=np.asarray(angles)[keep],
        amplitudes=np.asarray(amps)[keep].astype(complex),
        delays_s=np.asarray(delays)[keep],
    )


def _check_signal(
    band_hz: tuple[float, float], num_bins: int, num_snapshots: int, coherence: str | float
) -> np.ndarray:
    """The bin frequencies of a signal's settings, once they are checked.

    Raises:
        ValueError: Naming the first setting that cannot be synthesized.
    """
    lo, hi = float(band_hz[0]), float(band_hz[1])
    if num_bins < 1:
        raise ValueError(f"num_bins must be at least 1, got {num_bins}")
    if not 0.0 < lo <= hi < np.inf:
        raise ValueError(f"band_hz must satisfy 0 < low <= high, got ({lo}, {hi})")
    if num_snapshots < 1:
        raise ValueError(f"num_snapshots must be at least 1, got {num_snapshots}")
    if isinstance(coherence, str):
        if coherence not in ("coherent", "incoherent"):
            raise ValueError(f"coherence must be 'coherent' or 'incoherent', got {coherence!r}")
    elif not 0.0 <= float(coherence) <= 1.0:
        raise ValueError(f"coherence must lie in [0, 1], got {coherence}")
    if num_bins == 1:
        return np.array([0.5 * (lo + hi)])
    return np.linspace(lo, hi, num_bins)


def _amplitude_draws(
    paths: RaypathSet,
    num_snapshots: int,
    coherence: str | float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-snapshot complex path amplitudes, shape (P, L).

    ``"coherent"`` keeps every snapshot at the nominal amplitudes;
    ``"incoherent"`` draws independent unit-variance complex Gaussians per
    path and snapshot; a float in [0, 1] mixes a common snapshot factor
    with independent ones at that correlation coefficient. ``coherence``
    is one that ``_check_signal`` accepts.
    """
    p, l = paths.num_paths, num_snapshots
    base = paths.amplitudes[:, None]
    if coherence == "coherent":
        return np.broadcast_to(base, (p, l)).copy()
    if coherence == "incoherent":
        draws = (rng.standard_normal((p, l)) + 1j * rng.standard_normal((p, l)))
        return base * draws / np.sqrt(2.0)
    rho = float(coherence)
    common = (rng.standard_normal(l) + 1j * rng.standard_normal(l)) / np.sqrt(2.0)
    own = (rng.standard_normal((p, l)) + 1j * rng.standard_normal((p, l))) / np.sqrt(2.0)
    return base * (np.sqrt(rho) * common[None, :] + np.sqrt(1.0 - rho) * own)


def _add_noise(x: np.ndarray, scale: float, rng: np.random.Generator) -> None:
    """Add ``scale`` times complex standard normal noise to the block ``x`` in place.

    One draw of shape (bins, 2, M, L) takes each bin's real block, then its
    imaginary block: the stream of a real and then an imaginary draw per
    bin. Adding the scaled parts in place gives the bits of adding ``scale
    * (re + 1j * im)``, short of the sign of a zero where a scaled draw is
    exactly zero, without a complex buffer.
    """
    n = rng.standard_normal((len(x), 2) + x.shape[1:])
    n *= scale
    x.real += n[:, 0]
    x.imag += n[:, 1]


def synthesize_broadband(
    paths: RaypathSet,
    band_hz: tuple[float, float],
    num_bins: int,
    num_snapshots: int,
    noise: NoiseSpec,
    geometry: ArrayGeometry,
    coherence: str | float = "coherent",
) -> list[SnapshotMatrix]:
    """Frequency-domain snapshots on ``num_bins`` bins spanning ``band_hz``.

    Path p contributes ``a_p * exp(-2j*pi*nu_b*delay_p)`` times its steering
    vector at bin frequency nu_b, so the phase of each path advances across
    bins at a slope of ``-2*pi*delay_p`` radians per hertz. One set of
    per-snapshot amplitude draws is shared by all bins (arrivals are
    mutually coherent across frequency); noise is independent per bin and
    scaled so the in-band array SNR matches ``noise.snr_db``.

    Returns:
        One SnapshotMatrix per bin, in increasing frequency order. Bins are
        formed in blocks of consecutive bins, and each bin's data is a
        read-only view into its block.
    """
    freqs = _check_signal(band_hz, num_bins, num_snapshots, coherence)
    angles = paths.angles_deg
    outside = ~((angles >= -90.0) & (angles <= 90.0))
    if np.any(outside):
        raise ValueError(f"angle_deg must lie in [-90, 90], got {angles[outside][0]}")

    rng = np.random.default_rng(noise.seed)
    amps = _amplitude_draws(paths, num_snapshots, coherence, rng)

    # Steering (B, M, P) and delay phases (B, P) in one broadcast each, with
    # the per-vector formula; then the signals, block by block.
    m = np.arange(geometry.num_sensors) - geometry.reference_index
    phase = _plane_wave_phase(angles, freqs[:, None], geometry)
    steering = np.exp(1j * phase[:, None, :] * m[:, None])
    delay_phase = np.exp(-2j * np.pi * freqs[:, None] * paths.delays_s)
    size = max(1, _BLOCK_BYTES // (geometry.num_sensors * num_snapshots * 16))
    starts = range(0, num_bins, size)
    blocks = [
        steering[k : k + size] @ (delay_phase[k : k + size, :, None] * amps)
        for k in starts
    ]
    del steering  # not held beside the noise draws

    if np.isinf(noise.snr_db):
        sigma2 = 0.0
    else:
        # Each bin's mean power over its own contiguous row, then the mean
        # over bins, as the per-bin means would be summed.
        power = np.empty(num_bins)
        for k, x in zip(starts, blocks):
            p = np.abs(x)
            np.square(p, out=p)
            power[k : k + len(x)] = p.reshape(len(x), -1).mean(axis=1)
        sigma2 = float(np.mean(power)) * 10.0 ** (-noise.snr_db / 10.0)

    scale = np.sqrt(sigma2 / 2.0)
    out = []
    for k, x in zip(starts, blocks):
        if sigma2 > 0.0:
            _add_noise(x, scale, rng)
        if not np.all(np.isfinite(x.view(float))):
            raise ValueError("snapshot data must be finite")
        x.setflags(write=False)
        out.extend(
            SnapshotMatrix._of_read_only(xb, float(f), sigma2)
            for xb, f in zip(x, freqs[k : k + len(x)])
        )
    return out


def synthesize_snapshots(
    paths: RaypathSet,
    frequency_hz: float,
    num_snapshots: int,
    noise: NoiseSpec,
    geometry: ArrayGeometry,
    coherence: str | float = "coherent",
) -> SnapshotMatrix:
    """Single-frequency snapshots; the one-bin case of ``synthesize_broadband``."""
    (out,) = synthesize_broadband(
        paths,
        (frequency_hz, frequency_hz),
        1,
        num_snapshots,
        noise,
        geometry,
        coherence,
    )
    return out
