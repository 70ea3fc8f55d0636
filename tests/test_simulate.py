import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import raysep.simulate
from raysep import (
    ArrayGeometry,
    NoiseSpec,
    RaypathSet,
    WaveguideScenario,
    eigenray_angles,
    estimate_spectral_matrix,
    steering_vector,
    synthesize_broadband,
    synthesize_snapshots,
)


def scenario(num_paths=2, source_depth=20.0):
    return WaveguideScenario(
        water_depth_m=100.0,
        range_m=2000.0,
        source_depth_m=source_depth,
        receiver_depths_m=np.array([50.0, 52.5, 55.0]),
        num_paths=num_paths,
    )


def test_direct_path_angle_matches_hand_trigonometry():
    paths = eigenray_angles(scenario(num_paths=1))
    assert_allclose(paths.angles_deg[0], np.degrees(np.arctan2(30.0, 2000.0)), atol=1e-12)


def test_surface_reflection_angle_and_sign():
    paths = eigenray_angles(scenario(num_paths=2))
    # image of the source above the surface sits at -20 m
    assert_allclose(paths.angles_deg[1], np.degrees(np.arctan2(70.0, 2000.0)), atol=1e-12)
    assert paths.amplitudes[1] == -1.0 + 0.0j


def test_equal_depths_direct_path_is_broadside():
    sc = WaveguideScenario(100.0, 1500.0, 50.0, np.array([50.0, 52.0]), num_paths=1)
    paths = eigenray_angles(sc)
    assert paths.angles_deg[0] == 0.0


def test_delays_are_path_length_over_sound_speed():
    paths = eigenray_angles(scenario(num_paths=3))
    direct = np.hypot(2000.0, 30.0) / 1500.0
    assert_allclose(paths.delays_s[0], direct, rtol=1e-12)
    assert np.all(np.diff(np.abs(paths.angles_deg)) >= 0)


def test_too_many_paths_raises():
    with pytest.raises(ValueError):
        eigenray_angles(
            WaveguideScenario(100.0, 2000.0, 20.0, np.array([50.0, 52.5]), num_paths=250)
        )


def test_scenario_validation():
    with pytest.raises(ValueError):
        WaveguideScenario(100.0, 2000.0, 0.0, np.array([50.0]), num_paths=1)
    with pytest.raises(ValueError):
        WaveguideScenario(100.0, 2000.0, 20.0, np.array([150.0]), num_paths=1)
    with pytest.raises(ValueError):
        WaveguideScenario(-1.0, 2000.0, 20.0, np.array([50.0]), num_paths=1)


def test_scenario_keeps_a_private_read_only_copy_of_the_depths():
    depths = 37.5 + 2.5 * np.arange(11)
    sc = WaveguideScenario(100.0, 2000.0, 50.0, depths, num_paths=3)
    assert not np.shares_memory(sc.receiver_depths_m, depths)
    base = sc.receiver_depths_m
    while isinstance(base, np.ndarray):
        with pytest.raises(ValueError):
            base.setflags(write=True)
        base = base.base
    depths[0] = 99.0
    assert sc.receiver_depths_m[0] == 37.5
    assert sc.array_geometry().spacing_m == 2.5


def test_array_geometry_from_scenario():
    geom = scenario().array_geometry()
    assert geom.num_sensors == 3
    assert geom.spacing_m == pytest.approx(2.5)
    with pytest.raises(ValueError):
        WaveguideScenario(
            100.0, 2000.0, 20.0, np.array([50.0, 51.0, 55.0]), num_paths=1
        ).array_geometry()


def geometry():
    return ArrayGeometry(num_sensors=11, spacing_m=0.5, sound_speed_mps=1500.0)


def test_noise_free_single_path_columns_equal_steering_vector():
    geom = geometry()
    paths = RaypathSet([7.0], [1.0], [0.0])
    snap = synthesize_snapshots(paths, 1500.0, 5, NoiseSpec(np.inf, 0), geom)
    expected = steering_vector(7.0, 1500.0, geom)
    for col in range(5):
        assert_array_equal(snap.data[:, col], expected)


def test_noise_free_residual_against_dictionary_model():
    # multi-path: signal equals the dictionary columns times the amplitudes
    from raysep import AngleGrid, build_dictionary

    geom = geometry()
    grid = AngleGrid.uniform(-30.0, 30.0, 0.5)
    angles = [grid.angles_deg[17], grid.angles_deg[80]]
    paths = RaypathSet(angles, [1.0, -1.0], [0.0, 0.0])
    snap = synthesize_snapshots(paths, 1500.0, 4, NoiseSpec(np.inf, 0), geom)
    d = build_dictionary(grid, 1500.0, geom)
    model = d.matrix[:, [17, 80]] @ np.array([[1.0], [-1.0]]) * np.ones((1, 4))
    assert np.linalg.norm(snap.data - model) == 0.0


def test_determinism_same_seed_bit_identical():
    geom = geometry()
    paths = RaypathSet([3.0, -8.0], [1.0, 1.0], [0.0, 0.001])
    a = synthesize_snapshots(paths, 1500.0, 64, NoiseSpec(3.0, 123), geom)
    b = synthesize_snapshots(paths, 1500.0, 64, NoiseSpec(3.0, 123), geom)
    assert_array_equal(a.data, b.data)
    c = synthesize_snapshots(paths, 1500.0, 64, NoiseSpec(3.0, 124), geom)
    assert not np.array_equal(a.data, c.data)


def test_empirical_snr_within_point_two_db():
    geom = geometry()
    paths = RaypathSet([5.0], [1.0], [0.0])
    for snr_db in (-5.0, 0.0, 10.0):
        noisy = synthesize_snapshots(paths, 1500.0, 10_000, NoiseSpec(snr_db, 99), geom)
        clean = synthesize_snapshots(paths, 1500.0, 10_000, NoiseSpec(np.inf, 99), geom)
        noise = noisy.data - clean.data
        measured = 10.0 * np.log10(
            np.mean(np.abs(clean.data) ** 2) / np.mean(np.abs(noise) ** 2)
        )
        assert abs(measured - snr_db) < 0.2


def test_broadband_single_bin_degenerates_to_narrowband():
    geom = geometry()
    paths = RaypathSet([3.0], [1.0], [0.002])
    narrow = synthesize_snapshots(paths, 1400.0, 16, NoiseSpec(5.0, 21), geom)
    (broad,) = synthesize_broadband(paths, (1400.0, 1400.0), 1, 16, NoiseSpec(5.0, 21), geom)
    assert_array_equal(narrow.data, broad.data)
    assert narrow.frequency_hz == broad.frequency_hz


def test_broadband_phase_slope_matches_delay():
    geom = geometry()
    delay = 0.001
    paths = RaypathSet([4.0], [1.0], [delay])
    bins = synthesize_broadband(paths, (1000.0, 2000.0), 11, 1, NoiseSpec(np.inf, 0), geom)
    freqs = np.array([b.frequency_hz for b in bins])
    ref = np.array([b.data[0, 0] for b in bins])
    slope = np.polyfit(freqs, np.unwrap(np.angle(ref)), 1)[0]
    assert_allclose(slope, -2.0 * np.pi * delay, rtol=1e-9)


def test_fully_coherent_pair_gives_rank_one_covariance():
    geom = geometry()
    paths = RaypathSet([-6.0, 6.0], [1.0, 1.0], [0.0, 0.004])
    snap = synthesize_snapshots(paths, 1500.0, 200, NoiseSpec(np.inf, 8), geom, "coherent")
    eigs = np.linalg.eigvalsh(estimate_spectral_matrix(snap).matrix)[::-1]
    assert eigs[0] > 1.0
    assert eigs[1] < 1e-10 * eigs[0]


def test_incoherent_pair_gives_rank_two_covariance():
    geom = geometry()
    paths = RaypathSet([-6.0, 6.0], [1.0, 1.0], [0.0, 0.004])
    snap = synthesize_snapshots(paths, 1500.0, 4000, NoiseSpec(np.inf, 8), geom, "incoherent")
    eigs = np.linalg.eigvalsh(estimate_spectral_matrix(snap).matrix)[::-1]
    assert eigs[1] > 0.1 * eigs[0]
    assert eigs[2] < 1e-10 * eigs[0]


def test_partial_correlation_between_extremes():
    geom = geometry()
    paths = RaypathSet([-6.0, 6.0], [1.0, 1.0], [0.0, 0.004])
    snap = synthesize_snapshots(paths, 1500.0, 4000, NoiseSpec(np.inf, 8), geom, 0.5)
    eigs = np.linalg.eigvalsh(estimate_spectral_matrix(snap).matrix)[::-1]
    # second eigenvalue present but suppressed relative to the incoherent case
    assert 1e-3 * eigs[0] < eigs[1] < 0.6 * eigs[0]


def test_bad_inputs():
    geom = geometry()
    paths = RaypathSet([3.0], [1.0], [0.0])
    with pytest.raises(ValueError):
        synthesize_snapshots(paths, 1500.0, 0, NoiseSpec(0.0, 0), geom)
    with pytest.raises(ValueError):
        synthesize_broadband(paths, (2000.0, 1000.0), 4, 5, NoiseSpec(0.0, 0), geom)
    with pytest.raises(ValueError):
        synthesize_broadband(paths, (1000.0, 2000.0), 0, 5, NoiseSpec(0.0, 0), geom)
    with pytest.raises(ValueError):
        synthesize_snapshots(paths, 1500.0, 5, NoiseSpec(0.0, 0), geom, coherence="weird")
    with pytest.raises(ValueError):
        synthesize_snapshots(paths, 1500.0, 5, NoiseSpec(0.0, 0), geom, coherence=1.5)


def reference_synthesize_broadband(
    paths, band_hz, num_bins, num_snapshots, noise, geometry, coherence
):
    """The per-bin synthesis loop, written plainly.

    The stacked synthesis in raysep.simulate must reproduce it bit for bit:
    steering per bin and path, one product per bin, and the noise drawn bin
    by bin, real block then imaginary block.
    """
    lo, hi = float(band_hz[0]), float(band_hz[1])
    freqs = np.array([0.5 * (lo + hi)]) if num_bins == 1 else np.linspace(lo, hi, num_bins)
    rng = np.random.default_rng(noise.seed)
    amps = raysep.simulate._amplitude_draws(paths, num_snapshots, coherence, rng)
    signals = []
    for f in freqs:
        g = np.column_stack([steering_vector(a, f, geometry) for a in paths.angles_deg])
        delay_phase = np.exp(-2j * np.pi * f * paths.delays_s)[:, None]
        signals.append(g @ (delay_phase * amps))
    if np.isinf(noise.snr_db):
        sigma2 = 0.0
    else:
        signal_power = float(np.mean([np.mean(np.abs(x) ** 2) for x in signals]))
        sigma2 = signal_power * 10.0 ** (-noise.snr_db / 10.0)
    out = []
    for f, x in zip(freqs, signals):
        if sigma2 > 0.0:
            n = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
            x = x + np.sqrt(sigma2 / 2.0) * n
        out.append((x, float(f), sigma2))
    return out


@pytest.mark.parametrize("num_bins", [1, 3, 32])
@pytest.mark.parametrize("snr_db", [-5.0, 20.0, np.inf])
@pytest.mark.parametrize("coherence", ["coherent", "incoherent", 0.5])
def test_broadband_matches_the_per_bin_loop_bit_for_bit(
    coherence, snr_db, num_bins, five_path_fan
):
    geom = ArrayGeometry(num_sensors=11, spacing_m=2.5, sound_speed_mps=1500.0)
    args = (five_path_fan, (1000.0, 2000.0), num_bins, 40, NoiseSpec(snr_db, 811), geom, coherence)
    got = synthesize_broadband(*args)
    want = reference_synthesize_broadband(*args)
    assert len(got) == len(want) == num_bins
    for snap, (data, freq, sigma2) in zip(got, want):
        assert_array_equal(snap.data, data)
        assert snap.frequency_hz == freq
        assert snap.noise_power == sigma2
        assert not snap.data.flags.writeable


def test_broadband_draws_noise_one_bin_at_a_time(five_path_fan):
    # Noise is drawn bin by bin into the output: the peak is 1.6x the
    # output's bytes here. One draw for every bin gives the same stream but
    # holds a draw the size of the output beside it: 2.5x, or 3.6x when the
    # complex noise is formed for all bins at once.
    geom = ArrayGeometry(num_sensors=11, spacing_m=2.5, sound_speed_mps=1500.0)
    args = (five_path_fan, (1000.0, 2000.0), 64, 150, NoiseSpec(0.0, 5), geom, 0.5)
    output_bytes = 64 * 11 * 150 * 16
    tracemalloc.start()
    try:
        bins = synthesize_broadband(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(bins) == 64
    assert peak < 2.0 * output_bytes
