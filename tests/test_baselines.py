import numpy as np
import pytest
from numpy.testing import assert_allclose

from raysep import (
    AngleGrid,
    ArrayGeometry,
    NoiseSpec,
    RaypathSet,
    SpectralMatrix,
    build_dictionary,
    cbf_spectrum,
    decompose,
    detect_peaks,
    estimate_spectral_matrix,
    music_spectrum,
    steering_vector,
    synthesize_snapshots,
)


def geometry():
    return ArrayGeometry(num_sensors=11, spacing_m=0.5, sound_speed_mps=1500.0)


def grid():
    return AngleGrid.uniform(-90.0, 90.0, 0.5)


def dictionary(geom=None):
    return build_dictionary(grid(), 1500.0, geom or geometry())


def incoherent_pair_covariance(a1, a2):
    geom = geometry()
    g1 = steering_vector(a1, 1500.0, geom)
    g2 = steering_vector(a2, 1500.0, geom)
    r = np.outer(g1, g1.conj()) + np.outer(g2, g2.conj())
    return SpectralMatrix(r, 1, 1500.0)


def test_music_noise_free_incoherent_pair_peaks_on_truth():
    spectral = incoherent_pair_covariance(-20.0, 13.0)
    spec = music_spectrum(spectral, 2, dictionary())
    peaks = detect_peaks(spec, 2)
    assert_allclose(np.sort(peaks), [-20.0, 13.0], atol=0.5)


def test_music_null_depth_at_true_angles():
    spectral = incoherent_pair_covariance(-20.0, 13.0)
    dec = decompose(spectral, 2)
    noise = dec.noise_eigenvectors
    geom = geometry()
    for angle in (-20.0, 13.0):
        g = steering_vector(angle, 1500.0, geom)
        depth = np.linalg.norm(noise.conj().T @ g) ** 2
        assert depth < 1e-10 * geom.num_sensors


def test_music_flat_on_isotropic_covariance():
    spectral = SpectralMatrix(2.0 * np.eye(11, dtype=complex), 1, 1500.0)
    spec = music_spectrum(spectral, 3, dictionary())
    assert np.max(spec.values) / np.min(spec.values) < 1 + 1e-6


def test_music_normalized_to_unit_maximum():
    spectral = incoherent_pair_covariance(-5.0, 25.0)
    spec = music_spectrum(spectral, 2, dictionary())
    assert np.max(spec.values) == pytest.approx(1.0)


def test_music_coherent_pair_without_smoothing_misses_paths():
    # rank-deficient covariance: the pseudo-spectrum may still wiggle, but it
    # cannot localize both arrivals
    geom = geometry()
    paths = RaypathSet([-8.0, 8.0], [1.0, 1.0], [0.0, 0.003])
    snap = synthesize_snapshots(paths, 1500.0, 400, NoiseSpec(20.0, 5), geom, "coherent")
    spectral = estimate_spectral_matrix(snap)
    spec = music_spectrum(spectral, 2, dictionary(geom))
    peaks = detect_peaks(spec, 2)
    accurate = sum(
        1 for truth in (-8.0, 8.0) if peaks.size and np.min(np.abs(peaks - truth)) <= 1.0
    )
    assert accurate < 2


def test_music_requires_valid_path_count():
    spectral = incoherent_pair_covariance(-5.0, 25.0)
    with pytest.raises(ValueError):
        music_spectrum(spectral, 11, dictionary())


def test_cbf_single_path_peaks_on_truth():
    geom = geometry()
    g = steering_vector(7.0, 1500.0, geom)
    spectral = SpectralMatrix(np.outer(g, g.conj()), 1, 1500.0)
    spec = cbf_spectrum(spectral, dictionary(geom))
    assert grid().angles_deg[np.argmax(spec.values)] == pytest.approx(7.0, abs=0.25)


def test_cbf_identity_covariance_flat_at_one_over_m():
    spectral = SpectralMatrix(np.eye(11, dtype=complex), 1, 1500.0)
    spec = cbf_spectrum(spectral, dictionary())
    assert_allclose(spec.values, 1.0 / 11.0, atol=1e-12)


def test_cbf_merges_paths_inside_rayleigh_limit():
    # aperture 5 m at 1 m wavelength: Rayleigh width ~ 11.5 degrees, so a
    # 4-degree separation produces one merged main lobe (sidelobes sit far
    # below half maximum)
    spectral = incoherent_pair_covariance(-2.0, 2.0)
    spec = cbf_spectrum(spectral, dictionary())
    v = spec.values
    lobes = sum(
        1
        for i in range(1, v.size - 1)
        if v[i] > v[i - 1] and v[i] > v[i + 1] and v[i] >= 0.5 * v.max()
    )
    assert lobes == 1


def test_spectra_invariant_to_covariance_scaling():
    spectral = incoherent_pair_covariance(-20.0, 13.0)
    scaled = SpectralMatrix(4.0 * spectral.matrix, 1, 1500.0)
    geom = geometry()
    m1 = music_spectrum(spectral, 2, dictionary(geom))
    m2 = music_spectrum(scaled, 2, dictionary(geom))
    assert np.argmax(m1.values) == np.argmax(m2.values)
    c1 = cbf_spectrum(spectral, dictionary(geom))
    c2 = cbf_spectrum(scaled, dictionary(geom))
    assert np.argmax(c1.values) == np.argmax(c2.values)
    assert_allclose(c2.values, 4.0 * c1.values, rtol=1e-12)


def test_pseudo_spectrum_validation():
    from raysep import PseudoSpectrum

    with pytest.raises(ValueError):
        PseudoSpectrum(grid(), -np.ones(len(grid())), "music")
    with pytest.raises(ValueError):
        PseudoSpectrum(grid(), np.ones(3), "music")


def test_baselines_scan_the_dictionary_they_are_given():
    # a dictionary at another frequency than the covariance's, over its own grid
    geom = geometry()
    d = build_dictionary(AngleGrid.uniform(-40.0, 40.0, 2.0), 1200.0, geom)
    spectral = incoherent_pair_covariance(-20.0, 13.0)
    r, g, m = spectral.matrix, d.matrix, geom.num_sensors
    noise = np.linalg.eigh(r)[1][:, : m - 2]
    inv = 1.0 / (np.sum(np.abs(noise.conj().T @ g) ** 2, axis=0) + 1e-12 * m)
    music = music_spectrum(spectral, 2, d)
    assert music.grid is d.grid and music.method == "music"
    assert_allclose(music.values, inv / inv.max(), rtol=1e-9)
    power = np.array([np.vdot(g[:, q], r @ g[:, q]).real for q in range(g.shape[1])]) / m**2
    cbf = cbf_spectrum(spectral, d)
    assert cbf.grid is d.grid and cbf.method == "cbf"
    assert_allclose(cbf.values, np.maximum(power, 0.0), rtol=1e-12, atol=1e-15)


def test_pseudo_spectrum_keeps_a_private_copy_of_the_values():
    from raysep import PseudoSpectrum

    v = np.ones(len(grid()))
    spec = PseudoSpectrum(grid(), v, "music")
    assert v.flags.writeable and not spec.values.flags.writeable
    v[0] = 5.0
    assert spec.values[0] == 1.0
