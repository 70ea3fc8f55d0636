import json

import numpy as np
import pytest

from raysep.cli import main
from raysep.fileio import read_snapshots_csv


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def simulate_config(**overrides):
    cfg = {
        "geometry": {"num_sensors": 8, "spacing_m": 0.5, "sound_speed_mps": 1500.0},
        "scenario": {
            "paths": {
                "angles_deg": [-20.0, 15.0],
                "amplitudes": [[1.0, 0.0], [1.0, 0.0]],
                "delays_s": [0.0, 0.004],
            }
        },
        "signal": {"band_hz": [1400.0, 1600.0], "num_bins": 4, "num_snapshots": 16},
        "noise": {"snr_db": 10.0, "seed": 77},
    }
    cfg.update(overrides)
    return cfg


def estimate_config(**overrides):
    cfg = {
        "geometry": {"num_sensors": 8, "spacing_m": 0.5, "sound_speed_mps": 1500.0},
        "grid": {"start_deg": -60.0, "stop_deg": 60.0, "step_deg": 1.0},
        "num_paths": 2,
        "algorithms": ["music", "cbf", "subspace_cs"],
    }
    cfg.update(overrides)
    return cfg


def bench_config(**overrides):
    cfg = {
        "geometry": {"num_sensors": 8, "spacing_m": 0.5, "sound_speed_mps": 1500.0},
        "grid": {"start_deg": -60.0, "stop_deg": 60.0, "step_deg": 1.0},
        "scenario": {
            "paths": {"angles_deg": [-20.0, 15.0], "delays_s": [0.0, 0.004]}
        },
        "signal": {"band_hz": [1400.0, 1600.0], "num_bins": 4, "num_snapshots": 16,
                   "coherence": "incoherent"},
        "snr_db": [10.0],
        "trials": 2,
        "algorithms": ["music", "cbf"],
        "seed": 5,
    }
    cfg.update(overrides)
    return cfg


def test_simulate_writes_snapshots_and_truth(tmp_path):
    cfg = write_config(tmp_path / "sim.json", simulate_config())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    bins = read_snapshots_csv(out / "snapshots.csv")
    assert len(bins) == 4
    assert bins[0].data.shape == (8, 16)
    truth = json.loads((out / "truth.json").read_text())
    assert truth["angles_deg"] == [-20.0, 15.0]
    assert truth["amplitudes"] == [[1.0, 0.0], [1.0, 0.0]]


def test_simulate_deterministic_same_seed(tmp_path):
    cfg = write_config(tmp_path / "sim.json", simulate_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "snapshots.csv").read_bytes() == (out2 / "snapshots.csv").read_bytes()


def test_simulate_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path / "sim.json", simulate_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", cfg, "--out", str(out1)])
    main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "123"])
    assert (out1 / "snapshots.csv").read_bytes() != (out2 / "snapshots.csv").read_bytes()


def test_simulate_noise_free_single_snapshot_matches_model(tmp_path):
    cfg = simulate_config()
    cfg["signal"] = {"frequency_hz": 1500.0, "num_snapshots": 1}
    cfg["noise"] = {"snr_db": "inf", "seed": 0}
    path = write_config(tmp_path / "sim.json", cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    (snap,) = read_snapshots_csv(out / "snapshots.csv")
    from raysep import ArrayGeometry, steering_vector

    geom = ArrayGeometry(8, 0.5, 1500.0)
    expected = steering_vector(-20.0, 1500.0, geom) + steering_vector(
        15.0, 1500.0, geom
    ) * np.exp(-2j * np.pi * 1500.0 * 0.004)
    assert np.allclose(snap.data[:, 0], expected, atol=1e-12)


def test_simulate_waveguide_scenario(tmp_path):
    cfg = simulate_config()
    cfg["scenario"] = {
        "waveguide": {
            "water_depth_m": 100.0,
            "range_m": 2000.0,
            "source_depth_m": 50.0,
            "receiver_top_depth_m": 40.0,
            "num_paths": 3,
        }
    }
    path = write_config(tmp_path / "sim.json", cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    truth = json.loads((out / "truth.json").read_text())
    assert len(truth["angles_deg"]) == 3


def test_unknown_key_rejected_with_field_path(tmp_path, capsys):
    cfg = simulate_config()
    cfg["scenario"]["paths"]["bogus"] = 1
    path = write_config(tmp_path / "sim.json", cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "scenario.paths" in err and "bogus" in err


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    cfg = bench_config()
    cfg["surprise"] = True
    path = write_config(tmp_path / "bench.json", cfg)
    assert main(["bench", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "surprise" in capsys.readouterr().err


def test_invalid_json_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file_is_io_error(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path / "o")]) == 3


def test_estimate_end_to_end(tmp_path):
    sim_cfg = simulate_config()
    sim_cfg["signal"] = {"band_hz": [1400.0, 1600.0], "num_bins": 8,
                         "num_snapshots": 64, "coherence": "incoherent"}
    sim = write_config(tmp_path / "sim.json", sim_cfg)
    data_dir = tmp_path / "data"
    main(["simulate", "--config", sim, "--out", str(data_dir)])
    est = write_config(tmp_path / "est.json", estimate_config())
    out = tmp_path / "est_out"
    code = main(["estimate", "--config", est, "--snapshots",
                 str(data_dir / "snapshots.csv"), "--out", str(out)])
    assert code == 0
    peaks = json.loads((out / "peaks.json").read_text())
    assert set(peaks["peaks_deg"]) == {"music", "cbf", "subspace_cs"}
    music_peaks = np.array(peaks["peaks_deg"]["music"])
    assert np.max(np.abs(np.sort(music_peaks) - np.array([-20.0, 15.0]))) <= 2.0
    spectrum = (out / "music_spectrum.csv").read_text().splitlines()
    assert spectrum[0].startswith("# raysep spectrum v1 algorithm=music")
    rows = [line for line in spectrum if not line.startswith("#")]
    assert len(rows) == 121
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert "subspace_cs" in diagnostics


def test_estimate_dimension_mismatch_is_validation_error(tmp_path):
    sim = write_config(tmp_path / "sim.json", simulate_config())
    data_dir = tmp_path / "data"
    main(["simulate", "--config", sim, "--out", str(data_dir)])
    bad = estimate_config()
    bad["geometry"]["num_sensors"] = 9
    est = write_config(tmp_path / "est.json", bad)
    code = main(["estimate", "--config", est, "--snapshots",
                 str(data_dir / "snapshots.csv"), "--out", str(tmp_path / "o")])
    assert code == 2


def test_estimate_empty_algorithms_rejected(tmp_path):
    sim = write_config(tmp_path / "sim.json", simulate_config())
    data_dir = tmp_path / "data"
    main(["simulate", "--config", sim, "--out", str(data_dir)])
    est = write_config(tmp_path / "est.json", estimate_config(algorithms=[]))
    code = main(["estimate", "--config", est, "--snapshots",
                 str(data_dir / "snapshots.csv"), "--out", str(tmp_path / "o")])
    assert code == 2


def test_bench_end_to_end_and_byte_identical_rerun(tmp_path):
    cfg = write_config(tmp_path / "bench.json", bench_config())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["bench", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["bench", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    lines = (out1 / "report.csv").read_text().splitlines()
    assert lines[0] == "# raysep bench-report v1"
    assert lines[1].startswith("# version=")
    header = lines[2]
    assert header == "algorithm,snr_db,path_index,rmse_deg,detection_rate,trials_used"
    data_rows = lines[3:]
    assert len(data_rows) == 2 * 1 * 2  # algorithms x snrs x paths


def test_bench_row_count_for_sweep(tmp_path):
    cfg = bench_config(snr_db=[-10.0, -5.0, 0.0, 5.0, 10.0], trials=1)
    path = write_config(tmp_path / "bench.json", cfg)
    out = tmp_path / "out"
    assert main(["bench", "--config", path, "--out", str(out)]) == 0
    rows = [r for r in (out / "report.csv").read_text().splitlines()
            if r and not r.startswith("#") and not r.startswith("algorithm")]
    assert len(rows) == 5 * 2 * 2  # snrs x algorithms x paths


def test_bench_threads_flag_same_bytes(tmp_path):
    cfg = write_config(tmp_path / "bench.json", bench_config())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    main(["bench", "--config", cfg, "--out", str(out1), "--threads", "1"])
    main(["bench", "--config", cfg, "--out", str(out2), "--threads", "3"])
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


def test_estimate_infeasible_subspace_bound_is_numerical_failure(tmp_path, capsys):
    # coherent arrivals smoothed over too few bins leave cross terms that the
    # noise-floor residual allowance cannot absorb
    sim = write_config(tmp_path / "sim.json", simulate_config())
    data_dir = tmp_path / "data"
    main(["simulate", "--config", sim, "--out", str(data_dir)])
    est = write_config(
        tmp_path / "est.json",
        estimate_config(algorithms=["subspace_cs"], subspace_retry=False),
    )
    code = main(["estimate", "--config", est, "--snapshots",
                 str(data_dir / "snapshots.csv"), "--out", str(tmp_path / "o")])
    assert code == 4
    assert "residual" in capsys.readouterr().err


def test_threads_env_fallback(monkeypatch):
    from raysep.cli import _bench_threads, build_parser

    # the parser leaves the count to bench, which reads RAYSEP_THREADS
    monkeypatch.setenv("RAYSEP_THREADS", "7")
    args = build_parser().parse_args(["bench", "--config", "x", "--out", "y"])
    assert args.threads is None
    assert _bench_threads(args.threads) == 7
    monkeypatch.delenv("RAYSEP_THREADS")
    assert _bench_threads(None) == 1
    args = build_parser().parse_args(
        ["bench", "--config", "x", "--out", "y", "--threads", "3"]
    )
    assert _bench_threads(args.threads) == 3


@pytest.mark.parametrize("flag", ["0", "-3"])
def test_bench_threads_flag_below_one_is_a_config_error(tmp_path, capsys, flag):
    cfg = write_config(tmp_path / "bench.json", bench_config())
    code = main(["bench", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", flag])
    assert code == 2
    assert f"--threads: expected a positive integer, got {flag}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
def test_bench_threads_env_that_is_not_a_positive_integer_is_a_config_error(
    tmp_path, capsys, monkeypatch, value
):
    cfg = write_config(tmp_path / "bench.json", bench_config())
    monkeypatch.setenv("RAYSEP_THREADS", value)
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"RAYSEP_THREADS: expected a positive integer, got {value!r}" in capsys.readouterr().err
    # the flag, when given, is the count, and the variable is not read
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "2"]) == 0


def test_simulate_and_estimate_do_not_read_the_threads_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("RAYSEP_THREADS", "abc")
    sim = write_config(tmp_path / "sim.json", simulate_config())
    assert main(["simulate", "--config", sim, "--out", str(tmp_path / "data")]) == 0
    est = write_config(tmp_path / "est.json", estimate_config(algorithms=["music"]))
    assert main(["estimate", "--config", est, "--snapshots",
                 str(tmp_path / "data" / "snapshots.csv"), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("command", [
    ["simulate", "--config", "x", "--out", "y"],
    ["estimate", "--config", "x", "--snapshots", "s", "--out", "y"],
])
def test_threads_flag_is_for_bench_only(command, capsys):
    from raysep.cli import build_parser

    assert not hasattr(build_parser().parse_args(command), "threads")
    with pytest.raises(SystemExit) as exc:
        main(command + ["--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_provenance_headers_present(tmp_path):
    cfg = write_config(tmp_path / "sim.json", simulate_config())
    out = tmp_path / "out"
    main(["simulate", "--config", cfg, "--out", str(out)])
    header = (out / "snapshots.csv").read_text().splitlines()[1]
    assert "config_sha256=" in header and "seed=77" in header
    truth = json.loads((out / "truth.json").read_text())
    assert truth["_provenance"]["seed"] == 77


def test_partial_solver_block_keeps_the_default_solver():
    from raysep.cli import _build_solver

    partial = _build_solver({"inner_tol": 1e-4})
    assert partial == _build_solver(None)
    assert partial.max_reweight_iters == 6
    assert _build_solver({"max_reweight_iters": 2}).max_reweight_iters == 2


@pytest.mark.parametrize(
    "section, key, value, field",
    [
        ("signal", "band_hz", ["a", 2000.0], "signal.band_hz[0]"),
        ("signal", "band_hz", [None, 2000.0], "signal.band_hz[0]"),
        ("signal", "band_hz", [1000.0, True], "signal.band_hz[1]"),
        (None, "snr_db", [None], "config.snr_db[0]"),
        (None, "snr_db", [0.0, "loud"], "config.snr_db[1]"),
        (None, "snr_db", [False], "config.snr_db[0]"),
    ],
    ids=["band-string", "band-null", "band-bool", "snr-null", "snr-string", "snr-bool"],
)
def test_bench_list_entry_that_is_not_a_number_is_a_config_error(
    tmp_path, capsys, section, key, value, field
):
    cfg = bench_config()
    (cfg[section] if section else cfg)[key] = value
    path = write_config(tmp_path / "bench.json", cfg)
    assert main(["bench", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert f"{field}: expected a number" in capsys.readouterr().err


def test_bench_snr_list_accepts_infinity_as_noise_snr_does(tmp_path):
    cfg = write_config(tmp_path / "bench.json", bench_config(snr_db=["inf", "Infinity"], trials=1))
    out = tmp_path / "out"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["snr_db"] == [np.inf, np.inf]


@pytest.mark.parametrize("kind", ["null", "bool", "string"])
@pytest.mark.parametrize(
    "key, field",
    [
        ("angles_deg", "scenario.paths.angles_deg[0]"),
        ("amplitudes", "scenario.paths.amplitudes[0][0]"),
        ("delays_s", "scenario.paths.delays_s[0]"),
        ("receiver_depths_m", "scenario.waveguide.receiver_depths_m[0]"),
    ],
)
def test_simulate_path_list_entry_that_is_not_a_number_is_a_config_error(
    tmp_path, capsys, key, field, kind
):
    bad = {"null": None, "bool": True, "string": "deep"}[kind]
    cfg = simulate_config()
    if key == "receiver_depths_m":
        cfg["scenario"] = {"waveguide": {
            "water_depth_m": 100.0, "range_m": 2000.0, "source_depth_m": 50.0,
            "num_paths": 3, "receiver_depths_m": [bad] + [40.0 + 0.5 * i for i in range(1, 8)],
        }}
    elif key == "amplitudes":
        cfg["scenario"]["paths"][key] = [[bad, 0.0], [1.0, 0.0]]
    else:
        cfg["scenario"]["paths"][key][0] = bad
    path = write_config(tmp_path / "sim.json", cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert f"{field}: expected a number, got {bad!r}" in capsys.readouterr().err


def estimate_args(tmp_path, cfg):
    """``raysep estimate`` arguments for ``cfg`` on freshly simulated snapshots, less ``--out``."""
    sim = write_config(tmp_path / "sim.json", simulate_config())
    main(["simulate", "--config", sim, "--out", str(tmp_path / "data")])
    est = write_config(tmp_path / "est.json", cfg)
    return ["estimate", "--config", est, "--snapshots", str(tmp_path / "data" / "snapshots.csv")]


@pytest.mark.parametrize("value", ["false", "no", None, 0])
@pytest.mark.parametrize("key", ["music_smoothing", "subspace_retry"])
@pytest.mark.parametrize("command", ["bench", "estimate"])
def test_switch_that_is_not_a_json_boolean_is_a_config_error(
    tmp_path, capsys, command, key, value
):
    if command == "bench":
        cfg = write_config(tmp_path / "bench.json", bench_config(**{key: value}))
        args = ["bench", "--config", cfg]
    else:
        args = estimate_args(tmp_path, estimate_config(**{key: value}))
    assert main(args + ["--out", str(tmp_path / "o")]) == 2
    assert f"config.{key}: expected true or false, got {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("band_hz", [1600.0, 1400.0], "signal.band_hz must satisfy 0 < low <= high"),
        ("num_bins", 0, "signal.num_bins must be at least 1"),
        ("num_snapshots", 0, "signal.num_snapshots must be at least 1"),
        ("coherence", 1.5, "signal.coherence must lie in [0, 1]"),
        ("coherence", "weird", "signal.coherence must be 'coherent' or 'incoherent'"),
    ],
    ids=["band-reversed", "no-bins", "no-snapshots", "coherence-above-1", "coherence-mode"],
)
@pytest.mark.parametrize("command", ["bench", "simulate"])
def test_signal_that_cannot_be_synthesized_is_a_config_error(
    tmp_path, capsys, command, key, value, message
):
    cfg = bench_config() if command == "bench" else simulate_config()
    cfg["signal"][key] = value
    path = write_config(tmp_path / "cfg.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["bench", "estimate"])
def test_as_many_paths_as_sensors_is_a_config_error(tmp_path, capsys, command):
    if command == "bench":
        angles = [-50.0 + 14.0 * k for k in range(8)]
        cfg = bench_config(scenario={"paths": {"angles_deg": angles, "delays_s": [0.0] * 8}})
        args = ["bench", "--config", write_config(tmp_path / "bench.json", cfg)]
    else:
        args = estimate_args(tmp_path, estimate_config(num_paths=8))
    assert main(args + ["--out", str(tmp_path / "o")]) == 2
    assert "num_paths must satisfy 1 <= num_paths < 8 sensors, got 8" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
