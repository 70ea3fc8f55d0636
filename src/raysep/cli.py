"""Command-line front end: simulate | estimate | bench.

All three subcommands read a JSON config (schema below), write their
outputs under ``--out`` and exit with a stable code: 0 success, 2 config or
dimension validation failure, 3 file I/O failure, 4 numerical failure.
``--seed`` overrides the config seed. ``bench`` alone takes ``--threads``:
its worker threads (default 1), at most one per usable CPU. A thread count
that is not a positive integer is a config error.

Config schemas (unknown keys are rejected, paths in error messages;
``music_smoothing`` and ``subspace_retry`` take JSON true or false only, and
a signal that cannot be synthesized or as many paths as sensors is a config
error). An optional key left out keeps the library's default, shown below:

simulate::

    {
      "geometry": {"num_sensors": 11, "spacing_m": 2.5,
                   "sound_speed_mps": 1500.0, "reference_index": 0},
      "scenario": {
        "waveguide": {"water_depth_m": 100.0, "range_m": 2000.0,
                      "source_depth_m": 50.0, "receiver_top_depth_m": 37.5,
                      "num_paths": 5}
        # or "paths": {"angles_deg": [...], "amplitudes": [[re, im], ...],
        #              "delays_s": [...]}
      },
      "signal": {"band_hz": [1000.0, 2000.0], "num_bins": 32,
                 # or "frequency_hz": 1500.0 for narrowband
                 "num_snapshots": 150, "coherence": "coherent"},
      "noise": {"snr_db": 0.0, "seed": 12345}   # snr_db "inf" disables noise
    }

estimate::

    {
      "geometry": {...}, "grid": {"start_deg": -10.0, "stop_deg": 10.0,
                                  "step_deg": 0.2},
      "num_paths": 5, "algorithms": ["subspace_cs", "music", "reweighted_cs"],
      "focus_frequency_hz": null, "music_smoothing": false,
      "epsilon": null, "epsilon_factor": 1.1, "delta_factor": 1.5,
      "subspace_retry": true,
      "solver": {"reweight_xi": null, "max_reweight_iters": 6,
                 "inner_tol": 1e-4, "inner_max_iters": 600}
    }

bench: the estimate keys but "num_paths", "focus_frequency_hz" and
"epsilon", plus "scenario", "signal", "snr_db" (list), "trials", "seed" and
"match_window_deg" (default 3.0).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .arrays import AngleGrid, ArrayGeometry, RaypathSet
from .bench import (
    ALGORITHMS,
    EstimatorSettings,
    ExperimentPlan,
    detect_peaks,
    estimate_spectra,
    run_experiment,
)
from .fileio import (
    config_hash,
    provenance_lines,
    read_snapshots_csv,
    write_json,
    write_peaks_json,
    write_report_csv,
    write_report_json,
    write_snapshots_csv,
    write_spectrum_csv,
    write_truth_json,
)
from .simulate import (
    NoiseSpec,
    WaveguideScenario,
    _check_signal,
    eigenray_angles,
    synthesize_broadband,
)
from .solvers import SolverConfig, SolverInfeasibleError
from .spectral import FocusingError

__all__ = ["main", "ConfigError"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


class ConfigError(Exception):
    """Config validation failure; the message names the offending field."""


def _expect_dict(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    return obj


def _check_keys(cfg: dict, path: str, allowed: set, required: set):
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown key '{sorted(unknown)[0]}'")
    missing = required - set(cfg)
    if missing:
        raise ConfigError(f"{path}: missing required key '{sorted(missing)[0]}'")


def _number(cfg: dict, path: str, key: str, allow_inf: bool = False):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}: missing required number")
    return _as_number(cfg[key], f"{path}.{key}", allow_inf)


def _number_or_null(cfg: dict, path: str, key: str):
    return None if cfg.get(key) is None else _number(cfg, path, key)


def _as_number(v, field: str, allow_inf: bool = False) -> float:
    if allow_inf and v in ("inf", "Infinity"):
        return float("inf")
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{field}: expected a number, got {v!r}")
    return float(v)


def _boolean(cfg: dict, path: str, key: str) -> bool:
    v = cfg[key]
    if not isinstance(v, bool):
        raise ConfigError(f"{path}.{key}: expected true or false, got {v!r}")
    return v


def _numbers(v, field: str) -> np.ndarray:
    """A JSON list of numbers, each checked as ``field[i]``."""
    if not isinstance(v, list):
        raise ConfigError(f"{field}: expected a list of numbers")
    return np.array([_as_number(x, f"{field}[{i}]") for i, x in enumerate(v)], dtype=float)


def _integer(cfg: dict, path: str, key: str) -> int:
    if key not in cfg:
        raise ConfigError(f"{path}.{key}: missing required integer")
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {v!r}")
    return v


def _present(cfg: dict, path: str, readers: dict) -> dict:
    """The keys of ``readers`` that ``cfg`` holds, each read by its reader."""
    return {key: read(cfg, path, key) for key, read in readers.items() if key in cfg}


def _build_geometry(cfg: dict, path: str = "geometry") -> ArrayGeometry:
    cfg = _expect_dict(cfg, path)
    _check_keys(
        cfg, path,
        {"num_sensors", "spacing_m", "sound_speed_mps", "reference_index"},
        {"num_sensors", "spacing_m"},
    )
    try:
        return ArrayGeometry(
            num_sensors=_integer(cfg, path, "num_sensors"),
            spacing_m=_number(cfg, path, "spacing_m"),
            **_present(cfg, path, {"sound_speed_mps": _number, "reference_index": _integer}),
        )
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def _build_grid(cfg: dict, path: str = "grid") -> AngleGrid:
    cfg = _expect_dict(cfg, path)
    _check_keys(cfg, path, {"start_deg", "stop_deg", "step_deg"}, {"start_deg", "stop_deg", "step_deg"})
    try:
        return AngleGrid.uniform(
            _number(cfg, path, "start_deg"),
            _number(cfg, path, "stop_deg"),
            _number(cfg, path, "step_deg"),
        )
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def _build_paths(cfg: dict, geometry: ArrayGeometry, path: str = "scenario") -> RaypathSet:
    cfg = _expect_dict(cfg, path)
    _check_keys(cfg, path, {"waveguide", "paths"}, set())
    if ("waveguide" in cfg) == ("paths" in cfg):
        raise ConfigError(f"{path}: provide exactly one of 'waveguide' or 'paths'")
    try:
        if "waveguide" in cfg:
            wg = _expect_dict(cfg["waveguide"], f"{path}.waveguide")
            _check_keys(
                wg, f"{path}.waveguide",
                {"water_depth_m", "range_m", "source_depth_m",
                 "receiver_top_depth_m", "receiver_depths_m", "num_paths"},
                {"water_depth_m", "range_m", "source_depth_m", "num_paths"},
            )
            if "receiver_depths_m" in wg:
                depths = _numbers(wg["receiver_depths_m"], f"{path}.waveguide.receiver_depths_m")
            else:
                top = _number(wg, f"{path}.waveguide", "receiver_top_depth_m")
                depths = top + geometry.spacing_m * np.arange(geometry.num_sensors)
            scenario = WaveguideScenario(
                water_depth_m=_number(wg, f"{path}.waveguide", "water_depth_m"),
                range_m=_number(wg, f"{path}.waveguide", "range_m"),
                source_depth_m=_number(wg, f"{path}.waveguide", "source_depth_m"),
                receiver_depths_m=depths,
                sound_speed_mps=geometry.sound_speed_mps,
                num_paths=_integer(wg, f"{path}.waveguide", "num_paths"),
            )
            return eigenray_angles(scenario, reference_index=geometry.reference_index)
        p = _expect_dict(cfg["paths"], f"{path}.paths")
        _check_keys(p, f"{path}.paths", {"angles_deg", "amplitudes", "delays_s"}, {"angles_deg"})
        angles = _numbers(p["angles_deg"], f"{path}.paths.angles_deg")
        if "amplitudes" in p:
            field = f"{path}.paths.amplitudes"
            pairs = p["amplitudes"]
            if not isinstance(pairs, list) or len(pairs) != angles.size or not all(
                isinstance(pair, list) and len(pair) == 2 for pair in pairs
            ):
                raise ConfigError(f"{field}: expected {angles.size} [re, im] pairs")
            amp_pairs = np.array([_numbers(pair, f"{field}[{i}]") for i, pair in enumerate(pairs)])
            amps = amp_pairs[:, 0] + 1j * amp_pairs[:, 1]
        else:
            amps = np.ones(angles.size, dtype=complex)
        if "delays_s" in p:
            delays = _numbers(p["delays_s"], f"{path}.paths.delays_s")
        else:
            delays = np.zeros(angles.size)
        return RaypathSet(angles_deg=angles, amplitudes=amps, delays_s=delays)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def _build_signal(cfg: dict, path: str = "signal"):
    cfg = _expect_dict(cfg, path)
    _check_keys(
        cfg, path,
        {"frequency_hz", "band_hz", "num_bins", "num_snapshots", "coherence"},
        {"num_snapshots"},
    )
    if ("frequency_hz" in cfg) == ("band_hz" in cfg):
        raise ConfigError(f"{path}: provide exactly one of 'frequency_hz' or 'band_hz'")
    if "frequency_hz" in cfg:
        nu = _number(cfg, path, "frequency_hz")
        if not 0 < nu < np.inf:
            raise ConfigError(f"{path}.frequency_hz: must be positive and finite, got {nu}")
        band = (nu, nu)
        num_bins = 1
        if "num_bins" in cfg and _integer(cfg, path, "num_bins") != 1:
            raise ConfigError(f"{path}.num_bins: must be 1 for narrowband configs")
    else:
        band_raw = cfg["band_hz"]
        if not isinstance(band_raw, list) or len(band_raw) != 2:
            raise ConfigError(f"{path}.band_hz: expected [low_hz, high_hz]")
        band = tuple(_as_number(v, f"{path}.band_hz[{i}]") for i, v in enumerate(band_raw))
        num_bins = _integer(cfg, path, "num_bins")
    coherence = cfg.get("coherence", "coherent")
    if isinstance(coherence, (int, float)) and not isinstance(coherence, bool):
        coherence = float(coherence)
    elif not isinstance(coherence, str):
        raise ConfigError(
            f"{path}.coherence: expected 'coherent', 'incoherent' or a number"
        )
    num_snapshots = _integer(cfg, path, "num_snapshots")
    try:
        _check_signal(band, num_bins, num_snapshots, coherence)
    except ValueError as e:
        raise ConfigError(f"{path}.{e}") from e
    return band, num_bins, num_snapshots, coherence


_SOLVER_READERS = {"reweight_xi": _number_or_null, "max_reweight_iters": _integer,
                   "inner_tol": _number, "inner_max_iters": _integer}


def _build_solver(cfg, path: str = "solver") -> SolverConfig:
    """``SolverConfig`` from the keys ``cfg`` holds; the rest keep its defaults."""
    cfg = _expect_dict({} if cfg is None else cfg, path)
    _check_keys(cfg, path, set(_SOLVER_READERS), set())
    try:
        return SolverConfig(**_present(cfg, path, _SOLVER_READERS))
    except ValueError as e:
        raise ConfigError(f"{path}.{e}") from e


def _build_algorithms(cfg: dict, path: str) -> tuple:
    algs = cfg.get("algorithms")
    if not isinstance(algs, list) or not algs:
        raise ConfigError(f"{path}.algorithms: expected a non-empty list")
    for a in algs:
        if a not in ALGORITHMS:
            raise ConfigError(
                f"{path}.algorithms: unknown algorithm {a!r} "
                f"(choose from {list(ALGORITHMS)})"
            )
    return tuple(algs)


_SHARED_READERS = {"music_smoothing": _boolean, "epsilon_factor": _number,
                   "delta_factor": _number, "subspace_retry": _boolean}
_SHARED_KEYS = {"geometry", "grid", "algorithms", "solver", *_SHARED_READERS}


def _shared_settings(cfg: dict, keys: set, required: set) -> dict:
    """Keyword arguments for the fields EstimatorSettings and ExperimentPlan share.

    ``keys`` are the command's own top-level keys and ``required`` those it
    needs. An optional shared key the config leaves out is left out here.
    """
    _check_keys(cfg, "config", _SHARED_KEYS | keys, {"geometry", "grid", "algorithms"} | required)
    return {
        "geometry": _build_geometry(cfg["geometry"]),
        "grid": _build_grid(cfg["grid"]),
        "algorithms": _build_algorithms(cfg, "config"),
        **_present(cfg, "config", _SHARED_READERS),
        "solver": _build_solver(cfg.get("solver")),
    }


def _load_config(path: str) -> dict:
    text = Path(path).read_text()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from e
    return _expect_dict(cfg, "config")


def _provenance(cfg: dict, seed) -> tuple:
    h = config_hash(cfg)
    lines = provenance_lines(__version__, h, seed)
    meta = {"version": __version__, "config_sha256": h, "seed": seed}
    return lines, meta


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, "config", {"geometry", "scenario", "signal", "noise"},
                {"geometry", "scenario", "signal", "noise"})
    geometry = _build_geometry(cfg["geometry"])
    paths = _build_paths(cfg["scenario"], geometry)
    band, num_bins, num_snapshots, coherence = _build_signal(cfg["signal"])
    noise_cfg = _expect_dict(cfg["noise"], "noise")
    _check_keys(noise_cfg, "noise", {"snr_db", "seed"}, {"snr_db", "seed"})
    snr_db = _number(noise_cfg, "noise", "snr_db", allow_inf=True)
    seed = args.seed if args.seed is not None else _integer(noise_cfg, "noise", "seed")

    bins = synthesize_broadband(
        paths, band, num_bins, num_snapshots,
        NoiseSpec(snr_db=snr_db, seed=seed), geometry, coherence,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines, meta = _provenance(cfg, seed)
    write_snapshots_csv(out / "snapshots.csv", bins, lines)
    write_truth_json(out / "truth.json", paths, meta)
    print(f"wrote {out / 'snapshots.csv'} and {out / 'truth.json'}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    cfg = _load_config(args.config)
    shared = _shared_settings(cfg, {"num_paths", "focus_frequency_hz", "epsilon"}, {"num_paths"})
    try:
        bins = read_snapshots_csv(args.snapshots)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    geometry = shared["geometry"]
    if bins[0].num_sensors != geometry.num_sensors:
        raise ConfigError(
            f"snapshots have {bins[0].num_sensors} sensors but geometry.num_sensors "
            f"is {geometry.num_sensors}"
        )
    try:
        settings = EstimatorSettings(
            num_paths=_integer(cfg, "config", "num_paths"),
            **_present(cfg, "config", {"focus_frequency_hz": _number_or_null,
                                       "epsilon": _number_or_null}),
            **shared,
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e

    spectra = estimate_spectra(bins, settings)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines, meta = _provenance(cfg, "n/a")
    peaks = {}
    diagnostics = {}
    for alg, spectrum in spectra.items():
        write_spectrum_csv(out / f"{alg}_spectrum.csv", spectrum, lines)
        peaks[alg] = detect_peaks(spectrum, settings.num_paths)
        if hasattr(spectrum, "diagnostics"):
            diagnostics[alg] = spectrum.diagnostics()
    write_peaks_json(out / "peaks.json", peaks, meta)
    if diagnostics:
        diagnostics["_provenance"] = meta
        write_json(out / "diagnostics.json", diagnostics)
    print(f"wrote spectra and {out / 'peaks.json'}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.threads < 1:
        raise ConfigError(f"--threads: expected a positive integer, got {args.threads}")
    cfg = _load_config(args.config)
    shared = _shared_settings(
        cfg,
        {"scenario", "signal", "snr_db", "trials", "seed", "match_window_deg"},
        {"scenario", "signal", "snr_db", "trials", "seed"},
    )
    paths = _build_paths(cfg["scenario"], shared["geometry"])
    band, num_bins, num_snapshots, coherence = _build_signal(cfg["signal"])
    snr_raw = cfg["snr_db"]
    if not isinstance(snr_raw, list) or not snr_raw:
        raise ConfigError("config.snr_db: expected a non-empty list of numbers")
    seed = args.seed if args.seed is not None else _integer(cfg, "config", "seed")
    try:
        plan = ExperimentPlan(
            paths=paths,
            snr_list=tuple(_as_number(s, f"config.snr_db[{i}]", allow_inf=True)
                           for i, s in enumerate(snr_raw)),
            trials=_integer(cfg, "config", "trials"),
            seed=seed,
            band_hz=band,
            num_bins=num_bins,
            num_snapshots=num_snapshots,
            coherence=coherence,
            **_present(cfg, "config", {"match_window_deg": _number}),
            **shared,
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e

    report = run_experiment(plan, threads=args.threads)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines, meta = _provenance(cfg, seed)
    write_report_csv(out / "report.csv", report, lines)
    write_report_json(out / "report.json", report, meta)
    print(f"wrote {out / 'report.csv'} and {out / 'report.json'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raysep",
        description="Raypath separation: simulate, estimate, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("simulate", "synthesize snapshots and ground truth from a scenario"),
        ("estimate", "run estimators on a snapshots file"),
        ("bench", "run a Monte-Carlo RMSE sweep"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if name == "estimate":
            p.add_argument("--snapshots", required=True, help="snapshots CSV path")
        if name == "bench":
            p.add_argument(
                "--threads", type=int, default=1, help="worker threads (default: 1)",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "estimate": _cmd_estimate,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except (SolverInfeasibleError, FocusingError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
