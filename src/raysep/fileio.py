"""Readers and writers for the on-disk formats.

All text outputs are deterministic: floats use the shortest round-trip
representation, rows follow a fixed order, and the only metadata lines are
provenance comments (package version, config hash, seed) prefixed with '#'.
Rerunning a command with the same config and seed reproduces files byte for
byte.

Snapshot CSV layout::

    # raysep snapshots v1
    # version=... config_sha256=... seed=...
    # M=<sensors> L=<snapshots> B=<bins> noise_power=<sigma2>
    # bin=0 frequency_hz=<nu>
    <M rows of 2L comma-separated numbers: re,im,re,im,...>
    # bin=1 frequency_hz=<nu>
    ...

Spectrum CSV: one ``angle_deg,value`` row per grid point (magnitude for
complex spectra). Benchmark report CSV: one row per (algorithm, snr_db,
path_index) with rmse_deg, detection_rate, trials_used.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .simulate import SnapshotMatrix

__all__ = [
    "config_hash",
    "provenance_lines",
    "write_snapshots_csv",
    "read_snapshots_csv",
    "write_truth_json",
    "write_spectrum_csv",
    "write_peaks_json",
    "write_report_csv",
    "write_report_json",
    "write_json",
]


def _fmt(x) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def config_hash(config: dict) -> str:
    """SHA-256 of the canonical (sorted-key, compact) JSON encoding."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def provenance_lines(version: str, cfg_hash: str, seed) -> list:
    return [f"# version={version} config_sha256={cfg_hash} seed={seed}"]


def write_snapshots_csv(path, bins: list, provenance: list) -> None:
    """Write one or more snapshot matrices (one block per frequency bin)."""
    first = bins[0]
    lines = ["# raysep snapshots v1"]
    lines.extend(provenance)
    lines.append(
        f"# M={first.num_sensors} L={first.num_snapshots} B={len(bins)} "
        f"noise_power={_fmt(first.noise_power)}"
    )
    for k, snap in enumerate(bins):
        lines.append(f"# bin={k} frequency_hz={_fmt(snap.frequency_hz)}")
        for row in snap.data:
            cells = []
            for z in row:
                cells.append(_fmt(z.real))
                cells.append(_fmt(z.imag))
            lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def _field(fields: dict, key: str, path, line: str) -> str:
    """The value of ``key`` on a '#' line of a snapshots file."""
    if key not in fields:
        raise ValueError(f"{path}: missing field '{key}' in line '{line}'")
    return fields[key]


def read_snapshots_csv(path) -> list:
    """Parse a snapshots file back into SnapshotMatrix objects.

    Raises:
        ValueError: Naming the file, and the line where there is one, for a
            malformed file: a missing header or field, a data row before the
            header or the first ``# bin=`` line, a row that is not 2L
            numbers, a block without rows, or blocks that disagree with the
            header.
    """
    num_sensors = num_snapshots = num_bins = None
    noise_power = 0.0
    bins = []
    frequency = block_line = None
    rows: list = []

    def flush():
        nonlocal rows
        if frequency is not None:
            if not rows:
                raise ValueError(f"{path}:{block_line}: '# bin=' block has no data rows")
            data = np.asarray(rows)
            bins.append(
                SnapshotMatrix(
                    data=data[:, 0::2] + 1j * data[:, 1::2],
                    frequency_hz=frequency,
                    noise_power=noise_power,
                )
            )
        rows = []

    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = dict(
                kv.split("=", 1) for kv in line[1:].split() if "=" in kv
            )
            if "M" in fields:
                num_sensors = int(fields["M"])
                num_snapshots = int(_field(fields, "L", path, line))
                num_bins = int(_field(fields, "B", path, line))
                noise_power = float(_field(fields, "noise_power", path, line))
            if "bin" in fields:
                flush()
                frequency = float(_field(fields, "frequency_hz", path, line))
                block_line = number
            continue
        if num_snapshots is None:
            raise ValueError(f"{path}:{number}: data row before the '# M=... L=... B=...' header")
        if frequency is None:
            raise ValueError(f"{path}:{number}: data row before the first '# bin=' line")
        try:
            row = [float(c) for c in line.split(",")]
        except ValueError as e:
            raise ValueError(f"{path}:{number}: {e}") from e
        if len(row) != 2 * num_snapshots:
            raise ValueError(
                f"{path}:{number}: row has {len(row)} numbers, expected 2L = {2 * num_snapshots}"
            )
        rows.append(row)
    flush()

    if num_sensors is None:
        raise ValueError(f"{path}: missing '# M=... L=... B=...' header")
    if len(bins) != num_bins:
        raise ValueError(f"{path}: header says B={num_bins} but found {len(bins)} blocks")
    for snap in bins:
        if snap.data.shape != (num_sensors, num_snapshots):
            raise ValueError(
                f"{path}: block shape {snap.data.shape} does not match header "
                f"({num_sensors}, {num_snapshots})"
            )
    return bins


def write_truth_json(path, paths, provenance_meta: dict) -> None:
    """Ground-truth arrivals as JSON (complex amplitudes as [re, im])."""
    payload = {
        "_provenance": provenance_meta,
        "angles_deg": [float(a) for a in paths.angles_deg],
        "amplitudes": [[float(a.real), float(a.imag)] for a in paths.amplitudes],
        "delays_s": [float(d) for d in paths.delays_s],
    }
    write_json(path, payload)


def write_spectrum_csv(path, spectrum, provenance: list) -> None:
    """Spectrum as angle_deg,value rows (magnitude for complex values)."""
    values = np.abs(np.asarray(spectrum.values))
    lines = [f"# raysep spectrum v1 algorithm={spectrum.method}"]
    lines.extend(provenance)
    lines.append("# angle_deg,value")
    for angle, value in zip(spectrum.grid.angles_deg, values):
        lines.append(f"{_fmt(angle)},{_fmt(value)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_peaks_json(path, peaks_by_algorithm: dict, provenance_meta: dict) -> None:
    payload = {
        "_provenance": provenance_meta,
        "peaks_deg": {
            alg: [float(a) for a in angles]
            for alg, angles in peaks_by_algorithm.items()
        },
    }
    write_json(path, payload)


def write_report_csv(path, report, provenance: list) -> None:
    lines = ["# raysep bench-report v1"]
    lines.extend(provenance)
    lines.append("algorithm,snr_db,path_index,rmse_deg,detection_rate,trials_used")
    for row in report.rows():
        lines.append(
            ",".join(
                [
                    row["algorithm"],
                    _fmt(row["snr_db"]),
                    str(row["path_index"]),
                    _fmt(row["rmse_deg"]),
                    _fmt(row["detection_rate"]),
                    str(row["trials_used"]),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_report_json(path, report, provenance_meta: dict) -> None:
    payload = report.to_json_dict()
    payload["_provenance"] = provenance_meta
    write_json(path, payload)


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
