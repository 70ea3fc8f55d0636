"""In-memory span tracing of raysep, done by rebinding module attributes.

A traced sweep swaps the public functions that ``raysep.bench`` and
``raysep.spectral`` call for wrappers that time them, and puts the
originals back afterwards, so untraced sweeps run the unmodified package
and no file of the package changes.

Each span records its name, start, end, the span that caused it and the
Monte-Carlo cell it belongs to. The harness has no call per cell, so a
cell is delimited from outside: it opens at the cell's first call,
``synthesize_broadband``, and closes at the next one in the same thread,
at report assembly (the first ``rmse`` call in that thread) or when
``run_experiment`` returns. Its end is the end of its last span.

``layer_metrics`` reads one sweep's spans: ``<span>.calls`` and
``<span>.busy_s`` (summed duration, nested calls included);
``focusing_transform.distinct_ratio``, distinct (from, to, grid, geometry)
keys over calls; per solver the summed reported ``iterations``, calls that
raised ``SolverInfeasibleError`` (``infeasible``), all-zero
(``zero_spectra``) and ``converged=False`` (``not_converged``) spectra, the
median nonzero count (``support_p50``), spectra later peak-picked over
calls (``useful_ratio``, so a retried solve is wasted work) and, where the
call's inputs allow, ``residual_mismatch``: solves whose reported residual
differs from the recomputed one. ``bench.cell.*`` describe cell durations,
``bench.self_s`` is the ``run_experiment`` wall not covered by its child
spans and ``bench.executor.efficiency`` is summed cell time over
wall x workers.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import threading
from contextlib import contextmanager
from itertools import count
from time import perf_counter

import numpy as np

# (module, attribute, span name). The span name is "<layer>.<function>",
# where the layer is the package module that defines the function.
TRACED = (
    ("raysep.bench", "run_experiment", "bench.run_experiment"),
    ("raysep.bench", "synthesize_broadband", "simulate.synthesize_broadband"),
    ("raysep.bench", "build_dictionary", "arrays.build_dictionary"),
    ("raysep.spectral", "build_dictionary", "arrays.build_dictionary"),
    ("raysep.bench", "estimate_spectral_matrix", "spectral.estimate_spectral_matrix"),
    ("raysep.spectral", "estimate_spectral_matrix", "spectral.estimate_spectral_matrix"),
    ("raysep.bench", "focus_and_smooth", "spectral.focus_and_smooth"),
    ("raysep.spectral", "focusing_transform", "spectral.focusing_transform"),
    ("raysep.bench", "decompose", "subspace.decompose"),
    ("raysep.bench", "build_lifted_system", "subspace.build_lifted_system"),
    ("raysep.bench", "choose_delta", "solvers.choose_delta"),
    ("raysep.bench", "subspace_cs", "solvers.subspace_cs"),
    ("raysep.bench", "bpdn", "solvers.bpdn"),
    ("raysep.bench", "reweighted_cs", "solvers.reweighted_cs"),
    ("raysep.bench", "music_spectrum", "baselines.music_spectrum"),
    ("raysep.bench", "cbf_spectrum", "baselines.cbf_spectrum"),
    ("raysep.bench", "detect_peaks", "bench.detect_peaks"),
    ("raysep.bench", "rmse", "bench.rmse"),
    ("raysep.fileio", "write_report_csv", "fileio.write_report_csv"),
    ("raysep.fileio", "write_report_json", "fileio.write_report_json"),
)

SOLVERS = ("subspace_cs", "bpdn", "reweighted_cs")
# Solvers whose residual can be recomputed from the call's public inputs.
RECOMPUTED = ("subspace_cs", "bpdn")
_RUN = "bench.run_experiment"
_CELL = "bench.cell"
_RESIDUAL_RTOL = 1e-6
_FEASIBILITY_SLACK = 1e-6


class Span:
    __slots__ = ("id", "parent", "cell", "name", "start", "end", "info")

    def __init__(self, id, parent, cell, name, start, end, info=None):
        self.id = id
        self.parent = parent
        self.cell = cell
        self.name = name
        self.start = start
        self.end = end
        self.info = info

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        out = {
            "id": self.id,
            "parent": self.parent,
            "cell": self.cell,
            "name": self.name,
            "start": self.start,
            "end": self.end,
        }
        if self.info:
            out["info"] = {k: v for k, v in self.info.items() if k != "key"}
        return out


class _Cell:
    __slots__ = ("id", "span", "depth", "start", "last_end", "snr_db")

    def __init__(self, id, span, depth, start, snr_db):
        self.id = id
        self.span = span
        self.depth = depth  # open spans of the thread when the cell began
        self.start = start
        self.last_end = start
        self.snr_db = snr_db


def _solver_info(solver: str, bound_args, spectrum) -> dict:
    values = np.asarray(spectrum.values)
    info = {
        "iterations": int(spectrum.iterations),
        "converged": bool(spectrum.converged),
        "residual": float(spectrum.residual),
        "bound": float(spectrum.residual_bound),
        "support": int(np.count_nonzero(values)),
        "zero": not np.any(values),
        "used": False,
    }
    if solver == "subspace_cs":
        lifted = bound_args["lifted"]
        data, matrix = lifted.vector, lifted.matrix
    elif solver == "bpdn":
        snapshot = bound_args["snapshot"]
        data = np.asarray(getattr(snapshot, "data", snapshot)).reshape(-1)
        matrix = bound_args["dictionary"].matrix
    else:
        return info
    info["recomputed"] = float(np.linalg.norm(data - matrix @ values))
    info["data_norm"] = float(np.linalg.norm(data))
    return info


def residual_mismatch(info: dict) -> bool:
    """Reported residual differs from the one recomputed from the inputs."""
    tol = _RESIDUAL_RTOL * max(info["recomputed"], info["residual"]) + 1e-12 * info["data_norm"]
    return abs(info["recomputed"] - info["residual"]) > tol


class Tracer:
    """Spans of one sweep, recorded while ``installed()`` is active."""

    def __init__(self):
        self.spans: list = []
        self._ids = count(1)
        self._cell_ids = count(1)
        self._stacks: dict = {}  # thread -> open span ids
        self._cells: dict = {}  # thread -> open _Cell
        self._root = None  # id of the open run_experiment span
        self._unused: dict = {}  # id(spectrum) -> (spectrum, info) not yet peak-picked
        self._signatures: dict = {}

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name in TRACED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:  # the package no longer calls it; its metrics read 0
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _wrap(self, name, fn):
        self._signatures[name] = inspect.signature(fn)

        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _call(self, name, fn, args, kwargs):
        tid = threading.get_ident()
        if name == "simulate.synthesize_broadband":
            self._open_cell(tid, self._bind(name, args, kwargs))
        elif name == "bench.rmse":
            self._close_cell(tid)
        stack = self._stacks.setdefault(tid, [])
        cell = self._cells.get(tid)
        if cell is not None and len(stack) <= cell.depth:
            parent = cell.span
        elif stack:
            parent = stack[-1]
        else:
            parent = self._root
        sid = next(self._ids)
        if name == _RUN:
            self._root = sid
        stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            end = perf_counter()
            stack.pop()
            self._record(sid, parent, cell, name, start, end, {"error": type(exc).__name__})
            raise
        end = perf_counter()
        stack.pop()
        self._record(sid, parent, cell, name, start, end, self._info(name, args, kwargs, result))
        return result

    def _bind(self, name, args, kwargs):
        return self._signatures[name].bind(*args, **kwargs).arguments

    def _info(self, name, args, kwargs, result):
        layer, _, function = name.partition(".")
        if layer == "solvers" and function in SOLVERS:
            info = _solver_info(function, self._bind(name, args, kwargs), result)
            self._unused[id(result)] = (result, info)
            return info
        if name == "bench.detect_peaks":
            entry = self._unused.pop(id(self._bind(name, args, kwargs)["spectrum"]), None)
            if entry is not None:
                entry[1]["used"] = True
        elif name == "spectral.focusing_transform":
            a = self._bind(name, args, kwargs)
            g = a["geometry"]
            key = (
                float(a["from_frequency_hz"]),
                float(a["to_frequency_hz"]),
                a["grid"].angles_deg.tobytes(),
                (g.num_sensors, g.spacing_m, g.sound_speed_mps, g.reference_index),
            )
            return {"key": key}
        return None

    def _record(self, sid, parent, cell, name, start, end, info):
        if name == _RUN:
            for tid in list(self._cells):
                self._close_cell(tid)
            self._root = None
        self.spans.append(Span(sid, parent, cell.id if cell else None, name, start, end, info))
        if cell is not None and end > cell.last_end:
            cell.last_end = end

    def _open_cell(self, tid, arguments):
        self._close_cell(tid)
        noise = arguments.get("noise")
        self._cells[tid] = _Cell(
            next(self._cell_ids),
            next(self._ids),
            len(self._stacks.get(tid, ())),
            perf_counter(),
            getattr(noise, "snr_db", None),
        )

    def _close_cell(self, tid):
        cell = self._cells.pop(tid, None)
        if cell is not None:
            self.spans.append(
                Span(cell.span, self._root, cell.id, _CELL, cell.start, cell.last_end,
                     {"snr_db": cell.snr_db})
            )


def _union_length(intervals) -> float:
    total = 0.0
    end = -np.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _p(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list, workers: int) -> dict:
    """Per-layer numbers of one traced sweep, keyed by metric name."""
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def of(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(s.duration for s in of(name))

    m = {}
    for name in (
        "simulate.synthesize_broadband",
        "arrays.build_dictionary",
        "spectral.focus_and_smooth",
        "spectral.estimate_spectral_matrix",
        "spectral.focusing_transform",
    ):
        m[f"{name}.calls"] = len(of(name))
        m[f"{name}.busy_s"] = busy(name)
    transforms = of("spectral.focusing_transform")
    keys = {s.info["key"] for s in transforms if s.info and "key" in s.info}
    m["spectral.focusing_transform.distinct_ratio"] = len(keys) / len(transforms) if transforms else 0.0
    for name in (
        "subspace.decompose",
        "subspace.build_lifted_system",
        "solvers.choose_delta",
    ):
        m[f"{name}.busy_s"] = busy(name)

    for solver in SOLVERS:
        name = f"solvers.{solver}"
        calls = of(name)
        done = [s.info for s in calls if s.info and "error" not in s.info]
        m[f"{name}.calls"] = len(calls)
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.iterations"] = sum(i["iterations"] for i in done)
        m[f"{name}.infeasible"] = sum(
            1 for s in calls if s.info and s.info.get("error") == "SolverInfeasibleError"
        )
        m[f"{name}.zero_spectra"] = sum(1 for i in done if i["zero"])
        m[f"{name}.not_converged"] = sum(1 for i in done if not i["converged"])
        m[f"{name}.support_p50"] = _p([i["support"] for i in done], 50)
        m[f"{name}.useful_ratio"] = (
            sum(1 for i in done if i["used"]) / len(calls) if calls else 0.0
        )
        if solver in RECOMPUTED:
            m[f"{name}.residual_mismatch"] = sum(1 for i in done if residual_mismatch(i))

    for name in (
        "baselines.music_spectrum",
        "baselines.cbf_spectrum",
        "bench.detect_peaks",
        "bench.rmse",
    ):
        m[f"{name}.busy_s"] = busy(name)

    cells = [s.duration for s in of(_CELL)]
    m["bench.cell.count"] = len(cells)
    m["bench.cell.p50_s"] = _p(cells, 50)
    m["bench.cell.p90_s"] = _p(cells, 90)
    runs = of(_RUN)
    wall = sum(s.duration for s in runs)
    run_ids = {s.id for s in runs}
    children = [(s.start, s.end) for s in spans if s.parent in run_ids]
    m["bench.self_s"] = wall - _union_length(children)
    m["bench.executor.efficiency"] = sum(cells) / (wall * workers) if wall > 0 else 0.0
    for name in ("fileio.write_report_csv", "fileio.write_report_json"):
        m[f"{name}.busy_s"] = busy(name)
    return m


def unit_of(metric: str) -> str:
    """Unit of a ``layer_metrics`` key."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", ".efficiency")):
        return "ratio"
    return "count"


def converged_residual_violations(spans: list) -> tuple:
    """(checked, violating) converged solves whose recomputed residual exceeds the bound."""
    checked = violating = 0
    for s in spans:
        info = s.info
        if not info or "recomputed" not in info or not info["converged"]:
            continue
        checked += 1
        limit = info["bound"] * (1.0 + _FEASIBILITY_SLACK) + 1e-12 * info["data_norm"]
        if info["recomputed"] > limit:
            violating += 1
    return checked, violating


def stage_table(spans: list) -> list:
    """Text rows: mean time per cell [ms] of each stage called by a cell, by SNR."""
    cells = {s.id: s for s in spans if s.name == _CELL}
    per_snr: dict = {}
    stages: list = []
    for cell in cells.values():
        per_snr.setdefault(cell.info["snr_db"], []).append(cell)
    sums: dict = {}
    for s in spans:
        if s.parent in cells:
            if s.name not in stages:
                stages.append(s.name)
            sums[(s.parent, s.name)] = sums.get((s.parent, s.name), 0.0) + s.duration
    snrs = sorted(per_snr, key=lambda v: (v is None, v))
    header = f"{'stage [ms per cell]':<34}" + "".join(f"{f'{v:g} dB':>12}" for v in snrs)
    rows = [header]
    for stage in stages + [_CELL]:
        line = f"{stage:<34}"
        for snr in snrs:
            group = per_snr[snr]
            if stage == _CELL:
                ms = statistics.fmean(c.duration for c in group) * 1e3
            else:
                ms = statistics.fmean(sums.get((c.id, stage), 0.0) for c in group) * 1e3
            line += f"{ms:12.2f}"
        rows.append(line)
    return rows
