"""Smoke test of the demo scripts: each runs to completion.

Demos 01-04 take about 5 s together; demo 04 runs ``subspace_cs`` on a
coherent Table-1 scene. ``05_benchmark_rmse.py`` is left out because its
Monte-Carlo sweep takes about 40 s. Each demo runs in its own process with
a temporary working directory, which receives any figure it saves.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import raysep

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SOURCES = Path(raysep.__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    [
        "01_steering_and_dictionary.py",
        "02_waveguide_simulation.py",
        "03_frequency_smoothing.py",
        "04_raypath_separation.py",
    ],
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SOURCES), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
