"""The soilcolumn names the benchmark harness reaches still exist, so a
rename fails here and not only in a traced benchmark run or in a
reference regeneration."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# In a process of its own, because install() replaces module attributes
# of the package it wraps.
SCRIPT = """
import sys
sys.path[:0] = sys.argv[1:]
import tracing, workloads
from soilcolumn.timestepper import SolverSettings
tracing.Recorder().install()
SolverSettings(**workloads.REFERENCE_TOLERANCES)
"""


def test_tracer_and_reference_settings_find_their_names():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "benchmarks")],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
