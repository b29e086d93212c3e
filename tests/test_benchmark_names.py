"""The soilcolumn names the benchmark harness reaches still exist, so a
rename fails here and not only in a traced benchmark run or in a
reference regeneration. The same process runs the tracer's self-check:
a library run and a command-line sweep must keep its count identities."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# In a process of its own, because install() replaces module attributes
# of the package it wraps. Arguments: the src/ and benchmarks/
# directories, then the sweep's output directory.
SCRIPT = """
import contextlib, io, sys
sys.path[:0] = sys.argv[1:3]
import tracing, workloads
from soilcolumn import cli, timestepper
from soilcolumn.scenarios import example3
from soilcolumn.timestepper import SolverSettings
rec = tracing.Recorder()
rec.install()
SolverSettings(**workloads.REFERENCE_TOLERANCES)

scn = example3()
grid = scn.build_grid()
rec.front_door(timestepper.integrate)(
    scn.initial_state(grid), 0.01, [0.01], grid, scn.params, scn.bc)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["sweep", "--scenario", "example3", "--param", "kappa",
                     "--values", "0.01,0", "--t-end", "0.01", "--out", sys.argv[3]])
assert code == 0, code
layers, violations = tracing.summarize(rec)
assert violations == [], violations
assert layers["tridiag.solve.calls"] > 0 and layers["timestepper.steps_accepted"] > 0
"""


def test_tracer_and_reference_settings_find_their_names(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "benchmarks"),
         str(tmp_path / "sweep")],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
