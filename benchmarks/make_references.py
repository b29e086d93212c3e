"""Regenerate the err_linf references in benchmarks/references/.

Each reference holds the profiles at the workload's output times,
computed by the repository's own integrator at rel_tol=1e-8 and
abs_tol=1e-9 on the workload's grid, with a JSON description of the
inputs it was computed for and the commit that computed it. The
benchmark refuses to report err_linf when that description does not
match the inputs it generates.

To bound memory (integrate keeps every accepted profile) each interval
between output times is integrated in CHUNKS equal pieces, keeping only
the end state of each; the step-size controller restarts at dt_init at
every piece.

Run from the repository root, one process per workload and seed:

    python3 benchmarks/make_references.py --workload fine_front --seed 1
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import soilcolumn  # noqa: E402
import workloads  # noqa: E402
from soilcolumn.timestepper import SolverSettings  # noqa: E402

CHUNKS = 50


def reference_profiles(scenario) -> tuple[np.ndarray, int]:
    """Profiles at scenario.output_times and the accepted step count."""
    grid = scenario.build_grid()
    settings = SolverSettings(**workloads.REFERENCE_TOLERANCES)
    state = scenario.initial_state(grid)
    profiles, steps = [], 0
    for t_out in scenario.output_times:
        for t_next in np.linspace(state.time, t_out, CHUNKS + 1)[1:].tolist():
            trace = soilcolumn.integrate(state, t_next, (), grid, scenario.params,
                                         scenario.bc, settings)
            if trace.status != "completed":
                raise RuntimeError(f"reference run failed: {trace.failure_reason}")
            steps += len(trace) - 1
            state = trace.final
        profiles.append(state.s.copy())
    return np.array(profiles), steps


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, choices=(0, workloads.HELD_OUT_SEED),
                        required=True)
    args = parser.parse_args()

    started = time.perf_counter()
    members = workloads.members(args.workload, args.seed)
    results = [reference_profiles(m) for m in members]
    meta = {
        "workload": args.workload,
        "input_seed": workloads.input_seed(args.seed),
        "tolerances": workloads.REFERENCE_TOLERANCES,
        "commit": _commit(),
        "chunks_per_output_interval": CHUNKS,
        "steps_accepted": [steps for _, steps in results],
        "members": [workloads.describe(m) for m in members],
    }
    path = workloads.reference_path(ROOT, args.workload, args.seed)
    path.parent.mkdir(exist_ok=True)
    np.savez_compressed(path, profiles=np.array([p for p, _ in results]),
                        meta=np.array(json.dumps(meta, sort_keys=True)))
    print(f"{path.relative_to(ROOT)}: {meta['steps_accepted']} steps, "
          f"{time.perf_counter() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
