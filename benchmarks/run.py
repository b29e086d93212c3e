"""The soilcolumn benchmark: time to solution, accuracy and memory.

    python3 benchmarks/run.py --workload redistribution --seed 0 --seconds 44 --trace 0

Run from the root of a source checkout; the package is imported from
src/, never from an installed copy. Workloads (see workloads.py and
README.md in this directory):

  redistribution  example1 (n=500, sealed ends, t_end=2500) through
                  integrate and mass_balance_audit
  fine_front      example3 at kappa=0.005, d=0.001 (n=5000), t_end=0.01
  kappa_sweep     `soilcolumn sweep` of example3 over three kappa values
                  to t=0.1, in process, artifacts in a temporary directory

Every repetition runs in a fresh single-threaded worker process, one at
a time. A run repeats the workload while another repetition still fits
in --seconds. In an untraced run, set-up probes, workers that stop at
the first solver call, fill the gaps between repetitions and the time
left after the last one at one per SETUP_PROBE_EVERY_S, so the set-up
samples spread over the whole run. The run reports the median wall_s
and the minimum setup_s. With --trace 1 one extra repetition is traced
first, and the per-layer metrics are printed instead of the end-to-end
ones. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"
# An untraced run starts one set-up probe per SETUP_PROBE_EVERY_S of its
# time, in the gaps between repetitions.
SETUP_PROBE_EVERY_S = 1.5
WORKER_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result; nothing is printed."""


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, mode: str, env: dict) -> dict:
    spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), workload, str(seed), mode,
             repr(spawn)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failures": [f"worker killed after {WORKER_TIMEOUT_S} s"]}
    if proc.returncode == 3:
        raise BenchmarkError(proc.stderr.strip())
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"failures": [f"worker exit status {proc.returncode}: {tail[0]}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_setup(workload: str, seed: int, count: int, env: dict) -> list[float]:
    """setup_s of count workers that stop at the first solver call."""
    probes = [run_worker(workload, seed, "setup", env) for _ in range(count)]
    failed = next((p for p in probes if "setup_s" not in p), None)
    if failed is not None:
        raise BenchmarkError(f"set-up failed: {failed['failures']}")
    return [p["setup_s"] for p in probes]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: the printed JSON object."""
    started = time.perf_counter()
    deadline = started + seconds
    env = _worker_env()
    traced = run_worker(workload, seed, "traced", env) if trace else None
    setup, reps, longest = [], [], 0.0
    while True:
        t0 = time.perf_counter()
        if not trace:
            due = round((t0 - started) / SETUP_PROBE_EVERY_S) - len(setup)
            setup += probe_setup(workload, seed, max(1, due), env)
        reps.append(run_worker(workload, seed, "timed", env))
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() + longest > deadline:
            break
    # No repetition fits in the time left: keep probing set-up at the same pace.
    next_probe = time.perf_counter()
    while not trace and next_probe + SETUP_PROBE_EVERY_S < deadline:
        time.sleep(max(0.0, next_probe - time.perf_counter()))
        setup += probe_setup(workload, seed, 1, env)
        next_probe += SETUP_PROBE_EVERY_S

    done = [r for r in reps if "wall_s" in r]
    if not done:
        raise BenchmarkError(f"every repetition failed: {reps[0]['failures']}")
    attempted = reps + ([traced] if traced else [])
    failed = [r for r in attempted if r["failures"]]
    for r in failed:
        print(f"failed: {'; '.join(r['failures'])}")
    wall = statistics.median(r["wall_s"] for r in done)
    setup += [r["setup_s"] for r in done]
    if trace:
        if "layers" not in traced:
            raise BenchmarkError(f"traced repetition failed: {traced['failures']}")
        values = dict(traced["layers"])
        values["cli.bytes_written"] = traced.get("bytes_written", 0)
        values["cli.files_written"] = traced.get("files_written", 0)
        values["trace.overhead_s"] = traced["wall_s"] - wall
        listed = "per_layer"
    else:
        values = {
            "wall_s": wall,
            "setup_s": min(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
            "err_linf": statistics.median(r["err_linf"] for r in done),
        }
        listed = "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[listed]
    if {m["name"] for m in spec} != set(values):
        raise BenchmarkError(f"measured {sorted(values)}, BENCHMARK.json lists "
                             f"{sorted(m['name'] for m in spec)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for name, m in metrics.items():
        print(f"{workload} seed={seed} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload} seed={seed}: {len(done)} timed repetitions, walls "
          + ", ".join(f"{r['wall_s']:.3f}" for r in done) + " s")
    print(f"{workload} seed={seed}: {len(setup)} set-ups, median "
          f"{statistics.median(setup):.4f} s")
    return {"correct": not failed, "attempted": len(attempted), "failed": len(failed),
            "metrics": metrics}


def build() -> None:
    """Byte-compile the package, as an installed copy would be."""
    package = ROOT / "src" / "soilcolumn"
    if not (package / "__init__.py").is_file():
        raise BenchmarkError(f"no soilcolumn package at {package}")
    if not compileall.compile_dir(str(package), quiet=1):
        raise BenchmarkError("soilcolumn does not compile")
    (ROOT / ".bench_out").mkdir(exist_ok=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        build()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [measure(name, args.seed, args.seconds, bool(args.trace))
                   for name in names]
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
