"""One benchmark repetition in a fresh interpreter.

    python3 benchmarks/worker.py WORKLOAD SEED MODE SPAWN_TIME

MODE is `setup` (stop at the first solver call), `timed` or `traced`.
SPAWN_TIME is the parent's time.perf_counter() just before it started
this process; on Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so setup_s runs from before interpreter start to the first
solver call. The worker prints one JSON line with its measurements and
the failed correctness checks. Nothing beyond sys, os and time is
imported before soilcolumn, and the checks run after the timed region.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_out")


class SetupDone(Exception):
    """Raised at the first solver call of a `setup` probe."""


class ReferenceMismatch(Exception):
    """The committed reference was not computed for these inputs."""


def _import_soilcolumn():
    sys.path.insert(0, SRC)
    import soilcolumn

    if not os.path.abspath(soilcolumn.__file__).startswith(SRC + os.sep):
        raise ImportError(f"soilcolumn imported from {soilcolumn.__file__}, not {SRC}")


def run_library(workload, seed, mode, rec):
    """integrate, then mass_balance_audit."""
    import workloads
    from soilcolumn import diagnostics, timestepper

    scenario = workloads.library_scenario(workload, seed)
    grid = scenario.build_grid()
    initial = scenario.initial_state(grid)
    p, bc = scenario.params, scenario.bc
    setup_end = time.perf_counter()
    if mode == "setup":
        return setup_end, setup_end, None

    def solve():
        trace = timestepper.integrate(initial, scenario.t_end, scenario.output_times,
                                      grid, p, bc)
        drift = diagnostics.mass_balance_audit(trace, grid, p, bc)
        return trace, drift

    if rec is not None:
        solve = rec.front_door(solve)
    trace, drift = solve()
    return setup_end, time.perf_counter(), (scenario, trace, drift)


def run_sweep(seed, mode, rec, out_dir):
    """`soilcolumn sweep` over the seed's kappa values, in process."""
    import contextlib
    import io

    import workloads
    from soilcolumn import cli

    kappas = workloads.sweep_kappas(seed)
    argv = ["sweep", "--scenario", "example3", "--param", "kappa",
            "--values", ",".join(repr(k) for k in kappas),
            "--t-end", repr(workloads.SWEEP_T_END), "--out", out_dir]
    first_call = []
    integrate = cli.integrate

    def timed_integrate(*args, **kwargs):
        if not first_call:
            first_call.append(time.perf_counter())
            if mode == "setup":
                raise SetupDone
        return integrate(*args, **kwargs)

    cli.integrate = timed_integrate

    def solve():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    if rec is not None:
        solve = rec.front_door(solve)
    try:
        code = solve()
    except SetupDone:
        return first_call[0], first_call[0], None
    return first_call[0], time.perf_counter(), (kappas, code)


def _reference(workload, seed, scenarios):
    """Committed reference profiles, refused unless made for these inputs."""
    import json
    from pathlib import Path

    import numpy as np

    import workloads

    path = workloads.reference_path(Path(ROOT), workload, seed)
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        profiles = data["profiles"]
    expected = {
        "workload": workload,
        "input_seed": workloads.input_seed(seed),
        "tolerances": workloads.REFERENCE_TOLERANCES,
        "members": [workloads.describe(s) for s in scenarios],
    }
    for key, value in expected.items():
        if json.loads(json.dumps(value)) != meta.get(key):
            raise ReferenceMismatch(
                f"{path.name}: {key} is {meta.get(key)!r}, the workload has {value!r}")
    return profiles


def check_library(workload, seed, result):
    import numpy as np

    import workloads

    scenario, trace, drift = result
    checks = workloads.CHECKS[workload]
    ref = _reference(workload, seed, [scenario])[0]
    failures = []
    if trace.status != "completed":
        failures.append(f"status {trace.status}: {trace.failure_reason}")
    hit = set(trace.times.tolist())
    missed = [t for t in scenario.output_times if t not in hit]
    if missed:
        failures.append(f"output times missed: {missed}")
    s_min = float(trace.profiles.min())
    if s_min < -workloads.NEG_TOL:
        failures.append(f"min(s) = {s_min:.3g}")
    worst_drift = float(np.max(np.abs(drift)))
    if worst_drift > checks.drift_bound:
        failures.append(f"mass drift {worst_drift:.3g} > {checks.drift_bound:.3g}")
    err = np.inf
    if not missed:
        got = np.array([trace.state_at(t).s for t in scenario.output_times])
        err = float(np.max(np.abs(got - ref)))
    if err > checks.err_cap:
        failures.append(f"err_linf {err:.3g} > {checks.err_cap:.3g}")
    return err, failures


def _columns(path):
    import numpy as np

    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_sweep(seed, result, out_dir):
    """Check every artifact the sweep wrote against the bounds and references."""
    import json
    from pathlib import Path

    import numpy as np

    import workloads

    kappas, code = result
    checks = workloads.CHECKS["kappa_sweep"]
    scenarios = [workloads.sweep_scenario(k) for k in kappas]
    refs = _reference("kappa_sweep", seed, scenarios)
    failures = [] if code == 0 else [f"sweep exit status {code}"]
    out = Path(out_dir)
    summary = (out / "sweep_summary.csv").read_text().splitlines()[1:]
    if len(summary) != len(kappas):
        failures.append(f"sweep_summary.csv has {len(summary)} rows")
    err = 0.0
    for kappa, scenario, ref in zip(kappas, scenarios, refs):
        member = out / f"kappa={kappa!r}"
        status = json.loads((member / "events.json").read_text())["solver"]["status"]
        if status != "completed":
            failures.append(f"kappa={kappa!r}: status {status}")
        rows = _columns(member / "profiles.csv")
        for t, ref_profile in zip(scenario.output_times, ref):
            got = rows[rows[:, 0] == t, 2]
            if got.size != ref_profile.size:
                failures.append(f"kappa={kappa!r}: output time {t} missed")
                err = np.inf
                continue
            err = max(err, float(np.max(np.abs(got - ref_profile))))
        s_min = float(_columns(member / "extrema.csv")[:, 1].min())
        if s_min < -workloads.NEG_TOL:
            failures.append(f"kappa={kappa!r}: min(s) = {s_min:.3g}")
        worst_drift = float(np.max(np.abs(_columns(member / "mass.csv")[:, 2])))
        if worst_drift > checks.drift_bound:
            failures.append(f"kappa={kappa!r}: mass drift {worst_drift:.3g} "
                            f"> {checks.drift_bound:.3g}")
    if err > checks.err_cap:
        failures.append(f"err_linf {err:.3g} > {checks.err_cap:.3g}")
    return err, failures


def main(argv):
    workload, seed, mode, spawn = argv[0], int(argv[1]), argv[2], float(argv[3])
    _import_soilcolumn()
    rec = None
    if mode == "traced":
        import tracing

        rec = tracing.Recorder()
        rec.install()

    out_dir = None
    os.makedirs(WORK_DIR, exist_ok=True)
    if workload == "kappa_sweep":
        import tempfile

        out_dir = tempfile.mkdtemp(prefix="sweep-", dir=WORK_DIR)
        setup_end, end, result = run_sweep(seed, mode, rec, out_dir)
    else:
        setup_end, end, result = run_library(workload, seed, mode, rec)

    import json
    import resource
    import shutil

    report = {"setup_s": setup_end - spawn}
    if result is not None:
        report["wall_s"] = end - setup_end
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if out_dir is None:
            report["err_linf"], report["failures"] = check_library(workload, seed, result)
        else:
            report["err_linf"], report["failures"] = check_sweep(seed, result, out_dir)
    if rec is not None:
        if out_dir is not None:
            files = [os.path.join(d, f) for d, _, fs in os.walk(out_dir) for f in fs]
            report["files_written"] = len(files)
            report["bytes_written"] = sum(os.path.getsize(f) for f in files)
        rec.save(os.path.join(WORK_DIR, f"spans-{workload}-seed{seed}.npz"))
        report["layers"], violations = tracing.summarize(rec)
        report["failures"] += [f"trace self-check: {v}" for v in violations]
    if out_dir is not None:
        shutil.rmtree(out_dir)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except ReferenceMismatch as exc:
        print(f"refusing to report err_linf: {exc}", file=sys.stderr)
        sys.exit(3)
