"""Batch front door: run scenarios or parameter sweeps, write artifacts.

A run produces plot-ready CSV/JSON files in its output directory:

    profiles.csv   t,z,s               profile at every requested output time
    mass.csv       t,mass,drift        column mass and audit drift per step
    extrema.csv    t,s_min,s_max       range of the profile per step
    events.json    detected events, the solver status and the rejected
                   steps by cause
    config.json    the resolved configuration; feeding it back through
                   --config reproduces the run bit for bit

A run is configured by one JSON document, the --config file or
{"scenario": NAME}, with the command-line values laid over it: a
command-line value always replaces the file's. _resolve lays it over the
sections of its preset's column (example1's for an inline document) and
checks every key and number on that one path, once, then builds the
run's Scenario, SolverSettings and config.json echo. A run is a sweep of
one member: main resolves every member before the first solve and runs
each through _execute; only a sweep writes sweep_summary.csv.

Exit status: 0 success, 1 configuration or usage error, 2 solver
failure (the artifacts up to the failure time are still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Optional

from . import diagnostics, scenarios
from .discretization import BoundarySpec, Dirichlet, Flux, Robin
from .model import Parameters
from .timestepper import FAILED, SolverSettings, integrate

# Events every run reports: the stickiness threshold crossing of the
# column maximum, the settling of the max-min gap, the final wetting
# front depth, and the column maximum leaving the physical range s <= 1.
GAP_THRESHOLD = 0.1
FRONT_THRESHOLD = 0.05

# Config key of each Parameters field, with the field's value per unit of
# the key's: alpha_g2 is 2*alpha_g and h the column depth.
_PARAM_KEYS = {
    "kappa": ("kappa", 1.0),
    "alpha_g2": ("alpha_g", 0.5),
    "s_bar": ("s_bar", 1.0),
    "h": ("depth_h", 1.0),
}
_SET_KEYS = (*_PARAM_KEYS, "d")
_SOLVER_KEYS = tuple(f.name for f in dataclasses.fields(SolverSettings))
_TOP_KEYS = ("scenario", "params", "ic", "bc", "grid", "t_end",
             "output_times", "set", "solver")
_END_CONDITIONS = {"dirichlet": Dirichlet, "flux": Flux, "robin": Robin}
# The events every run reports, as (kind, threshold, the field of the event
# that sweep_summary.csv shows, and its column there); a threshold of None
# means the run's s_bar.
_EVENTS = ((diagnostics.MAX_BELOW_SBAR, None, "time", "t_max_below_sbar"),
           (diagnostics.MAXMIN_BELOW_GAP, GAP_THRESHOLD, "time", "t_gap_below"),
           (diagnostics.FRONT_DEPTH, FRONT_THRESHOLD, "value", "front_depth"),
           (diagnostics.MAX_ABOVE_ONE, 1.0, "time", "t_max_above_one"))


class ConfigError(ValueError):
    """Invalid configuration; reported on stderr with exit status 1."""


def _fail(where: str, message: str) -> "ConfigError":
    return ConfigError(f"{where}: {message}")


class _Parser(argparse.ArgumentParser):
    """Usage errors, its subparsers' too, as configuration errors (exit 1)."""

    def error(self, message):
        raise _fail(self.prog, message)


def _check_keys(obj, allowed: tuple[str, ...], where: str) -> dict:
    if not isinstance(obj, dict):
        raise _fail(where, f"expected an object with keys {sorted(allowed)}")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise _fail(where, f"unknown keys {unknown}; allowed: {sorted(allowed)}")
    return obj


def _number(value, where: str) -> float:
    """value as a float. Numeric strings, the command line's values, pass;
    JSON booleans do not."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise _fail(where, f"not a number: {value!r}")


def _numbers(obj, allowed: tuple[str, ...], where: str) -> dict:
    """obj with its keys checked against allowed and every value a float."""
    _check_keys(obj, allowed, where)
    return {key: _number(value, f"{where}.{key}") for key, value in obj.items()}


def _built(make, where: str, **kwargs):
    """make(**kwargs), with the ValueError or TypeError it raises reported
    as a configuration error."""
    try:
        return make(**kwargs)
    except (TypeError, ValueError) as exc:
        raise _fail(where, str(exc)) from None


def _end_condition(obj, where: str):
    kind = obj.get("type") if isinstance(obj, dict) else None
    cls = _END_CONDITIONS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise _fail(where, f"need type dirichlet, flux or robin, got {obj!r}")
    names = tuple(f.name for f in dataclasses.fields(cls))
    numbers = _numbers({k: v for k, v in obj.items() if k != "type"}, names, where)
    missing = [name for name in names if name not in numbers]
    if missing:
        raise _fail(where, f"missing keys {missing} for type {kind!r}")
    return _built(cls, where, **numbers)


def _sections(scenario: scenarios.Scenario) -> dict:
    """The params, ic, bc and grid sections of a configuration document
    that describe scenario's column."""
    kinds = {cls: name for name, cls in _END_CONDITIONS.items()}
    return {
        "params": {key: getattr(scenario.params, field) / scale
                   for key, (field, scale) in _PARAM_KEYS.items()},
        "ic": [list(point) for point in scenario.ic.breakpoints],
        "bc": {end: {"type": kinds[type(cond)], **dataclasses.asdict(cond)}
               for end, cond in (("top", scenario.bc.top),
                                 ("bottom", scenario.bc.bottom))},
        "grid": {"d": scenario.d},
    }


def _breakpoints(points) -> list[tuple[float, float]]:
    """The [z, s] pairs of an inline ic, as numbers."""
    if not isinstance(points, list) or not all(
            isinstance(point, list) and len(point) == 2 for point in points):
        raise _fail("ic", f"expected a list of [z, s] pairs, got {points!r}")
    return [(_number(z, "ic"), _number(s, "ic")) for z, s in points]


def _load(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise _fail(path, f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (OSError, ValueError) as exc:
        raise _fail(path, str(exc)) from None
    if not isinstance(doc, dict):
        raise _fail(path, "top level must be an object")
    return doc


def _laid_over(doc: dict, section: str, values: dict) -> dict:
    """doc with values laid over its section, which must be an object."""
    base = doc.get(section, {})
    if not isinstance(base, dict):
        raise _fail(section, f"expected an object, got {base!r}")
    return {**doc, section: {**base, **values}}


def _document(args) -> dict:
    """The run's configuration document with the command-line values laid over it."""
    if (args.config is None) == (args.scenario is None):
        raise _fail("arguments", "need exactly one of --scenario and --config")
    doc = _load(args.config) if args.config is not None else {"scenario": args.scenario}
    overrides = {}
    for pair in args.set or ():
        key, eq, value = pair.partition("=")
        if not eq:
            raise _fail("--set", f"expected key=value, got {pair!r}")
        overrides[key] = value
    if overrides:
        doc = _laid_over(doc, "set", overrides)
    if args.t_end is not None:
        doc["t_end"] = args.t_end
    if args.output_times is not None:
        doc["output_times"] = args.output_times.split(",")
    return doc


def _resolve(doc: dict) -> tuple[scenarios.Scenario, SolverSettings, dict]:
    """The Scenario and SolverSettings of a configuration document, and
    the config.json echo of their values.

    Every key and number is checked here, once, against the values the
    run will use: set replaces params, and the IC is checked against the
    final column depth.
    """
    _check_keys(doc, _TOP_KEYS, "config")
    name = doc.get("scenario")
    if name is not None:
        inline = [key for key in ("params", "ic", "bc", "grid") if key in doc]
        if inline:
            raise _fail("config", f"scenario and inline fields {inline} are exclusive")
        base = _built(scenarios.by_name, "scenario", name=name)
        doc, preset_times = {"t_end": base.t_end, **doc}, base.output_times
    elif "ic" not in doc or "t_end" not in doc:
        raise _fail("config", "need a scenario name, or an inline ic and t_end")
    else:
        # An inline column takes the sections and params its document
        # leaves out from the presets' column.
        base, preset_times = scenarios.example1(), ()
    sections = _sections(base)
    doc = {**sections, **doc}

    ic = _built(scenarios.ic_from_breakpoints, "ic", points=_breakpoints(doc["ic"]))
    ends = _check_keys(doc["bc"], ("top", "bottom"), "bc")
    bc = BoundarySpec(top=_end_condition(ends.get("top"), "bc.top"),
                      bottom=_end_condition(ends.get("bottom"), "bc.bottom"))
    d = _number(_check_keys(doc["grid"], ("d",), "grid").get("d"), "grid.d")
    sets = _numbers(doc.get("set", {}), _SET_KEYS, "set")
    numbers = {**sections["params"],
               **_numbers(doc["params"], tuple(_PARAM_KEYS), "params"), **sets}
    params = _built(Parameters, "params", **{
        field: scale * numbers[key] for key, (field, scale) in _PARAM_KEYS.items()})
    d = sets.get("d", d)
    t_end = _number(doc["t_end"], "t_end")
    if not 0.0 <= t_end < math.inf:
        raise _fail("t_end", f"must be finite and >= 0, got {t_end}")
    if "output_times" in doc:
        times = doc["output_times"]
        if not isinstance(times, list):
            raise _fail("output_times", f"not a list of numbers: {times!r}")
        times = [_number(t, "output_times") for t in times]
        bad = [t for t in times if not 0.0 <= t <= t_end]
        if bad:
            raise _fail("output_times", f"{bad} outside [0, t_end={t_end}]")
    else:
        # A preset's output times past a shortened t_end are dropped.
        times = [t for t in preset_times if t <= t_end]
    output_times = tuple(sorted(set(times))) or (t_end,)
    scenario = _built(scenarios.Scenario, "config", params=params, d=d, ic=ic,
                      bc=bc, t_end=t_end, output_times=output_times)
    _built(scenario.build_grid, "grid")  # rejects a cell width outside (0, h]

    solver = _numbers(doc.get("solver", {}), _SOLVER_KEYS, "solver")
    iters = solver.get("newton_max_iter", SolverSettings.newton_max_iter)
    if not float(iters).is_integer():
        raise _fail("solver.newton_max_iter", f"not an integer: {iters}")
    settings = _built(SolverSettings, "solver", **{**solver, "newton_max_iter": int(iters)})

    echo = {"scenario": name} if name is not None else _sections(scenario)
    echo.update(t_end=t_end, output_times=list(output_times))
    if sets:
        echo["set"] = sets
    echo["solver"] = dataclasses.asdict(settings)
    return scenario, settings, echo


def _write_csv(path: Path, header: str, rows) -> None:
    with path.open("w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(repr(float(v)) for v in row) + "\n")


def _execute(resolved, out: Path) -> tuple[int, dict]:
    """Run one resolved configuration and write its artifact set to the
    existing directory out; returns the exit status and the events.json
    summary."""
    scenario, settings, echo = resolved
    grid = scenario.build_grid()
    p, bc = scenario.params, scenario.bc
    trace = integrate(scenario.initial_state(grid), scenario.t_end,
                      scenario.output_times, grid, p, bc, settings)

    rows = []
    for t in scenario.output_times:
        try:
            state = trace.state_at(t)
        except ValueError:
            continue  # failed run: requested time past the failure point
        rows.extend((state.time, z, s) for z, s in zip(grid.centers, state.s))
    _write_csv(out / "profiles.csv", "t,z,s", rows)
    drift = diagnostics.mass_balance_audit(trace, grid, p, bc)
    _write_csv(out / "mass.csv", "t,mass,drift", zip(trace.times, trace.mass, drift))
    _write_csv(out / "extrema.csv", "t,s_min,s_max",
               zip(trace.times, trace.s_min, trace.s_max))

    events = []
    for kind, threshold, _, _ in _EVENTS:
        threshold = p.s_bar if threshold is None else threshold
        report = diagnostics.detect_event(trace, kind, threshold, grid=grid)
        if report is not None:
            events.append({**dataclasses.asdict(report), "threshold": threshold})
    final = trace.final
    summary = {
        "events": events,
        "solver": {
            "status": trace.status,
            "failure_time": trace.failure_time,
            "reason": trace.failure_reason,
            "rejected_error": trace.rejected_error,
            "rejected_newton": trace.rejected_newton,
        },
        "final": {
            "time": final.time,
            "mass": float(trace.mass[-1]),
            "drift": float(drift[-1]),
            **diagnostics.instability_metrics(final)._asdict(),
        },
    }
    (out / "events.json").write_text(json.dumps(summary, indent=2) + "\n")
    (out / "config.json").write_text(json.dumps(echo, indent=2) + "\n")
    return (2 if trace.status == FAILED else 0), summary


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", help="preset name: " + ", ".join(scenarios.SCENARIOS))
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override " + ", ".join(_SET_KEYS))
    parser.add_argument("--t-end", type=float, dest="t_end")
    parser.add_argument("--output-times", dest="output_times",
                        help="comma-separated times to record profiles at")
    parser.add_argument("--out", default="out", help="output directory")


def main(argv: Optional[list[str]] = None) -> int:
    parser = _Parser(
        prog="soilcolumn",
        description="1-D unsaturated soil column simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run one scenario")
    _add_run_arguments(run_parser)
    sweep_parser = sub.add_parser("sweep", help="run a parameter sweep")
    _add_run_arguments(sweep_parser)
    sweep_parser.add_argument("--param", choices=("kappa", "s_bar"), required=True)
    sweep_parser.add_argument("--values", required=True,
                              help="comma-separated parameter values")

    try:
        args = parser.parse_args(argv)
        doc = _document(args)
        if args.command == "run":
            members = [(None, Path(args.out), _resolve(doc))]
        else:
            labels = [v.strip() for v in args.values.split(",") if v.strip()]
            if not labels:
                raise _fail("--values", "need at least one value")
            # Every member is checked before the first one is solved.
            members = [(label, Path(args.out) / f"{args.param}={label}",
                        _resolve(_laid_over(doc, "set", {args.param: label})))
                       for label in labels]
            # Two values with one configuration echo, such as 0.01 and
            # 0.010, would solve the same member twice.
            echoes = [resolved[2] for _, _, resolved in members]
            for i, label in enumerate(labels):
                if echoes[i] in echoes[:i]:
                    raise _fail("--values", f"{label} repeats an earlier value")
        # An --out that names a file fails here, before any solve.
        for _, out, _ in members:
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise _fail("--out", str(exc)) from None
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    codes, lines = [], []
    for label, out, resolved in members:
        code, summary = _execute(resolved, out)
        codes.append(code)
        events = {event["kind"]: event for event in summary["events"]}
        final = summary["final"]
        lines.append(",".join(str(v) for v in (
            label, summary["solver"]["status"], code, final["mass"],
            final["drift"], final["undershoot"], final["overshoot"],
            final["zigzag"], *(events.get(kind, {}).get(field, "")
                               for kind, _, field, _ in _EVENTS))))
    if args.command == "sweep":
        header = ",".join(("value,status,exit,final_mass,final_drift,undershoot,"
                           "overshoot,zigzag", *(column for *_, column in _EVENTS)))
        Path(args.out, "sweep_summary.csv").write_text("\n".join([header, *lines, ""]))
        print(header, *lines, sep="\n")
    elif code == 2:
        print(f"solver failure: {summary['solver']['reason']}", file=sys.stderr)
    return min(codes)  # 0 when any member succeeded, else 2


if __name__ == "__main__":
    sys.exit(main())
