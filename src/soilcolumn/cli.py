"""Batch front door: run scenarios or parameter sweeps, write artifacts.

A run produces plot-ready CSV/JSON files in its output directory:

    profiles.csv   t,z,s               profile at every requested output time
    mass.csv       t,mass,drift        column mass and audit drift per step
    extrema.csv    t,s_min,s_max       range of the profile per step
    events.json    detected events plus the solver status
    config.json    the resolved configuration; feeding it back through
                   --config reproduces the run bit for bit

Exit status: 0 success, 1 configuration error, 2 solver failure (the
artifacts up to the failure time are still written).
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
from .discretization import BoundarySpec, Dirichlet, Flux, Robin, no_flux
from .model import Parameters
from .timestepper import FAILED, SolverSettings, Trace, integrate

# Events every run reports: the stickiness threshold crossing of the
# column maximum, the settling of the max-min gap, and the final wetting
# front depth.
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
_SET_KEYS = (*_PARAM_KEYS, "d", "t_end")
_SOLVER_KEYS = ("rel_tol", "abs_tol", "dt_init", "dt_min", "dt_max",
                "newton_tol", "newton_max_iter", "safety")
_END_CONDITIONS = {"dirichlet": Dirichlet, "flux": Flux, "robin": Robin}
# Parameters of an inline configuration, for the keys its params leave out.
_INLINE_PARAMS = Parameters(kappa=0.005, alpha_g=0.5,
                            s_bar=scenarios.sandy_loam_sbar(), depth_h=5.0)


class ConfigError(ValueError):
    """Invalid configuration; reported on stderr with exit status 1."""


def _fail(where: str, message: str) -> "ConfigError":
    return ConfigError(f"{where}: {message}")


def _check_keys(obj, allowed: tuple[str, ...], where: str):
    if not isinstance(obj, dict):
        raise _fail(where, f"expected an object with keys {sorted(allowed)}")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise _fail(where, f"unknown keys {unknown}; allowed: {sorted(allowed)}")


def _number(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise _fail(where, f"not a number: {value!r}") from None


def _numbers(obj, allowed: tuple[str, ...], where: str) -> dict:
    """obj with its keys checked against allowed and every value a float."""
    _check_keys(obj, allowed, where)
    return {key: _number(value, f"{where}: {key}") for key, value in obj.items()}


def _with_keys(params: Parameters, numbers: dict, where: str) -> Parameters:
    """params with the field of every key-table key in numbers replaced."""
    updates = {field: scale * numbers[key]
               for key, (field, scale) in _PARAM_KEYS.items() if key in numbers}
    try:
        return dataclasses.replace(params, **updates)
    except ValueError as exc:
        raise _fail(where, str(exc)) from None


def _end_condition(obj, where: str):
    if not isinstance(obj, dict):
        raise _fail(where, "boundary condition must be an object")
    kind = obj.get("type")
    cls = _END_CONDITIONS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise _fail(where, f"type must be dirichlet, flux or robin, got {kind!r}")
    names = tuple(f.name for f in dataclasses.fields(cls))
    numbers = _numbers({k: v for k, v in obj.items() if k != "type"}, names, where)
    missing = [name for name in names if name not in numbers]
    if missing:
        raise _fail(where, f"missing keys {missing} for type {kind!r}")
    try:
        return cls(**numbers)
    except ValueError as exc:
        raise _fail(where, str(exc)) from None


def _end_condition_json(cond) -> dict:
    kind = {cls: name for name, cls in _END_CONDITIONS.items()}[type(cond)]
    return {"type": kind, **{f.name: float(getattr(cond, f.name))
                             for f in dataclasses.fields(cond)}}


@dataclasses.dataclass
class RunConfig:
    """Everything needed to reproduce one run, or each member of a sweep."""

    scenario: Optional[str] = None
    params: Optional[dict] = None
    ic: Optional[list] = None
    bc: Optional[dict] = None
    d: Optional[float] = None
    t_end: Optional[float] = None
    output_times: Optional[list] = None
    set_overrides: dict = dataclasses.field(default_factory=dict)
    solver: dict = dataclasses.field(default_factory=dict)
    out_dir: str = "out"

    def resolved_json(self) -> dict:
        doc: dict = {}
        if self.scenario is not None:
            doc["scenario"] = self.scenario
        else:
            doc["params"] = self.params
            doc["ic"] = self.ic
            doc["bc"] = self.bc
            doc["grid"] = {"d": self.d}
        if self.t_end is not None:
            doc["t_end"] = self.t_end
        if self.output_times is not None:
            doc["output_times"] = self.output_times
        if self.set_overrides:
            doc["set"] = self.set_overrides
        if self.solver:
            doc["solver"] = self.solver
        return doc


def _config_from_file(path: str) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _fail(path, str(exc)) from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _fail(path, f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise _fail(path, "top level must be an object")
    _check_keys(doc, ("scenario", "params", "ic", "bc", "grid", "t_end",
                      "output_times", "set", "solver"), path)
    cfg = RunConfig()
    cfg.scenario = doc.get("scenario")
    inline = [k for k in ("params", "ic", "bc", "grid") if k in doc]
    if cfg.scenario is not None and inline:
        raise _fail(path, f"scenario and inline fields {inline} are exclusive")
    if cfg.scenario is None and "ic" not in doc:
        raise _fail(path, "need either a scenario name or an inline ic")
    if "params" in doc:
        cfg.params = _numbers(doc["params"], tuple(_PARAM_KEYS), f"{path}: params")
    if "ic" in doc:
        cfg.ic = doc["ic"]
    if "bc" in doc:
        _check_keys(doc["bc"], ("top", "bottom"), f"{path}: bc")
        cfg.bc = doc["bc"]
    if "grid" in doc:
        grid = _numbers(doc["grid"], ("d",), f"{path}: grid")
        if "d" not in grid:
            raise _fail(f"{path}: grid", "missing key 'd'")
        cfg.d = grid["d"]
    if "t_end" in doc:
        cfg.t_end = _number(doc["t_end"], f"{path}: t_end")
    if "output_times" in doc:
        try:
            cfg.output_times = [float(t) for t in doc["output_times"]]
        except (TypeError, ValueError):
            raise _fail(f"{path}: output_times",
                        f"not a list of numbers: {doc['output_times']!r}") from None
    if "set" in doc:
        cfg.set_overrides = _numbers(doc["set"], _SET_KEYS, f"{path}: set")
    if "solver" in doc:
        _check_keys(doc["solver"], _SOLVER_KEYS, f"{path}: solver")
        cfg.solver = dict(doc["solver"])
    return cfg


def _parse_set_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise _fail("--set", f"expected key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        overrides[key] = value
    return _numbers(overrides, _SET_KEYS, "--set")


def _config_from_args(args) -> RunConfig:
    if args.config is not None:
        if args.scenario is not None:
            raise _fail("arguments", "--scenario and --config are exclusive")
        cfg = _config_from_file(args.config)
    elif args.scenario is not None:
        cfg = RunConfig(scenario=args.scenario)
    else:
        raise _fail("arguments", "one of --scenario or --config is required")
    overrides = _parse_set_overrides(args.set or [])
    cfg.set_overrides.update(overrides)
    if args.t_end is not None:
        cfg.t_end = args.t_end
    if args.output_times is not None:
        cfg.output_times = [_number(t, "--output-times")
                            for t in args.output_times.split(",")]
    if args.rel_tol is not None:
        cfg.solver["rel_tol"] = args.rel_tol
    cfg.out_dir = args.out
    return cfg


def _sweep_members(values: str) -> list[tuple[str, float]]:
    """(label, value) of each comma-separated --values entry."""
    labels = [v.strip() for v in values.split(",") if v.strip()]
    if not labels:
        raise _fail("--values", "need at least one value")
    return [(label, _number(label, "--values")) for label in labels]


def _build_problem(cfg: RunConfig):
    """Scenario object for a config, with overrides applied."""
    if cfg.scenario is not None:
        try:
            scenario = scenarios.by_name(cfg.scenario)
        except ValueError as exc:
            raise _fail("scenario", str(exc)) from None
    else:
        params = _with_keys(_INLINE_PARAMS, cfg.params or {}, "params")
        if cfg.t_end is None and "t_end" not in cfg.set_overrides:
            raise _fail("t_end", "required for inline configurations")
        if cfg.bc is not None:
            bc = BoundarySpec(top=_end_condition(cfg.bc.get("top"), "bc.top"),
                              bottom=_end_condition(cfg.bc.get("bottom"), "bc.bottom"))
        else:
            bc = no_flux()
        try:
            scenario = scenarios.Scenario(
                name="custom", params=params, d=cfg.d if cfg.d is not None else 0.01,
                ic=scenarios.ic_from_breakpoints(cfg.ic), bc=bc,
                t_end=cfg.t_end if cfg.t_end is not None else 1.0,
                output_times=tuple(cfg.output_times or ()),
            )
        except (TypeError, ValueError) as exc:
            raise _fail("ic", str(exc)) from None

    o = cfg.set_overrides
    params = _with_keys(scenario.params, o, "set")
    d = o.get("d", scenario.d)
    # Precedence: --t-end / config file, then --set t_end, then the preset.
    t_end = cfg.t_end if cfg.t_end is not None else o.get("t_end", scenario.t_end)
    if not 0.0 <= t_end < math.inf:
        raise _fail("t_end", f"must be finite and >= 0, got {t_end}")
    if cfg.output_times is not None:
        bad = [t for t in cfg.output_times if not 0.0 <= t <= t_end]
        if bad:
            raise _fail("output_times", f"{bad} outside [0, t_end={t_end}]")
        output_times = cfg.output_times
    else:
        # A preset's output times past a shortened t_end are dropped.
        output_times = [t for t in scenario.output_times if t <= t_end]
    output_times = tuple(sorted(set(output_times)))
    if not output_times:
        output_times = (t_end,)
    try:
        scenario = dataclasses.replace(
            scenario, params=params, d=d, t_end=t_end, output_times=output_times)
        scenario.build_grid()  # rejects a cell width outside (0, h]
    except ValueError as exc:
        raise _fail("config", str(exc)) from None

    # Backfill the config with the resolved values so the echoed
    # config.json is explicit and reproduces the run on its own.
    cfg.t_end = float(scenario.t_end)
    cfg.output_times = [float(t) for t in scenario.output_times]
    if cfg.scenario is None:
        cfg.d = float(scenario.d)
        cfg.params = {key: getattr(scenario.params, field) / scale
                      for key, (field, scale) in _PARAM_KEYS.items()}
        cfg.bc = {"top": _end_condition_json(scenario.bc.top),
                  "bottom": _end_condition_json(scenario.bc.bottom)}
    return scenario


def _solver_settings(cfg: RunConfig) -> SolverSettings:
    try:
        doc = dict(cfg.solver)
        if "newton_max_iter" in doc:
            doc["newton_max_iter"] = int(doc["newton_max_iter"])
        return SolverSettings(**doc)
    except (TypeError, ValueError) as exc:
        raise _fail("solver", str(exc)) from None


def _write_csv(path: Path, header: str, rows) -> None:
    with path.open("w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(repr(float(v)) for v in row) + "\n")


def _write_artifacts(out: Path, scenario, cfg: RunConfig, trace: Trace) -> dict:
    """Write the artifact set for one finished (or failed) run."""
    grid = scenario.build_grid()
    p = scenario.params

    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for t in scenario.output_times:
        try:
            state = trace.state_at(t)
        except ValueError:
            continue  # failed run: requested time past the failure point
        rows.extend((state.time, z, s) for z, s in zip(grid.centers, state.s))
    _write_csv(out / "profiles.csv", "t,z,s", rows)

    drift = diagnostics.mass_balance_audit(trace, grid, p, scenario.bc)
    mass = diagnostics.mass_series(trace, grid)
    _write_csv(out / "mass.csv", "t,mass,drift",
               zip(trace.times, mass, drift))
    s_min, s_max = diagnostics.extrema_series(trace)
    _write_csv(out / "extrema.csv", "t,s_min,s_max",
               zip(trace.times, s_min, s_max))

    events = []
    specs = [
        (diagnostics.MAX_BELOW_SBAR, p.s_bar),
        (diagnostics.MAXMIN_BELOW_GAP, GAP_THRESHOLD),
        (diagnostics.FRONT_DEPTH, FRONT_THRESHOLD),
    ]
    for kind, threshold in specs:
        report = diagnostics.detect_event(trace, kind, threshold, grid=grid)
        if report is not None:
            events.append({"kind": report.kind, "time": report.time,
                           "value": report.value, "threshold": threshold})
    final = trace.final
    metrics = diagnostics.instability_metrics(final)
    summary = {
        "events": events,
        "solver": {
            "status": trace.status,
            "failure_time": trace.failure_time,
            "reason": trace.failure_reason,
        },
        "final": {
            "time": final.time,
            "mass": float(mass[-1]),
            "drift": float(drift[-1]),
            "undershoot": metrics.undershoot,
            "overshoot": metrics.overshoot,
            "zigzag": metrics.zigzag,
        },
    }
    (out / "events.json").write_text(json.dumps(summary, indent=2) + "\n")
    (out / "config.json").write_text(json.dumps(cfg.resolved_json(), indent=2) + "\n")
    return summary


def _execute(cfg: RunConfig, out: Path) -> tuple[int, dict]:
    scenario = _build_problem(cfg)
    settings = _solver_settings(cfg)
    cfg.solver = dataclasses.asdict(settings)
    grid = scenario.build_grid()
    trace = integrate(scenario.initial_state(grid), scenario.t_end,
                      scenario.output_times, grid, scenario.params, scenario.bc,
                      settings)
    summary = _write_artifacts(out, scenario, cfg, trace)
    return (2 if trace.status == FAILED else 0), summary


def run(cfg: RunConfig) -> int:
    """Single simulation with artifacts; exit status per module contract."""
    code, summary = _execute(cfg, Path(cfg.out_dir))
    if code == 2:
        print(f"solver failure: {summary['solver']['reason']}", file=sys.stderr)
    return code


def sweep(cfg: RunConfig, param: str, members: list[tuple[str, float]]) -> int:
    """One run per (label, value) of param in its own subdirectory, plus a summary."""
    out_root = Path(cfg.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    header = ("value,status,exit,final_mass,final_drift,undershoot,overshoot,"
              "zigzag,t_max_below_sbar,t_gap_below,front_depth")
    lines = []
    any_success = False
    for label, value in members:
        member = dataclasses.replace(
            cfg, set_overrides={**cfg.set_overrides, param: value})
        sub = out_root / f"{param}={label}"
        code, summary = _execute(member, sub)
        any_success = any_success or code == 0
        events = {e["kind"]: e for e in summary["events"]}

        def _event_time(kind):
            return events[kind]["time"] if kind in events else ""

        front = events.get(diagnostics.FRONT_DEPTH)
        final = summary["final"]
        lines.append(",".join(str(v) for v in (
            label, summary["solver"]["status"], code, final["mass"],
            final["drift"], final["undershoot"], final["overshoot"],
            final["zigzag"], _event_time(diagnostics.MAX_BELOW_SBAR),
            _event_time(diagnostics.MAXMIN_BELOW_GAP),
            front["value"] if front else "")))
    (out_root / "sweep_summary.csv").write_text(header + "\n" + "\n".join(lines) + "\n")
    print(header)
    for line in lines:
        print(line)
    return 0 if any_success else 2


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", help="preset name: " + ", ".join(scenarios.SCENARIOS))
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override " + ", ".join(_SET_KEYS))
    parser.add_argument("--t-end", type=float, dest="t_end")
    parser.add_argument("--output-times", dest="output_times",
                        help="comma-separated times to record profiles at")
    parser.add_argument("--rel-tol", type=float, dest="rel_tol")
    parser.add_argument("--out", default="out", help="output directory")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
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

    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "sweep":
            return sweep(cfg, args.param, _sweep_members(args.values))
        return run(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
