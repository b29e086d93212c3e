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
from .discretization import BoundarySpec, Dirichlet, Flux, Robin
from .model import Parameters
from .timestepper import FAILED, SolverSettings, Trace, integrate

# Events every run reports: the stickiness threshold crossing of the
# column maximum, the settling of the max-min gap, and the final wetting
# front depth.
GAP_THRESHOLD = 0.1
FRONT_THRESHOLD = 0.05

_SET_KEYS = ("kappa", "s_bar", "alpha_g2", "gamma", "h", "d", "t_end")
_SOLVER_KEYS = ("rel_tol", "abs_tol", "dt_init", "dt_min", "dt_max",
                "newton_tol", "newton_max_iter", "safety")


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


def _end_condition(obj, where: str):
    if not isinstance(obj, dict):
        raise _fail(where, "boundary condition must be an object")
    _check_keys(obj, ("type", "value", "beta", "s_out"), where)
    kind = obj.get("type")
    try:
        if kind == "dirichlet":
            return Dirichlet(float(obj["value"]))
        if kind == "flux":
            return Flux(float(obj["value"]))
        if kind == "robin":
            return Robin(beta=float(obj["beta"]), s_out=float(obj["s_out"]))
    except KeyError as exc:
        raise _fail(where, f"missing key {exc} for type {kind!r}") from None
    except (TypeError, ValueError) as exc:
        raise _fail(where, str(exc)) from None
    raise _fail(where, f"type must be dirichlet, flux or robin, got {kind!r}")


def _end_condition_json(cond) -> dict:
    if isinstance(cond, Dirichlet):
        if callable(cond.value):
            raise ConfigError("cannot serialise a time-dependent Dirichlet value")
        return {"type": "dirichlet", "value": float(cond.value)}
    if isinstance(cond, Flux):
        if callable(cond.value):
            raise ConfigError("cannot serialise a time-dependent Flux value")
        return {"type": "flux", "value": float(cond.value)}
    return {"type": "robin", "beta": cond.beta, "s_out": cond.s_out}


@dataclasses.dataclass
class RunConfig:
    """Everything needed to reproduce one run or sweep."""

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
    sweep_param: Optional[str] = None
    sweep_values: Optional[list] = None
    sweep_value_labels: Optional[list] = None

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
        if self.sweep_param is not None:
            doc["sweep"] = {"param": self.sweep_param, "values": self.sweep_values}
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
                      "output_times", "set", "solver", "sweep"), path)
    cfg = RunConfig()
    cfg.scenario = doc.get("scenario")
    inline = [k for k in ("params", "ic", "bc", "grid") if k in doc]
    if cfg.scenario is not None and inline:
        raise _fail(path, f"scenario and inline fields {inline} are exclusive")
    if cfg.scenario is None and "ic" not in doc:
        raise _fail(path, "need either a scenario name or an inline ic")
    if "params" in doc:
        _check_keys(doc["params"], ("kappa", "s_bar", "alpha_g2", "gamma", "h"),
                    f"{path}: params")
        cfg.params = doc["params"]
    if "ic" in doc:
        cfg.ic = doc["ic"]
    if "bc" in doc:
        _check_keys(doc["bc"], ("top", "bottom"), f"{path}: bc")
        cfg.bc = doc["bc"]
    if "grid" in doc:
        _check_keys(doc["grid"], ("d",), f"{path}: grid")
        cfg.d = float(doc["grid"]["d"])
    if "t_end" in doc:
        cfg.t_end = float(doc["t_end"])
    if "output_times" in doc:
        try:
            cfg.output_times = [float(t) for t in doc["output_times"]]
        except (TypeError, ValueError):
            raise _fail(f"{path}: output_times",
                        f"not a list of numbers: {doc['output_times']!r}") from None
    if "set" in doc:
        _check_keys(doc["set"], _SET_KEYS, f"{path}: set")
        cfg.set_overrides = dict(doc["set"])
    if "solver" in doc:
        _check_keys(doc["solver"], _SOLVER_KEYS, f"{path}: solver")
        cfg.solver = dict(doc["solver"])
    if "sweep" in doc:
        _check_keys(doc["sweep"], ("param", "values"), f"{path}: sweep")
        cfg.sweep_param = doc["sweep"]["param"]
        cfg.sweep_values = [float(v) for v in doc["sweep"]["values"]]
    return cfg


def _parse_set_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise _fail("--set", f"expected key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        if key not in _SET_KEYS:
            raise _fail("--set", f"unknown key {key!r}; allowed: {list(_SET_KEYS)}")
        try:
            overrides[key] = float(value)
        except ValueError:
            raise _fail("--set", f"{key}: not a number: {value!r}") from None
    return overrides


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
        try:
            cfg.output_times = [float(t) for t in args.output_times.split(",")]
        except ValueError:
            raise _fail("--output-times", f"not numbers: {args.output_times!r}") from None
    if args.rel_tol is not None:
        cfg.solver["rel_tol"] = args.rel_tol
    cfg.out_dir = args.out
    if getattr(args, "param", None) is not None:
        cfg.sweep_param = args.param
        if cfg.sweep_param not in ("kappa", "s_bar"):
            raise _fail("--param", f"must be kappa or s_bar, got {cfg.sweep_param!r}")
        labels = [v.strip() for v in args.values.split(",") if v.strip()]
        if not labels:
            raise _fail("--values", "need at least one value")
        try:
            cfg.sweep_values = [float(v) for v in labels]
        except ValueError:
            raise _fail("--values", f"not numbers: {args.values!r}") from None
        cfg.sweep_value_labels = labels
    return cfg


def _build_problem(cfg: RunConfig):
    """Scenario object for a config, with overrides applied."""
    if cfg.scenario is not None:
        try:
            scenario = scenarios.by_name(cfg.scenario)
        except ValueError as exc:
            raise _fail("scenario", str(exc)) from None
    else:
        params_doc = dict(cfg.params or {})
        try:
            params = Parameters(
                kappa=float(params_doc.get("kappa", 0.005)),
                alpha_g=0.5 * float(params_doc.get("alpha_g2", 1.0)),
                s_bar=float(params_doc.get("s_bar", scenarios.sandy_loam_sbar())),
                gamma=float(params_doc.get("gamma", 1.0)),
                depth_h=float(params_doc.get("h", 5.0)),
            )
        except (TypeError, ValueError) as exc:
            raise _fail("params", str(exc)) from None
        if cfg.t_end is None and "t_end" not in cfg.set_overrides:
            raise _fail("t_end", "required for inline configurations")
        try:
            ic = scenarios.ic_from_breakpoints(cfg.ic)
        except (TypeError, ValueError) as exc:
            raise _fail("ic", str(exc)) from None
        if cfg.bc is not None:
            bc = BoundarySpec(top=_end_condition(cfg.bc.get("top"), "bc.top"),
                              bottom=_end_condition(cfg.bc.get("bottom"), "bc.bottom"))
        else:
            bc = BoundarySpec(top=Flux(0.0), bottom=Flux(0.0))
        scenario = scenarios.Scenario(
            name="custom", params=params, d=cfg.d if cfg.d is not None else 0.01,
            ic=ic, bc=bc,
            t_end=cfg.t_end if cfg.t_end is not None else 1.0,
            output_times=tuple(cfg.output_times or ()),
        )

    o = cfg.set_overrides
    params = scenario.params
    updates = {}
    if "kappa" in o:
        updates["kappa"] = o["kappa"]
    if "s_bar" in o:
        updates["s_bar"] = o["s_bar"]
    if "alpha_g2" in o:
        updates["alpha_g"] = 0.5 * o["alpha_g2"]
    if "gamma" in o:
        updates["gamma"] = o["gamma"]
    if "h" in o:
        updates["depth_h"] = o["h"]
    if updates:
        try:
            params = dataclasses.replace(params, **updates)
        except ValueError as exc:
            raise _fail("set", str(exc)) from None
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
        cfg.params = {
            "kappa": scenario.params.kappa,
            "alpha_g2": 2.0 * scenario.params.alpha_g,
            "s_bar": scenario.params.s_bar,
            "gamma": scenario.params.gamma,
            "h": scenario.params.depth_h,
        }
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
    trace.diagnostics.update(mass=mass, drift=drift, s_min=s_min, s_max=s_max)

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


def sweep(cfg: RunConfig) -> int:
    """One run per sweep value in its own subdirectory, plus a summary."""
    if cfg.sweep_param is None or not cfg.sweep_values:
        raise _fail("sweep", "sweep needs --param and --values")
    out_root = Path(cfg.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    labels = cfg.sweep_value_labels or [repr(v) for v in cfg.sweep_values]
    header = ("value,status,exit,final_mass,final_drift,undershoot,overshoot,"
              "zigzag,t_max_below_sbar,t_gap_below,front_depth")
    lines = []
    any_success = False
    for label, value in zip(labels, cfg.sweep_values):
        member = dataclasses.replace(
            cfg, sweep_param=None, sweep_values=None, sweep_value_labels=None,
            set_overrides={**cfg.set_overrides, cfg.sweep_param: value})
        sub = out_root / f"{cfg.sweep_param}={label}"
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
            return sweep(cfg)
        return run(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
