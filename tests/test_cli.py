import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from soilcolumn import timestepper
from soilcolumn.cli import FRONT_THRESHOLD, GAP_THRESHOLD, main
from soilcolumn.diagnostics import (
    FRONT_DEPTH, MAX_ABOVE_ONE, MAX_BELOW_SBAR, MAXMIN_BELOW_GAP, detect_event,
    instability_metrics, mass_balance_audit)
from soilcolumn.discretization import BoundarySpec, Flux, Robin, State, build_grid
from soilcolumn.model import Parameters
from soilcolumn.scenarios import SANDY_LOAM_SBAR, ic_from_breakpoints
from soilcolumn.timestepper import integrate

FAST = ["--set", "kappa=0.01", "--t-end", "0.5", "--output-times", "0.25,0.5"]
ARTIFACTS = ("profiles.csv", "mass.csv", "extrema.csv", "events.json", "config.json")
SRC = Path(__file__).resolve().parents[1] / "src"


def read(path):
    return path.read_text()


def lines(path):
    return read(path).split("\n")


def run_dir_files(out):
    return {p.name for p in out.iterdir()}


class TestRun:
    def test_scenario_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = main(["run", "--scenario", "example3", *FAST, "--out", str(out)])
        assert code == 0
        assert {"profiles.csv", "mass.csv", "extrema.csv", "events.json",
                "config.json"} <= run_dir_files(out)
        profiles = read(out / "profiles.csv").splitlines()
        assert profiles[0] == "t,z,s"
        assert len(profiles) == 1 + 2 * 500  # two output times, 500 cells
        times = [float(line.split(",")[0]) for line in profiles[1:]]
        assert times == sorted(times)
        doc = json.loads(read(out / "events.json"))
        assert doc["solver"]["status"] == "completed"
        assert doc["final"]["zigzag"] == 0
        assert isinstance(doc["events"], list)

    def test_mass_and_extrema_headers(self, tmp_path):
        out = tmp_path / "run"
        main(["run", "--scenario", "example3", *FAST, "--out", str(out)])
        assert read(out / "mass.csv").splitlines()[0] == "t,mass,drift"
        assert read(out / "extrema.csv").splitlines()[0] == "t,s_min,s_max"

    # The replay contract: a run's config.json, run again, exits with the
    # run's status and writes all five files byte for byte, so the echo is
    # a fixed point. Each row is a run, as the command's arguments or as a
    # config document, its directory within --out, its exit status and
    # what the failure reason names.
    @pytest.mark.parametrize("source, member, code, reason", [
        pytest.param(["run", "--scenario", "example3", *FAST], "", 0, None,
                     id="fast"),
        pytest.param(["run", "--scenario", "example3", "--t-end", "0.01"], "", 0,
                     None, id="example3"),
        # Steps reach the cap DT_MAX from about t = 178, so the replay
        # covers the long steps of the diffusion tail.
        pytest.param(["run", "--scenario", "example1"], "", 0, None,
                     id="example1"),
        # A sweep member replays as a plain run.
        pytest.param(["sweep", "--scenario", "example3", "--param", "kappa",
                      "--values", "0.01,0", "--t-end", "0.01"], "kappa=0", 0,
                     None, id="sweep-member"),
        # Replays through the echo of its params, ic, bc and grid sections.
        pytest.param({"params": {"h": 1.0}, "grid": {"d": 0.05},
                      "ic": [[-1.0, 0.8], [0.0, 0.2]],
                      "bc": {"top": {"type": "robin", "beta": 0.5, "s_out": 0.1},
                             "bottom": {"type": "flux", "value": -0.01}},
                      "t_end": 2.0, "output_times": [1.0, 2.0]}, "", 0, None,
                     id="inline"),
        # The overflow is the input under test, so its warnings are expected.
        pytest.param(["run", "--scenario", "example1", "--set", "kappa=1e308",
                      "--t-end", "1"], "", 2, "initial state", id="overflow",
                     marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
        pytest.param({"scenario": "example3", "t_end": 0.01,
                      "solver": {"rel_tol": 1e-300, "abs_tol": 1e-300}}, "", 2,
                     "DT_MIN", id="underflow"),
    ])
    def test_config_echo_reproduces_run_bitwise(self, tmp_path, source, member,
                                                 code, reason):
        if isinstance(source, dict):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(source))
            source = ["run", "--config", str(path)]
        assert main([*source, "--out", str(tmp_path / "first")]) == code
        first = tmp_path / "first" / member
        again = tmp_path / "again"
        assert main(["run", "--config", str(first / "config.json"),
                     "--out", str(again)]) == code
        if reason is not None:
            assert reason in json.loads(read(first / "events.json"))["solver"]["reason"]
        for name in ARTIFACTS:
            assert read(first / name) == read(again / name)

    def test_module_entry_point_exits_with_main_status(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        for code, args in ((0, ["--t-end", "0.001"]),
                           (1, ["--t-end", "-1"]),
                           (2, ["--set", "kappa=1e308"])):
            done = subprocess.run(
                [sys.executable, "-m", "soilcolumn.cli", "run", "--scenario",
                 "example3", *args, "--out", str(tmp_path / str(code))],
                env=env, capture_output=True, timeout=60)
            assert done.returncode == code, done.stderr

    def test_inline_config(self, tmp_path):
        cfg = {
            "params": {"kappa": 0.005, "alpha_g2": 1.0, "s_bar": 0.2303,
                       "h": 1.0},
            "grid": {"d": 0.05},
            "ic": [[-1.0, 0.8], [0.0, 0.2]],
            "bc": {"top": {"type": "robin", "beta": 0.5, "s_out": 0.1},
                   "bottom": {"type": "flux", "value": 0.0}},
            "t_end": 0.5,
            "output_times": [0.5],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "inline"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        doc = json.loads(read(out / "config.json"))
        assert doc["params"]["kappa"] == 0.005
        assert doc["bc"]["top"]["type"] == "robin"
        # the default tolerances are echoed, and nothing else of the solver
        assert doc["solver"] == {"rel_tol": 1e-05, "abs_tol": 1e-06}
        again = tmp_path / "inline-again"
        assert main(["run", "--config", str(out / "config.json"),
                     "--out", str(again)]) == 0
        for name in ("profiles.csv", "mass.csv", "events.json"):
            assert read(out / name) == read(again / name)

    def test_ic_checked_against_final_depth(self, tmp_path):
        # The IC reaches below the file's h=5 but within --set h=10.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": {"h": 5.0},
                                    "ic": [[-8.0, 0.1], [0.0, 0.2]],
                                    "t_end": 0.001}))
        out = tmp_path / "deep"
        assert main(["run", "--config", str(path), "--set", "h=10",
                     "--out", str(out)]) == 0
        assert json.loads(read(out / "config.json"))["params"]["h"] == 10.0

    def test_solver_failure_exits_2_and_reports(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setattr(timestepper, "DT_MIN", 5e-5)
        cfg = {
            "scenario": "example3",
            "set": {"kappa": 0.0},
            "t_end": 0.5,
            "solver": {"rel_tol": 1e-13, "abs_tol": 1e-15},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "fail"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == 2
        doc = json.loads(read(out / "events.json"))
        assert doc["solver"]["status"] == "failed"
        assert doc["solver"]["failure_time"] is not None
        assert "DT_MIN" in doc["solver"]["reason"]
        # artifacts up to the failure time still exist
        assert len(read(out / "mass.csv").splitlines()) >= 2
        assert "solver failure" in capsys.readouterr().err

    # The overflow is the input under test, so its warnings are expected.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_initial_rhs_fails_without_retries(self, tmp_path, capsys):
        # kappa=1e308 overflows the diffusive flux at the initial state; no
        # step size mends that, so the run fails there with no attempt
        # rejected
        out = tmp_path / "fail"
        code = main(["run", "--scenario", "example1", "--set", "kappa=1e308",
                     "--t-end", "1", "--out", str(out)])
        assert code == 2
        solver = json.loads(read(out / "events.json"))["solver"]
        assert (solver["failure_time"], solver["rejected_newton"]) == (0.0, 0)
        assert "initial state" in solver["reason"]
        assert "solver failure" in capsys.readouterr().err


def csv_lines(header, rows):
    """A CSV artifact split at its newlines: each value as repr(float),
    and the empty string after the last newline."""
    return [header, *(",".join(repr(float(v)) for v in row) for row in rows), ""]


def check_sweep_summary(out, param):
    """Each sweep_summary.csv row repeats its member's events.json, with
    the member's exit status. Returns {value: exit status}."""
    header, *rows = read(out / "sweep_summary.csv").splitlines()
    codes = {}
    for row in rows:
        value = row.split(",")[0]
        doc = json.loads(read(out / f"{param}={value}" / "events.json"))
        events = {e["kind"]: e for e in doc["events"]}
        status = doc["solver"]["status"]
        codes[value] = {"completed": 0, "failed": 2}[status]
        final = doc["final"]
        expected = [value, status, codes[value], final["mass"], final["drift"],
                    final["undershoot"], final["overshoot"], final["zigzag"],
                    events.get(MAX_BELOW_SBAR, {}).get("time", ""),
                    events.get(MAXMIN_BELOW_GAP, {}).get("time", ""),
                    events.get(FRONT_DEPTH, {}).get("value", ""),
                    events.get(MAX_ABOVE_ONE, {}).get("time", "")]
        assert row == ",".join(str(v) for v in expected)
    return codes


class TestArtifacts:
    def test_artifacts_rebuilt_from_library(self, tmp_path):
        # water let in at the top and out through a Robin bottom, on the
        # inline defaults: the presets' parameters and cell width
        cfg = {"ic": [[-4.51, 0.3], [-4.50, 0.0]],
               "bc": {"top": {"type": "flux", "value": 0.003},
                      "bottom": {"type": "robin", "beta": 1.0, "s_out": 0.1}},
               "t_end": 1.0, "output_times": [0.5, 1.0]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0

        p = Parameters(kappa=0.005, alpha_g=0.5, s_bar=SANDY_LOAM_SBAR,
                       depth_h=5.0)
        g = build_grid(5.0, 0.01)
        bc = BoundarySpec(top=Flux(0.003), bottom=Robin(1.0, 0.1))
        ic = ic_from_breakpoints(cfg["ic"])
        trace = integrate(State(0.0, ic(g.centers)), 1.0, [0.5, 1.0], g, p, bc)
        profiles = [(t, z, s) for t in (0.5, 1.0)
                    for z, s in zip(g.centers, trace.state_at(t).s)]
        # Lists, not whole files: pytest reports the first differing line
        # at once, where a diff of two long strings can take minutes.
        assert lines(out / "profiles.csv") == csv_lines("t,z,s", profiles)
        drift = mass_balance_audit(trace, g, p, bc)
        assert lines(out / "mass.csv") == csv_lines(
            "t,mass,drift", zip(trace.times, trace.mass, drift))
        assert lines(out / "extrema.csv") == csv_lines(
            "t,s_min,s_max", zip(trace.times, trace.s_min, trace.s_max))

        events = []
        for kind, threshold in ((MAX_BELOW_SBAR, p.s_bar),
                                (MAXMIN_BELOW_GAP, GAP_THRESHOLD),
                                (FRONT_DEPTH, FRONT_THRESHOLD),
                                (MAX_ABOVE_ONE, 1.0)):
            report = detect_event(trace, kind, threshold, grid=g)
            if report is not None:
                events.append({"kind": kind, "time": report.time,
                               "value": report.value, "threshold": threshold})
        assert events
        summary = {
            "events": events,
            "solver": {"status": "completed", "failure_time": None,
                       "reason": None, "rejected_error": trace.rejected_error,
                       "rejected_newton": trace.rejected_newton},
            "final": {"time": 1.0, "mass": float(trace.mass[-1]),
                      "drift": float(drift[-1]),
                      **instability_metrics(trace.final)._asdict()},
        }
        assert read(out / "events.json") == json.dumps(summary, indent=2) + "\n"

    def test_sweep_rows_match_members(self, tmp_path, monkeypatch):
        # A column at rest below s_bar=0.5 has rhs 0, so every step's error
        # estimate is 0 and passes any tolerance; at s_bar=0.1 it moves,
        # and no step above DT_MIN = 5e-5 meets a rel_tol of 1e-13, so
        # that member fails.
        monkeypatch.setattr(timestepper, "DT_MIN", 5e-5)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "ic": [[-1.0, 0.3], [0.0, 0.3]], "t_end": 0.1,
            "solver": {"rel_tol": 1e-13, "abs_tol": 1e-15}}))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(path), "--param", "s_bar",
                     "--values", "0.5,0.1", "--out", str(out)]) == 0
        codes = check_sweep_summary(out, "s_bar")
        assert codes == {"0.5": 0, "0.1": 2}
        for value, code in codes.items():
            member = out / f"s_bar={value}"
            assert main(["run", "--config", str(member / "config.json"),
                         "--out", str(tmp_path / value)]) == code
            assert read(tmp_path / value / "events.json") == read(
                member / "events.json")


class TestConfigErrors:
    def test_negative_t_end(self, tmp_path, capsys):
        code = main(["run", "--scenario", "example3", "--t-end", "-1",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_scenario(self, tmp_path):
        assert main(["run", "--scenario", "nope",
                     "--out", str(tmp_path / "x")]) == 1

    def test_unknown_set_key(self, tmp_path):
        assert main(["run", "--scenario", "example3", "--set", "bogus=1",
                     "--out", str(tmp_path / "x")]) == 1

    def test_missing_source(self, tmp_path):
        assert main(["run", "--out", str(tmp_path / "x")]) == 1

    def test_scenario_and_config_exclusive(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        assert main(["run", "--scenario", "example3", "--config", str(path),
                     "--out", str(tmp_path / "x")]) == 1

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "example3", "bogus": 1}))
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "x")]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{\n  "scenario": "example3",\n  oops\n}')
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "x")]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_invalid_parameter_value(self, tmp_path):
        assert main(["run", "--scenario", "example3", "--set", "kappa=-1",
                     "--out", str(tmp_path / "x")]) == 1

    # An --out that names a file is refused before anything is solved.
    @pytest.mark.parametrize("command", [
        ["run", "--scenario", "example3"],
        ["sweep", "--scenario", "example3", "--param", "kappa", "--values", "0.01,0"]])
    def test_out_names_a_file(self, command, tmp_path, capsys, no_solver):
        path = tmp_path / "x"
        path.write_text("kept")
        assert main([*command, "--t-end", "0.001", "--out", str(path)]) == 1
        assert "configuration error: --out" in capsys.readouterr().err
        assert path.read_text() == "kept"

    # Each input carries its id (the index it had), so deleting an input
    # renames no other case.
    @pytest.mark.parametrize("args", [
        pytest.param(["--t-end", "inf"], id="args0"),
        pytest.param(["--t-end", "nan"], id="args1"),
        pytest.param(["--set", "kappa=inf"], id="args2"),
        pytest.param(["--set", "gamma=1"], id="args3"),
        pytest.param(["--set", "d=inf"], id="args4"),
        pytest.param(["--t-end", "0.001", "--output-times", "nan,7"], id="args5"),
        pytest.param(["--t-end", "0.001", "--output-times=-0.0005,0.001"], id="args6"),
        pytest.param(["--output-times", "inf"], id="args7"),
        pytest.param(["--set", "d=1e-15", "--t-end", "0.001"], id="args8"),
        pytest.param(["--set", "d=1e-9"], id="args9"),
        # Not a flag: usage errors, which exit 1 like configuration errors.
        pytest.param(["--rel-tol", "0"], id="args10"),
        pytest.param(["--rel-tol", "nan"], id="args11"),
        pytest.param(["--rel-tol", "inf"], id="args12"),
        pytest.param(["--set", "kappa"], id="args13"),
        pytest.param(["--t-end", "abc"], id="args14"),
    ])
    def test_rejected_before_solving(self, tmp_path, capsys, no_solver, args):
        code = main(["run", "--scenario", "example3", *args,
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_help_still_exits_0(self, capsys):
        # Usage errors exit 1 as configuration errors; --help is not one.
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert "--t-end" in capsys.readouterr().out

    @pytest.mark.parametrize("text, args", [
        (None, ["run", "--config", "CONFIG"]),  # no such file
        ("[1, 2]", ["run", "--config", "CONFIG"]),
        ('{"scenario": "example3", "set": 5}',
         ["run", "--config", "CONFIG", "--set", "kappa=0.01"]),
        (None, ["sweep", "--scenario", "example3", "--param", "kappa",
                "--values", ","]),
        (None, ["sweep", "--scenario", "example3", "--param", "kappa",
                "--values", "0.01,0.01"]),
        (None, ["sweep", "--scenario", "example3", "--param", "kappa",
                "--values", "0.01,0.010"]),
        (None, ["sweep", "--scenario", "example3", "--values", "0.01"]),
    ])
    def test_file_and_flag_errors_write_nothing(self, tmp_path, capsys,
                                                no_solver, text, args):
        config = tmp_path / "config.json"
        if text is not None:
            config.write_text(text)
        out = tmp_path / "x"
        code = main([str(config) if arg == "CONFIG" else arg for arg in args]
                    + ["--out", str(out)])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    # Each input carries its id (the index it had), so deleting an input
    # renames no other case.
    @pytest.mark.parametrize("doc", [
        pytest.param({"params": {"kappa": -1.0}}, id="doc0"),
        pytest.param({"params": {"h": float("inf")}}, id="doc1"),
        pytest.param({"bc": {"top": {"type": "dirichlet", "value": float("nan")},
                             "bottom": {"type": "flux", "value": 0.0}}}, id="doc2"),
        pytest.param({"output_times": [0.2]}, id="doc3"),
        pytest.param({"output_times": [float("nan")]}, id="doc4"),
        pytest.param({"output_times": ["soon"]}, id="doc5"),
        pytest.param({"ic": [[-10.0, 0.1]]}, id="doc6"),
        pytest.param({"t_end": "abc"}, id="doc7"),
        pytest.param({"grid": {}}, id="doc8"),
        pytest.param({"set": {"kappa": "abc"}}, id="doc9"),
        pytest.param({"bc": {"top": {"type": ["flux"], "value": 0.0},
                             "bottom": {"type": "flux", "value": 0.0}}}, id="doc10"),
        pytest.param({"bc": {"top": {"type": "flux"},
                             "bottom": {"type": "flux", "value": 0.0}}}, id="doc11"),
        pytest.param({"params": {"gamma": 1.0}}, id="doc12"),
        pytest.param({"sweep": {"param": "kappa", "values": [0.01]}}, id="doc13"),
        pytest.param({"set": {"kappa": True}}, id="doc14"),
        pytest.param({"params": {"h": True}}, id="doc15"),
        pytest.param({"t_end": True}, id="doc16"),
        pytest.param({"solver": {"rel_tol": True}}, id="doc17"),
        pytest.param({"solver": {"newton_max_iter": 2.7}}, id="doc18"),
        # a saturation outside [0, 1] at a Dirichlet end
        pytest.param({"bc": {"top": {"type": "dirichlet", "value": 2.0},
                             "bottom": {"type": "flux", "value": 0.0}}}, id="doc19"),
    ])
    def test_inline_config_rejected_before_solving(self, tmp_path, capsys,
                                                   no_solver, doc):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"ic": [[-1.0, 0.1]], "t_end": 0.1, **doc}))
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    # Each input carries its id (the index it had), so deleting an input
    # renames no other case.
    @pytest.mark.parametrize("doc", [
        pytest.param({"set": {"d": "x"}}, id="doc0"),
        pytest.param({"set": {"gamma": 1.0}}, id="doc1"),
        pytest.param({"t_end": None}, id="doc2"),
        pytest.param({"scenario": ["example3"]}, id="doc3"),
        pytest.param({"set": {"kappa": True}}, id="doc4"),
        pytest.param({"output_times": [True]}, id="doc5"),
        pytest.param({"solver": {"rel_tol": True}}, id="doc6"),
        pytest.param({"solver": {"newton_max_iter": 2.7}}, id="doc7"),
        # t_end is not a set key
        pytest.param({"t_end": 0.002, "set": {"t_end": 0.001}}, id="doc8"),
        # an older config.json's keys
        pytest.param({"solver": {"safety": 0.9}}, id="doc9"),
        pytest.param({"solver": {"newton_tol": 1e-5}}, id="doc10"),
        pytest.param({"solver": {"newton_max_iter": 1}}, id="doc11"),
        pytest.param({"solver": {"dt_init": 1e-4}}, id="doc12"),
        pytest.param({"solver": {"dt_min": 1e-12}}, id="doc13"),
        # json writes it as Infinity, which is not JSON
        pytest.param({"solver": {"dt_max": math.inf}}, id="doc14"),
        # the solver section of a config.json that echoed the step cap
        pytest.param({"solver": {"rel_tol": 1e-05, "abs_tol": 1e-06,
                                 "dt_max": 10.0}}, id="doc15"),
    ])
    def test_scenario_config_rejected_before_solving(self, tmp_path, capsys,
                                                     no_solver, doc):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": "example3", **doc}))
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err


class TestSweep:
    def test_kappa_sweep_writes_members_and_summary(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--scenario", "example3", "--param", "kappa",
                     "--values", "0.01,0.005", *FAST[2:], "--out", str(out)])
        assert code == 0
        assert (out / "kappa=0.01").is_dir()
        assert (out / "kappa=0.005").is_dir()
        summary = read(out / "sweep_summary.csv").splitlines()
        assert summary[0].startswith("value,status,exit")
        assert len(summary) == 3
        assert summary[1].split(",")[0] == "0.01"
        for sub in ("kappa=0.01", "kappa=0.005"):
            assert {"profiles.csv", "events.json"} <= run_dir_files(out / sub)
        assert check_sweep_summary(out, "kappa") == {"0.01": 0, "0.005": 0}

    def test_single_value_sweep_matches_plain_run(self, tmp_path):
        sweep_out = tmp_path / "sweep"
        run_out = tmp_path / "plain"
        assert main(["sweep", "--scenario", "example3", "--param", "kappa",
                     "--values", "0.01", *FAST[2:], "--out", str(sweep_out)]) == 0
        assert main(["run", "--scenario", "example3", *FAST,
                     "--out", str(run_out)]) == 0
        for name in ("profiles.csv", "mass.csv", "extrema.csv", "events.json"):
            assert read(sweep_out / "kappa=0.01" / name) == read(run_out / name)

    def test_wet_sealed_column_reports_leaving_the_range(self, tmp_path):
        # The model has no cap at s = 1. Above s_bar a sealed column
        # settles to s_bar + (kappa/alpha_g)/(z + L): at kappa=0.1 it
        # stays below 0.42, at kappa=0.005 the water piles into the
        # bottom cells and the column maximum passes 1.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"ic": [[-5.0, 0.3], [0.0, 0.3]],
                                    "grid": {"d": 0.05}, "t_end": 100.0}))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(path), "--param", "kappa",
                     "--values", "0.005,0.1", "--out", str(out)]) == 0
        header, wet, mild = read(out / "sweep_summary.csv").splitlines()
        assert header.split(",")[-1] == "t_max_above_one"
        assert 0.0 < float(wet.split(",")[-1]) < 100.0
        assert mild.split(",")[-1] == ""
        assert check_sweep_summary(out, "kappa") == {"0.005": 0, "0.1": 0}
        events = json.loads(read(out / "kappa=0.005" / "events.json"))["events"]
        assert [e["threshold"] for e in events if e["kind"] == MAX_ABOVE_ONE] == [1.0]

    def test_sweep_value_label_preserved(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario", "example3", "--param", "s_bar",
                     "--values", "0.2303", "--set", "kappa=0.01",
                     "--t-end", "0.1", "--output-times", "0.1",
                     "--out", str(out)]) == 0
        assert (out / "s_bar=0.2303").is_dir()

    def test_sweep_bad_values(self, tmp_path):
        assert main(["sweep", "--scenario", "example3", "--param", "kappa",
                     "--values", "a,b", "--out", str(tmp_path / "x")]) == 1

    def test_every_member_checked_before_first_solve(self, tmp_path, capsys,
                                                     no_solver):
        out = tmp_path / "sweep"
        code = main(["sweep", "--scenario", "example3", "--param", "s_bar",
                     "--values", "0.1,5", "--out", str(out)])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_member_failures_do_not_abort_sweep(self, tmp_path, monkeypatch):
        monkeypatch.setattr(timestepper, "DT_MIN", 5e-5)
        cfg = {
            "scenario": "example3",
            "t_end": 0.5,
            "solver": {"rel_tol": 1e-13, "abs_tol": 1e-15},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(path), "--param", "kappa",
                     "--values", "0.01,0.0", "--out", str(out)])
        assert code == 2  # every member failed, but all of them ran
        summary = read(out / "sweep_summary.csv").splitlines()
        assert len(summary) == 3
        for sub in ("kappa=0.01", "kappa=0.0"):
            doc = json.loads(read(out / sub / "events.json"))
            assert doc["solver"]["status"] == "failed"
        assert check_sweep_summary(out, "kappa") == {"0.01": 2, "0.0": 2}


# The config fuzz: documents with any top-level, params, set, grid, solver
# or end-condition key set to an arbitrary JSON value must either be
# rejected as a configuration error or reach the solver.
_TOP_PATHS = [(key,) for key in ("scenario", "params", "ic", "bc", "grid", "t_end",
                                 "output_times", "set", "solver")]
_SHARED_PATHS = [
    *[("set", key) for key in ("kappa", "alpha_g2", "s_bar", "h", "d", "t_end")],
    *[("solver", key) for key in ("rel_tol", "abs_tol", "dt_init", "dt_min",
                                  "dt_max", "newton_tol", "newton_max_iter",
                                  "safety")],
]
_INLINE_PATHS = [
    *[("params", key) for key in ("kappa", "alpha_g2", "s_bar", "h", "d")],
    ("grid", "d"),
    *[("bc", end, key) for end in ("top", "bottom")
      for key in ("type", "value", "beta", "s_out")],
]
# (base document, the key paths the fuzz may set in it)
_FUZZ_CASES = [
    ({"scenario": "example3", "t_end": 0.001}, _TOP_PATHS + _SHARED_PATHS),
    ({"params": {"kappa": 0.005, "alpha_g2": 1.0, "s_bar": 0.2303, "h": 1.0},
      "grid": {"d": 0.05}, "ic": [[-1.0, 0.8], [0.0, 0.2]],
      "bc": {"top": {"type": "robin", "beta": 0.5, "s_out": 0.1},
             "bottom": {"type": "dirichlet", "value": 0.0}},
      "t_end": 0.001, "output_times": [0.001], "solver": {"rel_tol": 1e-5}},
     _TOP_PATHS + _SHARED_PATHS + _INLINE_PATHS),
]
_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.5,
                           5e-324, 1e-300, 1e-15, 1e-9, 1e-3, 0.25, 0.5, 2.7,
                           1e300])
_SCALARS = st.one_of(
    _FLOATS, st.integers(-3, 30), st.none(), st.booleans(), st.just(10 ** 400),
    st.sampled_from(["", "abc", "0.5", "nan", "example3", "flux", "robin"]))
# Numbers are drawn more often than the rest, so that some documents
# pass every check.
_VALUES = st.one_of(
    _FLOATS, st.integers(0, 30), _SCALARS, st.lists(_SCALARS, max_size=3),
    st.lists(st.lists(_FLOATS, max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["d", "top", "type", "kappa"]), _SCALARS,
                    max_size=2))


@st.composite
def _fuzz_documents(draw):
    base, paths = draw(st.sampled_from(_FUZZ_CASES))
    doc = copy.deepcopy(base)
    for path, value in draw(st.lists(st.tuples(st.sampled_from(paths), _VALUES),
                                     min_size=1, max_size=3)):
        section = doc
        for key in path[:-1]:
            if not isinstance(section.get(key), dict):
                section[key] = {}
            section = section[key]
        section[path[-1]] = value
    return doc


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_fuzz_documents())
def test_any_config_is_rejected_or_solved(tmp_path, capsys, no_solver, doc):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "x"
    capsys.readouterr()
    try:
        code = main(["run", "--config", str(config), "--out", str(out)])
    except AssertionError as exc:
        assert str(exc) == "the solver ran"
        return
    if code == 0:  # only a run to t_end=0 finishes without a Newton stage
        assert json.loads(read(out / "config.json"))["t_end"] == 0.0
    else:
        assert code == 1
        assert "configuration error" in capsys.readouterr().err
