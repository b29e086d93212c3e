import copy
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from soilcolumn.cli import main

FAST = ["--set", "kappa=0.01", "--t-end", "0.5", "--output-times", "0.25,0.5"]


def read(path):
    return path.read_text()


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

    def test_config_echo_reproduces_run_bitwise(self, tmp_path):
        first = tmp_path / "first"
        again = tmp_path / "again"
        assert main(["run", "--scenario", "example3", *FAST,
                     "--out", str(first)]) == 0
        assert main(["run", "--config", str(first / "config.json"),
                     "--out", str(again)]) == 0
        for name in ("profiles.csv", "mass.csv", "extrema.csv", "events.json"):
            assert read(first / name) == read(again / name)

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
        assert doc["solver"]["rel_tol"] == 1e-5  # defaults are echoed
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

    def test_solver_failure_exits_2_and_reports(self, tmp_path, capsys):
        cfg = {
            "scenario": "example3",
            "set": {"kappa": 0.0},
            "t_end": 0.5,
            "solver": {"rel_tol": 1e-13, "abs_tol": 1e-15, "dt_init": 1e-4,
                       "dt_min": 5e-5},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "fail"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == 2
        doc = json.loads(read(out / "events.json"))
        assert doc["solver"]["status"] == "failed"
        assert doc["solver"]["failure_time"] is not None
        assert "dt_min" in doc["solver"]["reason"]
        # artifacts up to the failure time still exist
        assert len(read(out / "mass.csv").splitlines()) >= 2
        assert "solver failure" in capsys.readouterr().err


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

    @pytest.mark.parametrize("args", [
        ["--t-end", "inf"],
        ["--t-end", "nan"],
        ["--set", "kappa=inf"],
        ["--set", "gamma=1"],
        ["--set", "d=inf"],
        ["--t-end", "0.001", "--output-times", "nan,7"],
        ["--t-end", "0.001", "--output-times=-0.0005,0.001"],
        ["--output-times", "inf"],
        ["--set", "d=1e-15", "--t-end", "0.001"],
        ["--set", "d=1e-9"],
    ])
    def test_rejected_before_solving(self, tmp_path, capsys, no_solver, args):
        code = main(["run", "--scenario", "example3", *args,
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"params": {"kappa": -1.0}},
        {"params": {"h": float("inf")}},
        {"bc": {"top": {"type": "dirichlet", "value": float("nan")},
                "bottom": {"type": "flux", "value": 0.0}}},
        {"output_times": [0.2]},
        {"output_times": [float("nan")]},
        {"output_times": ["soon"]},
        {"ic": [[-10.0, 0.1]]},
        {"t_end": "abc"},
        {"grid": {}},
        {"set": {"kappa": "abc"}},
        {"bc": {"top": {"type": ["flux"], "value": 0.0},
                "bottom": {"type": "flux", "value": 0.0}}},
        {"bc": {"top": {"type": "flux"},
                "bottom": {"type": "flux", "value": 0.0}}},
        {"params": {"gamma": 1.0}},
        {"sweep": {"param": "kappa", "values": [0.01]}},
        {"set": {"kappa": True}},
        {"params": {"h": True}},
        {"t_end": True},
        {"solver": {"rel_tol": True}},
        {"solver": {"newton_max_iter": 2.7}},
    ])
    def test_inline_config_rejected_before_solving(self, tmp_path, capsys,
                                                   no_solver, doc):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"ic": [[-1.0, 0.1]], "t_end": 0.1, **doc}))
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"set": {"d": "x"}},
        {"set": {"gamma": 1.0}},
        {"t_end": None},
        {"scenario": ["example3"]},
        {"set": {"kappa": True}},
        {"output_times": [True]},
        {"solver": {"rel_tol": True}},
        {"solver": {"newton_max_iter": 2.7}},
        {"t_end": 0.002, "set": {"t_end": 0.001}},  # t_end is not a set key
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

    def test_single_value_sweep_matches_plain_run(self, tmp_path):
        sweep_out = tmp_path / "sweep"
        run_out = tmp_path / "plain"
        assert main(["sweep", "--scenario", "example3", "--param", "kappa",
                     "--values", "0.01", *FAST[2:], "--out", str(sweep_out)]) == 0
        assert main(["run", "--scenario", "example3", *FAST,
                     "--out", str(run_out)]) == 0
        for name in ("profiles.csv", "mass.csv", "extrema.csv", "events.json"):
            assert read(sweep_out / "kappa=0.01" / name) == read(run_out / name)

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

    def test_member_failures_do_not_abort_sweep(self, tmp_path):
        cfg = {
            "scenario": "example3",
            "t_end": 0.5,
            "solver": {"rel_tol": 1e-13, "abs_tol": 1e-15, "dt_init": 1e-4,
                       "dt_min": 5e-5},
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
