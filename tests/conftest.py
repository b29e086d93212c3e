import dataclasses

import numpy as np
import pytest

from soilcolumn import timestepper
from soilcolumn.scenarios import example1

# One line per acceptance criterion, printed after the run so the
# verdicts are visible even when pytest captures test output.
_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_report():
    def record(criterion: str, passed: bool, detail: str):
        verdict = "PASS" if passed else "FAIL"
        _ACCEPTANCE_LINES.append(f"{verdict}  {criterion}: {detail}")

    return record


@pytest.fixture
def no_solver(monkeypatch):
    """Make any Newton stage fail the test, so a missing input check
    fails at once instead of hanging the run."""
    def refuse(*args, **kwargs):
        raise AssertionError("the solver ran")
    monkeypatch.setattr(timestepper, "_newton_solve", refuse)


@pytest.fixture(scope="session")
def integrate_every_profile():
    """integrate(), returning with its Trace the profile of every accepted
    state, both from one run."""
    def run(*args, **kwargs):
        states = list(timestepper.accepted_states(*args, **kwargs))
        return timestepper.record(states), np.array([state.s for state in states])
    return run


@pytest.fixture(scope="session")
def ex1_to_t5(integrate_every_profile):
    """example1 run to t=5, with every accepted profile:
    (scenario, grid, trace, profiles)."""
    scn = dataclasses.replace(example1(), t_end=5.0, output_times=(5.0,))
    grid = scn.build_grid()
    trace, profiles = integrate_every_profile(scn.initial_state(grid), scn.t_end,
                                              scn.output_times, grid, scn.params,
                                              scn.bc)
    return scn, grid, trace, profiles


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
