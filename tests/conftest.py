import pytest

from soilcolumn import timestepper

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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
