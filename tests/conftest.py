import pytest

from platooncoord import compute_constants, nominal_params


@pytest.fixture(scope="session")
def p():
    return nominal_params()


@pytest.fixture(scope="session")
def consts(p):
    return compute_constants(p)


# The acceptance suite prints one "criterion N: PASS/FAIL (...)" line per
# criterion. Output capture holds them back, so they are gathered from each
# test's captured output and shown again in the terminal summary.
_verdicts: list[str] = []


def pytest_runtest_logreport(report):
    if report.when == "call":
        _verdicts.extend(line for line in report.capstdout.splitlines()
                         if line.startswith("criterion "))


def pytest_terminal_summary(terminalreporter):
    if _verdicts:
        terminalreporter.section("acceptance criteria")
        for line in _verdicts:
            terminalreporter.write_line(line)
