import numpy as np
import pytest

from risim import ArrayGeometry, load_config

# the reference bench numbers quote this rounded wavelength
LAMBDA_BENCH = 0.0545


def left_to_right_sum(values) -> float:
    """A dB ledger's total in its one order: each value added left to right,
    as builtin sum did before Python 3.12 began compensating float sums."""
    total = 0.0
    for value in values:
        total += value
    return total

# one line per acceptance criterion, echoed after the run regardless of capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def cfg():
    return load_config()


@pytest.fixture(scope="session")
def board():
    return ArrayGeometry(16, 10, 0.016)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
