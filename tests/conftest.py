import numpy as np
import pytest

from risim import ArrayGeometry, load_config

# the reference bench numbers quote this rounded wavelength
LAMBDA_BENCH = 0.0545


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: -0.0 is not 0.0, and a NaN equals itself."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


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
