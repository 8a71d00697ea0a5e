"""The package surface the benchmark harness reads, checked without running it.

perfbench/tracer.py wraps public functions by module and name, binds some of
their arguments by parameter name, and wraps the CLI callbacks; the
workloads call the codebook views and the config accessors (the latter are
checked in test_config). A trim of the package that drops any of these
breaks the benchmark, so the tracer module is loaded by path and its tables
are resolved against the package here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import risim.cli
from risim.localization import simulate_sweep
from risim.patterns import array_factor_far, default_theta_grid, pattern_nearfield

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(tracer):
    for mod, names in tracer.WRAPPED.items():
        module = importlib.import_module(f"risim.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"risim.{mod}.{name}"


def test_every_cli_callback_resolves(tracer):
    callbacks = {command.callback.__name__ for command in risim.cli.main.commands.values()}
    assert set(tracer.CLI_CALLBACKS) <= callbacks


def test_bound_parameter_names_exist():
    for kernel in (array_factor_far, pattern_nearfield):
        assert {"geom", "theta_grid_deg"} <= set(inspect.signature(kernel).parameters)
    assert "codebook" in inspect.signature(simulate_sweep).parameters
    # the cuts workload passes q_e positionally, fifth
    assert list(inspect.signature(pattern_nearfield).parameters)[4] == "q_e"


def test_computed_counters_read_their_bound_arguments(tracer, cfg):
    codebook = cfg.steering_codebook()
    assert tracer._sweep_terms({"codebook": codebook}) == len(codebook) * cfg.geometry.size
    grid = default_theta_grid()
    assert tracer._cut_terms({"geom": cfg.geometry, "theta_grid_deg": grid}) == 721 * 160
    assert codebook.angles_deg() is codebook.angles

