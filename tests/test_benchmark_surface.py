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
import os
import subprocess
import sys
from pathlib import Path

import pytest

import risim.cli
from risim.localization import simulate_sweep
from risim.patterns import array_factor_far, default_theta_grid, pattern_nearfield

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


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


def test_tracer_test_imports_hold_element_grid_without_the_cut_module():
    """perfbench's tracer test imports config, geometry and linkbudget, then
    needs more than two risim modules holding geometry.element_grid, run
    alone too: checked in a fresh process, which must not load patterns."""
    code = (
        "import sys\n"
        "from risim import config, geometry, linkbudget\n"
        "grid = geometry.element_grid\n"
        "holders = [n for n, m in sys.modules.items()\n"
        "           if n.startswith('risim') and getattr(m, 'element_grid', None) is grid]\n"
        "print('risim.patterns' in sys.modules, len(holders))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run(
        [sys.executable, "-B", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    patterns_loaded, holders = done.stdout.split()
    assert patterns_loaded == "False"
    assert int(holders) > 2
