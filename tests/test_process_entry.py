"""The `risim` process entry, `risim.cli.run`: the command run in its own
process writes what `main` writes in-process, loads only the risim modules
its command runs, and leaves through `os._exit` with the collector off and
no atexit callback of its own; a library caller's process never does either."""

import ast
import gc
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import risim.cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CLI_SOURCE = SRC / "risim" / "cli.py"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=120
    )


def in_process(monkeypatch, cwd: Path, args: list[str]) -> str:
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    result = CliRunner().invoke(risim.cli.main, args, catch_exceptions=False)
    assert result.exit_code == 0
    return result.output


@pytest.mark.parametrize(
    "args, files",
    [
        (["linkbudget", "--out", "report.json"], ["report.json"]),
        (["export-frame", "--mode", "near", "--steer", "-30", "--out", "frame.hex"], ["frame.hex"]),
        (["pattern", "--mode", "near", "--steer", "45", "--out", "near.csv"], ["near.csv", "near.metrics.json"]),
        (
            ["localize", "--truths", "30,45", "--seed", "1", "--out", "loc"],
            ["loc.summary.json", "loc.truth30.csv", "loc.truth45.csv"],
        ),
    ],
    ids=["linkbudget", "export-frame", "pattern-near", "localize"],
)
def test_process_writes_what_main_writes(monkeypatch, tmp_path, args, files):
    proc_dir, lib_dir = tmp_path / "process", tmp_path / "library"
    proc_dir.mkdir()
    done = spawn(proc_dir, "-m", "risim.cli", *args)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout == in_process(monkeypatch, lib_dir, args)
    written = sorted(p.name for p in proc_dir.iterdir())
    assert written == sorted(p.name for p in lib_dir.iterdir()) == files
    for name in files:
        assert (proc_dir / name).read_bytes() == (lib_dir / name).read_bytes()


def test_process_with_stdout_closed_writes_what_main_writes(monkeypatch, tmp_path):
    # `>&-` starts Python with sys.stdout None: the entry flushes only the streams it has
    args = ["linkbudget", "--out", "report.json"]
    proc_dir, lib_dir = tmp_path / "process", tmp_path / "library"
    proc_dir.mkdir()
    done = subprocess.run(
        ["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m", "risim.cli", *args],
        cwd=proc_dir, env=child_env(), stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    in_process(monkeypatch, lib_dir, args)
    assert (proc_dir / "report.json").read_bytes() == (lib_dir / "report.json").read_bytes()


def test_process_whose_stdout_pipe_is_closed_exits_2(tmp_path):
    child = subprocess.Popen(
        [sys.executable, "-m", "risim.cli", "linkbudget", "--out", "report.json"],
        cwd=tmp_path, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    child.stdout.close()  # long before the command's first echo, which follows numpy's import
    stderr = child.stderr.read()
    assert child.wait(timeout=120) == 2
    assert stderr.splitlines() == ["config error: cannot write output: [Errno 32] Broken pipe"]


def test_process_domain_error_is_one_line_and_exit_3(tmp_path):
    done = spawn(tmp_path, "-m", "risim.cli", "localize", "--truths", "75")
    assert done.returncode == 3
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("domain error:")
    assert "Traceback" not in done.stderr
    assert list(tmp_path.iterdir()) == []


def run_as_main(cwd: Path, args: list[str], report: str) -> tuple[int, list[str]]:
    """Run `risim.cli` as `__main__` through `runpy` in a child whose
    `os._exit` first prints its code and the `report` expression on stderr;
    the child's exit code and its split last stderr line. `before` in
    `report` is `atexit`'s callback count before `risim.cli` is imported."""
    code = (
        "import atexit, gc, os, runpy, sys\n"
        "before = atexit._ncallbacks()\n"
        "real_exit = os._exit\n"
        "def report_exit(code):\n"
        f"    print(code, {report}, file=sys.stderr, flush=True)\n"
        "    real_exit(code)\n"
        "os._exit = report_exit\n"
        f"sys.argv = ['risim', *{args!r}]\n"
        "try:\n"
        "    runpy.run_module('risim.cli', run_name='__main__', alter_sys=True)\n"
        "finally:  # reached only by an entry that returns or raises\n"
        "    print('no exit call', file=sys.stderr)\n"
    )
    done = spawn(cwd, "-c", code)
    return done.returncode, done.stderr.splitlines()[-1].split()


@pytest.mark.parametrize(
    "args, exit_code",
    [
        (["export-frame", "--out", "frame.hex"], 0),
        (["linkbudget", "--config", "missing.yaml"], 2),
        (["localize", "--truths", "75"], 3),
    ],
    ids=["ok", "config-error", "domain-error"],
)
def test_entry_leaves_through_os_exit_with_the_collector_off(tmp_path, args, exit_code):
    returncode, report = run_as_main(tmp_path, args, "gc.isenabled()")
    assert returncode == exit_code
    assert report == [str(exit_code), "False"]  # the command ran with the cyclic collector off
    assert sorted(p.name for p in tmp_path.iterdir()) == (["frame.hex"] if exit_code == 0 else [])


def test_a_cli_run_registers_no_atexit_callback(tmp_path):
    # counts, not zero: the interpreter's site hook may register one of its own
    args = ["localize", "--truths", "30,45", "--seed", "1", "--out", "loc"]
    returncode, (exit_code, before, after) = run_as_main(tmp_path, args, "before, atexit._ncallbacks()")
    assert returncode == 0 and exit_code == "0"
    assert after == before  # os._exit would skip any


# the risim modules a command's process loads: each command imports what it runs
RUNS = {
    "pattern": ["pattern", "--mode", "far", "--steer", "30", "--out", "cut.csv"],
    "pattern-near": ["pattern", "--mode", "near", "--steer", "45", "--out", "near.csv"],
    "localize": ["localize", "--truths", "30,45", "--seed", "1", "--out", "loc"],
    "linkbudget": ["linkbudget", "--out", "report.json"],
    "export-frame": ["export-frame", "--mode", "far", "--steer", "30", "--out", "frame.hex"],
}
SHARED = ["config", "errors", "geometry", "linkbudget", "masks", "output"]
# only the cut command loads the cut module
EXTRA = {
    "pattern": ["patterns"],
    "pattern-near": ["patterns"],
    "localize": ["localization"],
    "export-frame": ["hardware"],
}


@pytest.mark.parametrize("name", RUNS)
def test_command_loads_only_its_modules(tmp_path, name):
    report = "' '.join(sorted(m for m in sys.modules if m.startswith('risim.')))"
    returncode, (exit_code, *loaded) = run_as_main(tmp_path, RUNS[name], report)
    assert returncode == 0 and exit_code == "0"
    assert loaded == sorted(f"risim.{m}" for m in SHARED + EXTRA.get(name, []))


def test_kernel_modules_load_no_config(tmp_path):
    # config resolves scenarios for the commands; no kernel module imports it
    code = "import sys, risim.localization, risim.patterns, risim.hardware; print('risim.config' in sys.modules)"
    done = spawn(tmp_path, "-B", "-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_help_loads_no_numpy(tmp_path):
    returncode, (exit_code, numpy_loaded) = run_as_main(tmp_path, ["--help"], "'numpy' in sys.modules")
    assert returncode == 0 and exit_code == "0" and numpy_loaded == "False"


def test_library_calls_never_freeze(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    gc.enable()  # as a library caller's process runs, whatever an earlier test left
    before = gc.get_freeze_count()
    with pytest.raises(SystemExit):  # a workflow's error exit is sys.exit, whatever standalone_mode says
        risim.cli.main(["localize", "--truths", "75"], standalone_mode=False, prog_name="risim")
    risim.cli.main(["linkbudget", "--out", "ref.json"], standalone_mode=False, prog_name="risim")
    assert gc.get_freeze_count() == before and gc.isenabled()
    result = CliRunner().invoke(risim.cli.main, ["export-frame", "--out", "frame.hex"])
    assert result.exit_code == 0
    assert gc.get_freeze_count() == before and gc.isenabled()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["frame.hex", "ref.json"]


def main_block_call() -> str:
    """The name of the one function the module's `__main__` block calls."""
    for node in ast.parse(CLI_SOURCE.read_text()).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            (stmt,) = node.body
            assert isinstance(stmt, ast.Expr) and not stmt.value.args and not stmt.value.keywords
            return stmt.value.func.id
    raise AssertionError(f"{CLI_SOURCE.name} has no __main__ block")


def test_console_script_is_the_main_block_entry():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with (ROOT / "pyproject.toml").open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["risim"]
    module, _, attr = target.partition(":")
    script = getattr(importlib.import_module(module), attr)
    entry = getattr(risim.cli, main_block_call())
    assert script is entry
    assert entry is not risim.cli.main  # the click group never exits the process: a library caller's runs on
