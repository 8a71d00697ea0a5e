"""The `risim` process entry, `risim.cli.run`: the command run in its own
process writes what `main` writes in-process, and only the process entry
freezes the garbage collector, so a library caller's process never does."""

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
    "args",
    [
        ["linkbudget", "--out", "report.json"],
        ["export-frame", "--mode", "near", "--steer", "-30", "--out", "frame.hex"],
    ],
    ids=["linkbudget", "export-frame"],
)
def test_process_writes_what_main_writes(monkeypatch, tmp_path, args):
    proc_dir, lib_dir = tmp_path / "process", tmp_path / "library"
    proc_dir.mkdir()
    done = spawn(proc_dir, "-m", "risim.cli", *args)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout == in_process(monkeypatch, lib_dir, args)
    written = sorted(p.name for p in proc_dir.iterdir())
    assert written == sorted(p.name for p in lib_dir.iterdir()) == [args[-1]]
    assert (proc_dir / args[-1]).read_bytes() == (lib_dir / args[-1]).read_bytes()


def test_process_domain_error_is_one_line_and_exit_3(tmp_path):
    done = spawn(tmp_path, "-m", "risim.cli", "localize", "--truths", "75")
    assert done.returncode == 3
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("domain error:")
    assert "Traceback" not in done.stderr
    assert list(tmp_path.iterdir()) == []


def test_module_run_as_main_freezes_the_collector(tmp_path):
    code = (
        "import gc, runpy, sys\n"
        "before = gc.get_freeze_count()\n"
        "sys.argv = ['risim', 'export-frame', '--out', 'frame.hex']\n"
        "try:\n"
        "    runpy.run_module('risim.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(code, before, gc.get_freeze_count(), file=sys.stderr)\n"
    )
    done = spawn(tmp_path, "-c", code)
    assert done.returncode == 0, done.stderr
    exit_code, before, after = (int(v) for v in done.stderr.split())
    assert exit_code == 0
    assert before == 0 and after > 0
    assert (tmp_path / "frame.hex").exists()


def test_library_calls_never_freeze(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    before = gc.get_freeze_count()
    with pytest.raises(SystemExit):  # a workflow's error exit is sys.exit, whatever standalone_mode says
        risim.cli.main(["localize", "--truths", "75"], standalone_mode=False, prog_name="risim")
    risim.cli.main(["linkbudget", "--out", "ref.json"], standalone_mode=False, prog_name="risim")
    assert gc.get_freeze_count() == before
    result = CliRunner().invoke(risim.cli.main, ["export-frame", "--out", "frame.hex"])
    assert result.exit_code == 0
    assert gc.get_freeze_count() == before
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
    assert entry is not risim.cli.main  # the click group never freezes: a library caller's process runs on
