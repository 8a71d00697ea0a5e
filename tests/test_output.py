"""One module writes every file: no other module of the package opens a
file for writing or serializes JSON, so a change to how files are written
(a header line, a JSON key) is a change to risim/output.py alone."""

import ast
from pathlib import Path

import pytest

import risim

PACKAGE = Path(risim.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "output.py")


def writes(call: ast.Call) -> str | None:
    """What a call does that only output.py may do, or None."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("dump", "dumps"):
        if isinstance(func.value, ast.Name) and func.value.id == "json":
            return f"json.{func.attr}"
    if isinstance(func, ast.Name) and func.id in ("dump", "dumps"):
        return func.id  # from json import dump(s)
    if isinstance(func, ast.Name) and func.id == "open":
        mode = call.args[1] if len(call.args) > 1 else None
        mode = next((k.value for k in call.keywords if k.arg == "mode"), mode)
        if mode is None:
            return None  # read mode
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            return "open with a computed mode"
        if set(mode.value) & set("wax+"):
            return f"open(..., {mode.value!r})"
    return None


def test_every_module_is_checked():
    assert len(MODULES) >= 9 and (PACKAGE / "output.py").exists()


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_only_output_writes_files(module):
    tree = ast.parse(module.read_text(), str(module))
    found = [
        f"{module.name}:{node.lineno}: {what}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (what := writes(node))
    ]
    assert not found, found
