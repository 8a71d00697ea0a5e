"""A dB ledger has one total: its terms added left to right. Builtin sum
compensates float sums from Python 3.12, so a package that called it would
give a total that depends on the interpreter; no module of the package calls
it, and a ledger of three hardware items reads the same float in the link
budget and in the sweep."""

import ast
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import left_to_right_sum

import risim
from risim import Direction, received_power, simulate_sweep, ue_point

PACKAGE = Path(risim.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))

# 0.1 + 0.2 + 0.3 left to right; a compensated sum rounds it to 0.6
LEDGER = {"a": 0.1, "b": 0.2, "c": 0.3}
LEDGER_DB = -0.6000000000000001


def test_every_module_is_checked():
    assert len(MODULES) >= 10 and (PACKAGE / "linkbudget.py") in MODULES


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_module_calls_builtin_sum(module):
    tree = ast.parse(module.read_text(), str(module))
    found = [
        f"{module.name}:{node.lineno}: sum(...)"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]
    assert not found, found


def test_hardware_items_are_added_left_to_right_in_the_ledger_and_the_sweep(cfg):
    assert -left_to_right_sum(LEDGER.values()) == LEDGER_DB
    scenario = replace(cfg.link, include_hardware_loss=True, hardware_loss_db=LEDGER)
    assert received_power(scenario).terms_db["hardware_loss_db"] == LEDGER_DB
    codebook = cfg.steering_codebook()
    trace = simulate_sweep(codebook, Direction(30.0), scenario)
    k = codebook.angles.tolist().index(30.0)
    entry = scenario.with_rx(ue_point(Direction(30.0), scenario))
    entry = entry.with_mask(codebook.entries[k].mask)
    terms = received_power(entry, "single_pass").terms_db
    assert terms["hardware_loss_db"] == LEDGER_DB
    assert trace.rssi_dbm[k] == left_to_right_sum(terms.values())
