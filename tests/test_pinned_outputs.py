"""Pinned CLI outputs: the sha256 of every file the README workflows write
under the default config, against a committed manifest.

Only the files are hashed; stdout echoes the --out path. The cases then
run again in reverse order and must hash alike. The manifest
records the Python and numpy versions it was generated with. A change that
is meant to alter an output regenerates the manifest in the same diff:

    PYTHONPATH=src python tests/test_pinned_outputs.py
"""

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from risim.cli import main

from risim.config import DEFAULTS, parse_config

MANIFEST = Path(__file__).with_name("pinned_outputs.json")

# every cell, feed, link and sweep key moved off its default, to a value no
# sibling key shares, so two keys swapped in resolution change some output
NONDEFAULT = {
    "RISIM_FREQUENCY_HZ": "5.8e9",
    "RISIM_CELL_MAGNITUDE_STATE0": "0.95",
    "RISIM_CELL_MAGNITUDE_STATE1": "0.85",
    "RISIM_CELL_PHASE_STATE0_DEG": "10.0",
    "RISIM_CELL_PHASE_STATE1_DEG": "200.0",
    "RISIM_CELL_Q_E": "0.65",
    "RISIM_FEED_POSITION_M": "0.11,0.065,0.28",
    "RISIM_FEED_Q_F": "6.5",
    "RISIM_LINK_TX_POWER_DBM": "-5.5",
    "RISIM_LINK_GAIN_TX_DBI": "11.0",
    "RISIM_LINK_GAIN_RX_DBI": "13.5",
    "RISIM_LINK_NOISE_FLOOR_DBM": "-91.0",
    "RISIM_LINK_RX_POSITION_M": "3.3,0.05,3.1",
    "RISIM_LINK_Q_R": "8.0",
    "RISIM_LINK_INCLUDE_HARDWARE_LOSS": "1",
    "RISIM_LINK_HARDWARE_LOSS_DB_DIELECTRIC_AND_DIODE": "2.5",
    "RISIM_LINK_HARDWARE_LOSS_DB_CABLES": "4.25",
    "RISIM_SWEEP_START_DEG": "5.0",
    "RISIM_SWEEP_STOP_DEG": "55.0",
    "RISIM_SWEEP_STEP_DEG": "1.25",
    "RISIM_SWEEP_NOISE_KIND": "gaussian_db",
    "RISIM_SWEEP_SIGMA_DB": "0.75",
    "RISIM_SWEEP_SEED": "3",
}

# case name -> (CLI arguments before --out, --out file name, environment)
CASES = {
    **{
        f"pattern-{mode}-{steer}": (["pattern", "--mode", mode, f"--steer={steer}"], "cut.csv", {})
        for mode in ("far", "near")
        for steer in (0, 30, -30, 45)
    },
    **{
        f"export-frame-{mode}-45": (["export-frame", "--mode", mode, "--steer=45"], "frame.hex", {})
        for mode in ("far", "near")
    },
    "localize-30-45-seed1": (["localize", "--truths", "30,45", "--seed", "1"], "loc", {}),
    "linkbudget": (["linkbudget"], "linkbudget.json", {}),
    "linkbudget-hardware": (
        ["linkbudget"],
        "linkbudget.json",
        {"RISIM_LINK_INCLUDE_HARDWARE_LOSS": "1"},
    ),
    **{
        f"nondefault-pattern-{mode}-30": (["pattern", "--mode", mode, "--steer=30"], "cut.csv", NONDEFAULT)
        for mode in ("far", "near")
    },
    "nondefault-localize-20-40": (["localize", "--truths", "20,40"], "loc", NONDEFAULT),
    "nondefault-linkbudget-hardware": (["linkbudget"], "linkbudget.json", NONDEFAULT),
}


def test_nondefault_case_moves_every_key():
    resolved = parse_config(None, env=NONDEFAULT).to_dict()
    assert resolved["frequency_hz"] != DEFAULTS["frequency_hz"]
    for section in ("cell", "feed", "link", "sweep"):
        values = resolved[section]
        assert all(values[key] != DEFAULTS[section][key] for key in values), section
        scalars = [repr(v) for v in values.values() if not isinstance(v, (dict, list))]
        assert len(set(scalars)) == len(scalars), section
    items = resolved["link"]["hardware_loss_db"]
    assert all(items[name] != db for name, db in DEFAULTS["link"]["hardware_loss_db"].items())


def output_hashes(root: Path, cases: dict = CASES) -> dict[str, str]:
    """Run every case, in the order given, into its own directory under
    `root` and hash each file written, keyed `case/file name`."""
    # only the case's own overrides reach the config
    clean = {name: None for name in os.environ if name.startswith("RISIM_")}
    runner = CliRunner()
    hashes = {}
    for case, (args, out_name, env) in cases.items():
        outdir = root / case
        outdir.mkdir()
        result = runner.invoke(main, [*args, "--out", str(outdir / out_name)], env={**clean, **env})
        assert result.exit_code == 0, f"{case}: exit {result.exit_code}\n{result.output}"
        for path in sorted(outdir.iterdir()):
            hashes[f"{case}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def dispatch_target() -> str:
    """numpy's highest enabled CPU dispatch target: float log10, exp and **
    can round apart between targets, so the manifest holds for one of them."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return enabled[-1] if enabled else "baseline " + " ".join(umath.__cpu_baseline__)


def test_outputs_match_pinned_manifest(tmp_path):
    pinned = json.loads(MANIFEST.read_text())
    actual = output_hashes(tmp_path)
    changed = [
        f"{name}: {pinned['files'].get(name, 'missing')} -> {actual.get(name, 'missing')}"
        for name in sorted(set(pinned["files"]) | set(actual))
        if pinned["files"].get(name) != actual.get(name)
    ]
    assert not changed, (
        f"outputs differ from the manifest (pinned on {pinned['versions']}, "
        f"running {versions()} at numpy dispatch target {dispatch_target()}):\n" + "\n".join(changed)
    )
    # every case again, now after the others: module caches left warm by
    # another case (feed hop, observation table) move no byte
    (tmp_path / "reversed").mkdir()
    again = output_hashes(tmp_path / "reversed", dict(reversed(CASES.items())))
    assert again == actual


if __name__ == "__main__":
    old = json.loads(MANIFEST.read_text())["files"] if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"versions": versions(), "files": output_hashes(Path(tmp))}
    MANIFEST.write_text(json.dumps(doc, indent=2) + "\n")
    new = doc["files"]
    # every entry that moved, so a diff's list of changed outputs comes from here
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            print(f"removed {name}: {old[name]}")
        elif name not in old:
            print(f"added   {name}: {new[name]}")
        elif old[name] != new[name]:
            print(f"changed {name}: {old[name]} -> {new[name]}")
    print(f"wrote {len(new)} hashes to {MANIFEST}", file=sys.stderr)
