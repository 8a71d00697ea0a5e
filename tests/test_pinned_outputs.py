"""Pinned CLI outputs: the sha256 of every file the README workflows write
under the default config, against a committed manifest.

Only the files are hashed; stdout echoes the --out path. The manifest
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

MANIFEST = Path(__file__).with_name("pinned_outputs.json")

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
}


def output_hashes(root: Path) -> dict[str, str]:
    """Run every case into its own directory under `root` and hash each file
    written, keyed `case/file name`."""
    # only the case's own overrides reach the config
    clean = {name: None for name in os.environ if name.startswith("RISIM_")}
    runner = CliRunner()
    hashes = {}
    for case, (args, out_name, env) in CASES.items():
        outdir = root / case
        outdir.mkdir()
        result = runner.invoke(main, [*args, "--out", str(outdir / out_name)], env={**clean, **env})
        assert result.exit_code == 0, f"{case}: exit {result.exit_code}\n{result.output}"
        for path in sorted(outdir.iterdir()):
            hashes[f"{case}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


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
        f"running {versions()}):\n" + "\n".join(changed)
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"versions": versions(), "files": output_hashes(Path(tmp))}
    MANIFEST.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {len(doc['files'])} hashes to {MANIFEST}", file=sys.stderr)
