"""Set-up probe: a fresh process that readies one workload for its first
timed op (imports, config resolution, one warm-up op), prints `ready` and
exits. The harness times it from spawn to that line.

    python3 perfbench/probe.py <workload> <seed>
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    workdir = ROOT / ".perfbench" / f"probe-{name}-{os.getpid()}"
    w = workloads.WORKLOADS[name](ROOT, workdir)
    try:
        w.setup()
        w.outputs(w.op(next(w.inputs(seed))))
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
