"""Summarize perfbench results of one or more checkouts into a BENCH_<n>.json.

Each checkout ("side") has run `python3 perfbench/run.py --workload <w>
--seed <s> --seconds <t> --trace 0` for a set of seeds, leaving
`.perfbench/results/<w>-seed<s>-trace0.json`. For every side and workload
it reads every seed's untraced result and writes the median and quartiles
of each end-to-end metric named in BENCHMARK.json, scaled (`metrics`) and
raw (`raw`), and the state of the side's source: `src/` line count, the
line count of the `tests/*.py` files, public export count, tier-1 test
count, whether `src/risim/__pycache__` exists, and per CLI command the
`risim.*` modules its process loads and their summed source lines
(`commands`).
Compiled bytecode alone moves `cli` times by ~25 ms, so only sides in the
same bytecode state compare.
With two sides, each workload also gets a paired comparison over the
seeds both sides ran: how many seeds the second side won, per metric; each
pair also records `src_pycache_equal`, false (and a warning on stderr) when
one side ran with compiled bytecode and the other without.

Run it right after the benchmark runs, before anything imports the
checkouts, so the bytecode state is the one the runs saw. Its own child
processes write no bytecode.

    python3 tools/bench_summary.py --side parent=../parent --side change=. \\
        --workload cli --workload sweep --out BENCH_<n>.json

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
COUNT_EXPORTS = (  # through dir() and getattr, so lazily resolved exports count too
    "import types, risim; print(sum(1 for n in dir(risim)"
    " if not n.startswith('_') and not isinstance(getattr(risim, n), types.ModuleType)))"
)
# one run per command, each in its own process: the same runs tests/test_process_entry.py checks
COMMANDS = {
    "pattern-far": ["pattern", "--mode", "far", "--steer", "30", "--out", "cut.csv"],
    "pattern-near": ["pattern", "--mode", "near", "--steer", "45", "--out", "near.csv"],
    "localize": ["localize", "--truths", "30,45", "--seed", "1", "--out", "loc"],
    "linkbudget": ["linkbudget", "--out", "report.json"],
    "export-frame": ["export-frame", "--mode", "far", "--steer", "30", "--out", "frame.hex"],
}
LOADED_MODULES = (  # the console script's entry on the arguments that follow, then the risim.* modules
    "import os, sys\n"
    "os._exit = sys.exit  # an entry that leaves through os._exit raises SystemExit here instead\n"
    "from risim.cli import run\n"
    "try:\n"
    "    run()\n"
    "except SystemExit as exc:\n"
    "    if exc.code:\n"
    "        raise\n"
    "print(*sorted(m for m in sys.modules if m.startswith('risim.')))\n"
)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def line_count(path: Path) -> int:
    return len(path.read_text().splitlines())


def child(root: Path, *args: str, check: bool = True, cwd: Path | None = None) -> str:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run(
        [sys.executable, "-B", *args], cwd=cwd or root, env=env, capture_output=True, text=True, check=check
    )
    return done.stdout


def source_state(root: Path) -> dict:
    bytecode = (root / "src" / "risim" / "__pycache__").is_dir()  # before any child imports risim
    lines = sum(line_count(p) for p in sorted((root / "src").rglob("*.py")))
    tests_lines = sum(line_count(p) for p in sorted((root / "tests").glob("*.py")))
    collected = child(
        root, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
        "--continue-on-collection-errors", "tests", check=False,  # as the tier-1 run counts
    )
    tests = re.search(r"(\d+) tests? collected", collected)
    return {
        "src_pycache": bytecode,
        "src_lines": lines,
        "tests_lines": tests_lines,
        "exports": int(child(root, "-c", COUNT_EXPORTS)),
        "tier1_tests": int(tests.group(1)) if tests else None,
        "commands": command_modules(root),
    }


def command_modules(root: Path) -> dict:
    """Per command in COMMANDS: the risim.* modules a fresh process running it
    loads, and their summed source lines; outputs go to a temporary directory."""
    record = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in COMMANDS.items():
            # the command prints its own lines first
            modules = child(root, "-c", LOADED_MODULES, *args, cwd=Path(tmp)).splitlines()[-1].split()
            files = [root / "src" / Path(*m.split(".")).with_suffix(".py") for m in modules]
            record[name] = {"modules": modules, "src_lines": sum(map(line_count, files))}
    return record


def load_runs(root: Path, workload: str) -> dict[int, dict]:
    runs = {}
    for path in sorted((root / ".perfbench" / "results").glob(f"{workload}-seed*-trace0.json")):
        seed = int(re.fullmatch(rf"{workload}-seed(\d+)-trace0\.json", path.name)[1])
        runs[seed] = json.loads(path.read_text())
    return runs


def summarize(runs: dict[int, dict], metrics: list[str]) -> dict:
    docs = list(runs.values())
    return {
        "seeds": sorted(runs),
        "failed_ops": sum(d["failed"] for d in docs),
        "attempted_ops": sum(d["attempted"] for d in docs),
        "src_sha256": sorted({d["provenance"]["src_sha256"] for d in docs}),
        "scaled": {m: quartiles([d["metrics"][m] for d in docs]) for m in metrics if m in docs[0]["metrics"]},
        "raw": {m: quartiles([d["raw"][m] for d in docs]) for m in metrics if m in docs[0]["raw"]},
    }


def compare(base: dict[int, dict], other: dict[int, dict], better: dict[str, str]) -> dict:
    """Over the seeds both sides ran: the seeds whose outputs hash alike
    (`outputs_sha256`) and, per end-to-end metric, the seeds where `other`
    beat `base` (scaled) and the ratio of the medians."""
    seeds = sorted(base.keys() & other.keys())
    same = [s for s in seeds if base[s].get("outputs_sha256") == other[s].get("outputs_sha256") is not None]
    out = {"seeds": seeds, "outputs_sha256_equal": same}
    for metric, direction in better.items():
        pairs = [(base[s]["metrics"].get(metric), other[s]["metrics"].get(metric)) for s in seeds]
        pairs = [(b, o) for b, o in pairs if b is not None and o is not None]
        if not pairs:
            continue
        wins = sum((o < b) if direction == "lower" else (o > b) for b, o in pairs)
        ratio = statistics.median(o for _, o in pairs) / statistics.median(b for b, _ in pairs)
        out[metric] = {"wins": wins, "pairs": len(pairs), "median_ratio": ratio}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", required=True, metavar="NAME=PATH",
                        help="a checkout that ran perfbench; give the baseline first")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)

    sides = {}
    for spec in args.side:
        name, sep, path = spec.partition("=")
        if not sep or not name:
            parser.error(f"--side {spec!r} is not NAME=PATH")
        sides[name] = Path(path).resolve()
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}

    doc = {"end_to_end": better, "sides": {}, "pairs": {}}
    runs = {}
    for name, root in sides.items():
        state = source_state(root)
        runs[name] = {w: load_runs(root, w) for w in args.workload}
        missing = [w for w, r in runs[name].items() if not r]
        if missing:
            parser.error(f"side {name} has no trace0 results for {', '.join(missing)}")
        doc["sides"][name] = {
            **state,
            "workloads": {w: summarize(r, list(better)) for w, r in runs[name].items()},
        }
    base, *others = sides
    for other in others:
        # a pair across bytecode states shows a gain or loss that is not the code's
        same_bytecode = doc["sides"][base]["src_pycache"] == doc["sides"][other]["src_pycache"]
        if not same_bytecode:
            print(f"bench_summary: {other} and {base} differ in compiled bytecode", file=sys.stderr)
        doc["pairs"][f"{other} vs {base}"] = {
            "src_pycache_equal": same_bytecode,
            **{w: compare(runs[base][w], runs[other][w], better) for w in args.workload},
        }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
