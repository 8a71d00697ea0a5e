"""The risim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cli,sweep,cuts,coverage} \
        --seed N --seconds S --trace {0,1}

With --trace 0 it measures the end-to-end metrics untraced; with --trace 1
it measures the per-layer metrics from traced passes. Metric names and
units come from BENCHMARK.json. Human-readable lines go first; the last
line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. The full result, with provenance, is written under
.perfbench/results/. Run it from the root of a checkout: it imports
`risim` from the checkout's src/ and exits with status 2 if that is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli", "sweep", "cuts", "coverage"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(doc: dict, spec: dict, trace: bool) -> dict:
    """The final JSON object: every metric BENCHMARK.json names for this
    mode, with its unit. Raises KeyError if one was not measured."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in doc["metrics"]]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m["name"]: {"value": doc["metrics"][m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "risim" / "__init__.py").is_file():
        print(f"perfbench: no risim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    doc = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    line = result_line(doc, spec, bool(args.trace))
    for message in doc["failures"]:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{doc['attempted']} ops attempted, {doc['failed']} failed "
          f"(error_rate {doc['error_rate']:.4g}) -> {doc['results_file']}")
    if "rmse_deg" in doc:
        print(f"rmse_deg {doc['rmse_deg']!r} over {doc['rmse_truths']} truths")
    for name, m in line["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
