"""tools/bench_summary.py reads perfbench result files into medians,
quartiles and paired wins, from synthetic result files."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)


def write_result(root: Path, workload: str, seed: int, p50: float, rate: float, outputs="same") -> None:
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    doc = {
        "attempted": 10,
        "failed": 0,
        "provenance": {"src_sha256": f"{root.name}-sha"},
        "metrics": {"op_ms_p50": p50, "ops_per_s": rate},
        "raw": {"op_ms_p50": p50 * 1.2},
        "outputs_sha256": outputs,
    }
    (results / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(doc))
    (results / f"{workload}-seed{seed}-trace1.json").write_text("{}")  # traced runs are not read


def test_quartiles_of_one_and_of_many():
    assert bench_summary.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "iqr": 0.0, "n": 1}
    q = bench_summary.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q["q1"], q["median"], q["q3"], q["n"]) == (1.5, 3.0, 4.5, 5)


def test_runs_summarize_and_pair_by_seed(tmp_path):
    base, other = tmp_path / "parent", tmp_path / "change"
    for seed, p50 in [(1, 200.0), (2, 210.0), (3, 220.0)]:
        write_result(base, "cli", seed, p50, 1000.0 / p50)
        outputs = "moved" if seed == 3 else "same"
        write_result(other, "cli", seed, p50 - 30.0 if seed != 2 else p50 + 1.0, 1000.0 / p50, outputs)
    write_result(other, "cli", 4, 100.0, 10.0)  # a seed only one side ran is not paired
    write_result(base, "cuts", 1, 1.0, 1000.0)

    runs = bench_summary.load_runs(base, "cli")
    assert sorted(runs) == [1, 2, 3]

    summary = bench_summary.summarize(runs, ["op_ms_p50", "ops_per_s", "peak_rss_mb"])
    assert summary["seeds"] == [1, 2, 3]
    assert summary["src_sha256"] == ["parent-sha"]
    assert summary["scaled"]["op_ms_p50"]["median"] == 210.0
    assert summary["raw"]["op_ms_p50"]["median"] == pytest.approx(252.0)
    assert "peak_rss_mb" not in summary["scaled"] and "ops_per_s" not in summary["raw"]

    better = {"op_ms_p50": "lower", "ops_per_s": "higher", "peak_rss_mb": "lower"}
    pairs = bench_summary.compare(runs, bench_summary.load_runs(other, "cli"), better)
    assert pairs["seeds"] == [1, 2, 3]
    assert pairs["outputs_sha256_equal"] == [1, 2]
    assert pairs["op_ms_p50"]["wins"] == 2 and pairs["op_ms_p50"]["pairs"] == 3
    assert pairs["ops_per_s"]["wins"] == 0
    assert "peak_rss_mb" not in pairs


@pytest.mark.parametrize("change_pycache, equal", [(False, True), (True, False)])
def test_pairs_flag_a_bytecode_mismatch(tmp_path, monkeypatch, capsys, change_pycache, equal):
    base, other = tmp_path / "parent", tmp_path / "change"
    for root in (base, other):
        write_result(root, "cli", 1, 200.0, 5.0)
    pycache = {base: False, other: change_pycache}
    monkeypatch.setattr(
        bench_summary, "source_state",
        lambda root: {"src_pycache": pycache[root], "src_lines": 1, "tests_lines": 1, "exports": 1, "tier1_tests": 1},
    )
    out = tmp_path / "bench.json"
    args = ["--side", f"parent={base}", "--side", f"change={other}", "--workload", "cli", "--out", str(out)]
    assert bench_summary.main(args) == 0
    pair = json.loads(out.read_text())["pairs"]["change vs parent"]
    assert pair["src_pycache_equal"] is equal
    assert pair["cli"]["outputs_sha256_equal"] == [1]
    assert ("differ in compiled bytecode" in capsys.readouterr().err) is not equal


def test_command_modules_of_this_tree():
    # each command runs in its own process through the console script's entry
    root = TOOL.parents[1]
    record = bench_summary.command_modules(root)
    assert list(record) == list(bench_summary.COMMANDS)
    for mode in ("pattern-far", "pattern-near"):
        assert "risim.patterns" in record[mode]["modules"]
    assert "risim.patterns" not in record["linkbudget"]["modules"]
    assert "risim.cli" in record["linkbudget"]["modules"]
    files = [root / "src" / "risim" / f"{m.removeprefix('risim.')}.py" for m in record["linkbudget"]["modules"]]
    assert record["linkbudget"]["src_lines"] == sum(len(f.read_text().splitlines()) for f in files)
