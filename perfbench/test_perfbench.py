"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture()
def short(monkeypatch):
    """Shrink the fixed sample counts so a run takes seconds."""
    monkeypatch.setattr(harness, "MIN_OPS", 5)
    monkeypatch.setattr(harness, "SETUP_PROBES", 1)
    monkeypatch.setattr(harness, "STARTUP_PROBES", 1)


def first_inputs(name, seed, n=25):
    w = workloads.WORKLOADS[name](ROOT, ROOT / ".perfbench" / "unused")
    return list(itertools.islice(w.inputs(seed), n))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    assert first_inputs(name, 7) == first_inputs(name, 7)
    assert first_inputs(name, 7) != first_inputs(name, 8)


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_short_run_emits_every_metric(short, name, trace):
    doc = harness.run(name, 3, 0.2, trace, ROOT)
    line = run.result_line(doc, SPEC, trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    assert line["failed"] == 0 and doc["error_rate"] == 0, doc["failures"]
    assert line["correct"] and line["attempted"] >= 1
    assert doc["provenance"]["seed"] == 3 and doc["provenance"]["workload"] == name


def test_flipped_frame_bit_is_a_failure_and_the_run_goes_on(short, monkeypatch, tmp_path):
    original = workloads.CliWorkload.op

    def corrupting_op(self, inp):
        result = original(self, inp)
        if inp["kind"] == "export-frame":
            path = result.outdir / "frame.hex"
            text = path.read_text()
            last = text.rstrip("\n")[-1]
            flipped = format(int(last, 16) ^ 1, "X")
            path.write_text(text.rstrip("\n")[:-1] + flipped + "\n")
        return result

    monkeypatch.setattr(workloads.CliWorkload, "op", corrupting_op)
    monkeypatch.setattr(harness, "MIN_OPS", 10)
    w = workloads.CliWorkload(ROOT, tmp_path / "work")
    res = harness.timed_run(w, 3, 0.0)
    tally = res["tally"]
    assert tally.attempted == 10
    assert sorted(tally.failed_ops) == ["op 4", "op 9"]  # the two export-frame ops
    assert all("differ" in m for m in tally.messages())


def test_unreadable_frame_is_a_failed_check(tmp_path):
    w = workloads.CliWorkload(ROOT, tmp_path)
    w.setup()
    result = workloads.CliResult(0, b"", w.outdir)
    failures = w.check({"kind": "export-frame"}, result, {"frame.hex": b"not hex\n"})
    assert failures and "round-trip" in failures[0]


def test_tracer_rebinds_aliases_and_restores_them():
    from risim import config, geometry, linkbudget

    original = geometry.element_grid
    aliases = [m for n, m in sys.modules.items() if n.startswith("risim") and getattr(m, "element_grid", None) is original]
    assert len(aliases) > 2  # geometry, the package and the modules that import it by name
    scenario = config.load_config().link_scenario()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert all(m.element_grid is not original for m in aliases)
        linkbudget.received_power(scenario)
    finally:
        tr.uninstall()
    assert all(m.element_grid is original for m in aliases)
    calls, self_ns = tracer.aggregate(tr.spans, 0, len(tr.spans))
    assert calls["linkbudget.received_power"] == 1
    assert all(v >= 0 for v in self_ns.values())


def test_bare_directory_exits_nonzero(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "cuts", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
