import json
import re
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from risim import (
    DEFAULTS,
    Direction,
    deserialize_frame,
    farfield_steering_mask,
    load_config,
    read_frame,
    serialize_mask,
)
from risim.cli import main

FULL_SECTIONS = "geometry: {}\ncell: {}\nfeed: {}\nlink: {}\nsweep: {}\n"


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, env=None):
    return runner.invoke(main, list(args), env=env, catch_exceptions=False)


def refused(result, code, message, out_dir, inputs=()):
    """Assert the refusal contract: exit `code`, nothing on stdout, one stderr
    line, "config error: " (2) or "domain error: " (3) then `message`, and no
    file in `out_dir` but the run's own `inputs`. `...` in `message` stands for
    any text. A `message` that starts with "Error: " is click's usage error,
    whose text runs from a "Usage: " line to that line."""
    assert result.exit_code == code, result.output
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    if message.startswith("Error: "):
        assert code == 2 and lines[0].startswith("Usage: ")
        line = lines[-1]
    else:
        (line,) = lines
        message = {2: "config error: ", 3: "domain error: "}[code] + message
    assert re.fullmatch(".*".join(map(re.escape, message.split("..."))), line), line
    assert sorted(p.name for p in Path(out_dir).iterdir()) == sorted(inputs)


def test_help_lists_all_workflows(runner):
    result = invoke(runner, "--help")
    assert result.exit_code == 0
    for name in ("pattern", "localize", "linkbudget", "export-frame"):
        assert name in result.output


def test_pattern_far_steer_30(runner, tmp_path):
    out = tmp_path / "cut.csv"
    result = invoke(runner, "pattern", "--mode", "far", "--steer", "30", "--out", str(out))
    assert result.exit_code == 0
    assert out.exists()
    doc = json.loads((tmp_path / "cut.metrics.json").read_text())
    assert doc["mode"] == "far"
    assert abs(doc["main_lobe_deg"] - 30.0) <= 2.0
    lines = out.read_text().splitlines()
    assert lines[0] == "# mode = far"
    assert "theta_deg,gain_db,re,im" in lines[:5]
    assert len(lines) == 5 + 721


def test_pattern_near_boresight(runner, tmp_path):
    out = tmp_path / "near.csv"
    result = invoke(runner, "pattern", "--mode", "near", "--steer", "0", "--out", str(out))
    assert result.exit_code == 0
    doc = json.loads((tmp_path / "near.metrics.json").read_text())
    assert abs(doc["main_lobe_deg"]) <= 2.0


def test_pattern_negative_steer_reports_symmetric_twin(runner, tmp_path):
    # a two-state 0/180 mask at normal incidence has an exactly symmetric
    # magnitude cut, so -30 and +30 steers share one twin-lobe pair and the
    # exact dB tie resolves to the positive angle
    out = tmp_path / "neg.csv"
    result = invoke(runner, "pattern", "--steer", "-30", "--out", str(out))
    assert result.exit_code == 0
    doc = json.loads((tmp_path / "neg.metrics.json").read_text())
    assert abs(abs(doc["main_lobe_deg"]) - 30.0) <= 2.0
    assert doc["mirror_lobe_db"] >= -1e-6


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("mode", ["far", "near"])
def test_pattern_single_element_metrics_are_strict_json(runner, tmp_path, mode):
    # a 1x1 far cut is flat (degenerate, NaN metrics); the 1x1 near cut is
    # a single lobe with no sidelobe (-inf): both must be written as null
    one = tmp_path / "one.yaml"
    one.write_text(FULL_SECTIONS.replace("geometry: {}", "geometry: {m_count: 1, n_count: 1}"))
    out = tmp_path / "one.csv"
    result = invoke(runner, "pattern", "--config", str(one), "--mode", mode, "--out", str(out))
    assert result.exit_code == 0
    doc = strict_json((tmp_path / "one.metrics.json").read_text())
    assert doc["sidelobe_level_db"] is None
    assert doc["degenerate"] is (mode == "far")
    if mode == "far":
        assert doc["main_lobe_deg"] is None and doc["mirror_lobe_db"] is None
    # the stdout line prints null, with no unit, where the file writes null
    line = result.output.strip()
    assert "nan" not in line and "inf" not in line
    assert "SLL null ->" in line
    if mode == "far":
        assert "main lobe null, mirror null," in line


@pytest.mark.parametrize("z", ["1e20", "1e100"])
def test_pattern_weak_far_fed_cut_keeps_its_metrics(runner, tmp_path, z):
    # the raw field is tiny, yet the cut has a clear lobe: only a cut flat
    # relative to its own peak is degenerate
    out = tmp_path / "cut.csv"
    env = {"RISIM_FEED_POSITION_M": f"0,0,{z}"}
    args = ["pattern", "--mode", "near", "--steer", "30", "--out", str(out)]
    result = runner.invoke(main, args, env=env)
    assert result.exit_code == 0, result.output
    doc = strict_json((tmp_path / "cut.metrics.json").read_text())
    assert doc["degenerate"] is False
    assert doc["main_lobe_deg"] == 0.0
    assert doc["sidelobe_level_db"] == pytest.approx(-13.36, abs=0.01)


def test_pattern_cut_with_a_subnormal_peak_is_degenerate(runner, tmp_path):
    # a state-0 magnitude of 5e-324 under an all-zero mask leaves a raw peak
    # near 8e-322 (-6,422 dB): no lobe shape survives at that precision
    out = tmp_path / "cut.csv"
    env = {"RISIM_CELL_MAGNITUDE_STATE0": "5e-324"}
    result = runner.invoke(main, ["pattern", "--steer", "1e-300", "--out", str(out)], env=env)
    assert result.exit_code == 0, result.output
    doc = strict_json((tmp_path / "cut.metrics.json").read_text())
    assert doc["degenerate"] is True
    assert doc["main_lobe_deg"] is None and doc["mirror_lobe_db"] is None
    assert doc["sidelobe_level_db"] is None


def output_bytes(runner, tmp_path, name, args, env):
    """Every file one command writes, by file name."""
    outdir = tmp_path / name
    outdir.mkdir()
    base = {"localize": "loc", "linkbudget": "lb.json"}[args[0]]
    result = runner.invoke(main, [*args, "--out", str(outdir / base)], env=env)
    assert result.exit_code == 0, result.output
    return {path.name: path.read_bytes() for path in sorted(outdir.iterdir())}


def test_cell_overrides_reach_localize_and_linkbudget(runner, tmp_path):
    localize, linkbudget = ["localize", "--truths", "30,45"], ["linkbudget"]
    skew = {"RISIM_CELL_PHASE_STATE1_DEG": "210", "RISIM_CELL_MAGNITUDE_STATE1": "0.5"}
    taper = {"RISIM_CELL_Q_E": "0.65"}
    base_loc = output_bytes(runner, tmp_path, "loc", localize, {})
    skew_loc = output_bytes(runner, tmp_path, "loc-skew", localize, skew)
    # the traces move; the estimates, and so the summary, hold
    for name in ("loc.truth30.csv", "loc.truth45.csv"):
        assert skew_loc[name] != base_loc[name]
    assert skew_loc["loc.summary.json"] == base_loc["loc.summary.json"]
    # the analytic budget models no mask, so the states do not enter it; q_e does
    base_lb = output_bytes(runner, tmp_path, "lb", linkbudget, {})
    assert output_bytes(runner, tmp_path, "lb-skew", linkbudget, skew) == base_lb
    assert output_bytes(runner, tmp_path, "lb-taper", linkbudget, taper) != base_lb


def test_localize_noiseless_exact(runner, tmp_path):
    out = tmp_path / "loc"
    result = invoke(runner, "localize", "--truths", "30,45", "--out", str(out))
    assert result.exit_code == 0
    summary = json.loads((tmp_path / "loc.summary.json").read_text())
    assert summary["truths_deg"] == [30.0, 45.0]
    assert summary["errors_deg"] == [0.0, 0.0]
    assert summary["rmse_deg"] == 0.0
    assert summary["codebook"]["entries"] == 41
    assert (tmp_path / "loc.truth30.csv").exists()
    assert (tmp_path / "loc.truth45.csv").exists()


def sweep_range_outcome(runner, tmp_path, env, truth, exit_code, message):
    """localize under sweep range overrides: one codebook entry at the truth, or refused naming sweep."""
    result = invoke(runner, "localize", "--truths", truth, "--out", str(tmp_path / "loc"), env=env)
    if exit_code:
        refused(result, exit_code, f"invalid config section sweep: ...{message}...", tmp_path)
    else:
        summary = json.loads((tmp_path / "loc.summary.json").read_text())
        assert summary["codebook"]["entries"] == 1 and summary["estimates_deg"] == [float(truth)]


@pytest.mark.parametrize(
    "stop, step, exit_code",
    # stop + step/2 passes the float range: one angle, then a second far past 90
    [("1e308", "1.7e308", 0), ("1.7e308", "1e308", 2)],
)
def test_localize_sweep_range_whose_arange_end_overflows(runner, tmp_path, stop, step, exit_code):
    env = {"RISIM_SWEEP_STOP_DEG": stop, "RISIM_SWEEP_STEP_DEG": step}
    sweep_range_outcome(runner, tmp_path, env, "0", exit_code, "must lie in [0, 90)")


@pytest.mark.parametrize(
    "start, stop, step, truth, exit_code, message",
    [
        ("30", "30", "1e-20", "30", 0, None),  # start + step/2 rounds to start: one entry
        ("-1e308", "1e308", "1.5e308", "0", 2, "must lie in [0, 90)"),  # stop - start overflows
        ("63.99999999999999", "64.00000000000003", "7.105427357601002e-15", "64", 2, "strictly increasing"),
    ],
    ids=["one-entry", "negative-start", "repeated-angle"],
)
def test_localize_sweep_range_reaches_one_outcome(runner, tmp_path, start, stop, step, truth, exit_code, message):
    env = {"RISIM_SWEEP_START_DEG": start, "RISIM_SWEEP_STOP_DEG": stop, "RISIM_SWEEP_STEP_DEG": step}
    sweep_range_outcome(runner, tmp_path, env, truth, exit_code, message)


def test_localize_seeded_noise_deterministic(runner, tmp_path):
    noisy = tmp_path / "noisy.yaml"
    noisy.write_text(FULL_SECTIONS.replace("sweep: {}", "sweep: {noise_kind: gaussian_db, sigma_db: 1.0}"))
    args = ["localize", "--config", str(noisy), "--truths", "30", "--seed", "5"]
    a = invoke(runner, *args, "--out", str(tmp_path / "a"))
    b = invoke(runner, *args, "--out", str(tmp_path / "b"))
    assert a.exit_code == 0 and b.exit_code == 0
    assert (tmp_path / "a.truth30.csv").read_bytes() == (tmp_path / "b.truth30.csv").read_bytes()
    c = invoke(
        runner,
        "localize", "--config", str(noisy), "--truths", "30", "--seed", "6",
        "--out", str(tmp_path / "c"),
    )
    assert (tmp_path / "c.truth30.csv").read_bytes() != (tmp_path / "a.truth30.csv").read_bytes()


def test_localize_env_override_changes_codebook(runner, tmp_path):
    out = tmp_path / "coarse"
    result = invoke(
        runner, "localize", "--truths", "30", "--out", str(out),
        env={"RISIM_SWEEP_STEP_DEG": "3.0"},
    )
    assert result.exit_code == 0
    summary = json.loads((tmp_path / "coarse.summary.json").read_text())
    assert summary["codebook"]["entries"] == 21
    assert summary["codebook"]["step_deg"] == 3.0


def test_localize_estimates_stay_within_a_stop_off_the_lattice(runner, tmp_path):
    # 0..59.9 by 1.5 ends at 58.5: no entry at 60.0 past the summary's own stop_deg
    env = {"RISIM_SWEEP_STOP_DEG": "59.9"}
    result = invoke(runner, "localize", "--truths", "59.9", "--out", str(tmp_path / "loc"), env=env)
    assert result.exit_code == 0
    summary = json.loads((tmp_path / "loc.summary.json").read_text())
    assert summary["codebook"]["entries"] == 40
    assert summary["estimates_deg"] == [58.5]
    result = invoke(runner, "localize", "--truths", "60", "--out", str(tmp_path / "x"), env=env)
    outputs = ["loc.summary.json", "loc.truth59.9.csv"]
    refused(result, 3, "truth 60 outside the codebook field of view [0, 59.9]", tmp_path, outputs)


def test_linkbudget_report(runner, tmp_path):
    out = tmp_path / "report.json"
    result = invoke(runner, "linkbudget", "--out", str(out))
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["received_power_dbm"] == pytest.approx(-43.87, abs=0.5)
    assert doc["snr_db"] == pytest.approx(50.1, abs=0.5)
    assert doc["quantization"] == "analytic"
    assert "received_power_dbm" in result.output
    assert "accumulation_db" in result.output


def test_linkbudget_with_hardware_ledger(runner, tmp_path):
    cfgfile = tmp_path / "lossy.yaml"
    cfgfile.write_text(FULL_SECTIONS.replace("link: {}", "link: {include_hardware_loss: true}"))
    out = tmp_path / "lossy.json"
    result = invoke(runner, "linkbudget", "--config", str(cfgfile), "--out", str(out))
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["hardware_loss_items_db"] == {"dielectric_and_diode": 3.0, "cables": 6.87}
    assert doc["received_power_dbm"] == pytest.approx(-43.87 - 9.87, abs=0.5)


def test_export_frame_matches_library_path(runner, tmp_path):
    out = tmp_path / "frame.hex"
    result = invoke(runner, "export-frame", "--mode", "far", "--steer", "30", "--out", str(out))
    assert result.exit_code == 0
    cfg = load_config()
    expected = serialize_mask(
        farfield_steering_mask(cfg.geometry, Direction(30.0), cfg.wavelength)
    )
    frame = read_frame(out)
    assert frame.octets == expected.octets
    assert expected.to_hex() in result.output
    back = deserialize_frame(frame)
    assert np.array_equal(
        back.bits, farfield_steering_mask(cfg.geometry, Direction(30.0), cfg.wavelength).bits
    )


def test_export_frame_boresight_all_zero(runner, tmp_path):
    out = tmp_path / "zero.hex"
    result = invoke(runner, "export-frame", "--steer", "0", "--out", str(out))
    assert result.exit_code == 0
    assert read_frame(out).octets == bytes(20)


def test_export_frame_deterministic(runner, tmp_path):
    a, b = tmp_path / "a.hex", tmp_path / "b.hex"
    invoke(runner, "export-frame", "--mode", "near", "--steer", "45", "--out", str(a))
    invoke(runner, "export-frame", "--mode", "near", "--steer", "45", "--out", str(b))
    assert read_frame(a).octets == read_frame(b).octets


def test_yaml_added_ledger_item_gets_its_env_name(runner, tmp_path):
    cfgfile = tmp_path / "ledger.yaml"
    link = "link: {include_hardware_loss: true, hardware_loss_db: {connector: 1.0}}"
    cfgfile.write_text(FULL_SECTIONS.replace("link: {}", link))
    out = tmp_path / "ledger.json"
    args = ["linkbudget", "--config", str(cfgfile), "--out", str(out)]
    result = runner.invoke(main, args, env={"RISIM_LINK_HARDWARE_LOSS_DB_CONNECTOR": "2.5"})
    assert result.exit_code == 0
    assert json.loads(out.read_text())["hardware_loss_items_db"] == {"connector": 2.5}
    result = runner.invoke(main, args, env={"RISIM_LINK_HARDWARE_LOSS_DB_CABLES": "5"})
    assert result.exit_code == 2
    assert "RISIM_LINK_HARDWARE_LOSS_DB_CABLES" in result.output


@pytest.mark.parametrize(
    "command, exit_code",
    [
        (["pattern", "--mode", "near"], 0),
        (["export-frame", "--mode", "near"], 0),
        # two ~1e100 m hops put the received power below the float range
        (["localize", "--truths", "30"], 3),
        (["linkbudget"], 3),
    ],
    ids=["pattern", "export-frame", "localize", "linkbudget"],
)
def test_nodes_at_the_distance_bound_run_without_warnings(runner, tmp_path, command, exit_code):
    # feed on the bound, rx 0.99 of it away: placing the user at the rx range stays inside
    env = {"RISIM_FEED_POSITION_M": "0,0,1e100", "RISIM_LINK_RX_POSITION_M": "7e99,0,7e99"}
    result = invoke(runner, *command, "--out", str(tmp_path / "x"), env=env)
    if exit_code == 0:
        assert result.exit_code == 0 and result.stderr == "", result.output
    else:
        refused(result, 3, "received power leaves the float range (...)", tmp_path)


@pytest.mark.parametrize(
    "command, env",
    [
        (["pattern", "--mode", "near", "--steer=30"], {"RISIM_FEED_POSITION_M": "0,0,1e-161"}),
        (["linkbudget"], {"RISIM_LINK_RX_POSITION_M": "0,0,1e-161"}),
    ],
    ids=["feed", "rx"],
)
def test_node_whose_height_squares_to_a_subnormal_runs_without_warnings(runner, tmp_path, command, env):
    result = runner.invoke(main, [*command, "--out", str(tmp_path / "x")], env=env)
    assert result.exit_code == 0, result.output
    assert result.stderr == ""


@pytest.mark.parametrize(
    "command, out",
    [
        (["pattern"], ""),
        (["pattern"], "sub/"),
        (["pattern"], ".csv"),
        (["pattern"], "sub/.csv"),
        (["localize"], ""),
        (["localize"], "sub/"),
    ],
)
def test_out_with_an_empty_file_name_exits_2_before_any_compute(runner, tmp_path, monkeypatch, command, out):
    # each would otherwise write hidden files: .csv, sub/.metrics.json, sub/.summary.json
    import risim.config

    def no_compute(*args, **kwargs):
        raise AssertionError("config resolved for an --out that names no file")

    monkeypatch.setattr(risim.config, "load_config", no_compute)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    result = runner.invoke(main, [*command, "--out", out])
    assert result.exit_code == 2
    assert result.output.splitlines() == [f"config error: --out {out!r} gives an empty file name"]
    assert [p.name for p in tmp_path.rglob("*")] == ["sub"]


@pytest.mark.parametrize(
    "command, out, files",
    [
        (["pattern"], "x.csv", ["x.csv", "x.metrics.json"]),
        (["localize", "--truths", "30"], "x", ["x.truth30.csv", "x.summary.json"]),
        (["linkbudget"], "x.json", ["x.json"]),
        (["export-frame"], "x.hex", ["x.hex"]),
    ],
    ids=["pattern", "localize", "linkbudget", "export-frame"],
)
def test_existing_out_files_are_truncated_without_notice(runner, tmp_path, command, out, files):
    # the documented --out policy: a file already at an output path is
    # replaced whole, with no prompt and no message
    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    fresh.mkdir()
    stale.mkdir()
    for name in files:
        (stale / name).write_bytes(b"stale line\n" * 100_000)
    for directory in (fresh, stale):
        result = runner.invoke(main, [*command, "--out", str(directory / out)])
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
    assert sorted(p.name for p in stale.iterdir()) == sorted(files)
    for name in files:
        assert (stale / name).read_bytes() == (fresh / name).read_bytes()


# The refusal table: each test name maps to its runs (a Run or a tuple of them), or to
# its runs by case id; each name becomes its own test below, so every case keeps its
# test id. The runs of one case share one empty directory and are each checked by `refused`.
class Run(NamedTuple):
    """`risim *args [--config cfg.yaml] --out <out>` under env, where config is
    the text of cfg.yaml and dirs are directories made before the run."""
    args: list
    code: int
    message: str
    env: dict | None = None
    config: str | bytes | None = None
    out: str = "x"
    dirs: tuple = ()


CONFIG, STEER_30 = "cfg.yaml", ["--steer", "30"]
LB, LOC = ["linkbudget"], ["localize", "--truths", "30"]
FAR, NEAR = ["pattern", "--mode", "far"], ["pattern", "--mode", "near"]
FRAME_FAR, FRAME_NEAR = ["export-frame", "--mode", "far"], ["export-frame", "--mode", "near"]
# every command by name, in the mode that builds its near-field grids
NAMED = {"pattern": NEAR, "localize": LOC, "linkbudget": LB, "export-frame": FRAME_NEAR}
PITCH, FREQ, PHASE1 = "RISIM_GEOMETRY_PERIODICITY_M", "RISIM_FREQUENCY_HZ", "RISIM_CELL_PHASE_STATE1_DEG"
CABLES, LOSSY = "RISIM_LINK_HARDWARE_LOSS_DB_CABLES", {"RISIM_LINK_INCLUDE_HARDWARE_LOSS": "1"}
NODES = {"feed": ("RISIM_FEED_POSITION_M", "feed"), "rx": ("RISIM_LINK_RX_POSITION_M", "link")}
CELL_GAIN = "unit cell gain leaves the float range (power ratio {})"
PHASE_GRID = "phase grid contains non-finite entries"
LAMBDA = "invalid config section frequency_hz: frequency must be finite and above c / DBL_MAX ~ 1.67e-300 Hz, got {}"
YAML_ERROR = f"config file {CONFIG} is not valid YAML: "


REFUSALS = {
    "test_bad_config_exits_2": Run(
        ["pattern"], 2, "missing config section: geometry", config=FULL_SECTIONS.replace("geometry: {}\n", "")
    ),
    "test_pattern_nan_taper_or_phase_exits_2_naming_section": {
        "env0-near-cell": Run(NEAR, 2, "invalid config section cell: ...", {"RISIM_CELL_Q_E": "nan"}),
        "env1-near-feed": Run(NEAR, 2, "invalid config section feed: ...", {"RISIM_FEED_Q_F": "nan"}),
        "env2-far-cell": Run(FAR, 2, "invalid config section cell: ...", {PHASE1: "nan"}),
        "env3-near-cell": Run(NEAR, 2, "invalid config section cell: ...", {PHASE1: "nan"}),
    },
    # at 1.7e308 Hz on a 1e9 m lattice k0 * w overflows: the far cut's field
    # is NaN, and the near synthesis already stops on its phase grid
    "test_pattern_whose_phase_overflows_exits_3_and_writes_nothing": {
        "far": Run(FAR, 3, "cut field must be finite, got a peak magnitude of nan", {FREQ: "1.7e308", PITCH: "1e9"}),
        "near": Run(NEAR, 3, PHASE_GRID, {FREQ: "1.7e308", PITCH: "1e9"}),
    },
    "test_localize_truth_outside_fov_exits_3": Run(
        ["localize", "--truths", "75"], 3, "truth 75 outside the codebook field of view [0, 60]"
    ),
    "test_localize_unparseable_truths_exits_2": (
        Run(["localize", "--truths", "abc"], 2, "cannot parse --truths 'abc': ..."),
        Run(["localize", "--truths", ","], 2, "--truths must name at least one angle"),
    ),
    "test_localize_colliding_truth_files_exit_2": Run(
        ["localize", "--truths", "30,30.0000001"], 2, "--truths '30,30.0000001' gives two angles the same output file"
    ),
    "test_localize_invalid_env_value_exits_2_naming_section": {
        f"env{i}-{section}": Run(LOC, 2, f"invalid config section {section}...", env)
        for i, (env, section) in enumerate([
            ({"RISIM_SWEEP_NOISE_KIND": "gaussian_db", "RISIM_SWEEP_SIGMA_DB": "nan"}, "sweep"),
            ({"RISIM_LINK_Q_R": "-5"}, "link"),
            ({"RISIM_LINK_Q_R": "nan"}, "link"),
            ({"RISIM_SWEEP_STEP_DEG": "inf"}, "sweep"),
            ({"RISIM_SWEEP_STEP_DEG": "nan"}, "sweep"),
            ({"RISIM_SWEEP_STEP_DEG": "1e-9"}, "sweep"),
            ({FREQ: "nan"}, "frequency_hz"),
            ({FREQ: "inf"}, "frequency_hz"),
            ({"RISIM_FEED_Q_F": "-5"}, "feed"),
            ({"RISIM_FEED_POSITION_M": "nan,0.072,0.3"}, "feed: coordinates must be finite"),
            ({"RISIM_LINK_RX_POSITION_M": "1,inf,3"}, "link: coordinates must be finite"),
        ])
    },
    "test_out_of_range_steer_is_named_as_given": {
        f"{steer}-command{i}": Run(
            [*command, f"--steer={steer}"], 3, f"signed theta must be in (-90, 90), got {float(steer)}"
        )
        for steer in ["-90", "90", "nan"]
        for i, command in enumerate([["pattern"], NEAR, ["export-frame"]])
    },
    "test_export_frame_rejects_other_boards": Run(
        ["export-frame"], 3, "frame format is fixed to a 16x10 board, got 8x10",
        config=FULL_SECTIONS.replace("geometry: {}", "geometry: {m_count: 8}"),
    ),
    "test_unknown_env_name_exits_2_naming_it": {
        name: Run(LOC, 2, f"unknown environment override {name}", {name: "3"})
        for name in [
            "RISIM_SWEEP_STEPDEG", "RISIM_LINK", "RISIM_LINK_HARDWARE_LOSS_DB", "RISIM_LINK_HARDWARE_LOSS_DB_CABEL"
        ]
    },
    # the feed horn has one exponent, feed.q_f
    "test_link_q_t_exits_2_naming_the_key": {
        f"{kind}-command{i}": Run(command, 2, message, env, FULL_SECTIONS.replace("link: {}", link))
        for kind, env, link, message in [
            ("env", {"RISIM_LINK_Q_T": "7"}, "link: {}", "unknown environment override RISIM_LINK_Q_T"),
            ("yaml", {}, "link: {q_t: 7}", "unknown config key: link.q_t"),
        ]
        for i, command in enumerate([LB, NEAR])
    },
    "test_feed_that_illuminates_nothing_exits_3": {
        f"command{i}": Run(
            command, 3, "the feed illuminates no element (q_f=1e+08, q_e=0.5)", {"RISIM_FEED_Q_F": "1e8"}
        )
        for i, command in enumerate([LB, LOC, NEAR])
    },
    "test_loss_items_sharing_an_env_name_exit_2": tuple(
        Run(
            LB, 2, f"config keys 'cables' and 'CABLES' share the override name {CABLES}", env,
            FULL_SECTIONS.replace(
                "link: {}", "link: {include_hardware_loss: true, hardware_loss_db: {cables: 1.0, CABLES: 2.0}}"
            ),
        )
        for env in ({}, {CABLES: "0"})
    ),
    "test_negative_seed_exits_2": {
        kind: (
            Run(
                LOC, 2, "invalid config section sweep: seed must be >= 0, got -4", {**noise, "RISIM_SWEEP_SEED": "-4"}
            ),
            Run([*LOC, "--seed", "-4"], 2, "Error: Invalid value for '--seed': -4 is not in the range x>=0.", noise),
        )
        for kind in ["none", "gaussian_db"]
        for noise in [{"RISIM_SWEEP_NOISE_KIND": kind, "RISIM_SWEEP_SIGMA_DB": "1"}]
    },
    "test_non_finite_ledger_item_exits_2": {
        raw: Run(
            LB, 2, "invalid config section link: powers, gains and hardware loss items must be finite",
            {**LOSSY, CABLES: raw},
        )
        for raw in ["nan", "inf"]
    },
    "test_power_out_of_float_range_exits_3": {
        f"env{i}-{quantity}-command{j}": Run(command, 3, f"{quantity} leaves the float range (...)", env)
        for i, (env, quantity) in enumerate([
            ({"RISIM_LINK_Q_R": "1e10"}, "received power"),
            ({"RISIM_LINK_TX_POWER_DBM": "1e8"}, "received power"),
            ({**LOSSY, CABLES: "1e8"}, "received power"),
            ({FREQ: "1e300"}, "unit cell gain"),
            # just above c / DBL_MAX (~1.67e-300 Hz): a finite wavelength whose square overflows
            ({FREQ: "1.7e-300"}, "unit cell gain"),
            ({PITCH: "1e-300"}, "unit cell gain"),
        ])
        for j, command in enumerate([LB, LOC])
    },
    # below c / DBL_MAX (~1.67e-300 Hz) c / f is inf and k0 is 0: every command
    # would otherwise synthesize flat masks or fail late on the cell gain
    "test_frequency_whose_wavelength_overflows_exits_2": {
        f"command{i}-{frequency}": Run(command, 2, LAMBDA.format(frequency), {FREQ: frequency})
        for frequency in ["1e-300", "1.6e-300"]
        for i, command in enumerate([FAR, NEAR, FRAME_FAR, FRAME_NEAR, LB, LOC])
    },
    # lambda = c / f lies in (1.3e154, 1.8e308) m: finite, but lambda * lambda overflows
    # to inf, so the unit cell's power ratio is 0.0, which _log10 refuses
    "test_wavelength_whose_square_overflows_exits_3": {
        f"{frequency}-command{i}": Run(command, 3, CELL_GAIN.format("0.0"), {FREQ: frequency})
        for i, command in enumerate([LB, LOC])
        for frequency in ["1e-150", "1e-290"]
    },
    "test_linkbudget_scalar_failure_comes_before_any_grid_warning": Run(
        LB, 3, CELL_GAIN.format("inf"), {PITCH: "1e300"}
    ),
    "test_non_finite_phase_grid_prints_only_its_error": {
        f"command{i}-{pitch}": Run(command, 3, PHASE_GRID, {PITCH: pitch})
        for i, (command, pitch) in enumerate(
            [(LOC, "1e300"), (NEAR, "1e155"), (NEAR, "1e300"), ([*FRAME_NEAR, *STEER_30], "1e300")]
        )
    },
    # the phases overflow to inf/NaN; a numpy warning raised on the way would
    # turn into a traceback exit here instead of the one domain error line
    "test_extreme_pitch_prints_one_error_line": {
        f"command{i}-{pitch}": Run(
            command, 3, CELL_GAIN.format("inf") if command == LB else PHASE_GRID, {PITCH: pitch}
        )
        for pitch in ["1e304", "1e307"]
        for i, command in enumerate(
            [[*FAR, *STEER_30], NEAR, [*FRAME_FAR, *STEER_30], [*FRAME_NEAR, *STEER_30], LB, LOC]
        )
    },
    "test_unwritable_out_exits_2_naming_the_path": {
        f"command{i}-{out}": Run(command, 2, f"cannot write output: [Errno ...] ...: '{path}'", out=out or ".")
        for i, (command, out, path) in enumerate([
            (LB, "missing/lb.json", "missing/lb.json"),
            (["pattern"], "missing/cut.csv", "missing/cut.csv"),
            (LOC, "missing/loc", "missing/loc.truth30.csv"),
            (["export-frame"], "missing/frame.hex", "missing/frame.hex"),
            (LB, "", "."),  # "" names the run's own directory
        ])
    },
    # a later write that fails takes with it the files written before it
    "test_failed_write_leaves_no_output": {
        command: Run([command], 2, f"cannot write output: [Errno ...] ...: '{taken}'", out=out, dirs=(taken,))
        for command, out, taken in [
            ("pattern", "cut.csv", "cut.metrics.json"),
            ("localize", "loc", "loc.summary.json"),
        ]
    },
    # with seed 2 and sigma 6e307 truth 30 stays finite and truth 45 overflows
    "test_non_finite_noisy_rssi_exits_3_writing_nothing": {
        f"{truths}-{seed}-{sigma}": Run(
            ["localize", "--truths", truths, "--seed", seed], 3,
            f"noisy RSSI is not finite (sigma_db={float(sigma):g})",
            {"RISIM_SWEEP_NOISE_KIND": "gaussian_db", "RISIM_SWEEP_SIGMA_DB": sigma},
        )
        for truths, seed, sigma in [("30", "0", "1e308"), ("30,45", "2", "6e307")]
    },
    "test_non_utf8_config_exits_2_naming_the_path": Run(
        LB, 2, f"cannot read config file {CONFIG}: 'utf-8' codec can't decode ...", config=b"\xff\xfe\x00bad"
    ),
    "test_duplicate_config_key_exits_2_naming_it": {
        case: Run(LB, 2, f"{YAML_ERROR}found duplicate key '{key}' (...)", config=FULL_SECTIONS.replace(old, new))
        for case, old, new, key in [
            ("top-level", "sweep: {}\n", "sweep: {}\nfrequency_hz: 5.5e9\nfrequency_hz: 6.0e9\n", "frequency_hz"),
            ("ledger", "link: {}", "link: {hardware_loss_db: {cables: 1.0, cables: 2.0}}", "cables"),
        ]
    },
    "test_yaml_error_is_one_line_naming_the_file": {
        case: Run(LB, 2, YAML_ERROR + problem, config=FULL_SECTIONS.replace(old, new))
        for case, old, new, problem in [
            ("duplicate-key", "geometry: {}", "geometry: {m_count: 16, m_count: 8}",
             "found duplicate key 'm_count' (line 1, column 25)"),
            ("unclosed-bracket", "sweep: {}", "sweep: [unclosed",
             "expected ',' or ']', but got '<stream end>' (line 6, column 1)"),
        ]
    },
    "test_far_off_node_exits_2_naming_its_section": {
        f"{node}-{name}": Run(
            command, 2, f"invalid config section {section}: {node} must lie within 1e+100 m of the origin, ...",
            {key: {"feed": "0,0,1e200", "rx": "1e300,0,1e300"}[node]},
        )
        for node, (key, section) in NODES.items()
        for name, command in NAMED.items()
    },
    "test_infinite_periodicity_exits_2_naming_geometry": {
        name: Run(
            command, 2, "invalid config section geometry: periodicity must be positive and finite, got inf",
            {PITCH: "inf"},
        )
        for name, command in NAMED.items()
    },
    # the distance from such a node to the element under it is 0: rejected
    # as a node on the surface is, before any grid is built
    "test_node_whose_height_squares_to_zero_exits_2_naming_its_section": {
        f"{node}-{z}-{name}": Run(
            command, 2, f"invalid config section {section}: {node} must sit off the surface ...", {key: f"0,0,{z}"}
        )
        for node, (key, section) in NODES.items()
        for z in ["5e-324", "1e-162"]
        for name, command in [("pattern", [*NEAR, "--steer=30"]), ("localize", LOC), ("linkbudget", LB)]
    },
    # 257 x 256 is one row over the 65,536-element cap
    "test_too_many_elements_exit_2_naming_geometry": {
        f"{case}-command{i}": Run(command, 2, "invalid config section geometry: element counts must be ...", env)
        for case, env in [
            ("1e21", {"RISIM_GEOMETRY_M_COUNT": str(10**21)}),
            ("just-over", {"RISIM_GEOMETRY_M_COUNT": "257", "RISIM_GEOMETRY_N_COUNT": "256"}),
        ]
        for i, command in enumerate([LB, ["pattern"], LOC])
    },
}


def refuse_all(runs):
    """Make each run in one empty directory, checking each with `refused`."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        for run in (runs,) if isinstance(runs, Run) else runs:
            inputs, args = list(run.dirs), list(run.args)
            for name in run.dirs:
                Path(name).mkdir()
            if run.config is not None:
                Path(CONFIG).write_bytes(run.config if isinstance(run.config, bytes) else run.config.encode())
                inputs.append(CONFIG)
                args += ["--config", CONFIG]
            result = runner.invoke(main, [*args, "--out", run.out], env=run.env, catch_exceptions=False)
            refused(result, run.code, run.message, Path(), inputs)


def refusal_test(runs):
    """The test of one REFUSALS entry, parametrized by case id where it has cases."""
    if not isinstance(runs, dict):
        return lambda: refuse_all(runs)

    @pytest.mark.parametrize("runs", runs.values(), ids=runs.keys())
    def test(runs):
        refuse_all(runs)
    return test


globals().update({name: refusal_test(runs) for name, runs in REFUSALS.items()})


# every float key of DEFAULTS and every default ledger item, by env name;
# step_deg is left out because it sizes the codebook arrays
FUZZ_NAMES = [FREQ] + [
    f"RISIM_{section}_{key}".upper()
    for section, body in DEFAULTS.items()
    if isinstance(body, dict)
    for key, default in body.items()
    if type(default) is float and key != "step_deg"
]
FUZZ_NAMES += [f"RISIM_LINK_HARDWARE_LOSS_DB_{item}".upper() for item in DEFAULTS["link"]["hardware_loss_db"]]
FUZZ_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e-300", "1e-310", "1e8", "1e300"]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    command=st.sampled_from([LB, LOC]),
    overrides=st.dictionaries(st.sampled_from(FUZZ_NAMES), st.sampled_from(FUZZ_VALUES), min_size=1, max_size=2),
    lossy=st.booleans(),
)
def test_extreme_float_overrides_exit_cleanly(command, overrides, lossy):
    runner = CliRunner()
    env = {**overrides, "RISIM_LINK_INCLUDE_HARDWARE_LOSS": str(lossy)}
    with runner.isolated_filesystem():
        result = runner.invoke(main, command, env=env, catch_exceptions=False)
        assert result.exit_code in (0, 2, 3), result.output
        if result.exit_code == 0:
            for path in Path().glob("*.json"):
                strict_json(path.read_text())
        else:
            refused(result, result.exit_code, "...", Path())
