import json
from pathlib import Path

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


def test_bad_config_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("cell: {}\nfeed: {}\nlink: {}\nsweep: {}\n")
    result = runner.invoke(main, ["pattern", "--config", str(bad)])
    assert result.exit_code == 2
    assert "missing config section: geometry" in result.stderr


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "env, mode, section",
    [
        ({"RISIM_CELL_Q_E": "nan"}, "near", "cell"),
        ({"RISIM_FEED_Q_F": "nan"}, "near", "feed"),
        ({"RISIM_CELL_PHASE_STATE1_DEG": "nan"}, "far", "cell"),
        ({"RISIM_CELL_PHASE_STATE1_DEG": "nan"}, "near", "cell"),
    ],
)
def test_pattern_nan_taper_or_phase_exits_2_naming_section(runner, tmp_path, env, mode, section):
    out = tmp_path / "cut.csv"
    result = runner.invoke(main, ["pattern", "--mode", mode, "--out", str(out)], env=env)
    assert result.exit_code == 2
    assert f"invalid config section {section}" in result.output
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("mode", ["far", "near"])
def test_pattern_whose_phase_overflows_exits_3_and_writes_nothing(runner, tmp_path, mode):
    # at 1.7e308 Hz on a 1e9 m lattice k0 * w overflows: the far cut's field
    # is NaN, and the near synthesis already stops on its phase grid
    env = {"RISIM_FREQUENCY_HZ": "1.7e308", "RISIM_GEOMETRY_PERIODICITY_M": "1e9"}
    result = runner.invoke(main, ["pattern", "--mode", mode, "--out", str(tmp_path / "cut.csv")], env=env)
    assert result.exit_code == 3, result.output
    assert result.output.startswith("domain error:") and result.output.count("\n") == 1
    assert "Traceback" not in result.output and "Warning" not in result.output
    assert list(tmp_path.iterdir()) == []


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


def test_localize_truth_outside_fov_exits_3(runner, tmp_path):
    result = runner.invoke(main, ["localize", "--truths", "75", "--out", str(tmp_path / "x")])
    assert result.exit_code == 3
    assert "field of view" in result.stderr


def test_localize_unparseable_truths_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["localize", "--truths", "abc", "--out", str(tmp_path / "x")])
    assert result.exit_code == 2
    result = runner.invoke(main, ["localize", "--truths", ",", "--out", str(tmp_path / "x")])
    assert result.exit_code == 2


def test_localize_colliding_truth_files_exit_2(runner, tmp_path):
    out = tmp_path / "loc"
    result = runner.invoke(main, ["localize", "--truths", "30,30.0000001", "--out", str(out)])
    assert result.exit_code == 2
    assert "--truths" in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "env, section",
    [
        ({"RISIM_SWEEP_NOISE_KIND": "gaussian_db", "RISIM_SWEEP_SIGMA_DB": "nan"}, "sweep"),
        ({"RISIM_LINK_Q_R": "-5"}, "link"),
        ({"RISIM_LINK_Q_R": "nan"}, "link"),
        ({"RISIM_SWEEP_STEP_DEG": "inf"}, "sweep"),
        ({"RISIM_SWEEP_STEP_DEG": "nan"}, "sweep"),
        ({"RISIM_SWEEP_STEP_DEG": "1e-9"}, "sweep"),
        ({"RISIM_FREQUENCY_HZ": "nan"}, "frequency_hz"),
        ({"RISIM_FREQUENCY_HZ": "inf"}, "frequency_hz"),
        ({"RISIM_FEED_Q_F": "-5"}, "feed"),
        ({"RISIM_FEED_POSITION_M": "nan,0.072,0.3"}, "feed: coordinates must be finite"),
        ({"RISIM_LINK_RX_POSITION_M": "1,inf,3"}, "link: coordinates must be finite"),
    ],
)
def test_localize_invalid_env_value_exits_2_naming_section(runner, tmp_path, env, section):
    result = runner.invoke(
        main, ["localize", "--truths", "30", "--out", str(tmp_path / "x")], env=env
    )
    assert result.exit_code == 2
    assert f"invalid config section {section}" in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "stop, step, exit_code",
    # stop + step/2 passes the float range: one angle, then a second far past 90
    [("1e308", "1.7e308", 0), ("1.7e308", "1e308", 2)],
)
def test_localize_sweep_range_whose_arange_end_overflows(runner, tmp_path, stop, step, exit_code):
    env = {"RISIM_SWEEP_STOP_DEG": stop, "RISIM_SWEEP_STEP_DEG": step}
    out = tmp_path / "loc"
    result = runner.invoke(main, ["localize", "--truths", "0", "--out", str(out)], env=env)
    assert result.exit_code == exit_code, result.output
    assert isinstance(result.exception, (SystemExit, type(None)))  # no traceback
    if exit_code == 0:
        summary = json.loads((tmp_path / "loc.summary.json").read_text())
        assert summary["codebook"]["entries"] == 1 and summary["estimates_deg"] == [0.0]
    else:
        assert "invalid config section sweep" in result.stderr
        assert "must lie in [0, 90)" in result.stderr
        assert list(tmp_path.iterdir()) == []


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
    result = runner.invoke(main, ["localize", "--truths", truth, "--out", str(tmp_path / "loc")], env=env)
    assert result.exit_code == exit_code, result.output
    assert isinstance(result.exception, (SystemExit, type(None)))  # no traceback
    if exit_code == 0:
        summary = json.loads((tmp_path / "loc.summary.json").read_text())
        assert summary["codebook"]["entries"] == 1 and summary["estimates_deg"] == [30.0]
    else:
        assert len(result.stderr.splitlines()) == 1 and "invalid config section sweep" in result.stderr
        assert message in result.stderr
        assert list(tmp_path.iterdir()) == []


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
    result = runner.invoke(main, ["localize", "--truths", "60", "--out", str(tmp_path / "x")], env=env)
    assert result.exit_code == 3 and "field of view" in result.stderr


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


@pytest.mark.parametrize("command", [["pattern"], ["pattern", "--mode", "near"], ["export-frame"]])
@pytest.mark.parametrize("steer", ["-90", "90", "nan"])
def test_out_of_range_steer_is_named_as_given(runner, tmp_path, command, steer):
    result = runner.invoke(main, [*command, f"--steer={steer}", "--out", str(tmp_path / "x")])
    assert result.exit_code == 3
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("domain error: signed theta must be in (-90, 90)")
    assert lines[0].endswith(f"got {float(steer)}")
    assert list(tmp_path.iterdir()) == []


def test_export_frame_rejects_other_boards(runner, tmp_path):
    cfgfile = tmp_path / "small.yaml"
    cfgfile.write_text(FULL_SECTIONS.replace("geometry: {}", "geometry: {m_count: 8}"))
    result = runner.invoke(main, ["export-frame", "--config", str(cfgfile), "--out", str(tmp_path / "f.hex")])
    assert result.exit_code == 3
    assert "16x10" in result.stderr


LOCALIZE_30 = ["localize", "--truths", "30"]


@pytest.mark.parametrize(
    "name",
    [
        "RISIM_SWEEP_STEPDEG",
        "RISIM_LINK",
        "RISIM_LINK_HARDWARE_LOSS_DB",
        "RISIM_LINK_HARDWARE_LOSS_DB_CABEL",
    ],
)
def test_unknown_env_name_exits_2_naming_it(runner, tmp_path, name):
    result = runner.invoke(main, [*LOCALIZE_30, "--out", str(tmp_path / "x")], env={name: "3"})
    assert result.exit_code == 2
    assert f"unknown environment override {name}" in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["linkbudget"], ["pattern", "--mode", "near"]])
@pytest.mark.parametrize(
    "env, link, message",
    [
        ({"RISIM_LINK_Q_T": "7"}, "{}", "unknown environment override RISIM_LINK_Q_T"),
        ({}, "{q_t: 7}", "unknown config key: link.q_t"),
    ],
    ids=["env", "yaml"],
)
def test_link_q_t_exits_2_naming_the_key(runner, tmp_path, command, env, link, message):
    # the feed horn has one exponent, feed.q_f
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text(FULL_SECTIONS.replace("link: {}", f"link: {link}"))
    args = [*command, "--config", str(cfgfile), "--out", str(tmp_path / "x")]
    result = runner.invoke(main, args, env=env)
    assert result.exit_code == 2
    assert result.output.splitlines() == [f"config error: {message}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]


@pytest.mark.parametrize("command", [["linkbudget"], LOCALIZE_30, ["pattern", "--mode", "near"]])
def test_feed_that_illuminates_nothing_exits_3(runner, tmp_path, command):
    env = {"RISIM_FEED_Q_F": "1e8"}
    result = runner.invoke(main, [*command, "--out", str(tmp_path / "x")], env=env)
    assert result.exit_code == 3
    assert result.output.splitlines() == [
        "domain error: the feed illuminates no element (q_f=1e+08, q_e=0.5)"
    ]
    assert list(tmp_path.iterdir()) == []


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


def test_loss_items_sharing_an_env_name_exit_2(runner, tmp_path):
    cfgfile = tmp_path / "dup.yaml"
    link = "link: {include_hardware_loss: true, hardware_loss_db: {cables: 1.0, CABLES: 2.0}}"
    cfgfile.write_text(FULL_SECTIONS.replace("link: {}", link))
    out = tmp_path / "dup.json"
    args = ["linkbudget", "--config", str(cfgfile), "--out", str(out)]
    for env in ({}, {"RISIM_LINK_HARDWARE_LOSS_DB_CABLES": "0"}):
        result = runner.invoke(main, args, env=env)
        assert result.exit_code == 2
        assert "'cables' and 'CABLES'" in result.stderr
        assert "RISIM_LINK_HARDWARE_LOSS_DB_CABLES" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("kind", ["none", "gaussian_db"])
def test_negative_seed_exits_2(runner, tmp_path, kind):
    noise = {"RISIM_SWEEP_NOISE_KIND": kind, "RISIM_SWEEP_SIGMA_DB": "1"}
    out = ["--out", str(tmp_path / "x")]
    result = runner.invoke(main, [*LOCALIZE_30, *out], env={**noise, "RISIM_SWEEP_SEED": "-4"})
    assert result.exit_code == 2
    assert "invalid config section sweep: seed" in result.output
    result = runner.invoke(main, [*LOCALIZE_30, "--seed", "-4", *out], env=noise)
    assert result.exit_code == 2
    assert "--seed" in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("raw", ["nan", "inf"])
def test_non_finite_ledger_item_exits_2(runner, tmp_path, raw):
    env = {"RISIM_LINK_INCLUDE_HARDWARE_LOSS": "1", "RISIM_LINK_HARDWARE_LOSS_DB_CABLES": raw}
    result = runner.invoke(main, ["linkbudget", "--out", str(tmp_path / "lb.json")], env=env)
    assert result.exit_code == 2
    assert "invalid config section link: powers, gains and hardware loss items" in result.output


@pytest.mark.parametrize("command", [["linkbudget"], LOCALIZE_30])
@pytest.mark.parametrize(
    "env, quantity",
    [
        ({"RISIM_LINK_Q_R": "1e10"}, "received power"),
        ({"RISIM_LINK_TX_POWER_DBM": "1e8"}, "received power"),
        (
            {"RISIM_LINK_INCLUDE_HARDWARE_LOSS": "1", "RISIM_LINK_HARDWARE_LOSS_DB_CABLES": "1e8"},
            "received power",
        ),
        ({"RISIM_FREQUENCY_HZ": "1e300"}, "unit cell gain"),
        # just above c / DBL_MAX (~1.67e-300 Hz): a finite wavelength whose square overflows
        ({"RISIM_FREQUENCY_HZ": "1.7e-300"}, "unit cell gain"),
        ({"RISIM_GEOMETRY_PERIODICITY_M": "1e-300"}, "unit cell gain"),
    ],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_power_out_of_float_range_exits_3(runner, tmp_path, command, env, quantity):
    result = runner.invoke(main, [*command, "--out", str(tmp_path / "x")], env=env)
    assert result.exit_code == 3
    assert f"domain error: {quantity} leaves the float range" in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("frequency", ["1e-300", "1.6e-300"])
@pytest.mark.parametrize(
    "command",
    [
        ["pattern", "--mode", "far"],
        ["pattern", "--mode", "near"],
        ["export-frame", "--mode", "far"],
        ["export-frame", "--mode", "near"],
        ["linkbudget"],
        LOCALIZE_30,
    ],
)
def test_frequency_whose_wavelength_overflows_exits_2(runner, tmp_path, command, frequency):
    # below c / DBL_MAX (~1.67e-300 Hz) c / f is inf and k0 is 0: every command
    # would otherwise synthesize flat masks or fail late on the cell gain
    env = {"RISIM_FREQUENCY_HZ": frequency}
    result = runner.invoke(main, [*command, "--out", str(tmp_path / "x")], env=env)
    assert result.exit_code == 2
    assert result.output.splitlines() == [
        "config error: invalid config section frequency_hz:"
        f" frequency must be finite and above c / DBL_MAX ~ 1.67e-300 Hz, got {frequency}"
    ]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["linkbudget"], LOCALIZE_30])
@pytest.mark.parametrize("frequency", ["1e-150", "1e-290"])
def test_wavelength_whose_square_overflows_exits_3(runner, tmp_path, command, frequency):
    # lambda = c / f lies in (1.3e154, 1.8e308) m: finite, but lambda * lambda overflows
    # to inf, so the unit cell's power ratio is 0.0, which _log10 refuses
    env = {"RISIM_FREQUENCY_HZ": frequency}
    result = runner.invoke(main, [*command, "--out", str(tmp_path / "x")], env=env)
    assert result.exit_code == 3
    assert result.output.splitlines() == [
        "domain error: unit cell gain leaves the float range (power ratio 0.0)"
    ]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_linkbudget_scalar_failure_comes_before_any_grid_warning(runner, tmp_path):
    env = {"RISIM_GEOMETRY_PERIODICITY_M": "1e300"}
    result = runner.invoke(main, ["linkbudget", "--out", str(tmp_path / "lb.json")], env=env)
    assert result.exit_code == 3
    assert result.output.splitlines() == [
        "domain error: unit cell gain leaves the float range (power ratio inf)"
    ]


@pytest.mark.parametrize(
    "command, pitch",
    [
        (["export-frame", "--mode", "near", "--steer", "30"], "1e300"),
        (["pattern", "--mode", "near"], "1e155"),
        (["pattern", "--mode", "near"], "1e300"),
    ],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nearfield_mask_with_non_finite_phases_exits_3(runner, tmp_path, command, pitch):
    env = {"RISIM_GEOMETRY_PERIODICITY_M": pitch}
    result = runner.invoke(main, [*command, "--out", str(tmp_path / "x")], env=env)
    assert result.exit_code == 3
    assert "domain error: phase grid contains non-finite entries" in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, pitch",
    [
        (LOCALIZE_30, "1e300"),
        (["pattern", "--mode", "near"], "1e155"),
        (["pattern", "--mode", "near"], "1e300"),
        (["export-frame", "--mode", "near", "--steer", "30"], "1e300"),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_phase_grid_prints_only_its_error(runner, tmp_path, command, pitch):
    env = {"RISIM_GEOMETRY_PERIODICITY_M": pitch}
    result = runner.invoke(main, [*command, "--out", str(tmp_path / "x")], env=env)
    assert result.exit_code == 3
    assert result.output.splitlines() == ["domain error: phase grid contains non-finite entries"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("pitch", ["1e304", "1e307"])
@pytest.mark.parametrize(
    "command",
    [
        ["pattern", "--mode", "far", "--steer", "30"],
        ["pattern", "--mode", "near"],
        ["export-frame", "--mode", "far", "--steer", "30"],
        ["export-frame", "--mode", "near", "--steer", "30"],
        ["linkbudget"],
        LOCALIZE_30,
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_pitch_prints_one_error_line(runner, tmp_path, command, pitch):
    # the phases overflow to inf/NaN; a numpy warning raised on the way would
    # turn into a traceback exit here instead of the one domain error line
    env = {"RISIM_GEOMETRY_PERIODICITY_M": pitch}
    result = runner.invoke(main, [*command, "--out", str(tmp_path / "x")], env=env)
    assert result.exit_code == 3
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("domain error: ")
    assert list(tmp_path.iterdir()) == []


# every float key of DEFAULTS and every default ledger item, by env name;
# step_deg is left out because it sizes the codebook arrays
FUZZ_NAMES = ["RISIM_FREQUENCY_HZ"] + [
    f"RISIM_{section}_{key}".upper()
    for section, body in DEFAULTS.items()
    if isinstance(body, dict)
    for key, default in body.items()
    if type(default) is float and key != "step_deg"
]
LEDGER = DEFAULTS["link"]["hardware_loss_db"]
FUZZ_NAMES += [f"RISIM_LINK_HARDWARE_LOSS_DB_{item}".upper() for item in LEDGER]
FUZZ_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e-300", "1e-310", "1e8", "1e300"]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    command=st.sampled_from([["linkbudget"], LOCALIZE_30]),
    overrides=st.dictionaries(
        st.sampled_from(FUZZ_NAMES), st.sampled_from(FUZZ_VALUES), min_size=1, max_size=2
    ),
    lossy=st.booleans(),
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_extreme_float_overrides_exit_cleanly(command, overrides, lossy):
    runner = CliRunner()
    env = {**overrides, "RISIM_LINK_INCLUDE_HARDWARE_LOSS": str(lossy)}
    with runner.isolated_filesystem():
        result = runner.invoke(main, command, env=env)
        assert result.exit_code in (0, 2, 3), result.output
        assert "Traceback" not in result.output
        for path in Path().glob("*.json"):
            strict_json(path.read_text())


@pytest.mark.parametrize(
    "command, out",
    [
        (["linkbudget"], "missing/lb.json"),
        (["pattern"], "missing/cut.csv"),
        (LOCALIZE_30, "missing/loc"),
        (["export-frame"], "missing/frame.hex"),
        (["linkbudget"], ""),
    ],
)
def test_unwritable_out_exits_2_naming_the_path(runner, tmp_path, command, out):
    # "" makes --out the existing directory tmp_path itself
    target = tmp_path / out
    result = runner.invoke(main, [*command, "--out", str(target)])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert result.output.startswith("config error: cannot write output")
    assert str(target.parent if out else target) in result.output


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
    "truths, seed, sigma",
    # with seed 2 and sigma 6e307 truth 30 stays finite and truth 45 overflows
    [("30", "0", "1e308"), ("30,45", "2", "6e307")],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_noisy_rssi_exits_3_writing_nothing(runner, tmp_path, truths, seed, sigma):
    env = {"RISIM_SWEEP_NOISE_KIND": "gaussian_db", "RISIM_SWEEP_SIGMA_DB": sigma}
    args = ["localize", "--truths", truths, "--seed", seed, "--out", str(tmp_path / "x")]
    result = runner.invoke(main, args, env=env)
    assert result.exit_code == 3
    message = f"domain error: noisy RSSI is not finite (sigma_db={float(sigma):g})"
    assert result.output.splitlines() == [message]
    assert list(tmp_path.iterdir()) == []


def test_non_utf8_config_exits_2_naming_the_path(runner, tmp_path):
    binary = tmp_path / "bin.yaml"
    binary.write_bytes(b"\xff\xfe\x00bad")
    result = runner.invoke(main, ["linkbudget", "--config", str(binary)])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert f"config error: cannot read config file {binary}" in result.output


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("sweep: {}\n", "sweep: {}\nfrequency_hz: 5.5e9\nfrequency_hz: 6.0e9\n", "frequency_hz"),
        ("geometry: {}", "geometry: {m_count: 16, m_count: 8}", "m_count"),
        ("link: {}", "link: {hardware_loss_db: {cables: 1.0, cables: 2.0}}", "cables"),
    ],
    ids=["top-level", "section", "ledger"],
)
def test_duplicate_config_key_exits_2_naming_it(runner, tmp_path, old, new, key):
    dup = tmp_path / "dup.yaml"
    dup.write_text(FULL_SECTIONS.replace(old, new))
    out = tmp_path / "lb.json"
    result = runner.invoke(main, ["linkbudget", "--config", str(dup), "--out", str(out)])
    assert result.exit_code == 2
    assert f"found duplicate key '{key}'" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "text, problem",
    [
        (
            FULL_SECTIONS.replace("geometry: {}", "geometry: {m_count: 16, m_count: 8}"),
            "found duplicate key 'm_count' (line 1, column 25)",
        ),
        (
            FULL_SECTIONS.replace("sweep: {}", "sweep: [unclosed"),
            "expected ',' or ']', but got '<stream end>' (line 6, column 1)",
        ),
    ],
    ids=["duplicate-key", "unclosed-bracket"],
)
def test_yaml_error_is_one_line_naming_the_file(runner, tmp_path, text, problem):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    result = runner.invoke(main, ["linkbudget", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        f"config error: config file {bad} is not valid YAML: {problem}"
    ]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "command",
    [
        ["pattern", "--mode", "near"],
        LOCALIZE_30,
        ["linkbudget"],
        ["export-frame", "--mode", "near"],
    ],
    ids=["pattern", "localize", "linkbudget", "export-frame"],
)
@pytest.mark.parametrize(
    "env, section",
    [
        ({"RISIM_FEED_POSITION_M": "0,0,1e200"}, "feed"),
        ({"RISIM_LINK_RX_POSITION_M": "1e300,0,1e300"}, "link"),
    ],
    ids=["feed", "rx"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_far_off_node_exits_2_naming_its_section(runner, tmp_path, command, env, section):
    result = runner.invoke(main, [*command, "--out", str(tmp_path / "x")], env=env)
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"config error: invalid config section {section}: ")
    assert "must lie within 1e+100 m of the origin" in line
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command",
    [["pattern", "--mode", "near"], LOCALIZE_30, ["linkbudget"], ["export-frame", "--mode", "near"]],
    ids=["pattern", "localize", "linkbudget", "export-frame"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_infinite_periodicity_exits_2_naming_geometry(runner, tmp_path, command):
    env = {"RISIM_GEOMETRY_PERIODICITY_M": "inf"}
    result = runner.invoke(main, [*command, "--out", str(tmp_path / "x")], env=env)
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        "config error: invalid config section geometry: periodicity must be positive and finite,"
        " got inf"
    ]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, exit_code",
    [
        (["pattern", "--mode", "near"], 0),
        (["export-frame", "--mode", "near"], 0),
        # two ~1e100 m hops put the received power below the float range
        (LOCALIZE_30, 3),
        (["linkbudget"], 3),
    ],
    ids=["pattern", "export-frame", "localize", "linkbudget"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nodes_at_the_distance_bound_run_without_warnings(runner, tmp_path, command, exit_code):
    # feed on the bound, rx 0.99 of it away: placing the user at the rx range stays inside
    env = {"RISIM_FEED_POSITION_M": "0,0,1e100", "RISIM_LINK_RX_POSITION_M": "7e99,0,7e99"}
    result = runner.invoke(main, [*command, "--out", str(tmp_path / "x")], env=env)
    assert result.exit_code == exit_code, result.output
    expected = [] if exit_code == 0 else ["domain error: received power leaves the float range"]
    assert [line.split(" (")[0] for line in result.stderr.splitlines()] == expected


@pytest.mark.parametrize(
    "command",
    [["pattern", "--mode", "near", "--steer=30"], LOCALIZE_30, ["linkbudget"]],
    ids=["pattern", "localize", "linkbudget"],
)
@pytest.mark.parametrize(
    "env, section",
    [
        ({"RISIM_FEED_POSITION_M": "0,0,5e-324"}, "feed"),
        ({"RISIM_FEED_POSITION_M": "0,0,1e-162"}, "feed"),
        ({"RISIM_LINK_RX_POSITION_M": "0,0,5e-324"}, "link"),
        ({"RISIM_LINK_RX_POSITION_M": "0,0,1e-162"}, "link"),
    ],
    ids=["feed-5e-324", "feed-1e-162", "rx-5e-324", "rx-1e-162"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_node_whose_height_squares_to_zero_exits_2_naming_its_section(runner, tmp_path, command, env, section):
    # the distance from such a node to the element under it is 0: rejected
    # as a node on the surface is, before any grid is built
    result = runner.invoke(main, [*command, "--out", str(tmp_path / "x")], env=env)
    assert result.exit_code == 2
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"config error: invalid config section {section}: ")
    assert "must sit off the surface" in line
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, env",
    [
        (["pattern", "--mode", "near", "--steer=30"], {"RISIM_FEED_POSITION_M": "0,0,1e-161"}),
        (["linkbudget"], {"RISIM_LINK_RX_POSITION_M": "0,0,1e-161"}),
    ],
    ids=["feed", "rx"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_node_whose_height_squares_to_a_subnormal_runs_without_warnings(runner, tmp_path, command, env):
    result = runner.invoke(main, [*command, "--out", str(tmp_path / "x")], env=env)
    assert result.exit_code == 0, result.output
    assert result.stderr == ""


@pytest.mark.parametrize(
    "command, out, files",
    [
        (["pattern"], "x.csv", ["x.csv", "x.metrics.json"]),
        (LOCALIZE_30, "x", ["x.truth30.csv", "x.summary.json"]),
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


@pytest.mark.parametrize("command", [["linkbudget"], ["pattern"], LOCALIZE_30])
@pytest.mark.parametrize(
    "env",
    # 257 x 256 is one row over the 65,536-element cap
    [
        {"RISIM_GEOMETRY_M_COUNT": str(10**21)},
        {"RISIM_GEOMETRY_M_COUNT": "257", "RISIM_GEOMETRY_N_COUNT": "256"},
    ],
    ids=["1e21", "just-over"],
)
def test_too_many_elements_exit_2_naming_geometry(runner, tmp_path, command, env):
    result = runner.invoke(main, [*command, "--out", str(tmp_path / "x")], env=env)
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert result.output.startswith("config error: invalid config section geometry")
    assert list(tmp_path.iterdir()) == []
