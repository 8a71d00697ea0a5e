import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from risim import (
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
        ({"RISIM_LINK_Q_T": "-5"}, "link"),
        ({"RISIM_LINK_Q_R": "nan"}, "link"),
        ({"RISIM_SWEEP_STEP_DEG": "inf"}, "sweep"),
        ({"RISIM_SWEEP_STEP_DEG": "nan"}, "sweep"),
        ({"RISIM_SWEEP_STEP_DEG": "1e-9"}, "sweep"),
    ],
)
def test_localize_invalid_env_value_exits_2_naming_section(runner, tmp_path, env, section):
    result = runner.invoke(
        main, ["localize", "--truths", "30", "--out", str(tmp_path / "x")], env=env
    )
    assert result.exit_code == 2
    assert f"invalid config section {section}" in result.output
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
        farfield_steering_mask(cfg.array_geometry(), Direction(30.0), cfg.wavelength)
    )
    frame = read_frame(out)
    assert frame.octets == expected.octets
    assert expected.to_hex() in result.output
    back = deserialize_frame(frame)
    assert np.array_equal(
        back.bits, farfield_steering_mask(cfg.array_geometry(), Direction(30.0), cfg.wavelength).bits
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


def test_export_frame_rejects_other_boards(runner, tmp_path):
    cfgfile = tmp_path / "small.yaml"
    cfgfile.write_text(FULL_SECTIONS.replace("geometry: {}", "geometry: {m_count: 8}"))
    result = runner.invoke(main, ["export-frame", "--config", str(cfgfile), "--out", str(tmp_path / "f.hex")])
    assert result.exit_code == 3
    assert "16x10" in result.stderr
