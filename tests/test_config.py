import math
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import risim
from risim import (
    DEFAULTS,
    ConfigError,
    Direction,
    DomainError,
    FeedSpec,
    Point3,
    ScenarioConfig,
    UnitCellReflection,
    build_codebook,
    element_grid,
    estimate_angle,
    load_config,
    parse_config,
    render_config,
    simulate_sweep,
    wavelength_from_frequency,
)

ALL_SECTIONS = "geometry: {}\ncell: {}\nfeed: {}\nlink: {}\nsweep: {}\n"


def doc_with(**overrides) -> str:
    """Full-section document with per-section YAML fragments substituted."""
    parts = []
    for section in ("geometry", "cell", "feed", "link", "sweep"):
        body = overrides.get(section, "{}")
        parts.append(f"{section}: {body}")
    if "frequency_hz" in overrides:
        parts.append(f"frequency_hz: {overrides['frequency_hz']}")
    return "\n".join(parts) + "\n"


def test_defaults_reproduce_bench_setup():
    cfg = load_config()
    assert cfg.frequency_hz == 5.5e9
    assert cfg.wavelength == pytest.approx(0.0545, abs=1e-4)
    assert (cfg.geometry.m_count, cfg.geometry.n_count) == (16, 10)
    assert cfg.geometry.periodicity_m == 0.016
    assert cfg.feed.position == Point3(0.12, 0.072, 0.3)
    assert cfg.link.tx_power_dbm == -7.87
    assert cfg.link.rx.x == pytest.approx(0.12 + 5 * math.sin(math.radians(45)))
    assert cfg.link.rx.z == pytest.approx(5 * math.cos(math.radians(45)))
    assert cfg.sweep.step_deg == 1.5
    assert cfg.cell.q_e == 0.5
    assert not cfg.link.include_hardware_loss
    assert cfg.link.hardware_loss_db == {"dielectric_and_diode": 3.0, "cables": 6.87}


def test_bare_parse_equals_default_load():
    assert parse_config(None, env={}) == load_config(None, env={})
    # only RISIM_* names are overrides; other environment names are left alone
    assert parse_config(None, env={"RISIMX_A": "1", "PATH": "/bin"}) == parse_config(None, env={})


def test_all_sections_empty_equals_defaults():
    assert parse_config(ALL_SECTIONS, env={}) == parse_config(None, env={})


def test_render_parse_round_trip():
    cfg = parse_config(None, env={})
    assert parse_config(render_config(cfg), env={}) == cfg
    tweaked = parse_config(doc_with(geometry="{m_count: 8}", frequency_hz="6.0e+9"), env={})
    assert parse_config(render_config(tweaked), env={}) == tweaked


def test_equal_geometries_share_one_lattice():
    a = load_config()
    b = parse_config(ALL_SECTIONS, env={"RISIM_SWEEP_STEP_DEG": "1.25"})
    assert b.geometry is a.geometry
    assert all(x is y for x, y in zip(element_grid(a.geometry), element_grid(b.geometry)))
    other = load_config(env={"RISIM_GEOMETRY_M_COUNT": "8"})
    assert element_grid(other.geometry)[0].shape == (8, 10)


def test_load_from_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(doc_with(sweep="{step_deg: 3.0}"))
    cfg = load_config(str(path), env={})
    assert cfg.sweep.step_deg == 3.0
    assert isinstance(cfg, ScenarioConfig)


def test_bare_import_skips_yaml():
    # PyYAML is needed only to parse a supplied file or render a config, and
    # numpy only once a command runs; -B: the child writes no bytecode into src/
    src = str(Path(risim.__file__).resolve().parents[1])
    code = (
        "import sys, risim; assert 'numpy' not in sys.modules\n"
        "import risim.cli; assert 'numpy' not in sys.modules\n"
        "risim.load_config(); assert 'yaml' not in sys.modules"
    )
    subprocess.run([sys.executable, "-B", "-c", code], check=True, env={"PYTHONPATH": src})


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config("/nonexistent/scenario.yaml", env={})


def test_partial_section_fills_defaults():
    cfg = parse_config(doc_with(geometry="{m_count: 8}"), env={})
    assert cfg.geometry.m_count == 8
    assert cfg.geometry.n_count == 10
    assert cfg.geometry.periodicity_m == 0.016


def test_missing_section_named():
    with pytest.raises(ConfigError, match="missing config section: geometry"):
        parse_config("cell: {}\nfeed: {}\nlink: {}\nsweep: {}\n", env={})
    with pytest.raises(ConfigError, match="missing config section: sweep"):
        parse_config("geometry: {}\ncell: {}\nfeed: {}\nlink: {}\n", env={})


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config key: geometry.pitch"):
        parse_config(doc_with(geometry="{pitch: 0.016}"), env={})
    with pytest.raises(ConfigError, match="unknown config key: antenna"):
        parse_config(ALL_SECTIONS + "antenna: {}\n", env={})


def test_section_must_be_mapping():
    with pytest.raises(ConfigError, match="section geometry must be a mapping"):
        parse_config("geometry:\ncell: {}\nfeed: {}\nlink: {}\nsweep: {}\n", env={})
    with pytest.raises(ConfigError, match="mapping of sections"):
        parse_config("- geometry\n- cell\n", env={})


def test_malformed_yaml():
    with pytest.raises(ConfigError, match="not valid YAML"):
        parse_config("geometry: [unclosed\n", env={})


def test_type_enforcement():
    with pytest.raises(ConfigError, match="geometry.m_count must be an integer"):
        parse_config(doc_with(geometry="{m_count: 5.5}"), env={})
    with pytest.raises(ConfigError, match="geometry.m_count must be an integer, got 10.0"):
        parse_config(doc_with(geometry="{m_count: 1e1}"), env={})  # an exponent is a float
    with pytest.raises(ConfigError, match="must be a boolean"):
        parse_config(doc_with(link='{include_hardware_loss: "yes"}'), env={})
    with pytest.raises(ConfigError, match="must be a string"):
        parse_config(doc_with(sweep="{noise_kind: 3}"), env={})
    with pytest.raises(ConfigError, match="must be a 3-element list"):
        parse_config(doc_with(feed="{position_m: [1.0, 2.0]}"), env={})
    with pytest.raises(ConfigError, match="must be a number"):
        parse_config(doc_with(link="{tx_power_dbm: true}"), env={})
    with pytest.raises(ConfigError, match="must map loss names"):
        parse_config(doc_with(link="{hardware_loss_db: [3.0]}"), env={})


def test_domain_violations_name_their_section():
    with pytest.raises(ConfigError, match="invalid config section geometry"):
        parse_config(doc_with(geometry="{m_count: 0}"), env={})
    with pytest.raises(ConfigError, match="invalid config section cell"):
        parse_config(doc_with(cell="{magnitude_state0: 1.5}"), env={})
    with pytest.raises(ConfigError, match="invalid config section link"):
        parse_config(doc_with(link="{rx_position_m: [1.0, 1.0, -2.0]}"), env={})
    with pytest.raises(ConfigError, match="invalid config section sweep"):
        parse_config(doc_with(sweep="{step_deg: -1.5}"), env={})
    with pytest.raises(ConfigError, match="invalid config section sweep"):
        parse_config(doc_with(sweep="{stop_deg: 95.0}"), env={})
    with pytest.raises(ConfigError, match="invalid config section cell"):
        parse_config(doc_with(cell="{q_e: -1.0}"), env={})
    with pytest.raises(ConfigError, match="invalid config section frequency_hz"):
        parse_config(doc_with(frequency_hz="0.0"), env={})
    with pytest.raises(ConfigError, match="invalid config section sweep: seed"):
        parse_config(doc_with(sweep="{seed: -4}"), env={})
    for loss in (".nan", ".inf", "-.inf"):
        with pytest.raises(ConfigError, match="invalid config section link"):
            parse_config(doc_with(link=f"{{hardware_loss_db: {{cables: {loss}}}}}"), env={})


def test_env_overrides_each_kind():
    env = {
        "RISIM_FREQUENCY_HZ": "6.0e9",
        "RISIM_GEOMETRY_M_COUNT": "12",
        "RISIM_LINK_INCLUDE_HARDWARE_LOSS": "true",
        "RISIM_FEED_POSITION_M": "0.1,0.2,0.4",
        "RISIM_SWEEP_NOISE_KIND": "gaussian_db",
        "RISIM_SWEEP_SIGMA_DB": "1.0",
        "RISIM_LINK_HARDWARE_LOSS_DB_CABLES": "5.0",
    }
    cfg = parse_config(None, env=env)
    assert cfg.frequency_hz == 6.0e9
    assert cfg.geometry.m_count == 12
    assert cfg.link.include_hardware_loss is True
    assert cfg.feed.position == Point3(0.1, 0.2, 0.4)
    assert cfg.sweep.noise_kind == "gaussian_db"
    assert cfg.link.hardware_loss_db["cables"] == 5.0
    assert cfg.link.hardware_loss_db["dielectric_and_diode"] == 3.0


def test_env_overrides_apply_on_top_of_file():
    cfg = parse_config(doc_with(geometry="{m_count: 8}"), env={"RISIM_GEOMETRY_N_COUNT": "4"})
    assert cfg.geometry.m_count == 8
    assert cfg.geometry.n_count == 4


def test_env_bad_values_name_the_variable():
    with pytest.raises(ConfigError, match="RISIM_GEOMETRY_M_COUNT"):
        parse_config(None, env={"RISIM_GEOMETRY_M_COUNT": "twelve"})
    with pytest.raises(ConfigError, match="RISIM_LINK_INCLUDE_HARDWARE_LOSS"):
        parse_config(None, env={"RISIM_LINK_INCLUDE_HARDWARE_LOSS": "maybe"})
    with pytest.raises(ConfigError, match="RISIM_FEED_POSITION_M"):
        parse_config(None, env={"RISIM_FEED_POSITION_M": "1,2"})


def test_builders(cfg):
    assert cfg.geometry.size == 160
    assert cfg.cell.phase_state1_deg == 180.0
    assert cfg.feed.q_f == 7.0
    assert cfg.link.rx.y == 0.072
    assert cfg.sweep.noise.kind == "none"
    assert len(cfg.steering_codebook().entries) == 41
    assert cfg.link.mask is None
    assert cfg.link.geom.periodicity_m == 0.016


def test_one_object_per_section(cfg):
    assert cfg.link.geom is cfg.geometry
    assert cfg.link.feed is cfg.feed
    assert cfg.link.wavelength == cfg.wavelength
    assert isinstance(cfg.cell, UnitCellReflection)
    assert cfg.link.cell is cfg.cell
    # the accessor methods return the stored objects
    assert cfg.array_geometry() is cfg.geometry
    assert cfg.unit_cell() is cfg.cell
    assert cfg.feed_spec() is cfg.feed
    assert cfg.link_scenario() is cfg.link
    assert cfg.noise_model() is cfg.sweep.noise
    assert replace(cfg.sweep, seed=5).noise == cfg.sweep.noise


def test_config_stores_the_carrier_the_link_and_the_sweep_once():
    assert [f.name for f in fields(ScenarioConfig)] == ["frequency_hz", "link", "sweep"]


def test_feed_replaced_in_the_link_is_the_feed_synthesized_and_swept(cfg):
    feed = FeedSpec(Point3(0.12, 0.072, 0.6))
    cfg2 = replace(cfg, link=replace(cfg.link, feed=feed))
    assert cfg2.feed is feed and cfg2.feed_spec() is feed
    s = cfg2.sweep
    codebook = cfg2.steering_codebook()
    expected = build_codebook(
        cfg2.geometry, feed.position, cfg2.wavelength, s.start_deg, s.stop_deg, s.step_deg
    )
    np.testing.assert_array_equal(codebook.bits, expected.bits)
    for truth in (30.0, 45.0):
        assert estimate_angle(simulate_sweep(codebook, Direction(truth), cfg2.link)) == truth


def test_cell_replaced_in_the_link_is_the_cell_of_the_config(cfg):
    cell = UnitCellReflection.measured()
    cfg2 = replace(cfg, link=replace(cfg.link, cell=cell))
    assert cfg2.cell is cell and cfg2.unit_cell() is cell
    assert parse_config(render_config(cfg2), env={}) == cfg2


def test_frequency_that_is_not_the_links_carrier_is_a_domain_error(cfg):
    with pytest.raises(DomainError, match="frequency_hz"):
        replace(cfg, frequency_hz=5.8e9)
    link = replace(cfg.link, wavelength=wavelength_from_frequency(5.8e9))
    assert replace(cfg, frequency_hz=5.8e9, link=link).wavelength == link.wavelength


@pytest.mark.parametrize(
    "sweep", ["{start_deg: -10.0}", "{stop_deg: 90.0}", "{stop_deg: 89.9}"]
)
def test_codebook_angles_outside_0_90_name_the_sweep_section(sweep):
    # 89.9 rounds up to a last entry at 90.0: the bound is on the angles built
    with pytest.raises(ConfigError, match=r"section sweep: codebook angles .* lie in \[0, 90\)"):
        parse_config(doc_with(sweep=sweep), env={})


def test_render_emits_every_key_in_schema_order():
    doc = yaml.safe_load(render_config(parse_config(None, env={})))
    assert doc == DEFAULTS
    assert list(doc) == list(DEFAULTS)
    for section, body in DEFAULTS.items():
        if isinstance(body, dict):
            assert list(doc[section]) == list(body), section


def test_yaml_added_loss_item_round_trips():
    cfg = parse_config(doc_with(link="{hardware_loss_db: {connector: 2.5}}"), env={})
    assert cfg.link.hardware_loss_db == {"connector": 2.5}
    assert "connector: 2.5" in render_config(cfg)
    assert parse_config(render_config(cfg), env={}) == cfg


def test_loss_items_sharing_an_override_name_rejected():
    text = doc_with(link="{hardware_loss_db: {cables: 1.0, CABLES: 2.0}}")
    for env in ({}, {"RISIM_LINK_HARDWARE_LOSS_DB_CABLES": "0"}):
        with pytest.raises(ConfigError) as info:
            parse_config(text, env=env)
        assert str(info.value) == (
            "config keys 'cables' and 'CABLES' share the override name "
            "RISIM_LINK_HARDWARE_LOSS_DB_CABLES"
        )


def test_override_table_is_built_once_per_ledger_and_its_errors_repeat():
    from risim import config

    config._override_paths.cache_clear()
    for seed in ("3", "4", "5"):
        assert parse_config(None, env={"RISIM_SWEEP_SEED": seed}).sweep.seed == int(seed)
    info = config._override_paths.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # a file's ledger names its own item overrides, and only those
    own = doc_with(link="{include_hardware_loss: true, hardware_loss_db: {connectors: 0.5}}")
    env = {"RISIM_LINK_HARDWARE_LOSS_DB_CONNECTORS": "0.25"}
    assert parse_config(own, env=env).link.hardware_loss_db == {"connectors": 0.25}
    clash = doc_with(link="{hardware_loss_db: {cables: 1.0, CABLES: 2.0}}")
    cables = {"RISIM_LINK_HARDWARE_LOSS_DB_CABLES": "1"}
    for _ in range(2):  # an exception is never cached: every resolution raises
        with pytest.raises(ConfigError, match="share the override name"):
            parse_config(clash, env={})
        with pytest.raises(ConfigError, match=f"unknown environment override {next(iter(cables))}"):
            parse_config(own, env=cables)
    assert parse_config(None, env=cables).link.hardware_loss_db["cables"] == 1.0


@pytest.mark.parametrize(
    "section, key, text, value",
    [
        (None, "frequency_hz", "5.8e9", 5.8e9),
        ("link", "tx_power_dbm", "-1e1", -10.0),
        ("sweep", "step_deg", "2.E0", 2.0),
        ("cell", "q_e", ".6e+0", 0.6),
    ],
)
def test_exponent_floats_resolve_like_their_env_twins(section, key, text, value):
    doc = doc_with(**{section: f"{{{key}: {text}}}"}) if section else doc_with(frequency_hz=text)
    from_yaml = parse_config(doc, env={})
    env = {"_".join(filter(None, ("RISIM", section, key))).upper(): text}
    assert from_yaml == parse_config(None, env=env)
    resolved = from_yaml.to_dict()
    assert (resolved[section] if section else resolved)[key] == value


# every non-map key of DEFAULTS as a (section or None, key, default) triple
SCALAR_KEYS = [(None, "frequency_hz", DEFAULTS["frequency_hz"])] + [
    (section, key, default)
    for section, body in DEFAULTS.items()
    if isinstance(body, dict)
    for key, default in body.items()
    if not isinstance(default, dict)
]


def values_like(default):
    """Values of the default's type, mostly near its scale, some invalid."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(min_value=-3, max_value=40)
    if isinstance(default, str):
        return st.sampled_from(["none", "gaussian_db", "uniform"])
    if isinstance(default, list):
        return st.lists(values_like(1.0), min_size=3, max_size=3)
    scale = max(2.0 * abs(default), 1.0)
    return st.floats(min_value=-0.1 * scale, max_value=scale) | st.just(default)


def env_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "off"
    if isinstance(value, list):
        return ",".join(repr(v) for v in value)
    return value if isinstance(value, str) else repr(value)


def outcome(text, env):
    try:
        return parse_config(text, env=env)
    except ConfigError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_yaml_and_env_values_resolve_alike(data):
    keys = st.lists(st.sampled_from(SCALAR_KEYS), min_size=1, max_size=4, unique_by=lambda k: k[:2])
    picked = data.draw(keys)
    doc = {section: {} for section in DEFAULTS if isinstance(DEFAULTS[section], dict)}
    env = {}
    for section, key, default in picked:
        value = data.draw(values_like(default))
        (doc[section] if section else doc)[key] = value
        env["_".join(filter(None, ("RISIM", section, key))).upper()] = env_text(value)
    from_yaml = outcome(yaml.safe_dump(doc), {})
    assert from_yaml == outcome(ALL_SECTIONS, env)
