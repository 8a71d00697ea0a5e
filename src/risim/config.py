"""Scenario configuration: YAML sections with defaults, strict unknown-key
rejection, and environment-variable overrides.

A bare run (no file) uses the built-in defaults, which reproduce the
reference bench setup: 5.5 GHz, 16x10 cells at 16 mm pitch, feed 0.3 m
above the array center, receiver 5 m out at 45 degrees, 12 dBi horns with
q = 7 tapers, -7.87 dBm transmit power, -94 dBm noise floor, 0-60 degree
codebook in 1.5 degree steps. A provided file must contain every section;
keys inside a section are optional and default-filled.
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import asdict, dataclass, replace

import yaml

from .errors import ConfigError, DomainError
from .geometry import ArrayGeometry, Point3, wavelength_from_frequency
from .linkbudget import LinkScenario
from .localization import NoiseModel
from .masks import Codebook, CodingMask, build_codebook, codebook_angles
from .patterns import FeedSpec, UnitCellReflection, check_exponent

ENV_PREFIX = "RISIM"

SECTION_NAMES = ("geometry", "cell", "feed", "link", "sweep")

DEFAULTS = {
    "frequency_hz": 5.5e9,
    "geometry": {"m_count": 16, "n_count": 10, "periodicity_m": 0.016},
    "cell": {
        "magnitude_state0": 1.0,
        "magnitude_state1": 1.0,
        "phase_state0_deg": 0.0,
        "phase_state1_deg": 180.0,
        "q_e": 0.5,
    },
    "feed": {"position_m": [0.12, 0.072, 0.3], "q_f": 7.0},
    "link": {
        "tx_power_dbm": -7.87,
        "gain_tx_dbi": 12.0,
        "gain_rx_dbi": 12.0,
        "noise_floor_dbm": -94.0,
        "rx_position_m": [
            0.12 + 5.0 * math.sin(math.radians(45.0)),
            0.072,
            5.0 * math.cos(math.radians(45.0)),
        ],
        "q_t": 7.0,
        "q_r": 7.0,
        "include_hardware_loss": False,
        "hardware_loss_db": {"dielectric_and_diode": 3.0, "cables": 6.87},
    },
    "sweep": {
        "start_deg": 0.0,
        "stop_deg": 60.0,
        "step_deg": 1.5,
        "noise_kind": "none",
        "sigma_db": 0.0,
        "seed": 0,
    },
}

_INT_KEYS = {("geometry", "m_count"), ("geometry", "n_count"), ("sweep", "seed")}
_BOOL_KEYS = {("link", "include_hardware_loss")}
_STR_KEYS = {("sweep", "noise_kind")}
_VEC3_KEYS = {("feed", "position_m"), ("link", "rx_position_m")}
_DICT_KEYS = {("link", "hardware_loss_db")}


@dataclass(frozen=True)
class GeometryConfig:
    m_count: int
    n_count: int
    periodicity_m: float


@dataclass(frozen=True)
class CellConfig:
    magnitude_state0: float
    magnitude_state1: float
    phase_state0_deg: float
    phase_state1_deg: float
    q_e: float


@dataclass(frozen=True)
class FeedConfig:
    position_m: tuple
    q_f: float


@dataclass(frozen=True)
class LinkConfig:
    tx_power_dbm: float
    gain_tx_dbi: float
    gain_rx_dbi: float
    noise_floor_dbm: float
    rx_position_m: tuple
    q_t: float
    q_r: float
    include_hardware_loss: bool
    hardware_loss_db: tuple  # ordered (name, dB) pairs

    def loss_items(self) -> dict:
        return dict(self.hardware_loss_db)


@dataclass(frozen=True)
class SweepConfig:
    start_deg: float
    stop_deg: float
    step_deg: float
    noise_kind: str
    sigma_db: float
    seed: int


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario; every consumer builds its objects from here."""

    frequency_hz: float
    geometry: GeometryConfig
    cell: CellConfig
    feed: FeedConfig
    link: LinkConfig
    sweep: SweepConfig

    @property
    def wavelength(self) -> float:
        return wavelength_from_frequency(self.frequency_hz)

    def array_geometry(self) -> ArrayGeometry:
        g = self.geometry
        return ArrayGeometry(g.m_count, g.n_count, g.periodicity_m)

    def unit_cell(self) -> UnitCellReflection:
        c = self.cell
        return UnitCellReflection(
            c.magnitude_state0, c.magnitude_state1, c.phase_state0_deg, c.phase_state1_deg
        )

    def feed_spec(self) -> FeedSpec:
        return FeedSpec(Point3(*self.feed.position_m), self.feed.q_f)

    def rx_point(self) -> Point3:
        return Point3(*self.link.rx_position_m)

    def noise_model(self) -> NoiseModel:
        return NoiseModel(self.sweep.noise_kind, self.sweep.sigma_db)

    def link_scenario(self, mask: CodingMask | None = None) -> LinkScenario:
        p = self.geometry.periodicity_m
        return LinkScenario(
            geom=self.array_geometry(),
            feed=Point3(*self.feed.position_m),
            rx=self.rx_point(),
            wavelength=self.wavelength,
            cell_dx=p,
            cell_dy=p,
            tx_power_dbm=self.link.tx_power_dbm,
            gain_tx_dbi=self.link.gain_tx_dbi,
            gain_rx_dbi=self.link.gain_rx_dbi,
            q_t=self.link.q_t,
            q_r=self.link.q_r,
            noise_floor_dbm=self.link.noise_floor_dbm,
            mask=mask,
            include_hardware_loss=self.link.include_hardware_loss,
            hardware_loss_db=self.link.loss_items(),
        )

    def steering_codebook(self) -> Codebook:
        s = self.sweep
        return build_codebook(
            self.array_geometry(),
            Point3(*self.feed.position_m),
            self.wavelength,
            s.start_deg,
            s.stop_deg,
            s.step_deg,
        )

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["feed"]["position_m"] = list(doc["feed"]["position_m"])
        doc["link"]["rx_position_m"] = list(doc["link"]["rx_position_m"])
        doc["link"]["hardware_loss_db"] = dict(doc["link"]["hardware_loss_db"])
        return doc


def _require_number(path: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {path} must be a number, got {value!r}")
    return float(value)


def _require_int(path: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key {path} must be an integer, got {value!r}")
    return value


def _require_bool(path: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"config key {path} must be a boolean, got {value!r}")
    return value


def _require_vec3(path: str, value) -> list:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"config key {path} must be a 3-element list, got {value!r}")
    return [_require_number(f"{path}[{i}]", v) for i, v in enumerate(value)]


def _require_loss_dict(path: str, value) -> dict:
    if not isinstance(value, dict) or not all(isinstance(k, str) for k in value):
        raise ConfigError(f"config key {path} must map loss names to dB values")
    return {k: _require_number(f"{path}.{k}", v) for k, v in value.items()}


def _merge_section(section: str, defaults: dict, supplied: dict) -> dict:
    if not isinstance(supplied, dict):
        raise ConfigError(f"config section {section} must be a mapping")
    merged = copy.deepcopy(defaults)
    for key, value in supplied.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key: {section}.{key}")
        path = (section, key)
        if path in _DICT_KEYS:
            merged[key] = _require_loss_dict(f"{section}.{key}", value)
        elif path in _VEC3_KEYS:
            merged[key] = _require_vec3(f"{section}.{key}", value)
        elif path in _INT_KEYS:
            merged[key] = _require_int(f"{section}.{key}", value)
        elif path in _BOOL_KEYS:
            merged[key] = _require_bool(f"{section}.{key}", value)
        elif path in _STR_KEYS:
            if not isinstance(value, str):
                raise ConfigError(f"config key {section}.{key} must be a string")
            merged[key] = value
        else:
            merged[key] = _require_number(f"{section}.{key}", value)
    return merged


def _parse_env_value(name: str, raw: str, kind: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "vec3":
            parts = [float(p) for p in raw.split(",")]
            if len(parts) != 3:
                raise ValueError("expected 3 comma-separated numbers")
            return parts
        return raw
    except ValueError as exc:
        raise ConfigError(f"environment override {name} is invalid: {exc}") from exc


def _apply_env(doc: dict, env) -> None:
    name = f"{ENV_PREFIX}_FREQUENCY_HZ"
    if name in env:
        doc["frequency_hz"] = _parse_env_value(name, env[name], "float")
    for section in SECTION_NAMES:
        for key in DEFAULTS[section]:
            path = (section, key)
            name = f"{ENV_PREFIX}_{section}_{key}".upper()
            if path in _DICT_KEYS:
                for item in doc[section][key]:
                    item_name = f"{name}_{item}".upper()
                    if item_name in env:
                        doc[section][key][item] = _parse_env_value(
                            item_name, env[item_name], "float"
                        )
                continue
            if name not in env:
                continue
            if path in _INT_KEYS:
                kind = "int"
            elif path in _BOOL_KEYS:
                kind = "bool"
            elif path in _VEC3_KEYS:
                kind = "vec3"
            elif path in _STR_KEYS:
                kind = "str"
            else:
                kind = "float"
            doc[section][key] = _parse_env_value(name, env[name], kind)


def _build(doc: dict) -> ScenarioConfig:
    link = doc["link"]
    cfg = ScenarioConfig(
        frequency_hz=_require_number("frequency_hz", doc["frequency_hz"]),
        geometry=GeometryConfig(**doc["geometry"]),
        cell=CellConfig(**doc["cell"]),
        feed=FeedConfig(tuple(doc["feed"]["position_m"]), doc["feed"]["q_f"]),
        link=LinkConfig(
            tx_power_dbm=link["tx_power_dbm"],
            gain_tx_dbi=link["gain_tx_dbi"],
            gain_rx_dbi=link["gain_rx_dbi"],
            noise_floor_dbm=link["noise_floor_dbm"],
            rx_position_m=tuple(link["rx_position_m"]),
            q_t=link["q_t"],
            q_r=link["q_r"],
            include_hardware_loss=link["include_hardware_loss"],
            hardware_loss_db=tuple(link["hardware_loss_db"].items()),
        ),
        sweep=SweepConfig(**doc["sweep"]),
    )
    _validate(cfg)
    return cfg


def _validate(cfg: ScenarioConfig) -> None:
    """Construct every domain object once so range violations surface as
    configuration errors naming the section."""
    s = cfg.sweep
    checks = (
        ("frequency_hz", lambda: wavelength_from_frequency(cfg.frequency_hz)),
        ("geometry", cfg.array_geometry),
        ("cell", cfg.unit_cell),
        ("cell", lambda: check_exponent("q_e", cfg.cell.q_e)),
        ("feed", cfg.feed_spec),
        ("link", cfg.link_scenario),
        ("sweep", cfg.noise_model),
        ("sweep", lambda: codebook_angles(s.start_deg, s.stop_deg, s.step_deg)),
    )
    for section, build in checks:
        try:
            build()
        except DomainError as exc:
            raise ConfigError(f"invalid config section {section}: {exc}") from exc
    if not (0.0 <= s.start_deg and s.stop_deg < 90.0):
        raise ConfigError("invalid config section sweep: angles must lie in [0, 90)")


def parse_config(text: str | None = None, env=None) -> ScenarioConfig:
    """Resolve a configuration from YAML text (None for pure defaults),
    then apply environment overrides (RISIM_<SECTION>_<KEY>)."""
    doc = copy.deepcopy(DEFAULTS)
    if text is not None:
        try:
            supplied = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config is not valid YAML: {exc}") from exc
        if supplied is None:
            supplied = {}
        if not isinstance(supplied, dict):
            raise ConfigError("config document must be a mapping of sections")
        for key in supplied:
            if key != "frequency_hz" and key not in SECTION_NAMES:
                raise ConfigError(f"unknown config key: {key}")
        for section in SECTION_NAMES:
            if section not in supplied:
                raise ConfigError(f"missing config section: {section}")
            doc[section] = _merge_section(section, DEFAULTS[section], supplied[section])
        if "frequency_hz" in supplied:
            doc["frequency_hz"] = _require_number("frequency_hz", supplied["frequency_hz"])
    _apply_env(doc, env if env is not None else os.environ)
    return _build(doc)


def load_config(path: str | None = None, env=None) -> ScenarioConfig:
    """Load a config file, or the built-in defaults when path is None."""
    if path is None:
        return parse_config(None, env=env)
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text, env=env)


def render_config(cfg: ScenarioConfig) -> str:
    """Emit the fully resolved configuration; parse_config(render_config(c))
    round-trips every value."""
    return yaml.safe_dump(cfg.to_dict(), sort_keys=False)


def with_seed(cfg: ScenarioConfig, seed: int) -> ScenarioConfig:
    return replace(cfg, sweep=replace(cfg.sweep, seed=seed))
