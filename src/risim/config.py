"""Scenario configuration. DEFAULTS is the one schema: a key's type comes from
its default value and its RISIM_<SECTION>_<KEY> override name from its path;
YAML keys and RISIM_* names outside it are rejected.

A bare run (no file) uses the built-in defaults, which reproduce the
reference bench setup: 5.5 GHz, 16x10 cells at 16 mm pitch, feed 0.3 m
above the array center, receiver 5 m out at 45 degrees, 12 dBi horns with
q = 7 tapers, -7.87 dBm transmit power, -94 dBm noise floor, 0-60 degree
codebook in 1.5 degree steps. A provided file must contain every section;
keys inside a section are optional and default-filled.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, replace

from .errors import ConfigError, DomainError
from .geometry import ArrayGeometry, Point3, wavelength_from_frequency
from .linkbudget import DEFAULT_HARDWARE_LOSS_DB, LinkScenario
from .localization import NoiseModel
from .masks import Codebook, CodingMask, build_codebook, codebook_angles
from .patterns import FeedSpec, UnitCellReflection, check_exponent

ENV_PREFIX = "RISIM"

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
        "hardware_loss_db": dict(DEFAULT_HARDWARE_LOSS_DB),
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
        return LinkScenario(
            geom=self.array_geometry(),
            feed=Point3(*self.feed.position_m),
            rx=self.rx_point(),
            wavelength=self.wavelength,
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
        for name in _SECTIONS:
            for key, value in doc[name].items():
                if isinstance(value, tuple):  # back to the default's list or map
                    doc[name][key] = type(DEFAULTS[name][key])(value)
        return doc


_SECTIONS = dict(
    geometry=GeometryConfig, cell=CellConfig, feed=FeedConfig, link=LinkConfig, sweep=SweepConfig
)


def _copy(doc: dict) -> dict:
    """Copy of a document's mappings; lists are replaced, never mutated."""
    return {k: _copy(v) if isinstance(v, dict) else v for k, v in doc.items()}


def _check(path: str, default, value):
    """Check a YAML value, or a parsed environment string, against its default's type."""
    kind = type(default)
    if kind in (bool, int, str):  # exact types: True is not an integer
        if type(value) is not kind:
            name = {bool: "a boolean", int: "an integer", str: "a string"}[kind]
            raise ConfigError(f"{path} must be {name}, got {value!r}")
        return value
    if kind is list:
        if not isinstance(value, list) or len(value) != 3:
            raise ConfigError(f"{path} must be a 3-element list, got {value!r}")
        return [_check(f"{path}[{i}]", 0.0, v) for i, v in enumerate(value)]
    if kind is dict:
        if not isinstance(value, dict) or not all(isinstance(k, str) for k in value):
            raise ConfigError(f"{path} must map loss names to dB values")
        return {k: _check(f"{path}.{k}", 0.0, v) for k, v in value.items()}
    if type(value) not in (int, float):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    return float(value)


_BOOL_WORDS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(
    ("0", "false", "no", "off"), False
)


def _from_env(name: str, raw: str, default):
    """Parse an environment string into the type of its default."""
    kind = type(default)
    try:
        if kind is bool:
            value = _BOOL_WORDS.get(raw.strip().lower())
            if value is None:
                raise ValueError(f"not a boolean: {raw!r}")
        elif kind is list:
            value = [float(p) for p in raw.split(",")]
        else:
            value = kind(raw)  # int, float or str
    except ValueError as exc:
        raise ConfigError(f"environment override {name} is invalid: {exc}") from exc
    return _check(f"environment override {name}", default, value)


def _overrides(doc: dict, prefix: str = ENV_PREFIX):
    """(env name, mapping, key) for every value of a resolved document:
    each key, and each ledger item, including items a YAML file added."""
    for key, value in doc.items():
        name = f"{prefix}_{key}".upper()
        if isinstance(value, dict):
            yield from _overrides(value, name)
        else:
            yield name, doc, key


def _apply_env(doc: dict, env) -> None:
    """Apply RISIM_* overrides; any other RISIM_* name is a typo and an error.
    A resolved value has its default's type, so it tells _from_env the kind."""
    targets = {name: (mapping, key) for name, mapping, key in _overrides(doc)}
    for name in sorted(n for n in env if n.startswith(f"{ENV_PREFIX}_")):
        if name not in targets:
            raise ConfigError(f"unknown environment override {name}")
        mapping, key = targets[name]
        mapping[key] = _from_env(name, env[name], mapping[key])


def _frozen(value):
    """Dataclass form of a resolved value: lists become tuples, maps (name, value) pairs."""
    if isinstance(value, (list, dict)):
        return tuple(value.items() if isinstance(value, dict) else value)
    return value


def _build(doc: dict) -> ScenarioConfig:
    sections = {
        name: cls(**{k: _frozen(v) for k, v in doc[name].items()})
        for name, cls in _SECTIONS.items()
    }
    cfg = ScenarioConfig(frequency_hz=doc["frequency_hz"], **sections)
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
    if s.seed < 0:
        raise ConfigError(f"invalid config section sweep: seed must be >= 0, got {s.seed}")


def parse_config(text: str | None = None, env=None) -> ScenarioConfig:
    """Resolve a configuration from YAML text (None for pure defaults),
    then apply environment overrides (RISIM_<SECTION>_<KEY>)."""
    doc = _copy(DEFAULTS)
    if text is not None:
        import yaml  # only a supplied file needs PyYAML; a bare run skips its import

        try:
            supplied = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config is not valid YAML: {exc}") from exc
        if supplied is None:
            supplied = {}
        if not isinstance(supplied, dict):
            raise ConfigError("config document must be a mapping of sections")
        for key, value in supplied.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key: {key}")
            if key not in _SECTIONS:
                doc[key] = _check(f"config key {key}", DEFAULTS[key], value)
        for section in _SECTIONS:
            if section not in supplied:
                raise ConfigError(f"missing config section: {section}")
            if not isinstance(supplied[section], dict):
                raise ConfigError(f"config section {section} must be a mapping")
            for key, value in supplied[section].items():
                if key not in DEFAULTS[section]:
                    raise ConfigError(f"unknown config key: {section}.{key}")
                path = f"config key {section}.{key}"
                doc[section][key] = _check(path, DEFAULTS[section][key], value)
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
    import yaml

    return yaml.safe_dump(cfg.to_dict(), sort_keys=False)


def with_seed(cfg: ScenarioConfig, seed: int) -> ScenarioConfig:
    return replace(cfg, sweep=replace(cfg.sweep, seed=seed))
