"""Scenario configuration. DEFAULTS is the one schema: a key's type comes from
its default value and its RISIM_<SECTION>_<KEY> override name from its path;
YAML keys and RISIM_* names outside it are rejected. The defaults reproduce
the reference bench setup, so a bare run needs no file. A provided file must
contain every section; keys inside a section are optional and default-filled.
Each section resolves to its domain object, built once per resolution.
"""

from __future__ import annotations

import functools
import math
import os
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import ConfigError, DomainError
from .geometry import ArrayGeometry, Point3, wavelength_from_frequency
from .linkbudget import DEFAULT_HARDWARE_LOSS_DB, LinkScenario, NoiseModel
from .masks import Codebook, FeedSpec, UnitCellReflection, build_codebook, codebook_angles

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
class SweepConfig:
    """Codebook range, RSSI noise and seed of the localization sweep."""

    start_deg: float
    stop_deg: float
    step_deg: float
    noise_kind: str
    sigma_db: float
    seed: int
    noise: NoiseModel = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "noise", NoiseModel(self.noise_kind, self.sigma_db))
        codebook_angles(self.start_deg, self.stop_deg, self.step_deg)
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario: the carrier, the sweep and the link, which holds the rest."""

    frequency_hz: float
    link: LinkScenario
    sweep: SweepConfig

    def __post_init__(self) -> None:
        if self.link.wavelength != wavelength_from_frequency(self.frequency_hz):
            raise DomainError(f"frequency_hz {self.frequency_hz!r} is not the link's carrier")

    @property
    def wavelength(self) -> float:
        return self.link.wavelength

    # perfbench's workloads call these five; the package reads the properties
    def array_geometry(self) -> ArrayGeometry:
        return self.link.geom

    def unit_cell(self) -> UnitCellReflection:
        return self.link.cell

    def feed_spec(self) -> FeedSpec:
        return self.link.feed

    def link_scenario(self) -> LinkScenario:
        return self.link

    def noise_model(self) -> NoiseModel:
        return self.sweep.noise

    geometry, cell, feed = property(array_geometry), property(unit_cell), property(feed_spec)

    def steering_codebook(self) -> Codebook:
        s = self.sweep
        return build_codebook(
            self.geometry, self.feed.position, self.wavelength, s.start_deg, s.stop_deg, s.step_deg
        )

    def to_dict(self) -> dict:
        """The resolved values, read back from the objects in DEFAULTS key order."""
        doc = {"frequency_hz": self.frequency_hz}
        for name in _SECTIONS:
            obj = getattr(self, name)
            doc[name] = {k: _plain(getattr(obj, _ATTRS.get(k, k))) for k in DEFAULTS[name]}
        return doc


_SECTIONS = tuple(name for name, body in DEFAULTS.items() if isinstance(body, dict))

_ATTRS = {"position_m": "position", "rx_position_m": "rx"}  # schema key -> domain attribute


def _plain(value):
    """A domain value in its schema type: a Point3 as a list, a ledger as a dict."""
    if isinstance(value, Point3):
        return [value.x, value.y, value.z]
    return dict(value) if isinstance(value, Mapping) else value


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


def _overrides(doc: dict, path: tuple = ()):
    """(env name, key path) for every value of a document: each key, and
    each ledger item, including items a YAML file added."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _overrides(value, (*path, key))
        else:
            yield "_".join((ENV_PREFIX, *path, key)).upper(), (*path, key)


@functools.lru_cache(maxsize=1)
def _override_paths(ledger_items: tuple) -> MappingProxyType:
    """Read-only env name -> key path of every override, for one tuple of
    ledger item names: the only part of the schema's shape a YAML file can
    change. A clash raises, and an exception is never cached."""
    link = dict(DEFAULTS["link"], hardware_loss_db=dict.fromkeys(ledger_items))
    targets = {}
    for name, path in _overrides(dict(DEFAULTS, link=link)):
        if (taken := targets.setdefault(name, path)) != path:
            raise ConfigError(
                f"config keys {taken[-1]!r} and {path[-1]!r} share the override name {name}"
            )
    return MappingProxyType(targets)


def _apply_env(doc: dict, env) -> None:
    """Apply RISIM_* overrides; any other RISIM_* name is a typo and an error.
    A resolved value has its default's type, so it tells _from_env the kind."""
    targets = _override_paths(tuple(doc["link"]["hardware_loss_db"]))
    for name in sorted(n for n in env if n.startswith(f"{ENV_PREFIX}_")):
        if name not in targets:
            raise ConfigError(f"unknown environment override {name}")
        *parents, key = targets[name]
        mapping = doc
        for parent in parents:
            mapping = mapping[parent]
        mapping[key] = _from_env(name, env[name], mapping[key])


def _section(name: str, build):
    """Build a section's domain object; a range violation names the section."""
    try:
        return build()
    except DomainError as exc:
        raise ConfigError(f"invalid config section {name}: {exc}") from exc


def _build(doc: dict) -> ScenarioConfig:
    """Construct each section's domain object once, checking them in schema order."""
    wavelength = _section("frequency_hz", lambda: wavelength_from_frequency(doc["frequency_hz"]))
    geometry = _section("geometry", lambda: ArrayGeometry(**doc["geometry"]))
    cell = _section("cell", lambda: UnitCellReflection(**doc["cell"]))
    f = doc["feed"]
    feed = _section("feed", lambda: FeedSpec(Point3(*f["position_m"]), f["q_f"]))
    link = dict(doc["link"])
    rx = link.pop("rx_position_m")
    scenario = _section(
        "link",
        lambda: LinkScenario(geometry, feed, Point3(*rx), wavelength, **link, cell=cell),
    )
    sweep = _section("sweep", lambda: SweepConfig(**doc["sweep"]))
    return ScenarioConfig(doc["frequency_hz"], scenario, sweep)


def _yaml_loader():
    """SafeLoader plus the exponent floats (5.5e9, -1e1) that YAML 1.1 reads as
    strings; a key repeated within one mapping is an error, not the last value."""
    import yaml

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                if (key := self.construct_object(key_node)) in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark,
                    )
                seen.add(key)
        return yaml.SafeLoader.construct_mapping(self, node, deep)

    loader = type("Loader", (yaml.SafeLoader,), {"construct_mapping": construct_mapping})
    exponent_float = re.compile(r"^[-+]?(\d+(\.\d*)?|\.\d+)[eE][-+]?\d+$")
    loader.add_implicit_resolver("tag:yaml.org,2002:float", exponent_float, list("-+.0123456789"))
    return loader


def _yaml_problem(exc, text: str) -> str:
    """A PyYAML error as one line: the problem and its 1-based line and column."""
    mark = getattr(exc, "problem_mark", None)
    if mark is not None:
        return f"{exc.problem or exc.context} (line {mark.line + 1}, column {mark.column + 1})"
    # a ReaderError (an unprintable character) carries only a character offset
    problem, pos = str(exc).splitlines()[0], getattr(exc, "position", 0)
    line, column = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
    return f"{problem} (line {line}, column {column})"


def parse_config(text: str | None = None, env=None) -> ScenarioConfig:
    """Resolve a configuration from YAML text (None for pure defaults),
    then apply environment overrides (RISIM_<SECTION>_<KEY>)."""
    return _resolve(text, env, "config")


def _resolve(text: str | None, env, source: str) -> ScenarioConfig:
    """parse_config, naming the text's source in a YAML error."""
    doc = _copy(DEFAULTS)
    if text is not None:
        import yaml  # only a supplied file needs PyYAML; a bare run skips its import

        try:
            supplied = yaml.load(text, Loader=_yaml_loader())
        except yaml.YAMLError as exc:
            raise ConfigError(f"{source} is not valid YAML: {_yaml_problem(exc, text)}") from exc
        supplied = {} if supplied is None else supplied
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return _resolve(text, env, f"config file {path}")


def render_config(cfg: ScenarioConfig) -> str:
    """Emit the fully resolved configuration; parse_config(render_config(c))
    round-trips every value."""
    import yaml

    return yaml.safe_dump(cfg.to_dict(), sort_keys=False)
