"""Physics-based uplink received-power model for the coded surface.

The carrier power collected at the receiver is the coherent sum of the
per-element two-hop contributions: transmit horn -> element -> receive
horn, each weighted by the combined radiation taper and the spherical
spreading of both hops, scaled by the element aperture gain and the
quantization phase-error loss.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import ConfigError, DomainError
from .geometry import ArrayGeometry, Point3, check_node, feed_hop, node_hop
from .masks import CodingMask, PhaseMask, _wrap_deg_inplace, check_bits
from .patterns import UnitCellReflection, check_exponent

# 1-bit phasing keeps only the sign of the required phase; averaging the
# residual error over a uniformly wrapped population leaves a 2/pi phasor
L_PE_1BIT_DB = 20.0 * math.log10(2.0 / math.pi)

DEFAULT_HARDWARE_LOSS_DB = MappingProxyType(
    {"dielectric_and_diode": 3.0, "cables": 6.87}
)

_ACCOUNTING_MODES = ("analytic", "mask", "single_pass", "none")

# received powers, dBm, whose mW value 10**(dBm/10) is a positive finite float
_MW_FLOAT_RANGE_DBM = (10.0 * math.log10(math.ulp(0.0)), 10.0 * math.log10(sys.float_info.max))


@dataclass(frozen=True)
class LinkScenario:
    """Complete two-hop scenario: geometry, node positions, powers, tapers
    and the unit cell whose states the coded surface switches between."""

    geom: ArrayGeometry
    feed: Point3
    rx: Point3
    wavelength: float
    tx_power_dbm: float
    gain_tx_dbi: float
    gain_rx_dbi: float
    q_t: float = 7.0
    q_r: float = 7.0
    noise_floor_dbm: float = -94.0
    mask: CodingMask | None = None
    include_hardware_loss: bool = False
    hardware_loss_db: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_HARDWARE_LOSS_DB)
    )
    cell: UnitCellReflection = UnitCellReflection()

    def __post_init__(self) -> None:
        if not self.wavelength > 0:
            raise DomainError(f"wavelength must be > 0, got {self.wavelength}")
        check_node("feed", self.feed)
        check_node("rx", self.rx)
        object.__setattr__(self, "hardware_loss_db", dict(self.hardware_loss_db))
        powers = (self.tx_power_dbm, self.gain_tx_dbi, self.gain_rx_dbi, self.noise_floor_dbm)
        if not all(map(math.isfinite, (*powers, *self.hardware_loss_db.values()))):
            raise DomainError("powers, gains and hardware loss items must be finite")
        check_exponent("q_t", self.q_t)
        check_exponent("q_r", self.q_r)
        if self.mask is not None and self.mask.geom != self.geom:
            raise DomainError("mask geometry does not match the array geometry")

    @cached_property
    def _two_hop_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-element two-hop amplitude sqrt(taper)/(r_feed * r_rx) and path
        phase k0*(r_feed + r_rx), read-only and computed once per scenario;
        every accounting mode reduces these two."""
        r_t, r_r, taper = self._hops()
        amp = np.sqrt(taper) / (r_t * r_r)
        path = 2 * np.pi / self.wavelength * (r_t + r_r)
        amp.flags.writeable = path.flags.writeable = False
        return amp, path

    def _hops(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Feed and rx distance grids and the combined taper of both hops.
        Only the rx hop is computed here; the feed hop comes from feed_hop,
        shared by every scenario on one feed."""
        q = 2 * self.cell.q_e  # 1.0 by default, and x**1.0 is x bit for bit
        r_t, cos_t, off_t = feed_hop(self.geom, self.feed)
        r_r, cos_r, off_r = node_hop(self.geom, self.rx)
        taper = (off_t**self.q_t) * cos_t**q * cos_r**q * (off_r**self.q_r)
        return r_t, r_r, taper

    def with_mask(self, mask: CodingMask | None) -> "LinkScenario":
        return replace(self, mask=mask)

    def with_rx(self, rx: Point3) -> "LinkScenario":
        return replace(self, rx=rx)


@dataclass(frozen=True)
class LinkReport:
    """Received-power accounting with every dB term named."""

    accumulation_linear: float
    phase_error_loss_db: float
    received_power_dbm: float
    snr_db: float
    quantization: str
    terms_db: dict
    hardware_loss_items_db: dict

    def to_json(self) -> str:
        # the accounting mode leads; the fields follow in declaration order
        doc = {"quantization": self.quantization, **asdict(self)}
        return json.dumps(doc, indent=2, allow_nan=False)

    def table(self) -> str:
        """Aligned breakdown, one line per dB term."""
        rows = list(self.terms_db.items())
        for name, db in self.hardware_loss_items_db.items():
            rows.append((f"  hardware: {name}", -db))
        rows.append(("received_power_dbm", self.received_power_dbm))
        rows.append(("snr_db", self.snr_db))
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value:>10.3f}" for name, value in rows)


def f_combine_grid(scenario: LinkScenario) -> np.ndarray:
    """Combined normalized radiation taper of both horns and the element
    pattern on both hops, per element, in [0, 1]."""
    return scenario._hops()[2]


def _single_pass_sums(amp, path, bits, cell: UnitCellReflection) -> list[float]:
    """|sum of amp * mag * exp(j*(phase - path))| per stacked (K, M, N) bit
    grid, mag and phase being the cell state each bit selects. Each
    element's two possible terms are computed once, one row per cell state,
    and gathered per grid by np.where, so bool and 0/1 integer bits select
    alike; one contiguous row sum and a scalar abs per mask keep row k
    bit-identical to mask k alone. Each state is its own exp:
    exp(j*(pi - p)) is not bitwise -exp(-j*p)."""
    mag, phase = cell.states()
    table = (amp.reshape(-1) * mag[:, None]) * np.exp(1j * (phase[:, None] - path.reshape(-1)))
    terms = np.where(bits.reshape(len(bits), -1), table[1], table[0])
    return [float(abs(s)) for s in terms.sum(axis=1)]


def geometric_accumulation(scenario: LinkScenario) -> float:
    """Coherent two-hop amplitude sum at ideal (perfectly matched) phasing:
    sum of sqrt(taper)/(r_feed * r_rx) over all elements."""
    return float(scenario._two_hop_terms[0].sum())


def required_cascade_mask(scenario: LinkScenario) -> PhaseMask:
    """Continuous phase that exactly cancels the two-hop path phase
    k0*(r_feed + r_rx) for the scenario's node positions."""
    return _cascade_mask(scenario.geom, scenario._two_hop_terms[1])


def _cascade_mask(geom: ArrayGeometry, path: np.ndarray) -> PhaseMask:
    return PhaseMask(geom, _wrap_deg_inplace(np.degrees(path)))


def phase_error_loss(required: PhaseMask, applied: CodingMask, cell=UnitCellReflection()) -> float:
    """Gain degradation, in dB <= 0, of realizing `required` with the
    two-state `applied` mask on `cell`: squared magnitude of the mean
    residual-error phasor, each weighted by its state's reflection
    magnitude. Zero exactly when the residual is one common constant and
    the cell is lossless."""
    if required.phases_deg.shape != applied.bits.shape:
        raise DomainError("required and applied masks have different dimensions")
    mag, phase = cell.states()
    eps = np.radians(required.phases_deg) - phase[applied.bits]
    mean = np.mean(mag[applied.bits] * np.exp(1j * eps))
    return float(20.0 * np.log10(abs(mean))) if abs(mean) > 0 else -math.inf


def _log10(quantity: str, ratio: float) -> float:
    """log10 of a power ratio, which must be a positive finite float."""
    if not 0.0 < ratio < math.inf:
        raise DomainError(f"{quantity} leaves the float range (power ratio {ratio!r})")
    return math.log10(ratio)


def unit_cell_gain(cell_dx: float, cell_dy: float, wavelength: float) -> float:
    """Effective aperture gain of one unit cell, dBi: 4*pi*dx*dy/lambda^2."""
    if not (cell_dx > 0 and cell_dy > 0 and wavelength > 0):
        raise DomainError("cell dimensions and wavelength must be > 0")
    area = wavelength**2  # 0.0 once the square underflows
    ratio = 4 * math.pi * cell_dx * cell_dy / area if area else math.inf
    return 10.0 * _log10("unit cell gain", ratio)


def snr_ceiling(received_dbm: float, noise_floor_dbm: float) -> float:
    """Best-case SNR against a fixed thermal noise floor, dB."""
    if not (math.isfinite(received_dbm) and math.isfinite(noise_floor_dbm)):
        raise DomainError("snr inputs must be finite")
    return received_dbm - noise_floor_dbm


def integrate_psd(psd_per_subcarrier_dbm: float, n_subcarriers: int) -> float:
    """Total power of n equal subcarriers given per-subcarrier PSD, dBm."""
    if n_subcarriers < 1:
        raise DomainError(f"subcarrier count must be >= 1, got {n_subcarriers}")
    return psd_per_subcarrier_dbm + 10.0 * math.log10(n_subcarriers)


def _scalar_terms(scenario: LinkScenario) -> tuple[dict, dict]:
    """The ledger terms ahead of the accumulation, in table order, and the
    hardware loss items. Pure scalar work, so an out-of-range scalar fails
    before any element grid."""
    p, lam = scenario.geom.periodicity_m, scenario.wavelength
    head = {
        "tx_power_dbm": scenario.tx_power_dbm,
        "gain_tx_db": scenario.gain_tx_dbi,
        "gain_rx_db": scenario.gain_rx_dbi,
        "unit_cell_gain_x2_db": 2.0 * unit_cell_gain(p, p, lam),
        "spreading_db": 10.0 * _log10("spreading", lam**2 * p * p / (64 * math.pi**3)),
    }
    return head, dict(scenario.hardware_loss_db) if scenario.include_hardware_loss else {}


_TAIL_TERMS = ("accumulation_db", "phase_error_loss_db", "hardware_loss_db")


def _ledger_values(head_db: tuple, hw_db: float, acc: float, lpe_db: float) -> tuple:
    """The ledger's values in table order, head terms then _TAIL_TERMS, and the
    received power, dBm, which is their builtin sum and nothing else; its mW
    value must be a positive finite float."""
    values = (*head_db, 20.0 * math.log10(acc) if acc > 0 else -math.inf, lpe_db, hw_db)
    total = sum(values)
    if not _MW_FLOAT_RANGE_DBM[0] <= total <= _MW_FLOAT_RANGE_DBM[1]:
        raise DomainError(f"received power leaves the float range ({total!r} dBm)")
    return values, total


def _ledger(head: dict, hw_items: dict, acc: float, lpe_db: float) -> tuple[dict, float]:
    """Every dB term in table order and the received power, dBm, their sum."""
    values, total = _ledger_values(tuple(head.values()), -sum(hw_items.values()), acc, lpe_db)
    return dict(zip((*head, *_TAIL_TERMS), values)), total


def single_pass_power_dbm(scenario: LinkScenario, bits: np.ndarray) -> np.ndarray:
    """Single-pass received power, dBm, under each of K stacked (K, M, N) bit
    grids in place of the scenario mask. received_power(..., "single_pass")
    is the K = 1 case, so entry k equals it with mask k bit for bit."""
    bits = np.asarray(bits)
    shape, grid = bits.shape, (scenario.geom.m_count, scenario.geom.n_count)
    if not (len(shape) == 3 and shape[0] >= 1 and shape[1:] == grid):
        raise DomainError(f"bit stack shape {shape} is not (K >= 1, {grid[0]}, {grid[1]})")
    check_bits(bits)
    head, hw_items = _scalar_terms(scenario)
    head_db, hw_db = tuple(head.values()), -sum(hw_items.values())
    accs = _single_pass_sums(*scenario._two_hop_terms, bits, scenario.cell)
    return np.array([_ledger_values(head_db, hw_db, acc, 0.0)[1] for acc in accs])


def received_power(scenario: LinkScenario, quantization: str = "analytic") -> LinkReport:
    """Received carrier power and its full dB accounting.

    Every mode reduces one set of per-element two-hop terms (amplitude and
    path phase); quantization selects how 1-bit phasing enters:
      - "analytic": ideal-phasing sum scaled by the closed-form 1-bit loss
        (2/pi)^2; the default, reproducing the headline budget numbers.
      - "mask": ideal-phasing sum scaled by the phase-error loss of the
        scenario mask on the scenario cell against the exact
        cascade-cancelling phase.
      - "single_pass": the cell states the mask selects inside the sum, no
        separate loss factor; the one-mask case of single_pass_power_dbm.
      - "none": ideal continuous phasing, no loss.
    """
    if quantization not in _ACCOUNTING_MODES:
        raise ConfigError(
            f"unknown quantization mode {quantization!r}, expected one of {_ACCOUNTING_MODES}"
        )
    if quantization in ("mask", "single_pass") and scenario.mask is None:
        raise ConfigError(f"quantization mode {quantization!r} requires a scenario mask")

    head, hw_items = _scalar_terms(scenario)
    amp, path = scenario._two_hop_terms
    lpe_db = 0.0
    if quantization == "single_pass":
        (acc,) = _single_pass_sums(amp, path, scenario.mask.bits[None], scenario.cell)
    else:
        acc = float(amp.sum())
        if quantization == "analytic":
            lpe_db = L_PE_1BIT_DB
        elif quantization == "mask":
            required = _cascade_mask(scenario.geom, path)
            lpe_db = phase_error_loss(required, scenario.mask, scenario.cell)
    terms, received_dbm = _ledger(head, hw_items, acc, lpe_db)
    return LinkReport(
        accumulation_linear=acc,
        phase_error_loss_db=lpe_db,
        received_power_dbm=received_dbm,
        snr_db=snr_ceiling(received_dbm, scenario.noise_floor_dbm),
        quantization=quantization,
        terms_db=terms,
        hardware_loss_items_db=hw_items,
    )
