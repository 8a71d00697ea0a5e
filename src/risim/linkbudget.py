"""Physics-based uplink received-power model for the coded surface.

The carrier power collected at the receiver is the coherent sum of the
per-element two-hop contributions: transmit horn -> element -> receive
horn, each weighted by the combined radiation taper and the spherical
spreading of both hops, scaled by the element aperture gain and the
quantization phase-error loss.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import ConfigError, DomainError
from .geometry import ArrayGeometry, Point3, check_node, feed_hop, node_hop, wavenumber
from .masks import CodingMask, FeedSpec, PhaseMask, UnitCellReflection, _wrap_deg_inplace, check_exponent, feed_taper
from .output import to_json

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
    """Complete two-hop scenario: geometry, feed horn, receiver position and
    horn exponent, powers and the unit cell the coded surface switches."""

    geom: ArrayGeometry
    feed: FeedSpec
    rx: Point3
    wavelength: float
    tx_power_dbm: float
    gain_tx_dbi: float
    gain_rx_dbi: float
    q_r: float = 7.0
    noise_floor_dbm: float = -94.0
    mask: CodingMask | None = None
    include_hardware_loss: bool = False
    hardware_loss_db: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_HARDWARE_LOSS_DB)
    )
    cell: UnitCellReflection = UnitCellReflection()

    def __post_init__(self) -> None:
        wavenumber(self.wavelength)  # raises unless the wavelength is > 0
        if not isinstance(self.feed, FeedSpec):
            raise DomainError(f"feed must be a FeedSpec, got {type(self.feed).__name__}")
        check_node("rx", self.rx)
        object.__setattr__(self, "hardware_loss_db", MappingProxyType(dict(self.hardware_loss_db)))
        powers = (self.tx_power_dbm, self.gain_tx_dbi, self.gain_rx_dbi, self.noise_floor_dbm)
        if not all(map(math.isfinite, (*powers, *self.hardware_loss_db.values()))):
            raise DomainError("powers, gains and hardware loss items must be finite")
        check_exponent("q_r", self.q_r)
        if self.mask is not None and self.mask.geom != self.geom:
            raise DomainError("mask geometry does not match the array geometry")

    @cached_property
    def _two_hop_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """The two-hop terms at the scenario's own rx, computed once per
        scenario; every accounting mode reduces these two."""
        return self._two_hop_at(self.rx)

    def _two_hop_at(self, rx: Point3) -> tuple[np.ndarray, np.ndarray]:
        """Per-element two-hop amplitude sqrt(taper)/(r_feed * r_rx) and path
        phase k0*(r_feed + r_rx), read-only, for a receiver at rx in place of
        the scenario's; a sweep truth reads them without a scenario copy."""
        r_t, r_r, taper = self._hops(rx)
        amp = np.sqrt(taper) / (r_t * r_r)
        path = wavenumber(self.wavelength) * (r_t + r_r)
        amp.flags.writeable = path.flags.writeable = False
        return amp, path

    def _hops(self, rx: Point3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Feed and rx distance grids and the combined taper of both hops.
        Only the rx hop is computed here; the feed hop and its taper come
        from feed_hop and feed_taper, shared by every scenario on one feed."""
        q = 2 * self.cell.q_e  # 1.0 by default, and x**1.0 is x bit for bit
        r_t = feed_hop(self.geom, self.feed.position)[0]
        r_r, cos_r, off_r = node_hop(self.geom, rx)
        taper = feed_taper(self.geom, self.feed, self.cell.q_e) * cos_r**q * (off_r**self.q_r)
        return r_t, r_r, taper

    @cached_property
    def _head_db(self) -> tuple[float, ...]:
        """The values of the ledger's _HEAD_TERMS, the terms ahead of the
        accumulation, computed once per scenario. Pure scalar work, so an
        out-of-range scalar fails before any element grid."""
        p, lam = self.geom.periodicity_m, self.wavelength
        return (
            self.tx_power_dbm,
            self.gain_tx_dbi,
            self.gain_rx_dbi,
            2.0 * unit_cell_gain(p, p, lam),
            10.0 * _log10("spreading", lam * lam * p * p / (64 * math.pi**3)),
        )

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

    def to_dict(self) -> dict:
        """The JSON document: the accounting mode, then the fields in declaration order."""
        return {"quantization": self.quantization, **asdict(self)}

    def to_json(self) -> str:
        return to_json(self.to_dict())

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
    return scenario._hops(scenario.rx)[2]


def _single_pass_sums(amp, path, bits, cell: UnitCellReflection) -> list[float]:
    """|sum of amp * mag * exp(j*(phase - path))| per stacked (K, M, N) bit
    grid, mag and phase being the cell state each bit selects. Each
    element's two possible terms are computed once, one row per cell state,
    and gathered per grid by np.where, so bool and 0/1 integer bits select
    alike; one contiguous row sum and a scalar abs per mask keep row k
    bit-identical to mask k alone. Each state is its own exp:
    exp(j*(pi - p)) is not bitwise -exp(-j*p). Each row sum's modulus is
    numpy's scalar abs (libm's hypot; inf past the float range); numpy's
    array abs may differ in the last bit."""
    mag, phase = cell.states
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
    return PhaseMask(scenario.geom, _wrap_deg_inplace(np.degrees(scenario._two_hop_terms[1])))


def phase_error_loss(required: PhaseMask, applied: CodingMask, cell=UnitCellReflection()) -> float:
    """Gain degradation, in dB <= 0, of realizing `required` with the
    two-state `applied` mask on `cell`: squared magnitude of the mean
    residual-error phasor, each weighted by its state's reflection
    magnitude. Zero exactly when the residual is one common constant and
    the cell is lossless."""
    if required.phases_deg.shape != applied.bits.shape:
        raise DomainError("required and applied masks have different dimensions")
    mag, phase = cell.states
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
    area = wavelength * wavelength  # inf past ~1.3e154 m, 0.0 once it underflows
    ratio = 4 * math.pi * cell_dx * cell_dy / area if area else math.inf
    return 10.0 * _log10("unit cell gain", ratio)


def integrate_psd(psd_per_subcarrier_dbm: float, n_subcarriers: int) -> float:
    """Total power of n equal subcarriers given per-subcarrier PSD, dBm."""
    if n_subcarriers < 1:
        raise DomainError(f"subcarrier count must be >= 1, got {n_subcarriers}")
    return psd_per_subcarrier_dbm + 10.0 * math.log10(n_subcarriers)


_HEAD_TERMS = ("tx_power_dbm", "gain_tx_db", "gain_rx_db", "unit_cell_gain_x2_db", "spreading_db")
_TAIL_TERMS = ("accumulation_db", "phase_error_loss_db", "hardware_loss_db")


def _hardware_items(scenario: LinkScenario) -> tuple[dict, float]:
    """The hardware loss items the ledger subtracts, dB, none unless included,
    and their negated total, added left to right from int 0 as _ledger_totals adds."""
    items = dict(scenario.hardware_loss_db) if scenario.include_hardware_loss else {}
    total = 0
    for value in items.values():
        total += value
    return items, -total


def _ledger_totals(head_db: tuple, hw_db: float, accs: list, lpe_db: float) -> tuple[list, list]:
    """Accumulation terms, dB, and received powers, dBm, of K ledgers that
    share every term but the accumulation. A total is its ledger's values
    in table order, head terms then _TAIL_TERMS, added left to right: written
    out here, because builtin sum compensates float sums from Python 3.12.
    The head is added once, and each mW value 10**(dBm/10) must be a
    positive finite float; the first total that is not raises."""
    head = 0.0
    for value in head_db:
        head += value
    acc_db = [20.0 * math.log10(acc) if acc > 0 else -math.inf for acc in accs]
    totals = [head + a + lpe_db + hw_db for a in acc_db]
    lo, hi = _MW_FLOAT_RANGE_DBM
    for total in totals:
        if not lo <= total <= hi:
            raise DomainError(f"received power leaves the float range ({total!r} dBm)")
    return acc_db, totals


def _single_pass_dbm(scenario: LinkScenario, rx: Point3, bits: np.ndarray) -> list[float]:
    """The single-pass kernel: received power, dBm, at rx in place of the
    scenario's receiver, under each of K stacked (K, M, N) bit grids in place
    of its mask; neither rx nor bits is checked here."""
    head_db, hw_db = scenario._head_db, _hardware_items(scenario)[1]
    amp, path = scenario._two_hop_at(rx)
    accs = _single_pass_sums(amp, path, bits, scenario.cell)
    return _ledger_totals(head_db, hw_db, accs, 0.0)[1]


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
        separate loss factor; the one-mask case of the codebook sweep.
      - "none": ideal continuous phasing, no loss.
    Every mode adds its ledger in the one order _ledger_totals writes out.
    """
    if quantization not in _ACCOUNTING_MODES:
        raise ConfigError(
            f"unknown quantization mode {quantization!r}, expected one of {_ACCOUNTING_MODES}"
        )
    if quantization in ("mask", "single_pass") and scenario.mask is None:
        raise ConfigError(f"quantization mode {quantization!r} requires a scenario mask")

    head_db, (hw_items, hw_db) = scenario._head_db, _hardware_items(scenario)
    lpe_db = 0.0
    if quantization == "single_pass":
        amp, path = scenario._two_hop_terms
        (acc,) = _single_pass_sums(amp, path, scenario.mask.bits[None], scenario.cell)
    else:
        acc = geometric_accumulation(scenario)
        if quantization == "analytic":
            lpe_db = L_PE_1BIT_DB
        elif quantization == "mask":
            lpe_db = phase_error_loss(required_cascade_mask(scenario), scenario.mask, scenario.cell)
    (acc_db,), (received_dbm,) = _ledger_totals(head_db, hw_db, [acc], lpe_db)
    terms = dict(zip((*_HEAD_TERMS, *_TAIL_TERMS), (*head_db, acc_db, lpe_db, hw_db)))
    return LinkReport(
        accumulation_linear=acc,
        phase_error_loss_db=lpe_db,
        received_power_dbm=received_dbm,
        snr_db=received_dbm - scenario.noise_floor_dbm,  # both finite: _ledger_totals and LinkScenario check
        quantization=quantization,
        terms_db=terms,
        hardware_loss_items_db=hw_items,
    )


@dataclass(frozen=True)
class NoiseModel:
    """Per-entry RSSI jitter of a codebook sweep's received powers: none, or zero-mean gaussian in dB."""

    kind: str = "none"
    sigma_db: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "gaussian_db"):
            raise DomainError(f"unknown noise kind {self.kind!r}")
        if not (math.isfinite(self.sigma_db) and self.sigma_db >= 0):
            raise DomainError(f"sigma_db must be finite and >= 0, got {self.sigma_db}")
