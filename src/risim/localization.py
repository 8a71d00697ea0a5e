"""Codebook-sweep user localization: apply each steering mask, record the
received signal strength, and read the user's angle off the argmax entry."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import Direction, Point3
from .linkbudget import LinkScenario, single_pass_power_dbm
from .masks import Codebook
from .patterns import _comment_header


@dataclass(frozen=True)
class NoiseModel:
    """Per-entry RSSI jitter: none, or zero-mean gaussian in dB."""

    kind: str = "none"
    sigma_db: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "gaussian_db"):
            raise DomainError(f"unknown noise kind {self.kind!r}")
        if not (math.isfinite(self.sigma_db) and self.sigma_db >= 0):
            raise DomainError(f"sigma_db must be finite and >= 0, got {self.sigma_db}")


@dataclass(frozen=True, eq=False)
class SweepTrace:
    """Per-codebook-entry RSSI, in codebook order."""

    steer_deg: np.ndarray
    rssi_dbm: np.ndarray

    def __post_init__(self) -> None:
        if len(self.steer_deg) != len(self.rssi_dbm) or len(self.steer_deg) == 0:
            raise DomainError("trace angle and RSSI sequences must be nonempty and equal length")

    def __len__(self) -> int:
        return len(self.steer_deg)


def ue_point(true_ue: Direction, scenario: LinkScenario) -> Point3:
    """The user position: toward a Direction, at the scenario's rx range
    from the array center."""
    if not isinstance(true_ue, Direction):
        raise DomainError(f"true_ue must be a Direction, got {type(true_ue).__name__}")
    center = scenario.geom.center()
    d = math.dist((scenario.rx.x, scenario.rx.y, scenario.rx.z), (center.x, center.y, center.z))
    v = true_ue.unit_vector()
    return Point3(center.x + d * v[0], center.y + d * v[1], center.z + d * v[2])


def simulate_sweep(
    codebook: Codebook,
    true_ue: Direction,
    scenario: LinkScenario,
    noise: NoiseModel = NoiseModel(),
    seed: int | None = None,
) -> SweepTrace:
    """Apply every codebook mask and record the RSSI of a user placed toward
    true_ue at the scenario's rx range (ue_point).

    Each entry's RSSI is the single-pass received power (the entry's
    two-state phases inside the coherent sum), which is the only accounting
    in which the applied mask discriminates entries. The two-hop terms are
    computed once and all entries are scored in one batched row sum, the
    same kernel received_power(..., "single_pass") runs for one mask, so
    every entry equals that direct recompute bit for bit. Deterministic for
    a fixed seed.
    """
    if codebook.geom != scenario.geom:
        raise DomainError("codebook geometry does not match the array geometry")
    rx = ue_point(true_ue, scenario)
    rssi = single_pass_power_dbm(scenario.with_rx(rx), codebook.bits)
    if noise.kind == "gaussian_db" and noise.sigma_db > 0:
        rng = np.random.default_rng(seed)
        rssi = rssi + rng.normal(0.0, noise.sigma_db, len(rssi))
        if not np.isfinite(rssi).all():
            raise DomainError(f"noisy RSSI is not finite (sigma_db={noise.sigma_db:g})")
    return SweepTrace(codebook.angles_deg(), rssi)


def estimate_angle(trace: SweepTrace) -> float:
    """Steer angle of the maximal-RSSI entry; exact ties resolve to the
    smaller angle (first maximum in ascending-angle order)."""
    return float(trace.steer_deg[int(np.argmax(trace.rssi_dbm))])


def rmse(estimates_deg, truths_deg) -> float:
    """Root-mean-square error between angle estimates and truths, degrees."""
    est = np.asarray(estimates_deg, dtype=float)
    tru = np.asarray(truths_deg, dtype=float)
    if est.shape != tru.shape or est.size == 0:
        raise DomainError("estimates and truths must be nonempty and equal length")
    return float(np.sqrt(np.mean((est - tru) ** 2)))


def write_sweep_csv(trace: SweepTrace, path, comments: dict | None = None) -> None:
    """CSV trace: `#`-prefixed context lines, then steer_deg,rssi_dbm rows."""
    header = _comment_header(comments) + "steer_deg,rssi_dbm\n"
    rows = map("%.4f,%.9f\n".__mod__, zip(trace.steer_deg.tolist(), trace.rssi_dbm.tolist()))
    with open(path, "w") as fh:
        fh.write(header + "".join(rows))
