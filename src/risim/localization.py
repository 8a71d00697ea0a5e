"""Codebook-sweep user localization: apply each steering mask, record the
received signal strength, and read the user's angle off the argmax entry."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import Direction, Point3, check_node
from .linkbudget import LinkScenario, NoiseModel, _single_pass_dbm
from .masks import Codebook
from .output import write_text


@dataclass(frozen=True, eq=False)
class SweepTrace:
    """Per-codebook-entry RSSI, in codebook order, stored as read-only 1-D float copies."""

    steer_deg: np.ndarray
    rssi_dbm: np.ndarray

    def __post_init__(self) -> None:
        steer, rssi = np.array(self.steer_deg, dtype=float), np.array(self.rssi_dbm, dtype=float)
        if steer.ndim != 1 or steer.shape != rssi.shape or steer.size == 0:
            raise DomainError("trace angle and RSSI sequences must be nonempty, 1-D and equal length")
        steer.flags.writeable = rssi.flags.writeable = False
        object.__setattr__(self, "steer_deg", steer)
        object.__setattr__(self, "rssi_dbm", rssi)


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
    in which the applied mask discriminates entries. The user's point is
    checked as a receiver and handed to the single-pass kernel without a
    scenario copy: the two-hop terms are computed once, all entries are
    scored in one batched row sum and their ledgers in one pass, the same
    sum and pass received_power(..., "single_pass") runs for one mask, so
    every entry equals that direct recompute bit for bit. Deterministic for
    a fixed seed.
    """
    if codebook.geom != scenario.geom:
        raise DomainError("codebook geometry does not match the array geometry")
    rx = ue_point(true_ue, scenario)
    check_node("rx", rx)
    rssi = np.array(_single_pass_dbm(scenario, rx, codebook.bits))
    if noise.kind == "gaussian_db" and noise.sigma_db > 0:
        rng = np.random.default_rng(seed)
        rssi = rssi + rng.normal(0.0, noise.sigma_db, len(rssi))
        if not np.isfinite(rssi).all():
            raise DomainError(f"noisy RSSI is not finite (sigma_db={noise.sigma_db:g})")
    return SweepTrace(codebook.angles, rssi)


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
    """CSV trace: `#`-prefixed context lines, then "%.4f,%.9f" steer_deg,rssi_dbm rows."""
    fields = [0.0] * (2 * len(trace.steer_deg))
    fields[::2], fields[1::2] = trace.steer_deg.tolist(), trace.rssi_dbm.tolist()
    body = "%.4f,%.9f\n" * len(trace.steer_deg) % tuple(fields)
    write_text("steer_deg,rssi_dbm\n" + body, path, comments)
