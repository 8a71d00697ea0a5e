"""Phase-mask synthesis, 1-bit quantization, and steering codebooks.

Continuous masks come from two closed forms: a plane-wave retargeting
gradient (generalized Snell's law) and a spherical-wavefront compensation
for a feed sitting in the radiating near field. Quantization maps wrapped
phase to the two-state 0/180 degree alphabet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .geometry import (
    ArrayGeometry,
    Direction,
    Point3,
    check_node,
    feed_hop,
    projection_grid,
    projection_stack,
)

# codebooks are synthesized and swept as stacked K x M x N arrays
MAX_CODEBOOK_ENTRIES = 10_000


def check_bits(bits: np.ndarray) -> None:
    """Bit grids hold bools, or numbers that are each exactly 0 or 1; a bool
    array passes without a scan."""
    if bits.dtype != bool and not np.isin(bits, (0, 1)).all():
        raise DomainError("bit grid entries must be 0 or 1")


# below ~1k elements one np.mod call costs less than the floor form's ufunc chain
WRAP_FLOOR_MIN_SIZE = 1024
# for |x| < 360 * 2**40, 360 * floor(x / 360) is exact and x minus it rounds once,
# as np.mod's fmod(x, 360) + 360 does: the floor form equals np.mod bit for bit
WRAP_FLOOR_BOUND = 360.0 * 2.0**40


def wrap_deg(phases_deg):
    """Wrap angles in degrees to [0, 360), into a new array; the argument is
    left as it is."""
    ph = np.asarray(phases_deg)
    return _wrap_deg_inplace(ph.astype(np.result_type(ph, 360.0)))


def _wrap_deg_inplace(ph: np.ndarray) -> np.ndarray:
    """wrap_deg over a float array's own buffer, which it returns."""
    if (
        ph.size >= WRAP_FLOOR_MIN_SIZE
        and ph.dtype == np.float64
        and -WRAP_FLOOR_BOUND < ph.min()
        and ph.max() < WRAP_FLOOR_BOUND
    ):
        q = ph / 360.0
        np.floor(q, out=q)
        q *= 360.0
        ph -= q
        # a negative x above -360 * 2**-1075 (~ -8.9e-322) divides to -0.0 and floors to 0, not -1
        np.add(ph, 360.0, out=ph, where=ph < 0.0)
    else:  # NaN, inf and huge phases take this path too
        np.mod(ph, 360.0, out=ph)
    # guard: mod of a tiny negative can round up to the modulus itself
    np.copyto(ph, 0.0, where=ph >= 360.0)
    return ph


@dataclass(frozen=True, eq=False)
class PhaseMask:
    """Continuous per-element phase grid in degrees, wrapped to [0, 360)."""

    geom: ArrayGeometry
    phases_deg: np.ndarray

    def __post_init__(self) -> None:
        ph = np.ascontiguousarray(np.asarray(self.phases_deg, dtype=float))
        shape = (self.geom.m_count, self.geom.n_count)
        if ph.shape != shape:
            raise DomainError(f"phase grid shape {ph.shape} does not match {shape}")
        if not np.all(np.isfinite(ph)):
            raise DomainError("phase grid contains non-finite entries")
        if ph.size and (ph.min() < 0.0 or ph.max() >= 360.0):
            raise DomainError("phases must be wrapped to [0, 360)")
        object.__setattr__(self, "phases_deg", ph)


@dataclass(frozen=True, eq=False)
class CodingMask:
    """1-bit per-element state grid; bit b selects the unit cell's state b."""

    geom: ArrayGeometry
    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.ascontiguousarray(np.asarray(self.bits))
        shape = (self.geom.m_count, self.geom.n_count)
        if bits.shape != shape:
            raise DomainError(f"bit grid shape {bits.shape} does not match {shape}")
        check_bits(bits)
        object.__setattr__(self, "bits", bits.astype(np.uint8))

    def phases_deg(self) -> np.ndarray:
        """The bits' nominal 0/180 degree phases; the cell's states() give the realized ones."""
        return self.bits.astype(float) * 180.0


@dataclass(frozen=True)
class CodebookEntry:
    steer_angle: Direction
    mask: CodingMask


@dataclass(frozen=True, eq=False)
class Codebook:
    """Steering bits of K entries with strictly increasing steer angles:
    angles (K,) in degrees and bits (K, M, N), both read-only."""

    geom: ArrayGeometry
    angles: np.ndarray
    bits: np.ndarray

    def __post_init__(self) -> None:
        # views, so freezing them leaves the caller's arrays writable
        angles = np.asarray(self.angles, dtype=float).view()
        bits = np.asarray(self.bits).view()
        if angles.ndim != 1 or angles.size == 0:
            raise DomainError("codebook must contain at least one entry")
        if not np.all(np.diff(angles) > 0):
            raise DomainError("codebook angles must be strictly increasing")
        if not (0.0 <= angles[0] and angles[-1] < 90.0):
            raise DomainError(f"codebook angles {angles[0]}..{angles[-1]} must lie in [0, 90)")
        shape = (len(angles), self.geom.m_count, self.geom.n_count)
        if bits.shape != shape:
            raise DomainError(f"codebook bit shape {bits.shape} does not match {shape}")
        check_bits(bits)
        angles.flags.writeable = bits.flags.writeable = False
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "bits", bits)

    @cached_property
    def entries(self) -> tuple[CodebookEntry, ...]:
        """Per-entry view, built on first access; the sweep reads the arrays."""
        return tuple(
            CodebookEntry(Direction(a), CodingMask(self.geom, row))
            for a, row in zip(self.angles.tolist(), self.bits)
        )

    def __len__(self) -> int:
        return len(self.angles)

    def angles_deg(self) -> np.ndarray:
        return self.angles


def snell_gradient(
    geom: ArrayGeometry,
    incidence: Direction,
    reflection: Direction,
    wavelength: float,
) -> PhaseMask:
    """Phase gradient that retargets a plane wave between two directions.

    Element (m, n) carries k0 * (proj_in - proj_out) where proj is the
    in-plane projection onto each direction; wrapped to degrees.
    """
    if not (wavelength > 0):
        raise DomainError(f"wavelength must be > 0, got {wavelength}")
    k0 = 2 * np.pi / wavelength
    # normal incidence projects every element to a signed zero; subtracting the
    # scalar 0.0 instead gives the same wrapped bits (np.mod maps -0.0 to 0.0)
    proj_in = projection_grid(geom, incidence) if incidence.theta_deg else 0.0
    phase_rad = k0 * (proj_in - projection_grid(geom, reflection))
    return PhaseMask(geom, _wrap_deg_inplace(np.degrees(phase_rad)))


def _compensation_deg(geom: ArrayGeometry, feed: Point3, steers, wavelength: float) -> np.ndarray:
    """Continuous phase collimating a close-in spherical feed wavefront into a
    plane wave toward each of K (theta, phi) pairs in degrees, shape (K, M, N):
    element (m, n) carries k0 * (feed distance - proj_out), wrapped. The raw
    wrap retains the common distance offset; _recentered_deg rotates it out
    before quantization."""
    if not (wavelength > 0):
        raise DomainError(f"wavelength must be > 0, got {wavelength}")
    check_node("feed", feed)
    k0 = 2 * np.pi / wavelength
    # an extreme pitch overflows to inf/NaN here, which _one_bit rejects; the
    # feed hop's cosine grids, which synthesis does not read, are built here too
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # one buffer from the projection on: k0 * distance - k0 * proj, in place
        ph = projection_stack(geom, steers)
        ph *= k0
        np.subtract(k0 * feed_hop(geom, feed)[0], ph, out=ph)
        return _wrap_deg_inplace(np.degrees(ph, out=ph))


def _recentered_deg(phases_deg: np.ndarray) -> np.ndarray:
    """Rotate each of K stacked (K, M, N) float grids to a zero circular-mean
    phase, in place: the argument's buffer is overwritten and returned.
    A 1-bit quantizer keeps only the side of its bin boundaries a phase falls
    on, so centering the population splits it evenly across the two bins and
    minimizes the pointing bias of quantized spherical-compensation masks."""
    ph = np.radians(phases_deg, out=phases_deg)
    z = 1j * ph.reshape(len(ph), -1)
    # the row sum and the division are the two ufuncs np.mean runs
    mean = np.exp(z, out=z).sum(axis=1)
    mean /= ph[0].size
    ph -= np.angle(mean)[:, None, None]
    return _wrap_deg_inplace(np.degrees(ph, out=ph))


def quantize_1bit(mask: PhaseMask) -> CodingMask:
    """Two-state quantization: bit 1 exactly when phase is in [90, 270)."""
    return CodingMask(mask.geom, _one_bit(mask.phases_deg))


def _one_bit(phases_deg: np.ndarray) -> np.ndarray:
    if not np.isfinite(phases_deg).all():
        raise DomainError("phase grid contains non-finite entries")
    return (phases_deg >= 90.0) & (phases_deg < 270.0)


def farfield_steering_mask(geom: ArrayGeometry, steer: Direction, wavelength: float) -> CodingMask:
    """1-bit mask steering a normally incident plane wave to `steer`."""
    return quantize_1bit(snell_gradient(geom, Direction(0.0), steer, wavelength))


def nearfield_steering_mask(
    geom: ArrayGeometry, feed: Point3, steer: Direction, wavelength: float
) -> CodingMask:
    """1-bit mask collimating a near-field feed toward `steer`: the
    one-direction case of the codebook synthesis.

    The continuous compensation is recentered before quantization; the raw
    distance offset otherwise biases the quantized beam by a few degrees.
    """
    steers = [(steer.theta_deg, steer.phi_deg)]
    return CodingMask(geom, _nearfield_bits(geom, feed, steers, wavelength)[0])


def _nearfield_bits(geom: ArrayGeometry, feed: Point3, steers, wavelength: float) -> np.ndarray:
    """Steering bits toward each of K (theta, phi) pairs in degrees, shape
    (K, M, N). Every stage is elementwise or a per-row reduction, so row k
    is bit-identical to direction k alone."""
    return _one_bit(_recentered_deg(_compensation_deg(geom, feed, steers, wavelength)))


def codebook_angles(start_deg: float, stop_deg: float, step_deg: float) -> np.ndarray:
    """Steer angles start, start+step, ..., <= stop. The range and its entry
    count are checked before anything is allocated; the [0, 90) bound on
    every angle, before any grid is built."""
    if not all(math.isfinite(v) for v in (start_deg, stop_deg, step_deg)):
        raise DomainError(f"codebook range {start_deg}..{stop_deg} step {step_deg} must be finite")
    if step_deg <= 0:
        raise DomainError(f"codebook step must be > 0, got {step_deg}")
    if start_deg > stop_deg:
        raise DomainError(f"empty codebook range [{start_deg}, {stop_deg}]")
    # np.arange returns ceil(span) angles
    if (stop_deg + step_deg / 2 - start_deg) / step_deg > MAX_CODEBOOK_ENTRIES:
        raise DomainError(f"step {step_deg:g} gives more than {MAX_CODEBOOK_ENTRIES} codebook entries")
    angles = np.arange(start_deg, stop_deg + step_deg / 2, step_deg)
    if not (0.0 <= angles[0] and angles[-1] < 90.0):
        raise DomainError(f"codebook angles {angles[0]}..{angles[-1]} must lie in [0, 90)")
    return angles


def build_codebook(
    geom: ArrayGeometry, feed: Point3, wavelength: float,
    start_deg: float, stop_deg: float, step_deg: float,
) -> Codebook:
    """Steering codebook at start, start+step, ..., <= stop.

    Each entry is the quantized near-field compensation toward that angle,
    which is the mask maximizing received power for a user in that
    direction. All entries are synthesized in one batched pass over one
    feed-distance grid; entry k equals nearfield_steering_mask bit for bit.
    """
    angles = codebook_angles(start_deg, stop_deg, step_deg)
    steers = [(a, 0.0) for a in angles.tolist()]
    return Codebook(geom, angles, _nearfield_bits(geom, feed, steers, wavelength))

