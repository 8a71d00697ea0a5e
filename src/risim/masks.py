"""The unit cell and the feed, phase-mask synthesis, 1-bit quantization,
and steering codebooks.

A mask's bit selects one of the unit cell's two reflection states, and
the feed horn is the near-field source that synthesis compensates; the cut
and the link budget read its one taper. Continuous masks come from two
closed forms: a plane-wave retargeting gradient (generalized Snell's law)
and a spherical-wavefront compensation for that feed. Quantization maps
wrapped phase to the two-state 0/180 degree alphabet.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError
from .geometry import (
    ArrayGeometry,
    Direction,
    Point3,
    check_node,
    element_grid,  # not called here: perfbench's tracer test needs a module importing it by name
    feed_hop,
    projection_grid,
    projection_stack,
    wavenumber,
)

# codebooks are synthesized and swept as stacked K x M x N arrays
MAX_CODEBOOK_ENTRIES = 10_000


def check_bits(bits: np.ndarray) -> None:
    """Bit grids hold bools, or numbers that are each exactly 0 or 1; a bool
    array passes without a scan."""
    if bits.dtype != bool and not np.isin(bits, (0, 1)).all():
        raise DomainError("bit grid entries must be 0 or 1")


def _check_codebook_span(angles: np.ndarray) -> None:
    """Increasing steer angles lie in [0, 90): their ends are checked."""
    if not (0.0 <= angles[0] and angles[-1] < 90.0):
        raise DomainError(f"codebook angles {angles[0]}..{angles[-1]} must lie in [0, 90)")


# below ~1k elements one np.mod call costs less than the floor form's ufunc chain
WRAP_FLOOR_MIN_SIZE = 1024
# for |x| < 360 * 2**40, 360 * floor(x / 360) is exact and x minus it rounds once,
# as np.mod's fmod(x, 360) + 360 does: the floor form equals np.mod bit for bit
WRAP_FLOOR_BOUND = 360.0 * 2.0**40


def _wrap_deg_inplace(ph: np.ndarray) -> np.ndarray:
    """Wrap angles in degrees to [0, 360) over a float array's own buffer,
    which it returns; the floor form runs its masked fix-ups only when a
    result falls outside [0, 360)."""
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
        if ph.min() >= 0.0 and ph.max() < 360.0:
            return ph
        # a negative x above -360 * 2**-1075 (~ -8.9e-322) divides to -0.0 and floors to 0, not -1
        np.add(ph, 360.0, out=ph, where=ph < 0.0)
    else:  # NaN, inf and huge phases take this path too
        np.mod(ph, 360.0, out=ph)
    # guard: mod of a tiny negative can round up to the modulus itself
    np.copyto(ph, 0.0, where=ph >= 360.0)
    return ph


@dataclass(frozen=True)
class UnitCellReflection:
    """The unit cell: per-state reflection coefficient and element taper.

    Magnitudes are linear in (0, 1]; phases in degrees; q_e is the cosine
    exponent of the element pattern. The ideal default is lossless with an
    exact 180 degree state difference.
    """

    magnitude_state0: float = 1.0
    magnitude_state1: float = 1.0
    phase_state0_deg: float = 0.0
    phase_state1_deg: float = 180.0
    q_e: float = 0.5

    def __post_init__(self) -> None:
        for mag in (self.magnitude_state0, self.magnitude_state1):
            if not (0.0 < mag <= 1.0):
                raise DomainError(f"reflection magnitude must be in (0, 1], got {mag}")
        for phase in (self.phase_state0_deg, self.phase_state1_deg):
            if not math.isfinite(phase):
                raise DomainError(f"reflection phase must be finite, got {phase}")
        check_exponent("q_e", self.q_e)

    @classmethod
    def measured(cls) -> "UnitCellReflection":
        """Worst-case fabricated cell: 3 dB reflection loss, 30 deg phase skew."""
        mag = 10.0 ** (-3.0 / 20.0)
        return cls(mag, mag, 0.0, 210.0)

    @cached_property
    def states(self) -> tuple[np.ndarray, np.ndarray]:
        """Reflection magnitude and phase in radians, each shape (2,) and
        indexed by the bit: the one lookup every kernel reads. Read-only
        and built once per cell."""
        mag = np.array([self.magnitude_state0, self.magnitude_state1])
        phase = np.radians([self.phase_state0_deg, self.phase_state1_deg])
        mag.flags.writeable = phase.flags.writeable = False
        return mag, phase


def check_exponent(name: str, value: float) -> None:
    """Cosine-power taper exponents (feed q_f, receive horn q_r, element q_e) are finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise DomainError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class FeedSpec:
    """The feed horn: phase center and the exponent q_f of its power pattern."""

    position: Point3
    q_f: float = 7.0

    def __post_init__(self) -> None:
        check_node("feed", self.position)
        check_exponent("q_f", self.q_f)


@lru_cache(maxsize=1)
def feed_taper(geom: ArrayGeometry, feed: FeedSpec, q_e: float) -> np.ndarray:
    """Power taper of the feed hop per element, off**q_f * cos**(2 q_e), from
    feed_hop: read-only and cached for one geometry, feed and q_e, as feed_hop
    is. A taper that is 0 on every element is an error: nothing is lit."""
    _, cos_t, off_t = feed_hop(geom, feed.position)
    taper = (off_t**feed.q_f) * cos_t ** (2 * q_e)
    if not taper.any():
        raise DomainError(f"the feed illuminates no element (q_f={feed.q_f:g}, q_e={q_e:g})")
    taper.flags.writeable = False
    return taper


@dataclass(frozen=True, eq=False)
class PhaseMask:
    """Continuous per-element phase grid in degrees, wrapped to [0, 360); read-only."""

    geom: ArrayGeometry
    phases_deg: np.ndarray

    def __post_init__(self) -> None:
        ph = np.array(self.phases_deg, dtype=float, order="C")
        shape = (self.geom.m_count, self.geom.n_count)
        if ph.shape != shape:
            raise DomainError(f"phase grid shape {ph.shape} does not match {shape}")
        if not np.all(np.isfinite(ph)):
            raise DomainError("phase grid contains non-finite entries")
        if ph.size and (ph.min() < 0.0 or ph.max() >= 360.0):
            raise DomainError("phases must be wrapped to [0, 360)")
        ph.flags.writeable = False
        object.__setattr__(self, "phases_deg", ph)


@dataclass(frozen=True, eq=False)
class CodingMask:
    """1-bit per-element state grid, read-only; bit b selects the unit cell's state b."""

    geom: ArrayGeometry
    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.ascontiguousarray(np.asarray(self.bits))
        shape = (self.geom.m_count, self.geom.n_count)
        if bits.shape != shape:
            raise DomainError(f"bit grid shape {bits.shape} does not match {shape}")
        check_bits(bits)
        object.__setattr__(self, "bits", bits.astype(np.uint8))
        self.bits.flags.writeable = False

    def phases_deg(self) -> np.ndarray:
        """The bits' nominal 0/180 degree phases; the cell's states give the realized ones."""
        return self.bits.astype(float) * 180.0


@dataclass(frozen=True)
class CodebookEntry:
    """One codebook entry: its steer direction and its 1-bit mask."""

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
        angles = np.array(self.angles, dtype=float)
        bits = np.array(self.bits)
        if angles.ndim != 1 or angles.size == 0:
            raise DomainError("codebook must contain at least one entry")
        if not np.all(np.diff(angles) > 0):
            raise DomainError("codebook angles must be strictly increasing")
        _check_codebook_span(angles)
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
    k0 = wavenumber(wavelength)
    # normal incidence projects every element to a signed zero; subtracting the
    # scalar 0.0 instead gives the same wrapped bits (np.mod maps -0.0 to 0.0)
    proj_in = projection_grid(geom, incidence) if incidence.theta_deg else 0.0
    # an extreme pitch overflows to inf/NaN, which PhaseMask rejects, as in _nearfield_bits
    with np.errstate(over="ignore", invalid="ignore"):
        phase_rad = k0 * (proj_in - projection_grid(geom, reflection))
        phases = _wrap_deg_inplace(np.degrees(phase_rad))
    return PhaseMask(geom, phases)


@lru_cache(maxsize=1)
def _feed_phase(geom: ArrayGeometry, feed: Point3, wavelength: float) -> tuple[np.ndarray, np.ndarray]:
    """k0 r over the feed hop's distances and its phasor exp(j k0 r), read-only
    and cached for one geometry, feed and wavelength, as feed_hop is."""
    kr = wavenumber(wavelength) * feed_hop(geom, feed)[0]
    phasor = np.exp(1j * kr)
    kr.flags.writeable = phasor.flags.writeable = False
    return kr, phasor


def _compensation_deg(
    geom: ArrayGeometry, feed: Point3, thetas_deg, phi_deg: float, wavelength: float
) -> np.ndarray:
    """Continuous phase collimating a close-in spherical feed wavefront into a plane
    wave toward each of K thetas in the one azimuth plane phi, degrees, shape (K, M, N):
    element (m, n) carries k0 * (feed distance - proj_out) less the row's
    circular mean, wrapped once. Centering splits the phases evenly across a
    1-bit quantizer's two bins; the raw distance offset biases the beam."""
    k0 = wavenumber(wavelength)
    check_node("feed", feed)
    kr, feed_phasor = _feed_phase(geom, feed, wavelength)
    # one buffer from the projection on: k0 * distance - k0 * proj - mean, in place
    ph = projection_stack(geom, thetas_deg, phi_deg)
    ph *= k0
    mean = _circular_means(feed_phasor, ph)
    np.subtract(kr, ph, out=ph)
    ph -= mean[:, None, None]
    return _wrap_deg_inplace(np.multiply(ph, 180.0 / math.pi, out=ph))  # np.degrees' factor


def _circular_means(feed_phasor: np.ndarray, kproj: np.ndarray) -> np.ndarray:
    """Circular mean of each row of k0 r - kproj, radians, shape (K,). As
    X_0 = Y_0 = 0, kproj's first column and row are the separable factors' phases:
    sum_m exp(-j kproj[k, m, 0]) sum_n exp(j k0 r_mn) exp(-j kproj[k, 0, n]).
    The rows share one plane: the N-factor runs on all if it has a y component, else on none.
    No BLAS: its blocking may depend on K, and row k must be direction k alone."""
    outer, phasors = np.exp(-1j * kproj[:, :, 0]), feed_phasor
    if kproj[:, 0, -1].any():  # not on phi = 0 and 180, where the N-factor is 1
        phasors = feed_phasor * np.exp(-1j * kproj[:, 0])[:, None, :]
    total = (outer * phasors.sum(axis=-1)).sum(axis=1)
    return np.arctan2(total.imag, total.real)  # np.angle's own formula


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
    one-direction case of the codebook synthesis, whose compensation is
    centered on its circular mean before quantization."""
    return CodingMask(geom, _nearfield_bits(geom, feed, [steer.theta_deg], steer.phi_deg, wavelength)[0])


def _nearfield_bits(
    geom: ArrayGeometry, feed: Point3, thetas_deg, phi_deg: float, wavelength: float
) -> np.ndarray:
    """Steering bits toward each of K thetas in the one azimuth plane phi, degrees,
    shape (K, M, N). Every stage, the circular means too, is elementwise or a
    per-row reduction, so row k is bit-identical to direction k alone."""
    # an extreme pitch overflows to inf/NaN, which _one_bit rejects; the feed hop's
    # cosine grids, which synthesis does not read, are built under this state too
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _one_bit(_compensation_deg(geom, feed, thetas_deg, phi_deg, wavelength))


def codebook_angles(start_deg: float, stop_deg: float, step_deg: float) -> np.ndarray:
    """Steer angles start, start+step, ..., <= stop, up to rounding. The range and its entry
    count are checked before anything is allocated; the [0, 90) bound on
    every angle, before any grid is built."""
    if not all(math.isfinite(v) for v in (start_deg, stop_deg, step_deg)):
        raise DomainError(f"codebook range {start_deg}..{stop_deg} step {step_deg} must be finite")
    if step_deg <= 0:
        raise DomainError(f"codebook step must be > 0, got {step_deg}")
    if start_deg > stop_deg:
        raise DomainError(f"empty codebook range [{start_deg}, {stop_deg}]")
    # steps to stop; a count within 1e-9 of a whole one is it (0.3 / 0.1 is 2.9999999999999996)
    steps = (stop_deg - start_deg) / step_deg * (1 + 1e-9)
    if not steps < MAX_CODEBOOK_ENTRIES:
        raise DomainError(f"step {step_deg:g} gives more than {MAX_CODEBOOK_ENTRIES} codebook entries")
    count = math.floor(steps) + 1
    if step_deg / 2 < sys.float_info.max - stop_deg:
        # np.arange's half-step slack past stop holds the last angle; it may add
        # one past stop (59.9 / 1.5 to 60.0), which the slice cuts
        angles = np.arange(start_deg, stop_deg + step_deg / 2, step_deg)[:count]
    else:  # that end passes the float range: step is past 1e292, so a second angle is past 90
        angles = np.array([start_deg, start_deg + (count - 1) * step_deg][:count])
    _check_codebook_span(angles)
    return angles


def build_codebook(
    geom: ArrayGeometry, feed: Point3, wavelength: float,
    start_deg: float, stop_deg: float, step_deg: float,
) -> Codebook:
    """Steering codebook at start, start+step, ..., <= stop.

    Each entry is the quantized near-field compensation toward that angle,
    which is the mask maximizing received power for a user in that
    direction. All entries are synthesized in one batched pass, their means
    from K x M exponentials; entry k equals nearfield_steering_mask bit for bit.
    """
    angles = codebook_angles(start_deg, stop_deg, step_deg)
    return Codebook(geom, angles, _nearfield_bits(geom, feed, angles.tolist(), 0.0, wavelength))

