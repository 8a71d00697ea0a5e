"""Far-field and near-field-fed radiation pattern cuts plus lobe metrics.

A pattern cut samples the complex array factor along theta in a fixed
azimuth plane. Signed theta covers both half-planes of the cut: negative
theta is the phi+180 side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import (
    MAX_NODE_DISTANCE_M,
    ArrayGeometry,
    Direction,
    Point3,
    distance_grid,
    element_grid,
    projection_grid,
)
from .masks import CodingMask, PhaseMask


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

    def states(self) -> tuple[np.ndarray, np.ndarray]:
        """Reflection magnitude and phase in radians, each shape (2,) and
        indexed by the bit: the one lookup every kernel reads."""
        mag = np.array([self.magnitude_state0, self.magnitude_state1])
        return mag, np.radians([self.phase_state0_deg, self.phase_state1_deg])


def check_exponent(name: str, value: float) -> None:
    """Cosine-power taper exponents (horns q_t, q_r, feed q_f, element q_e) are finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise DomainError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class FeedSpec:
    """Feed phase center and its cosine-power illumination exponent."""

    position: Point3
    q_f: float = 7.0

    def __post_init__(self) -> None:
        p = self.position
        if not (p.z > 0):
            raise DomainError(f"feed must sit off the surface (z > 0), got z={p.z}")
        if not math.hypot(p.x, p.y, p.z) <= MAX_NODE_DISTANCE_M:
            raise DomainError(f"feed must lie within {MAX_NODE_DISTANCE_M:g} m of the origin, got {p}")
        check_exponent("q_f", self.q_f)


@dataclass(frozen=True, eq=False)
class PatternCut:
    """Sampled complex field over signed theta in one azimuth plane.

    gain_db is normalized so the maximum sample is exactly 0 dB.
    """

    phi_plane_deg: float
    theta_deg: np.ndarray
    field: np.ndarray
    gain_db: np.ndarray

    def __post_init__(self) -> None:
        th = np.asarray(self.theta_deg, dtype=float)
        if th.ndim != 1 or th.size == 0:
            raise DomainError("theta grid must be a nonempty 1-D array")
        if np.any(np.diff(th) <= 0):
            raise DomainError("theta grid must be strictly increasing")
        if th[0] < -90.0 or th[-1] > 90.0:
            raise DomainError("theta grid must lie within [-90, 90]")

    def __len__(self) -> int:
        return len(self.theta_deg)


@dataclass(frozen=True)
class PatternMetrics:
    main_lobe_deg: float
    peak_db_raw: float
    mirror_lobe_db: float
    sidelobe_level_db: float
    degenerate: bool = False


def default_theta_grid(step_deg: float = 0.25) -> np.ndarray:
    """Signed theta grid over [-90, 90]; the default 0.25 deg step gives a
    grid that is exactly symmetric about zero in floating point."""
    count = int(round(180.0 / step_deg)) + 1
    return np.linspace(-90.0, 90.0, count)


def _mask_coefficients(mask, cell: UnitCellReflection) -> np.ndarray:
    """Complex per-element reflection coefficients for either mask kind.

    CodingMask uses the cell's two states; PhaseMask is treated as an ideal
    continuous surface with unit magnitude.
    """
    if isinstance(mask, CodingMask):
        mag, phase = cell.states()
        return (mag * np.exp(1j * phase))[mask.bits]
    if isinstance(mask, PhaseMask):
        return np.exp(1j * np.radians(mask.phases_deg))
    raise DomainError(f"unsupported mask type {type(mask).__name__}")


def _normalize(phi_plane_deg: float, theta_deg: np.ndarray, field: np.ndarray) -> PatternCut:
    mags = np.abs(field)
    peak = mags.max()
    with np.errstate(divide="ignore"):
        gain_db = 20.0 * np.log10(mags / peak) if peak > 0 else np.full_like(mags, -np.inf)
    return PatternCut(phi_plane_deg, theta_deg, field, gain_db)


def _cut_inputs(geom: ArrayGeometry, mask, theta_grid_deg, wavelength: float):
    """The checks both cut kernels open with; the theta grid as floats and k0."""
    if not (wavelength > 0):
        raise DomainError(f"wavelength must be > 0, got {wavelength}")
    if mask.geom != geom:
        raise DomainError("mask geometry does not match the array geometry")
    theta = np.asarray(theta_grid_deg, dtype=float)
    if theta.size == 0:
        raise DomainError("theta grid must be nonempty")
    return theta, 2 * np.pi / wavelength


def _cut_field(
    geom: ArrayGeometry, phi_plane_deg: float, theta: np.ndarray, wavelength: float, base
) -> np.ndarray:
    """Per theta, the sum over elements of base * exp(j k0 sin(theta) w),
    w being the element's coordinate along the cut plane.

    The complex exp runs once per distinct w (16 on the phi = 0 cut of the
    16x10 board); np.take gathers it back to a C-contiguous (T, M*N) array,
    so every element's exp input, product and row-sum order, and thus every
    bit, match the dense formula. Product plus row sum (no matmul) keeps
    cuts partition-independent; signed theta enters through sin(theta), so
    the symmetric half of the cut is the exact floating-point mirror.
    """
    k0 = 2 * np.pi / wavelength
    ph = math.radians(phi_plane_deg)
    X, Y = element_grid(geom)
    w, inv = np.unique((X * math.cos(ph) + Y * math.sin(ph)).ravel(), return_inverse=True)
    sin_t = np.sin(np.radians(theta))
    terms = np.take(np.exp(1j * (k0 * sin_t[:, None] * w[None, :])), inv, axis=1)
    terms *= base
    return terms.sum(axis=1)


def array_factor_far(
    geom: ArrayGeometry,
    mask,
    cell: UnitCellReflection,
    incidence: Direction,
    phi_plane_deg: float,
    theta_grid_deg: np.ndarray,
    wavelength: float,
) -> PatternCut:
    """Far-field array factor of the coded aperture under plane-wave
    incidence, evaluated along one azimuth cut.

    Each element contributes its reflection coefficient times the path
    phase k0*(incidence projection - observation projection); the sum runs
    in _cut_field, the cut kernel shared with pattern_nearfield.
    """
    theta, k0 = _cut_inputs(geom, mask, theta_grid_deg, wavelength)
    coeff = _mask_coefficients(mask, cell).ravel()
    proj_in = projection_grid(geom, incidence).ravel()
    base = coeff * np.exp(-1j * k0 * proj_in)
    field = _cut_field(geom, phi_plane_deg, theta, wavelength, base)
    return _normalize(phi_plane_deg, theta, field)


def pattern_nearfield(
    geom: ArrayGeometry,
    mask,
    cell: UnitCellReflection,
    feed: FeedSpec,
    q_e: float,
    phi_plane_deg: float,
    theta_grid_deg: np.ndarray,
    wavelength: float,
) -> PatternCut:
    """Radiation cut of the aperture illuminated by a close-in feed.

    Each element contributes cos(theta)^(2*q_e) (element taper, applied
    once for the aperture and once for the per-element observation angle,
    which coincide for a distant observer) times cos(theta_feed)^q_f / r
    (feed illumination and spherical spreading) times its reflection
    coefficient and the path phase k0*(r - observation projection). The sum
    runs in _cut_field, the cut kernel shared with array_factor_far.
    """
    theta, k0 = _cut_inputs(geom, mask, theta_grid_deg, wavelength)
    check_exponent("q_e", q_e)
    r_feed = distance_grid(geom, feed.position)
    cos_feed = feed.position.z / r_feed
    amp = (cos_feed**feed.q_f) / r_feed
    coeff = _mask_coefficients(mask, cell)
    base = (amp * coeff * np.exp(-1j * k0 * r_feed)).ravel()
    field = _cut_field(geom, phi_plane_deg, theta, wavelength, base)
    envelope = np.clip(np.cos(np.radians(theta)), 0.0, None) ** (2.0 * q_e)
    return _normalize(phi_plane_deg, theta, envelope * field)


def pattern_metrics(cut: PatternCut) -> PatternMetrics:
    """Main lobe, raw peak level, mirror lobe, and sidelobe level of a cut.

    The main lobe is the argmax sample; exact ties (within 1e-12 dB, which
    covers the bit-identical mirror lobes of 1-bit masks) resolve toward
    positive theta. The mirror lobe is the maximum within 5 degrees of the
    negated main lobe. The sidelobe level is the highest sample outside the
    first nulls bracketing the main lobe, -inf if nothing radiates there.
    """
    gain = cut.gain_db
    theta = cut.theta_deg
    mags = np.abs(cut.field)
    peak_raw = mags.max()
    peak_db_raw = float(20.0 * np.log10(peak_raw)) if peak_raw > 0 else -np.inf

    if peak_raw - mags.min() <= 1e-15 * peak_raw:
        return PatternMetrics(math.nan, peak_db_raw, math.nan, math.nan, degenerate=True)

    tied = np.flatnonzero(gain >= gain.max() - 1e-12)
    main_idx = int(tied[np.argmax(theta[tied])])
    main_deg = float(theta[main_idx])

    mirror_window = np.abs(theta - (-main_deg)) <= 5.0
    mirror_db = float(gain[mirror_window].max()) if mirror_window.any() else -math.inf

    lo = main_idx
    while lo > 0 and mags[lo - 1] < mags[lo]:
        lo -= 1
    hi = main_idx
    while hi < len(mags) - 1 and mags[hi + 1] < mags[hi]:
        hi += 1
    outside = np.ones(len(mags), dtype=bool)
    outside[lo : hi + 1] = False
    sll_db = float(gain[outside].max()) if outside.any() else -math.inf

    return PatternMetrics(main_deg, peak_db_raw, mirror_db, sll_db)


def write_pattern_csv(cut: PatternCut, path, comments: dict | None = None) -> None:
    """CSV cut: `#`-prefixed context lines, then theta_deg,gain_db,re,im rows."""
    lines = [f"# {key} = {value}" for key, value in (comments or {}).items()]
    lines.append("theta_deg,gain_db,re,im")
    f = cut.field
    rows = zip(cut.theta_deg.tolist(), cut.gain_db.tolist(), f.real.tolist(), f.imag.tolist())
    lines.extend(map("%.4f,%.6f,%.9e,%.9e".__mod__, rows))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
