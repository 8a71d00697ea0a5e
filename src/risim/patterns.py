"""Far-field and near-field-fed radiation pattern cuts plus lobe metrics.

A pattern cut samples the complex array factor along theta in a fixed
azimuth plane. Signed theta covers both half-planes of the cut: negative
theta is the phi+180 side.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError
from .geometry import ArrayGeometry, Direction, feed_hop, in_plane_grid, projection_grid, wavenumber
from .masks import CodingMask, FeedSpec, UnitCellReflection, _feed_phase, check_exponent, feed_taper
from .output import pattern_csv, pattern_grid_columns, write_text

# the most samples a theta grid may have, [-90, 90] at a millidegree step: the cached
# observation table is then a (180001, W) complex array, W being the cut plane's count
# of distinct element coordinates: 46 MB on the 16 x 10 board's phi = 0 plane (W = 16),
# 461 MB on a plane where no two elements share one (W = M*N). It stays resident until
# a cut on another grid replaces it
MAX_THETA_SAMPLES = 180_001

# Bytes of one row block of a cut's product and row sum: rows per block are
# this budget over the 16 * W bytes of a table row (at least one), so a block
# stays in cache between the product and the sum; 1024 rows on the 16 x 10
# board's phi = 0 plane (W = 16), 102 where W = M*N = 160. 128 KB and
# 640 KB ran a W = 160 cut no faster.
_BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True, eq=False)
class PatternCut:
    """Sampled complex field over signed theta in one azimuth plane.

    theta_deg is the checked grid and field a complex copy of the caller's;
    gain_db is derived from field, its maximum sample exactly 0 dB (all -inf
    when the peak magnitude is not > 0). All three are read-only.
    """

    phi_plane_deg: float
    theta_deg: np.ndarray
    field: np.ndarray
    gain_db: np.ndarray = dataclass_field(init=False)

    def __post_init__(self) -> None:
        th = _theta_grid(self.theta_deg, self.phi_plane_deg).theta
        field = np.array(self.field, dtype=complex)
        if field.shape != th.shape:
            raise DomainError(f"field shape {field.shape} does not match theta grid shape {th.shape}")
        mags = np.abs(field)
        peak = mags.max()
        with np.errstate(divide="ignore"):
            gain_db = 20.0 * np.log10(mags / peak) if peak > 0 else np.full_like(mags, -np.inf)
        field.flags.writeable = gain_db.flags.writeable = False
        object.__setattr__(self, "theta_deg", th)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "gain_db", gain_db)


@dataclass(frozen=True)
class PatternMetrics:
    """Lobe metrics of a cut (pattern_metrics); NaN where a degenerate cut has none."""

    main_lobe_deg: float
    peak_db_raw: float
    mirror_lobe_db: float
    sidelobe_level_db: float
    degenerate: bool = False


def default_theta_grid(step_deg: float = 0.25) -> np.ndarray:
    """Signed theta grid over [-90, 90]; the default 0.25 deg step gives a
    grid that is exactly symmetric about zero in floating point. The step
    must divide 180 degrees into whole intervals (within 1e-9 relative);
    it and the sample count are checked before anything is allocated."""
    if not 0.0 < step_deg <= 180.0:
        raise DomainError(f"theta step must be in (0, 180] degrees, got {step_deg}")
    intervals = 180.0 / step_deg  # inf for a subnormal step
    # below MAX_THETA_SAMPLES - 1/2, the rounded count stays within the bound
    if not intervals < MAX_THETA_SAMPLES - 0.5:
        raise DomainError(f"theta step {step_deg:g} gives more than {MAX_THETA_SAMPLES} samples")
    count = round(intervals)
    if abs(intervals - count) > 1e-9 * intervals:
        raise DomainError(f"theta step {step_deg:g} does not divide 180 degrees into whole intervals")
    return np.linspace(-90.0, 90.0, count + 1)


def _mask_coefficients(mask: CodingMask, cell: UnitCellReflection) -> np.ndarray:
    """Complex per-element reflection coefficients: the cell state each bit selects."""
    mag, phase = cell.states
    return (mag * np.exp(1j * phase))[mask.bits]


def _theta_grid(theta_grid_deg, phi_plane_deg: float) -> _ThetaGrid:
    """The cut plane and theta grid checks shared by the kernels and PatternCut;
    the grid's _ThetaGrid. The kernels run them before any table is built."""
    if not math.isfinite(phi_plane_deg):
        raise DomainError(f"phi_plane_deg must be finite, got {phi_plane_deg}")
    theta = np.asarray(theta_grid_deg, dtype=float)
    if theta.ndim != 1 or not 0 < theta.size <= MAX_THETA_SAMPLES:
        raise DomainError(f"theta grid must be a nonempty 1-D array of at most {MAX_THETA_SAMPLES} samples")
    return _checked_grid(theta.tobytes())


class _ThetaGrid:
    """What every cut on one theta grid shares: the grid's bytes (the key of
    both per-grid caches), theta, the read-only array over them every cut
    holds, and, each built on first use, the CSV theta column and separator
    rows and the near envelope's base. It checks the values as it is built."""

    def __init__(self, key: bytes) -> None:
        self.key = key
        self.theta = theta = np.frombuffer(key)
        if not np.isfinite(theta).all():
            raise DomainError("theta grid must be finite")
        if np.any(np.diff(theta) <= 0):
            raise DomainError("theta grid must be strictly increasing")
        if theta[0] < -90.0 or theta[-1] > 90.0:
            raise DomainError("theta grid must lie within [-90, 90]")

    @cached_property
    def csv_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pattern CSV columns every cut on this grid shares."""
        return pattern_grid_columns(self.theta)

    @cached_property
    def cos_clipped(self) -> np.ndarray:
        """clip(cos(theta), 0): the near envelope before its ** q_e."""
        return np.clip(np.cos(np.radians(self.theta)), 0.0, None)


# one entry, keyed by the grid's exact bits, as _observation_table's is (-0.0 is
# not 0.0): a grid mutated in place is a new key and is checked again, and a grid
# that fails its checks raises and is never cached
_checked_grid = lru_cache(maxsize=1)(_ThetaGrid)


def _cut_inputs(geom: ArrayGeometry, mask, phi_plane_deg: float, theta_grid_deg, wavelength: float):
    """The checks both cut kernels open with; the theta grid's _ThetaGrid and k0."""
    k0 = wavenumber(wavelength)
    if not isinstance(mask, CodingMask):
        raise DomainError(f"unsupported mask type {type(mask).__name__}")
    if mask.geom != geom:
        raise DomainError("mask geometry does not match the array geometry")
    return _theta_grid(theta_grid_deg, phi_plane_deg), k0


@lru_cache(maxsize=1)
def _observation_table(
    geom: ArrayGeometry, phi_plane_deg: float, wavelength: float, theta_bytes: bytes
) -> tuple[np.ndarray, np.ndarray]:
    """exp(j k0 sin(theta) w) over the theta grid and the W distinct values
    of w, the element coordinate along the cut plane, as a C-contiguous
    (T, W) array, with inv, the (M*N,) index of each element's column; both
    read-only.

    W is 16 on the phi = 0 and 180 planes of the 16x10 board, 10 on the
    90 and 270 planes, and M*N on a plane where no two elements share w.
    The grid arrives as bytes, so the key is its exact bits (-0.0 is not
    0.0) and a caller mutating its array afterwards cannot desynchronize the
    cache. One entry is held at a time, so far and near cuts on one plane and
    grid share it; it stays resident between cuts.
    """
    w, inv = np.unique(in_plane_grid(geom, phi_plane_deg).ravel(), return_inverse=True)
    sin_t = np.sin(np.radians(np.frombuffer(theta_bytes)))
    table = np.exp(1j * (wavenumber(wavelength) * sin_t[:, None] * w[None, :]))
    table.flags.writeable = inv.flags.writeable = False
    return table, inv


def _cut_field(
    geom: ArrayGeometry, phi_plane_deg: float, theta_bytes: bytes, wavelength: float, base
) -> np.ndarray:
    """Per theta, the sum over elements of base * exp(j k0 sin(theta) w),
    w being the element's coordinate along the cut plane and theta_bytes
    the theta grid's tobytes(), the key of the observation table.

    Elements sharing w share the exponential, so base is first summed per
    distinct w, in element order, into W groups; the exp table comes from
    the per-grid cache, and its product with the groups and the row sum run
    a block of _BLOCK_BYTES at a time, so a cut allocates one block, not a
    (T, W) term array. Each row multiplies and sums the same contiguous W
    values in the same order, so every bit is the same whatever the block
    size. Product plus row sum (no matmul) keeps cuts partition-independent;
    signed theta enters through sin(theta), so the symmetric half of the cut
    is the exact floating-point mirror.
    """
    table, inv = _observation_table(geom, phi_plane_deg, wavelength, theta_bytes)
    count, width = table.shape
    groups = np.zeros(width, complex)
    np.add.at(groups, inv, base)
    rows = max(1, _BLOCK_BYTES // table[0].nbytes)
    field = np.empty(count, complex)
    block = np.empty((min(rows, count), width), complex)
    for start in range(0, count, rows):
        part = block[: min(rows, count - start)]
        np.multiply(table[start : start + rows], groups, out=part)
        part.sum(axis=1, out=field[start : start + rows])
    return field


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
    grid, k0 = _cut_inputs(geom, mask, phi_plane_deg, theta_grid_deg, wavelength)
    coeff = _mask_coefficients(mask, cell).ravel()
    proj_in = projection_grid(geom, incidence).ravel()
    base = coeff * np.exp(-1j * k0 * proj_in)
    field = _cut_field(geom, phi_plane_deg, grid.key, wavelength, base)
    return PatternCut(phi_plane_deg, grid.theta, field)


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
    """Radiation cut of the aperture illuminated by a close-in feed: the
    single-pass link sum with the receiver taken to the far field.

    Each element contributes sqrt(feed_taper) / r (feed amplitude and
    spherical spreading) times its reflection coefficient and the path phase
    k0*(r - observation projection), its feed term the conjugate of the phasor
    synthesis caches (masks._feed_phase), summed in _cut_field, the kernel shared
    with array_factor_far; the outgoing element factor clip(cos(theta))**q_e
    scales each sample. q_e sets both element factors of the cut; cell
    supplies only the reflection states.
    """
    grid, _ = _cut_inputs(geom, mask, phi_plane_deg, theta_grid_deg, wavelength)
    check_exponent("q_e", q_e)
    r_feed = feed_hop(geom, feed.position)[0]
    amp = np.sqrt(feed_taper(geom, feed, q_e)) / r_feed
    coeff = _mask_coefficients(mask, cell)
    base = (amp * coeff * _feed_phase(geom, feed.position, wavelength)[1].conj()).ravel()
    field = _cut_field(geom, phi_plane_deg, grid.key, wavelength, base)
    return PatternCut(phi_plane_deg, grid.theta, grid.cos_clipped**q_e * field)


def pattern_metrics(cut: PatternCut) -> PatternMetrics:
    """Main lobe, raw peak level, mirror lobe, and sidelobe level of a cut.

    The main lobe is the argmax sample; exact ties (within 1e-12 dB, which
    covers the bit-identical mirror lobes of 1-bit masks) resolve toward
    positive theta. The mirror lobe is the maximum within 5 degrees of the
    negated main lobe. The sidelobe level is the highest sample outside the
    first nulls bracketing the main lobe, -inf if nothing radiates there.
    The first nulls are found by strict descent: on each side the lobe takes
    in samples while each magnitude is strictly below the one before it
    (nearer the main lobe), so it ends before the first sample that ties its
    neighbour (a plateau) or is NaN. A flat cut, or one whose raw peak is
    subnormal, is degenerate and has no lobes.
    """
    gain = cut.gain_db
    theta = cut.theta_deg
    mags = np.abs(cut.field)
    peak_raw = mags.max()
    peak_db_raw = float(20.0 * np.log10(peak_raw)) if peak_raw > 0 else -np.inf

    if peak_raw - mags.min() <= 1e-15 * peak_raw or peak_raw < sys.float_info.min:
        return PatternMetrics(math.nan, peak_db_raw, math.nan, math.nan, degenerate=True)

    tied = np.flatnonzero(gain >= gain.max() - 1e-12)
    main_idx = int(tied[np.argmax(theta[tied])])
    main_deg = float(theta[main_idx])

    mirror_window = np.abs(theta - (-main_deg)) <= 5.0
    mirror_db = float(gain[mirror_window].max()) if mirror_window.any() else -math.inf

    lo, hi = _main_lobe_span(mags, main_idx)
    outside = np.ones(len(mags), dtype=bool)
    outside[lo : hi + 1] = False
    sll_db = float(gain[outside].max()) if outside.any() else -math.inf

    return PatternMetrics(main_deg, peak_db_raw, mirror_db, sll_db)


def _main_lobe_span(mags: np.ndarray, peak: int) -> tuple[int, int]:
    """First and last index of the strict descent from mags[peak] to each
    side: the samples the main lobe covers up to its first nulls."""
    # the last sample left of peak that does not rise strictly into the next,
    # and the first from peak on that does not fall strictly to the next;
    # `not <` keeps NaN a stop
    stops = np.flatnonzero(~(mags[:peak] < mags[1 : peak + 1]))
    lo = int(stops[-1]) + 1 if stops.size else 0
    stops = np.flatnonzero(~(mags[peak + 1 :] < mags[peak:-1]))
    hi = peak + int(stops[0]) if stops.size else len(mags) - 1
    return lo, hi


def write_pattern_csv(cut: PatternCut, path, comments: dict | None = None) -> None:
    """CSV cut: `#`-prefixed context lines, then theta_deg,gain_db,re,im rows
    formatted "%.4f,%.6f,%.9e,%.9e" (output.pattern_csv)."""
    grid = _checked_grid(cut.theta_deg.tobytes())
    write_text(pattern_csv(grid.csv_columns, cut.gain_db, cut.field), path, comments)
