"""Lattice geometry and direction/distance vector algebra.

Conventions used everywhere downstream: the surface lies in the z=0 plane
with a corner-origin lattice; index m counts along x (the steering plane),
index n along y, both 1-based. Angles are degrees at every public interface
and radians only inside formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

SPEED_OF_LIGHT = 299792458.0  # m/s

# 256 x 256, about 400x the 16 x 10 board: a default cut's resident complex (721, W)
# table, W up to M*N, then takes 0.76 GB, so a larger count fails here, not in numpy
MAX_ELEMENTS = 65_536

# feed and receiver distance from the origin, meters: far past any link the model
# describes, yet squares and products of two distances (~1e200) stay far inside the
# float range, where a square z*z overflows to inf past 1.3e154 m
MAX_NODE_DISTANCE_M = 1e100


def wavelength_from_frequency(frequency_hz: float) -> float:
    """Free-space wavelength in meters for a carrier frequency in Hz."""
    # below c / DBL_MAX the quotient overflows to inf, and k0 to 0
    if not (0 < frequency_hz < math.inf and SPEED_OF_LIGHT / frequency_hz < math.inf):
        raise DomainError(f"frequency must be finite and above c / DBL_MAX ~ 1.67e-300 Hz, got {frequency_hz}")
    return SPEED_OF_LIGHT / frequency_hz


def wavenumber(wavelength: float) -> float:
    """Free-space wavenumber 2 pi / wavelength, radians per meter."""
    if not (wavelength > 0):
        raise DomainError(f"wavelength must be > 0, got {wavelength}")
    return 2 * np.pi / wavelength


def azimuth_trig(phi_deg: float) -> tuple[float, float]:
    """(cos, sin) of a finite azimuth in degrees: exact at multiples of 90, math's elsewhere."""
    quarter, rest = divmod(math.fmod(phi_deg, 360.0), 90.0)  # fmod is exact at any size
    if rest == 0.0:  # a zero takes its partner's sign, so phi + 180 negates phi's pair
        return ((1.0, 0.0), (0.0, 1.0), (-1.0, -0.0), (-0.0, -1.0))[int(quarter) % 4]
    return math.cos(math.radians(phi_deg)), math.sin(math.radians(phi_deg))


@dataclass(frozen=True)
class ArrayGeometry:
    """Rectangular lattice of unit cells.

    m_count cells along x, n_count along y, square period periodicity_m.
    Element (m, n), 1-based, sits at ((m-1)*p, (n-1)*p, 0).
    """

    m_count: int
    n_count: int
    periodicity_m: float

    def __post_init__(self) -> None:
        if not (self.m_count >= 1 and self.n_count >= 1 and self.size <= MAX_ELEMENTS):
            raise DomainError(
                f"element counts must be >= 1 and multiply to at most {MAX_ELEMENTS},"
                f" got {self.m_count}x{self.n_count}"
            )
        if not 0 < self.periodicity_m < math.inf:
            raise DomainError(f"periodicity must be positive and finite, got {self.periodicity_m}")

    @property
    def size(self) -> int:
        return self.m_count * self.n_count

    def center(self) -> "Point3":
        """Geometric center of the aperture, in the z=0 plane."""
        p = self.periodicity_m
        return Point3((self.m_count - 1) * p / 2, (self.n_count - 1) * p / 2, 0.0)


# the fabricated board: 16 columns along x, 10 rows along y, 16 mm pitch
BOARD_GEOMETRY = ArrayGeometry(16, 10, 0.016)


@dataclass(frozen=True)
class Direction:
    """Propagation direction: theta from the surface normal, phi azimuth.

    theta_deg in [0, 90), phi_deg in [0, 360).
    """

    theta_deg: float
    phi_deg: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta_deg < 90.0):
            raise DomainError(f"theta must be in [0, 90), got {self.theta_deg}")
        if not (0.0 <= self.phi_deg < 360.0):
            raise DomainError(f"phi must be in [0, 360), got {self.phi_deg}")

    @classmethod
    def from_signed_theta(cls, theta_deg: float) -> "Direction":
        """Map a signed elevation in the phi = 0 plane to the canonical ranges:
        negative theta folds into the phi = 180 half-plane, -30 to (30, 180).
        The range (-90, 90) is checked on the signed value, which an error names."""
        if not -90.0 < theta_deg < 90.0:
            raise DomainError(f"signed theta must be in (-90, 90), got {theta_deg}")
        if theta_deg < 0:
            return cls(-theta_deg, 180.0)
        return cls(theta_deg)

    def unit_vector(self) -> np.ndarray:
        """Cartesian unit vector (pointing away from the surface, z >= 0)."""
        th = math.radians(self.theta_deg)
        cos_ph, sin_ph = azimuth_trig(self.phi_deg)
        return np.array([math.sin(th) * cos_ph, math.sin(th) * sin_ph, math.cos(th)])


@dataclass(frozen=True)
class Point3:
    """A point in meters."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for v in (self.x, self.y, self.z):
            if not math.isfinite(v):
                raise DomainError(f"coordinates must be finite, got {self!r}")


@lru_cache(maxsize=1)
def element_grid(geom: ArrayGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized element coordinates, cached for one geometry value as feed_hop is.

    Returns
    -------
    (X, Y) : two read-only (m_count, n_count) arrays with X[i, j] = i*p,
        Y[i, j] = j*p, axis 0 indexing m (x direction) and axis 1 indexing
        n (y direction).
    """
    p = geom.periodicity_m
    X, Y = np.meshgrid(np.arange(geom.m_count) * p, np.arange(geom.n_count) * p, indexing="ij")
    X.flags.writeable = Y.flags.writeable = False
    return X, Y


def projection_grid(geom: ArrayGeometry, direction: Direction) -> np.ndarray:
    """Scalar projection of every element position onto a direction, shape
    (m_count, n_count), meters: the one-direction case of projection_stack."""
    return projection_stack(geom, [direction.theta_deg], direction.phi_deg)[0]


def in_plane_grid(geom: ArrayGeometry, phi_deg: float) -> np.ndarray:
    """Each element's coordinate along the azimuth phi in degrees, shape
    (m_count, n_count), meters: (m-1)*p*cos(phi) + (n-1)*p*sin(phi) for element (m, n)."""
    X, Y = element_grid(geom)
    cos_ph, sin_ph = azimuth_trig(phi_deg)
    return X * cos_ph + Y * sin_ph


def projection_stack(geom: ArrayGeometry, thetas_deg, phi_deg: float) -> np.ndarray:
    """Projection of every element position onto K directions, one per theta in
    degrees, all in the one azimuth plane phi: sin(theta) * in_plane_grid(phi), shape
    (K, m_count, n_count), meters, the in-plane path-length term of a plane wave
    travelling along each direction. Row k is bitwise direction k alone."""
    sin_th = np.array([math.sin(math.radians(th)) for th in thetas_deg])[:, None, None]
    return sin_th * in_plane_grid(geom, phi_deg)


def distance_grid(geom: ArrayGeometry, point: Point3) -> np.ndarray:
    """Distance from a point to every element, shape (m_count, n_count). Every
    square is a product: a float's ** goes through libm pow, which can miss the last bit."""
    X, Y = element_grid(geom)
    dx, dy = X - point.x, Y - point.y
    return np.sqrt(dx * dx + dy * dy + point.z * point.z)


def check_node(name: str, node: Point3) -> None:
    """A feed or receiver sits off the surface (z > 0, and z*z > 0 so that its
    distance to the element below it is not 0) and within MAX_NODE_DISTANCE_M
    of the origin."""
    if not (node.z > 0 and node.z * node.z > 0):
        raise DomainError(f"{name} must sit off the surface (z > 0 and z*z > 0), got z={node.z}")
    if not math.hypot(node.x, node.y, node.z) <= MAX_NODE_DISTANCE_M:
        raise DomainError(
            f"{name} must lie within {MAX_NODE_DISTANCE_M:g} m of the origin, got {node}"
        )


def node_hop(geom: ArrayGeometry, node: Point3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (m_count, n_count) grids of the hop from a feed or receiver
    to every element: distance r, normal cosine z / r and boresight cosine,
    both over the one r. The boresight ray points at the array center; its
    cosine is clipped to [0, 1] so elements behind the horn plane contribute nothing."""
    r = distance_grid(geom, node)
    X, Y = element_grid(geom)
    c = geom.center()
    bx, by, bz = c.x - node.x, c.y - node.y, c.z - node.z
    dot = (X - node.x) * bx + (Y - node.y) * by - node.z * bz
    off = np.clip(dot / (r * math.sqrt(bx * bx + by * by + bz * bz)), 0.0, 1.0)
    hop = (r, node.z / r, off)
    for grid in hop:
        grid.flags.writeable = False
    return hop


# one entry, keyed by geometry and feed: synthesis, the near cut and every link
# scenario on one feed read it, and another geometry or feed replaces it
feed_hop = lru_cache(maxsize=1)(node_hop)
