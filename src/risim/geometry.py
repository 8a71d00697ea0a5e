"""Lattice geometry and direction/distance vector algebra.

Conventions used everywhere downstream: the surface lies in the z=0 plane
with a corner-origin lattice; index m counts along x (the steering plane),
index n along y, both 1-based. Angles are degrees at every public interface
and radians only inside formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

SPEED_OF_LIGHT = 299792458.0  # m/s

# 256 x 256, about 400x the 16 x 10 board: one complex (721, M*N) cut term array then
# takes 0.76 GB, so a larger count fails here instead of inside numpy's allocator
MAX_ELEMENTS = 65_536


def wavelength_from_frequency(frequency_hz: float) -> float:
    """Free-space wavelength in meters for a carrier frequency in Hz."""
    if not 0 < frequency_hz < math.inf:
        raise DomainError(f"frequency must be positive and finite, got {frequency_hz}")
    return SPEED_OF_LIGHT / frequency_hz


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
        if not (self.periodicity_m > 0):
            raise DomainError(f"periodicity must be > 0, got {self.periodicity_m}")

    @property
    def size(self) -> int:
        return self.m_count * self.n_count

    @cached_property
    def _lattice(self) -> tuple[np.ndarray, np.ndarray]:
        p = self.periodicity_m
        X, Y = np.meshgrid(np.arange(self.m_count) * p, np.arange(self.n_count) * p, indexing="ij")
        X.flags.writeable = Y.flags.writeable = False
        return X, Y

    def center(self) -> "Point3":
        """Geometric center of the aperture, in the z=0 plane."""
        p = self.periodicity_m
        return Point3((self.m_count - 1) * p / 2, (self.n_count - 1) * p / 2, 0.0)


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
    def from_signed_theta(cls, theta_deg: float, phi_deg: float = 0.0) -> "Direction":
        """Map a signed elevation in the phi plane to the canonical ranges.

        Negative theta folds into the opposite azimuth half-plane:
        (-30, 0) becomes (30, 180).
        """
        if theta_deg < 0:
            theta_deg = -theta_deg
            phi_deg = (phi_deg + 180.0) % 360.0
        return cls(theta_deg, phi_deg % 360.0)

    def unit_vector(self) -> np.ndarray:
        """Cartesian unit vector (pointing away from the surface, z >= 0)."""
        th = math.radians(self.theta_deg)
        ph = math.radians(self.phi_deg)
        return np.array(
            [math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)]
        )


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


def element_grid(geom: ArrayGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized element coordinates, computed once per geometry.

    Returns
    -------
    (X, Y) : two read-only (m_count, n_count) arrays with X[i, j] = i*p,
        Y[i, j] = j*p, axis 0 indexing m (x direction) and axis 1 indexing
        n (y direction).
    """
    return geom._lattice


def projection_grid(geom: ArrayGeometry, direction: Direction) -> np.ndarray:
    """Scalar projection of every element position onto a direction.

    For element (m, n) this is p*sin(theta)*((m-1)*cos(phi) + (n-1)*sin(phi)),
    the in-plane path-length term of a plane wave travelling along the
    direction. Shape (m_count, n_count), meters.
    """
    th = math.radians(direction.theta_deg)
    ph = math.radians(direction.phi_deg)
    X, Y = element_grid(geom)
    return math.sin(th) * (X * math.cos(ph) + Y * math.sin(ph))


def euclidean_feed_distance(feed: Point3, elem: Point3) -> float:
    """Euclidean distance between two points (feed phase center to element)."""
    return math.dist((feed.x, feed.y, feed.z), (elem.x, elem.y, elem.z))


def distance_grid(geom: ArrayGeometry, point: Point3) -> np.ndarray:
    """Distance from a point to every element, shape (m_count, n_count)."""
    X, Y = element_grid(geom)
    return np.sqrt((point.x - X) ** 2 + (point.y - Y) ** 2 + point.z**2)
