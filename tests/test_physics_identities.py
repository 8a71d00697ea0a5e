"""Physics identities between risim's three coherent sums: the far cut, the
near cut and the two-hop single-pass link.

The near cut is the single-pass link sum with the receiver taken to the far
field, and the far cut is the near cut with the feed taken there too; Tang
et al.'s two-hop model is reciprocal in feed and receiver, and 1-bit phasing
never collects more than ideal phasing. Each identity is checked on drawn
small boards, steers and ranges, against a tolerance that shrinks as the
range grows, so the kernels check one another without a reference
implementation and under any numpy dispatch level. The bounds are the ones
measured on the 16x10 board, 2e-1 * (1 m / R) and 2e-3 * (100 m / D); a
smaller aperture meets them with room to spare. The ranges stay below
1e5 m, under which float rounding of the path phase sits well inside them.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from risim import (
    ArrayGeometry,
    Direction,
    FeedSpec,
    LinkScenario,
    Point3,
    UnitCellReflection,
    array_factor_far,
    farfield_steering_mask,
    nearfield_steering_mask,
    pattern_nearfield,
    received_power,
    wavelength_from_frequency,
)

WAVELENGTH = wavelength_from_frequency(5.5e9)
# 5 degree samples; a receiver on the cut stays off the surface plane
THETA = np.arange(-85.0, 86.0, 5.0)

BOARDS = st.builds(ArrayGeometry, st.integers(1, 8), st.integers(1, 8), st.just(0.016))
CELLS = st.sampled_from([UnitCellReflection(), UnitCellReflection.measured()])
STEERS = st.floats(-60.0, 60.0)
OFFSETS = st.floats(-0.1, 0.1)  # a feed's or receiver's in-plane offset from the board center, m
HEIGHTS = st.floats(0.1, 1.0)  # its height above the board, m
# a feed or receiver anywhere within 3 m of the board center in-plane and 5 m above it
NODES = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.1, 5.0))


def _above_center(geom: ArrayGeometry, dx: float, dy: float, z: float) -> Point3:
    c = geom.center()
    return Point3(c.x + dx, c.y + dy, z)


def _scenario(geom, cell, feed: Point3, rx: Point3, mask) -> LinkScenario:
    """The bench link (equal horn gains, q_f = q_r = 7) between feed and rx."""
    return LinkScenario(geom, FeedSpec(feed), rx, WAVELENGTH, -7.87, 12.0, 12.0, mask=mask, cell=cell)


@settings(max_examples=50, deadline=None)
@given(BOARDS, CELLS, OFFSETS, OFFSETS, HEIGHTS, STEERS, st.floats(3.0, 5.0))
def test_near_cut_is_the_link_sum_at_far_range(geom, cell, dx, dy, h, steer, log10_range):
    """R times the single-pass sum at a receiver at range R from the board
    center, in the cut's direction, tends to the near cut as 1/R."""
    feed = _above_center(geom, dx, dy, h)
    mask = nearfield_steering_mask(geom, feed, Direction.from_signed_theta(steer), WAVELENGTH)
    near = np.abs(pattern_nearfield(geom, mask, cell, FeedSpec(feed), cell.q_e, 0.0, THETA, WAVELENGTH).field)
    r = 10.0**log10_range
    base = _scenario(geom, cell, feed, _above_center(geom, 0.0, 0.0, r), mask)
    link = np.array([
        r * received_power(
            base.with_rx(_above_center(geom, r * math.sin(t), 0.0, r * math.cos(t))), "single_pass"
        ).accumulation_linear
        for t in np.radians(THETA)
    ])
    assert np.max(np.abs(link - near)) <= 2e-1 / r * near.max()


@settings(max_examples=50, deadline=None)
@given(BOARDS, CELLS, STEERS, st.floats(2.0, 5.0))
def test_near_cut_with_a_distant_feed_is_the_far_cut(geom, cell, steer, log10_distance):
    """D times the near cut, fed from distance D on the normal through the
    board center, tends to the far cut under normal incidence times the
    outgoing element factor cos(theta)**q_e, as 1/D."""
    d = 10.0**log10_distance
    feed = FeedSpec(_above_center(geom, 0.0, 0.0, d))
    mask = farfield_steering_mask(geom, Direction.from_signed_theta(steer), WAVELENGTH)
    near = d * np.abs(pattern_nearfield(geom, mask, cell, feed, cell.q_e, 0.0, THETA, WAVELENGTH).field)
    far = np.abs(array_factor_far(geom, mask, cell, Direction(0.0), 0.0, THETA, WAVELENGTH).field)
    far *= np.cos(np.radians(THETA)) ** cell.q_e
    assert np.max(np.abs(near - far)) <= 2e-3 * (100.0 / d) * far.max()


@settings(max_examples=50, deadline=None)
@given(BOARDS, CELLS, NODES, NODES, STEERS)
def test_swapping_feed_and_receiver_keeps_received_power(geom, cell, feed_at, rx_at, steer):
    """With q_f = q_r and equal gains, the feed and the receiver trade places
    and every accounting mode reads the same power."""
    feed, rx = _above_center(geom, *feed_at), _above_center(geom, *rx_at)
    mask = nearfield_steering_mask(geom, feed, Direction.from_signed_theta(steer), WAVELENGTH)
    forward = _scenario(geom, cell, feed, rx, mask)
    backward = replace(forward, feed=FeedSpec(rx), rx=feed)
    for mode in ("none", "analytic", "mask", "single_pass"):
        there = received_power(forward, mode).received_power_dbm
        back = received_power(backward, mode).received_power_dbm
        assert abs(there - back) <= 1e-9, mode


@settings(max_examples=50, deadline=None)
@given(BOARDS, CELLS, NODES, NODES, STEERS)
def test_one_bit_phasing_never_exceeds_ideal_phasing(geom, cell, feed_at, rx_at, steer):
    """The mask's own cell states inside the sum, or its phase-error loss, never
    collect more power than ideal continuous phasing (1e-9 dB of rounding)."""
    feed, rx = _above_center(geom, *feed_at), _above_center(geom, *rx_at)
    mask = nearfield_steering_mask(geom, feed, Direction.from_signed_theta(steer), WAVELENGTH)
    scenario = _scenario(geom, cell, feed, rx, mask)
    ideal = received_power(scenario, "none").received_power_dbm
    for mode in ("single_pass", "mask"):
        assert received_power(scenario, mode).received_power_dbm <= ideal + 1e-9, mode
