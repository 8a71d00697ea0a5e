"""Values computed once on frozen objects: the element lattice of an
ArrayGeometry and the two-hop terms of a LinkScenario.

A cached value must equal a fresh computation bit for bit, whatever the
order of the calls that read it, and must equal a test-local copy of the
uncached formula it replaced.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risim import (
    ArrayGeometry,
    CodingMask,
    LinkScenario,
    Point3,
    element_grid,
    geometric_accumulation,
    received_power,
    required_cascade_mask,
)
from risim.linkbudget import single_pass_power_dbm

MODES = ("analytic", "mask", "single_pass", "none")


def oracle_two_hop(sc):
    """Per-element amplitude and path phase, rebuilding every grid per call
    as done before the terms were cached."""
    geom = sc.geom
    p = geom.periodicity_m
    X, Y = np.meshgrid(np.arange(geom.m_count) * p, np.arange(geom.n_count) * p, indexing="ij")
    c = geom.center()

    def dist(pt):
        return np.sqrt((pt.x - X) ** 2 + (pt.y - Y) ** 2 + pt.z**2)

    def off_axis_cos(node):
        bx, by, bz = c.x - node.x, c.y - node.y, c.z - node.z
        bn = math.sqrt(bx * bx + by * by + bz * bz)
        vx, vy, vz = X - node.x, Y - node.y, -node.z
        vn = np.sqrt(vx * vx + vy * vy + vz * vz)
        return np.clip((vx * bx + vy * by + vz * bz) / (vn * bn), 0.0, 1.0)

    r_t, r_r = dist(sc.feed), dist(sc.rx)
    taper = (off_axis_cos(sc.feed) ** sc.q_t) * (sc.feed.z / r_t) * (sc.rx.z / r_r) * (
        off_axis_cos(sc.rx) ** sc.q_r
    )
    return np.sqrt(taper) / (r_t * r_r), 2 * np.pi / sc.wavelength * (r_t + r_r)


def copy_of(sc):
    """An equal scenario built from scratch, with nothing cached."""
    return LinkScenario(
        sc.geom, sc.feed, sc.rx, sc.wavelength, sc.tx_power_dbm, sc.gain_tx_dbi,
        sc.gain_rx_dbi, sc.q_t, sc.q_r, sc.noise_floor_dbm, sc.mask,
        sc.include_hardware_loss, sc.hardware_loss_db,
    )


def reports(sc, order):
    return {q: received_power(sc, q) for q in order}


points = st.builds(
    Point3,
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.05, max_value=10.0),
)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 16), st.integers(1, 10)),
    pitch=st.floats(min_value=0.002, max_value=0.05),
    feed=points,
    rx=points,
    seed=st.integers(min_value=0, max_value=2**30 - 1),
    hardware=st.booleans(),
    first=st.permutations(MODES),
    second=st.permutations(MODES),
)
def test_every_mode_equals_a_fresh_scenario_and_the_uncached_formula(
    cfg, shape, pitch, feed, rx, seed, hardware, first, second
):
    geom = ArrayGeometry(*shape, pitch)
    mask = CodingMask(geom, np.random.default_rng(seed).integers(0, 2, shape, dtype=np.uint8))
    base = cfg.link
    sc = replace(base, geom=geom, feed=feed, rx=rx, mask=mask, include_hardware_loss=hardware)
    once, twice = reports(sc, first), reports(sc, second)
    fresh = {q: received_power(copy_of(sc), q) for q in MODES}
    assert once == twice == fresh
    amp, path = oracle_two_hop(sc)
    assert np.array_equal(sc._two_hop_terms[0], amp)
    assert np.array_equal(sc._two_hop_terms[1], path)
    assert fresh["none"].accumulation_linear == float(amp.sum())
    assert geometric_accumulation(sc) == float(amp.sum())
    assert single_pass_power_dbm(sc, mask.bits[None]).tolist() == [
        fresh["single_pass"].received_power_dbm
    ]


def test_with_rx_and_with_mask_equal_fresh_scenarios(cfg, board):
    base = cfg.link
    received_power(base, "none")  # fill the base scenario's terms first
    rx = Point3(1.0, 0.5, 2.0)
    moved = base.with_rx(rx)
    assert received_power(moved, "none") == received_power(copy_of(moved), "none")
    assert not np.array_equal(moved._two_hop_terms[0], base._two_hop_terms[0])

    bits = np.random.default_rng(7).integers(0, 2, (16, 10), dtype=np.uint8)
    masked = moved.with_mask(CodingMask(board, bits))
    for q in MODES:
        assert received_power(masked, q) == received_power(copy_of(masked), q)
    assert np.array_equal(
        required_cascade_mask(masked).phases_deg, required_cascade_mask(copy_of(masked)).phases_deg
    )


def test_terms_are_read_only(cfg):
    amp, path = cfg.link._two_hop_terms
    for grid in (amp, path):
        with pytest.raises(ValueError):
            grid[0, 0] = 0.0


def test_element_grid_is_built_once_and_read_only(board):
    X, Y = element_grid(board)
    again = element_grid(board)
    assert again[0] is X and again[1] is Y
    for grid in (X, Y):
        with pytest.raises(ValueError):
            grid[0, 0] = 1.0
    # an equal geometry builds its own, equal lattice
    other = element_grid(ArrayGeometry(16, 10, 0.016))
    assert other[0] is not X
    assert np.array_equal(other[0], X) and np.array_equal(other[1], Y)


def test_off_axis_cos_keeps_its_own_norm(cfg):
    # z*z in the cosine's norm is correctly rounded; distance_grid's z**2 goes
    # through pow and is not for this z, so reusing r there moves the last bit
    rx = Point3(2.0, 0.072, 6.883345885040325)
    report = received_power(cfg.link.with_rx(rx), "none")
    assert report.received_power_dbm == -41.67761185345033
