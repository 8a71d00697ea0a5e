"""Values computed once: the element lattice of a geometry value, the
states of a UnitCellReflection, the two-hop terms of a LinkScenario, the
feed hop that synthesis, the near-field cut and every scenario on one feed
share, and the feed taper that the cut and those scenarios share.

A cached value must equal a fresh computation bit for bit, whatever the
order of the calls that read it, and must equal a test-local copy of the
uncached formula it replaced.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import risim.geometry as geometry
from risim import (
    ArrayGeometry,
    CodingMask,
    Direction,
    FeedSpec,
    LinkScenario,
    Point3,
    UnitCellReflection,
    build_codebook,
    default_theta_grid,
    distance_grid,
    element_grid,
    geometric_accumulation,
    nearfield_steering_mask,
    pattern_nearfield,
    received_power,
)
from risim.geometry import feed_hop, node_hop
from risim.linkbudget import f_combine_grid, required_cascade_mask
from risim.masks import feed_taper

MODES = ("analytic", "mask", "single_pass", "none")


def oracle_two_hop(sc):
    """Per-element amplitude and path phase, rebuilding every grid per call
    as done before the terms were cached."""
    geom = sc.geom
    p = geom.periodicity_m
    X, Y = np.meshgrid(np.arange(geom.m_count) * p, np.arange(geom.n_count) * p, indexing="ij")
    c = geom.center()

    def dist(pt):
        return np.sqrt((pt.x - X) ** 2 + (pt.y - Y) ** 2 + pt.z * pt.z)

    def off_axis_cos(node):
        bx, by, bz = c.x - node.x, c.y - node.y, c.z - node.z
        bn = math.sqrt(bx * bx + by * by + bz * bz)
        vx, vy, vz = X - node.x, Y - node.y, -node.z
        vn = np.sqrt(vx * vx + vy * vy + vz * vz)
        return np.clip((vx * bx + vy * by + vz * bz) / (vn * bn), 0.0, 1.0)

    feed = sc.feed.position
    r_t, r_r = dist(feed), dist(sc.rx)
    q = 2 * sc.cell.q_e
    taper = (off_axis_cos(feed) ** sc.feed.q_f) * (feed.z / r_t) ** q * (sc.rx.z / r_r) ** q * (
        off_axis_cos(sc.rx) ** sc.q_r
    )
    return np.sqrt(taper) / (r_t * r_r), 2 * np.pi / sc.wavelength * (r_t + r_r)


def copy_of(sc):
    """An equal scenario built from scratch, with nothing cached."""
    return LinkScenario(
        sc.geom, sc.feed, sc.rx, sc.wavelength, sc.tx_power_dbm, sc.gain_tx_dbi,
        sc.gain_rx_dbi, sc.q_r, sc.noise_floor_dbm, sc.mask,
        sc.include_hardware_loss, sc.hardware_loss_db, cell=sc.cell,
    )


def reports(sc, order):
    return {q: received_power(sc, q) for q in order}


exponents = st.floats(min_value=0.0, max_value=10.0)
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
    q_f=exponents,
    q_r=exponents,
    q_e=st.floats(min_value=0.0, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**30 - 1),
    hardware=st.booleans(),
    first=st.permutations(MODES),
    second=st.permutations(MODES),
)
def test_every_mode_equals_a_fresh_scenario_and_the_uncached_formula(
    cfg, shape, pitch, feed, rx, q_f, q_r, q_e, seed, hardware, first, second
):
    geom = ArrayGeometry(*shape, pitch)
    mask = CodingMask(geom, np.random.default_rng(seed).integers(0, 2, shape, dtype=np.uint8))
    base = cfg.link
    sc = replace(
        base, geom=geom, feed=FeedSpec(feed, q_f), rx=rx, q_r=q_r, mask=mask,
        include_hardware_loss=hardware, cell=replace(base.cell, q_e=q_e),
    )
    once, twice = reports(sc, first), reports(sc, second)
    fresh = {q: received_power(copy_of(sc), q) for q in MODES}
    assert once == twice == fresh
    amp, path = oracle_two_hop(sc)
    assert np.array_equal(sc._two_hop_terms[0], amp)
    assert np.array_equal(sc._two_hop_terms[1], path)
    assert fresh["none"].accumulation_linear == float(amp.sum())
    assert geometric_accumulation(sc) == float(amp.sum())
    assert received_power(sc, "single_pass") == fresh["single_pass"]
    r_t, r_r = distance_grid(geom, feed), distance_grid(geom, rx)
    assert np.array_equal(np.sqrt(f_combine_grid(sc)) / (r_t * r_r), sc._two_hop_terms[0])


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
    # the cache is keyed by value: an equal geometry reads the same arrays
    equal = element_grid(ArrayGeometry(board.m_count, board.n_count, board.periodicity_m))
    assert equal[0] is X and equal[1] is Y
    # one entry: another geometry replaces it, and the board's lattice is built again
    assert element_grid(ArrayGeometry(8, 10, board.periodicity_m))[0].shape == (8, 10)
    rebuilt = element_grid(board)
    assert rebuilt[0] is not X
    assert np.array_equal(rebuilt[0], X) and np.array_equal(rebuilt[1], Y)


def test_hop_distance_is_the_correctly_rounded_norm(cfg):
    # at this height pow(z, 2) is not correctly rounded, so a z**2 moves the
    # last bit of 102 of the 160 distances; the hop squares z as a product
    rx = Point3(2.0, 0.072, 6.883345885040325)
    report = received_power(cfg.link.with_rx(rx), "none")
    assert report.received_power_dbm == -41.67761185345033
    geom = cfg.link.geom
    r, _, off = node_hop(geom, rx)
    X, Y = element_grid(geom)
    c = geom.center()
    bx, by, bz = c.x - rx.x, c.y - rx.y, c.z - rx.z
    bn = math.sqrt(bx * bx + by * by + bz * bz)
    # products only: a float's ** also goes through pow
    norms, cosines = np.empty(r.shape), np.empty(r.shape)
    for i, j in np.ndindex(r.shape):
        dx, dy, dz = float(X[i, j]) - rx.x, float(Y[i, j]) - rx.y, -rx.z
        norms[i, j] = math.sqrt(dx * dx + dy * dy + dz * dz)
        cosines[i, j] = (dx * bx + dy * by + dz * bz) / (norms[i, j] * bn)
    assert np.array_equal(r, norms)
    assert np.array_equal(off, np.clip(cosines, 0.0, 1.0))


def test_scenarios_differing_in_one_feed_hop_input_read_in_alternation(cfg):
    base = cfg.link
    variants = [
        base,
        replace(base, feed=replace(base.feed, position=Point3(0.05, 0.03, 0.25))),
        replace(base, geom=ArrayGeometry(16, 10, 0.02)),
        replace(base, feed=replace(base.feed, q_f=5.0)),
        replace(base, cell=replace(base.cell, q_e=0.65)),
    ]
    expected = [oracle_two_hop(sc) for sc in variants]
    for i, (amp, _) in enumerate(expected[1:], 1):
        assert not np.array_equal(amp, expected[0][0]), f"variant {i} changes nothing"
    for _ in range(2):
        for sc, (amp, path) in zip(variants, expected):
            fresh = copy_of(sc)
            assert np.array_equal(fresh._two_hop_terms[0], amp)
            assert np.array_equal(fresh._two_hop_terms[1], path)
            assert received_power(fresh, "none") == received_power(sc, "none")


def test_feed_hop_arrays_are_read_only(cfg):
    sc = cfg.link
    taper = feed_taper(sc.geom, sc.feed, sc.cell.q_e)
    for grid in (*feed_hop(sc.geom, sc.feed.position), *node_hop(sc.geom, sc.rx), taper):
        with pytest.raises(ValueError):
            grid[0, 0] = 0.0


def test_scenarios_on_one_feed_compute_its_hop_once(cfg, monkeypatch):
    calls = []
    uncounted = geometry.distance_grid

    def counting(geom, node):
        calls.append(node)
        return uncounted(geom, node)

    monkeypatch.setattr(geometry, "distance_grid", counting)
    feed_hop.cache_clear()
    feed_taper.cache_clear()
    base, n = cfg.link, 6
    assert base.feed is cfg.feed
    feed = base.feed.position
    build_codebook(base.geom, feed, base.wavelength, 0.0, 60.0, 1.5)
    mask = nearfield_steering_mask(base.geom, feed, Direction(30.0), base.wavelength)
    pattern_nearfield(
        base.geom, mask, base.cell, cfg.feed, base.cell.q_e, 0.0, default_theta_grid(), base.wavelength
    )
    for i in range(n):
        sc = base.with_rx(Point3(0.4 * i, 0.072, 2.0)).with_mask(mask)
        for q in MODES:
            received_power(sc, q)
    assert len(calls) == n + 1 and calls.count(feed) == 1
    # the near cut builds the feed's taper; the scenarios read it
    info = feed_taper.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, n, 1)


def test_cell_states_are_built_once_and_read_only():
    cell = UnitCellReflection(0.9, 0.7, 10.0, 200.0)
    mag, phase = cell.states()
    again = cell.states()
    assert again[0] is mag and again[1] is phase
    assert np.array_equal(mag, np.array([cell.magnitude_state0, cell.magnitude_state1]))
    assert np.array_equal(phase, np.radians([cell.phase_state0_deg, cell.phase_state1_deg]))
    for state in (mag, phase):
        with pytest.raises(ValueError):
            state[0] = 0.5
    # an equal cell builds its own, equal states
    other = UnitCellReflection(0.9, 0.7, 10.0, 200.0).states()
    assert other[0] is not mag and np.array_equal(other[0], mag)
