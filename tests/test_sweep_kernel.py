"""Bit-exact equivalence of the batched coherent-sum kernels.

The codebook is synthesized and swept as stacked (K, M, N) arrays. Every
entry must equal the one-mask computation exactly, and both must equal
test-local copies (oracles) of the per-entry formulas they replaced.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from risim import (
    ArrayGeometry,
    CodingMask,
    Direction,
    Point3,
    build_codebook,
    distance_grid,
    f_combine_grid,
    nearfield_steering_mask,
    projection_grid,
    received_power,
    simulate_sweep,
    unit_cell_gain,
)

from conftest import LAMBDA_BENCH


def rx_at(scenario, theta_deg, range_m):
    c = scenario.geom.center()
    th = math.radians(theta_deg)
    return Point3(c.x + range_m * math.sin(th), c.y, c.z + range_m * math.cos(th))


def oracle_single_pass(scenario):
    """Per-mask single-pass accumulation and dBm, as computed one scenario
    at a time before the batched kernel."""
    geom = scenario.geom
    k0 = 2 * np.pi / scenario.wavelength
    r_t = distance_grid(geom, scenario.feed)
    r_r = distance_grid(geom, scenario.rx)
    applied = np.radians(scenario.mask.bits.astype(float) * 180.0)
    psi = applied - k0 * (r_t + r_r)
    terms = np.sqrt(f_combine_grid(scenario)) / (r_t * r_r) * np.exp(1j * psi)
    acc = float(abs(terms.sum()))
    gu_db = unit_cell_gain(scenario.cell_dx, scenario.cell_dy, scenario.wavelength)
    hw_items = dict(scenario.hardware_loss_db) if scenario.include_hardware_loss else {}
    hw_db = -sum(hw_items.values())
    p_r_mw = (
        10.0 ** (scenario.tx_power_dbm / 10.0)
        * 10.0 ** (scenario.gain_tx_dbi / 10.0)
        * 10.0 ** (scenario.gain_rx_dbi / 10.0)
        * (10.0 ** (gu_db / 10.0)) ** 2
        * scenario.wavelength**2
        * scenario.cell_dx
        * scenario.cell_dy
        / (64 * math.pi**3)
        * 10.0 ** (0.0 / 10.0)
        * acc**2
        * 10.0 ** (hw_db / 10.0)
    )
    return acc, 10.0 * math.log10(p_r_mw)


def oracle_nearfield_bits(geom, feed, steer, wavelength):
    """Compensate, recenter and quantize one direction, as done per angle
    before the batched synthesis."""
    k0 = 2 * np.pi / wavelength
    raw = np.degrees(k0 * distance_grid(geom, feed) - k0 * projection_grid(geom, steer))
    ph = np.radians(np.mod(raw, 360.0))
    mean = np.angle(np.mean(np.exp(1j * ph)))
    centered = np.mod(np.degrees(ph - mean), 360.0)
    centered = np.where(centered >= 360.0, 0.0, centered)
    return ((centered >= 90.0) & (centered < 270.0)).astype(np.uint8)


@settings(max_examples=25, deadline=None)
@given(
    step=st.floats(min_value=0.5, max_value=3.0),
    truth=st.floats(min_value=0.0, max_value=60.0),
    range_m=st.floats(min_value=0.5, max_value=20.0),
)
def test_sweep_rssi_equals_direct_single_pass(cfg, step, truth, range_m):
    codebook = build_codebook(
        cfg.array_geometry(), cfg.feed_spec().position, cfg.wavelength, 0.0, 60.0, step
    )
    scenario = cfg.link_scenario()
    rx = rx_at(scenario, truth, range_m)
    trace = simulate_sweep(codebook, rx, scenario)
    direct = [
        received_power(scenario.with_rx(rx).with_mask(e.mask), "single_pass").received_power_dbm
        for e in codebook.entries
    ]
    assert trace.rssi_dbm.tolist() == direct


@settings(max_examples=25, deadline=None)
@given(
    step=st.floats(min_value=0.5, max_value=3.0),
    feed_z=st.floats(min_value=0.05, max_value=2.0),
)
def test_codebook_bits_equal_per_angle_masks(board, step, feed_z):
    feed = Point3(0.12, 0.072, feed_z)
    book = build_codebook(board, feed, LAMBDA_BENCH, 0.0, 60.0, step)
    for entry in book.entries:
        single = nearfield_steering_mask(board, feed, entry.steer_angle, LAMBDA_BENCH)
        assert np.array_equal(entry.mask.bits, single.bits)
        oracle = oracle_nearfield_bits(board, feed, entry.steer_angle, LAMBDA_BENCH)
        assert np.array_equal(entry.mask.bits, oracle)


@settings(max_examples=50, deadline=None)
@given(
    theta=st.floats(min_value=0.0, max_value=89.0),
    phi=st.floats(min_value=0.0, max_value=359.0),
    feed=st.tuples(
        st.floats(min_value=-0.2, max_value=0.4),
        st.floats(min_value=-0.2, max_value=0.4),
        st.floats(min_value=0.05, max_value=2.0),
    ),
)
def test_nearfield_mask_equals_oracle_off_plane(board, theta, phi, feed):
    steer = Direction(theta, phi)
    mask = nearfield_steering_mask(board, Point3(*feed), steer, LAMBDA_BENCH)
    oracle = oracle_nearfield_bits(board, Point3(*feed), steer, LAMBDA_BENCH)
    assert np.array_equal(mask.bits, oracle)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**30 - 1),
    theta=st.floats(min_value=0.0, max_value=80.0),
    range_m=st.floats(min_value=0.5, max_value=20.0),
    hardware=st.booleans(),
    shape=st.sampled_from([(16, 10), (1, 1), (7, 3), (24, 24)]),
)
def test_single_pass_equals_oracle(cfg, seed, theta, range_m, hardware, shape):
    from dataclasses import replace

    geom = ArrayGeometry(*shape, cfg.geometry.periodicity_m)
    bits = np.random.default_rng(seed).integers(0, 2, shape, dtype=np.uint8)
    base = replace(cfg.link_scenario(), geom=geom, include_hardware_loss=hardware)
    scenario = base.with_rx(rx_at(base, theta, range_m)).with_mask(CodingMask(geom, bits))
    report = received_power(scenario, "single_pass")
    acc, dbm = oracle_single_pass(scenario)
    assert report.accumulation_linear == acc
    assert report.received_power_dbm == dbm
