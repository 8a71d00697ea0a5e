"""Bit-exact equivalence of the batched coherent-sum kernels.

The codebook is synthesized and swept as stacked (K, M, N) arrays. Every
entry must equal the one-mask computation exactly, and both must equal
test-local copies (oracles) of the per-entry formulas they replaced.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from risim import (
    ArrayGeometry,
    Codebook,
    CodingMask,
    Direction,
    DomainError,
    Point3,
    UnitCellReflection,
    build_codebook,
    distance_grid,
    nearfield_steering_mask,
    projection_grid,
    received_power,
    simulate_sweep,
    ue_point,
    unit_cell_gain,
)
from risim.linkbudget import (
    L_PE_1BIT_DB,
    _MW_FLOAT_RANGE_DBM,
    _ledger_totals,
    _single_pass_sums,
    f_combine_grid,
)

from conftest import LAMBDA_BENCH, left_to_right_sum


def rx_at(scenario, theta_deg, range_m):
    c = scenario.geom.center()
    th = math.radians(theta_deg)
    return Point3(c.x + range_m * math.sin(th), c.y, c.z + range_m * math.cos(th))


def oracle_single_pass(scenario):
    """Per-mask single-pass accumulation, as computed one scenario at a time
    before the batched kernel, and its dBm as the dB ledger terms added left
    to right in table order."""
    geom = scenario.geom
    k0 = 2 * np.pi / scenario.wavelength
    r_t = distance_grid(geom, scenario.feed.position)
    r_r = distance_grid(geom, scenario.rx)
    applied = np.radians(scenario.mask.bits.astype(float) * 180.0)
    psi = applied - k0 * (r_t + r_r)
    terms = np.sqrt(f_combine_grid(scenario)) / (r_t * r_r) * np.exp(1j * psi)
    acc = float(abs(terms.sum()))
    p = scenario.geom.periodicity_m
    hw_items = dict(scenario.hardware_loss_db) if scenario.include_hardware_loss else {}
    terms_db = [
        scenario.tx_power_dbm,
        scenario.gain_tx_dbi,
        scenario.gain_rx_dbi,
        2.0 * unit_cell_gain(p, p, scenario.wavelength),
        10.0 * math.log10(scenario.wavelength * scenario.wavelength * p * p / (64 * math.pi**3)),
        20.0 * math.log10(acc),
        0.0,
        -left_to_right_sum(hw_items.values()),
    ]
    return acc, left_to_right_sum(terms_db)


def oracle_stack_sums(amp, path, bits):
    """Single-pass accumulation of K stacked bit grids with one complex exp
    per (grid, element), as computed before the per-state phasor table."""
    applied = np.radians(bits.reshape(len(bits), -1) * 180.0)
    terms = amp.reshape(-1) * np.exp(1j * (applied - path.reshape(-1)))
    return [float(abs(s)) for s in terms.sum(axis=1)]


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


# a three-item hardware ledger, so the loss term is itself a sum
LEDGER_3 = {"dielectric_and_diode": 3.0, "cables": 6.87, "connectors": 0.35}


MAGNITUDES = st.floats(min_value=1e-3, max_value=1.0)
PHASES = st.floats(min_value=-720.0, max_value=720.0)
CELLS = st.builds(
    UnitCellReflection,
    MAGNITUDES,
    MAGNITUDES,
    PHASES,
    PHASES,
    st.floats(min_value=0.0, max_value=3.0),
)


@settings(max_examples=25, deadline=None)
@given(
    step=st.floats(min_value=0.5, max_value=3.0),
    truth=st.floats(min_value=0.0, max_value=60.0),
    range_m=st.floats(min_value=0.5, max_value=20.0),
    hardware=st.booleans(),
    cell=CELLS,
    span=st.just((0.0, 60.0)),
    q_r=st.floats(min_value=0.0, max_value=12.0),
)
@example(
    step=1.5, truth=30.0, range_m=5.0, hardware=True, cell=UnitCellReflection(),
    span=(0.0, 60.0), q_r=7.0,
)
@example(
    step=1.5, truth=30.0, range_m=5.0, hardware=False, cell=UnitCellReflection.measured(),
    span=(0.0, 60.0), q_r=7.0,
)
# one entry: start == stop
@example(
    step=1.5, truth=30.0, range_m=5.0, hardware=True, cell=UnitCellReflection(),
    span=(30.0, 30.0), q_r=7.0,
)
# receive-horn and element exponents off their defaults of 7 and 0.5
@example(
    step=1.5, truth=42.0, range_m=3.0, hardware=False, cell=UnitCellReflection(q_e=1.75),
    span=(0.0, 60.0), q_r=2.5,
)
def test_sweep_rssi_equals_direct_single_pass(cfg, step, truth, range_m, hardware, cell, span, q_r):
    codebook = build_codebook(cfg.geometry, cfg.feed.position, cfg.wavelength, *span, step)
    # the user sits toward truth at the scenario's rx range, here range_m
    scenario = replace(
        cfg.link, rx=rx_at(cfg.link, truth, range_m),
        include_hardware_loss=hardware, hardware_loss_db=LEDGER_3, cell=cell, q_r=q_r,
    )
    rx = ue_point(Direction(truth), scenario)
    trace = simulate_sweep(codebook, Direction(truth), scenario)
    direct = [
        received_power(scenario.with_rx(rx).with_mask(e.mask), "single_pass").received_power_dbm
        for e in codebook.entries
    ]
    assert trace.rssi_dbm.tolist() == direct


def test_sweep_rssi_takes_libm_abs_and_log10_per_entry(cfg):
    # numpy's array abs and log10 may take SIMD paths that differ from libm
    # in the last bit; the sweep must not, or its argmax RSSI would no longer
    # equal a one-mask recompute (criterion 08)
    codebook = cfg.steering_codebook()
    mag, phase = cfg.link.cell.states()
    values = list(received_power(cfg.link, "none").terms_db.values())
    head, hw_db = values[:5], values[-1]
    for truth in np.arange(0.0, 61.0, 2.5).tolist():
        rx = ue_point(Direction(truth), cfg.link)
        amp, path = cfg.link.with_rx(rx)._two_hop_terms
        table = (amp.reshape(-1) * mag[:, None]) * np.exp(1j * (phase[:, None] - path.reshape(-1)))
        sums = np.where(codebook.bits.reshape(len(codebook), -1), table[1], table[0]).sum(axis=1)
        expected = [
            left_to_right_sum((*head, 20.0 * math.log10(abs(s)), 0.0, hw_db)) for s in sums.tolist()
        ]
        trace = simulate_sweep(codebook, Direction(truth), cfg.link)
        assert trace.rssi_dbm.tolist() == expected


def oracle_ledger(head_db, hw_db, acc, lpe_db):
    """One ledger as computed per entry before the one-pass kernel: its
    values in table order added left to right, and a range check."""
    acc_db = 20.0 * math.log10(acc) if acc > 0 else -math.inf
    total = left_to_right_sum((*head_db, acc_db, lpe_db, hw_db))
    if not _MW_FLOAT_RANGE_DBM[0] <= total <= _MW_FLOAT_RANGE_DBM[1]:
        raise DomainError(f"received power leaves the float range ({total!r} dBm)")
    return acc_db, total


# mostly bench-sized terms, and some wide enough that head sums overflow and
# infinite terms meet, giving NaN totals
DB_VALUES = st.one_of(st.floats(min_value=-200.0, max_value=200.0), st.floats(allow_nan=False))
ACCUMULATIONS = st.one_of(
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=0.0, allow_nan=False),
    st.just(math.nan),
)


@settings(max_examples=400, deadline=None)
@given(
    head_db=st.tuples(*[DB_VALUES] * 5),
    hw_db=DB_VALUES,
    lpe_db=st.one_of(st.floats(max_value=0.0, allow_nan=False), st.just(-math.inf)),
    accs=st.lists(ACCUMULATIONS, min_size=1, max_size=8),
)
@example(head_db=(1e308, 1e308, 0.0, 0.0, 0.0), hw_db=-math.inf, lpe_db=0.0, accs=[1.0, 2.0])
@example(head_db=(0.0,) * 5, hw_db=-math.inf, lpe_db=0.0, accs=[1.0, math.inf])
@example(head_db=(0.0,) * 5, hw_db=0.0, lpe_db=0.0, accs=[1.0, 0.0, math.nan, 1e-300])
# only the middle total leaves the range
@example(head_db=(0.0,) * 5, hw_db=0.0, lpe_db=0.0, accs=[1.0, 1e-200, 1.0])
# bench-like terms whose totals depend on the order of the tail additions
@example(
    head_db=(-7.87, 12.0, 12.0, 0.6932, -77.0301), hw_db=-9.87, lpe_db=L_PE_1BIT_DB,
    accs=[74.19, 100.0],
)
def test_ledger_pass_equals_per_entry_ledgers(head_db, hw_db, lpe_db, accs):
    try:
        expected = [oracle_ledger(head_db, hw_db, acc, lpe_db) for acc in accs]
    except DomainError as exc:
        with pytest.raises(DomainError) as raised:
            _ledger_totals(head_db, hw_db, accs, lpe_db)
        assert str(raised.value) == str(exc)
        return
    acc_db, totals = _ledger_totals(head_db, hw_db, accs, lpe_db)
    assert [v.hex() for v in acc_db] == [a.hex() for a, _ in expected]
    assert [v.hex() for v in totals] == [t.hex() for _, t in expected]


def test_row_sum_modulus_past_the_float_range_reads_inf():
    # finite real and imaginary parts of 1.5e308 have a modulus past the
    # float range: Python's complex abs raises there, numpy's scalar abs and
    # the kernel read inf, and the ledger names it
    amp = np.zeros((1, 2))
    amp[0] = 1.5e308
    path = np.array([[0.0, -math.pi / 2]])
    (acc,) = _single_pass_sums(amp, path, np.zeros((1, 1, 2), dtype=bool), UnitCellReflection())
    assert acc == math.inf
    with pytest.raises(DomainError, match=r"received power leaves the float range \(inf dBm\)"):
        _ledger_totals((0.0,) * 5, 0, [acc], 0.0)


def test_sweep_and_direct_raise_the_same_domain_error(cfg):
    scenario = replace(cfg.link, tx_power_dbm=1e308)
    codebook = cfg.steering_codebook()
    with pytest.raises(DomainError) as swept:
        simulate_sweep(codebook, Direction(30.0), scenario)
    direct = scenario.with_rx(ue_point(Direction(30.0), scenario)).with_mask(codebook.entries[0].mask)
    with pytest.raises(DomainError) as single:
        received_power(direct, "single_pass")
    assert str(swept.value) == str(single.value)
    assert str(swept.value).startswith("received power leaves the float range")


def test_sweep_reads_bool_and_uint8_bits_alike(cfg):
    book = cfg.steering_codebook()
    as_uint8 = Codebook(book.geom, book.angles, book.bits.astype(np.uint8))
    for truth in (0.0, 30.0, 60.0):
        a = simulate_sweep(book, Direction(truth), cfg.link).rssi_dbm
        b = simulate_sweep(as_uint8, Direction(truth), cfg.link).rssi_dbm
        assert a.tolist() == b.tolist()


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
    base = replace(cfg.link, geom=geom, include_hardware_loss=hardware)
    scenario = base.with_rx(rx_at(base, theta, range_m)).with_mask(CodingMask(geom, bits))
    report = received_power(scenario, "single_pass")
    acc, dbm = oracle_single_pass(scenario)
    assert report.accumulation_linear == acc
    assert report.received_power_dbm == dbm
    assert report.received_power_dbm == left_to_right_sum(report.terms_db.values())


SHAPES = st.one_of(
    st.just((1, 1)),
    st.tuples(st.just(1), st.integers(1, 24)),
    st.tuples(st.integers(1, 24), st.just(1)),
    st.tuples(st.integers(1, 24), st.integers(1, 24)),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**30 - 1),
    k=st.integers(min_value=1, max_value=64),
    shape=SHAPES,
    pitch=st.floats(min_value=0.002, max_value=0.05),
    theta=st.floats(min_value=0.0, max_value=80.0),
    range_m=st.floats(min_value=0.5, max_value=20.0),
)
def test_stacked_sums_equal_per_exp_oracle(cfg, seed, k, shape, pitch, theta, range_m):
    from dataclasses import replace

    base = replace(cfg.link, geom=ArrayGeometry(*shape, pitch))
    amp, path = base.with_rx(rx_at(base, theta, range_m))._two_hop_terms
    bits = np.random.default_rng(seed).integers(0, 2, (k, *shape), dtype=np.uint8)
    bits[-1] = 1
    bits[0] = 0  # with k = 1 the one grid is all zeros
    assert _single_pass_sums(amp, path, bits, base.cell) == oracle_stack_sums(amp, path, bits)
