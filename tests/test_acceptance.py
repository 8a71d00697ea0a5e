"""End-to-end acceptance gates for the reference bench configuration.

Each test checks one headline number or behavior at its stated tolerance
and records a single PASS/FAIL line, echoed after the run summary.
"""

import math
import time

import numpy as np

from risim import (
    ArrayGeometry,
    CodingMask,
    Direction,
    FeedSpec,
    PhaseMask,
    Point3,
    array_factor_far,
    bias_resistor,
    default_theta_grid,
    deserialize_frame,
    estimate_angle,
    farfield_steering_mask,
    geometric_accumulation,
    integrate_psd,
    nearfield_steering_mask,
    pattern_metrics,
    pattern_nearfield,
    phase_error_loss,
    quantize_1bit,
    received_power,
    serialize_mask,
    simulate_sweep,
    snell_gradient,
    ue_point,
    unit_cell_gain,
)

from conftest import ACCEPTANCE_LINES, LAMBDA_BENCH
from test_patterns import _oracle_far


def check(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_01_geometric_accumulation(cfg):
    bench = cfg.link
    t0 = time.perf_counter()
    acc = geometric_accumulation(bench)
    elapsed = time.perf_counter() - t0
    ok = abs(acc - 74.19) / 74.19 <= 0.05 and elapsed < 1.0
    check(1, "geometric accumulation", ok, f"{acc:.4f} vs 74.19 +/-5%, {elapsed * 1e3:.1f} ms")


def test_criterion_02_received_power_and_snr(cfg):
    report = received_power(cfg.link)
    p, s = report.received_power_dbm, report.snr_db
    ok = abs(p - (-43.87)) <= 0.5 and abs(s - 50.1) <= 0.5
    check(2, "received power", ok, f"{p:.4f} dBm vs -43.87 +/-0.5, SNR {s:.4f} dB vs 50.1 +/-0.5")


def test_criterion_03_phase_error_loss():
    geom = ArrayGeometry(40, 25, 0.001)
    required = PhaseMask(geom, np.linspace(0.0, 360.0, 1000, endpoint=False).reshape(40, 25))
    loss = phase_error_loss(required, quantize_1bit(required))
    ok = abs(loss - (-3.92)) <= 0.1
    check(3, "1-bit phase error loss", ok, f"{loss:.4f} dB vs -3.92 +/-0.1 over 1000 elements")


def test_criterion_04_psd_integration():
    a = integrate_psd(-84.5, 1200)
    b = integrate_psd(-122.0, 1200)
    ok = abs(a - (-53.7)) <= 0.05 and abs(b - (-91.2)) <= 0.05
    check(4, "psd integration", ok, f"{a:.4f} dBm vs -53.7 +/-0.05, {b:.4f} dBm vs -91.2 +/-0.05")


def test_criterion_05_unit_cell_gain():
    g = unit_cell_gain(0.016, 0.016, 0.0545)
    ok = abs(g - 0.34) <= 0.02
    check(5, "unit cell gain", ok, f"{g:.4f} dBi vs 0.34 +/-0.02")


def test_criterion_06_steering_accuracy(cfg, board):
    grid = default_theta_grid(0.25)
    cell = cfg.cell
    feed = cfg.feed
    errors = []
    for target in (15.0, 30.0, 45.0):
        far = farfield_steering_mask(board, Direction(target), cfg.wavelength)
        cut = array_factor_far(board, far, cell, Direction(0.0), 0.0, grid, cfg.wavelength)
        errors.append(("far", target, pattern_metrics(cut).main_lobe_deg - target))
        near = nearfield_steering_mask(board, feed.position, Direction(target), cfg.wavelength)
        cut = pattern_nearfield(board, near, cell, feed, cfg.cell.q_e, 0.0, grid, cfg.wavelength)
        errors.append(("near", target, pattern_metrics(cut).main_lobe_deg - target))
    ok = all(abs(e) <= 2.0 for _, _, e in errors)
    detail = ", ".join(f"{kind} {t:g}: {e:+.2f}" for kind, t, e in errors)
    check(6, "1-bit steering accuracy", ok, f"{detail} (deg, all +/-2)")


def test_criterion_07_mirror_symmetry(cfg, board):
    cell = cfg.cell
    grid = default_theta_grid()
    rng = np.random.default_rng(7)
    masks = [CodingMask(board, rng.integers(0, 2, (16, 10))) for _ in range(5)]
    masks.append(farfield_steering_mask(board, Direction(30.0), cfg.wavelength))
    worst = 0.0
    for mask in masks:
        cut = array_factor_far(board, mask, cell, Direction(0.0), 0.0, grid, cfg.wavelength)
        mags = np.abs(cut.field)
        worst = max(worst, float(np.max(np.abs(mags - mags[::-1])) / mags.max()))
    ok = worst <= 1e-9
    check(7, "mirror-lobe symmetry", ok, f"max relative asymmetry {worst:.2e} vs 1e-9")


def test_criterion_08_localization(cfg):
    codebook = cfg.steering_codebook()
    bench = cfg.link
    results = []
    exact = True
    for truth in (30.0, 45.0):
        trace = simulate_sweep(codebook, Direction(truth), bench)
        est = estimate_angle(trace)
        idx = int(np.argmax(trace.rssi_dbm))
        redo = received_power(
            bench.with_rx(ue_point(Direction(truth), bench)).with_mask(codebook.entries[idx].mask),
            quantization="single_pass",
        ).received_power_dbm
        exact = exact and (trace.rssi_dbm[idx] == redo)
        results.append((truth, est - truth))
    ok = all(abs(e) <= 3.0 for _, e in results) and exact
    detail = ", ".join(f"truth {t:g}: {e:+.2f} deg" for t, e in results)
    check(8, "codebook localization", ok, f"{detail} (+/-3), argmax RSSI recompute exact: {exact}")


def test_criterion_09_bias_resistor():
    r = bias_resistor(3.15, 1.8, 0.9, 0.008)
    ok = abs(r - 56.25) < 1e-9 and round(r) == 56
    check(9, "bias resistor", ok, f"{r:.2f} ohm vs 56.25 (rounds to 56)")


def test_criterion_10_property_suites(cfg, board):
    rng = np.random.default_rng(10)
    t0 = time.perf_counter()

    idempotent = True
    for _ in range(100):
        pm = PhaseMask(board, rng.uniform(0.0, 360.0, (16, 10)))
        once = quantize_1bit(pm)
        twice = quantize_1bit(PhaseMask(board, once.phases_deg()))
        idempotent = idempotent and np.array_equal(once.bits, twice.bits)

    round_trip = True
    for _ in range(100):
        mask = CodingMask(board, rng.integers(0, 2, (16, 10)))
        back = deserialize_frame(serialize_mask(mask))
        round_trip = round_trip and np.array_equal(back.bits, mask.bits)

    antisymmetric = True
    for _ in range(25):
        a = Direction(rng.uniform(0.0, 80.0), rng.uniform(0.0, 360.0))
        b = Direction(rng.uniform(0.0, 80.0), rng.uniform(0.0, 360.0))
        fwd = snell_gradient(board, a, b, LAMBDA_BENCH).phases_deg
        rev = snell_gradient(board, b, a, LAMBDA_BENCH).phases_deg
        resid = np.abs((fwd + rev + 180.0) % 360.0 - 180.0)
        antisymmetric = antisymmetric and float(resid.max()) < 1e-6

    mask = farfield_steering_mask(board, Direction(30.0), LAMBDA_BENCH)
    cell = cfg.cell
    grid = default_theta_grid()
    center = board.center()
    feed = FeedSpec(Point3(center.x, center.y, 1e4 * 0.24), q_f=0.0)
    near = pattern_nearfield(board, mask, cell, feed, 0.0, 0.0, grid, LAMBDA_BENCH)
    far = array_factor_far(board, mask, cell, Direction(0.0), 0.0, grid, LAMBDA_BENCH)
    visible = far.gain_db > -20.0
    far_feed_limit = float(np.max(np.abs(near.gain_db[visible] - far.gain_db[visible]))) < 0.5

    oracle_ok = True
    sample = CodingMask(board, rng.integers(0, 2, (16, 10)))
    incidence = Direction(10.0, 0.0)
    angles = np.sort(rng.uniform(-89.0, 89.0, 10))
    cut = array_factor_far(board, sample, cell, incidence, 0.0, angles, LAMBDA_BENCH)
    for theta, field in zip(cut.theta_deg, cut.field):
        ref = _oracle_far(board, sample, incidence, theta, LAMBDA_BENCH)
        oracle_ok = oracle_ok and abs(field - ref) <= 1e-10 * abs(ref)

    elapsed = time.perf_counter() - t0
    ok = idempotent and round_trip and antisymmetric and far_feed_limit and oracle_ok and elapsed < 60.0
    check(
        10,
        "property suites",
        ok,
        f"idempotence {idempotent}, round-trip {round_trip}, antisymmetry {antisymmetric}, "
        f"far-feed limit {far_feed_limit}, oracle resummation {oracle_ok}, {elapsed:.2f} s",
    )
