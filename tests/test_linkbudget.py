import json
import math
from dataclasses import replace

import numpy as np
import pytest

from risim import (
    ArrayGeometry,
    Codebook,
    CodingMask,
    ConfigError,
    Direction,
    DomainError,
    FeedSpec,
    L_PE_1BIT_DB,
    LinkScenario,
    PhaseMask,
    Point3,
    UnitCellReflection,
    geometric_accumulation,
    integrate_psd,
    phase_error_loss,
    quantize_1bit,
    received_power,
    simulate_sweep,
    unit_cell_gain,
)
from risim.geometry import distance_grid
from risim.linkbudget import f_combine_grid, required_cascade_mask

from reference import left_to_right_sum


@pytest.fixture(scope="module")
def bench(cfg):
    return cfg.link


def test_rx_distance_examples():
    one = ArrayGeometry(1, 1, 0.016)  # a single element at the origin
    assert distance_grid(one, Point3(0.0, 0.0, 5.0))[0, 0] == 5.0
    assert distance_grid(one, Point3(3.0, 0.0, 4.0))[0, 0] == 5.0


def test_f_combine_range_and_center_dominance(bench):
    grid = f_combine_grid(bench)
    assert grid.shape == (16, 10)
    assert np.all(grid >= 0.0) and np.all(grid <= 1.0)
    # the taper peaks near the middle of the aperture, not at a corner
    assert grid[7:9, 4:6].max() > grid[0, 0]
    assert grid[7:9, 4:6].max() > grid[15, 9]


def test_f_combine_single_element_on_axis():
    # one element, both nodes on its normal: every cosine is exactly 1
    geom = ArrayGeometry(1, 1, 0.016)
    sc = LinkScenario(
        geom,
        feed=FeedSpec(Point3(0.0, 0.0, 0.3)),
        rx=Point3(0.0, 0.0, 5.0),
        wavelength=0.0545,
        tx_power_dbm=0.0,
        gain_tx_dbi=0.0,
        gain_rx_dbi=0.0,
    )
    assert f_combine_grid(sc)[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert geometric_accumulation(sc) == pytest.approx(1.0 / (0.3 * 5.0), rel=1e-12)


def test_geometric_accumulation_bench_value(bench):
    acc = geometric_accumulation(bench)
    assert acc == pytest.approx(74.19, rel=0.05)
    assert acc == pytest.approx(74.19051107862097, rel=1e-12)


def test_geometric_accumulation_grows_with_aperture(bench):
    small = LinkScenario(
        ArrayGeometry(8, 10, 0.016),
        feed=bench.feed,
        rx=bench.rx,
        wavelength=bench.wavelength,
        tx_power_dbm=bench.tx_power_dbm,
        gain_tx_dbi=12.0,
        gain_rx_dbi=12.0,
    )
    assert geometric_accumulation(small) < geometric_accumulation(bench)


def test_required_cascade_mask_cancels_path_phase(bench):
    req = required_cascade_mask(bench)
    k0 = 2 * math.pi / bench.wavelength
    p = bench.geom.periodicity_m
    pos = (2 * p, 6 * p, 0.0)  # element (3, 7)
    feed, rx = bench.feed.position, bench.rx
    total = math.dist((feed.x, feed.y, feed.z), pos) + math.dist((rx.x, rx.y, rx.z), pos)
    assert req.phases_deg[2, 6] == pytest.approx(math.degrees(k0 * total) % 360.0, abs=1e-9)


def test_phase_error_loss_zero_when_exact():
    geom = ArrayGeometry(4, 4, 0.016)
    bits = np.array([[0, 1, 0, 1]] * 4, dtype=np.uint8)
    applied = CodingMask(geom, bits)
    required = PhaseMask(geom, applied.phases_deg())
    assert phase_error_loss(required, applied) == 0.0


def test_phase_error_loss_uniform_gradient_hits_analytic_value():
    geom = ArrayGeometry(40, 25, 0.001)
    phases = np.linspace(0.0, 360.0, 1000, endpoint=False).reshape(40, 25)
    required = PhaseMask(geom, phases)
    loss = phase_error_loss(required, quantize_1bit(required))
    assert loss == pytest.approx(L_PE_1BIT_DB, abs=0.1)
    assert L_PE_1BIT_DB == pytest.approx(-3.9224, abs=5e-4)


def test_phase_error_loss_complement_invariance(rng):
    geom = ArrayGeometry(6, 5, 0.016)
    required = PhaseMask(geom, rng.uniform(0.0, 360.0, (6, 5)))
    applied = quantize_1bit(required)
    flipped = CodingMask(geom, 1 - applied.bits)
    assert phase_error_loss(required, applied) == pytest.approx(
        phase_error_loss(required, flipped), abs=1e-12
    )


def test_phase_error_loss_shape_mismatch():
    a = PhaseMask(ArrayGeometry(4, 4, 0.016), np.zeros((4, 4)))
    b = CodingMask(ArrayGeometry(4, 5, 0.016), np.zeros((4, 5), dtype=np.uint8))
    with pytest.raises(DomainError):
        phase_error_loss(a, b)


def test_unit_cell_gain_bench_value():
    g = unit_cell_gain(0.016, 0.016, 0.0545)
    assert g == pytest.approx(0.34, abs=0.02)
    assert g == pytest.approx(10 * math.log10(4 * math.pi * 0.016**2 / 0.0545**2), rel=1e-12)
    with pytest.raises(DomainError):
        unit_cell_gain(0.0, 0.016, 0.0545)


def test_integrate_psd_examples():
    assert integrate_psd(-84.5, 1200) == pytest.approx(-53.7, abs=0.05)
    assert integrate_psd(-122.0, 1200) == pytest.approx(-91.2, abs=0.05)
    assert integrate_psd(-50.0, 1) == -50.0
    with pytest.raises(DomainError):
        integrate_psd(-50.0, 0)


def test_received_power_bench_band(bench):
    report = received_power(bench)
    assert report.received_power_dbm == pytest.approx(-43.87, abs=0.5)
    assert report.snr_db == pytest.approx(50.1, abs=0.5)
    assert report.snr_db == report.received_power_dbm - bench.noise_floor_dbm
    assert report.phase_error_loss_db == pytest.approx(-3.92, abs=0.01)
    assert report.quantization == "analytic"


def test_received_power_no_quantization_exact_offset(bench):
    ideal = received_power(bench, "none")
    quantized = received_power(bench, "analytic")
    assert ideal.received_power_dbm - quantized.received_power_dbm == pytest.approx(
        -L_PE_1BIT_DB, abs=1e-12
    )
    assert ideal.phase_error_loss_db == 0.0


def test_received_power_terms_sum_to_total(bench):
    sc = bench.with_mask(quantize_1bit(required_cascade_mask(bench)))
    for mode in ("analytic", "mask", "single_pass", "none"):
        report = received_power(sc, mode)
        assert report.received_power_dbm == left_to_right_sum(report.terms_db.values())


def test_received_power_tx_power_linearity(bench):
    from dataclasses import replace

    louder = replace(bench, tx_power_dbm=bench.tx_power_dbm + 10.0)
    assert received_power(louder).received_power_dbm == pytest.approx(
        received_power(bench).received_power_dbm + 10.0, abs=1e-9
    )


def test_received_power_mask_modes_require_mask(bench):
    with pytest.raises(ConfigError):
        received_power(bench, "mask")
    with pytest.raises(ConfigError):
        received_power(bench, "single_pass")
    with pytest.raises(ConfigError):
        received_power(bench, "two_bit")


def test_single_pass_with_matched_mask_near_analytic(cfg, bench):
    mask = quantize_1bit(required_cascade_mask(bench))
    report = received_power(bench.with_mask(mask), "single_pass")
    assert report.phase_error_loss_db == 0.0
    assert report.received_power_dbm == pytest.approx(
        received_power(bench).received_power_dbm, abs=1.0
    )


def test_single_pass_never_beats_ideal(bench, rng):
    ideal = received_power(bench, "none").received_power_dbm
    for _ in range(25):
        mask = CodingMask(bench.geom, rng.integers(0, 2, (16, 10)))
        got = received_power(bench.with_mask(mask), "single_pass").received_power_dbm
        assert got <= ideal + 1e-9


def test_matched_mask_beats_random_masks(bench, rng):
    mask = quantize_1bit(required_cascade_mask(bench))
    matched = received_power(bench.with_mask(mask), "single_pass").received_power_dbm
    for _ in range(50):
        rand = CodingMask(bench.geom, rng.integers(0, 2, (16, 10)))
        got = received_power(bench.with_mask(rand), "single_pass").received_power_dbm
        assert got <= matched


def test_mask_mode_is_ideal_plus_phase_error_loss(bench, rng):
    ideal = received_power(bench, "none").received_power_dbm
    for _ in range(10):
        mask = CodingMask(bench.geom, rng.integers(0, 2, (16, 10)))
        sc = bench.with_mask(mask)
        report = received_power(sc, "mask")
        loss = phase_error_loss(required_cascade_mask(sc), mask)
        assert report.phase_error_loss_db == loss
        assert report.received_power_dbm == pytest.approx(ideal + loss, abs=1e-9)


def test_mask_mode_tracks_single_pass_when_matched(bench):
    # the factored-loss accounting ignores amplitude weighting inside the
    # sum; with small residuals it stays close to the exact accounting
    mask = quantize_1bit(required_cascade_mask(bench))
    sc = bench.with_mask(mask)
    a = received_power(sc, "mask").received_power_dbm
    b = received_power(sc, "single_pass").received_power_dbm
    assert a == pytest.approx(b, abs=0.5)


@pytest.mark.parametrize("m", [0.5, 10.0 ** (-3.0 / 20.0), 1e-3])
def test_equal_state_magnitudes_drop_mask_modes_by_their_level(bench, rng, m):
    mask = CodingMask(bench.geom, rng.integers(0, 2, (16, 10)))
    sc = bench.with_mask(mask)
    lossy = replace(sc, cell=UnitCellReflection(m, m, 0.0, 180.0))
    for mode in ("mask", "single_pass"):
        drop = received_power(lossy, mode).received_power_dbm
        drop -= received_power(sc, mode).received_power_dbm
        assert drop == pytest.approx(20.0 * math.log10(m), abs=1e-9)
    # the analytic and ideal accountings model no mask, so no cell state
    for mode in ("analytic", "none"):
        assert received_power(lossy, mode) == received_power(sc, mode)


def test_cell_phases_enter_both_mask_modes(bench):
    sc = bench.with_mask(quantize_1bit(required_cascade_mask(bench)))
    skewed = replace(sc, cell=UnitCellReflection(phase_state1_deg=130.0))
    for mode in ("mask", "single_pass"):
        skewed_dbm = received_power(skewed, mode).received_power_dbm
        assert skewed_dbm < received_power(sc, mode).received_power_dbm
    lpe = phase_error_loss(required_cascade_mask(sc), sc.mask, skewed.cell)
    assert received_power(skewed, "mask").phase_error_loss_db == lpe


def test_element_exponent_tapers_both_hops(bench):
    # f_combine carries cos(theta_in)**(2 q_e) * cos(theta_out)**(2 q_e)
    sharper = replace(bench, cell=UnitCellReflection(q_e=1.0))
    feed = bench.feed.position
    cos_in = feed.z / distance_grid(bench.geom, feed)
    cos_out = bench.rx.z / distance_grid(bench.geom, bench.rx)
    ratio = f_combine_grid(sharper) / f_combine_grid(bench)
    assert np.allclose(ratio, cos_in * cos_out, rtol=1e-12)
    flat = replace(bench, cell=UnitCellReflection(q_e=0.0))
    accs = [geometric_accumulation(s) for s in (flat, bench, sharper)]
    assert accs[0] > accs[1] > accs[2]


def test_accountings_coincide_for_single_element():
    geom = ArrayGeometry(1, 1, 0.016)
    sc = LinkScenario(
        geom,
        feed=FeedSpec(Point3(0.0, 0.0, 0.3)),
        rx=Point3(0.0, 0.0, 5.0),
        wavelength=0.0545,
        tx_power_dbm=0.0,
        gain_tx_dbi=0.0,
        gain_rx_dbi=0.0,
        mask=CodingMask(geom, np.array([[1]], dtype=np.uint8)),
    )
    a = received_power(sc, "mask").received_power_dbm
    b = received_power(sc, "single_pass").received_power_dbm
    assert a == pytest.approx(b, abs=1e-9)


def test_hardware_loss_ledger(bench):
    from dataclasses import replace

    lossy = replace(bench, include_hardware_loss=True)
    base = received_power(bench)
    report = received_power(lossy)
    assert report.hardware_loss_items_db == {"dielectric_and_diode": 3.0, "cables": 6.87}
    assert report.received_power_dbm == pytest.approx(
        base.received_power_dbm - 9.87, abs=1e-9
    )
    assert report.received_power_dbm == pytest.approx(-53.7, abs=3.1)


def test_hardware_ledger_is_read_only(bench):
    lossy = replace(bench, include_hardware_loss=True)
    before = received_power(lossy)
    with pytest.raises(TypeError):
        lossy.hardware_loss_db["cables"] = 1e9
    assert received_power(lossy) == before
    assert lossy.hardware_loss_db == {"dielectric_and_diode": 3.0, "cables": 6.87}
    assert type(before.hardware_loss_items_db) is dict


def test_report_json_and_table(bench):
    report = received_power(bench)
    doc = json.loads(report.to_json())
    assert doc["quantization"] == "analytic"
    assert doc["terms_db"]["gain_tx_db"] == 12.0
    table = report.table()
    assert "received_power_dbm" in table
    assert "accumulation_db" in table
    assert len({len(line.rsplit(None, 1)[0]) for line in table.splitlines()}) >= 1


def test_scenario_validation():
    geom = ArrayGeometry(2, 2, 0.016)
    with pytest.raises(DomainError):
        LinkScenario(geom, FeedSpec(Point3(0, 0, 0.3)), Point3(0, 0, 0.0), 0.0545, 0.016, 0.016, 0.0)
    with pytest.raises(DomainError):
        LinkScenario(geom, FeedSpec(Point3(0, 0, 0.3)), Point3(0, 0, 5.0), -1.0, 0.016, 0.016, 0.0)
    with pytest.raises(DomainError):
        LinkScenario(
            geom, FeedSpec(Point3(0, 0, 0.3)), Point3(0, 0, 5.0), 0.0545, 0.016, 0.016, math.nan
        )


@pytest.mark.parametrize("feed", [Point3(0.12, 0.072, 0.3), (0.12, 0.072, 0.3), None])
def test_scenario_rejects_a_feed_that_is_not_a_feed_spec(bench, feed):
    # a bare node would otherwise fail only at the first received_power
    with pytest.raises(DomainError, match="feed must be a FeedSpec"):
        replace(bench, feed=feed)


@pytest.mark.parametrize("field", ["q_f", "q_r"])
@pytest.mark.parametrize("value", [-5.0, math.nan, math.inf])
def test_scenario_rejects_bad_horn_exponents(bench, field, value):
    # the feed horn's exponent is its FeedSpec's, the receive horn's the scenario's
    with pytest.raises(DomainError, match=f"{field} must be finite and >= 0"):
        if field == "q_f":
            replace(bench, feed=replace(bench.feed, q_f=value))
        else:
            replace(bench, q_r=value)


def test_with_rx_and_with_mask_builders(bench, board):
    moved = bench.with_rx(Point3(1.0, 0.072, 1.0))
    assert moved.rx.x == 1.0 and moved.feed == bench.feed
    mask = CodingMask(board, np.zeros((16, 10), dtype=np.uint8))
    assert bench.with_mask(mask).mask is mask
    assert bench.mask is None


@pytest.mark.parametrize("geom", [ArrayGeometry(8, 10, 0.016), ArrayGeometry(16, 10, 0.02)])
@pytest.mark.parametrize("quantization", ["mask", "single_pass"])
def test_mask_on_another_geometry_is_a_domain_error(bench, geom, quantization):
    bits = np.zeros((geom.m_count, geom.n_count), dtype=np.uint8)
    with pytest.raises(DomainError, match="mask geometry does not match the array geometry"):
        received_power(bench.with_mask(CodingMask(geom, bits)), quantization)


@pytest.mark.parametrize("value", [2, -0.5, math.nan])
def test_single_pass_power_rejects_a_bit_stack_that_is_not_0_or_1(bench, value):
    with pytest.raises(DomainError, match="bit grid entries must be 0 or 1"):
        codebook = Codebook(bench.geom, [0.0], np.full((1, 16, 10), value))
        simulate_sweep(codebook, Direction(30.0), bench)


def test_single_pass_power_reads_0_1_numbers_like_bools(bench, rng):
    bits = rng.integers(0, 2, (3, 16, 10))

    def sweep(stack):
        codebook = Codebook(bench.geom, [0.0, 1.5, 3.0], stack)
        return simulate_sweep(codebook, Direction(30.0), bench).rssi_dbm.tolist()

    expected = sweep(bits.astype(bool))
    assert sweep(bits) == expected
    assert sweep(bits.astype(float)) == expected
