import dataclasses
import math

import numpy as np
import pytest

from risim import (
    ArrayGeometry,
    CodingMask,
    Direction,
    DomainError,
    FeedSpec,
    PatternCut,
    PhaseMask,
    Point3,
    UnitCellReflection,
    array_factor_far,
    default_theta_grid,
    farfield_steering_mask,
    nearfield_steering_mask,
    pattern_metrics,
    pattern_nearfield,
    quantize_1bit,
    write_pattern_csv,
)

from risim.patterns import MAX_THETA_SAMPLES, _observation_table

import reference
from conftest import LAMBDA_BENCH

CELL = UnitCellReflection()
GRID = default_theta_grid()


def far_cut(board, mask, incidence=Direction(0.0), grid=GRID, lam=LAMBDA_BENCH):
    return array_factor_far(board, mask, CELL, incidence, 0.0, grid, lam)


def test_all_zero_mask_specular_peak(board):
    mask = CodingMask(board, np.zeros((16, 10), dtype=np.uint8))
    metrics = pattern_metrics(far_cut(board, mask))
    assert metrics.main_lobe_deg == pytest.approx(0.0, abs=0.25)


def test_quantized_30deg_steer_and_mirror(board):
    mask = farfield_steering_mask(board, Direction(30.0), LAMBDA_BENCH)
    metrics = pattern_metrics(far_cut(board, mask))
    assert abs(metrics.main_lobe_deg - 30.0) <= 2.0
    # the two-state mask throws a symmetric twin within 1 dB of the main lobe
    assert -1.0 <= metrics.mirror_lobe_db <= 0.0


@pytest.mark.parametrize("step", [0.0, 1e-9, math.nan, -1.0, 200.0, math.inf, 5e-324, 0.7, 150.0])
def test_theta_grid_step_is_checked_before_allocating(step):
    with pytest.raises(DomainError, match="theta step"):
        default_theta_grid(step)


def test_theta_grid_steps_in_use_keep_their_grids():
    assert np.array_equal(default_theta_grid(), np.linspace(-90.0, 90.0, 721))
    assert np.array_equal(default_theta_grid(0.1), np.linspace(-90.0, 90.0, 1801))
    assert default_theta_grid(180.0).tolist() == [-90.0, 90.0]
    assert len(default_theta_grid(180.0 / (MAX_THETA_SAMPLES - 1))) == MAX_THETA_SAMPLES


def test_nearfield_matched_45deg_peak(cfg, board):
    feed = FeedSpec(Point3(0.12, 0.072, 0.3))
    mask = nearfield_steering_mask(board, feed.position, Direction(45.0), LAMBDA_BENCH)
    cut = pattern_nearfield(board, mask, CELL, feed, cfg.cell.q_e, 0.0, GRID, LAMBDA_BENCH)
    assert abs(pattern_metrics(cut).main_lobe_deg - 45.0) <= 2.0


def test_nearfield_far_feed_converges_to_far_pattern(board):
    # flat tapers, feed receding on boresight: the fed pattern degenerates
    # to the plane-wave array factor at normal incidence
    mask = farfield_steering_mask(board, Direction(30.0), LAMBDA_BENCH)
    center = board.center()
    feed = FeedSpec(Point3(center.x, center.y, 1e4 * 0.24), q_f=0.0)
    near = pattern_nearfield(board, mask, CELL, feed, 0.0, 0.0, GRID, LAMBDA_BENCH)
    far = far_cut(board, mask)
    visible = far.gain_db > -20.0
    assert np.max(np.abs(near.gain_db[visible] - far.gain_db[visible])) < 0.5


def test_all_off_mask_boresight_feed_symmetric_cut(cfg, board):
    mask = CodingMask(board, np.zeros((16, 10), dtype=np.uint8))
    feed = FeedSpec(Point3(0.12, 0.072, 0.3))
    cut = pattern_nearfield(board, mask, CELL, feed, cfg.cell.q_e, 0.0, GRID, LAMBDA_BENCH)
    assert np.max(np.abs(cut.gain_db - cut.gain_db[::-1])) < 0.2


def test_mirror_symmetry_machine_tolerance(board, rng):
    mask = CodingMask(board, rng.integers(0, 2, (16, 10)))
    cut = far_cut(board, mask)
    mags = np.abs(cut.field)
    assert np.max(np.abs(mags - mags[::-1])) <= 1e-9 * mags.max()


def test_reciprocity_swapping_directions_preserves_magnitude(board):
    mask = farfield_steering_mask(board, Direction(20.0), LAMBDA_BENCH)
    grid = np.array([40.0])
    fwd = array_factor_far(board, mask, CELL, Direction(10.0), 0.0, grid, LAMBDA_BENCH)
    rev = array_factor_far(board, mask, CELL, Direction(40.0), 0.0, np.array([10.0]), LAMBDA_BENCH)
    assert abs(fwd.field[0]) == pytest.approx(abs(rev.field[0]), rel=1e-12)
    assert fwd.field[0] == pytest.approx(rev.field[0].conjugate(), rel=1e-12)


def test_normalization_peak_exactly_zero(board, rng):
    mask = CodingMask(board, rng.integers(0, 2, (16, 10)))
    assert far_cut(board, mask).gain_db.max() == 0.0
    feed = FeedSpec(Point3(0.12, 0.072, 0.3))
    cut = pattern_nearfield(board, mask, CELL, feed, 1.0, 0.0, GRID, LAMBDA_BENCH)
    assert cut.gain_db.max() == 0.0


def _oracle_far(board, mask, incidence, theta_deg, lam):
    """The reference's far cut at one theta, on the ideal cell: a scalar
    re-summation with cmath, independent of the vector engine."""
    return reference.far_cut(board, mask.bits, CELL, incidence, 0.0, [theta_deg], lam)[0][0]


def test_oracle_resummation_far(board, rng):
    mask = CodingMask(board, rng.integers(0, 2, (16, 10)))
    incidence = Direction(10.0, 0.0)
    angles = rng.uniform(-89.0, 89.0, 10)
    cut = array_factor_far(board, mask, CELL, incidence, 0.0, angles[np.argsort(angles)], LAMBDA_BENCH)
    for theta, field in zip(cut.theta_deg, cut.field):
        ref = _oracle_far(board, mask, incidence, theta, LAMBDA_BENCH)
        assert abs(field - ref) <= 1e-10 * abs(ref)


def test_oracle_resummation_nearfield(board, rng):
    mask = CodingMask(board, rng.integers(0, 2, (16, 10)))
    feed = FeedSpec(Point3(0.1, 0.05, 0.3), q_f=7.0)
    angles = np.sort(rng.uniform(-89.0, 89.0, 10))
    cut = pattern_nearfield(board, mask, CELL, feed, 0.5, 0.0, angles, LAMBDA_BENCH)
    ref = reference.near_cut(board, mask.bits, CELL, feed, 0.5, 0.0, angles.tolist(), LAMBDA_BENCH)
    for field, (total, _) in zip(cut.field.tolist(), ref):
        assert abs(field - total) <= 1e-10 * abs(total)


def test_partition_determinism(board, rng):
    mask = CodingMask(board, rng.integers(0, 2, (16, 10)))
    full = far_cut(board, mask)
    lo = far_cut(board, mask, grid=GRID[:300])
    hi = far_cut(board, mask, grid=GRID[300:])
    merged = np.concatenate([lo.field, hi.field])
    assert np.array_equal(full.field, merged)
    # arbitrary evaluation order, reassembled
    order = rng.permutation(len(GRID))
    shuffled = array_factor_far(
        board, mask, CELL, Direction(0.0), 0.0, GRID[np.sort(order[:200])], LAMBDA_BENCH
    )
    idx = np.searchsorted(GRID, shuffled.theta_deg)
    assert np.array_equal(full.field[idx], shuffled.field)


def test_metrics_delta_like_pattern():
    theta = np.linspace(-10.0, 10.0, 21)
    field = np.zeros(21, dtype=complex)
    field[13] = 1.0
    metrics = pattern_metrics(PatternCut(0.0, theta, field))
    assert metrics.main_lobe_deg == pytest.approx(3.0)
    assert metrics.sidelobe_level_db == -math.inf


def test_metrics_symmetric_two_peak_tie_breaks_positive():
    theta = np.linspace(-40.0, 40.0, 81)
    field = np.exp(-0.5 * ((np.abs(theta) - 20.0) / 2.0) ** 2).astype(complex)
    metrics = pattern_metrics(PatternCut(0.0, theta, field))
    assert metrics.main_lobe_deg == pytest.approx(20.0)


def test_metrics_flat_pattern_degenerate():
    theta = np.linspace(-5.0, 5.0, 11)
    field = np.full(11, 2.0, dtype=complex)
    metrics = pattern_metrics(PatternCut(0.0, theta, field))
    assert metrics.degenerate
    assert math.isnan(metrics.main_lobe_deg)


@pytest.mark.parametrize("level", [0.0, 1e-300, 1.0, 1e300])
def test_metrics_flatness_is_relative_to_the_cut_peak(level):
    theta = np.linspace(-5.0, 5.0, 11)
    flat = np.full(11, level, dtype=complex)
    assert pattern_metrics(PatternCut(0.0, theta, flat)).degenerate
    # a shaped cut keeps its metrics at any level, however weak
    shape = np.cos(np.radians(theta * 9.0))
    if level > 0:
        lobe = PatternCut(0.0, theta, level * shape.astype(complex))
        metrics = pattern_metrics(lobe)
        assert not metrics.degenerate and metrics.main_lobe_deg == 0.0


def test_metrics_mirror_lobe_band_for_30deg_steer(board):
    mask = farfield_steering_mask(board, Direction(30.0), LAMBDA_BENCH)
    metrics = pattern_metrics(far_cut(board, mask))
    assert -3.0 <= metrics.mirror_lobe_db <= 0.0


def test_cell_validation_and_measured_preset():
    with pytest.raises(DomainError):
        UnitCellReflection(magnitude_state0=0.0)
    with pytest.raises(DomainError):
        UnitCellReflection(magnitude_state1=1.5)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="phase must be finite"):
            UnitCellReflection(phase_state0_deg=bad)
        with pytest.raises(DomainError, match="phase must be finite"):
            UnitCellReflection(phase_state1_deg=bad)
    measured = UnitCellReflection.measured()
    assert 20 * math.log10(measured.magnitude_state0) == pytest.approx(-3.0)
    assert measured.phase_state1_deg != 180.0
    assert measured.q_e == 0.5


def test_cell_states_are_indexed_by_the_bit():
    mag, phase = UnitCellReflection(0.9, 0.7, 10.0, 200.0).states
    assert mag.tolist() == [0.9, 0.7]
    assert phase.tolist() == [math.radians(10.0), math.radians(200.0)]
    mag, phase = UnitCellReflection().states
    assert mag.tolist() == [1.0, 1.0] and phase.tolist() == [0.0, math.pi]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
def test_taper_exponents_rejected_unless_finite_nonnegative(board, bad):
    with pytest.raises(DomainError, match="q_f must be finite and >= 0"):
        FeedSpec(Point3(0.12, 0.072, 0.3), q_f=bad)
    with pytest.raises(DomainError, match="q_e must be finite and >= 0"):
        UnitCellReflection(q_e=bad)
    mask = CodingMask(board, np.zeros((16, 10), dtype=np.uint8))
    feed = FeedSpec(Point3(0.12, 0.072, 0.3))
    with pytest.raises(DomainError, match="q_e must be finite and >= 0"):
        pattern_nearfield(board, mask, CELL, feed, bad, 0.0, GRID, LAMBDA_BENCH)


def test_state_magnitudes_scale_pattern(board):
    mask = farfield_steering_mask(board, Direction(30.0), LAMBDA_BENCH)
    lossy = UnitCellReflection(0.5, 0.5, 0.0, 180.0)
    a = array_factor_far(board, mask, CELL, Direction(0.0), 0.0, GRID, LAMBDA_BENCH)
    b = array_factor_far(board, mask, lossy, Direction(0.0), 0.0, GRID, LAMBDA_BENCH)
    assert np.allclose(np.abs(b.field), 0.5 * np.abs(a.field), rtol=1e-12)
    assert np.allclose(a.gain_db, b.gain_db, atol=1e-9)


@pytest.mark.parametrize("kind", ["phase", "array"])
def test_masks_other_than_coding_masks_are_rejected_by_both_kernels(board, kind):
    phases = np.zeros((16, 10))
    mask = PhaseMask(board, phases) if kind == "phase" else phases
    name = type(mask).__name__
    feed = FeedSpec(Point3(0.12, 0.072, 0.3))
    with pytest.raises(DomainError, match=f"unsupported mask type {name}"):
        far_cut(board, mask)
    with pytest.raises(DomainError, match=f"unsupported mask type {name}"):
        pattern_nearfield(board, mask, CELL, feed, 0.5, 0.0, GRID, LAMBDA_BENCH)


def test_dimension_mismatch_rejected(board):
    other = ArrayGeometry(8, 8, 0.016)
    mask = CodingMask(other, np.zeros((8, 8), dtype=np.uint8))
    with pytest.raises(DomainError):
        far_cut(board, mask)
    feed = FeedSpec(Point3(0.12, 0.072, 0.3))
    with pytest.raises(DomainError):
        pattern_nearfield(board, mask, CELL, feed, 1.0, 0.0, GRID, LAMBDA_BENCH)


def test_pattern_cut_grid_validation(board):
    mask = CodingMask(board, np.zeros((16, 10), dtype=np.uint8))
    with pytest.raises(DomainError):
        far_cut(board, mask, grid=np.array([]))
    with pytest.raises(DomainError):
        PatternCut(0.0, np.array([0.0, 0.0]), np.zeros(2, complex))
    with pytest.raises(DomainError):
        PatternCut(0.0, np.array([-91.0, 0.0]), np.zeros(2, complex))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_cut_inputs_rejected(board, cfg, bad):
    mask = CodingMask(board, np.zeros((16, 10), dtype=np.uint8))
    feed = FeedSpec(Point3(0.12, 0.072, 0.3))
    grid = np.array([bad, 0.0])
    with pytest.raises(DomainError, match="theta grid must be finite"):
        far_cut(board, mask, grid=grid)
    with pytest.raises(DomainError, match="theta grid must be finite"):
        pattern_nearfield(board, mask, CELL, feed, 0.5, 0.0, grid, LAMBDA_BENCH)
    with pytest.raises(DomainError, match="phi_plane_deg must be finite"):
        array_factor_far(board, mask, CELL, Direction(0.0), bad, GRID, LAMBDA_BENCH)
    with pytest.raises(DomainError, match="phi_plane_deg must be finite"):
        pattern_nearfield(board, mask, CELL, feed, 0.5, bad, GRID, LAMBDA_BENCH)
    with pytest.raises(DomainError, match="theta grid must be finite"):
        PatternCut(0.0, np.array([bad]), np.zeros(1, complex))
    with pytest.raises(DomainError, match="phi_plane_deg must be finite"):
        PatternCut(bad, np.array([0.0]), np.zeros(1, complex))


@pytest.mark.parametrize(
    "grid, message",
    [
        (np.zeros((2, 3)), "nonempty 1-D"),
        (0.0, "nonempty 1-D"),
        ([1.0, 0.0], "strictly increasing"),
        ([-91.0, 0.0], r"within \[-90, 90\]"),
        ([0.0, math.nan], "must be finite"),
    ],
)
def test_invalid_cut_grid_rejected_before_any_table_is_built(board, grid, message):
    mask = CodingMask(board, np.zeros((16, 10), dtype=np.uint8))
    misses = _observation_table.cache_info().misses
    with pytest.raises(DomainError, match=message):
        far_cut(board, mask, grid=grid)
    assert _observation_table.cache_info().misses == misses


def test_cut_grid_past_max_theta_samples_rejected_before_any_table_is_built(board):
    # a grid passed straight to a kernel or to PatternCut is bounded as default_theta_grid's is
    mask = CodingMask(board, np.zeros((16, 10), dtype=np.uint8))
    feed = FeedSpec(Point3(0.12, 0.072, 0.3))
    grid = np.linspace(-90.0, 90.0, MAX_THETA_SAMPLES + 1)
    zeros = np.zeros(grid.size, complex)
    message = f"at most {MAX_THETA_SAMPLES} samples"
    misses = _observation_table.cache_info().misses
    with pytest.raises(DomainError, match=message):
        far_cut(board, mask, grid=grid)
    with pytest.raises(DomainError, match=message):
        pattern_nearfield(board, mask, CELL, feed, 0.5, 0.0, grid, LAMBDA_BENCH)
    with pytest.raises(DomainError, match=message):
        PatternCut(0.0, grid, zeros)
    assert _observation_table.cache_info().misses == misses
    # the bound itself is a valid grid
    cut = PatternCut(0.0, grid[:-1], zeros[:-1])
    assert cut.theta_deg.size == MAX_THETA_SAMPLES


def test_pattern_cut_lengths_must_match_theta():
    theta = np.array([0.0, 1.0])
    with pytest.raises(DomainError, match="field shape"):
        PatternCut(0.0, theta, np.array([], dtype=complex))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(1.0, -math.inf)])
def test_a_cut_whose_field_is_not_finite_fails(bad):
    # its gain and lobes would be NaN or -inf on every sample
    with pytest.raises(DomainError, match="cut field must be finite"):
        PatternCut(0.0, [-1.0, 0.0, 1.0], [1.0, bad, 2.0])


def test_a_cut_derives_its_gain_from_its_field(board):
    init = [f.name for f in dataclasses.fields(PatternCut) if f.init]
    assert init == ["phi_plane_deg", "theta_deg", "field"]
    cut10, cut30 = (
        far_cut(board, farfield_steering_mask(board, Direction(steer), LAMBDA_BENCH)) for steer in (10.0, 30.0)
    )
    # a gain that is not the field's cannot be passed
    with pytest.raises(TypeError):
        PatternCut(0.0, GRID, cut30.field, cut10.gain_db)
    rebuilt = PatternCut(0.0, GRID, cut30.field)
    assert np.array_equal(rebuilt.gain_db, cut30.gain_db)
    assert pattern_metrics(rebuilt) == pattern_metrics(cut30)


def test_pattern_csv_format(tmp_path, board):
    mask = farfield_steering_mask(board, Direction(15.0), LAMBDA_BENCH)
    cut = far_cut(board, mask)
    path = tmp_path / "cut.csv"
    write_pattern_csv(cut, path, {"mode": "far", "steer_deg": 15.0})
    lines = path.read_text().splitlines()
    assert lines[0] == "# mode = far"
    assert lines[2] == "theta_deg,gain_db,re,im"
    assert len(lines) == 3 + len(cut.theta_deg)
    theta0, gain0, re0, im0 = lines[3].split(",")
    assert float(theta0) == cut.theta_deg[0]
