import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from risim import (
    ArrayGeometry,
    Codebook,
    CodingMask,
    Direction,
    DomainError,
    PhaseMask,
    Point3,
    build_codebook,
    nearfield_steering_mask,
    quantize_1bit,
    snell_gradient,
)

from risim import masks
from risim.geometry import distance_grid, feed_hop, projection_grid
from risim.masks import MAX_CODEBOOK_ENTRIES, _compensation_deg, _wrap_deg_inplace, codebook_angles

from conftest import LAMBDA_BENCH


def circular_diff_deg(a, b):
    """Signed smallest difference between wrapped angle grids, degrees."""
    d = np.mod(np.asarray(a) - np.asarray(b) + 180.0, 360.0) - 180.0
    return d


def wrap_copy(phases_deg):
    """The synthesis wrap over a float copy; the argument is left as it is."""
    return _wrap_deg_inplace(np.array(phases_deg, dtype=float))


def test_wrap_deg_range():
    vals = wrap_copy([-720.0, -1e-14, 0.0, 359.999, 360.0, 1234.5])
    assert np.all((vals >= 0.0) & (vals < 360.0))
    assert wrap_copy(360.0) == 0.0


def test_snell_identity_directions_all_zero(board):
    mask = snell_gradient(board, Direction(0.0), Direction(0.0), LAMBDA_BENCH)
    assert np.all(mask.phases_deg == 0.0)


def test_snell_30deg_per_step_increment(board):
    # k0 * p * sin(30) = 0.92224 rad = 52.84 deg; the stored gradient runs
    # opposite the steering direction, 360 - 52.84 = 307.16 per step along m
    mask = snell_gradient(board, Direction(0.0), Direction(30.0, 0.0), LAMBDA_BENCH)
    step = circular_diff_deg(mask.phases_deg[1:, :], mask.phases_deg[:-1, :])
    assert np.allclose(step, -52.8396, atol=0.01)
    assert wrap_copy(step[0, 0]) == pytest.approx(307.16, abs=0.01)
    # constant along n
    assert np.allclose(np.diff(mask.phases_deg, axis=1), 0.0, atol=1e-9)


def test_snell_linear_along_m(board):
    mask = snell_gradient(board, Direction(0.0), Direction(30.0, 0.0), LAMBDA_BENCH)
    m_idx = np.arange(board.m_count)
    step = -math.degrees(2 * math.pi / LAMBDA_BENCH * 0.016 * 0.5)
    expected = wrap_copy(step * m_idx)
    assert np.allclose(circular_diff_deg(mask.phases_deg[:, 0], expected), 0.0, atol=1e-9)


def test_snell_rejects_bad_wavelength(board):
    with pytest.raises(DomainError):
        snell_gradient(board, Direction(0.0), Direction(30.0), 0.0)


directions = st.tuples(
    st.floats(min_value=0.0, max_value=89.0),
    st.floats(min_value=0.0, max_value=359.0),
)


@settings(max_examples=40, deadline=None)
@given(d_in=directions, d_out=directions)
def test_snell_antisymmetry(d_in, d_out):
    geom = ArrayGeometry(6, 4, 0.016)
    fwd = snell_gradient(geom, Direction(*d_in), Direction(*d_out), LAMBDA_BENCH)
    rev = snell_gradient(geom, Direction(*d_out), Direction(*d_in), LAMBDA_BENCH)
    assert np.allclose(circular_diff_deg(fwd.phases_deg, -rev.phases_deg), 0.0, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(phi_in=st.floats(min_value=0.0, max_value=359.0), d_out=directions)
def test_snell_normal_incidence_skips_zero_projection_bitwise(phi_in, d_out):
    # the skipped incidence grid is all zeros: same bits as subtracting it
    geom = ArrayGeometry(6, 4, 0.016)
    inc, out = Direction(0.0, phi_in), Direction(*d_out)
    k0 = 2 * np.pi / LAMBDA_BENCH
    two_grids = wrap_copy(np.degrees(k0 * (projection_grid(geom, inc) - projection_grid(geom, out))))
    got = snell_gradient(geom, inc, out, LAMBDA_BENCH).phases_deg
    assert np.array_equal(got.view(np.int64), two_grids.view(np.int64))


def test_nearfield_radially_symmetric_under_boresight_feed():
    geom = ArrayGeometry(5, 5, 0.016)
    feed = Point3(0.032, 0.032, 0.3)  # directly above element (3, 3)
    ph = _compensation_deg(geom, feed, [0.0], 0.0, LAMBDA_BENCH)[0]
    center = 2
    for di, dj in ((1, 0), (2, 1), (2, 2)):
        assert ph[center + di, center + dj] == pytest.approx(ph[center - di, center - dj], abs=1e-9)
        assert ph[center + di, center + dj] == pytest.approx(ph[center + di, center - dj], abs=1e-9)


def test_nearfield_pinned_corner_phase(board):
    # wrap(k0 * sqrt(0.24^2 + 0.144^2 + 0.3^2) - mean) at the bench wavelength,
    # the mean being the circular mean of k0 * r over the board, both
    # recomputed from the closed form element by element
    ph = _compensation_deg(board, Point3(0.0, 0.0, 0.3), [0.0], 0.0, LAMBDA_BENCH)[0]
    k0 = 2 * math.pi / LAMBDA_BENCH
    dist = math.sqrt(0.24**2 + 0.144**2 + 0.3**2)
    raw = math.degrees(k0 * dist) % 360.0
    assert raw == pytest.approx(190.16, abs=0.05)
    mean = cmath.phase(sum(
        cmath.exp(1j * k0 * math.hypot(m * 0.016, n * 0.016, 0.3)) for m in range(16) for n in range(10)
    ))
    assert ph[15, 9] == pytest.approx((raw - math.degrees(mean)) % 360.0, abs=1e-6)


def test_nearfield_rejects_in_plane_feed(board):
    with pytest.raises(DomainError):
        nearfield_steering_mask(board, Point3(0.1, 0.1, 0.0), Direction(0.0), LAMBDA_BENCH)


@pytest.mark.parametrize("feed", [Point3(0.0, 0.0, 1e200), Point3(1e101, 0.0, 1.0)])
def test_synthesis_rejects_a_feed_past_the_node_distance_bound(board, feed):
    # z*z on the first feed overflows to inf unless the bound is checked first
    with pytest.raises(DomainError, match=r"feed must lie within 1e\+100 m of the origin"):
        nearfield_steering_mask(board, feed, Direction(30.0), LAMBDA_BENCH)
    with pytest.raises(DomainError, match=r"feed must lie within 1e\+100 m of the origin"):
        build_codebook(board, feed, LAMBDA_BENCH, 0.0, 60.0, 1.0)


@pytest.mark.parametrize("z", [5e-324, 1e-162])
def test_feed_whose_height_squares_to_zero_is_rejected(board, z):
    # the distance to the element under such a feed is 0, and the hop's
    # cosine z / r divides by it
    feed = Point3(0.0, 0.0, z)
    with pytest.raises(DomainError, match="feed must sit off the surface"):
        nearfield_steering_mask(board, feed, Direction(30.0), LAMBDA_BENCH)
    with pytest.raises(DomainError, match="feed must sit off the surface"):
        build_codebook(board, feed, LAMBDA_BENCH, 30.0, 30.0, 1.0)


def test_feed_whose_height_squares_to_a_subnormal_synthesizes_without_a_warning(board):
    # 1e-161 squared is 1e-322, the lowest decade of heights kept: a
    # RuntimeWarning from the feed hop fails here
    feed_hop.cache_clear()
    feed = Point3(0.0, 0.0, 1e-161)
    mask = nearfield_steering_mask(board, feed, Direction(30.0), LAMBDA_BENCH)
    codebook = build_codebook(board, feed, LAMBDA_BENCH, 30.0, 30.0, 1.0)
    assert np.array_equal(codebook.bits[0], mask.bits)


def test_nearfield_far_feed_limit_matches_snell(board):
    # feed receding on boresight: after removing each mask's own constant,
    # the compensation converges to the plane-wave gradient
    aperture = 0.24
    center = board.center()
    feed = Point3(center.x, center.y, 1e4 * aperture)
    near = _compensation_deg(board, feed, [30.0], 0.0, LAMBDA_BENCH)[0]
    far = snell_gradient(board, Direction(0.0), Direction(30.0, 0.0), LAMBDA_BENCH)
    near_rel = circular_diff_deg(near, near[0, 0])
    far_rel = circular_diff_deg(far.phases_deg, far.phases_deg[0, 0])
    assert np.max(np.abs(circular_diff_deg(near_rel, far_rel))) < 1.0


def test_quantize_boundaries(board):
    ph = np.zeros((board.m_count, board.n_count))
    ph[0, 0], ph[1, 0], ph[2, 0] = 89.999, 90.0, 270.0
    ph[3, 0] = 269.999
    bits = quantize_1bit(PhaseMask(board, ph)).bits
    assert bits[0, 0] == 0
    assert bits[1, 0] == 1
    assert bits[2, 0] == 0
    assert bits[3, 0] == 1


def test_quantize_all_zero(board):
    bits = quantize_1bit(PhaseMask(board, np.zeros((16, 10)))).bits
    assert not bits.any()


def test_quantize_30deg_steering_sequence(board):
    # wrapped 307.16-per-step sequence 0, 307.2, 254.3, 201.5, 148.6, 95.8,
    # 43.0, 350.1 maps through the [90, 270) rule to these bits
    mask = snell_gradient(board, Direction(0.0), Direction(30.0, 0.0), LAMBDA_BENCH)
    expected = [0, 0, 1, 1, 1, 1, 0, 0]
    assert quantize_1bit(mask).bits[:8, 0].tolist() == expected


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**30 - 1))
def test_quantize_idempotent(seed):
    geom = ArrayGeometry(6, 5, 0.016)
    rng = np.random.default_rng(seed)
    mask = PhaseMask(geom, rng.uniform(0.0, 360.0, (6, 5)))
    once = quantize_1bit(mask)
    twice = quantize_1bit(PhaseMask(geom, once.phases_deg()))
    assert np.array_equal(once.bits, twice.bits)


def test_half_turn_offset_flips_every_bit(board, rng):
    mask = PhaseMask(board, rng.uniform(0.0, 360.0, (16, 10)))
    shifted = PhaseMask(board, wrap_copy(mask.phases_deg + 180.0))
    assert np.array_equal(quantize_1bit(shifted).bits, 1 - quantize_1bit(mask).bits)


def test_recentering_zeroes_circular_mean(board):
    feed = Point3(0.12, 0.072, 0.3)
    thetas = (0.0, 20.0, 45.0, 70.0)
    k0 = 2 * np.pi / LAMBDA_BENCH
    for ph in (0.0, 37.0, 180.0):
        centered = _compensation_deg(board, feed, thetas, ph, LAMBDA_BENCH)
        for th, row in zip(thetas, centered):
            mean = np.angle(np.mean(np.exp(1j * np.radians(row))))
            assert abs(mean) < 1e-9
            # relative phase structure is preserved
            raw = np.degrees(k0 * (distance_grid(board, feed) - projection_grid(board, Direction(th, ph))))
            d0 = circular_diff_deg(raw, raw[0, 0])
            d1 = circular_diff_deg(row, row[0, 0])
            assert np.allclose(circular_diff_deg(d0, d1), 0.0, atol=1e-9)


def test_codebook_reference_parameters(board):
    feed = Point3(0.12, 0.072, 0.3)
    book = build_codebook(board, feed, LAMBDA_BENCH, 0.0, 60.0, 1.5)
    assert len(book) == 41
    angles = book.angles_deg()
    assert angles[0] == 0.0 and angles[-1] == 60.0
    assert np.all(np.diff(angles) > 0)
    assert all(e.mask.geom == board for e in book.entries)


def test_codebook_arrays_are_read_only_and_back_the_entries(board):
    angles, bits = np.array([10.0, 20.0]), np.zeros((2, 16, 10), dtype=bool)
    bits[1, ::2] = True
    book = Codebook(board, angles, bits)
    assert not book.angles.flags.writeable and not book.bits.flags.writeable
    with pytest.raises(ValueError):
        book.bits[0, 0, 0] = True
    assert angles.flags.writeable and bits.flags.writeable  # the caller's arrays stay writable
    assert len(book) == 2 and book.angles_deg().tolist() == [10.0, 20.0]
    for k, entry in enumerate(book.entries):
        assert np.array_equal(entry.mask.bits, book.bits[k])
        assert entry.steer_angle.theta_deg == book.angles[k]


@pytest.mark.parametrize(
    "angles, bits, match",
    [
        ([10.0, 20.0], np.zeros((2, 16, 9), dtype=bool), "shape"),
        ([10.0, 20.0], np.zeros((1, 16, 10), dtype=bool), "shape"),
        ([10.0, 20.0], np.full((2, 16, 10), 2, dtype=np.uint8), "0 or 1"),
        ([20.0, 20.0], np.zeros((2, 16, 10), dtype=bool), "strictly increasing"),
        ([20.0, 10.0], np.zeros((2, 16, 10), dtype=bool), "strictly increasing"),
        ([10.0, math.nan], np.zeros((2, 16, 10), dtype=bool), "strictly increasing"),
        ([10.0, 90.0], np.zeros((2, 16, 10), dtype=bool), r"\[0, 90\)"),
        ([], np.zeros((0, 16, 10), dtype=bool), "at least one entry"),
    ],
    ids=["grid", "count", "not-0-1", "repeated", "decreasing", "nan", "90-deg", "empty"],
)
def test_codebook_rejects_malformed_arrays(board, angles, bits, match):
    with pytest.raises(DomainError, match=match):
        Codebook(board, angles, bits)


def test_codebook_single_entry(board):
    book = build_codebook(board, Point3(0.12, 0.072, 0.3), LAMBDA_BENCH, 30.0, 30.0, 1.5)
    assert len(book) == 1
    assert book.entries[0].steer_angle.theta_deg == 30.0


def test_codebook_rejects_empty_range(board):
    feed = Point3(0.12, 0.072, 0.3)
    with pytest.raises(DomainError):
        build_codebook(board, feed, LAMBDA_BENCH, 40.0, 30.0, 1.5)
    with pytest.raises(DomainError):
        build_codebook(board, feed, LAMBDA_BENCH, 0.0, 60.0, 0.0)


@pytest.mark.parametrize("step", [math.inf, math.nan, 1e-9])
def test_codebook_bound_checked_before_allocation(board, monkeypatch, step):
    def no_allocation(*args, **kwargs):
        raise AssertionError("codebook angles allocated for an out-of-bounds range")

    monkeypatch.setattr(np, "arange", no_allocation)
    with pytest.raises(DomainError, match="codebook"):
        build_codebook(board, Point3(0.12, 0.072, 0.3), LAMBDA_BENCH, 0.0, 60.0, step)


def test_codebook_entry_count_limit_is_exact():
    # a 0.008 deg step fits the limit inside [0, 90)
    step = 0.008
    angles = codebook_angles(0.0, step * (MAX_CODEBOOK_ENTRIES - 1), step)
    assert len(angles) == MAX_CODEBOOK_ENTRIES
    with pytest.raises(DomainError, match="more than"):
        codebook_angles(0.0, step * MAX_CODEBOOK_ENTRIES, step)
    with pytest.raises(DomainError, match="finite"):
        codebook_angles(math.nan, 60.0, 1.5)


@given(
    st.floats(0.0, 60.0),
    st.floats(0.0, 29.0),
    st.floats(0.01, 5.0),
)
@settings(max_examples=200, deadline=None)
def test_codebook_angles_stop_at_stop(start, span, step):
    stop = start + span
    angles = codebook_angles(start, stop, step)
    # no angle exceeds stop but by rounding, and the next step would
    assert angles[-1] - stop <= 1e-9 * (stop - start)
    assert Fraction(start) + len(angles) * Fraction(step) > Fraction(stop)
    assert np.array_equal(angles, np.arange(start, stop + step / 2, step)[: len(angles)])


def test_codebook_drops_a_last_angle_past_stop():
    assert codebook_angles(0.0, 89.9, 1.5)[-1] == 88.5
    assert codebook_angles(0.0, 59.9, 1.5)[-1] == 58.5
    assert codebook_angles(10.0, 20.7, 1.0)[-1] == 20.0
    assert codebook_angles(0.0, 89.999, 0.5)[-1] == 89.5


@pytest.mark.parametrize(
    "start, stop, step",
    [
        (0.0, 60.0, 1.5),
        (5.0, 55.0, 1.25),
        (0.0, 1.0, 0.1),
        (0.0, 60.0, 0.1),
        (0.0, 0.3, 0.1),  # 0.30000000000000004: past stop by rounding only
        (0.0, 0.008 * (MAX_CODEBOOK_ENTRIES - 1), 0.008),
        (0.0, 0.0, 1.0),
    ],
)
def test_on_lattice_ranges_keep_every_angle(start, stop, step):
    angles = codebook_angles(start, stop, step)
    assert len(angles) == round((stop - start) / step) + 1
    assert np.array_equal(angles, np.arange(start, stop + step / 2, step))


@pytest.mark.parametrize(
    "start, stop, step",
    [
        (0.0, 100.0, 200.0),
        (0.0, 1e308, 1.7e308),  # stop + step/2 passes the float range
        (-0.0, 1e308, 1.7e308),
        (30.0, 1e308, 1.7e308),
        (30.0, 30.0, 1e-20),  # start + step/2 rounds to start
        (45.0, 45.0, 1e-300),
    ],
)
def test_a_range_within_one_step_is_its_start(start, stop, step):
    angles = codebook_angles(start, stop, step)
    assert angles.tolist() == [start] and np.signbit(angles[0]) == np.signbit(start)


def test_a_range_whose_steps_round_together_is_not_strictly_increasing():
    # one ulp below 64 is half an ulp above it: the angles read 64 - ulp, 64, 64, ...
    with pytest.raises(DomainError, match="strictly increasing"):
        codebook_angles(63.99999999999999, 64.00000000000003, 7.105427357601002e-15)


# finite values from subnormals through ~1.8e308, and values around the [0, 90) bound
SWEEP_VALUE = st.one_of(st.floats(-1.0, 100.0), st.floats(allow_nan=False, allow_infinity=False))


@given(SWEEP_VALUE, st.one_of(st.none(), SWEEP_VALUE), SWEEP_VALUE)
@example(30.0, None, 1e-20)
@example(-1e308, 1e308, 1.5e308)
@example(63.99999999999999, 64.00000000000003, 7.105427357601002e-15)
@settings(max_examples=300, deadline=None)
def test_every_sweep_range_reaches_one_outcome(start, stop, step):
    stop = start if stop is None else stop  # a range within one step, for any step
    try:
        angles = codebook_angles(start, stop, step)
    except DomainError:
        return
    assert isinstance(angles, np.ndarray) and angles.dtype == np.float64 and angles.ndim == 1
    assert 1 <= len(angles) <= MAX_CODEBOOK_ENTRIES
    assert np.all(np.diff(angles) > 0) and 0.0 <= angles[0] and angles[-1] < 90.0
    assert angles[:1].tobytes() == np.float64(start).tobytes()


@pytest.mark.parametrize(
    "start, stop, step",
    [
        pytest.param(-10.0, 60.0, 1.5, id="-10.0-60.0"),
        pytest.param(0.0, 90.0, 1.5, id="0.0-90.0"),
        pytest.param(0.0, 90.5, 1.5, id="0.0-90.5"),
        # stop + step/2 passes the float range; the second angle, 1e308, is the fault
        pytest.param(0.0, 1.7e308, 1e308, id="0.0-1.7e308-1e308"),
        # stop - start passes the float range; the start is the fault
        pytest.param(-1e308, 1e308, 1.5e308, id="-1e308-1e308-1.5e308"),
        pytest.param(-1.7e308, 1e308, 1.7e308, id="-1.7e308-1e308-1.7e308"),
    ],
)
def test_codebook_angles_outside_0_90_fail_before_any_grid(board, monkeypatch, start, stop, step):
    def no_grid(*args, **kwargs):
        raise AssertionError("steering grids built for an out-of-range codebook")

    monkeypatch.setattr(masks, "_nearfield_bits", no_grid)
    with pytest.raises(DomainError, match=r"codebook angles .* must lie in \[0, 90\)"):
        build_codebook(board, Point3(0.12, 0.072, 0.3), LAMBDA_BENCH, start, stop, step)


def test_phase_mask_validation(board):
    with pytest.raises(DomainError):
        PhaseMask(board, np.zeros((3, 3)))
    with pytest.raises(DomainError):
        PhaseMask(board, np.full((16, 10), 360.0))
    with pytest.raises(DomainError):
        CodingMask(board, np.full((16, 10), 2))


def test_coding_mask_rejects_a_grid_of_another_shape():
    with pytest.raises(DomainError, match=r"bit grid shape \(4, 5\) does not match \(4, 4\)"):
        CodingMask(ArrayGeometry(4, 4, 0.01), np.zeros((4, 5)))
