import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from risim import (
    ArrayGeometry,
    CodingMask,
    Direction,
    DomainError,
    FeedSpec,
    LinkScenario,
    Point3,
    UnitCellReflection,
    array_factor_far,
    build_codebook,
    default_theta_grid,
    element_grid,
    nearfield_steering_mask,
    pattern_nearfield,
    snell_gradient,
    wavelength_from_frequency,
)

from risim.geometry import MAX_ELEMENTS, azimuth_trig, distance_grid, in_plane_grid, projection_grid, projection_stack

from conftest import LAMBDA_BENCH


def _element(board, m, n):
    """Point3 of element (m, n), 1-based, read off the element lattice."""
    X, Y = element_grid(board)
    return Point3(float(X[m - 1, n - 1]), float(Y[m - 1, n - 1]), 0.0)


def _dist(a, b):
    return math.dist((a.x, a.y, a.z), (b.x, b.y, b.z))


def test_element_grid_corner_origin(board):
    p = _element(board, 1, 1)
    assert (p.x, p.y, p.z) == (0.0, 0.0, 0.0)


def test_element_grid_one_step(board):
    p = _element(board, 2, 1)
    assert (p.x, p.y, p.z) == pytest.approx((0.016, 0.0, 0.0))


def test_element_grid_far_corner(board):
    p = _element(board, 16, 10)
    assert (p.x, p.y, p.z) == pytest.approx((0.240, 0.144, 0.0))


def test_projection_in_zero_at_normal_incidence(board):
    for m, n in ((1, 1), (7, 3), (16, 10)):
        assert projection_grid(board, Direction(0.0))[m - 1, n - 1] == 0.0


def test_projection_in_pinned_value(board):
    # p * sin(30) * ((3-1)*cos(0) + 0) = 0.016 * 0.5 * 2
    assert projection_grid(board, Direction(30.0, 0.0))[2, 0] == pytest.approx(0.016)


def test_projection_near_grazing_is_finite(board):
    val = projection_grid(board, Direction(90.0 - 1e-9, 123.0))[15, 9]
    assert math.isfinite(val)


def test_projection_out_pinned_value(board):
    expected = 0.016 * math.sin(math.radians(45.0))
    assert projection_grid(board, Direction(45.0, 0.0))[1, 0] == pytest.approx(expected)
    assert expected == pytest.approx(0.011314, abs=1e-6)


def test_projection_out_phi90_depends_only_on_n(board):
    d = Direction(37.0, 90.0)
    for n in (1, 4, 10):
        vals = {round(float(projection_grid(board, d)[m - 1, n - 1]), 15) for m in (1, 5, 16)}
        assert len(vals) == 1


@given(
    thetas=st.lists(st.floats(min_value=0.0, max_value=89.9), min_size=1, max_size=12),
    phi=st.one_of(st.sampled_from([0.0, -0.0, 90.0, 180.0, 270.0]), st.floats(0.0, 359.9)),
    shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
    pitch=st.floats(min_value=0.002, max_value=0.05),
)
@example(thetas=[30.0, 0.0, 45.0, 12.5], phi=-0.0, shape=(16, 10), pitch=0.016)
@example(thetas=[30.0, 0.0, 30.0], phi=180.0, shape=(16, 10), pitch=0.016)
def test_projection_stack_rows_equal_projection_grid(thetas, phi, shape, pitch):
    # one azimuth plane per batch; on -0.0 and the axis planes every row keeps its zeros' signs
    geom = ArrayGeometry(*shape, pitch)
    stack = projection_stack(geom, thetas, phi)
    assert stack.shape == (len(thetas), *shape)
    for row, theta in zip(stack, thetas):
        single = projection_grid(geom, Direction(theta, phi))
        assert np.array_equal(row.view(np.int64), single.view(np.int64))


def test_feed_distance_boresight(board):
    assert distance_grid(board, Point3(0, 0, 0.3))[0, 0] == 0.3


def test_feed_distance_far_corner(board):
    # sqrt(0.24^2 + 0.144^2 + 0.3^2) recomputed from the closed form
    d = distance_grid(board, Point3(0, 0, 0.3))[15, 9]
    assert d == pytest.approx(math.sqrt(0.24**2 + 0.144**2 + 0.3**2), rel=1e-12)
    assert d == pytest.approx(0.410288, abs=1e-6)


def test_feed_distance_symmetric_elements(board):
    feed = Point3(0.12, 0.072, 0.3)
    a = _element(board, 4, 3)
    b = _element(board, 13, 8)  # mirrored about the feed axis
    assert _dist(feed, a) == pytest.approx(_dist(feed, b), rel=1e-12)


coords = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


@given(x=coords, y=coords, z=st.floats(min_value=0.01, max_value=5.0))
def test_distance_symmetry(board, x, y, z):
    # a point mirrored through the aperture center sees the flipped grid
    c = board.center()
    grid = distance_grid(board, Point3(x, y, z))
    mirrored = distance_grid(board, Point3(2 * c.x - x, 2 * c.y - y, z))
    assert np.allclose(grid, mirrored[::-1, ::-1], rtol=1e-12, atol=1e-12)


@given(ax=coords, ay=coords, az=coords, bx=coords, by=coords, bz=coords)
def test_distance_triangle_inequality(board, ax, ay, az, bx, by, bz):
    a, b = Point3(ax, ay, az), Point3(bx, by, bz)
    assert np.all(distance_grid(board, a) <= _dist(a, b) + distance_grid(board, b) + 1e-12)


def test_translation_consistency(board):
    p = board.periodicity_m
    for m in range(1, board.m_count):
        for n in (1, 5, 10):
            a = _element(board, m, n)
            b = _element(board, m + 1, n)
            assert (b.x - a.x, b.y - a.y, b.z - a.z) == pytest.approx((p, 0.0, 0.0))


def test_distance_grid_matches_scalar(board):
    feed = Point3(0.05, 0.11, 0.3)
    grid = distance_grid(board, feed)
    assert grid.shape == (16, 10)
    assert grid[4, 7] == pytest.approx(_dist(feed, _element(board, 5, 8)), rel=1e-12)


def test_direction_validation():
    with pytest.raises(DomainError):
        Direction(90.0)
    with pytest.raises(DomainError):
        Direction(-1.0)
    with pytest.raises(DomainError):
        Direction(30.0, 360.0)


def test_direction_from_signed_theta():
    d = Direction.from_signed_theta(-30.0)
    assert (d.theta_deg, d.phi_deg) == (30.0, 180.0)
    assert Direction.from_signed_theta(15.0).phi_deg == 0.0
    for theta in (-90.0, 90.0, -1e9, math.nan):
        with pytest.raises(DomainError, match=rf"\(-90, 90\), got {theta}$"):
            Direction.from_signed_theta(theta)


def test_geometry_validation():
    with pytest.raises(DomainError):
        ArrayGeometry(0, 10, 0.016)
    for pitch in (0.0, -0.016, math.inf, math.nan):
        with pytest.raises(DomainError, match="periodicity must be positive and finite"):
            ArrayGeometry(16, 10, pitch)


def test_element_count_limit_is_inclusive():
    # checked in integer arithmetic before any lattice exists
    assert ArrayGeometry(256, 256, 0.016).size == MAX_ELEMENTS
    assert ArrayGeometry(MAX_ELEMENTS, 1, 0.016).size == MAX_ELEMENTS
    for m, n in ((MAX_ELEMENTS + 1, 1), (1, MAX_ELEMENTS + 1), (257, 256)):
        with pytest.raises(DomainError, match=f"multiply to at most {MAX_ELEMENTS},"):
            ArrayGeometry(m, n, 0.016)


def test_geometry_center(board):
    c = board.center()
    assert (c.x, c.y, c.z) == pytest.approx((0.12, 0.072, 0.0))


def test_element_grid_layout(board):
    X, Y = element_grid(board)
    assert X.shape == (16, 10)
    assert X[15, 0] == pytest.approx(0.240)
    assert Y[0, 9] == pytest.approx(0.144)


def test_wavelength_from_frequency():
    lam = wavelength_from_frequency(5.5e9)
    assert lam == pytest.approx(LAMBDA_BENCH, abs=1e-4)
    with pytest.raises(DomainError):
        wavelength_from_frequency(0.0)


def _hex(pair):
    return [float(v).hex() for v in pair]


@pytest.mark.parametrize(
    "phi, expected",
    [
        (0.0, (1.0, 0.0)),
        (-0.0, (1.0, 0.0)),
        (90.0, (0.0, 1.0)),
        (-90.0, (0.0, -1.0)),
        (180.0, (-1.0, 0.0)),
        (270.0, (0.0, -1.0)),
        (360.0, (1.0, 0.0)),
        (450.0, (0.0, 1.0)),
        (360.0 * 2**60, (1.0, 0.0)),
        (90.0 * (2**47 + 1), (0.0, 1.0)),
    ],
)
def test_azimuth_trig_is_exact_on_the_axes(phi, expected):
    assert azimuth_trig(phi) == expected


def test_azimuth_trig_negates_on_the_opposite_axis():
    # a zero takes its partner's sign, so phi + 180 is the bitwise negation
    for phi in (0.0, 90.0, -90.0, 180.0, 270.0):
        assert _hex(azimuth_trig(phi + 180.0)) == _hex(-v for v in azimuth_trig(phi))


@given(phi=st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: math.fmod(x, 90.0) != 0.0))
@example(phi=1e-300)
@example(phi=90.0 + 2.0**-46)
@example(phi=-5e-324)
def test_azimuth_trig_off_the_axes_is_math_bit_for_bit(phi):
    ph = math.radians(phi)
    assert _hex(azimuth_trig(phi)) == _hex((math.cos(ph), math.sin(ph)))


@given(
    theta=st.floats(min_value=0.0, max_value=89.9),
    shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
    pitch=st.floats(min_value=0.002, max_value=0.05),
)
@example(theta=30.0, shape=(16, 10), pitch=0.016)
def test_phi_180_projection_is_the_bitwise_mirror_of_phi_0(theta, shape, pitch):
    geom = ArrayGeometry(*shape, pitch)
    for phi in (0.0, 90.0):
        mirrored = projection_grid(geom, Direction(theta, phi + 180.0))
        negated = -projection_grid(geom, Direction(theta, phi))
        assert np.array_equal(mirrored.view(np.int64), negated.view(np.int64))


def test_axis_planes_share_one_coordinate_per_row_or_column(board):
    X, Y = element_grid(board)
    assert np.array_equal(in_plane_grid(board, 0.0), X)
    assert np.array_equal(in_plane_grid(board, 90.0), Y)
    assert np.array_equal(in_plane_grid(board, 180.0), -X)
    assert np.array_equal(in_plane_grid(board, 270.0), -Y)


def _link(geom, wavelength):
    return LinkScenario(geom, FeedSpec(Point3(0.12, 0.07, 0.3)), Point3(0.0, 0.0, 5.0), wavelength, 0.0, 0.0, 0.0)


def _far_cut(geom, wavelength):
    mask = CodingMask(geom, np.zeros((16, 10)))
    return array_factor_far(geom, mask, UnitCellReflection(), Direction(0.0), 0.0, default_theta_grid(), wavelength)


def _near_cut(geom, wavelength):
    mask, feed = CodingMask(geom, np.zeros((16, 10))), FeedSpec(Point3(0.12, 0.07, 0.3))
    return pattern_nearfield(geom, mask, UnitCellReflection(), feed, 0.5, 0.0, default_theta_grid(), wavelength)


@pytest.mark.parametrize(
    "make",
    [
        lambda geom, lam: snell_gradient(geom, Direction(0.0), Direction(30.0), lam),
        lambda geom, lam: nearfield_steering_mask(geom, Point3(0.12, 0.07, 0.3), Direction(30.0), lam),
        lambda geom, lam: build_codebook(geom, Point3(0.12, 0.07, 0.3), lam, 0.0, 60.0, 1.0),
        _far_cut,
        _near_cut,
        _link,
    ],
    ids=["snell_gradient", "nearfield_steering_mask", "build_codebook", "array_factor_far",
         "pattern_nearfield", "LinkScenario"],
)
@pytest.mark.parametrize("wavelength", [0.0, -1.0, math.nan])
def test_every_wavelength_consumer_rejects_a_non_positive_wavelength(board, make, wavelength):
    with pytest.raises(DomainError, match=r"wavelength must be > 0, got"):
        make(board, wavelength)
