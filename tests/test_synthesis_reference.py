"""The in-place codebook synthesis against reference copies of its earlier
out-of-place formulas: every wrapped phase, recentered phase and bit equal
bit for bit, and a bound on the memory one codebook takes to build."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from risim import ArrayGeometry, Point3, build_codebook, wrap_deg
from risim import masks
from risim.geometry import distance_grid, element_grid
from risim.masks import WRAP_FLOOR_BOUND, WRAP_FLOOR_MIN_SIZE

from conftest import LAMBDA_BENCH


def ref_wrap(phases_deg):
    w = np.mod(phases_deg, 360.0)
    return np.where(w >= 360.0, 0.0, w)


def ref_projection_stack(geom, steers):
    rad = [(math.radians(th), math.radians(ph)) for th, ph in steers]
    trig = np.array([(math.sin(th), math.cos(ph), math.sin(ph)) for th, ph in rad])
    sin_th, cos_ph, sin_ph = trig.T[:, :, None, None]
    X, Y = element_grid(geom)
    return sin_th * (X * cos_ph + Y * sin_ph)


def ref_compensation_deg(geom, feed, steers, wavelength):
    k0 = 2 * np.pi / wavelength
    with np.errstate(over="ignore", invalid="ignore"):
        proj = ref_projection_stack(geom, steers)
        return ref_wrap(np.degrees(k0 * distance_grid(geom, feed) - k0 * proj))


def ref_recentered_deg(phases_deg):
    ph = np.radians(phases_deg)
    mean = np.angle(np.mean(np.exp(1j * ph.reshape(len(ph), -1)), axis=1))
    return ref_wrap(np.degrees(ph - mean[:, None, None]))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-14, 360.0, -360.0, math.nan, math.inf, -math.inf,
            1e300, -1e300, WRAP_FLOOR_BOUND, -WRAP_FLOOR_BOUND]


def phase_sample(seed, size, log_scale, specials):
    """Uniform phases at 10**log_scale, a third of them moved onto a multiple of
    360 or one ulp either side of it, then the given special values dropped in."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size) * 10.0**log_scale
    near = rng.random(size) < 1 / 3
    k = rng.integers(-(2**40) + 1, 2**40, size) * 360.0
    nudge = rng.integers(-1, 2, size)
    k = np.where(nudge < 0, np.nextafter(k, -np.inf), np.where(nudge > 0, np.nextafter(k, np.inf), k))
    x[near] = k[near]
    x[rng.choice(size, min(len(specials), size), replace=False)] = specials[:size]
    return x


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.sampled_from([1, 160, WRAP_FLOOR_MIN_SIZE - 1, WRAP_FLOOR_MIN_SIZE, 9760]),
    log_scale=st.floats(-323.0, 30.0),
    specials=st.lists(st.sampled_from(SPECIALS), max_size=3),
)
@example(seed=0, size=WRAP_FLOOR_MIN_SIZE, log_scale=3.0, specials=[])
# the floor form's +360 fix-up: negatives above ~ -8.9e-322 divide to -0.0
@example(seed=0, size=WRAP_FLOOR_MIN_SIZE, log_scale=-322.0, specials=[-5e-324])
@example(seed=0, size=9760, log_scale=20.0, specials=[])
@example(seed=0, size=WRAP_FLOOR_MIN_SIZE, log_scale=3.0, specials=[math.nan])
@example(seed=0, size=WRAP_FLOOR_MIN_SIZE, log_scale=3.0, specials=[WRAP_FLOOR_BOUND])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # np.mod of inf warns on both sides
def test_wrap_deg_equals_mod_and_guard(seed, size, log_scale, specials):
    x = phase_sample(seed, size, log_scale, specials)
    before = x.copy()
    assert same_bits(wrap_deg(x), ref_wrap(x))
    assert same_bits(x, before)  # the caller's array is left as it is


def test_wrap_deg_takes_the_floor_form_only_on_large_finite_grids(monkeypatch):
    rng = np.random.default_rng(7)
    large = rng.uniform(-1e6, 1e6, WRAP_FLOOR_MIN_SIZE)
    large[::7] = np.nextafter(np.round(large[::7] / 360.0) * 360.0, -np.inf)
    expected = ref_wrap(large)
    small = large[: WRAP_FLOOR_MIN_SIZE - 1]

    def no_mod(*args, **kwargs):
        raise AssertionError("np.mod called")

    monkeypatch.setattr(masks.np, "mod", no_mod)
    assert same_bits(wrap_deg(large), expected)
    for x in (small, np.where(np.arange(large.size) == 3, math.nan, large), large * 1e12):
        with pytest.raises(AssertionError, match="np.mod called"):
            wrap_deg(x)


@pytest.mark.parametrize("value", [-1e-14, 360.0, -720.0, 1234.5, 7])
def test_wrap_deg_takes_scalars(value):
    got = wrap_deg(value)
    assert isinstance(got, np.ndarray) and got.shape == ()
    assert same_bits(got, ref_wrap(np.float64(value)))


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
    pitch=st.floats(0.002, 0.05),
    wavelength=st.floats(0.01, 0.3),
    feed_xy=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    feed_log_z=st.floats(-3.0, 99.9),
    phi=st.one_of(st.just(0.0), st.just(180.0), st.floats(0.0, 359.99)),
    thetas=st.lists(st.floats(0.0, 89.99), min_size=1, max_size=280),
)
@example(shape=(16, 10), pitch=0.016, wavelength=LAMBDA_BENCH, feed_xy=(0.12, 0.072), feed_log_z=-0.52,
         phi=0.0, thetas=[float(a) for a in range(61)])
@example(shape=(16, 10), pitch=0.016, wavelength=LAMBDA_BENCH, feed_xy=(0.0, 0.0), feed_log_z=99.9,
         phi=180.0, thetas=[30.0] * 280)
def test_synthesis_equals_reference(shape, pitch, wavelength, feed_xy, feed_log_z, phi, thetas):
    geom = ArrayGeometry(*shape, pitch)
    feed = Point3(*feed_xy, 10.0**feed_log_z)
    steers = [(th, phi) for th in thetas]
    comp = masks._compensation_deg(geom, feed, steers, wavelength)
    ref_comp = ref_compensation_deg(geom, feed, steers, wavelength)
    assert same_bits(comp, ref_comp)
    centered = masks._recentered_deg(comp)
    ref_centered = ref_recentered_deg(ref_comp)
    assert same_bits(centered, ref_centered)
    bits = masks._nearfield_bits(geom, feed, steers, wavelength)
    assert np.array_equal(bits, (ref_centered >= 90.0) & (ref_centered < 270.0))


@settings(max_examples=30, deadline=None)
@given(start=st.floats(0.0, 30.0), step=st.floats(0.2, 10.0), log_z=st.floats(-3.0, 99.9))
def test_codebook_bits_equal_reference(board, start, step, log_z):
    feed = Point3(0.12, 0.072, 10.0**log_z)
    book = build_codebook(board, feed, LAMBDA_BENCH, start, 80.0, step)
    steers = [(a, 0.0) for a in book.angles.tolist()]
    ref = ref_recentered_deg(ref_compensation_deg(board, feed, steers, LAMBDA_BENCH))
    assert np.array_equal(book.bits, (ref >= 90.0) & (ref < 270.0))


def test_codebook_memory_peak(board):
    # the 61-entry default sweep; a first call fills the lattice and feed caches
    feed = Point3(0.12, 0.072, 0.3)
    build_codebook(board, feed, LAMBDA_BENCH, 0.0, 60.0, 1.0)
    tracemalloc.start()
    try:
        book = build_codebook(board, feed, LAMBDA_BENCH, 0.0, 60.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one phase buffer, its complex exponential and numpy's cast buffer for that
    # exponential: 4.74 grids, against 6.05 for the out-of-place synthesis
    assert peak <= 4.75 * book.bits.size * 8
