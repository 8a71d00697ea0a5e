"""The in-place codebook synthesis against an out-of-place reference copy of
its formula: every centered phase and bit equal bit for bit. Against the
earlier formula, which centered on the direct mean of the wrapped phases:
equal bits for near feeds. And bounds on the memory and the exponentials one
codebook takes to build."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from risim import ArrayGeometry, Point3, build_codebook
from risim import masks
from risim.geometry import distance_grid, element_grid
from risim.masks import WRAP_FLOOR_BOUND, WRAP_FLOOR_MIN_SIZE, _wrap_deg_inplace

from conftest import LAMBDA_BENCH


def ref_wrap(phases_deg):
    w = np.mod(phases_deg, 360.0)
    return np.where(w >= 360.0, 0.0, w)


# cos and sin on the four axis planes, exact as synthesis takes them; a zero
# takes the sign of its partner
AXIS_TRIG = {0.0: (1.0, 0.0), 90.0: (0.0, 1.0), 180.0: (-1.0, -0.0), 270.0: (-0.0, -1.0)}


def ref_plane_trig(phi_deg):
    if phi_deg in AXIS_TRIG:
        return AXIS_TRIG[phi_deg]
    ph = math.radians(phi_deg)
    return math.cos(ph), math.sin(ph)


def ref_projection_stack(geom, steers):
    trig = np.array([(math.sin(math.radians(th)), *ref_plane_trig(ph)) for th, ph in steers])
    sin_th, cos_ph, sin_ph = trig.T[:, :, None, None]
    X, Y = element_grid(geom)
    return sin_th * (X * cos_ph + Y * sin_ph)


def ref_compensation_deg(geom, feed, steers, wavelength):
    """k0 r - k0 proj less each row's circular mean, from the separable
    factors with the (K, N) one taken on every row, then wrapped once."""
    k0 = 2 * np.pi / wavelength
    with np.errstate(over="ignore", invalid="ignore"):
        kr = k0 * distance_grid(geom, feed)
        kproj = k0 * ref_projection_stack(geom, steers)
        outer = np.exp(-1j * kproj[:, :, 0])
        inner = (np.exp(1j * kr)[None] * np.exp(-1j * kproj[:, 0, :])[:, None, :]).sum(axis=2)
        mean = np.angle((outer * inner).sum(axis=1))
        return ref_wrap(np.degrees(kr - kproj - mean[:, None, None]))


def ref_direct_mean_deg(geom, feed, steers, wavelength):
    """The earlier formula: wrap k0 r - k0 proj, subtract the direct circular
    mean of every element's phasor, wrap again."""
    k0 = 2 * np.pi / wavelength
    with np.errstate(over="ignore", invalid="ignore"):
        proj = ref_projection_stack(geom, steers)
        ph = np.radians(ref_wrap(np.degrees(k0 * distance_grid(geom, feed) - k0 * proj)))
    mean = np.angle(np.mean(np.exp(1j * ph.reshape(len(ph), -1)), axis=1))
    return ref_wrap(np.degrees(ph - mean[:, None, None]))


def ref_bits(phases_deg):
    return (phases_deg >= 90.0) & (phases_deg < 270.0)


def wrap_copy(phases_deg):
    return _wrap_deg_inplace(np.array(phases_deg, dtype=float))


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
    assert same_bits(wrap_copy(x), ref_wrap(x))
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
    assert same_bits(wrap_copy(large), expected)
    for x in (small, np.where(np.arange(large.size) == 3, math.nan, large), large * 1e12):
        with pytest.raises(AssertionError, match="np.mod called"):
            wrap_copy(x)


@pytest.mark.parametrize("value", [-1e-14, 360.0, -720.0, 1234.5, 7])
def test_wrap_deg_takes_scalars(value):
    got = wrap_copy(value)
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
# theta = 0 rows on planes with a y component, whose N-factor is computed, not skipped
@example(shape=(16, 10), pitch=0.016, wavelength=LAMBDA_BENCH, feed_xy=(0.12, 0.072), feed_log_z=-0.52,
         phi=90.0, thetas=[0.0, 20.0, 0.0, 45.0])
@example(shape=(16, 10), pitch=0.016, wavelength=LAMBDA_BENCH, feed_xy=(0.12, 0.072), feed_log_z=-0.52,
         phi=270.0, thetas=[0.0, 60.0])
@example(shape=(7, 3), pitch=0.011, wavelength=LAMBDA_BENCH, feed_xy=(-0.3, 0.5), feed_log_z=0.0,
         phi=37.5, thetas=[10.0, 0.0, 0.0, 89.0])
def test_synthesis_equals_reference(shape, pitch, wavelength, feed_xy, feed_log_z, phi, thetas):
    geom = ArrayGeometry(*shape, pitch)
    feed = Point3(*feed_xy, 10.0**feed_log_z)
    steers = [(th, phi) for th in thetas]
    ref_comp = ref_compensation_deg(geom, feed, steers, wavelength)
    assert same_bits(masks._compensation_deg(geom, feed, thetas, phi, wavelength), ref_comp)
    assert np.array_equal(masks._nearfield_bits(geom, feed, thetas, phi, wavelength), ref_bits(ref_comp))


@settings(max_examples=30, deadline=None)
@given(start=st.floats(0.0, 30.0), step=st.floats(0.2, 10.0), log_z=st.floats(-3.0, 99.9))
def test_codebook_bits_equal_reference(board, start, step, log_z):
    feed = Point3(0.12, 0.072, 10.0**log_z)
    book = build_codebook(board, feed, LAMBDA_BENCH, start, 80.0, step)
    steers = [(a, 0.0) for a in book.angles.tolist()]
    ref = ref_compensation_deg(board, feed, steers, LAMBDA_BENCH)
    assert np.array_equal(book.bits, ref_bits(ref))


# the two formulas round k0 r at its own magnitude in different places: below 1e6 m
# they agreed on all of ~222 M sampled bits, at 1e6-1e7 m 3 of ~32 M differed and at
# 1e7-1e8 m 43 of ~17 M, so the bound keeps a decade clear of the first difference
@settings(max_examples=60, deadline=None)
@given(
    step=st.floats(0.2, 1.5),
    phi=st.one_of(st.just(0.0), st.just(180.0), st.floats(0.0, 359.99)),
    feed_xy=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    log_z=st.floats(-3.0, 5.0),
)
@example(step=1.0, phi=0.0, feed_xy=(0.12, 0.072), log_z=5.0)
def test_bits_equal_direct_mean_for_near_feeds(board, step, phi, feed_xy, log_z):
    feed = Point3(*feed_xy, 10.0**log_z)
    thetas = np.arange(0.0, 89.9, step).tolist()
    steers = [(th, phi) for th in thetas]
    bits = masks._nearfield_bits(board, feed, thetas, phi, LAMBDA_BENCH)
    assert np.array_equal(bits, ref_bits(ref_direct_mean_deg(board, feed, steers, LAMBDA_BENCH)))


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
    # one phase buffer from the projection to the bits, with no (K, M*N) complex
    # array: the peak is the projection's broadcast product, the buffer plus
    # numpy's two 64 KB iterator buffers (~1.7 grids at K = 61). Measured 2.745
    # grids, against 3.05 when the mean took exp(j ph) of every element and
    # 6.05 for the out-of-place synthesis
    assert peak <= 2.76 * book.bits.size * 8


def test_codebook_mean_takes_k_times_m_plus_n_exponentials(board, monkeypatch):
    # the 61-entry default sweep, warm: the feed phasor is cached, each entry
    # takes M exponentials and, on phi = 0, none of its N; K * M * N before
    feed = Point3(0.12, 0.072, 0.3)
    build_codebook(board, feed, LAMBDA_BENCH, 0.0, 60.0, 1.0)
    counted = []
    exp = np.exp

    def counting_exp(x, *args, **kwargs):
        if np.iscomplexobj(x):
            counted.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    book = build_codebook(board, feed, LAMBDA_BENCH, 0.0, 60.0, 1.0)
    k, m, n = book.bits.shape
    assert sum(counted) <= k * (m + n)
    assert sum(counted) == k * m
