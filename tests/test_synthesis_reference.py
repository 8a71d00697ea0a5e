"""The in-place codebook synthesis against the plain-Python reference
(tests/reference.py): every centered phase within the reference's margin and
every bit equal, but for the elements that margin puts on a quantizer edge
and the rows whose phasor sum nearly cancels. Row k equals direction k alone
bit for bit at every feed distance, and the wrap's floor path equals np.mod.
And bounds on the memory and the exponentials one codebook takes to build."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from risim import ArrayGeometry, Point3, build_codebook
from risim import masks
from risim.masks import WRAP_FLOOR_BOUND, WRAP_FLOOR_MIN_SIZE, _wrap_deg_inplace

import reference
from conftest import LAMBDA_BENCH, same_bits

# the reference checks feeds within this distance. The margin grows with k0 r,
# and so do rows whose phasor sum nearly cancels: 4 % of rows at 1e3-1e5 m.
# A farther feed keeps only the bitwise checks
REFERENCE_FEED_M = 1e5
# the most rows of one synthesis the reference computes, spread over the batch
REFERENCE_ROWS = 8


def ref_wrap(phases_deg):
    w = np.mod(phases_deg, 360.0)
    return np.where(w >= 360.0, 0.0, w)


def assert_synthesis_matches(geom, feed, thetas, phi, wavelength, phases, bits):
    """The kernel's (K, M, N) phases and bits against the reference, on at most
    REFERENCE_ROWS rows when the feed is within REFERENCE_FEED_M, and each
    of those rows bit for bit against its direction alone at any distance."""
    rows = list(range(0, len(thetas), math.ceil(len(thetas) / REFERENCE_ROWS)))
    for k in rows:
        alone = masks._compensation_deg(geom, feed, [thetas[k]], phi, wavelength)[0]
        assert same_bits(alone, phases[k])
    if math.hypot(feed.x, feed.y, feed.z) > REFERENCE_FEED_M:
        return
    ref = reference.nearfield_synthesis(geom, feed, [thetas[k] for k in rows], phi, wavelength)
    flat = phases[rows].reshape(len(rows), -1).tolist(), bits[rows].reshape(len(rows), -1).tolist()
    wrong, _, _ = reference.synthesis_mismatches(ref, *flat)
    assert not wrong


def wrap_copy(phases_deg):
    return _wrap_deg_inplace(np.array(phases_deg, dtype=float))


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
    feed_log_z=st.one_of(st.floats(-3.0, 5.0), st.floats(5.0, 99.9)),
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
    phases = masks._compensation_deg(geom, feed, thetas, phi, wavelength)
    bits = masks._nearfield_bits(geom, feed, thetas, phi, wavelength)
    assert np.array_equal(bits, (phases >= 90.0) & (phases < 270.0))
    assert_synthesis_matches(geom, feed, thetas, phi, wavelength, phases, bits)


@settings(max_examples=30, deadline=None)
@given(
    start=st.floats(0.0, 30.0),
    step=st.floats(0.2, 10.0),
    log_z=st.one_of(st.floats(-3.0, 5.0), st.floats(5.0, 99.9)),
)
def test_codebook_bits_equal_reference(board, start, step, log_z):
    feed = Point3(0.12, 0.072, 10.0**log_z)
    book = build_codebook(board, feed, LAMBDA_BENCH, start, 80.0, step)
    thetas = book.angles.tolist()
    phases = masks._compensation_deg(board, feed, thetas, 0.0, LAMBDA_BENCH)
    assert_synthesis_matches(board, feed, thetas, 0.0, LAMBDA_BENCH, phases, book.bits)


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
