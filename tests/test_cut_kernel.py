"""The shared cut kernel against the plain-Python reference, its bitwise
invariants, and the CSV writers.

Far and near cuts sum the element weights per distinct in-plane element
coordinate w, in element order, then multiply the W group sums by one
complex exponential per w and sum each row. Each field sample must lie
within the reference's bound of its per-element sum (tests/reference.py);
a row's bits must not depend on the other rows of the grid or on the
table cache; and the writers must emit the bytes of the per-row f-string
formatters they replaced.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risim import (
    ArrayGeometry,
    CodingMask,
    Direction,
    FeedSpec,
    PatternCut,
    Point3,
    SweepTrace,
    UnitCellReflection,
    array_factor_far,
    default_theta_grid,
    farfield_steering_mask,
    nearfield_steering_mask,
    pattern_nearfield,
    write_pattern_csv,
    write_sweep_csv,
)
from risim import patterns
from risim.geometry import in_plane_grid
from risim.output import pattern_csv, pattern_grid_columns, write_text
from risim.patterns import _checked_grid, _cut_field, _observation_table

import reference
from conftest import LAMBDA_BENCH, same_bits

GRID = default_theta_grid()
CELL = UnitCellReflection.measured()
# the most theta samples of one cut the reference sums, element by element
REFERENCE_SAMPLES = 24


def assert_within_reference(field, ref_cut):
    """Each kernel sample lies within the reference's bound of its sum."""
    for i, (sample, (value, bound)) in enumerate(zip(field.tolist(), ref_cut, strict=True)):
        assert abs(sample - value) <= bound, i


def old_pattern_csv(theta, gain_db, field, comments):
    lines = [f"# {key} = {value}" for key, value in comments.items()]
    lines.append("theta_deg,gain_db,re,im")
    for th, g, f in zip(theta, gain_db, field):
        lines.append(f"{th:.4f},{g:.6f},{f.real:.9e},{f.imag:.9e}")
    return ("\n".join(lines) + "\n").encode()


def old_sweep_csv(trace, comments):
    lines = [f"# {key} = {value}" for key, value in comments.items()]
    lines.append("steer_deg,rssi_dbm")
    for angle, rssi in zip(trace.steer_deg, trace.rssi_dbm):
        lines.append(f"{angle:.4f},{rssi:.9f}")
    return ("\n".join(lines) + "\n").encode()


phis = st.one_of(st.sampled_from([0.0, 90.0, 180.0, 270.0]), st.floats(min_value=0.0, max_value=359.9))


@st.composite
def cut_cases(draw):
    edge_shapes = st.sampled_from([(1, 1), (1, 10), (16, 1), (16, 10)])
    m, n = draw(edge_shapes | st.tuples(st.integers(1, 24), st.integers(1, 24)))
    geom = ArrayGeometry(m, n, draw(st.floats(min_value=0.004, max_value=0.05)))
    seed = draw(st.integers(min_value=0, max_value=2**30 - 1))
    rng = np.random.default_rng(seed)
    mask = CodingMask(geom, rng.integers(0, 2, (m, n), dtype=np.uint8))
    # a sorted random subset of the signed grid, at least one sample
    keep = rng.random(GRID.size) < draw(st.floats(min_value=0.0, max_value=1.0))
    keep[rng.integers(GRID.size)] = True
    # and the sorted rows of it the reference sums
    rows = np.sort(rng.choice(keep.sum(), min(REFERENCE_SAMPLES, keep.sum()), replace=False))
    return geom, mask, draw(phis), GRID[keep], rows, rng


@settings(max_examples=60, deadline=None)
@given(case=cut_cases(), incidence=st.floats(min_value=0.0, max_value=80.0))
def test_far_cut_equals_dense_oracle(case, incidence):
    # the dense oracle is the reference's per-element sum
    geom, mask, phi, theta, rows, _ = case
    inc = Direction(incidence, 30.0)
    cut = array_factor_far(geom, mask, CELL, inc, phi, theta, LAMBDA_BENCH)
    ref = reference.far_cut(geom, mask.bits, CELL, inc, phi, theta[rows].tolist(), LAMBDA_BENCH)
    assert_within_reference(cut.field[rows], ref)


@settings(max_examples=60, deadline=None)
@given(
    case=cut_cases(),
    feed_z=st.one_of(st.floats(min_value=0.05, max_value=2.0), st.floats(min_value=2.0, max_value=1e5)),
    q_f=st.floats(min_value=0.0, max_value=10.0),
    q_e=st.floats(min_value=0.0, max_value=2.0),
)
def test_near_cut_equals_dense_oracle(case, feed_z, q_f, q_e):
    geom, mask, phi, theta, rows, _ = case
    feed = FeedSpec(Point3(0.1, 0.05, feed_z), q_f)
    cut = pattern_nearfield(geom, mask, CELL, feed, q_e, phi, theta, LAMBDA_BENCH)
    ref = reference.near_cut(geom, mask.bits, CELL, feed, q_e, phi, theta[rows].tolist(), LAMBDA_BENCH)
    assert_within_reference(cut.field[rows], ref)


@settings(max_examples=40, deadline=None)
@given(case=cut_cases())
def test_kernel_rows_are_partition_independent(case):
    # any theta order or subset gives every sample the same bits
    geom, mask, phi, theta, _, rng = case
    base = rng.normal(size=geom.size) + 1j * rng.normal(size=geom.size)
    perm = rng.permutation(theta.size)
    shuffled = _cut_field(geom, phi, theta[perm].tobytes(), LAMBDA_BENCH, base)
    assert same_bits(shuffled, _cut_field(geom, phi, theta.tobytes(), LAMBDA_BENCH, base)[perm])


def test_board_cuts_equal_dense_oracle(board, cfg):
    # the CLI's own cuts: the 16x10 board, full grid, far and near steering
    # masks, ten elements to each of the 16 groups; the reference sums every
    # fourth sample
    feed, rows = cfg.feed, np.arange(0, GRID.size, 4)
    thetas = GRID[rows].tolist()
    for steer in (Direction(0.0), Direction(30.0), Direction(45.0, 180.0)):
        far = farfield_steering_mask(board, steer, LAMBDA_BENCH)
        cut = array_factor_far(board, far, CELL, Direction(0.0), 0.0, GRID, LAMBDA_BENCH)
        ref = reference.far_cut(board, far.bits, CELL, Direction(0.0), 0.0, thetas, LAMBDA_BENCH)
        assert_within_reference(cut.field[rows], ref)
        near = nearfield_steering_mask(board, feed.position, steer, LAMBDA_BENCH)
        cut = pattern_nearfield(board, near, CELL, feed, 0.0, 0.0, GRID, LAMBDA_BENCH)
        ref = reference.near_cut(board, near.bits, CELL, feed, 0.0, 0.0, thetas, LAMBDA_BENCH)
        assert_within_reference(cut.field[rows], ref)


def test_a_warm_phi_0_cut_allocates_no_per_element_term_array(board, cfg):
    # with the table cached, neither kernel allocates a (T, M*N) array on the
    # board's phi = 0 plane, where the table is (T, 16)
    lam, steer = cfg.wavelength, Direction(30.0)
    far = farfield_steering_mask(board, steer, lam)
    near = nearfield_steering_mask(board, cfg.feed.position, steer, lam)
    array_factor_far(board, far, CELL, Direction(0.0), 0.0, GRID, lam)
    tracemalloc.start()
    try:
        array_factor_far(board, far, CELL, Direction(0.0), 0.0, GRID, lam)
        pattern_nearfield(board, near, CELL, cfg.feed, cfg.cell.q_e, 0.0, GRID, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * GRID.size * board.m_count * board.n_count * 16


def test_an_off_axis_cut_peaks_at_about_twice_its_table(board, cfg):
    # on phi = 37 no two elements share w, so the table is (T, M*N): a cold
    # cut holds two tables while it builds one (phase, then exp), and a warm
    # far or near cut holds the table and one product of the same shape. The
    # warm peak may pass the cold one by a few per-element arrays (the near
    # cut's amplitudes and coefficients live beside its product): four table
    # rows of slack, against the 1.8 MB a second term array would add
    lam, steer = cfg.wavelength, Direction(30.0)
    far = farfield_steering_mask(board, steer, lam)
    near = nearfield_steering_mask(board, cfg.feed.position, steer, lam)
    _observation_table.cache_clear()
    tracemalloc.start()
    try:
        array_factor_far(board, far, CELL, Direction(0.0), 37.0, GRID, lam)
        cold = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        array_factor_far(board, far, CELL, Direction(0.0), 37.0, GRID, lam)
        pattern_nearfield(board, near, CELL, cfg.feed, cfg.cell.q_e, 37.0, GRID, lam)
        warm = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = _observation_table(board, 37.0, lam, GRID.tobytes())[0]
    assert table.shape == (GRID.size, board.m_count * board.n_count)
    assert warm <= cold + 4 * table[0].nbytes
    assert cold <= 2 * table.nbytes + 256 * 1024


CACHE_GEOMS = [ArrayGeometry(1, 1, 0.016), ArrayGeometry(4, 3, 0.01), ArrayGeometry(16, 10, 0.016)]
CACHE_GRIDS = [GRID, GRID[::3], np.array([-0.0, 0.5]), np.array([0.0, 0.5]), np.array([-0.0]), np.array([0.0])]


@settings(max_examples=40, deadline=None)
@given(
    cuts=st.lists(
        st.tuples(
            st.sampled_from(range(len(CACHE_GEOMS))),
            st.sampled_from([0.0, -0.0, 90.0, 33.3]),
            st.sampled_from([LAMBDA_BENCH, 0.03]),
            st.sampled_from(range(len(CACHE_GRIDS))),
            st.booleans(),
            st.integers(min_value=0, max_value=2**30 - 1),
        ),
        min_size=2,
        max_size=8,
    )
)
def test_interleaved_cuts_through_the_table_cache_equal_dense_oracle(cuts):
    # each cut may hit or evict the one cached table; none may see another's:
    # each equals the same cut made again on an empty cache
    feed = FeedSpec(Point3(0.1, 0.05, 0.3))

    def cut(geom, mask, phi, lam, theta, far):
        if far:
            return array_factor_far(geom, mask, CELL, Direction(0.0), phi, theta, lam).field
        return pattern_nearfield(geom, mask, CELL, feed, 0.0, phi, theta, lam).field

    for g, phi, lam, t, far, seed in cuts:
        geom, theta = CACHE_GEOMS[g], CACHE_GRIDS[t]
        rng = np.random.default_rng(seed)
        mask = CodingMask(geom, rng.integers(0, 2, (geom.m_count, geom.n_count), dtype=np.uint8))
        through_the_cache = cut(geom, mask, phi, lam, theta, far)
        _observation_table.cache_clear()
        _checked_grid.cache_clear()
        assert same_bits(through_the_cache, cut(geom, mask, phi, lam, theta, far))


def test_observation_table_is_one_read_only_entry_shared_by_far_and_near(board, cfg):
    _observation_table.cache_clear()
    assert _observation_table.cache_info().maxsize == 1
    steer = Direction(30.0)
    far = farfield_steering_mask(board, steer, cfg.wavelength)
    array_factor_far(board, far, CELL, Direction(0.0), 0.0, GRID, cfg.wavelength)
    near = nearfield_steering_mask(board, cfg.feed.position, steer, cfg.wavelength)
    pattern_nearfield(board, near, CELL, cfg.feed, cfg.cell.q_e, 0.0, GRID, cfg.wavelength)
    info = _observation_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_kernels_key_the_table_on_the_checked_grid_bytes(board, cfg, monkeypatch):
    # the kernels hand the table cache the bytes the grid check already
    # made, rather than converting the grid a second time
    keys = []
    table = patterns._observation_table

    def recording_table(geom, phi, wavelength, theta_bytes):
        keys.append(theta_bytes)
        return table(geom, phi, wavelength, theta_bytes)

    monkeypatch.setattr(patterns, "_observation_table", recording_table)
    grid = default_theta_grid()
    mask = farfield_steering_mask(board, Direction(30.0), cfg.wavelength)
    array_factor_far(board, mask, CELL, Direction(0.0), 0.0, grid, cfg.wavelength)
    pattern_nearfield(board, mask, CELL, cfg.feed, cfg.cell.q_e, 0.0, grid, cfg.wavelength)
    entry = patterns._checked_grid(grid.tobytes())
    assert len(keys) == 2 and all(key is entry.key for key in keys)


@pytest.mark.parametrize(
    "phi, width", [(0.0, 16), (37.0, 160), (90.0, 10), (180.0, 16), (270.0, 10)]
)
def test_observation_table_has_one_column_per_distinct_in_plane_coordinate(board, cfg, phi, width):
    # on the board's phi = 0 and 180 planes the 10 elements of each row of
    # the lattice share w, on the 90 and 270 planes the 16 of each column;
    # at 37 degrees no two elements do
    table, inv = _observation_table(board, phi, cfg.wavelength, GRID.tobytes())
    assert table.shape == (GRID.size, width)
    assert table.dtype == complex and table.flags.c_contiguous and not table.flags.writeable
    assert inv.shape == (board.m_count * board.n_count,) and not inv.flags.writeable
    assert set(inv.tolist()) == set(range(width))
    w = in_plane_grid(board, phi).ravel()
    assert np.array_equal(np.unique(w)[inv], w)


@pytest.mark.parametrize("shape", [(16, 10), (7, 3), (5, 11)])
def test_phi_90_cut_equals_the_transposed_boards_phi_0_cut(shape, cfg):
    # swapping x and y maps the phi = 90 plane of an M x N board onto the
    # phi = 0 plane of the N x M board: the same coordinates, groups summed
    # in the same order, so the same bits
    m, n = shape
    geom, flipped = ArrayGeometry(m, n, 0.016), ArrayGeometry(n, m, 0.016)
    bits = np.random.default_rng(m * n).integers(0, 2, shape, dtype=np.uint8)
    mask, flipped_mask = CodingMask(geom, bits), CodingMask(flipped, bits.T)
    cut = array_factor_far(geom, mask, CELL, Direction(25.0, 90.0), 90.0, GRID, LAMBDA_BENCH)
    ref = array_factor_far(flipped, flipped_mask, CELL, Direction(25.0), 0.0, GRID, LAMBDA_BENCH)
    assert same_bits(cut.field, ref.field) and same_bits(cut.gain_db, ref.gain_db)
    feed, flipped_feed = FeedSpec(Point3(0.05, 0.02, 0.3)), FeedSpec(Point3(0.02, 0.05, 0.3))
    cut = pattern_nearfield(geom, mask, CELL, feed, 0.5, 90.0, GRID, LAMBDA_BENCH)
    ref = pattern_nearfield(flipped, flipped_mask, CELL, flipped_feed, 0.5, 0.0, GRID, LAMBDA_BENCH)
    assert same_bits(cut.field, ref.field)


def test_theta_column_cache_is_keyed_on_exact_bits(tmp_path):
    def first_theta(theta):
        cut = PatternCut(0.0, theta, np.ones(theta.size, complex))
        write_pattern_csv(cut, tmp_path / "cut.csv")
        expected = old_pattern_csv(cut.theta_deg, cut.gain_db, cut.field, {})
        assert (tmp_path / "cut.csv").read_bytes() == expected
        return (tmp_path / "cut.csv").read_text().splitlines()[1].split(",")[0]

    negative, positive = np.array([-0.0, 0.5]), np.array([0.0, 0.5])
    assert [first_theta(negative), first_theta(positive)] == ["-0.0000", "0.0000"]
    assert [first_theta(positive), first_theta(negative)] == ["0.0000", "-0.0000"]
    # a grid mutated in place after a write is formatted anew
    grid = np.array([-1.0, 0.5])
    assert first_theta(grid) == "-1.0000"
    grid[0] = -0.25
    assert first_theta(grid) == "-0.2500"


SPECIAL = [-math.inf, math.nan, -0.0, 0.0, 1e-300, -123.4567891, 5e5]


@settings(max_examples=40, deadline=None)
@given(
    gain=st.lists(st.sampled_from(SPECIAL) | st.floats(allow_nan=True), min_size=1, max_size=40),
    parts=st.lists(st.sampled_from(SPECIAL) | st.floats(), min_size=80, max_size=80),
)
def test_pattern_csv_bytes_equal_fstring_formatter(tmp_path_factory, gain, parts):
    theta = np.linspace(-90.0, 90.0, len(gain))
    field = np.array(parts[: 2 * len(gain)], dtype=float).view(complex)
    # the gain column is any float here, not the one a cut derives from its field
    gain = np.array(gain)
    comments = {"mode": "far", "steer_deg": -0.0, "frequency_hz": 5.5e9}
    path = tmp_path_factory.mktemp("cut") / "cut.csv"
    write_text(pattern_csv(pattern_grid_columns(theta), gain, field), path, comments)
    assert path.read_bytes() == old_pattern_csv(theta, gain, field, comments)


def test_pattern_csv_special_values():
    theta = np.array([-90.0, -0.0, 45.5])
    field = np.array([complex(-0.0, -0.0), complex(math.nan, math.inf), complex(-math.inf, 1e-310)])
    gain = np.array([-math.inf, math.nan, -0.0])
    body = pattern_csv(pattern_grid_columns(theta), gain, field)
    assert body.splitlines()[1:] == [
        "-90.0000,-inf,-0.000000000e+00,-0.000000000e+00",
        "-0.0000,nan,nan,inf",
        "45.5000,-0.000000,-inf,1.000000000e-310",
    ]
    assert body.encode() == old_pattern_csv(theta, gain, field, {})


@settings(max_examples=40, deadline=None)
@given(
    angles=st.lists(st.sampled_from(SPECIAL) | st.floats(), min_size=1, max_size=40),
    rssi=st.lists(st.sampled_from(SPECIAL) | st.floats(), min_size=40, max_size=40),
)
def test_sweep_csv_bytes_equal_fstring_formatter(tmp_path_factory, angles, rssi):
    trace = SweepTrace(np.array(angles), np.array(rssi[: len(angles)]))
    comments = {"truth_deg": 30.0, "seed": 3, "noise": "none (sigma_db=0)"}
    path = tmp_path_factory.mktemp("sweep") / "trace.csv"
    write_sweep_csv(trace, path, comments)
    assert path.read_bytes() == old_sweep_csv(trace, comments)
