"""The per-grid cache of the cut kernels, the main-lobe walk of
pattern_metrics and PatternCut's stored dtypes."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from risim import (
    Direction,
    DomainError,
    PatternCut,
    array_factor_far,
    default_theta_grid,
    farfield_steering_mask,
    nearfield_steering_mask,
    pattern_metrics,
    pattern_nearfield,
    write_pattern_csv,
)
from risim.patterns import _checked_grid, _main_lobe_span


def loop_lobe_span(mags, peak):
    """The walk as two while loops, one sample at a time: the reference."""
    lo = peak
    while lo > 0 and mags[lo - 1] < mags[lo]:
        lo -= 1
    hi = peak
    while hi < len(mags) - 1 and mags[hi + 1] < mags[hi]:
        hi += 1
    return lo, hi


def default_cut(cfg, mode, steer, grid=None):
    """The cut `risim pattern --mode <mode> --steer <steer>` writes."""
    geom, cell, steer_dir = cfg.geometry, cfg.cell, Direction.from_signed_theta(steer)
    grid = default_theta_grid() if grid is None else grid
    if mode == "near":
        mask = nearfield_steering_mask(geom, cfg.feed.position, steer_dir, cfg.wavelength)
        return pattern_nearfield(geom, mask, cell, cfg.feed, cell.q_e, 0.0, grid, cfg.wavelength)
    mask = farfield_steering_mask(geom, steer_dir, cfg.wavelength)
    return array_factor_far(geom, mask, cell, Direction(0.0), 0.0, grid, cfg.wavelength)


# few distinct levels, so plateaus and exact ties are common; NaN and inf too
LEVELS = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0, 2.0, 3.0, math.inf, math.nan])
MAGS = st.lists(st.one_of(LEVELS, st.floats(0.0, 10.0)), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(MAGS)
@example([1.0])
@example([3.0, 2.0, 1.0, 1.0, 0.5])  # main lobe at the left end, a plateau
@example([0.5, 1.0, 2.0, 3.0])  # main lobe at the right end
@example([1.0, math.nan, 2.0, 3.0, 2.0, math.nan, 1.0])
@example([2.0, 2.0, 2.0])
def test_vectorized_walk_equals_the_loops(values):
    mags = np.array(values)
    for peak in range(len(mags)):
        assert _main_lobe_span(mags, peak) == loop_lobe_span(mags, peak)


@pytest.mark.parametrize("steer", [0, 30, -30, 45])
@pytest.mark.parametrize("mode", ["far", "near"])
def test_walk_on_the_pinned_cuts(cfg, mode, steer):
    mags = np.abs(default_cut(cfg, mode, steer).field)
    for peak in range(len(mags)):
        assert _main_lobe_span(mags, peak) == loop_lobe_span(mags, peak)


def test_cut_from_lists_gives_the_same_metrics_and_csv(cfg, tmp_path):
    cut = default_cut(cfg, "far", 30)
    listed = PatternCut(0.0, cut.theta_deg.tolist(), cut.field.tolist())
    assert listed.theta_deg.dtype == listed.gain_db.dtype == float
    assert listed.field.dtype == complex
    assert pattern_metrics(listed) == pattern_metrics(cut)
    write_pattern_csv(cut, tmp_path / "arrays.csv")
    write_pattern_csv(listed, tmp_path / "lists.csv")
    assert (tmp_path / "lists.csv").read_bytes() == (tmp_path / "arrays.csv").read_bytes()


def test_grid_values_are_checked_once_across_fifty_cuts(cfg, tmp_path):
    # _ThetaGrid checks its values as it is built, so the checks run exactly on a miss
    _checked_grid.cache_clear()
    for k in range(50):
        cut = default_cut(cfg, ("far", "near")[k % 2], 5 + k)
        pattern_metrics(cut)
        write_pattern_csv(cut, tmp_path / "cut.csv")
    info = _checked_grid.cache_info()
    assert (info.misses, info.maxsize) == (1, 1) and info.hits >= 50


def test_invalid_grid_raises_on_every_call(cfg):
    valid, bad = np.array([-10.0, 0.0, 10.0]), np.array([-10.0, 10.0, 0.0])
    for _ in range(2):
        default_cut(cfg, "far", 30, valid)
        for _ in range(2):
            with pytest.raises(DomainError, match="strictly increasing"):
                default_cut(cfg, "far", 30, bad)
            with pytest.raises(DomainError, match="strictly increasing"):
                PatternCut(0.0, bad, np.ones(3, complex))


def test_grid_mutated_after_a_cut_is_checked_again_and_the_cut_keeps_its_grid(cfg, tmp_path):
    grid = default_theta_grid()
    cut = default_cut(cfg, "near", 30, grid)
    grid[5] = grid[4]
    with pytest.raises(DomainError, match="strictly increasing"):
        default_cut(cfg, "near", 30, grid)
    # the cut holds its own checked grid: its CSV and metrics are those of the grid it was computed on
    fresh = default_cut(cfg, "near", 30)
    write_pattern_csv(cut, tmp_path / "cut.csv")
    write_pattern_csv(fresh, tmp_path / "fresh.csv")
    assert (tmp_path / "cut.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    assert pattern_metrics(cut) == pattern_metrics(fresh)


def test_signed_zero_starts_get_separate_entries():
    negative, positive = np.array([-0.0, 1.0]), np.array([0.0, 1.0])
    _checked_grid.cache_clear()
    first = _checked_grid(negative.tobytes())
    second = _checked_grid(positive.tobytes())
    assert first is not second
    assert _checked_grid.cache_info().misses == 2
    assert np.signbit(first.theta[0]) and not np.signbit(second.theta[0])


def test_default_grid_is_a_fresh_writable_copy():
    grid = default_theta_grid()
    assert grid.flags.writeable
    assert default_theta_grid() is not grid
    grid[:] = 0.0
    assert np.array_equal(default_theta_grid(), np.linspace(-90.0, 90.0, 721))
