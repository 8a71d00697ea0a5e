"""One feed horn for both kernels: the near-field cut and the link budget
read one feed taper, so the cut is the far-receiver limit of the
single-pass link sum, and a link reads alike with feed and receiver
swapped, exponents and all.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from risim import (
    Direction,
    FeedSpec,
    Point3,
    default_theta_grid,
    nearfield_steering_mask,
    parse_config,
    pattern_nearfield,
    received_power,
)

from test_pinned_outputs import NONDEFAULT


@pytest.mark.parametrize("env", [{}, NONDEFAULT], ids=["default", "nondefault"])
@pytest.mark.parametrize("steer", [0.0, 15.0, 30.0, -30.0, 45.0])
def test_near_cut_is_the_far_receiver_limit_of_the_single_pass_sum(env, steer):
    cfg = parse_config(None, env=env)
    geom, lam, c = cfg.geometry, cfg.wavelength, cfg.geometry.center()
    mask = nearfield_steering_mask(geom, cfg.feed.position, Direction.from_signed_theta(steer), lam)
    grid = default_theta_grid(1.0)
    cut = pattern_nearfield(geom, mask, cfg.cell, cfg.feed, cfg.cell.q_e, 0.0, grid, lam)
    inside = np.abs(grid) < 90.0
    seen = cut.gain_db[inside] > -20.0
    link = cfg.link.with_mask(mask)
    for d in (1e2, 1e3, 1e4):
        acc = np.array([
            received_power(
                link.with_rx(Point3(c.x + d * math.sin(th), c.y, c.z + d * math.cos(th))),
                "single_pass",
            ).accumulation_linear
            for th in np.radians(grid[inside])
        ])
        link_db = 20.0 * np.log10(acc / acc.max())
        gap = np.abs(link_db[seen] - cut.gain_db[inside][seen]).max()
        assert gap <= 20.0 / d, f"d = {d:g} m: {gap:.3g} dB"


points = st.builds(
    Point3,
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.05, max_value=10.0),
)
exponents = st.floats(min_value=0.0, max_value=10.0)


@settings(max_examples=60, deadline=None)
@given(a=points, b=points, q_a=exponents, q_b=exponents, q_e=st.floats(min_value=0.0, max_value=2.0))
@example(a=Point3(0.12, 0.072, 0.3), b=Point3(3.6555, 0.072, 3.5355), q_a=7.0, q_b=7.0, q_e=0.5)
@example(a=Point3(0.11, 0.065, 0.28), b=Point3(3.3, 0.05, 3.1), q_a=6.5, q_b=3.0, q_e=0.5)
def test_swapping_feed_and_receiver_keeps_the_sum(cfg, a, b, q_a, q_b, q_e):
    cell = replace(cfg.cell, q_e=q_e)
    there = replace(cfg.link, feed=FeedSpec(a, q_a), rx=b, q_r=q_b, cell=cell)
    back = replace(cfg.link, feed=FeedSpec(b, q_b), rx=a, q_r=q_a, cell=cell)
    acc = [received_power(sc, "none").accumulation_linear for sc in (there, back)]
    assert acc[1] == pytest.approx(acc[0], rel=1e-12, abs=0.0)
