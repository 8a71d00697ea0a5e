"""The bulk column formatter behind write_pattern_csv, value by value against
`%`, and the `# key = value` header all three writers share.

Each column spec ("%.4f" theta, "%.6f" gain, "%.9e" re and im) must give the
bytes `%` gives for every float: realistic values, values a few ulps from a
rounding tie, values whose rounding carries into a new digit or exponent,
exponents of two and three digits, subnormals, zeros and non-finite values.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risim import (
    BOARD_GEOMETRY,
    Direction,
    DomainError,
    PatternCut,
    SweepTrace,
    array_factor_far,
    default_theta_grid,
    farfield_steering_mask,
    nearfield_steering_mask,
    pattern_nearfield,
    read_frame,
    serialize_mask,
    write_frame,
    write_pattern_csv,
    write_sweep_csv,
)
from risim import patterns
from risim.patterns import _exp_fields, _fixed_fields

SPECS = [(4, "f"), (6, "f"), (9, "e")]


def assert_formats_like_percent(values, p, kind):
    x = np.array(values, dtype=float)
    fields = (_exp_fields if kind == "e" else _fixed_fields)(x, p)
    assert fields.T.tobytes().translate(None, b"\0") == "".join(
        f"%.{p}{kind}" % v for v in x.tolist()
    ).encode()


def ulps_away(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@settings(max_examples=60, deadline=None)
@given(
    theta=st.lists(st.floats(-90.0, 90.0), min_size=1, max_size=60),
    gain=st.lists(st.floats(-6500.0, 0.0), min_size=1, max_size=60),
    parts=st.lists(st.floats(-1e4, 1e4) | st.floats(1e-13, 1e31), min_size=1, max_size=60),
)
def test_realistic_columns_format_like_percent(theta, gain, parts):
    assert_formats_like_percent(theta, 4, "f")
    assert_formats_like_percent(gain, 6, "f")
    assert_formats_like_percent(parts, 9, "e")
    assert_formats_like_percent([-v for v in parts], 9, "e")


@settings(max_examples=60, deadline=None)
@given(
    whole=st.integers(0, 10**10),
    spec=st.sampled_from(SPECS[:2]),
    steps=st.integers(-4, 4),
    negative=st.booleans(),
)
def test_fixed_near_ties_format_like_percent(whole, spec, steps, negative):
    p, kind = spec
    tie = (whole + 0.5) / 10**p
    x = ulps_away(-tie if negative else tie, steps)
    assert_formats_like_percent([x, tie, -tie], p, kind)


@settings(max_examples=60, deadline=None)
@given(
    mantissa=st.integers(10**9, 10**10 - 1),
    exponent=st.integers(-30, 40),
    steps=st.integers(-4, 4),
)
def test_exp_near_ties_format_like_percent(mantissa, exponent, steps):
    tie = float(f"{mantissa}5e{exponent - 10}")
    assert_formats_like_percent([ulps_away(tie, steps), tie, -tie], 9, "e")


CARRIES = [
    9.9999999995e-3, 9.99999999949e-3, 9.999999999500001e-3, 99.99999999951, 9.9999999995e30,
    9.9999999996e-14, 0.99995, 89.99995, 89.999949999, 9.9999995, 0.9999995, 999.9999996,
]


@pytest.mark.parametrize("p, kind", SPECS)
def test_carries_format_like_percent(p, kind):
    assert_formats_like_percent(CARRIES + [-v for v in CARRIES], p, kind)


EXPONENTS = [1e-99, 1e-100, 1.5e-150, 9.99999999995e99, 1e100, 1e300, 1.7976931348623157e308]
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308, 1e-310]


@pytest.mark.parametrize("p, kind", SPECS)
def test_wide_exponents_and_special_values_format_like_percent(p, kind):
    values = EXPONENTS + SPECIAL
    assert_formats_like_percent(values + [-v for v in values], p, kind)


def test_default_cuts_rarely_fall_back_to_percent(cfg, monkeypatch, tmp_path):
    """On the default far and near cuts at steer 30 nearly every value takes
    the bulk path; a slide into formatting everything with `%` fails here."""
    left_out = []

    def counting(fields, x, ok, spec):
        left_out.append(int(np.count_nonzero(~ok)))
        return fallback(fields, x, ok, spec)

    fallback = patterns._with_fallback
    monkeypatch.setattr(patterns, "_with_fallback", counting)
    geom, cell, grid, steer = cfg.geometry, cfg.cell, default_theta_grid(), Direction(30.0)
    far = farfield_steering_mask(geom, steer, cfg.wavelength)
    near = nearfield_steering_mask(geom, cfg.feed.position, steer, cfg.wavelength)
    cuts = [
        array_factor_far(geom, far, cell, Direction(0.0), 0.0, grid, cfg.wavelength),
        pattern_nearfield(geom, near, cell, cfg.feed, cell.q_e, 0.0, grid, cfg.wavelength),
    ]
    for cut in cuts:
        left_out.clear()
        patterns._checked_grid.cache_clear()  # so the theta column is formatted here
        write_pattern_csv(cut, tmp_path / "cut.csv")
        assert len(left_out) == 3 and sum(left_out) <= 6, left_out


TRACE = SweepTrace(np.array([0.0, 1.0]), np.array([-50.0, -40.0]))
FRAME = serialize_mask(farfield_steering_mask(BOARD_GEOMETRY, Direction(30.0), 0.05))
CUT = PatternCut(0.0, np.array([-90.0, 0.0, 90.0]), np.ones(3, complex), np.zeros(3))
WRITERS = {
    "pattern": lambda path, comments: write_pattern_csv(CUT, path, comments),
    "sweep": lambda path, comments: write_sweep_csv(TRACE, path, comments),
    "frame": lambda path, comments: write_frame(FRAME, path, comments),
}


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize(
    "comments",
    [{"note": "a\nb"}, {"note": "a\r"}, {"a\nb": 1}, {"note": "a\u2028b"}, {"note": "\x0c"}],
)
def test_writers_reject_a_header_with_a_line_break(tmp_path, writer, comments):
    path = tmp_path / "out"
    with pytest.raises(DomainError, match="must not contain a line break"):
        WRITERS[writer](path, comments)
    assert not path.exists()


@pytest.mark.parametrize("writer", WRITERS)
def test_writers_share_one_header(tmp_path, writer):
    path = tmp_path / "out"
    WRITERS[writer](path, {"mode": "near", "steer_deg": -0.0, "noise": "none (sigma_db=0)"})
    header = "# mode = near\n# steer_deg = -0.0\n# noise = none (sigma_db=0)\n"
    assert path.read_text().startswith(header)
    if writer == "frame":
        assert read_frame(path) == FRAME
