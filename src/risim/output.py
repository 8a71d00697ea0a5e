"""Every file risim writes: the `# key = value` header, the pattern CSV's
bulk column formatter, one text writer and one strict-JSON serializer.

Every file opens with the header written here, and every JSON file is
written here; the pattern CSV's columns are laid out here, while the sweep
CSV and the frame file format their own bodies.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import DomainError


def _comment_header(comments: dict | None) -> str:
    """The `# key = value` lines every writer opens with. A key or value with
    a line break would split its line and leave a file its reader rejects."""
    lines = []
    for key, value in (comments or {}).items():
        line = f"# {key} = {value}"
        if line.splitlines() != [line]:
            raise DomainError(f"comment line {line!r} must not contain a line break")
        lines.append(line + "\n")
    return "".join(lines)


def write_text(body: str, path, comments: dict | None = None) -> None:
    """The `#` header of comments, then body, written to path; the header is
    built before the file is opened, so a refused one writes nothing."""
    text = _comment_header(comments) + body
    with open(path, "w") as fh:
        fh.write(text)


def read_payload(path) -> list[str]:
    """The stripped lines of a text file that are neither blank nor `#` lines."""
    with open(path) as fh:
        return [line.strip() for line in fh if line.strip() and not line.lstrip().startswith("#")]


def to_json(doc: dict) -> str:
    """doc as strict JSON, indent 2: a top-level non-finite float is null,
    one nested deeper raises ValueError."""
    doc = {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in doc.items()}
    return json.dumps(doc, indent=2, allow_nan=False)


def write_json(doc: dict, path) -> None:
    """to_json(doc) and a newline, written to path; a refused doc writes nothing."""
    write_text(to_json(doc) + "\n", path)


def pattern_grid_columns(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What every pattern CSV on one theta grid shares: the "%.4f" field
    matrix of the theta column, and the comma and newline rows, each (1, T)."""
    comma, newline = (np.full((1, theta.size), ord(c), np.uint8) for c in ",\n")
    return _fixed_fields(theta, 4), comma, newline


def pattern_csv(grid_columns, gain_db: np.ndarray, field: np.ndarray) -> str:
    """The pattern CSV after its header: theta_deg,gain_db,re,im rows, byte
    for byte as "%.4f,%.6f,%.9e,%.9e" writes them but a column at a time.
    grid_columns is pattern_grid_columns of the cut's theta grid."""
    theta_fields, comma, newline = grid_columns
    rows = theta_fields.shape[1]
    parts = _exp_fields(np.concatenate([field.real, field.imag], dtype=float), 9)
    columns = [theta_fields, comma, _fixed_fields(gain_db, 6), comma]
    columns += [parts[:, :rows], comma, parts[:, rows:], newline]
    body = np.concatenate(columns).T.tobytes().translate(None, b"\0")
    return "theta_deg,gain_db,re,im\n" + body.decode("ascii")


# Bulk column formatting: the bytes of "%.{p}f" % v and "%.{p}e" % v for a
# whole column at once, from numpy arithmetic. |v| is scaled to a count of the
# last printed digit by one exact power of ten (10**k is exact in a float for
# k <= 22, as 5**22 < 2**53), so the scaled value carries a single rounding, and it is
# rounded to an integer only where that rounding cannot have moved it across a
# half-integer. Any other value is formatted by `%` itself, in its own slot.
# Each column is a (width, rows) uint8 matrix, NUL where a row prints nothing.
_POW10 = np.array([10**k for k in range(23)], dtype=float)
# The largest |v| * 10**p the fixed-point fast path admits; it holds every
# finite gain a normalized cut can reach (>= -6,466 dB, 6.5e9 at p = 6).
_FIXED_LIMIT = 2.0**35
_MINUS, _PLUS, _POINT, _ZERO = b"-+.0"


def _round_clear(scaled: np.ndarray, ok: np.ndarray, limit: float) -> np.ndarray:
    """The scaled values rounded to integers, clearing ok wherever the result
    is not certain. A value below limit lies within half an ulp, at most
    limit * 2**-53, of the exact product, so it rounds like that product when
    its fraction is farther than this from 1/2. With limit <= 2**53 the
    integers stay exact through the digit arithmetic."""
    whole = np.floor(scaled)
    frac = scaled - whole
    ok &= (scaled < limit) & (np.abs(frac - 0.5) > limit * 2.0**-53)
    return whole + (frac > 0.5)


def _with_fallback(fields: np.ndarray, x: np.ndarray, ok: np.ndarray, spec: str) -> np.ndarray:
    """Write spec % v into the slot of every value v the fast path left out,
    widening every slot if one of those strings is longer."""
    (bad,) = np.nonzero(~ok)
    if bad.size:
        texts = [(spec % v).encode() for v in x[bad].tolist()]
        width = max(map(len, texts))
        if width > len(fields):
            fields = np.pad(fields, ((0, width - len(fields)), (0, 0)))
        fields[:, bad] = 0
        for col, text in zip(bad.tolist(), texts):
            fields[: len(text), col] = np.frombuffer(text, np.uint8)
    return fields


def _point_fields(
    x: np.ndarray, n: np.ndarray, ok: np.ndarray, p: int, spec: str, *suffix
) -> np.ndarray:
    """Each v in x as spec % v: its sign, the digits of the integer-valued
    floats n (below 2**53, so each float quotient by 10**j floors exactly)
    without leading zeros and with a point ahead of the last p, then one row
    per suffix entry; `%` writes each slot where ok is false."""
    count = max(p + 1, len(str(int(n.max(initial=0.0)))))
    quot = np.floor(n / _POW10[count - 1 :: -1, None])
    digits = quot.copy()
    digits[1:] -= 10.0 * quot[:-1]
    ints = count - p
    fields = np.empty((count + 2 + len(suffix), len(x)), np.uint8)
    fields[0] = np.signbit(x) * _MINUS
    np.add(digits[:ints], _ZERO, out=fields[1 : ints + 1], casting="unsafe")
    fields[1:ints] *= quot[: ints - 1] > 0
    fields[ints + 1] = _POINT
    np.add(digits[ints:], _ZERO, out=fields[ints + 2 : count + 2], casting="unsafe")
    for row, values in enumerate(suffix, count + 2):
        fields[row] = values
    return _with_fallback(fields, x, ok, spec)


def _fixed_fields(x: np.ndarray, p: int) -> np.ndarray:
    """Each v in x as "%.{p}f" % v, p >= 1: sign, integer digits, point and
    p decimals."""
    ax = np.abs(x)
    ok = ax < _FIXED_LIMIT / _POW10[p]  # false for nan and inf
    n = _round_clear(np.where(ok, ax, 0.0) * _POW10[p], ok, _FIXED_LIMIT)
    n[~ok] = 0.0
    return _point_fields(x, n, ok, p, f"%.{p}f")


def _exp_fields(x: np.ndarray, p: int) -> np.ndarray:
    """Each v in x as "%.{p}e" % v, p >= 1: sign, p + 1 digits around the
    point, then e and a signed two-digit exponent.

    The exponent comes from log10; where that is off by one, the scaled
    mantissa falls outside [10**p, 10**(p+1)) and the value goes to `%`, as
    do zeros, non-finite values and exponents that need 10**k with k > 22.
    """
    ax = np.abs(x)
    ok = np.isfinite(ax) & (ax > 0)
    ax[~ok] = 1.0  # keeps log10 and the scaling below free of inf and nan
    exp = np.floor(np.log10(ax))
    k = p - exp
    ok &= np.abs(k) <= 22
    scale = _POW10[np.where(ok, np.abs(k), 0.0).astype(np.intp)]
    scaled = np.where(k >= 0, ax * scale, ax / scale)
    ok &= scaled >= _POW10[p]
    n = _round_clear(scaled, ok, _POW10[p + 1])
    carry = n == _POW10[p + 1]  # 9.99...95 rounds up to 10.00...0
    n[carry] = _POW10[p]
    exp += carry
    n[~ok] = _POW10[p]
    exp[~ok] = 0.0
    mag = np.abs(exp).astype(np.uint8)  # |exp| <= p + 22 < 100 on the fast path
    sign = np.where(exp < 0, _MINUS, _PLUS)
    return _point_fields(x, n, ok, p, f"%.{p}e", ord("e"), sign, mag // 10 + _ZERO, mag % 10 + _ZERO)
