"""Hardware-facing helpers: LED bias-resistor sizing and the 20-register
shift-chain bitstream for the 16x10 control board."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import ArrayGeometry
from .masks import CodingMask
from .patterns import _comment_header

# the fabricated board: 16 columns along x, 10 rows along y, 16 mm pitch
BOARD_GEOMETRY = ArrayGeometry(16, 10, 0.016)
FRAME_OCTETS = 20


@dataclass(frozen=True)
class RegisterFrame:
    """One shift-chain refresh: 20 octets, one bit per diode."""

    octets: bytes

    def __post_init__(self) -> None:
        if len(self.octets) != FRAME_OCTETS:
            raise DomainError(f"frame must hold {FRAME_OCTETS} octets, got {len(self.octets)}")

    def to_hex(self) -> str:
        return self.octets.hex().upper()


def bias_resistor(v_source: float, v_led: float, v_pin: float, i_forward: float) -> float:
    """Series resistor dropping the supply across the LED + diode string."""
    numerator = v_source - v_led - v_pin
    if numerator <= 0:
        raise DomainError(
            f"source voltage {v_source} must exceed the LED + diode drop {v_led + v_pin}"
        )
    if i_forward <= 0:
        raise DomainError(f"forward current must be > 0, got {i_forward}")
    return numerator / i_forward


def serialize_mask(mask: CodingMask) -> RegisterFrame:
    """Pack a 16x10 mask into the shift-chain frame.

    Diode k = (n-1)*16 + m (each y-row swept along x); register ceil(k/8)
    holds diodes 8(r-1)+1 .. 8r, most significant bit first. The frame
    format is fixed to the 16x10 board.
    """
    if (mask.geom.m_count, mask.geom.n_count) != (16, 10):
        raise DomainError(
            f"frame format is fixed to a 16x10 board, got "
            f"{mask.geom.m_count}x{mask.geom.n_count}"
        )
    flat = mask.bits.T.ravel()  # n-major, m-fast: diode order k = (n-1)*16 + m
    return RegisterFrame(bytes(np.packbits(flat)))


def deserialize_frame(frame: RegisterFrame) -> CodingMask:
    """Exact inverse of serialize_mask, on the standard board geometry."""
    flat = np.unpackbits(np.frombuffer(frame.octets, dtype=np.uint8))
    bits = flat.reshape(BOARD_GEOMETRY.n_count, BOARD_GEOMETRY.m_count).T
    return CodingMask(BOARD_GEOMETRY, bits)


def write_frame(frame: RegisterFrame, path, comments: dict | None = None) -> None:
    """Frame file: optional `#` comment lines, then 40 uppercase hex chars."""
    header = _comment_header(comments)
    with open(path, "w") as fh:
        fh.write(header + frame.to_hex() + "\n")


def read_frame(path) -> RegisterFrame:
    """Parse a frame file written by write_frame."""
    with open(path) as fh:
        payload = [line.strip() for line in fh if line.strip() and not line.lstrip().startswith("#")]
    if len(payload) != 1 or len(payload[0]) != 2 * FRAME_OCTETS:
        raise DomainError(f"frame file must hold one line of {2 * FRAME_OCTETS} hex characters")
    try:
        octets = bytes.fromhex(payload[0])
    except ValueError as exc:
        raise DomainError(f"invalid hex in frame file: {exc}") from exc
    return RegisterFrame(octets)
