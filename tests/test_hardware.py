import numpy as np
import pytest
from hypothesis import given, strategies as st

from risim import (
    BOARD_GEOMETRY,
    CodingMask,
    DomainError,
    RegisterFrame,
    bias_resistor,
    deserialize_frame,
    read_frame,
    serialize_mask,
    write_frame,
)


def test_bias_resistor_board_values():
    assert bias_resistor(3.15, 1.8, 0.9, 0.008) == pytest.approx(56.25)


def test_bias_resistor_reduces_to_ohms_law():
    assert bias_resistor(5.0, 0.0, 0.0, 0.01) == pytest.approx(500.0)


def test_bias_resistor_errors():
    with pytest.raises(DomainError):
        bias_resistor(2.0, 1.8, 0.9, 0.008)
    with pytest.raises(DomainError):
        bias_resistor(3.15, 1.8, 0.9, 0.0)


@given(
    st.floats(0.5, 10.0),
    st.floats(1e-4, 0.1),
    st.floats(0.1, 100.0),
)
def test_bias_resistor_scale_invariance(headroom, current, scale):
    base = bias_resistor(headroom + 2.7, 1.8, 0.9, current)
    scaled = bias_resistor(scale * (headroom + 2.7), scale * 1.8, scale * 0.9, scale * current)
    assert scaled == pytest.approx(base, rel=1e-9)


def test_serialize_all_zero():
    mask = CodingMask(BOARD_GEOMETRY, np.zeros((16, 10), dtype=np.uint8))
    frame = serialize_mask(mask)
    assert frame.octets == bytes(20)
    assert frame.to_hex() == "00" * 20


def test_serialize_first_diode_msb():
    bits = np.zeros((16, 10), dtype=np.uint8)
    bits[0, 0] = 1  # diode k = 1: register 1, most significant bit
    frame = serialize_mask(CodingMask(BOARD_GEOMETRY, bits))
    assert frame.octets[0] == 0x80
    assert frame.octets[1:] == bytes(19)


def test_serialize_row_order():
    # diode k = (n-1)*16 + m: element (m=1, n=2) is diode 17, register 3 MSB
    bits = np.zeros((16, 10), dtype=np.uint8)
    bits[0, 1] = 1
    frame = serialize_mask(CodingMask(BOARD_GEOMETRY, bits))
    assert frame.octets[2] == 0x80
    # element (m=9, n=1) is diode 9, register 2 MSB
    bits = np.zeros((16, 10), dtype=np.uint8)
    bits[8, 0] = 1
    assert serialize_mask(CodingMask(BOARD_GEOMETRY, bits)).octets[1] == 0x80


def test_round_trip_random_masks(rng):
    for _ in range(100):
        mask = CodingMask(BOARD_GEOMETRY, rng.integers(0, 2, (16, 10)))
        back = deserialize_frame(serialize_mask(mask))
        assert np.array_equal(back.bits, mask.bits)


def test_serialize_rejects_other_boards():
    from risim import ArrayGeometry

    geom = ArrayGeometry(8, 8, 0.016)
    with pytest.raises(DomainError):
        serialize_mask(CodingMask(geom, np.zeros((8, 8), dtype=np.uint8)))


def test_register_frame_validation():
    with pytest.raises(DomainError):
        RegisterFrame(bytes(19))
    with pytest.raises(DomainError):
        RegisterFrame(bytes(21))
    assert RegisterFrame(bytes([0xAB] + [0] * 19)).to_hex().startswith("AB")


def test_frame_file_round_trip(tmp_path, rng):
    mask = CodingMask(BOARD_GEOMETRY, rng.integers(0, 2, (16, 10)))
    frame = serialize_mask(mask)
    path = tmp_path / "frame.hex"
    write_frame(frame, path, {"steer_deg": 30.0})
    text = path.read_text()
    assert text.startswith("# steer_deg = 30.0\n")
    line = text.splitlines()[-1]
    assert len(line) == 40 and line == line.upper()
    assert read_frame(path).octets == frame.octets


def test_read_frame_rejects_bad_payloads(tmp_path):
    short = tmp_path / "short.hex"
    short.write_text("00FF\n")
    with pytest.raises(DomainError):
        read_frame(short)
    bad = tmp_path / "bad.hex"
    bad.write_text("ZZ" * 20 + "\n")
    with pytest.raises(DomainError):
        read_frame(bad)
    multi = tmp_path / "multi.hex"
    multi.write_text("00" * 20 + "\n" + "11" * 20 + "\n")
    with pytest.raises(DomainError):
        read_frame(multi)
