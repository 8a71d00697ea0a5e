"""Objects that check their arrays keep read-only copies: an edit to the
caller's array after construction, valid or not, changes nothing in the
object, and writing into the object's arrays raises."""

import numpy as np
import pytest

from risim import (
    Codebook,
    CodingMask,
    Direction,
    PatternCut,
    PhaseMask,
    SweepTrace,
    array_factor_far,
    default_theta_grid,
    estimate_angle,
    farfield_steering_mask,
    pattern_metrics,
    quantize_1bit,
    write_pattern_csv,
)


def far_cut(cfg, grid):
    """The far cut `risim pattern --steer 30` writes, on the given grid."""
    mask = farfield_steering_mask(cfg.geometry, Direction(30.0), cfg.wavelength)
    return array_factor_far(cfg.geometry, mask, cfg.cell, Direction(0.0), 0.0, grid, cfg.wavelength)


def kernel_cut(cfg):
    theta = default_theta_grid()

    def edit(valid):
        if valid:
            theta[:] = theta * 0.5
        else:
            theta[5] = theta[4]

    return far_cut(cfg, theta), ["theta_deg", "field", "gain_db"], [theta], edit


def constructed_cut(cfg):
    theta = np.array([-10.0, 0.0, 10.0])
    field = np.array([1.0, 2.0, 1.0], complex)

    def edit(valid):
        theta[2] = 5.0 if valid else -50.0
        field[:] = [4.0, 1.0, 1.0] if valid else np.nan

    cut = PatternCut(0.0, theta, field)
    return cut, ["theta_deg", "field", "gain_db"], [theta, field], edit


def codebook(cfg):
    geom = cfg.geometry
    angles = np.array([10.0, 20.0, 30.0])
    bits = np.zeros((3, geom.m_count, geom.n_count), np.uint8)
    bits[0, ::2] = 1

    def edit(valid):
        if valid:
            angles[:] = [11.0, 21.0, 31.0]
            bits[1] = 1
        else:
            angles[:] = [30.0, 20.0, 10.0]
            bits[1] = 7

    return Codebook(geom, angles, bits), ["angles", "bits"], [angles, bits], edit


def coding_mask(cfg):
    bits = np.zeros((cfg.geometry.m_count, cfg.geometry.n_count), np.uint8)

    def edit(valid):
        bits[0, 0] = 1 if valid else 7

    return CodingMask(cfg.geometry, bits), ["bits"], [bits], edit


def phase_mask(cfg):
    phases = np.full((cfg.geometry.m_count, cfg.geometry.n_count), 90.0)

    def edit(valid):
        phases[:] = 180.0 if valid else 450.0

    return PhaseMask(cfg.geometry, phases), ["phases_deg"], [phases], edit


def sweep_trace(cfg):
    angles, rssi = np.array([0.0, 1.0, 2.0]), np.array([-80.0, -70.0, -75.0])

    def edit(valid):
        rssi[1] = -90.0 if valid else np.nan
        angles[:] = [3.0, 2.0, 1.0] if valid else [1.0, 1.0, np.inf]

    return SweepTrace(angles, rssi), ["steer_deg", "rssi_dbm"], [angles, rssi], edit


@pytest.mark.parametrize("build", [kernel_cut, constructed_cut, codebook, coding_mask, phase_mask, sweep_trace])
def test_edits_to_the_caller_arrays_leave_the_object_unchanged(cfg, build):
    obj, names, callers, edit = build(cfg)
    before = [getattr(obj, name).copy() for name in names]
    for valid in (True, False):
        edit(valid)
        for name, held in zip(names, before):
            assert np.array_equal(getattr(obj, name), held)
    for name in names:
        held = getattr(obj, name)
        for caller in callers:
            assert not np.shares_memory(held, caller)
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 0
    if isinstance(obj, PhaseMask):
        assert quantize_1bit(obj).bits.all()
    if isinstance(obj, SweepTrace):
        assert estimate_angle(obj) == 1.0


def test_halving_the_grid_after_a_far_cut_leaves_the_cut(cfg, tmp_path):
    grid = default_theta_grid()
    cut = far_cut(cfg, grid)
    grid *= 0.5
    assert pattern_metrics(cut).main_lobe_deg == 29.75
    write_pattern_csv(cut, tmp_path / "cut.csv")
    write_pattern_csv(far_cut(cfg, default_theta_grid()), tmp_path / "fresh.csv")
    assert (tmp_path / "cut.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
