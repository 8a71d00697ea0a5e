import math
from dataclasses import replace

import numpy as np
import pytest

from risim import (
    ArrayGeometry,
    Codebook,
    CodingMask,
    Direction,
    DomainError,
    LinkScenario,
    NoiseModel,
    Point3,
    SweepTrace,
    UnitCellReflection,
    default_theta_grid,
    estimate_angle,
    pattern_metrics,
    pattern_nearfield,
    received_power,
    rmse,
    simulate_sweep,
    ue_point,
    write_sweep_csv,
)
from risim.masks import CodebookEntry


@pytest.fixture(scope="module")
def bench(cfg):
    return cfg.link


@pytest.fixture(scope="module")
def codebook(cfg):
    return cfg.steering_codebook()


def sweep_at(codebook, bench, truth_deg, noise=NoiseModel(), seed=None):
    return simulate_sweep(codebook, Direction(truth_deg), bench, noise, seed)


def test_codebook_shape(codebook):
    assert len(codebook.entries) == 41
    angles = codebook.angles_deg()
    assert angles[0] == 0.0 and angles[-1] == 60.0
    assert np.allclose(np.diff(angles), 1.5)


def test_codebook_and_sweep_build_no_per_entry_objects(cfg, monkeypatch):
    built = []

    def counting(init):
        def wrapper(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        return wrapper

    for cls in (CodingMask, CodebookEntry):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    codebook = cfg.steering_codebook()
    for truth in (30.0, 45.0):
        simulate_sweep(codebook, Direction(truth), cfg.link)
    assert built == []
    # the per-entry view still builds on demand, so the counter does count
    assert len(codebook.entries) == 41
    assert sorted(set(built)) == ["CodebookEntry", "CodingMask"] and len(built) == 82


def test_sweep_truths_build_no_link_scenario(cfg, monkeypatch):
    built = []
    init = LinkScenario.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LinkScenario, "__init__", counting)
    codebook = cfg.steering_codebook()
    for truth in (30.0, 45.0):
        simulate_sweep(codebook, Direction(truth), cfg.link)
    assert built == []
    # placing the user by a scenario copy does build one, so the counter counts
    cfg.link.with_rx(ue_point(Direction(30.0), cfg.link))
    assert built == ["LinkScenario"]


def test_sweep_user_on_the_surface_raises_the_receiver_check(cfg):
    # z = 1e-160 squares to a subnormal, but the user 89.99 deg off axis sits
    # at z ~ 1.7e-164, whose square underflows to 0
    c = cfg.geometry.center()
    scenario = replace(cfg.link, rx=Point3(c.x, c.y, 1e-160))
    text = "rx must sit off the surface (z > 0 and z*z > 0), got z=1.7453292431338716e-164"
    with pytest.raises(DomainError) as swept:
        simulate_sweep(cfg.steering_codebook(), Direction(89.99), scenario)
    assert str(swept.value) == text
    with pytest.raises(DomainError) as moved:
        scenario.with_rx(ue_point(Direction(89.99), scenario))
    assert str(moved.value) == text


@pytest.mark.parametrize("truth", [0.0, 15.0, 30.0, 45.0, 60.0])
def test_noiseless_peak_at_codebook_angles(codebook, bench, truth):
    trace = sweep_at(codebook, bench, truth)
    assert estimate_angle(trace) == truth


def test_ue_at_45_has_single_dominant_peak(codebook, bench):
    trace = sweep_at(codebook, bench, 45.0)
    best = int(np.argmax(trace.rssi_dbm))
    assert trace.steer_deg[best] == 45.0
    # neighbor beams overlap (1.5 deg spacing vs a several-degree beam), so
    # dominance means standing far above everything outside the main beam
    away = np.abs(trace.steer_deg - 45.0) > 9.0
    assert trace.rssi_dbm[best] - trace.rssi_dbm[away].max() > 3.0
    assert trace.rssi_dbm[best] - np.median(trace.rssi_dbm) > 10.0


def test_same_seed_identical_traces(codebook, bench):
    noise = NoiseModel("gaussian_db", 1.0)
    a = sweep_at(codebook, bench, 30.0, noise, seed=7)
    b = sweep_at(codebook, bench, 30.0, noise, seed=7)
    assert np.array_equal(a.rssi_dbm, b.rssi_dbm)
    c = sweep_at(codebook, bench, 30.0, noise, seed=8)
    assert not np.array_equal(a.rssi_dbm, c.rssi_dbm)


def test_zero_sigma_gaussian_is_noiseless(codebook, bench):
    quiet = sweep_at(codebook, bench, 30.0, NoiseModel("gaussian_db", 0.0), seed=3)
    clean = sweep_at(codebook, bench, 30.0)
    assert np.array_equal(quiet.rssi_dbm, clean.rssi_dbm)


def test_sweep_rejects_a_codebook_on_another_geometry(codebook, bench):
    other = Codebook(ArrayGeometry(16, 10, 0.02), codebook.angles, codebook.bits)
    with pytest.raises(DomainError, match="codebook geometry does not match the array geometry"):
        sweep_at(other, bench, 30.0)


def test_estimate_monotone_trace_returns_last():
    trace = SweepTrace(np.array([0.0, 1.5, 3.0]), np.array([-60.0, -55.0, -50.0]))
    assert estimate_angle(trace) == 3.0


def test_estimate_tie_breaks_to_smaller_angle():
    trace = SweepTrace(np.array([27.0, 28.5, 30.0]), np.array([-60.0, -50.0, -50.0]))
    assert estimate_angle(trace) == 28.5


def test_noiseless_estimate_within_one_step(codebook, bench):
    trace = sweep_at(codebook, bench, 30.0)
    assert abs(estimate_angle(trace) - 30.0) <= 1.5


def test_constant_offset_leaves_estimate_unchanged(codebook, bench):
    trace = sweep_at(codebook, bench, 37.0)
    shifted = SweepTrace(trace.steer_deg, trace.rssi_dbm + 17.25)
    assert estimate_angle(shifted) == estimate_angle(trace)


def test_rmse_basics():
    assert rmse([30.0, 45.0], [30.0, 45.0]) == 0.0
    assert rmse([32.06, 47.06], [30.0, 45.0]) == pytest.approx(2.06)
    with pytest.raises(DomainError):
        rmse([], [])
    with pytest.raises(DomainError):
        rmse([1.0], [1.0, 2.0])


def test_monte_carlo_rmse_under_3deg(codebook, bench):
    noise = NoiseModel("gaussian_db", 1.0)
    truths, estimates = [], []
    for seed in range(100):
        for truth in (30.0, 45.0):
            trace = sweep_at(codebook, bench, truth, noise, seed=seed)
            truths.append(truth)
            estimates.append(estimate_angle(trace))
    assert rmse(estimates, truths) <= 3.0


# the fabricated cell's tolerance: 3 dB reflection loss and 180 +/- 50 deg
# between the states
LOSSY = 10.0 ** (-3.0 / 20.0)


@pytest.mark.parametrize(
    "cell",
    [
        UnitCellReflection.measured(),
        UnitCellReflection(LOSSY, LOSSY, 0.0, 130.0),
        UnitCellReflection(LOSSY, LOSSY, 0.0, 230.0),
    ],
    ids=["measured", "130deg", "230deg"],
)
def test_localization_holds_on_a_non_ideal_cell(codebook, bench, cell):
    scenario = replace(bench, cell=cell)
    for truth in (30.0, 45.0):
        assert abs(estimate_angle(sweep_at(codebook, scenario, truth)) - truth) <= 3.0


def _beam_deviation(entry, bench, cfg):
    cut = pattern_nearfield(
        bench.geom,
        entry.mask,
        cfg.cell,
        cfg.feed,
        cfg.cell.q_e,
        0.0,
        default_theta_grid(),
        bench.wavelength,
    )
    return pattern_metrics(cut).main_lobe_deg - entry.steer_angle.theta_deg


def test_quantization_bound_inside_field_of_view(codebook, bench, cfg):
    # estimation error is bounded by half the sampling story: one codebook
    # step plus the worse of the pointing deviations of the entry nearest
    # the truth and the entry actually selected; beyond ~52 deg coarse
    # 1-bit masks alias and the bound stops holding, so stay below that
    angles = codebook.angles_deg()
    for truth in np.linspace(0.0, 51.0, 18):
        est = estimate_angle(sweep_at(codebook, bench, float(truth)))
        nearest = codebook.entries[int(np.argmin(np.abs(angles - truth)))]
        selected = codebook.entries[int(np.argmin(np.abs(angles - est)))]
        slack = max(
            abs(_beam_deviation(nearest, bench, cfg)),
            abs(_beam_deviation(selected, bench, cfg)),
        )
        assert abs(est - truth) <= 1.5 + slack + 1e-9


def test_selected_entry_rssi_matches_direct_recompute(codebook, bench):
    truth = Direction(33.0)
    trace = sweep_at(codebook, bench, 33.0)
    idx = int(np.argmax(trace.rssi_dbm))
    scenario = bench.with_rx(ue_point(truth, bench)).with_mask(codebook.entries[idx].mask)
    direct = received_power(scenario, quantization="single_pass").received_power_dbm
    assert trace.rssi_dbm[idx] == direct


def test_ue_point_places_a_direction_at_rx_range(bench):
    placed = ue_point(Direction(45.0), bench)
    assert placed.x == pytest.approx(bench.rx.x)
    assert placed.y == pytest.approx(bench.rx.y)
    assert placed.z == pytest.approx(bench.rx.z)
    boresight = ue_point(Direction(0.0), bench)
    center = bench.geom.center()
    assert boresight.x == pytest.approx(center.x)
    assert boresight.z == pytest.approx(5.0)
    for not_a_direction in (45.0, Point3(1.0, 2.0, 3.0)):
        with pytest.raises(DomainError, match="must be a Direction"):
            ue_point(not_a_direction, bench)


def test_noise_model_validation():
    with pytest.raises(DomainError):
        NoiseModel("uniform", 1.0)
    with pytest.raises(DomainError):
        NoiseModel("gaussian_db", -0.1)
    assert NoiseModel().kind == "none"


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_noise_model_rejects_non_finite_sigma(sigma):
    with pytest.raises(DomainError, match="sigma_db"):
        NoiseModel("gaussian_db", sigma)


def test_trace_validation():
    with pytest.raises(DomainError):
        SweepTrace(np.array([]), np.array([]))
    with pytest.raises(DomainError):
        SweepTrace(np.array([1.0]), np.array([1.0, 2.0]))
    trace = SweepTrace(np.array([0.0, 1.5]), np.array([-50.0, -49.0]))
    assert len(trace.steer_deg) == 2


def test_sweep_csv_format(tmp_path, codebook, bench):
    trace = sweep_at(codebook, bench, 30.0)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(trace, path, {"truth_deg": 30.0, "noise": "none"})
    listed = SweepTrace(trace.steer_deg.tolist(), trace.rssi_dbm.tolist())
    write_sweep_csv(listed, tmp_path / "listed.csv", {"truth_deg": 30.0, "noise": "none"})
    assert (tmp_path / "listed.csv").read_bytes() == path.read_bytes()
    lines = path.read_text().splitlines()
    assert lines[0] == "# truth_deg = 30.0"
    assert lines[2] == "steer_deg,rssi_dbm"
    assert len(lines) == 3 + len(trace.steer_deg)
    angle, rssi = lines[3].split(",")
    assert float(angle) == 0.0
