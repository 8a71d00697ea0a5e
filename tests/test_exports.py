import types

import pytest

import risim
from risim import config, geometry, hardware, linkbudget, localization

# the public surface, one name per workflow need; adding or dropping an export
# is a deliberate edit of this list
EXPORTED = [
    "ArrayGeometry", "BOARD_GEOMETRY", "Codebook", "CodingMask",
    "ConfigError", "DEFAULTS", "DEFAULT_HARDWARE_LOSS_DB", "Direction", "DomainError",
    "FeedSpec", "L_PE_1BIT_DB", "LinkReport", "LinkScenario", "NoiseModel", "PatternCut",
    "PatternMetrics", "PhaseMask", "Point3", "RegisterFrame", "SPEED_OF_LIGHT",
    "ScenarioConfig", "SweepTrace", "UnitCellReflection", "array_factor_far", "bias_resistor",
    "build_codebook", "default_theta_grid", "deserialize_frame",
    "element_grid", "estimate_angle", "farfield_steering_mask", "geometric_accumulation",
    "integrate_psd", "load_config",
    "nearfield_steering_mask", "parse_config", "pattern_metrics", "pattern_nearfield",
    "phase_error_loss", "quantize_1bit", "read_frame", "received_power",
    "render_config", "rmse", "serialize_mask", "simulate_sweep",
    "snell_gradient", "ue_point", "unit_cell_gain", "wavelength_from_frequency",
    "write_frame", "write_pattern_csv", "write_sweep_csv",
]


def test_exported_names_are_pinned():
    # the exports resolve lazily, so they are read through dir() and getattr
    public = sorted(
        name
        for name in dir(risim)
        if not name.startswith("_") and not isinstance(getattr(risim, name), types.ModuleType)
    )
    assert public == EXPORTED
    assert len(EXPORTED) == 53
    assert sorted(risim.__all__) == EXPORTED


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from risim import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == EXPORTED
    assert all(namespace[name] is getattr(risim, name) for name in EXPORTED)


def test_export_is_its_module_attribute():
    assert risim.NoiseModel is linkbudget.NoiseModel is config.NoiseModel is localization.NoiseModel
    assert risim.element_grid is geometry.element_grid
    # the board has one owner, geometry; hardware reads the same object
    assert risim.BOARD_GEOMETRY is geometry.BOARD_GEOMETRY is hardware.BOARD_GEOMETRY
    with pytest.raises(AttributeError, match="no attribute 'noise_model'"):
        risim.noise_model
