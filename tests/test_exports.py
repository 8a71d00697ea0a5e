import types

import risim

# the public surface, one name per workflow need; adding or dropping an export
# is a deliberate edit of this list
EXPORTED = [
    "ArrayGeometry", "BOARD_GEOMETRY", "Codebook", "CodebookEntry", "CodingMask",
    "ConfigError", "DEFAULTS", "DEFAULT_HARDWARE_LOSS_DB", "Direction", "DomainError",
    "FeedSpec", "L_PE_1BIT_DB", "LinkReport", "LinkScenario", "NoiseModel", "PatternCut",
    "PatternMetrics", "PhaseMask", "Point3", "RegisterFrame", "SPEED_OF_LIGHT",
    "ScenarioConfig", "SweepTrace", "UnitCellReflection", "array_factor_far", "bias_resistor",
    "build_codebook", "default_theta_grid", "deserialize_frame", "distance_grid",
    "element_grid", "estimate_angle", "farfield_steering_mask", "geometric_accumulation",
    "integrate_psd", "load_config",
    "nearfield_steering_mask", "parse_config", "pattern_metrics", "pattern_nearfield",
    "phase_error_loss", "projection_grid", "quantize_1bit", "read_frame", "received_power",
    "render_config", "rmse", "serialize_mask", "simulate_sweep",
    "snell_gradient", "snr_ceiling", "ue_point", "unit_cell_gain", "wavelength_from_frequency",
    "write_frame", "write_pattern_csv", "write_sweep_csv",
]


def test_exported_names_are_pinned():
    public = sorted(
        name
        for name, value in vars(risim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == EXPORTED
    assert len(EXPORTED) == 57
