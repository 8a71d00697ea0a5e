"""Simulator for a 1-bit coding reconfigurable intelligent surface.

Phase-mask synthesis, far- and near-field radiation patterns, codebook
sweep localization, a physics-based uplink link budget, and control-board
bitstream helpers.

The exports resolve lazily (PEP 562): `import risim` loads no submodule,
and `risim.<name>` imports the one module that defines the name. Each
access reads the module's current attribute; the package keeps no copy.
"""

import importlib

# module -> the names it exports
_EXPORTS = {
    "errors": ("ConfigError", "DomainError"),
    "geometry": (
        "SPEED_OF_LIGHT", "ArrayGeometry", "Direction", "Point3", "element_grid",
        "wavelength_from_frequency",
    ),
    "masks": (
        "Codebook", "CodingMask", "FeedSpec", "PhaseMask", "UnitCellReflection",
        "build_codebook", "farfield_steering_mask", "nearfield_steering_mask", "quantize_1bit",
        "snell_gradient",
    ),
    "patterns": (
        "PatternCut", "PatternMetrics", "array_factor_far", "default_theta_grid", "pattern_metrics",
        "pattern_nearfield", "write_pattern_csv",
    ),
    "linkbudget": (
        "DEFAULT_HARDWARE_LOSS_DB", "L_PE_1BIT_DB", "LinkReport", "LinkScenario", "NoiseModel",
        "geometric_accumulation", "integrate_psd", "phase_error_loss", "received_power",
        "unit_cell_gain",
    ),
    "localization": (
        "SweepTrace", "estimate_angle", "rmse", "simulate_sweep", "ue_point", "write_sweep_csv",
    ),
    "hardware": (
        "BOARD_GEOMETRY", "RegisterFrame", "bias_resistor", "deserialize_frame", "read_frame",
        "serialize_mask", "write_frame",
    ),
    "config": ("DEFAULTS", "ScenarioConfig", "load_config", "parse_config", "render_config"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return list(__all__)
