"""Simulator for a 1-bit coding reconfigurable intelligent surface.

Phase-mask synthesis, far- and near-field radiation patterns, codebook
sweep localization, a physics-based uplink link budget, and control-board
bitstream helpers.
"""

from .errors import ConfigError, DomainError
from .geometry import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    Direction,
    Point3,
    distance_grid,
    element_grid,
    projection_grid,
    wavelength_from_frequency,
)
from .masks import (
    Codebook,
    CodebookEntry,
    CodingMask,
    PhaseMask,
    build_codebook,
    farfield_steering_mask,
    nearfield_steering_mask,
    quantize_1bit,
    snell_gradient,
)
from .patterns import (
    FeedSpec,
    PatternCut,
    PatternMetrics,
    UnitCellReflection,
    array_factor_far,
    default_theta_grid,
    pattern_metrics,
    pattern_nearfield,
    write_pattern_csv,
)
from .linkbudget import (
    DEFAULT_HARDWARE_LOSS_DB,
    L_PE_1BIT_DB,
    LinkReport,
    LinkScenario,
    geometric_accumulation,
    integrate_psd,
    phase_error_loss,
    received_power,
    snr_ceiling,
    unit_cell_gain,
)
from .localization import (
    NoiseModel,
    SweepTrace,
    estimate_angle,
    rmse,
    simulate_sweep,
    ue_point,
    write_sweep_csv,
)
from .hardware import (
    BOARD_GEOMETRY,
    RegisterFrame,
    bias_resistor,
    deserialize_frame,
    read_frame,
    serialize_mask,
    write_frame,
)
from .config import (
    DEFAULTS,
    ScenarioConfig,
    load_config,
    parse_config,
    render_config,
)

__version__ = "0.1.0"
