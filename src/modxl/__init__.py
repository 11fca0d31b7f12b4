"""Near-field SNR modelling for modular extremely large linear arrays.

The package covers the spherical-wave and plane-wave array responses of a
modular uniform linear array, maximal-ratio combining, exact and closed-form
SNR expressions with their limiting cases, a quadrature cross-check, a
deterministic sweep engine with CSV/SVG output, and a built-in verification
suite.  See the ``modxl`` command-line tool for the packaged workflows.
"""

from .beamforming import (
    BeamformingWeights,
    UplinkSimulation,
    complex_gaussian,
    mrc_weights,
    simulate_uplink,
    snr,
    uplink_power_estimates,
)
from .channel import LinkBudget, array_response_nusw, array_response_upw
from .errors import (
    DegenerateGeometryError,
    MalformedDataError,
    ModelBreakdownError,
    ModelMismatchError,
    QuadratureAccuracyError,
    SweepPointError,
    UnboundedLimitError,
)
from .geometry import (
    DISTANCE_FLOOR_M,
    ArrayGeometry,
    UserLocation,
    aperture,
    element_offsets,
    normalized_spacing,
)
from .numerics import compensated_sum, db_to_linear, linear_to_db
from .snr_models import (
    SnrModel,
    SnrReport,
    snr_asymptotic,
    snr_closed_form,
    snr_collocated,
    snr_double_integral,
    snr_exact_sum,
    snr_upw,
)
from .svgchart import ChartSeries, render_line_chart
from .sweep import (
    Scenario,
    SweepRecord,
    SweepScale,
    SweepSpec,
    SweepVariable,
    apply_variable,
    default_scenario,
    evaluate_models,
    run_sweep,
)
from .verify import CheckResult, run_checks

__version__ = "1.0.0"

__all__ = [
    "ArrayGeometry",
    "BeamformingWeights",
    "ChartSeries",
    "CheckResult",
    "DISTANCE_FLOOR_M",
    "DegenerateGeometryError",
    "LinkBudget",
    "MalformedDataError",
    "ModelBreakdownError",
    "ModelMismatchError",
    "QuadratureAccuracyError",
    "Scenario",
    "SnrModel",
    "SnrReport",
    "SweepPointError",
    "SweepRecord",
    "SweepScale",
    "SweepSpec",
    "SweepVariable",
    "UnboundedLimitError",
    "UplinkSimulation",
    "UserLocation",
    "aperture",
    "apply_variable",
    "array_response_nusw",
    "array_response_upw",
    "compensated_sum",
    "complex_gaussian",
    "db_to_linear",
    "default_scenario",
    "element_offsets",
    "evaluate_models",
    "linear_to_db",
    "mrc_weights",
    "normalized_spacing",
    "render_line_chart",
    "run_checks",
    "run_sweep",
    "simulate_uplink",
    "snr",
    "snr_asymptotic",
    "snr_closed_form",
    "snr_collocated",
    "snr_double_integral",
    "snr_exact_sum",
    "snr_upw",
    "uplink_power_estimates",
]
