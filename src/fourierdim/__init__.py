"""Numerical laboratory for Fourier decay of measures on the line.

Symbolic measures with a closed transform algebra, exact rational phase
arithmetic at arbitrary frequency magnitude, windowed decay-exponent
estimates, two independent s-energy routes, and the experiment presets
behind the command line interface.
"""

from .measures import (
    Measure,
    MeasureError,
    ScheduleError,
    Atomic,
    UniformOnIntervals,
    TrigDensity,
    SelfSimilarDigit,
    DigitBlock,
    DigitProduct,
    Mixture,
    AffineImage,
    Convolution,
    SmoothCutDensity,
    mass,
    support_interval,
    measure_to_dict,
    measure_from_dict,
    FrequencySchedule,
    IntegerRange,
    DyadicWindows,
    Lacunary,
    ExplicitFrequencies,
    merge_schedules,
    schedule_to_dict,
    schedule_from_dict,
)
from .transform import (
    ft,
    ft_grid,
    ft_batch,
    ft_quadrature,
    TransformSample,
    QuadratureResult,
    QuadratureError,
    oscillatory_integral,
    wiener_average,
    atom_weights,
    phase_unit,
)
from .dimension import (
    WindowStat,
    DecayReport,
    decay_exponent,
    EnergyResult,
    riesz_constant,
    energy_spatial,
    energy_fourier,
    smooth_cut,
    LowerBoundWitness,
    lower_bound_search,
    translation_pair_transform,
    stability_experiment,
    matrix_image_experiment,
)
from .constructions import (
    DigitScheduleSpec,
    digit_constraint_measure,
    lacunary_trig_measure,
    cantor_measure,
    tail_terms,
    tail_report,
)
from .bandlattice import (
    IncidenceModel,
    SubsetPair,
    perp,
    check_perp_properties,
    quasiconvex_weights,
    decompose_atomic,
)

__version__ = "0.1.0"

__all__ = [
    "Measure", "MeasureError", "ScheduleError",
    "Atomic", "UniformOnIntervals", "TrigDensity", "SelfSimilarDigit",
    "DigitBlock", "DigitProduct", "Mixture", "AffineImage", "Convolution",
    "SmoothCutDensity",
    "mass", "support_interval",
    "measure_to_dict", "measure_from_dict",
    "FrequencySchedule", "IntegerRange", "DyadicWindows", "Lacunary",
    "ExplicitFrequencies", "merge_schedules",
    "schedule_to_dict", "schedule_from_dict",
    "ft", "ft_grid", "ft_batch", "ft_quadrature",
    "TransformSample", "QuadratureResult", "QuadratureError",
    "oscillatory_integral", "wiener_average", "atom_weights", "phase_unit",
    "WindowStat", "DecayReport", "decay_exponent",
    "EnergyResult", "riesz_constant", "energy_spatial", "energy_fourier",
    "smooth_cut", "LowerBoundWitness", "lower_bound_search",
    "translation_pair_transform", "stability_experiment",
    "matrix_image_experiment",
    "DigitScheduleSpec", "digit_constraint_measure", "lacunary_trig_measure",
    "cantor_measure", "tail_terms", "tail_report",
    "IncidenceModel", "SubsetPair", "perp", "check_perp_properties",
    "quasiconvex_weights", "decompose_atomic",
    "__version__",
]
