"""Spectral, tail-asymptotic and path-simulation tools for recurrent
reflected diffusions on the half-line."""

__version__ = "0.1.0"

from .diffusions import (  # noqa: F401
    DiffusionSpec,
    bessel_spec,
    brownian_spec,
    spec_from_expressions,
    spec_from_json,
    cumulative_speed,
    levy_exponent,
)
from .errors import (  # noqa: F401
    LevykitError,
    DomainError,
    RangeError,
    UnsupportedSpecError,
    IntegrabilityError,
    ToleranceError,
    TruncationError,
    ResolutionError,
    ConsistencyError,
)
from .spectral import (  # noqa: F401
    SpectralMeasure,
    bessel_principal_measure,
    bessel_killed_measure,
    measure_from_table,
    transition_density,
    hitting_density,
    hitting_tail,
    levy_density,
    levy_tail,
    eigen_coefficients,
    eigen_value,
    eigenfunction,
)
from .subexp import (  # noqa: F401
    TailDistribution,
    pareto_tail,
    exponential_tail,
    hitting_tail_distribution,
    conv_tail,
    subexp_ratio,
    mixed_ratio,
    tauberian_ratio,
)
from .montecarlo import (  # noqa: F401
    McEstimate,
    sample_hitting_time,
    sample_tau,
    sample_local_time,
    occupation_bias,
    estimate_hitting_tail,
    estimate_localtime_tail,
    levy_exponent_mc,
    doob_meyer_check,
)
from .penalization import (  # noqa: F401
    WeightFunction,
    indicator_weight,
    triangular_weight,
    weight_from_table,
    martingale_value,
    martingale_property_mc,
    penalized_expectation,
    penalization_horizon,
    penalization_leftover,
    linfty_law_check,
    uparrow_density,
    uparrow_mass,
)
