"""Deformed Plancherel growth on the Young lattice.

The package covers the exact side (measures, transition kernels, the
descent-statistic push-forward), the analytic side (moment identities,
the moment flow, the limiting profile), and a Monte Carlo engine that
connects the two at finite sizes.
"""

from .diagrams import (
    CapacityError,
    InterlacingDiagram,
    Partition,
    enumerate_level,
    from_interlacing,
    hook_data,
    to_interlacing,
)
from .dynamics import (
    IntegrationAccuracyError,
    OdeState,
    closed_form,
    integrate_moments,
    limit_moments,
    limit_sigma,
    ode_rhs,
)
from .growth import (
    DeformationError,
    McReport,
    TrajectorySample,
    deform,
    growth_derivative,
    mc_limit_experiment,
    pde_residual,
    report_from_samples,
    simulate_rescaled,
)
from .kernel import (
    GrowthTrajectory,
    SingularSystemError,
    grow_trajectory,
    partial_fraction_weights,
    sample_index,
    trajectory_rng,
    transition_weights,
)
from .limitshape import (
    BracketingError,
    series_h_omega,
    solve_r_omega,
    support_edges,
)
from .moments import (
    DiscreteMeasure,
    MomentVector,
    h_from_p_partition_sum,
    h_moments,
    h_to_p,
    markov_krein_residual,
    p_moments,
    p_to_h,
    r_diagram,
    r_measure,
    rayleigh_measure,
    transition_measure,
)
from .qmeasure import (
    QParam,
    hook_identity_residual,
    q_measure,
    q_measure_exact,
)
from .rsk import (
    StandardTableau,
    descent_set,
    maj,
    poincare_polynomial,
    pushforward_exact,
    rsk_shape,
)

__version__ = "0.1.0"

__all__ = [
    "BracketingError",
    "CapacityError",
    "DeformationError",
    "DiscreteMeasure",
    "GrowthTrajectory",
    "IntegrationAccuracyError",
    "InterlacingDiagram",
    "McReport",
    "MomentVector",
    "OdeState",
    "Partition",
    "QParam",
    "SingularSystemError",
    "StandardTableau",
    "TrajectorySample",
    "closed_form",
    "deform",
    "descent_set",
    "enumerate_level",
    "from_interlacing",
    "grow_trajectory",
    "growth_derivative",
    "h_from_p_partition_sum",
    "h_moments",
    "h_to_p",
    "hook_data",
    "hook_identity_residual",
    "integrate_moments",
    "limit_moments",
    "limit_sigma",
    "maj",
    "markov_krein_residual",
    "mc_limit_experiment",
    "ode_rhs",
    "p_moments",
    "p_to_h",
    "partial_fraction_weights",
    "pde_residual",
    "poincare_polynomial",
    "pushforward_exact",
    "q_measure",
    "q_measure_exact",
    "r_diagram",
    "r_measure",
    "rayleigh_measure",
    "report_from_samples",
    "rsk_shape",
    "sample_index",
    "series_h_omega",
    "simulate_rescaled",
    "solve_r_omega",
    "support_edges",
    "to_interlacing",
    "trajectory_rng",
    "transition_measure",
    "transition_weights",
]
