"""Numerical laboratory for Angelesco ensembles.

Vector equilibrium measures on systems of disjoint intervals, extremal
(Fekete) configurations, Gibbs sampling of the joint density, multiple
orthogonal polynomials, and the deviation inequalities tying them together.
"""

from .core import (
    Configuration,
    GridMeasure,
    IntervalSystem,
    MultiIndex,
    MultiIndexSequence,
    VectorMeasure,
    apportion,
    counting_measure,
    quantile_configuration,
    sort_into_blocks,
    weak_star_distance,
)
from .energy import (
    EnergyReport,
    ExternalField,
    difference_energy,
    kernel_matrix,
    mutual_energy,
    partial_potentials,
    potential,
    total_energy,
    weighted_energy,
)
from .equilibrium import EquilibriumSolution, kkt_residual, solve_equilibrium
from .fekete import (
    FeketeResult,
    FeketeTrendRow,
    fekete_asymptotics,
    fekete_points,
    log_boltzmann,
)
from .ensemble import (
    BaseMeasure,
    ConvergenceRow,
    DeviationReport,
    EnsembleSpec,
    SampleBatch,
    convergence_experiment,
    gibbs_sample,
    johansson_probability,
    log_density_unnormalized,
    partition_function_bounds,
    partition_function_quadrature,
    sector_factor,
)
from .mop import MonicPolynomial, expectation_identity_check, moments, solve_mop
from .ldp import (
    BMEstimate,
    RateReport,
    bm_constant,
    field_shift_identity,
    field_shift_worst,
    growth_constant,
    quantile_energy_probe,
    random_configuration,
    rate_function,
)
from . import errors

__version__ = "0.1.0"
