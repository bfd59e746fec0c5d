"""Multivariate Pareto records: exact probabilities and Monte Carlo experiments.

A point in a stream of iid random vectors sets a (Pareto) record when no
earlier point weakly dominates it coordinatewise. This package computes the
probability that the n-th observation sets a record -- exactly for
independent coordinates and for two parametric dependence families
(marginalized Dirichlet, Exponential scale mixtures) -- and estimates it,
along with record and maxima counts, by reproducible Monte Carlo.

The package needs numpy and the standard library only. The few special
functions it uses (a chi-square tail, power sums, ln Gamma and two
incomplete Gamma and Beta ratios at integer order) are finite sums or
asymptotic series in ``_special``, each with a tested tolerance.
"""

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    PrecisionLossError,
    RecordsError,
    UnsupportedSpecError,
)
from .exact import (
    pn_independent,
    pn_independent_exact,
    pn_marginal_dirichlet,
    pn_marginal_dirichlet_exact,
    pn_scale_mixture,
    pn_scale_mixture_exact,
    roman_harmonic,
    survival,
)
from .frontier import (
    Frontier2D,
    GenericFrontier,
    RecordOutcome,
    StreamResult,
    make_frontier,
    records_bruteforce,
    run_stream,
)
from .model import (
    Comonotone,
    Dirichlet,
    DistributionSpec,
    ExperimentConfig,
    ExponentialScaleMixture,
    IidExponential,
    MarginalDirichlet,
    Mixture,
    validate,
)
from .ordering import (
    Direction,
    DominanceVerdict,
    NuodResult,
    P2BoundResult,
    SurvivalTransformSample,
    check_nuod,
    check_p2_bound,
    check_record_order,
    default_probe_grid,
    survival_transform,
)
from .samplers import make_rng, sample_observations
from .simulate import (
    ConcomitantResult,
    EstimateWithCI,
    MaximaEstimates,
    SweepRow,
    concomitant_check,
    estimate_maxima,
    estimate_record_prob,
    estimate_record_prob_survival,
    simulate_trajectory,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Comonotone",
    "ConcomitantResult",
    "Dirichlet",
    "DimensionMismatchError",
    "Direction",
    "DistributionSpec",
    "DominanceVerdict",
    "EstimateWithCI",
    "ExperimentConfig",
    "ExponentialScaleMixture",
    "Frontier2D",
    "GenericFrontier",
    "IidExponential",
    "InvalidParameterError",
    "MarginalDirichlet",
    "MaximaEstimates",
    "Mixture",
    "NuodResult",
    "P2BoundResult",
    "PrecisionLossError",
    "RecordOutcome",
    "RecordsError",
    "StreamResult",
    "SurvivalTransformSample",
    "SweepRow",
    "UnsupportedSpecError",
    "check_nuod",
    "check_p2_bound",
    "check_record_order",
    "concomitant_check",
    "default_probe_grid",
    "estimate_maxima",
    "estimate_record_prob",
    "estimate_record_prob_survival",
    "make_frontier",
    "make_rng",
    "pn_independent",
    "pn_independent_exact",
    "pn_marginal_dirichlet",
    "pn_marginal_dirichlet_exact",
    "pn_scale_mixture",
    "pn_scale_mixture_exact",
    "records_bruteforce",
    "roman_harmonic",
    "run_stream",
    "sample_observations",
    "simulate_trajectory",
    "survival",
    "survival_transform",
    "sweep",
    "validate",
]
