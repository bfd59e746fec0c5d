"""Empirical dependence and ordering checks.

The law of the survival value S(X) = P(X' >= X) (X' an independent copy)
determines every record probability through p_n = E(1 - S(X))^(n-1), so
comparing two families reduces to stochastic dominance between their
survival-value distributions: if the survival values of family A dominate
those of B, then A has uniformly smaller record probabilities.

This module samples those survival values (:func:`survival_transform`),
runs one-sided empirical dominance tests (:func:`check_record_order`), and
provides orthant-dependence probes (:func:`check_nuod`) plus the classical
second-observation bound p_2 vs 1 - 2^(-d) (:func:`check_p2_bound`).

The dominance test uses one-sided Kolmogorov-Smirnov suprema with a
threshold calibrated so that two identical distributions are declared
indistinguishable with probability >= 1 - alpha (default alpha = 1e-3).

The NUOD counts never compare every sample with every probe: samples are
coded by their level among each coordinate's distinct probe values and
merged into counted cells, and only cells meet probes (at most 4^d cells on
the default 3^d grid). Beyond the samples this takes d small integers and
two sort indices per sample, plus two cells x probes masks per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError
from .exact import survival
from .frontier import _dominates
from .model import DistributionSpec, _require_int, validate
from .samplers import finite_draws, sample_observations

__all__ = [
    "Direction",
    "DominanceVerdict",
    "NuodResult",
    "P2BoundResult",
    "SurvivalTransformSample",
    "check_nuod",
    "check_p2_bound",
    "check_record_order",
    "default_probe_grid",
    "survival_transform",
]


#: Cells x probes per comparison block of :func:`check_nuod`'s level-code
#: count; a block holds two boolean masks of this size.
_NUOD_BLOCK = 1 << 22

#: Most probes :func:`default_probe_grid` builds: the default 3^d grid up to
#: d = 9. Each further dimension triples the grid and the count's cost.
MAX_GRID_PROBES = 3**9


@dataclass(frozen=True)
class SurvivalTransformSample:
    """Survival values S(x) evaluated at points sampled from the same spec."""

    values: np.ndarray
    spec: DistributionSpec
    count: int


class Direction(Enum):
    """Outcome of a one-sided dominance comparison of survival values.

    FIRST_DOMINATES: the first spec's survival values are stochastically >=
    the second's, hence the first has uniformly smaller record
    probabilities (and symmetrically for SECOND_DOMINATES).
    """

    FIRST_DOMINATES = "first-stochastically-geq-second"
    SECOND_DOMINATES = "second-stochastically-geq-first"
    CROSSING = "crossing"
    INDISTINGUISHABLE = "indistinguishable"


@dataclass(frozen=True)
class DominanceVerdict:
    direction: Direction
    statistic: float  # max one-sided empirical-CDF gap
    threshold: float


@dataclass(frozen=True)
class NuodResult:
    """Per-probe comparison of joint upper-orthant mass vs marginal product.

    ``margin_sigma[k]`` is (joint - product) / SE at probe k; the family is
    NUOD-consistent when no probe exceeds the slack.
    """

    consistent: bool
    worst_margin_sigma: float
    probes: np.ndarray
    joint: np.ndarray
    product: np.ndarray
    margin_sigma: np.ndarray
    slack_sigma: float


@dataclass(frozen=True)
class P2BoundResult:
    """p_2 estimate against the independence value 1 - 2^(-d)."""

    estimate: float
    std_error: float
    bound: float
    margin_sigma: float


def survival_transform(
    spec: DistributionSpec, samples: int, rng: np.random.Generator
) -> SurvivalTransformSample:
    """Sample x ~ spec and evaluate the closed-form survival at each draw.

    The transform itself is exact; only the sampled points carry noise.
    Raises UnsupportedSpecError for families without closed-form survival.
    """
    samples = _require_int(samples, 1, "samples")
    validate(spec)
    survival(spec, np.zeros(spec.dim))  # fail fast on unsupported specs
    with finite_draws(spec):
        x = sample_observations(spec, samples, rng)
    return SurvivalTransformSample(np.asarray(survival(spec, x)), spec, samples)


def _onesided_gaps(u: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    # sup_t (F_u - F_v) and sup_t (F_v - F_u) over the pooled sample points.
    su = np.sort(u)
    sv = np.sort(v)
    grid = np.concatenate((su, sv))
    fu = np.searchsorted(su, grid, side="right") / su.size
    fv = np.searchsorted(sv, grid, side="right") / sv.size
    diff = fu - fv
    return float(diff.max()), float(-diff.min())


def dominance_threshold(n1: int, n2: int, alpha: float = 1e-3) -> float:
    """One-sided gap below which two samples of these sizes read as noise.

    Calibrated from the asymptotic tail P(gap > lam * sqrt((n1+n2)/(n1 n2)))
    ~ exp(-2 lam^2), split across the two sides, so identical distributions
    are called indistinguishable with probability >= 1 - alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must lie in (0, 1), got {alpha!r}")
    lam = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return lam * math.sqrt((n1 + n2) / (n1 * n2))


def check_record_order(
    spec_first: DistributionSpec,
    spec_second: DistributionSpec,
    samples: int,
    rng: np.random.Generator,
    alpha: float = 1e-3,
) -> DominanceVerdict:
    """Decide which spec's survival values stochastically dominate.

    FIRST_DOMINATES means the first spec sits below the second in record
    probability for every n. Swapping the arguments flips the verdict;
    identical specs come out INDISTINGUISHABLE at rate >= 1 - alpha.
    """
    hu = survival_transform(spec_first, samples, rng).values
    hv = survival_transform(spec_second, samples, rng).values
    gap_first_higher_cdf, gap_second_higher_cdf = _onesided_gaps(hu, hv)
    thr = dominance_threshold(hu.size, hv.size, alpha)
    # A higher CDF means stochastically smaller values, so the side whose
    # CDF pokes above decides which spec's values are dominated.
    first_excess = gap_first_higher_cdf > thr
    second_excess = gap_second_higher_cdf > thr
    if first_excess and second_excess:
        direction = Direction.CROSSING
    elif second_excess:
        direction = Direction.FIRST_DOMINATES
    elif first_excess:
        direction = Direction.SECOND_DOMINATES
    else:
        direction = Direction.INDISTINGUISHABLE
    return DominanceVerdict(direction, max(gap_first_higher_cdf, gap_second_higher_cdf), thr)


def default_probe_grid(
    spec: DistributionSpec,
    rng: np.random.Generator,
    quantiles=(0.25, 0.5, 0.75),
    pilot: int = 4096,
) -> np.ndarray:
    """Product grid of per-coordinate empirical quantiles (3^d points by default).

    A grid of more than :data:`MAX_GRID_PROBES` points raises
    InvalidParameterError before anything is drawn.
    """
    validate(spec)
    levels = len(quantiles)
    # A capped exponent keeps a huge d from building a huge integer; with two
    # or more levels, 15 dimensions already exceed the limit.
    if levels ** min(spec.dim, MAX_GRID_PROBES.bit_length()) > MAX_GRID_PROBES:
        raise InvalidParameterError(
            f"the probe grid would hold {levels}^{spec.dim} probes, above "
            f"ordering.MAX_GRID_PROBES = {MAX_GRID_PROBES} (d <= 9 at 3 quantiles)"
        )
    with finite_draws(spec):
        x = sample_observations(spec, pilot, rng)
    marks = np.quantile(x, quantiles, axis=0)  # (len(q), d)
    axes = [marks[:, j] for j in range(spec.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _exceedance_counts(x: np.ndarray, probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint hits #{i : x_i > p_k coordinatewise} (k,) and marginal hits
    #{i : x_ij > p_kj} (k, d) of the samples ``x`` (free of NaN, as every
    sampler makes them) over the ``probes``.

    Coordinate j of a sample gets the level code c_j = #{v < x_j} over the
    distinct probe values v of column j, and probe p the rank r_j(p) of p_j
    among them, so x_j > p_j exactly when c_j > r_j(p). Samples with equal
    codes form one cell, counted once with its multiplicity, so only cells x
    probes are compared, in blocks of about ``_NUOD_BLOCK`` booleans; the
    default 3^d grid has at most 4^d cells.
    """
    k, d = probes.shape
    code_type = np.min_scalar_type(k)  # codes lie in [0, k]
    codes, ranks = [], np.empty((d, k), dtype=code_type)
    for j in range(d):
        levels = np.unique(probes[:, j])
        codes.append(np.searchsorted(levels, x[:, j]).astype(code_type))
        ranks[j] = np.searchsorted(levels, probes[:, j])
    # Sorted, equal code vectors are adjacent; each run is one cell.
    order = np.lexsort(codes)
    for j in range(d):
        codes[j] = codes[j][order]
    new_cell = np.empty(order.size, dtype=bool)
    new_cell[0] = True
    np.not_equal(codes[0][1:], codes[0][:-1], out=new_cell[1:])
    for c in codes[1:]:
        new_cell[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(new_cell)
    counts = np.diff(starts, append=order.size)
    cells = [c[starts] for c in codes]

    joint = np.zeros(k, dtype=np.int64)
    marginal = np.zeros((k, d), dtype=np.int64)
    step = max(1, _NUOD_BLOCK // k)
    for lo in range(0, counts.size, step):
        w = counts[lo : lo + step]
        both = np.ones((w.size, k), dtype=bool)
        for j in range(d):
            above = cells[j][lo : lo + step, None] > ranks[j]  # (block, k)
            marginal[:, j] += np.einsum("c,ck->k", w, above)
            both &= above
        joint += np.einsum("c,ck->k", w, both)
    return joint, marginal


def check_nuod(
    spec: DistributionSpec,
    probes,
    samples: int,
    rng: np.random.Generator,
    slack_sigma: float = 4.0,
) -> NuodResult:
    """Probe negative upper-orthant dependence.

    At each probe x the joint exceedance P(X_j > x_j for all j) is compared
    with the product of marginal exceedances; NUOD requires joint <= product.
    Standard errors combine the binomial error of the joint estimate and a
    delta-method error for the product (same sample, so this is slightly
    conservative). A margin above ``slack_sigma`` flags a violation.

    The counts are exact and come from level-code cells (see the module
    docstring): memory grows with samples x d, never samples x probes x d.
    """
    validate(spec)
    probes = np.atleast_2d(np.asarray(probes, dtype=np.float64))
    if probes.shape[1] != spec.dim:
        raise InvalidParameterError(
            f"probes have dimension {probes.shape[1]}, spec has {spec.dim}"
        )
    samples = _require_int(samples, 2, "samples")
    with finite_draws(spec):
        x = sample_observations(spec, samples, rng)
    joint_hits, marginal_hits = _exceedance_counts(x, probes)
    joint = joint_hits / samples
    marginals = marginal_hits / samples  # (k, d)
    product = marginals.prod(axis=1)

    var_joint = joint * (1.0 - joint) / samples
    safe = np.clip(marginals, 1.0 / samples, 1.0)
    var_product = product**2 * ((1.0 - safe) / (safe * samples)).sum(axis=1)
    sigma = np.sqrt(var_joint + var_product)
    diff = joint - product
    with np.errstate(divide="ignore", invalid="ignore"):
        margin = np.where(sigma > 0, diff / sigma, np.where(diff == 0, 0.0, np.inf))
    worst = float(margin.max())
    return NuodResult(worst <= slack_sigma, worst, probes, joint, product, margin, slack_sigma)


def check_p2_bound(
    spec: DistributionSpec, reps: int, rng: np.random.Generator
) -> P2BoundResult:
    """Estimate p_2 and report its signed gap to 1 - 2^(-d) in SE units.

    Negatively associated coordinates push p_2 above the bound, positively
    associated ones below, independence meets it exactly.
    """
    validate(spec)
    if spec.dim < 2:
        raise InvalidParameterError("p_2 bound check needs dimension >= 2")
    reps = _require_int(reps, 2, "reps")
    with finite_draws(spec):
        first = sample_observations(spec, reps, rng)
        second = sample_observations(spec, reps, rng)
    p2 = float((~_dominates(first.T, second.T)).mean())
    se = math.sqrt(p2 * (1.0 - p2) / reps)
    bound = 1.0 - 2.0 ** -spec.dim
    margin = (p2 - bound) / se if se > 0 else (0.0 if p2 == bound else math.inf)
    return P2BoundResult(p2, se, bound, margin)
