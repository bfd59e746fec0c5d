"""Monte Carlo estimation of record probabilities and maxima counts.

Chunk driver and reproducibility contract
-----------------------------------------
Every estimator draws through one driver, ``_map_chunks``. It splits the
replicates into chunks of a fixed number of streams; chunk ``i`` draws its
(m, length, d) block from the Philox stream ``(seed, stream_base + i)``, and
the per-chunk results come back in chunk order, which is the order the
estimator reduces them in. The partition depends only on the experiment
parameters, never on the worker count, so reruns with a different
``workers`` value are bit-identical. Workers are threads; the heavy lifting
is vectorized numpy on large blocks.

Estimators
----------
Each of the four takes one validated :class:`~paretorecords.model.ExperimentConfig`
(spec, n, reps, seed, workers).

* :func:`estimate_record_prob` -- indicator estimator: the fraction of
  replicates whose n-th observation is a record (binomial standard error).
  The dominance mask of a chunk comes from ``frontier._dominates``, built one
  coordinate at a time, so it takes chunk x (n - 1) booleans and no
  chunk x n x d temporary.
* :func:`estimate_record_prob_survival` -- averages (1 - S(X))^(n-1) using
  the closed-form survival S; unbiased for the same quantity with strictly
  smaller variance on the same draw count (conditioning estimator).
* :func:`estimate_maxima` -- mean cumulative record count E R_n and mean
  frontier size E r_n, with the identity E r_n = n p_n checked on the side.
* :func:`concomitant_check` -- compares the distribution of the maxima count
  in dimension d with the record count in dimension d-1 (they agree for any
  continuous law: sort the stream by the dropped coordinate); it also
  needs d >= 2 and reps >= 2.
* :func:`sweep` -- grids over a combining exact values and estimates; each
  row with an estimate builds its own config.

Maxima fold
-----------
``estimate_maxima`` and the maxima side of ``concomitant_check`` count r_n,
R_n and the last-step record flag of a whole chunk of replicates with
``_fold_streams``, whose counts equal those of folding each stream point by
point through ``make_frontier(d)``. Short streams compare all pairs across
the replicate axis at once. Long ones go through the block kernel
``_count_records``: blocks of time steps of all replicates at once, each
tested against the maxima the steps before it left. The record side of
``concomitant_check`` (:func:`concomitant_records`) is a running maximum at
d = 2 and the same block kernel beyond, run on the (d-1)-dimensional
streams in concomitant order.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._special import chi2_sf
from .errors import InvalidParameterError
from .exact import pn_independent, pn_marginal_dirichlet, pn_scale_mixture, survival
from .frontier import StreamResult, _dominates, run_stream
from .model import DistributionSpec, ExperimentConfig, _require_int, spec_from_json
from .samplers import finite_draws, make_rng, sample_observations

__all__ = [
    "ConcomitantResult",
    "EstimateWithCI",
    "MaximaEstimates",
    "SweepRow",
    "concomitant_check",
    "concomitant_records",
    "estimate_maxima",
    "estimate_record_prob",
    "estimate_record_prob_survival",
    "simulate_trajectory",
    "sweep",
]

# Rows per chunk are sized off a fixed element budget so the chunk layout
# (and therefore every stream index) is a pure function of the experiment.
_INDICATOR_BUDGET = 1 << 18
_SURVIVAL_CHUNK = 1 << 16
_MAXIMA_BUDGET = 1 << 20
_PHASE_STRIDE = 1 << 32
# Booleans per dominance mask, and the longest streams that the all-pairs
# tiles fold, per coordinate: 64 d points. Beyond, the block kernel
# _count_records wins, since the tiles cost ~ d n^2 and the kernel grows
# with the frontier, which grows with d. The measured crossovers (full
# chunks, iid-exp, dir and pa) lie near n = 100 at d = 2, 160-192 at d = 3,
# 256 at d = 4, 320 at d = 5 and 384 at d = 6.
_TILE_BUDGET = 1 << 22
_TILE_MAX_N_PER_D = 64
# Steps per block of the block kernel: the first block, then twice the last
# up to the longest. Longer blocks make fewer numpy calls per step but
# compare more pairs where most points are still candidates (early in a
# stream, or on a large frontier); 256 was the best measured cap.
_RECORD_FIRST_BLOCK = 16
_RECORD_BLOCK = 256


@dataclass(frozen=True)
class EstimateWithCI:
    """Point estimate with its standard error and provenance."""

    point: float
    std_error: float
    reps: int
    seed: int
    elapsed: float


@dataclass(frozen=True)
class MaximaEstimates:
    """E R_n and E r_n estimates from one replicate set.

    ``pn_hat`` is the record fraction at the final step of the same
    replicates and ``identity_gap_sigma`` the studentized gap
    |mean(r_n - n * indicator)| / SE, which checks E r_n = n p_n.
    """

    records: EstimateWithCI
    maxima: EstimateWithCI
    pn_hat: float
    identity_gap_sigma: float


@dataclass(frozen=True)
class ConcomitantResult:
    """Two-sample comparison of r_{n,d} against R_{n,d-1}.

    Histograms index counts by value; the chi-square statistic is computed
    over adjacent-value bins merged until every expected cell is >= 5.
    """

    maxima_counts: np.ndarray
    record_counts: np.ndarray
    statistic: float
    dof: int
    pvalue: float
    reps: int
    seed: int


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a sweep: exact value, estimate, and their gap."""

    family: str
    n: int
    d: int
    a: float
    exact: float | None
    estimate: float | None
    std_error: float | None
    sigma_gap: float | None
    error: str | None = None


def _map_chunks(config: ExperimentConfig, length: int, rows_per_chunk: int, fn, stream_base: int = 0) -> list:
    """``fn(block)`` for every chunk of ``config.reps`` streams of ``length`` points, in chunk order.

    Chunk i holds ``rows_per_chunk`` streams (the last one what is left) and
    draws its (m, length, d) block from the Philox stream
    ``(config.seed, stream_base + i)`` inside ``finite_draws``; chunks run
    on ``config.workers`` threads.
    """
    spec, reps = config.spec, config.reps
    sizes = [min(rows_per_chunk, reps - start) for start in range(0, reps, rows_per_chunk)]

    def job(i: int):
        with finite_draws(spec):
            block = sample_observations(spec, sizes[i] * length, make_rng(config.seed, stream_base + i))
        return fn(block.reshape(sizes[i], length, spec.dim))

    if config.workers <= 1 or len(sizes) <= 1:
        return [job(i) for i in range(len(sizes))]
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        return list(pool.map(job, range(len(sizes))))


def _mean_se(total, total_sq, reps: int) -> tuple[float, float]:
    """Sample mean and its standard error from a sum and a sum of squares."""
    var = max(total_sq - total * total / reps, 0.0) / max(reps - 1, 1)
    return total / reps, math.sqrt(var / reps)


def simulate_trajectory(spec: DistributionSpec, n: int, rng: np.random.Generator) -> StreamResult:
    """Sample one stream of length n from ``spec`` and fold it through a frontier."""
    with finite_draws(spec):
        obs = sample_observations(spec, n, rng)
    return run_stream(obs)


# ---------------------------------------------------------------------------
# Record-probability estimators
# ---------------------------------------------------------------------------


def estimate_record_prob(config: ExperimentConfig, *, _stream_base: int = 0) -> EstimateWithCI:
    """Indicator estimator of the probability that observation n sets a record.

    Each replicate draws an independent stream of n observations; the
    estimate is the fraction whose final observation is dominated by none of
    its predecessors. Standard error is binomial.
    """
    t0 = time.perf_counter()
    n, reps = config.n, config.reps

    def job(block: np.ndarray) -> int:
        c = block.transpose(2, 0, 1)  # (d, m, n)
        # dom[k, i]: point i weakly dominates the last point of replicate k.
        dom = _dominates(c[:, :, : n - 1], c[:, :, n - 1 :])
        return int(block.shape[0] - dom.any(axis=1).sum())

    hits = reps if n == 1 else sum(_map_chunks(config, n, max(1, _INDICATOR_BUDGET // n), job, _stream_base))
    p = hits / reps
    se = math.sqrt(p * (1.0 - p) / reps)
    return EstimateWithCI(p, se, reps, config.seed, time.perf_counter() - t0)


def estimate_record_prob_survival(config: ExperimentConfig, *, _stream_base: int = 0) -> EstimateWithCI:
    """Survival-weighted estimator: average (1 - S(X))^(n-1) over draws of X.

    Conditioning on the observation removes the indicator's Bernoulli noise,
    so the variance is strictly smaller than the indicator estimator's on
    the same number of draws (and n - 1 = 0 gives exactly 1 with zero
    variance). Requires a closed-form survival; one observation per
    replicate.
    """
    spec, n, reps = config.spec, config.n, config.reps
    survival(spec, np.zeros(spec.dim))  # raises UnsupportedSpecError early
    t0 = time.perf_counter()

    def job(block: np.ndarray) -> tuple[float, float]:
        w = (1.0 - survival(spec, block[:, 0])) ** (n - 1)
        return float(w.sum()), float(np.square(w).sum())

    parts = _map_chunks(config, 1, _SURVIVAL_CHUNK, job, _stream_base)
    mean, se = _mean_se(sum(p[0] for p in parts), sum(p[1] for p in parts), reps)
    return EstimateWithCI(mean, se, reps, config.seed, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Maxima counting
# ---------------------------------------------------------------------------


def _tile_counts(block: np.ndarray) -> np.ndarray:
    """(r_n, R_n, final) from all-pairs dominance tiles, any d.

    ``dom[j, i, k]`` says point i weakly dominates point j in replicate k;
    the replicate axis is innermost, so every comparison and reduction runs
    along contiguous memory. Point j is a record when no earlier point
    dominates it, and stays on the frontier when in addition no *later
    record* dominates it; a later non-record never does unless it duplicates
    j, so this rule keeps the first copy of a duplicate, as the streaming
    structures do.
    """
    m, n, _ = block.shape
    out = np.empty((3, m), dtype=np.int64)
    earlier = np.tril(np.ones((n, n), dtype=bool), -1)[:, :, None]  # [j, i]: i < j
    step = max(1, _TILE_BUDGET // (n * n))
    for s in range(0, m, step):
        c = np.ascontiguousarray(block[s : s + step].transpose(2, 1, 0))  # (d, n, k)
        dom = _dominates(c[:, None], c[:, :, None])
        rec = ~(dom & earlier).any(axis=1)
        # No earlier point dominates a record, so a record stays on the
        # frontier iff the only record dominating it is itself.
        dom &= rec[None, :, :]
        alive = rec & (dom.sum(axis=1, dtype=np.uint16) == 1)
        out[0, s : s + step] = alive.sum(axis=0)
        out[1, s : s + step] = rec.sum(axis=0)
        out[2, s : s + step] = rec[-1]
    return out


def _fold_streams(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Final maxima count r_n, record count R_n and last-step record flag per replicate.

    ``block`` is (m, n, d), one stream per row, free of NaN as every
    family's sampler makes it. The counts equal those of folding each stream
    through ``make_frontier(d)``. Streams of up to ``_TILE_MAX_N_PER_D * d``
    points go through all-pairs tiles, longer ones through the block kernel
    ``_count_records`` on a transposed view of ``block``, so no full-size
    copy is made.
    """
    _, n, d = block.shape
    long = n > _TILE_MAX_N_PER_D * d
    r, big_r, final = _count_records(block.transpose(2, 0, 1)) if long else _tile_counts(block)
    return r, big_r, final


def estimate_maxima(config: ExperimentConfig) -> MaximaEstimates:
    """Estimate E R_n (records seen) and E r_n (current maxima) at time n."""
    t0 = time.perf_counter()
    n, reps = config.n, config.reps

    def job(block: np.ndarray):
        r, big_r, final = _fold_streams(block)
        diff = r - n * final  # mean zero iff E r_n = n p_n
        return (
            int(r.sum()), int(np.square(r).sum()),
            int(big_r.sum()), int(np.square(big_r).sum()),
            int(final.sum()),
            int(diff.sum()), int(np.square(diff).sum()),
        )

    parts = _map_chunks(config, n, max(1, _MAXIMA_BUDGET // n), job)
    agg = [sum(p[i] for p in parts) for i in range(7)]
    elapsed = time.perf_counter() - t0
    maxima = EstimateWithCI(*_mean_se(agg[0], agg[1], reps), reps, config.seed, elapsed)
    records = EstimateWithCI(*_mean_se(agg[2], agg[3], reps), reps, config.seed, elapsed)
    diff_mean, diff_se = _mean_se(agg[5], agg[6], reps)
    gap = 0.0 if diff_mean == 0 else (abs(diff_mean) / diff_se if diff_se > 0 else math.inf)
    return MaximaEstimates(records, maxima, agg[4] / reps, gap)


# ---------------------------------------------------------------------------
# Concomitant identity
# ---------------------------------------------------------------------------


def _count_univariate_records(block: np.ndarray) -> np.ndarray:
    # block shape (m, n): records of a scalar stream = strict running maxima.
    m, n = block.shape
    counts = np.ones(m, dtype=np.int64)
    if n > 1:
        running = np.maximum.accumulate(block[:, :-1], axis=1)
        counts += (block[:, 1:] > running).sum(axis=1)
    return counts


def _count_records(c: np.ndarray) -> np.ndarray:
    """(r_n, R_n, final) of each stream of ``c``, shape (k, m, n) with the coordinate first.

    A point is a record when no earlier point of its stream weakly dominates
    it, so of two equal points only the first can be one. Weak dominance is
    transitive, so testing a point against the current maxima of its stream
    (the records no later record dominates) decides it. The steps go in
    blocks, all replicates together. A block is first tested against the
    maxima the blocks before it left; a point one of them dominates is no
    record, and neither is a point it dominates, so the rest (the
    candidates) are compared only with one another, all pairs at once. Then
    the block's records join the maxima and drop those they dominate; after
    the last block the maxima are r_n. The maxima and the candidates are
    kept at the front of each row of arrays padded with NaN, which dominates
    nothing and that nothing dominates, so they are as wide as the largest
    frontier and block, never n. Each dominance test splits the replicate
    axis only where its mask would exceed ``_TILE_BUDGET`` booleans.
    """
    k, m, n = c.shape
    longest = min(n, _RECORD_BLOCK)
    earlier = np.triu(np.ones((longest, longest), dtype=bool), 1)  # [i, j]: i < j
    out = np.zeros((3, m), dtype=np.int64)
    maxima = np.empty((k, m, 0))
    t, width = 0, min(_RECORD_FIRST_BLOCK, longest)
    while t < n:
        pts = np.ascontiguousarray(c[:, :, t : t + width])  # one block: the tests run faster on it
        t, width = t + width, min(2 * width, _RECORD_BLOCK)
        cand = ~_any_dominates(maxima, pts)
        if maxima.shape[2]:
            pts = _to_front(pts, cand)
        rec, kept = _block_records(pts, earlier)
        out[1] += rec.sum(axis=1)
        # A candidate that dominates an old maximum is a record or dominated
        # by one, so the maximum leaves.
        alive = np.concatenate([~np.isnan(maxima[0]) & ~_any_dominates(pts, maxima), kept], axis=1)
        if t < n:
            maxima = _to_front(np.concatenate([maxima, pts], axis=2), alive)
    out[0] = alive.sum(axis=1)
    # The last step, where it is a candidate, is the last candidate of its row.
    last = np.flatnonzero(cand[:, -1])
    out[2, last] = rec[last, cand[last].sum(axis=1) - 1]
    return out


def _any_dominates(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(m, Y) mask of the points of ``y`` that a point of ``x`` in the same row weakly dominates.

    ``x`` is (k, m, X) and ``y`` (k, m, Y), the coordinate first.
    """
    m, width, size = y.shape[1], x.shape[2], y.shape[2]
    out = np.empty((m, size), dtype=bool)
    step = max(1, _TILE_BUDGET // max(1, width * size))
    for s in range(0, m, step):
        out[s : s + step] = _dominates(x[:, s : s + step, :, None], y[:, s : s + step, None, :]).any(axis=1)
    return out


def _block_records(pts: np.ndarray, earlier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, L) masks of the records among the candidates ``pts`` (k, m, L), and of those no later record dominates.

    A later non-record that dominates a record may be a copy of it, so only
    records count for the second mask.
    """
    _, m, size = pts.shape
    before, after = earlier[:size, :size], earlier[:size, :size].T
    rec, kept = np.empty((2, m, size), dtype=bool)
    step = max(1, _TILE_BUDGET // max(1, size * size))
    for s in range(0, m, step):
        p = pts[:, s : s + step]
        dom = _dominates(p[:, :, :, None], p[:, :, None, :])  # [i, j]: i dominates j
        r = ~(dom & before).any(axis=1) & ~np.isnan(p[0])
        dom &= r[:, :, None]
        rec[s : s + step], kept[s : s + step] = r, r & ~(dom & after).any(axis=1)
    return rec, kept


def _to_front(pts: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The points of (k, m, L) ``pts`` that (m, L) ``keep`` marks, in order at the front of each row, NaN after."""
    reps, steps = np.nonzero(keep)
    out = np.full((pts.shape[0], pts.shape[1], int(keep.sum(axis=1).max())), np.nan)
    out[:, reps, (np.cumsum(keep, axis=1) - 1)[reps, steps]] = pts[:, reps, steps]
    return out


def concomitant_records(block: np.ndarray) -> np.ndarray:
    """Record counts of the first d-1 coordinates in concomitant order.

    ``block`` has shape (m, n, d). Each replicate's rows are sorted by the
    last coordinate, largest first, and the records of the remaining d-1
    coordinates are counted in that order: by a running maximum for d = 2,
    beyond by the block kernel ``_count_records``. For every realization
    this count equals the number of maxima of the full d-dimensional point
    set: a point is a maximum exactly when no point with a larger last
    coordinate weakly dominates it elsewhere.
    """
    m, n, d = block.shape
    order = np.argsort(-block[:, :, d - 1], axis=1, kind="stable")
    if d - 1 == 1:
        sorted_first = np.take_along_axis(block[:, :, 0], order, axis=1)
        return _count_univariate_records(sorted_first)
    return _count_records(np.take_along_axis(block.transpose(2, 0, 1)[: d - 1], order[None], axis=2))[1]


def concomitant_check(config: ExperimentConfig) -> ConcomitantResult:
    """Two-sample chi-square between r_{n,d} and the concomitant R_{n,d-1}.

    Sorting a stream by its last coordinate turns the d-dimensional maxima
    into exactly the records of the first d-1 coordinates read in that
    order, so for any continuous law the two counts share one distribution.
    The two samples are drawn independently from disjoint stream ranges and
    count different things: d-dimensional maxima of time-ordered streams,
    and records of (d-1)-dimensional streams in concomitant order. At d = 2
    the code differs too: the maxima side is ``_fold_streams`` and the
    record side a sort and a running maximum. At d >= 3 both sides run the
    block kernel ``_count_records`` on streams longer than the tiles' reach,
    on their different inputs; shorter streams keep the all-pairs tiles on
    the maxima side, so there the check still compares two code paths.
    """
    n, reps, seed = config.n, config.reps, config.seed
    if config.spec.dim < 2:
        raise InvalidParameterError("concomitant check needs dimension >= 2")
    if reps < 2:
        raise InvalidParameterError(f"concomitant check needs reps >= 2, got {reps}")
    rows = max(1, _MAXIMA_BUDGET // n)
    maxima = _map_chunks(config, n, rows, lambda block: _fold_streams(block)[0])
    records = _map_chunks(config, n, rows, concomitant_records, _PHASE_STRIDE)
    hist_r, hist_big_r = np.bincount(np.concatenate(maxima)), np.bincount(np.concatenate(records))
    stat, dof, pvalue = _chi2_two_sample(hist_r, hist_big_r)
    return ConcomitantResult(hist_r, hist_big_r, stat, dof, pvalue, reps, seed)


def _chi2_two_sample(h1: np.ndarray, h2: np.ndarray, min_expected: float = 5.0):
    """Chi-square homogeneity test on two integer-valued histograms.

    Adjacent value bins are pooled left to right until both expected cells
    reach ``min_expected``; a trailing short bin is merged backwards.
    """
    width = max(h1.size, h2.size)
    o1 = np.zeros(width)
    o2 = np.zeros(width)
    o1[: h1.size] = h1
    o2[: h2.size] = h2
    n1, n2 = o1.sum(), o2.sum()
    total = n1 + n2
    bins: list[tuple[float, float]] = []
    acc1 = acc2 = 0.0
    for v1, v2 in zip(o1, o2):
        acc1 += v1
        acc2 += v2
        pooled = acc1 + acc2
        if pooled * n1 / total >= min_expected and pooled * n2 / total >= min_expected:
            bins.append((acc1, acc2))
            acc1 = acc2 = 0.0
    if acc1 or acc2:
        if bins:
            last1, last2 = bins.pop()
            bins.append((last1 + acc1, last2 + acc2))
        else:
            bins.append((acc1, acc2))
    if len(bins) < 2:
        return 0.0, 0, 1.0
    stat = 0.0
    for b1, b2 in bins:
        pooled = b1 + b2
        e1 = pooled * n1 / total
        e2 = pooled * n2 / total
        stat += (b1 - e1) ** 2 / e1 + (b2 - e2) ** 2 / e2
    dof = len(bins) - 1
    return float(stat), dof, chi2_sf(dof, float(stat))


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

#: Exact p_n(n, d, a) by family tag, looked up when called so that tracing can replace the names.
#: ``a`` may be a 1-D array for ``dir`` and ``pa``; ``iid-exp`` ignores it.
EXACT_PN = {
    "dir": lambda n, d, a: pn_marginal_dirichlet(n, d, a),
    "pa": lambda n, d, a: pn_scale_mixture(n, d, a),
    "iid-exp": lambda n, d, a: pn_independent(n, d),
}


def sweep(
    family: str,
    *,
    a_values,
    n: int,
    d: int,
    reps: int = 0,
    seed: int = 0,
    workers: int = 1,
    estimator: str = "indicator",
) -> list[SweepRow]:
    """Evaluate record probabilities of ``family`` ("dir" or "pa") over a grid of a.

    n and d are fixed. ``reps = 0`` produces an exact-only table with no
    sampling; a positive ``reps`` gives each row a Monte Carlo estimate
    (``estimator`` is ``"indicator"`` or ``"survival"``), its SE and the gap
    to the exact value in SE units, and a negative one raises. A failing row
    is marked and the sweep continues; a row whose estimate fails keeps its
    exact value.

    The exact column comes from one ``EXACT_PN[family]`` call on the whole
    grid. If that call raises, the grid is evaluated again point by point, so
    each failing row carries its own error and the others their values.
    """
    reps = _require_int(reps, 0, "reps")
    if len(a_values) == 0:
        raise InvalidParameterError("a_values must be a nonempty grid")
    if estimator not in ("indicator", "survival"):
        raise InvalidParameterError(f'estimator must be "indicator" or "survival", got {estimator!r}')
    if family not in ("dir", "pa"):
        raise InvalidParameterError(f'sweep family must be "dir" or "pa", got {family!r}')

    grid = [float(v) for v in a_values]
    try:
        exact_column = EXACT_PN[family](n, d, np.array(grid)).tolist()
    except Exception:  # noqa: BLE001 - the rows below are evaluated one by one instead
        exact_column = None

    rows: list[SweepRow] = []
    for idx, aa in enumerate(grid):
        exact = estimate = std_error = sigma_gap = None
        try:
            exact = exact_column[idx] if exact_column is not None else EXACT_PN[family](n, d, aa)
            if reps > 0:
                config = ExperimentConfig(spec_from_json({"family": family, "d": d, "a": aa}), n, reps, seed, workers)
                fn = estimate_record_prob_survival if estimator == "survival" else estimate_record_prob
                est = fn(config, _stream_base=(idx + 1) * _PHASE_STRIDE)
                estimate, std_error = est.point, est.std_error
                if std_error > 0:
                    sigma_gap = (estimate - exact) / std_error
                else:
                    sigma_gap = 0.0 if estimate == exact else math.inf
            rows.append(SweepRow(family, n, d, aa, exact, estimate, std_error, sigma_gap))
        except Exception as exc:  # noqa: BLE001 - row-level isolation is the contract
            rows.append(SweepRow(family, n, d, aa, exact, None, None, None, f"{type(exc).__name__}: {exc}"))
    return rows
