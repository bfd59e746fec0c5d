"""The batched maxima kernels against the streaming frontiers and the oracle.

``simulate._fold_streams`` must give, for every replicate, exactly the final
maxima count r_n, the record count R_n and the last-step record flag that
folding the stream point by point through ``make_frontier(d)`` gives, ties,
duplicates and infinities included. Both of its regimes (all-pairs tiles
and the block kernel ``_count_records``) are also checked on their own at
every stream length, with a dominance-mask budget small enough that the
replicate axis splits into several chunks and a remainder.
"""

import tracemalloc

import numpy as np
import pytest

from paretorecords import (
    Comonotone,
    Dirichlet,
    ExponentialScaleMixture,
    GenericFrontier,
    IidExponential,
    MarginalDirichlet,
    Mixture,
    make_frontier,
    make_rng,
    records_bruteforce,
    run_stream,
    sample_observations,
)
from paretorecords import simulate
from paretorecords.simulate import _any_dominates, _count_records, _fold_streams, _tile_counts


def streaming(block):
    """(r_n, R_n, final) per replicate from ``run_stream``, one point at a time."""
    out = np.empty((3, block.shape[0]), dtype=np.int64)
    for i, stream in enumerate(block):
        res = run_stream(stream)
        out[:, i] = res.maxima_count, res.records_total, res.outcomes[-1].is_record
    return out


def kernel(block):
    """(r_n, R_n, final) from the block kernel, on a transposed view as ``_fold_streams`` passes it."""
    return _count_records(block.transpose(2, 0, 1))


def bruteforce(block):
    out = np.empty((3, block.shape[0]), dtype=np.int64)
    for i, stream in enumerate(block):
        is_record, r_n = records_bruteforce(stream)
        out[:, i] = r_n, is_record.sum(), is_record[-1]
    return out


def families(d):
    if d == 1:
        return [IidExponential(1), Comonotone(1), Mixture(0.5, IidExponential(1), Comonotone(1))]
    return [
        IidExponential(d),
        MarginalDirichlet(d, 1.5),
        ExponentialScaleMixture(d, 2.0),
        Dirichlet((1.0,) * d),
        Comonotone(d),
        Mixture(0.3, MarginalDirichlet(d, 1.0), Mixture(0.5, Dirichlet((0.5,) * d), IidExponential(d))),
    ]


def rows_for(n):
    # Not a multiple of the five-row sub-tile the fixture below sets.
    return 23 if n <= 3 else 7 if n <= 385 else 3 if n <= 1000 else 1


@pytest.fixture
def small_tiles(monkeypatch):
    """Shrink the tile budget so a few rows already fill a sub-tile."""

    def shrink(n):
        monkeypatch.setattr(simulate, "_TILE_BUDGET", 5 * n * n)

    return shrink


@pytest.mark.parametrize("n", [1, 2, 3, 192, 193, 256, 384, 385, 1000, 5000])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_random_blocks_match_streaming_and_oracle(d, n, small_tiles):
    small_tiles(n)
    m = rows_for(n)
    for j, spec in enumerate(families(d)):
        block = sample_observations(spec, m * n, make_rng(700 + d, j * 10 + n)).reshape(m, n, d)
        want = streaming(block)
        assert np.array_equal(np.array(_fold_streams(block)), want), (spec, n)
        if n <= 1000:  # beyond, the tiles are too large and _fold_streams is the block kernel
            assert np.array_equal(kernel(block), want), (spec, n)
            assert np.array_equal(_tile_counts(block), want), (spec, n)
            assert np.array_equal(bruteforce(block), want), (spec, n)


def hand_built_blocks():
    rng = np.random.default_rng(5)
    grid = rng.integers(0, 3, size=(11, 300, 3)).astype(float)  # many exact duplicates
    yield "duplicates d=3", grid
    yield "duplicates d=2", grid[:, :, :2].copy()
    yield "duplicates d=1", grid[:, :, :1].copy()
    ties = rng.exponential(size=(9, 260, 2))
    ties[:, :, 0] = np.round(ties[:, :, 0], 1)  # ties in one coordinate only
    yield "ties in x", ties
    yield "ties in y", ties[:, :, ::-1].copy()
    inf = rng.exponential(size=(9, 280, 3))
    inf[rng.random(inf.shape) < 0.05] = np.inf
    inf[rng.random(inf.shape) < 0.02] = -np.inf
    yield "+-inf d=3", inf
    yield "+-inf d=2", inf[:, :, :2].copy()
    with np.errstate(all="ignore"):  # gamma(a) underflows to 0 at tiny a
        yield "pa a=0.002 d=2", sample_observations(
            ExponentialScaleMixture(2, 0.002), 6 * 400, make_rng(1)
        ).reshape(6, 400, 2)
        yield "dirichlet b=0.001 d=2", sample_observations(
            Dirichlet((0.001, 0.001)), 8 * 300, make_rng(2)
        ).reshape(8, 300, 2)


@pytest.mark.parametrize("name, block", list(hand_built_blocks()), ids=lambda v: v if isinstance(v, str) else "")
def test_hand_built_blocks_match_streaming(name, block, small_tiles):
    small_tiles(block.shape[1])
    want = streaming(block)
    for n in (1, 2, 3, 40, block.shape[1]):  # both regimes, on prefixes of the same streams
        prefix = block[:, :n]
        assert np.array_equal(np.array(_fold_streams(prefix)), streaming(prefix)), (name, n)
    assert np.array_equal(_tile_counts(block), want), name
    assert np.array_equal(kernel(block), want), name


@pytest.mark.parametrize("d", [1, 2, 3])
def test_segment_dominance_matches_pointwise_compare(d):
    # Maxima of unequal sizes, NaN-padded at the front of each row as the
    # kernel keeps them, against a segment of steps; ties and inf.
    rng = np.random.default_rng(8 + d)
    points = rng.integers(0, 6, size=(40, 50, d)).astype(float)
    points[rng.random(points.shape) < 0.05] = np.inf
    frontiers = [make_frontier(d) for _ in range(40)]
    for fr, stream in zip(frontiers, points):
        run_stream(stream, fr)
    width = max(fr.size for fr in frontiers)
    maxima = np.array([np.pad(fr.maxima, ((0, width - fr.size), (0, 0)), constant_values=np.nan) for fr in frontiers])
    seg = rng.integers(0, 7, size=(40, 33, d)).astype(float)
    seg[rng.random(seg.shape) < 0.05] = np.inf
    want = np.array([[np.all(fr.maxima >= q, axis=1).any() for q in s] for fr, s in zip(frontiers, seg)])
    assert np.array_equal(_any_dominates(maxima.transpose(2, 0, 1), seg.transpose(2, 0, 1)), want)


def test_current_maxima_suffice_to_decide_records():
    # Why the block kernel tests each step only against the current maxima:
    # the records of any time-ordered subset holding every record are the
    # stream's records, and that subset ends with the stream's frontier,
    # since a non-record is always dominated by an earlier record.
    rng = np.random.default_rng(9)
    for trial in range(60):
        d = 1 + trial % 4
        stream = rng.integers(0, 4, size=(120, d)).astype(float)
        is_record, _ = records_bruteforce(stream)
        subset = np.flatnonzero(is_record | (rng.random(120) < 0.3))
        sub_record, _ = records_bruteforce(stream[subset])
        assert np.array_equal(subset[sub_record], np.flatnonzero(is_record))
        full, part = GenericFrontier(d), GenericFrontier(d)
        run_stream(stream, full)
        run_stream(stream[subset], part)
        assert full.records_total == part.records_total
        assert np.array_equal(full.maxima, part.maxima)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_both_sides_of_the_tile_length(d):
    # The longest tiled stream, one step more, and a single replicate.
    tile = simulate._TILE_MAX_N_PER_D * d
    for m, n in ((9, tile), (9, tile + 1), (1, tile + 1), (1, 1000)):
        for j, spec in enumerate(families(d)):
            block = sample_observations(spec, m * n, make_rng(900 + d, j * 10 + m)).reshape(m, n, d)
            want = streaming(block)
            assert np.array_equal(np.array(_fold_streams(block)), want), (spec, m, n)
            assert np.array_equal(kernel(block), want), (spec, m, n)


def test_final_block_without_candidates():
    # A first step of inf dominates every later one, so from the second block
    # on no replicate has a candidate. In the planar pa streams below no
    # replicate has a record, and so no candidate, in the last 32 steps.
    rng = np.random.default_rng(10)
    block = rng.exponential(size=(6, 500, 3))
    block[:, 0] = np.inf
    assert np.array_equal(kernel(block), np.array([[1] * 6, [1] * 6, [0] * 6]))
    for b in (block, block[:, :, :2]):
        assert np.array_equal(kernel(b), streaming(b))
    pa = sample_observations(ExponentialScaleMixture(2, 2.0), 20 * 10_000, make_rng(11)).reshape(20, 10_000, 2)
    assert np.array_equal(kernel(pa), streaming(pa))


def test_small_budget_splits_the_replicates(monkeypatch):
    # 11 replicates, and a budget that fits the first block's 16 x 16
    # candidate test of 4 replicates: chunks of 4, 4 and a remainder of 3.
    # Wider tests split further; narrow ones run all 11 at once.
    monkeypatch.setattr(simulate, "_TILE_BUDGET", 4 * 16 * 16)
    sizes = set()

    def spy(x, y):
        mask = dominates(x, y)
        sizes.add(mask.shape[0])
        return mask

    dominates = simulate._dominates
    monkeypatch.setattr(simulate, "_dominates", spy)
    for d in (2, 3):
        for j, spec in enumerate(families(d)):
            block = sample_observations(spec, 11 * 700, make_rng(12, j)).reshape(11, 700, d)
            assert np.array_equal(kernel(block), streaming(block)), spec
    assert {1, 3, 4, 11} <= sizes


def test_memory_follows_the_frontier():
    # An antichain of 3000 points per stream: the maxima grow to n. The
    # masks stay within the budget and the maxima within the block's size,
    # so the peak is four budgets plus two blocks (18 MB measured, 24 MB
    # allowed). An iid-exp stream of 20000 points keeps ~50 maxima, and the
    # fold allocates a small part of its block.
    antichain = sample_observations(Dirichlet((1.0, 1.0, 1.0)), 50 * 3000, make_rng(13)).reshape(50, 3000, 3)
    iid = sample_observations(IidExponential(3), 4 * 20_000, make_rng(14)).reshape(4, 20_000, 3)
    for block, limit in ((antichain, 4 * simulate._TILE_BUDGET + 2 * antichain.nbytes), (iid, iid.nbytes / 4)):
        tracemalloc.start()
        try:
            counts = _fold_streams(block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit, (peak, limit)
    assert np.array_equal(np.array(_fold_streams(antichain)), [[3000] * 50, [3000] * 50, [1] * 50])
    assert counts[0].max() < 200
