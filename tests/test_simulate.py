import math
import tracemalloc

import numpy as np
import pytest

from paretorecords import (
    Comonotone,
    Dirichlet,
    ExperimentConfig,
    ExponentialScaleMixture,
    IidExponential,
    InvalidParameterError,
    MarginalDirichlet,
    Mixture,
    PrecisionLossError,
    UnsupportedSpecError,
    concomitant_check,
    estimate_maxima,
    estimate_record_prob,
    estimate_record_prob_survival,
    make_frontier,
    make_rng,
    pn_independent,
    pn_marginal_dirichlet,
    pn_scale_mixture,
    records_bruteforce,
    sample_observations,
    simulate_trajectory,
    sweep,
)
from paretorecords import exact as exact_mod
from paretorecords import simulate
from paretorecords.simulate import concomitant_records


class TestIndicatorEstimator:
    def test_first_observation_always_record(self):
        est = estimate_record_prob(ExperimentConfig(IidExponential(2), n=1, reps=1000, seed=0))
        assert est.point == 1.0 and est.std_error == 0.0

    def test_antichain_gives_one_exactly(self):
        est = estimate_record_prob(
            ExperimentConfig(Dirichlet((1.0, 1.0, 1.0)), n=7, reps=20_000, seed=1)
        )
        assert est.point == 1.0 and est.std_error == 0.0

    def test_comonotone_is_univariate(self):
        est = estimate_record_prob(ExperimentConfig(Comonotone(5), n=4, reps=200_000, seed=2))
        assert abs(est.point - 0.25) < 4.0 * est.std_error

    def test_iid_matches_exact(self):
        est = estimate_record_prob(ExperimentConfig(IidExponential(2), n=2, reps=200_000, seed=3))
        assert abs(est.point - 0.75) < 4.0 * est.std_error

    def test_mixture_supported(self):
        spec = Mixture(0.5, IidExponential(2), Dirichlet((1.0, 1.0)))
        est = estimate_record_prob(ExperimentConfig(spec, n=3, reps=50_000, seed=4))
        # half the mass is an antichain: p = 0.5 * p_mix_part + 0.5-ish; just bounds
        assert 0.0 < est.point <= 1.0

    def test_deterministic_across_workers(self):
        for spec in (MarginalDirichlet(2, 1.0), ExponentialScaleMixture(3, 0.5)):
            runs = [
                estimate_record_prob(ExperimentConfig(spec, n=5, reps=300_000, seed=9, workers=w))
                for w in (1, 3, 7)
            ]
            assert len({r.point for r in runs}) == 1
            assert len({r.std_error for r in runs}) == 1

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_record_flag_matches_bruteforce_with_ties(self, d, monkeypatch):
        # Hand-built streams replace the draws: a {0, 1, 2} lattice (exact
        # ties and repeated points) and continuous draws tied in one coordinate.
        rng = np.random.default_rng(30 + d)
        ties = rng.exponential(size=(40, 12, d))
        ties[:, :, 0] = np.round(ties[:, :, 0], 1)
        for block in (rng.integers(0, 3, size=(40, 12, d)).astype(float), ties):
            for n in (2, 3, 12):
                streams = block[:, :n]
                flags = [bool(records_bruteforce(s)[0][-1]) for s in streams]
                for stream, flag in zip(streams, flags):
                    monkeypatch.setattr(simulate, "sample_observations", lambda *_, s=stream: s.copy())
                    est = estimate_record_prob(ExperimentConfig(IidExponential(d), n=n, reps=1))
                    assert est.point == float(flag), (n, stream)
                # All replicates in one chunk.
                monkeypatch.setattr(simulate, "sample_observations", lambda *_: streams.reshape(-1, d))
                est = estimate_record_prob(ExperimentConfig(IidExponential(d), n=n, reps=len(streams)))
                assert est.point == sum(flags) / len(flags)

    @pytest.mark.parametrize("d", [2, 3])
    def test_hit_count_matches_bruteforce_on_lattice_chunks(self, d, monkeypatch):
        # {0, 1}-lattice streams keyed by each chunk's Philox stream, spread
        # over several chunks (the last one short) and three workers.
        monkeypatch.setattr(simulate, "_INDICATOR_BUDGET", 64)  # 8 streams per chunk at n = 8
        n, reps = 8, 53
        drawn = {}  # Philox stream index -> the chunk's draws

        def lattice(_spec, count, rng):
            draws = rng.integers(0, 2, size=(count, d)).astype(float)
            drawn[int(rng.bit_generator.state["state"]["key"][1])] = draws
            return draws

        monkeypatch.setattr(simulate, "sample_observations", lattice)
        est = estimate_record_prob(ExperimentConfig(IidExponential(d), n=n, reps=reps, seed=5, workers=3))
        assert sorted(drawn) == list(range(7))
        streams = np.concatenate([drawn[i] for i in range(7)]).reshape(reps, n, d)
        hits = sum(bool(records_bruteforce(s)[0][-1]) for s in streams)
        assert 0 < hits < reps
        assert est.point * reps == hits


class TestSurvivalEstimator:
    def test_matches_exact_marginal_dirichlet(self):
        est = estimate_record_prob_survival(ExperimentConfig(MarginalDirichlet(2, 1.0), 2, 100_000, seed=5))
        assert abs(est.point - 5.0 / 6.0) < 4.0 * est.std_error

    def test_matches_exact_scale_mixture(self):
        est = estimate_record_prob_survival(ExperimentConfig(ExponentialScaleMixture(2, 1.0), 2, 100_000, seed=6))
        assert abs(est.point - 2.0 / 3.0) < 4.0 * est.std_error

    def test_n1_zero_variance(self):
        est = estimate_record_prob_survival(ExperimentConfig(IidExponential(2), 1, 10_000, seed=7))
        assert est.point == 1.0 and est.std_error == 0.0

    def test_variance_reduction(self):
        spec = MarginalDirichlet(2, 1.0)
        reps = 100_000
        indicator = estimate_record_prob(ExperimentConfig(spec, n=5, reps=reps, seed=8))
        smoothed = estimate_record_prob_survival(ExperimentConfig(spec, 5, reps, seed=8))
        assert smoothed.std_error < indicator.std_error

    def test_agreement_between_estimators(self):
        for spec, n in (
            (MarginalDirichlet(2, 5.0), 5),
            (ExponentialScaleMixture(2, 0.5), 10),
            (IidExponential(3), 4),
            (Comonotone(2), 6),
        ):
            a = estimate_record_prob(ExperimentConfig(spec, n=n, reps=100_000, seed=10))
            b = estimate_record_prob_survival(ExperimentConfig(spec, n, 100_000, seed=11))
            joint = math.hypot(a.std_error, b.std_error)
            assert abs(a.point - b.point) < 4.0 * joint

    def test_nonincreasing_in_n_and_above_floor(self):
        # p_n is nonincreasing in n and never drops below 1/n: the estimates
        # must respect both within joint confidence bands.
        for spec in (MarginalDirichlet(2, 1.0), ExponentialScaleMixture(2, 1.0)):
            ns = [2, 5, 10, 20]
            ests = [
                estimate_record_prob(ExperimentConfig(spec, n=n, reps=100_000, seed=23))
                for n in ns
            ]
            for (n1, e1), (n2, e2) in zip(zip(ns, ests), zip(ns[1:], ests[1:])):
                joint = math.hypot(e1.std_error, e2.std_error)
                assert e1.point >= e2.point - 4.0 * joint, (spec, n1, n2)
            for n, e in zip(ns, ests):
                assert e.point >= 1.0 / n - 4.0 * e.std_error, (spec, n)

    def test_unsupported_spec(self):
        with pytest.raises(UnsupportedSpecError):
            estimate_record_prob_survival(ExperimentConfig(Dirichlet((1.0, 1.0)), 2, 100, seed=0))

    def test_deterministic_across_workers(self):
        runs = [
            estimate_record_prob_survival(ExperimentConfig(MarginalDirichlet(2, 2.0), 4, 200_000, seed=12, workers=w))
            for w in (1, 4)
        ]
        assert runs[0].point == runs[1].point
        assert runs[0].std_error == runs[1].std_error


class TestMaximaEstimates:
    def test_iid_d2_mean_maxima_is_harmonic_number(self):
        # E r_n = n * p_n and n * p_{n,2} is exactly the harmonic number H_n.
        n = 100
        result = estimate_maxima(ExperimentConfig(IidExponential(2), n=n, reps=4000, seed=13))
        h_n = sum(1.0 / k for k in range(1, n + 1))
        assert abs(result.maxima.point - h_n) < 4.0 * result.maxima.std_error
        assert result.identity_gap_sigma < 4.0
        assert result.records.point >= result.maxima.point

    def test_univariate_record_count(self):
        n = 200
        result = estimate_maxima(ExperimentConfig(IidExponential(1), n=n, reps=3000, seed=14))
        h_n = sum(1.0 / k for k in range(1, n + 1))
        assert abs(result.records.point - h_n) < 4.0 * result.records.std_error
        assert result.maxima.point == 1.0  # single running maximum survives

    def test_generic_path_d3(self):
        result = estimate_maxima(ExperimentConfig(IidExponential(3), n=50, reps=2000, seed=15))
        expected = 50 * pn_independent(50, 3)
        assert abs(result.maxima.point - expected) < 4.0 * result.maxima.std_error

    def test_deterministic_across_workers(self):
        runs = [
            estimate_maxima(ExperimentConfig(MarginalDirichlet(2, 1.0), n=60, reps=4000, seed=16, workers=w))
            for w in (1, 5)
        ]
        assert runs[0].maxima.point == runs[1].maxima.point
        assert runs[0].records.point == runs[1].records.point
        assert runs[0].pn_hat == runs[1].pn_hat


class TestConcomitant:
    def test_point_mass_at_n1(self):
        result = concomitant_check(ExperimentConfig(IidExponential(2), n=1, reps=1000, seed=17))
        assert result.statistic == 0.0 and result.dof == 0 and result.pvalue == 1.0

    def test_iid_d2_not_rejected(self):
        result = concomitant_check(ExperimentConfig(IidExponential(2), n=20, reps=20_000, seed=18))
        assert result.pvalue >= 1e-3
        assert result.maxima_counts.sum() == 20_000
        assert result.record_counts.sum() == 20_000

    def test_marginal_dirichlet_d3(self):
        result = concomitant_check(ExperimentConfig(MarginalDirichlet(3, 2.0), n=15, reps=20_000, seed=19))
        assert result.pvalue >= 1e-3

    def test_sorted_record_count_equals_maxima_pathwise(self):
        # The concomitant bijection is exact per realization: counting
        # (d-1)-dim records in sorted-by-last-coordinate order must equal the
        # d-dimensional maxima count on the same draws, for any family.
        for spec, seed in [
            (MarginalDirichlet(3, 2.0), 30),
            (ExponentialScaleMixture(2, 1.0), 31),
            (IidExponential(4), 32),
        ]:
            block = sample_observations(spec, 40 * 25, make_rng(seed)).reshape(40, 25, spec.dim)
            from_sort = concomitant_records(block)
            for i in range(block.shape[0]):
                _, r_n = records_bruteforce(block[i])
                assert from_sort[i] == r_n

    def test_deterministic_across_workers(self, monkeypatch):
        monkeypatch.setattr(simulate, "_MAXIMA_BUDGET", 1 << 12)  # 10 chunks of at most 204 streams
        runs = [
            concomitant_check(ExperimentConfig(MarginalDirichlet(3, 1.5), n=20, reps=2000, seed=20, workers=w))
            for w in (1, 3)
        ]
        assert np.array_equal(runs[0].maxima_counts, runs[1].maxima_counts)
        assert np.array_equal(runs[0].record_counts, runs[1].record_counts)
        assert runs[0].statistic == runs[1].statistic
        assert runs[0].pvalue == runs[1].pvalue

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            concomitant_check(ExperimentConfig(IidExponential(1), n=5, reps=100, seed=0))
        with pytest.raises(InvalidParameterError):
            concomitant_check(ExperimentConfig(IidExponential(2), n=5, reps=1, seed=0))
        for n, reps, workers in ((0, 100, 1), (5, 100, 0), (True, 100, 1), (5, 2.5, 1)):
            with pytest.raises(InvalidParameterError):
                concomitant_check(ExperimentConfig(IidExponential(2), n=n, reps=reps, seed=0, workers=workers))


def _frontier_record_counts(block):
    """R_n of each stream in concomitant order, one point at a time through make_frontier(d - 1)."""
    counts = []
    for stream in block:
        order = np.argsort(-stream[:, -1], kind="stable")
        fr = make_frontier(block.shape[2] - 1)
        for row in stream[order, :-1]:
            fr.insert(row)
        counts.append(fr.records_total)
    return np.array(counts)


class TestConcomitantRecords:
    """The replicate-batched record side against a per-point frontier fold."""

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 90), (17, 1), (23, 7), (9, 61), (3, 300)])
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    @pytest.mark.parametrize("small", [False, True], ids=["default", "small-blocks"])
    def test_matches_frontier_fold(self, d, m, n, small, monkeypatch):
        if small:
            # Blocks of 2, 4 and then 8 steps, and a budget that splits the
            # replicates of the wider dominance tests into groups of three or more.
            monkeypatch.setattr(simulate, "_RECORD_FIRST_BLOCK", 2)
            monkeypatch.setattr(simulate, "_RECORD_BLOCK", 8)
            monkeypatch.setattr(simulate, "_TILE_BUDGET", 3 * min(n, 8) * n)
        specs = [IidExponential(d), MarginalDirichlet(d, 1.5), ExponentialScaleMixture(d, 2.0),
                 Dirichlet((1.0,) * d), Comonotone(d)]
        for i, spec in enumerate(specs):
            block = sample_observations(spec, m * n, make_rng(40 + i, d)).reshape(m, n, d)
            # Rounding makes ties and duplicate rows; the first copy is the record.
            for b in (block, np.round(block, 1), np.round(block * 3.0)):
                assert np.array_equal(concomitant_records(b), _frontier_record_counts(b)), type(spec).__name__

    def test_antichain_all_records(self, monkeypatch):
        # A full Dirichlet sample is an antichain: every point is a record,
        # and every block's records drop some of the maxima before them.
        monkeypatch.setattr(simulate, "_RECORD_BLOCK", 8)
        block = sample_observations(Dirichlet((1.0,) * 4), 2 * 500, make_rng(47)).reshape(2, 500, 4)
        assert np.array_equal(concomitant_records(block), [500, 500])

    def test_memory_follows_the_records_not_n(self):
        # m = 4 streams of n = 20000 points, d - 1 = 3 coordinates: a store
        # of all n steps would hold as many bytes as the sorted streams
        # themselves; the maxima of ~200 records per stream take a few kB.
        block = sample_observations(IidExponential(4), 4 * 20_000, make_rng(48)).reshape(4, 20_000, 4)
        order = np.argsort(-block[:, :, 3], axis=1, kind="stable")
        streams = np.take_along_axis(block.transpose(2, 0, 1)[:3], order[None], axis=2)
        tracemalloc.start()
        try:
            counts = simulate._count_records(streams)[1]  # R_n
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(counts, _frontier_record_counts(block))
        assert counts.max() < 400
        assert peak < streams.nbytes / 4


class TestSweep:
    def test_exact_only_grid_monotone(self):
        rows = sweep("dir", a_values=[0.1, 1.0, 10.0, 100.0], n=5, d=2)
        vals = [r.exact for r in rows]
        assert all(r.estimate is None for r in rows)
        assert all(x > y for x, y in zip(vals, vals[1:]))
        rows = sweep("pa", a_values=[0.1, 1.0, 10.0, 100.0], n=5, d=2)
        vals = [r.exact for r in rows]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_single_point_matches_exact(self):
        row = sweep("pa", a_values=[1.0], n=2, d=2)[0]
        assert row.exact == pytest.approx(pn_scale_mixture(2, 2, 1.0))
        row = sweep("dir", a_values=[2.0], n=3, d=3)[0]
        assert row.exact == pytest.approx(pn_marginal_dirichlet(3, 3, 2.0))

    def test_with_monte_carlo(self):
        rows = sweep("dir", a_values=[0.5, 5.0], n=4, d=2, reps=50_000, seed=20)
        for r in rows:
            assert r.error is None
            assert abs(r.sigma_gap) < 5.0

    def test_failed_row_marked_not_raised(self):
        rows = sweep("dir", a_values=[1.0, -1.0, 2.0], n=3, d=2)
        assert rows[0].error is None and rows[2].error is None
        assert rows[1].error is not None and rows[1].exact is None
        # The good rows keep the scalar values to the bit, the bad one the scalar error.
        assert [rows[0].exact, rows[2].exact] == [pn_marginal_dirichlet(3, 2, 1.0), pn_marginal_dirichlet(3, 2, 2.0)]
        with pytest.raises(InvalidParameterError) as exc:
            pn_marginal_dirichlet(3, 2, -1.0)
        assert rows[1].error == f"{exc.type.__name__}: {exc.value}"

    def test_unconverged_row_marked_not_raised(self, monkeypatch):
        # Capped at 256 intervals, the quadrature cannot certify dir(200, 6, 1000);
        # the d-term sum certifies the two other points.
        monkeypatch.setattr(exact_mod, "_QUAD_MAX_INTERVALS", 256)
        rows = sweep("dir", a_values=[0.5, 1000.0, 2.0], n=200, d=6)
        with pytest.raises(PrecisionLossError) as exc:
            pn_marginal_dirichlet(200, 6, 1000.0)
        assert rows[1].exact is None and rows[1].error == f"PrecisionLossError: {exc.value}"
        assert [rows[0].exact, rows[2].exact] == [pn_marginal_dirichlet(200, 6, 0.5), pn_marginal_dirichlet(200, 6, 2.0)]

    @pytest.mark.parametrize("family, fn", [("dir", pn_marginal_dirichlet), ("pa", pn_scale_mixture)])
    def test_exact_a_grid_is_one_call(self, monkeypatch, family, fn):
        calls = []
        real = simulate.EXACT_PN[family]

        def spy(n, d, a):
            calls.append(a)
            return real(n, d, a)

        monkeypatch.setitem(simulate.EXACT_PN, family, spy)
        grid = np.geomspace(1e-3, 1e3, 50)
        rows = sweep(family, a_values=grid, n=30, d=6)
        assert len(calls) == 1 and np.array_equal(calls[0], grid)
        assert [row.exact for row in rows] == [fn(30, 6, a) for a in grid.tolist()]

    def test_grid_validation(self):
        with pytest.raises(InvalidParameterError):
            sweep("dir", a_values=[], n=3, d=2)
        with pytest.raises(InvalidParameterError):
            sweep("iid-exp", a_values=[1.0], n=2, d=2)
        with pytest.raises(InvalidParameterError):
            sweep("nope", a_values=[1.0], n=2, d=2)
        for reps in (-5, 2.5, True):
            with pytest.raises(InvalidParameterError):
                sweep("dir", a_values=[1.0], n=2, d=2, reps=reps)


class TestTrajectory:
    def test_summary_fields(self):
        result = simulate_trajectory(MarginalDirichlet(2, 1.0), 50, make_rng(21))
        assert len(result.outcomes) == 50

    def test_tiny_a_pa_raises(self):
        with pytest.raises(PrecisionLossError, match="pa at a = 0.001"):
            simulate_trajectory(ExponentialScaleMixture(3, 1e-3), 50, make_rng(23))

    def test_reproducible(self):
        a = simulate_trajectory(ExponentialScaleMixture(2, 1.0), 30, make_rng(22))
        b = simulate_trajectory(ExponentialScaleMixture(2, 1.0), 30, make_rng(22))
        assert a.outcomes == b.outcomes
