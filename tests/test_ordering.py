import math

import numpy as np
import pytest
from scipy.stats import kstest

from paretorecords import (
    Comonotone,
    Dirichlet,
    Direction,
    ExponentialScaleMixture,
    IidExponential,
    InvalidParameterError,
    MarginalDirichlet,
    UnsupportedSpecError,
    check_nuod,
    check_p2_bound,
    check_record_order,
    default_probe_grid,
    make_rng,
    pn_marginal_dirichlet,
    pn_independent,
    pn_scale_mixture,
    records_bruteforce,
    run_stream,
    sample_observations,
    survival_transform,
)
from paretorecords import ordering
from paretorecords.ordering import _onesided_gaps, dominance_threshold


class TestSurvivalTransform:
    def test_univariate_iid_is_uniform(self):
        # In one dimension the survival value of a draw is its own survival
        # probability, which is uniform by the probability integral transform.
        sample = survival_transform(IidExponential(1), 100_000, make_rng(0))
        assert kstest(sample.values, "uniform").pvalue > 0.01

    def test_values_in_unit_interval(self):
        sample = survival_transform(MarginalDirichlet(2, 0.5), 10_000, make_rng(1))
        assert np.all((sample.values >= 0) & (sample.values <= 1))
        assert sample.count == 10_000

    @pytest.mark.parametrize("a,d", [(0.5, 2), (1.0, 2), (2.0, 3)])
    def test_marginal_dirichlet_matches_power_beta_law(self, a, d):
        spec = MarginalDirichlet(d, a)
        sample = survival_transform(spec, 100_000, make_rng(2))
        p = kstest(sample.values, spec.survival_value_cdf).pvalue
        assert p > 0.01

    @pytest.mark.parametrize("a,d", [(0.5, 2), (1.0, 2), (2.0, 3)])
    def test_scale_mixture_matches_power_beta_law(self, a, d):
        spec = ExponentialScaleMixture(d, a)
        sample = survival_transform(spec, 100_000, make_rng(3))
        p = kstest(sample.values, spec.survival_value_cdf).pvalue
        assert p > 0.01

    def test_iid_multivariate_matches_gamma_law(self):
        spec = IidExponential(3)
        sample = survival_transform(spec, 100_000, make_rng(4))
        p = kstest(sample.values, spec.survival_value_cdf).pvalue
        assert p > 0.01

    @pytest.mark.parametrize(
        "spec,n,exact",
        [
            (MarginalDirichlet(2, 1.0), 5, pn_marginal_dirichlet(5, 2, 1.0)),
            (ExponentialScaleMixture(2, 1.0), 5, pn_scale_mixture(5, 2, 1.0)),
            (IidExponential(3), 4, pn_independent(4, 3)),
        ],
    )
    def test_moment_identity_reproduces_record_prob(self, spec, n, exact):
        # E(1 - S(X))^(n-1) is exactly the record probability.
        values = survival_transform(spec, 200_000, make_rng(5)).values
        w = (1.0 - values) ** (n - 1)
        se = w.std() / math.sqrt(w.size)
        assert abs(w.mean() - exact) < 4.0 * se

    def test_unsupported(self):
        with pytest.raises(UnsupportedSpecError):
            survival_transform(Dirichlet((1.0, 1.0)), 100, make_rng(0))

    def test_count_validation(self):
        # A fractional count would draw int(count) points and report the fraction as ``count``.
        for samples in (0, True, 2.5, 2.0):
            with pytest.raises(InvalidParameterError):
                survival_transform(IidExponential(2), samples, make_rng(0))


class TestRecordOrder:
    def test_identical_specs_indistinguishable(self):
        v = check_record_order(
            MarginalDirichlet(2, 1.0), MarginalDirichlet(2, 1.0), 50_000, make_rng(6)
        )
        assert v.direction is Direction.INDISTINGUISHABLE

    def test_dirichlet_family_ordering(self):
        # Larger a brings the family closer to independence: p_n drops, so
        # the larger-a spec's survival values dominate.
        v = check_record_order(MarginalDirichlet(2, 1.0), MarginalDirichlet(2, 5.0), 100_000, make_rng(7))
        assert v.direction is Direction.SECOND_DOMINATES

    def test_scale_mixture_family_ordering(self):
        v = check_record_order(
            ExponentialScaleMixture(2, 1.0), ExponentialScaleMixture(2, 5.0), 100_000, make_rng(8)
        )
        assert v.direction is Direction.FIRST_DOMINATES

    def test_antisymmetric(self):
        a, b = MarginalDirichlet(2, 0.5), IidExponential(2)
        v1 = check_record_order(a, b, 50_000, make_rng(9))
        v2 = check_record_order(b, a, 50_000, make_rng(9))
        flip = {
            Direction.FIRST_DOMINATES: Direction.SECOND_DOMINATES,
            Direction.SECOND_DOMINATES: Direction.FIRST_DOMINATES,
            Direction.CROSSING: Direction.CROSSING,
            Direction.INDISTINGUISHABLE: Direction.INDISTINGUISHABLE,
        }
        assert v2.direction is flip[v1.direction]

    @pytest.mark.parametrize("a", [0.5, 1.0, 5.0])
    @pytest.mark.parametrize("d", [2, 3])
    def test_sandwich_around_independence(self, a, d):
        rng = make_rng(10)
        v = check_record_order(MarginalDirichlet(d, a), IidExponential(d), 50_000, rng)
        assert v.direction is Direction.SECOND_DOMINATES  # Dirichlet has larger p_n
        v = check_record_order(ExponentialScaleMixture(d, a), IidExponential(d), 50_000, rng)
        assert v.direction is Direction.FIRST_DOMINATES  # mixture has smaller p_n

    def test_calibration_identical_distributions(self):
        # With the default alpha = 1e-3 threshold, identical specs must read
        # as indistinguishable in at least 99.9% of seeds. Fixed seed list
        # keeps this deterministic.
        spec = IidExponential(2)
        misses = 0
        trials = 1000
        for seed in range(trials):
            v = check_record_order(spec, spec, 1000, make_rng(seed, stream=77))
            misses += v.direction is not Direction.INDISTINGUISHABLE
        assert misses <= 1, f"{misses} misses in {trials} trials"

    def test_lr_order_implies_no_crossing(self):
        # The survival-value densities are likelihood-ratio ordered in a
        # (checked in test_exact), so the empirical CDFs must not cross
        # beyond noise: the lesser side's one-sided gap stays under threshold.
        rng = make_rng(11)
        u = survival_transform(MarginalDirichlet(2, 0.5), 50_000, rng).values
        v = survival_transform(MarginalDirichlet(2, 2.0), 50_000, rng).values
        # W_a increases stochastically in a: F_{0.5} >= F_{2.0} pointwise.
        gap_u_above, gap_v_above = _onesided_gaps(u, v)
        assert gap_v_above <= dominance_threshold(u.size, v.size)
        assert gap_u_above > dominance_threshold(u.size, v.size)

    def test_statistic_and_threshold_fields(self):
        v = check_record_order(MarginalDirichlet(2, 1.0), IidExponential(2), 20_000, make_rng(12))
        assert v.statistic >= 0.0 and v.threshold > 0.0

    def test_alpha_validation(self):
        with pytest.raises(InvalidParameterError):
            check_record_order(IidExponential(2), IidExponential(2), 100, make_rng(0), alpha=0.0)


class TestNuod:
    def test_independent_coordinates_consistent(self):
        rng = make_rng(13)
        spec = IidExponential(2)
        probes = default_probe_grid(spec, rng)
        assert probes.shape == (9, 2)
        result = check_nuod(spec, probes, 200_000, rng)
        assert result.consistent
        # independence means equality at every probe, so margins hover near 0
        assert np.all(np.abs(result.margin_sigma) < 4.0)

    def test_marginal_dirichlet_consistent(self):
        rng = make_rng(14)
        spec = MarginalDirichlet(2, 1.0)
        probes = default_probe_grid(spec, rng)
        result = check_nuod(spec, probes, 10**6, rng)
        assert result.consistent

    def test_scale_mixture_violates(self):
        # Closed forms first: the joint exceedance (1+x1+x2)^(-a) always
        # exceeds the product (1+x1)^(-a) (1+x2)^(-a) at interior probes,
        # since (1+x1)(1+x2) = 1+x1+x2+x1*x2 > 1+x1+x2.
        a = 1.0
        for x1, x2 in [(0.5, 0.5), (1.0, 0.3), (2.0, 2.0)]:
            joint = (1 + x1 + x2) ** -a
            prod = (1 + x1) ** -a * (1 + x2) ** -a
            assert joint > prod
        rng = make_rng(15)
        spec = ExponentialScaleMixture(2, a)
        probes = default_probe_grid(spec, rng)
        result = check_nuod(spec, probes, 10**6, rng)
        assert not result.consistent
        assert result.worst_margin_sigma > 4.0

    def test_calibration_never_rejects_independence(self):
        # 100 seeds of a true-NUOD (independent) spec: no false violations.
        spec = IidExponential(2)
        probes = np.array([[0.3, 0.3], [1.0, 0.5], [2.0, 2.0]])
        rejects = sum(
            not check_nuod(spec, probes, 20_000, make_rng(seed, stream=5)).consistent
            for seed in range(100)
        )
        assert rejects == 0

    def test_probe_dimension_check(self):
        with pytest.raises(InvalidParameterError):
            check_nuod(IidExponential(2), [[0.1, 0.2, 0.3]], 100, make_rng(0))
        for samples in (1, True, 2.5):
            with pytest.raises(InvalidParameterError):
                check_nuod(IidExponential(2), [[0.1, 0.2]], samples, make_rng(0))

    def test_block_size_does_not_change_result(self, monkeypatch):
        spec = MarginalDirichlet(3, 1.0)
        probes = default_probe_grid(spec, make_rng(16))
        whole = check_nuod(spec, probes, 5000, make_rng(17))
        monkeypatch.setattr(ordering, "_NUOD_BLOCK", 3 * len(probes))  # 3 cells a block
        blocked = check_nuod(spec, probes, 5000, make_rng(17))
        # Samples with distinct exceedance patterns lie in distinct cells.
        x = sample_observations(spec, 5000, make_rng(17))
        assert len(np.unique(x[:, None, :] > probes, axis=0)) > 3 * 4  # several blocks
        assert np.array_equal(blocked.joint, whole.joint)
        assert np.array_equal(blocked.product, whole.product)
        assert np.array_equal(blocked.margin_sigma, whole.margin_sigma)

    def test_probe_grid_limit(self, monkeypatch):
        # The default grid has 3^d probes: d = 9 is the largest under the limit.
        assert ordering.MAX_GRID_PROBES == 3**9
        probes = default_probe_grid(IidExponential(9), make_rng(18))
        assert probes.shape == (3**9, 9)
        # One dimension more fails before the pilot draw or the grid.
        def fail(*args, **kwargs):
            raise AssertionError("drew or built the grid")

        monkeypatch.setattr(ordering, "sample_observations", fail)
        monkeypatch.setattr(ordering.np, "meshgrid", fail)
        for d in (10, 10**9):
            with pytest.raises(InvalidParameterError, match=rf"3\^{d} probes, above ordering.MAX_GRID_PROBES = 19683"):
                default_probe_grid(IidExponential(d), make_rng(18))
        with pytest.raises(InvalidParameterError, match="MAX_GRID_PROBES"):
            default_probe_grid(IidExponential(2), make_rng(18), quantiles=np.linspace(0.01, 0.99, 200))

    @pytest.mark.parametrize("cells_per_block", [None, 1, 7])
    @pytest.mark.parametrize(
        "spec",
        [IidExponential(1), Comonotone(1), IidExponential(5), MarginalDirichlet(5, 1.0),
         Comonotone(5), Dirichlet((1e-3,) * 5)],
        ids=repr,
    )
    def test_counts_match_brute_force(self, spec, cells_per_block, monkeypatch):
        # Exact counts against comparing every sample with every probe, on
        # probes off the samples and on probes that equal sample values and
        # repeat within a column (Comonotone ties coordinates, and the tiny-b
        # Dirichlet has many coordinates of exactly 0 and 1).
        samples = 3000
        x = sample_observations(spec, samples, make_rng(21))
        rng = np.random.default_rng(22)
        d = spec.dim
        on = x[rng.integers(0, samples, size=(30, d)), np.arange(d)]
        on[::4, 0] = on[0, 0]
        probe_sets = {
            "off grid": rng.exponential(size=(37, d)) * x.mean(axis=0),
            "on samples": np.vstack([on, x[:5], np.zeros((1, d)), np.ones((1, d))]),
        }
        for name, probes in probe_sets.items():
            exceed = x[:, None, :] > probes
            if cells_per_block is not None:
                monkeypatch.setattr(ordering, "_NUOD_BLOCK", cells_per_block * len(probes))
                assert len(np.unique(exceed, axis=0)) > 2 * cells_per_block, name
            result = check_nuod(spec, probes, samples, make_rng(21))
            assert np.array_equal(result.joint, exceed.all(axis=2).sum(axis=0) / samples), name
            assert np.array_equal(result.product, (exceed.sum(axis=0) / samples).prod(axis=1)), name


class TestP2Bound:
    def test_independent_meets_bound(self):
        result = check_p2_bound(IidExponential(3), 500_000, make_rng(16))
        assert result.bound == pytest.approx(0.875)
        assert abs(result.margin_sigma) < 4.0

    def test_negative_dependence_above_bound(self):
        # a >= 1 marginalized Dirichlet is negatively associated: p_2 above
        # the independence value (exact value confirms the direction).
        assert pn_marginal_dirichlet(2, 2, 2.0) > 0.75
        result = check_p2_bound(MarginalDirichlet(2, 2.0), 500_000, make_rng(17))
        assert result.margin_sigma > -4.0

    def test_positive_dependence_below_bound(self):
        exact = pn_scale_mixture(2, 2, 1.0)
        assert exact == pytest.approx(2.0 / 3.0)
        result = check_p2_bound(ExponentialScaleMixture(2, 1.0), 500_000, make_rng(18))
        assert result.margin_sigma < 4.0
        se = result.std_error
        assert abs(result.estimate - exact) < 4.0 * se

    def test_comonotone_far_below(self):
        result = check_p2_bound(Comonotone(2), 100_000, make_rng(19))
        # p_2 = 1/2 for fully dependent coordinates
        assert abs(result.estimate - 0.5) < 4.0 * result.std_error

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            check_p2_bound(IidExponential(1), 100, make_rng(0))
        for reps in (1, True, 2.5):
            with pytest.raises(InvalidParameterError):
                check_p2_bound(IidExponential(2), reps, make_rng(0))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_record_flag_matches_bruteforce_with_ties(self, d, monkeypatch):
        # Pairs on a {0, 1} lattice tie coordinates and repeat points, where
        # weak dominance (<=) decides; the draws are replaced by the pairs.
        pairs = np.random.default_rng(40 + d).integers(0, 2, size=(120, 2, d)).astype(float)
        flags = [bool(records_bruteforce(pair)[0][-1]) for pair in pairs]
        assert 0 < sum(flags) < len(flags)
        for pair, flag in zip(pairs, flags):
            draws = iter([pair[[0, 0]], pair[[1, 1]]])  # the same pair twice
            monkeypatch.setattr(ordering, "sample_observations", lambda *_: next(draws))
            assert check_p2_bound(IidExponential(d), 2, make_rng(0)).estimate == float(flag)
        draws = iter([pairs[:, 0], pairs[:, 1]])
        monkeypatch.setattr(ordering, "sample_observations", lambda *_: next(draws))
        result = check_p2_bound(IidExponential(d), len(pairs), make_rng(0))
        assert result.estimate == sum(flags) / len(flags)


class TestMonotoneTransformInvariance:
    def test_records_invariant_under_log_and_exp(self):
        # Strictly increasing coordinatewise maps leave the record process
        # unchanged, so indicators agree pointwise on the same draws.
        rng = make_rng(20)
        obs = sample_observations(MarginalDirichlet(2, 1.0), 400, rng)
        base = [o.is_record for o in run_stream(obs).outcomes]
        logged = [o.is_record for o in run_stream(np.log(obs)).outcomes]
        exped = [o.is_record for o in run_stream(np.exp(obs)).outcomes]
        assert base == logged == exped
