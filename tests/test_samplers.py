import math

import numpy as np
import pytest
from scipy.stats import beta, kstest

from paretorecords import (
    Comonotone,
    Dirichlet,
    ExponentialScaleMixture,
    IidExponential,
    InvalidParameterError,
    MarginalDirichlet,
    Mixture,
    PrecisionLossError,
    make_rng,
    sample_observations,
    survival,
)
from paretorecords.model import _row_reduce
from paretorecords.samplers import finite_draws


class TestStreams:
    def test_reproducible(self):
        a = make_rng(7, 3).random(100)
        b = make_rng(7, 3).random(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = make_rng(7, 0).random(100)
        b = make_rng(7, 1).random(100)
        assert not np.array_equal(a, b)

    def test_streams_uncorrelated_smoke(self):
        n = 20_000
        a = make_rng(11, 0).random(n)
        b = make_rng(11, 1).random(n)
        assert abs(np.corrcoef(a, b)[0, 1]) < 4.0 / math.sqrt(n)

    def test_bad_seed(self):
        # A bool or a float is not a seed, even where int() would take it.
        for bad in [-1, True, 2.7, 1.0]:
            with pytest.raises(InvalidParameterError, match="seed must be an unsigned 64-bit integer"):
                make_rng(bad)
        for bad in [2**64, True, 2.7, 1.0]:
            with pytest.raises(InvalidParameterError, match="stream must be an unsigned 64-bit integer"):
                make_rng(1, bad)
        a = make_rng(np.uint64(7), np.uint64(3)).random(10)
        assert np.array_equal(a, make_rng(7, 3).random(10))


class TestKernels:
    # The Exponential, Gamma and Dirichlet draws, checked through the families
    # that use them. A MarginalDirichlet(d, a) row sums to E / (E + G) with
    # E ~ Gamma(d) and G ~ Gamma(a), so the row sum is Beta(d, a).

    def test_exponential_moments(self):
        x = sample_observations(IidExponential(2), 5 * 10**5, make_rng(1)).ravel()
        n = x.size
        assert np.all(x > 0)
        assert abs(x.mean() - 1.0) < 4.0 / math.sqrt(n)  # Exp(1) sd = 1
        tail = (x > 1.0).mean()
        p = math.exp(-1.0)
        assert abs(tail - p) < 4.0 * math.sqrt(p * (1 - p) / n)

    def test_exponential_deterministic(self):
        first = sample_observations(IidExponential(1), 1, make_rng(5))
        assert np.array_equal(first, sample_observations(IidExponential(1), 1, make_rng(5)))

    def test_gamma_shape_one_is_exponential(self):
        s = sample_observations(MarginalDirichlet(2, 1.0), 10**5, make_rng(2)).sum(axis=1)
        assert kstest(s, beta(2, 1.0).cdf).pvalue > 0.01

    def test_gamma_small_shape_mean(self):
        s = sample_observations(MarginalDirichlet(3, 0.5), 10**5, make_rng(3)).sum(axis=1)
        assert kstest(s, beta(3, 0.5).cdf).pvalue > 0.01
        assert abs(s.mean() - beta(3, 0.5).mean()) < 4.0 * beta(3, 0.5).std() / math.sqrt(s.size)

    def test_gamma_variance(self):
        s = sample_observations(MarginalDirichlet(2, 3.0), 10**6, make_rng(4)).sum(axis=1)
        # Beta(2, 3) variance is 0.04; a 5% band is far wider than its noise.
        assert abs(s.var() - 0.04) < 0.05 * 0.04

    @pytest.mark.parametrize("shape", [0.0, -1.0, float("nan")])
    def test_gamma_invalid_shape(self, shape):
        with pytest.raises(InvalidParameterError):
            MarginalDirichlet(2, shape)
        with pytest.raises(InvalidParameterError):
            ExponentialScaleMixture(2, shape)

    def test_dirichlet_normalization(self):
        x = sample_observations(Dirichlet((0.3, 1.0, 4.0)), 2000, make_rng(5))
        assert np.all(x > 0)
        assert np.max(np.abs(x.sum(axis=1) - 1.0)) < 1e-12

    def test_dirichlet_uniform_marginal(self):
        x = sample_observations(Dirichlet((1.0, 1.0)), 10**5, make_rng(6))
        assert kstest(x[:, 0], "uniform").pvalue > 0.01

    def test_dirichlet_mean_vs_gamma_ratio_oracle(self):
        # Mean of coordinate 1 under Dirichlet(1,1,2) is b_1/||b||_1 = 1/4;
        # cross-check the sampler against an independently coded Gamma-ratio
        # simulation on a different stream.
        n = 10**6
        x = sample_observations(Dirichlet((1.0, 1.0, 2.0)), n, make_rng(7))[:, 0]
        oracle_rng = make_rng(7, stream=99)
        g = oracle_rng.gamma(np.array([1.0, 1.0, 2.0]), size=(n, 3))
        oracle = g[:, 0] / g.sum(axis=1)
        for sample in (x, oracle):
            se = sample.std() / math.sqrt(n)
            assert abs(sample.mean() - 0.25) < 4.0 * se

    def test_dirichlet_small_shape_marginal(self):
        # The first coordinate of Dirichlet(b_1, b_2) is Beta(b_1, b_2).
        x = sample_observations(Dirichlet((0.05, 0.3)), 10**5, make_rng(8))[:, 0]
        assert kstest(x, beta(0.05, 0.3).cdf).pvalue > 0.01

    @pytest.mark.parametrize(
        "spec",
        [
            Dirichlet((1e-3, 1e-3)),
            Dirichlet((1e-8, 1e-8, 1e-8)),
            Mixture(0.5, Dirichlet((1e-3, 1e-3)), MarginalDirichlet(2, 1e-3)),
        ],
    )
    def test_tiny_shapes_give_no_nan(self, spec):
        # Every Gamma draw of such a row underflows to 0 in linear space.
        n = 10**5
        x = sample_observations(spec, n, make_rng(9))
        assert not np.isnan(x).any()
        if isinstance(spec, Dirichlet):
            assert np.max(np.abs(x.sum(axis=1) - 1.0)) < 1e-12
            se = x[:, 0].std() / math.sqrt(n)
            assert abs(x[:, 0].mean() - 1.0 / spec.dim) < 4.0 * se

    @pytest.mark.parametrize("b", [(1.0,), (1.0, 0.0), ()])
    def test_dirichlet_invalid(self, b):
        with pytest.raises(InvalidParameterError):
            Dirichlet(b)


# The documented formula of each family's sampler, evaluated out of place on
# the same draws in the same order.
def _marginal_dirichlet_formula(rng, m, d, a):
    e = rng.exponential(size=(m, d))
    g = rng.gamma(a, size=(m, 1))
    return e / (e.sum(axis=1, keepdims=True) + g)


def _scale_mixture_formula(rng, m, d, a):
    e = rng.exponential(size=(m, d))
    return e / rng.gamma(a, size=(m, 1))


def _dirichlet_formula(rng, m, b):
    b = np.asarray(b)
    log_g = np.log(rng.gamma(b + 1.0, size=(m, b.size))) + np.log1p(-rng.random((m, b.size))) / b
    g = np.exp(log_g - log_g.max(axis=1, keepdims=True))
    return g / g.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("lead", [(3001,), (3001, 1), ()], ids=["rows", "rows-1", "point"])
@pytest.mark.parametrize("d", range(1, 13))
def test_row_reduce_matches_numpy_reductions(d, lead):
    # Column folds below 8 entries, numpy's own reduction from 8 on: the
    # same bits as reducing the last axis either way.
    x = make_rng(35, d).standard_exponential(size=lead + (d,))
    for op, ref in ((np.add, x.sum(axis=-1)), (np.maximum, x.max(axis=-1))):
        got = _row_reduce(op, x)
        assert got.shape == ref.shape and np.array_equal(got, ref)
        kept = _row_reduce(op, x, keepdims=True)
        assert np.array_equal(kept, ref[..., None])


class TestSamplerFormulas:
    # The samplers work in place on the drawn arrays and the survival
    # functions reduce rows column by column; the values must equal the
    # formulas bit for bit. Rows of 9 terms pass numpy's 8-term unrolled
    # pairwise sum.
    M = 3001

    @pytest.mark.parametrize("d", [2, 4, 9])
    def test_marginal_dirichlet(self, d):
        got = sample_observations(MarginalDirichlet(d, 0.7), self.M, make_rng(31, d))
        assert np.array_equal(got, _marginal_dirichlet_formula(make_rng(31, d), self.M, d, 0.7))

    @pytest.mark.parametrize("d", [2, 4, 9])
    def test_scale_mixture(self, d):
        got = sample_observations(ExponentialScaleMixture(d, 1.3), self.M, make_rng(32, d))
        assert np.array_equal(got, _scale_mixture_formula(make_rng(32, d), self.M, d, 1.3))

    @pytest.mark.parametrize("d", [2, 4, 9])
    @pytest.mark.parametrize("tiny", [False, True])
    def test_dirichlet(self, d, tiny):
        b = (1e-3,) * d if tiny else tuple(0.3 + 0.5 * j for j in range(d))
        got = sample_observations(Dirichlet(b), self.M, make_rng(33, d))
        assert np.array_equal(got, _dirichlet_formula(make_rng(33, d), self.M, b))

    @pytest.mark.parametrize("d", [2, 4, 9])
    @pytest.mark.parametrize("shape", [(M,), (M, 1)], ids=["rows", "rows-1"])
    def test_survival(self, d, shape):
        # Points inside and outside the simplex, some with negative
        # coordinates, which survival clamps to 0 first.
        x = make_rng(36, d).uniform(-0.2, 2.5 / d, size=shape + (d,))
        pos = np.maximum(x, 0.0)
        total = pos.sum(axis=-1)
        for spec, want in (
            (IidExponential(d), np.exp(-total)),
            (MarginalDirichlet(d, 0.7), np.maximum(1.0 - total, 0.0) ** (d + 0.7 - 1.0)),
            (ExponentialScaleMixture(d, 1.3), (1.0 + total) ** -1.3),
            (Comonotone(d), np.exp(-pos.max(axis=-1))),
        ):
            got = survival(spec, x)
            assert got.shape == want.shape and np.array_equal(got, want), type(spec).__name__
            assert survival(spec, x[(0,) * len(shape)]) == want[(0,) * len(shape)]

    @pytest.mark.parametrize("d", [2, 4, 9])
    def test_mixture_fills_rows(self, d):
        inner_spec = Mixture(0.5, ExponentialScaleMixture(d, 0.5), Dirichlet((0.2,) * d))
        spec = Mixture(0.4, MarginalDirichlet(d, 2.0), inner_spec)
        got = sample_observations(spec, self.M, make_rng(34, d))
        rng = make_rng(34, d)
        want = np.empty((self.M, d))
        pick = rng.random(self.M) < 0.4
        want[~pick] = _marginal_dirichlet_formula(rng, int((~pick).sum()), d, 2.0)
        inner = rng.random(int(pick.sum())) < 0.5
        rows = np.empty((inner.size, d))
        rows[~inner] = _scale_mixture_formula(rng, int((~inner).sum()), d, 0.5)
        rows[inner] = _dirichlet_formula(rng, int(inner.sum()), (0.2,) * d)
        want[pick] = rows
        assert np.array_equal(got, want)


class TestFiniteDraws:
    # At a = 1e-3 about half of the Gamma(a) scales underflow and E / G is inf.
    TINY = ExponentialScaleMixture(3, 1e-3)

    def test_sampler_itself_stays_permissive(self):
        with np.errstate(all="ignore"):
            x = sample_observations(self.TINY, 1000, make_rng(1))
        assert 0 < np.isinf(x).any(axis=1).sum() < 1000

    @pytest.mark.parametrize(
        "spec, named",
        [(TINY, "pa at a = 0.001"), (Mixture(0.5, IidExponential(3), TINY), '"family": "mixture"')],
        ids=["pa", "mixture"],
    )
    def test_inf_draws_raise(self, spec, named):
        with pytest.raises(PrecisionLossError, match=named):
            with finite_draws(spec):
                sample_observations(spec, 1000, make_rng(1))

    def test_finite_draws_pass_unchanged(self):
        spec = ExponentialScaleMixture(3, 1.1)
        with finite_draws(spec):
            got = sample_observations(spec, 1000, make_rng(2))
        assert np.array_equal(got, sample_observations(spec, 1000, make_rng(2)))


def _triangle_rejection_sampler(rng, count):
    # Uniform points of the open 2-simplex by rejection from the unit square.
    out = np.empty((0, 2))
    while out.shape[0] < count:
        cand = rng.random((2 * count, 2))
        keep = cand.sum(axis=1) < 1.0
        out = np.concatenate([out, cand[keep]])
    return out[:count]


class TestObservationSampling:
    def test_marginal_dirichlet_in_open_simplex(self):
        spec = MarginalDirichlet(2, 1.0)
        x = sample_observations(spec, 10**5, make_rng(8))
        assert np.all(x > 0)
        assert np.all(x.sum(axis=1) < 1.0)

    def test_marginal_dirichlet_first_coordinate_density(self):
        # For a = 1 the draw is uniform on the triangle, so the first
        # coordinate has density 2(1-x) on (0, 1). Check against both the
        # analytic CDF and a rejection-sampler oracle.
        x = sample_observations(MarginalDirichlet(2, 1.0), 10**5, make_rng(9))[:, 0]
        assert kstest(x, lambda t: 2.0 * t - t**2).pvalue > 0.01
        oracle = _triangle_rejection_sampler(make_rng(9, stream=99), 10**5)[:, 0]
        assert kstest(oracle, x).pvalue > 0.01

    def test_marginal_dirichlet_survival_probes(self):
        spec = MarginalDirichlet(3, 2.0)
        n = 10**6
        x = sample_observations(spec, n, make_rng(10))
        probes = [
            (0.1, 0.1, 0.1),
            (0.2, 0.1, 0.05),
            (0.3, 0.3, 0.1),
            (0.05, 0.4, 0.2),
            (0.25, 0.25, 0.25),
        ]
        for p in probes:
            target = survival(spec, np.array(p))
            hit = np.all(x >= np.array(p), axis=1).mean()
            se = math.sqrt(target * (1.0 - target) / n)
            assert abs(hit - target) < 4.0 * se, f"probe {p}"

    def test_scale_mixture_survival_probe(self):
        n = 10**6
        x = sample_observations(ExponentialScaleMixture(2, 1.0), n, make_rng(11))
        hit = np.all(x >= 0.5, axis=1).mean()
        se = math.sqrt(0.5 * 0.5 / n)
        assert abs(hit - 0.5) < 4.0 * se  # (1 + 0.5 + 0.5)^(-1) = 0.5

    def test_comonotone_equal_coordinates(self):
        x = sample_observations(Comonotone(3), 1000, make_rng(12))
        assert np.all(x == x[:, :1])

    def test_dirichlet_spec_on_simplex(self):
        x = sample_observations(Dirichlet((1.0, 1.0, 1.0)), 1000, make_rng(13))
        assert np.max(np.abs(x.sum(axis=1) - 1.0)) < 1e-12

    def test_mixture_component_fraction(self):
        spec = Mixture(0.3, Comonotone(2), Dirichlet((1.0, 1.0)))
        x = sample_observations(spec, 10**5, make_rng(14))
        # second component lands exactly on the simplex, first never does
        frac = (np.abs(x.sum(axis=1) - 1.0) < 1e-9).mean()
        assert abs(frac - 0.3) < 4.0 * math.sqrt(0.3 * 0.7 / 10**5)

    def test_batch_reproducible(self):
        spec = Mixture(0.5, IidExponential(2), ExponentialScaleMixture(2, 1.0))
        a = sample_observations(spec, 500, make_rng(16))
        b = sample_observations(spec, 500, make_rng(16))
        assert np.array_equal(a, b)

    def test_count_validation(self):
        with pytest.raises(InvalidParameterError):
            sample_observations(IidExponential(2), 0, make_rng(0))
        for count in (True, 2.5, 2.0):
            with pytest.raises(InvalidParameterError):
                sample_observations(IidExponential(2), count, make_rng(0))


class TestScaledLimits:
    @pytest.mark.parametrize(
        "spec", [MarginalDirichlet(2, 200.0), ExponentialScaleMixture(2, 200.0)]
    )
    def test_rescaled_coordinates_near_exponential(self, spec):
        # a * X converges to independent Exp(1) coordinates as a grows; at
        # a = 200 a KS test at the 1% level should not reject (m = 2e4 keeps
        # the O(1/a) bias well under the critical value here).
        x = sample_observations(spec, 20_000, make_rng(1)) * spec.a
        for j in range(spec.d):
            assert kstest(x[:, j], "expon").pvalue > 0.01
