import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from paretorecords import (
    AlternatingSumExact,
    AlternatingSumFloat,
    Comonotone,
    Dirichlet,
    DimensionMismatchError,
    ExponentialScaleMixture,
    GaussQuadrature,
    IidExponential,
    InvalidParameterError,
    MarginalDirichlet,
    Mixture,
    PrecisionLossError,
    UnsupportedSpecError,
    beta_power_moment,
    pn_independent,
    pn_independent_exact,
    pn_marginal_dirichlet,
    pn_marginal_dirichlet_exact,
    pn_scale_mixture,
    pn_scale_mixture_exact,
    roman_harmonic,
    roman_harmonic_direct,
    survival,
    survival_transform_cdf,
    survival_transform_density,
)

A_GRID = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0]


class TestRomanHarmonic:
    def test_recurrence_equals_direct_sum(self):
        for n in range(1, 26):
            for k in range(0, 7):
                assert roman_harmonic(n, k) == roman_harmonic_direct(n, k), (n, k)

    def test_order_zero_collapses_to_one(self):
        assert roman_harmonic(5, 0) == 1

    def test_order_one_is_harmonic_number(self):
        assert roman_harmonic(3, 1) == Fraction(11, 6)
        assert roman_harmonic(4, 1) == Fraction(25, 12)

    def test_n4_k2_against_direct_oracle(self):
        # direct alternating sum: 4 - 6/4 + 4/9 - 1/16
        expected = Fraction(4) - Fraction(6, 4) + Fraction(4, 9) - Fraction(1, 16)
        assert roman_harmonic(4, 2) == expected

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            roman_harmonic(0, 1)
        with pytest.raises(InvalidParameterError):
            roman_harmonic(3, -1)


class TestIndependentCoordinates:
    def test_n1_is_one(self):
        for d in range(1, 6):
            assert pn_independent(1, d) == 1.0
            assert pn_independent_exact(1, d) == 1

    def test_two_observations_closed_form(self):
        for d in range(1, 11):
            assert pn_independent_exact(2, d) == 1 - Fraction(1, 2**d)

    def test_examples(self):
        assert pn_independent_exact(3, 2) == Fraction(11, 18)
        for n in (1, 2, 7, 40):
            assert pn_independent_exact(n, 1) == Fraction(1, n)

    def test_float_matches_exact(self):
        for n in (1, 2, 3, 10, 50, 200):
            for d in (1, 2, 3, 5):
                exact = float(pn_independent_exact(n, d))
                assert abs(pn_independent(n, d) - exact) <= 1e-12 * exact

    def test_float_equals_loop_recurrence(self):
        # H_m^(k) = sum_{j<=m} H_j^(k-1) / j summed left to right in a plain
        # loop: the numpy column adds the same terms in the same order.
        col = [1.0] * 300  # H^(0)
        for d in range(2, 9):
            acc, nxt = 0.0, []
            for m, h in enumerate(col, start=1):
                acc += h / m
                nxt.append(acc)
            col = nxt
            for n in (1, 2, 3, 10, 99, 300):
                assert pn_independent(n, d) == col[n - 1] / n, (n, d)

    def test_monotone_in_n_and_d(self):
        for d in range(1, 9):
            vals = [pn_independent_exact(n, d) for n in range(1, 51)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        for n in range(2, 51):
            vals = [pn_independent_exact(n, d) for d in range(1, 9)]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_matches_integral_representation(self):
        # Independent Exp(1) coordinates make the record probability an
        # integral over the total coordinate sum y ~ Gamma(d).
        for n, d in [(2, 2), (5, 3), (12, 4)]:
            val, err = quad(
                lambda y, d=d, n=n: y ** (d - 1)
                / math.factorial(d - 1)
                * math.exp(-y)
                * (1.0 - math.exp(-y)) ** (n - 1),
                0,
                np.inf,
            )
            assert abs(pn_independent(n, d) - val) < 1e-9


class TestBetaPowerMoment:
    def test_zeroth_moment(self):
        assert beta_power_moment(2.3, 4.5, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_low_moments_against_quadrature(self):
        # Beta(1,2) has density 2(1-z); its first two moments come out of
        # direct numeric integration.
        m1, _ = quad(lambda z: z * 2 * (1 - z), 0, 1)
        m2, _ = quad(lambda z: z**2 * 2 * (1 - z), 0, 1)
        assert beta_power_moment(1, 2, 1) == pytest.approx(m1, abs=1e-12)  # 1/3
        assert beta_power_moment(1, 2, 2) == pytest.approx(m2, abs=1e-12)  # 1/6

    def test_monotone_in_s(self):
        s = np.linspace(0, 20, 81)
        vals = [beta_power_moment(0.7, 3, v) for v in s]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            beta_power_moment(0.0, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            beta_power_moment(1.0, 1.0, -0.5)


class TestFamilyProbabilities:
    def test_dir_2_2_1_against_integral_oracle(self):
        # 1 - E[Z^2] with Z ~ Beta(1, 2): direct integration of z^2 * 2(1-z).
        m2, _ = quad(lambda z: z**2 * 2 * (1 - z), 0, 1)
        assert pn_marginal_dirichlet(2, 2, 1.0) == pytest.approx(1 - m2, abs=1e-12)
        assert pn_marginal_dirichlet_exact(2, 2, 1) == Fraction(5, 6)

    def test_pa_2_2_1_against_integral_oracle(self):
        m1, _ = quad(lambda z: z * 2 * (1 - z), 0, 1)
        assert pn_scale_mixture(2, 2, 1.0) == pytest.approx(1 - m1, abs=1e-12)
        assert pn_scale_mixture_exact(2, 2, 1) == Fraction(2, 3)

    def test_n1_trivial(self):
        for method in (None, AlternatingSumExact(), AlternatingSumFloat(), GaussQuadrature()):
            assert pn_marginal_dirichlet(1, 2, 0.5, method) == 1.0
            assert pn_scale_mixture(1, 2, 0.5, method) == 1.0

    def test_sandwich(self):
        for n in range(2, 11):
            for d in (2, 3, 4):
                p_star = pn_independent(n, d)
                for a in A_GRID:
                    p_dir = pn_marginal_dirichlet(n, d, a)
                    p_pa = pn_scale_mixture(n, d, a)
                    assert 1.0 / n < p_pa < p_star < p_dir < 1.0, (n, d, a)

    def test_monotone_in_a(self):
        for n in range(2, 11):
            for d in (2, 3, 4):
                dirs = [pn_marginal_dirichlet(n, d, a) for a in A_GRID]
                pas = [pn_scale_mixture(n, d, a) for a in A_GRID]
                assert all(x > y for x, y in zip(dirs, dirs[1:])), (n, d)
                assert all(x < y for x, y in zip(pas, pas[1:])), (n, d)

    def test_limit_endpoints(self):
        p5 = pn_independent(5, 2)
        assert abs(pn_marginal_dirichlet(5, 2, 1e3) - p5) <= 1e-3
        assert abs(pn_marginal_dirichlet(5, 2, 1e-3) - 1.0) <= 2e-2
        assert abs(pn_scale_mixture(5, 2, 1e3) - p5) <= 1e-3
        assert abs(pn_scale_mixture(5, 2, 1e-3) - 0.2) <= 2e-2

    def test_pa_small_a_limit_probe(self):
        assert abs(pn_scale_mixture(4, 3, 1e-3) - 0.25) <= 2e-2

    def test_float_path_raises_on_cancellation(self):
        with pytest.raises(PrecisionLossError):
            pn_marginal_dirichlet(80, 2, 1.0, AlternatingSumFloat())

    def test_cross_method_agreement(self):
        # Float sum, exact rationals and quadrature must agree to 1e-9
        # wherever the float path does not raise.
        for family in (pn_marginal_dirichlet, pn_scale_mixture):
            for n in (2, 5, 10, 20, 30):
                for d in (2, 3, 5):
                    for a in (0.1, 1.0, 10.0, 1000.0):
                        exact = family(n, d, a, AlternatingSumExact())
                        alt = family(n, d, a, AlternatingSumFloat())
                        gauss = family(n, d, a, GaussQuadrature())
                        assert abs(alt - exact) < 1e-9, (family, n, d, a)
                        assert abs(gauss - exact) < 1e-9, (family, n, d, a)

    def test_quadrature_agrees_with_exact_beyond_float_range(self):
        for family, exact_fn in (
            (pn_marginal_dirichlet, pn_marginal_dirichlet_exact),
            (pn_scale_mixture, pn_scale_mixture_exact),
        ):
            for a in (0.1, 1.0, 100.0):
                exact = float(exact_fn(50, 3, a))
                assert abs(family(50, 3, a, GaussQuadrature()) - exact) < 1e-9

    def test_default_method_dispatch(self):
        # n > 30 must not go through the cancelling float sum.
        val = pn_marginal_dirichlet(80, 2, 1.0)
        exact = float(pn_marginal_dirichlet_exact(80, 2, 1))
        assert abs(val - exact) < 1e-9

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            pn_marginal_dirichlet(2, 1, 1.0)
        with pytest.raises(InvalidParameterError):
            pn_scale_mixture(2, 2, 0.0)
        with pytest.raises(InvalidParameterError):
            GaussQuadrature(nodes=4)


class TestSurvival:
    def test_examples(self):
        assert survival(MarginalDirichlet(2, 1.0), [0.25, 0.25]) == pytest.approx(0.25)
        assert survival(ExponentialScaleMixture(2, 2.0), [0.5, 0.5]) == pytest.approx(0.25)
        assert survival(Comonotone(3), [0.1, 0.7, 0.3]) == pytest.approx(math.exp(-0.7))
        assert survival(IidExponential(2), [1.0, 1.0]) == pytest.approx(math.exp(-2.0))

    def test_origin_gives_one(self):
        for spec in (
            IidExponential(3),
            MarginalDirichlet(2, 0.5),
            ExponentialScaleMixture(2, 1.0),
            Comonotone(2),
        ):
            assert survival(spec, np.zeros(spec.dim)) == 1.0

    def test_outside_simplex_clamps_to_zero(self):
        assert survival(MarginalDirichlet(2, 1.0), [0.7, 0.5]) == 0.0
        assert survival(MarginalDirichlet(2, 1.0), [0.5, 0.5]) == 0.0

    def test_negative_coordinates_clamped(self):
        spec = ExponentialScaleMixture(2, 1.0)
        assert survival(spec, [-1.0, 0.5]) == survival(spec, [0.0, 0.5])

    def test_batch_shape(self):
        x = np.random.default_rng(0).random((10, 2)) * 0.3
        out = survival(MarginalDirichlet(2, 1.0), x)
        assert out.shape == (10,)

    def test_unsupported(self):
        with pytest.raises(UnsupportedSpecError):
            survival(Dirichlet((1.0, 1.0)), [0.5, 0.5])
        with pytest.raises(UnsupportedSpecError):
            survival(Mixture(0.5, IidExponential(2), IidExponential(2)), [0.5, 0.5])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            survival(IidExponential(2), [1.0, 2.0, 3.0])


class TestSurvivalTransformDensity:
    def test_dir_value_at_quarter(self):
        # a=1, d=2: normalizer (d+a-1) B(a,d) = 1, so g(1/4) = (1/sqrt(1/4) - 1) = 1.
        assert survival_transform_density("dir", 1.0, 2, 0.25) == pytest.approx(1.0)

    def test_dir_value_against_change_of_variable_oracle(self):
        # W = Z^(d+a-1) with Z ~ Beta(a, d): g(w) = f_Z(w^(1/s)) * w^(1/s - 1) / s.
        from scipy.stats import beta as beta_dist

        a, d, s = 2.0, 3, 2.0 + 3 - 1
        for w in (0.05, 0.3, 0.7, 0.95):
            z = w ** (1.0 / s)
            oracle = beta_dist(a, d).pdf(z) * z ** (1.0 - s) / s
            assert survival_transform_density("dir", a, d, w) == pytest.approx(oracle, rel=1e-10)

    def test_pa_vanishes_at_one(self):
        assert survival_transform_density("pa", 1.0, 2, 1.0 - 1e-12) < 1e-9

    @pytest.mark.parametrize("family", ["dir", "pa"])
    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
    def test_normalization(self, family, a):
        val, err = quad(
            lambda w: survival_transform_density(family, a, 3, w), 0, 1, limit=200
        )
        assert abs(val - 1.0) < 1e-8

    @pytest.mark.parametrize("family,sign", [("dir", 1.0), ("pa", -1.0)])
    def test_likelihood_ratio_monotone(self, family, sign):
        # Density ratio g_b / g_a must be monotone on (0,1): nondecreasing for
        # the Dirichlet family, nonincreasing for the scale mixture.
        w = np.linspace(1e-6, 1.0 - 1e-6, 1000)
        for a, b in [(0.5, 1.0), (1.0, 2.0), (2.0, 5.0)]:
            ratio = survival_transform_density(family, b, 2, w) / survival_transform_density(
                family, a, 2, w
            )
            diffs = sign * np.diff(ratio)
            assert np.all(diffs > -1e-12), (family, a, b)

    def test_cdf_consistent_with_density(self):
        for family in ("dir", "pa"):
            for w in (0.2, 0.6):
                num, _ = quad(lambda t: survival_transform_density(family, 1.5, 2, t), 0, w)
                assert survival_transform_cdf(family, 1.5, 2, w) == pytest.approx(num, abs=1e-9)

    def test_rejects_boundary(self):
        with pytest.raises(InvalidParameterError):
            survival_transform_density("dir", 1.0, 2, 0.0)
        with pytest.raises(InvalidParameterError):
            survival_transform_density("pa", 1.0, 2, 1.0)
        with pytest.raises(InvalidParameterError):
            survival_transform_density("nope", 1.0, 2, 0.5)


class TestRecordProbLimit:
    def test_pure_antichain(self):
        assert Dirichlet((1.0, 2.0)).limit == 1.0

    def test_positive_survival_families(self):
        for spec in (
            IidExponential(2),
            MarginalDirichlet(2, 1.0),
            ExponentialScaleMixture(2, 1.0),
            Comonotone(3),
        ):
            assert spec.limit == 0.0

    def test_mixture_mass(self):
        mix = Mixture(0.3, MarginalDirichlet(2, 1.0), Dirichlet((1.0, 1.0)))
        assert mix.limit == pytest.approx(0.3)
        flipped = Mixture(0.3, Dirichlet((1.0, 1.0)), MarginalDirichlet(2, 1.0))
        assert flipped.limit == pytest.approx(0.7)

    def test_nested_mixture(self):
        inner = Mixture(0.5, Dirichlet((1.0, 1.0)), MarginalDirichlet(2, 1.0))
        outer = Mixture(0.2, inner, Dirichlet((1.0, 1.0)))
        # inner mass on the antichain is 0.5, outer adds 0.2 of a pure one
        assert outer.limit == pytest.approx(0.8 * 0.5 + 0.2)
