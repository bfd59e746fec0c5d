import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import paretorecords.exact as exact_mod
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
#: Relative tolerance of the float p*_n against exact rationals.
PSTAR_REL_TOL = 1e-14


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


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

    def test_float_matches_loop_recurrence(self):
        # H_m^(k) = sum_{j<=m} H_j^(k-1) / j summed left to right in a plain
        # loop. Newton's identities add other terms in another order, so the
        # two agree to a few ulps, not bit for bit.
        col = [1.0] * 300  # H^(0)
        for d in range(2, 9):
            acc, nxt = 0.0, []
            for m, h in enumerate(col, start=1):
                acc += h / m
                nxt.append(acc)
            col = nxt
            for n in (1, 2, 3, 10, 63, 64, 65, 99, 300):
                ref = col[n - 1] / n
                assert abs(pn_independent(n, d) - ref) <= PSTAR_REL_TOL * ref, (n, d)

    def test_newton_identities_match_rationals(self):
        # Both sides of the direct-sum / zeta switch at n = 64.
        for n in list(range(1, 80)) + [100, 300]:
            for d in range(1, 9):
                exact = float(pn_independent_exact(n, d))
                assert abs(pn_independent(n, d) - exact) <= PSTAR_REL_TOL * exact, (n, d)

    def test_matches_cumsum_recurrence_at_large_n(self):
        m = np.arange(1.0, 10**6 + 1)
        col = np.cumsum(1.0 / m)  # H^(1)
        for d in range(2, 7):
            ref = col[-1] / m[-1]
            assert abs(pn_independent(10**6, d) - ref) <= 1e-12 * ref, d
            col = np.cumsum(col / m)

    def test_large_n_is_cheap(self):
        # O(d^2) work and no array of length n, which would take ~2.4 GB here.
        pn_independent(10**8, 6)
        best = min(_timed(pn_independent, 10**8, 6) for _ in range(20))
        assert best < 1e-3
        tracemalloc.start()
        try:
            pn_independent(10**8, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

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


def _dterm_oracle(n, d, a, dir_family, dps=40):
    """p_n from the d-term Beta sum in mpmath: the default route's identity,
    computed apart from the package at ``dps`` digits."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(a.numerator) / a.denominator if isinstance(a, Fraction) else mpmath.mpf(a)
        s = a + d - 1 if dir_family else a
        total = mpmath.fsum(
            (-1) ** k * mpmath.binomial(d - 1, k) * mpmath.beta((a + k) / s, n) for k in range(d)
        )
        return total / (s * mpmath.beta(a, d))


def _rel_err(value, ref):
    with mpmath.workdps(40):
        return float(abs((mpmath.mpf(value) - ref) / ref))


FAMILIES = [(pn_marginal_dirichlet, True), (pn_scale_mixture, False)]

# Quadrature of the dir integrand misses a relative 1e-6 at these points
# (by 4e-5 to 7e-4): its feature at small a lies below the smallest node.
FORMER_DIR_FAULTS = [
    (31, 2, 1e-3),
    (100, 3, 1e-3),
    (1000, 4, 1e-2),
    (10_000, 5, 1e-3),
    (100_000, 6, 1e-3),
    (1_000_000, 2, 1e-2),
    (1_000_000, 3, 1e-3),
]


class TestDefaultRoute:
    """The default dir/pa evaluator: d-term Beta sum, quadrature where it cancels."""

    def test_oracle_matches_rationals(self):
        for n in (2, 5, 31):
            for d in (2, 3, 6):
                for a in (Fraction(1, 1000), Fraction(1, 20), Fraction(1), Fraction(30), Fraction(1000)):
                    for exact_fn, dir_family in (
                        (pn_marginal_dirichlet_exact, True),
                        (pn_scale_mixture_exact, False),
                    ):
                        r = exact_fn(n, d, a)
                        ref = _dterm_oracle(n, d, a, dir_family)
                        with mpmath.workdps(40):
                            rat = mpmath.mpf(r.numerator) / r.denominator
                            assert abs(ref - rat) <= mpmath.mpf(10) ** -20 * rat, (n, d, a, dir_family)

    def test_grid_against_mpmath(self):
        for fn, dir_family in FAMILIES:
            for n in (2, 31, 50, 200, 10**4, 10**6, 10**8):
                for d in (2, 3, 4, 6):
                    for a in (1e-3, 0.05, 1.0, 30.0, 1e3):
                        err = _rel_err(fn(n, d, a), _dterm_oracle(n, d, a, dir_family))
                        assert err <= exact_mod.PN_REL_TOL, (fn.__name__, n, d, a, err)

    def test_former_dir_faults(self):
        for n, d, a in FORMER_DIR_FAULTS:
            err = _rel_err(pn_marginal_dirichlet(n, d, a), _dterm_oracle(n, d, a, True))
            assert err <= exact_mod.PN_REL_TOL, (n, d, a, err)

    def test_pa_d2_a1_closed_form(self):
        # Z ~ Beta(1, 2): p_n = E(1 - Z)^(n-1) = 2 / (n + 1).
        n = 10**8
        assert abs(pn_scale_mixture(n, 2, 1.0) - 2 / (n + 1)) <= 1e-14 * (2 / (n + 1))

    def test_routing(self, monkeypatch):
        calls = []
        real = exact_mod._pn_quadrature

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(exact_mod, "_pn_quadrature", spy)
        # Large a and small n: the d terms cancel to ~1e14, so quadrature runs.
        value = pn_marginal_dirichlet(2, 6, 1000.0)
        assert len(calls) == 1
        exact = float(pn_marginal_dirichlet_exact(2, 6, 1000.0))
        assert abs(value - exact) <= exact_mod.PN_REL_TOL * exact
        # Small a at any n: the d terms barely cancel, so no quadrature.
        pn_marginal_dirichlet(10**6, 3, 1e-3)
        pn_scale_mixture(10**8, 6, 1e-3)
        assert len(calls) == 1

    def test_error_bound_holds(self):
        # The bound the route gates on must cover the true error.
        for dir_family in (True, False):
            for n, d, a in [(2, 6, 30.0), (50, 4, 30.0), (10**4, 3, 1e3), (10**8, 2, 1e3), (31, 6, 1e-3)]:
                s = a + d - 1 if dir_family else a
                value, bound = exact_mod._pn_beta_terms(n, d, a, s)
                assert _rel_err(value, _dterm_oracle(n, d, a, dir_family)) <= bound, (n, d, a)

    def test_extreme_a_meets_the_limits(self):
        # Within 1e-300 or 1e-15 of its a -> 0 or a -> inf limit, p_n equals
        # the limit to far below PN_REL_TOL; no overflow may escape as a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (2, 65, 10**18):
                for d in (2, 6):
                    star = pn_independent(n, d)
                    for fn, tiny_limit in ((pn_marginal_dirichlet, 1.0), (pn_scale_mixture, 1.0 / n)):
                        for a, limit in ((1e-300, tiny_limit), (1e15, star), (1e300, star)):
                            value = fn(n, d, a)
                            assert abs(value - limit) <= exact_mod.PN_REL_TOL * limit, (fn.__name__, n, d, a)

    def test_quadrature_raises_when_unconverged(self):
        # dir at a = 1e-3 puts the integrand's feature below the smallest
        # node; the explicit quadrature must raise, not return its guess.
        with pytest.raises(PrecisionLossError):
            pn_marginal_dirichlet(100, 3, 1e-3, GaussQuadrature())

    def test_strictly_monotone_across_the_switch(self):
        # n = 30 sweeps in a cross the d-term / quadrature switch (a ~ 22-44 here).
        grid = np.geomspace(1.0, 100.0, 400)
        for fn, sign in ((pn_marginal_dirichlet, -1.0), (pn_scale_mixture, 1.0)):
            for d in (5, 6):
                vals = np.array([fn(30, d, a) for a in grid])
                assert np.all(sign * np.diff(vals) > 0), (fn.__name__, d)


class TestGaussLaguerre:
    def test_matches_scipy_rule(self):
        # scipy's rule is accurate up to a few hundred nodes.
        from scipy.special import roots_laguerre

        for m in (64, 300):
            t, w = exact_mod._gauss_laguerre(m)
            rt, rw = roots_laguerre(m)
            assert np.allclose(t, rt, rtol=1e-11, atol=0)
            kept = rw > 1e-250
            assert np.allclose(w[kept], rw[kept], rtol=1e-11, atol=0)

    def test_moments_at_large_rules(self):
        # sum_i w_i t_i^j = j! for j < 2m; the weights of the large nodes count most.
        for m in (1024, 2048):
            t, w = exact_mod._gauss_laguerre(m)
            assert np.all(w >= 0)
            for j in (0, 1, 5, 20, 40):
                assert abs(np.sum(w * t**j) / math.factorial(j) - 1) <= 1e-12, (m, j)


class TestLogBetaHelper:
    X = np.array([1e-3, 0.05, 0.5, 1.0, 1.7, 3.0, 30.0, 5001.0])

    @staticmethod
    def _ref(x, n):
        with mpmath.workdps(40):
            return [mpmath.log(mpmath.beta(mpmath.mpf(float(v)), n)) for v in x]

    def _check(self, got, x, n):
        log_beta, size = got
        for v, g, m, r in zip(x, log_beta, size, self._ref(x, n)):
            # A few ulps of the pieces' size; near |ln B| while x << n.
            assert abs(g - r) <= 8 * np.finfo(float).eps * (1 + m), (n, v, g, r)
            if v <= 3:
                assert m <= 2 * abs(r) + 10, (n, v, m, r)

    def test_product_branch(self):
        for n in (2, 3, 10, 64):
            self._check(exact_mod._log_beta_n(self.X, n), self.X, n)

    def test_stirling_branch(self):
        for n in (65, 1000, 10**6, 10**8, 10**12):
            self._check(exact_mod._log_beta_n(self.X, n), self.X, n)

    def test_both_branches_at_the_boundary(self, monkeypatch):
        edge = exact_mod._STIRLING_MIN_N
        for n in (edge - 1, edge):
            for switch in (n, n + 1):  # Stirling at n, then the product at n
                monkeypatch.setattr(exact_mod, "_STIRLING_MIN_N", switch)
                self._check(exact_mod._log_beta_n(self.X, n), self.X, n)


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
