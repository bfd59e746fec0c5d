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
    Comonotone,
    Dirichlet,
    DimensionMismatchError,
    ExponentialScaleMixture,
    IidExponential,
    InvalidParameterError,
    MarginalDirichlet,
    Mixture,
    PrecisionLossError,
    UnsupportedSpecError,
    pn_independent,
    pn_independent_exact,
    pn_marginal_dirichlet,
    pn_marginal_dirichlet_exact,
    pn_scale_mixture,
    pn_scale_mixture_exact,
    roman_harmonic,
    survival,
)
from paretorecords.model import FAMILIES as FAMILY_CLASSES

A_GRID = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0]
#: Relative tolerance of the float p*_n against exact rationals.
PSTAR_REL_TOL = 1e-14


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def roman_harmonic_direct(n: int, k: int) -> Fraction:
    """H_n^(k) by the defining alternating sum, term by term, in rationals:
    the oracle of the recurrence in ``roman_harmonic``."""
    return sum(
        (Fraction((-1) ** (j - 1) * math.comb(n, j), j**k) for j in range(1, n + 1)),
        Fraction(0),
    )


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
        for n, k in ((True, 1), (3, True), (2.5, 1), (3, 1.0)):
            with pytest.raises(InvalidParameterError):
                roman_harmonic(n, k)


class TestIndependentCoordinates:
    def test_n1_is_one(self):
        for d in range(1, 6):
            assert pn_independent(1, d) == 1.0
            assert pn_independent_exact(1, d) == 1

    def test_validation(self):
        # A bool is no integer here: pn_independent(3, True) must not be p_3 at d = 1.
        for fn in (pn_independent, pn_independent_exact):
            for n, d in ((0, 2), (3, 0), (True, 2), (3, True), (2.5, 2), (3, 2.0)):
                with pytest.raises(InvalidParameterError):
                    fn(n, d)

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


FAMILY_ROUTES = [
    (pn_marginal_dirichlet, pn_marginal_dirichlet_exact, True),
    (pn_scale_mixture, pn_scale_mixture_exact, False),
]


def _quadrature(n, d, a, dir_family):
    """p_n by quadrature alone, the fallback of the float route."""
    s = a + d - 1 if dir_family else a
    return float(exact_mod._pn_quadrature(n, d, np.array([a]), np.array([s]))[0])


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
        assert pn_marginal_dirichlet(1, 2, 0.5) == 1.0
        assert pn_scale_mixture(1, 2, 0.5) == 1.0

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

    def test_cross_method_agreement(self):
        # The float route and quadrature alone must agree with the exact
        # rationals to 1e-9.
        for fn, exact_fn, dir_family in FAMILY_ROUTES:
            for n in (2, 5, 10, 20, 30):
                for d in (2, 3, 5):
                    for a in (0.1, 1.0, 10.0, 1000.0):
                        exact = float(exact_fn(n, d, a))
                        assert abs(fn(n, d, a) - exact) < 1e-9, (fn.__name__, n, d, a)
                        assert abs(_quadrature(n, d, a, dir_family) - exact) < 1e-9, (fn.__name__, n, d, a)

    def test_quadrature_agrees_with_exact_beyond_float_range(self):
        for fn, exact_fn, dir_family in FAMILY_ROUTES:
            for a in (0.1, 1.0, 100.0):
                exact = float(exact_fn(50, 3, a))
                assert abs(fn(50, 3, a) - exact) < 1e-9
                assert abs(_quadrature(50, 3, a, dir_family) - exact) < 1e-9

    def test_default_method_dispatch(self):
        # At n = 80 the n-term alternating sum cancels far beyond float range.
        val = pn_marginal_dirichlet(80, 2, 1.0)
        exact = float(pn_marginal_dirichlet_exact(80, 2, 1))
        assert abs(val - exact) < 1e-9

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            pn_marginal_dirichlet(2, 1, 1.0)
        with pytest.raises(InvalidParameterError):
            pn_scale_mixture(2, 2, 0.0)
        for fn in (pn_marginal_dirichlet, pn_marginal_dirichlet_exact, pn_scale_mixture, pn_scale_mixture_exact):
            for n, d in ((True, 2), (2, True), (2.5, 2), (2, 3.0)):
                with pytest.raises(InvalidParameterError):
                    fn(n, d, 1.0)


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

# The Gauss-Laguerre rule once used here missed a relative 1e-6 at these
# points (by 4e-5 to 7e-4): the dir integrand's feature at small a lay below
# its smallest node.
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
                # d 8 and 10 at a = 10 sit in the band a large-a series left uncovered.
                for d in (2, 3, 4, 6, 8, 10):
                    for a in (1e-3, 0.05, 1.0, 10.0, 30.0, 1e3):
                        # The d terms cancel by up to ~1e30 at d = 10, a = 1e3.
                        err = _rel_err(fn(n, d, a), _dterm_oracle(n, d, a, dir_family, dps=80))
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
                value, bound = exact_mod._pn_beta_terms(n, d, np.array([a]), np.array([s]))
                assert _rel_err(value[0], _dterm_oracle(n, d, a, dir_family)) <= bound[0], (n, d, a)

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

    def test_quadrature_raises_when_unconverged(self, monkeypatch):
        # Capped at 256 intervals the rule cannot reach PN_REL_TOL at
        # dir(200, 6, 1000); it must raise, not return its guess.
        monkeypatch.setattr(exact_mod, "_QUAD_MAX_INTERVALS", 256)
        with pytest.raises(PrecisionLossError):
            _quadrature(200, 6, 1000.0, True)
        monkeypatch.setattr(exact_mod, "_QUAD_MAX_INTERVALS", 512)
        exact = float(pn_marginal_dirichlet_exact(200, 6, 1000.0))
        assert abs(_quadrature(200, 6, 1000.0, True) - exact) <= exact_mod.PN_REL_TOL * exact

    def test_strictly_monotone_across_the_switch(self):
        # n = 30 sweeps in a cross the d-term / quadrature switch (a ~ 22-44 here).
        grid = np.geomspace(1.0, 100.0, 400)
        for fn, sign in ((pn_marginal_dirichlet, -1.0), (pn_scale_mixture, 1.0)):
            for d in (5, 6):
                vals = np.array([fn(30, d, a) for a in grid])
                assert np.all(sign * np.diff(vals) > 0), (fn.__name__, d)


ARRAY_NS = (1, 2, 3, 30, 64, 65, 200, 10**4, 10**6, 10**8)
ARRAY_DS = (2, 3, 5, 8, 9, 10)
ARRAY_A = np.concatenate([np.geomspace(1e-3, 1e3, 97), [1e-300, 1e-8, 1e8, 1e15, 1e300]])


class TestArrayRoute:
    """An array of a runs the scalar route's arithmetic in blocks, to the bit."""

    @pytest.mark.parametrize("fn", [pn_marginal_dirichlet, pn_scale_mixture])
    def test_array_equals_scalar_calls(self, monkeypatch, fn):
        scalar = {(n, d): [fn(n, d, a) for a in ARRAY_A.tolist()] for n in ARRAY_NS for d in ARRAY_DS}
        # Small budgets split each grid into several blocks and a remainder
        # (or into one-point blocks), and the quadrature into chunks.
        for budget in (64, 4096):
            monkeypatch.setattr(exact_mod, "_PN_BLOCK_BUDGET", budget)
            for (n, d), ref in scalar.items():
                got = fn(n, d, ARRAY_A)
                assert got.dtype == np.float64 and got.shape == ARRAY_A.shape
                assert np.array_equal(got, np.array(ref)), (fn.__name__, n, d, budget)

    def test_blocks_follow_the_budget(self, monkeypatch):
        sizes = []
        real = exact_mod._pn_beta_terms

        def spy(n, d, a, s):
            sizes.append(a.size)
            return real(n, d, a, s)

        monkeypatch.setattr(exact_mod, "_pn_beta_terms", spy)
        monkeypatch.setattr(exact_mod, "_PN_BLOCK_BUDGET", 4096)
        pn_scale_mixture(30, 5, ARRAY_A)  # 4096 // (5 * 29) = 28 points a block
        assert sizes == [28, 28, 28, 18]
        sizes.clear()
        pn_scale_mixture(10**4, 5, ARRAY_A)  # no (n - 1) axis from _STIRLING_MIN_N on
        assert sizes == [ARRAY_A.size]

    def test_only_uncertified_points_reach_quadrature(self, monkeypatch):
        grid = np.geomspace(1e-3, 1e3, 97)
        _, bound = exact_mod._pn_beta_terms(30, 6, grid, grid + 5.0)
        uncertified = grid[bound > exact_mod.PN_REL_TOL]
        assert 0 < uncertified.size < grid.size
        seen = []
        real = exact_mod._pn_quadrature

        def spy(n, d, a, s):
            seen.append(a.copy())
            return real(n, d, a, s)

        monkeypatch.setattr(exact_mod, "_pn_quadrature", spy)
        monkeypatch.setattr(exact_mod, "_PN_BLOCK_BUDGET", 4096)  # 23 points a block
        pn_marginal_dirichlet(30, 6, grid)
        assert len(seen) > 1  # one call per block that has such points
        assert np.array_equal(np.concatenate(seen), uncertified)

    def test_quadrature_raises_for_the_first_unconverged_point(self, monkeypatch):
        # Capped at 256 intervals, dir(200, 6, a) converges at a = 1 only.
        monkeypatch.setattr(exact_mod, "_QUAD_MAX_INTERVALS", 256)
        a = np.array([1.0, 1000.0, 500.0])
        with pytest.raises(PrecisionLossError) as batch:
            exact_mod._pn_quadrature(200, 6, a, a + 5.0)
        with pytest.raises(PrecisionLossError) as alone:
            exact_mod._pn_quadrature(200, 6, a[1:2], a[1:2] + 5.0)
        assert str(batch.value) == str(alone.value)
        assert "a=1000.0" in str(batch.value)

    def test_scalar_in_float_out(self):
        assert type(pn_marginal_dirichlet(5, 3, 0.5)) is float
        assert type(pn_scale_mixture(1, 3, 0.5)) is float
        out = pn_marginal_dirichlet(5, 3, [0.5, 2.0])
        assert isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == (2,)
        assert pn_scale_mixture(5, 3, np.array([])).shape == (0,)
        assert np.array_equal(pn_scale_mixture(1, 3, [0.5, 2.0]), [1.0, 1.0])

    def test_array_validation(self):
        with pytest.raises(InvalidParameterError, match="got -1.0"):
            pn_marginal_dirichlet(5, 3, np.array([0.5, -1.0]))
        with pytest.raises(InvalidParameterError, match="got inf"):
            pn_scale_mixture(5, 3, [0.5, math.inf])
        with pytest.raises(InvalidParameterError, match="1-D"):
            pn_scale_mixture(5, 3, np.ones((2, 2)))

    def test_grid_memory_is_blocked(self):
        # Unblocked, the (points, d, n - 1) terms of this grid alone take 11 MB.
        grid = np.geomspace(1e-3, 1e3, 8000)
        tracemalloc.start()
        try:
            pn_scale_mixture(30, 6, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, peak


class TestQuadrature:
    """The trapezoidal rule in ln y alone, the fallback of the float route."""

    # Small-a dir points where the former Gauss-Laguerre rule raised: its
    # smallest node lay above the integrand's feature.
    SMALL_A_DIR = [(n, d, a) for n in (2, 31, 100, 200) for d in (2, 6, 10) for a in (1e-3, 1e-2)]

    def test_small_a_dir_against_exact(self):
        for n, d, a in self.SMALL_A_DIR:
            exact = float(pn_marginal_dirichlet_exact(n, d, a))
            assert abs(_quadrature(n, d, a, True) - exact) <= exact_mod.PN_REL_TOL * exact, (n, d, a)

    def test_pa_d2_a1_closed_form(self):
        # Z ~ Beta(1, 2): p_n = E(1 - Z)^(n-1) = 2 / (n + 1).
        for n in (2, 10, 10**4, 10**8, 10**12, 10**18):
            ref = 2 / (n + 1)
            assert abs(_quadrature(n, 2, 1.0, False) - ref) <= exact_mod.PN_REL_TOL * ref, n


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


@pytest.mark.parametrize("d", [6, 13, 30, 60])
def test_log_scales_within_their_charge(d):
    # ln C(d-1, k) and -ln(s B(a, d)) against 50-digit mpmath, for dir
    # (s = a + d - 1) and pa (s = a): their errors together stay within
    # the charge for every k and a.
    eps = np.finfo(float).eps
    a = np.geomspace(1e-3, 1e3, 25)
    for s in (a + d - 1, a):
        log_binom, log_norm, ulps = exact_mod._log_scales(d, a[:, None] + np.arange(d), s)
        with mpmath.workdps(50):
            binom_err = [abs(log_binom[k] - mpmath.log(mpmath.binomial(d - 1, k))) for k in range(d)]
            for i, (av, sv) in enumerate(zip(a.tolist(), s.tolist())):
                exact_s = mpmath.mpf(av) + (sv != av) * (d - 1)
                ref = mpmath.fsum(mpmath.log(mpmath.mpf(av) + j) for j in range(d))
                ref -= mpmath.loggamma(d) + mpmath.log(exact_s)
                norm_err = abs(log_norm[i, 0] - ref)
                for k in range(d):
                    assert binom_err[k] + norm_err <= ulps[i, k] * eps, (d, av, k)


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


def _survival_value_density(spec, w):
    """g = G' of the survival value, from its formula: W = Z^s with Z ~ Beta(a, d)."""
    a, d = spec.a, spec.d
    s = d + a - 1.0 if isinstance(spec, MarginalDirichlet) else a
    return (1.0 - w ** (1.0 / s)) ** (d - 1) * w ** (a / s - 1.0) / (s * math.exp(math.lgamma(a) + math.lgamma(d) - math.lgamma(a + d)))


class TestSurvivalTransformDensity:
    """The law of the survival value S(X): each family's ``survival_value_cdf``,
    against its density, scipy's Beta law and the record probabilities."""

    def test_dir_value_at_quarter(self):
        # a = 1, d = 2: S(X) = Z^2 with Z ~ Beta(1, 2), so G(1/4) = P(Z <= 1/2) = 3/4.
        assert MarginalDirichlet(2, 1.0).survival_value_cdf(0.25) == pytest.approx(0.75)

    def test_dir_value_against_change_of_variable_oracle(self):
        # W = Z^s with Z ~ Beta(a, d): G(w) = F_Z(w^(1/s)).
        from scipy.stats import beta as beta_dist

        a, d = 2.0, 3
        for spec, s in ((MarginalDirichlet(d, a), a + d - 1), (ExponentialScaleMixture(d, a), a)):
            for w in (0.05, 0.3, 0.7, 0.95):
                oracle = beta_dist(a, d).cdf(w ** (1.0 / s))
                assert spec.survival_value_cdf(w) == pytest.approx(oracle, rel=1e-10)

    def test_pa_vanishes_at_one(self):
        # The density vanishes at w = 1, so G rises less than linearly into 1.
        h = 1e-6
        assert (1.0 - ExponentialScaleMixture(2, 1.0).survival_value_cdf(1.0 - h)) / h < 1e-5

    @pytest.mark.parametrize("family", ["dir", "pa"])
    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
    def test_normalization(self, family, a):
        spec = FAMILY_CLASSES[family](3, a)
        assert spec.survival_value_cdf(0.0) == 0.0
        assert spec.survival_value_cdf(1.0) == 1.0

    @pytest.mark.parametrize("family,sign", [("dir", 1.0), ("pa", -1.0)])
    def test_stochastic_order_in_a(self, family, sign):
        # For b > a, G_b <= G_a for dir (S(X) grows with a) and G_b >= G_a for pa.
        w = np.linspace(0.0, 1.0, 1001)
        for a, b in [(0.5, 1.0), (1.0, 2.0), (2.0, 5.0)]:
            for d in (2, 4):
                g_a = FAMILY_CLASSES[family](d, a).survival_value_cdf(w)
                g_b = FAMILY_CLASSES[family](d, b).survival_value_cdf(w)
                assert np.all(sign * (g_a - g_b) >= -1e-15), (family, a, b, d)
                assert np.any(sign * (g_a - g_b) > 0), (family, a, b, d)

    def test_cdf_consistent_with_density(self):
        for spec in (MarginalDirichlet(2, 1.5), ExponentialScaleMixture(2, 1.5)):
            for w in (0.2, 0.6):
                num, _ = quad(lambda t: _survival_value_density(spec, t), 0, w)
                assert spec.survival_value_cdf(w) == pytest.approx(num, abs=1e-9)

    def test_record_prob_identity(self):
        # p_n = E(1 - W)^(n-1) = (n-1) int_0^1 (1-w)^(n-2) G(w) dw.
        for n in range(2, 11):
            for d in (2, 3):
                cases = [(IidExponential(d), pn_independent_exact(n, d))]
                for a in (0.5, 2.0):
                    cases.append((MarginalDirichlet(d, a), pn_marginal_dirichlet_exact(n, d, a)))
                    cases.append((ExponentialScaleMixture(d, a), pn_scale_mixture_exact(n, d, a)))
                for spec, exact in cases:
                    val, _ = quad(
                        lambda w: (n - 1) * (1.0 - w) ** (n - 2) * spec.survival_value_cdf(w),
                        0, 1, epsabs=1e-13, epsrel=1e-11, limit=200,
                    )
                    assert val == pytest.approx(float(exact), rel=1e-9), (spec, n)

    def test_unsupported_families_raise(self):
        for spec in (
            Dirichlet((1.0, 1.0)),
            Comonotone(2),
            Mixture(0.5, IidExponential(2), IidExponential(2)),
        ):
            with pytest.raises(UnsupportedSpecError):
                spec.survival_value_cdf(0.5)


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
