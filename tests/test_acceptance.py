"""Acceptance suite: one test per criterion, one pass/fail line each with its wall time.

The per-criterion lines are collected by the conftest terminal-summary
hook, so they appear at the end of every pytest run regardless of output
capture. The heavy Monte Carlo criteria enforce their runtime budgets
explicitly.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.stats import kstest

from paretorecords import (
    Comonotone,
    Dirichlet,
    Direction,
    ExperimentConfig,
    ExponentialScaleMixture,
    Frontier2D,
    GenericFrontier,
    IidExponential,
    MarginalDirichlet,
    Mixture,
    check_record_order,
    concomitant_check,
    estimate_maxima,
    estimate_record_prob,
    make_rng,
    pn_independent,
    pn_independent_exact,
    pn_marginal_dirichlet,
    pn_scale_mixture,
    records_bruteforce,
    sample_observations,
)
from paretorecords.cli import main as cli_main

from conftest import CRITERION_LINES


@contextmanager
def criterion(number: int, label: str):
    t0 = time.perf_counter()

    def line(verdict: str) -> str:
        return f"{verdict} criterion {number:2d} ({time.perf_counter() - t0:.1f} s): {label}"

    try:
        yield
    except BaseException:
        CRITERION_LINES.append(line("FAIL"))
        raise
    CRITERION_LINES.append(line("PASS"))


def test_criterion_01_exact_formula_cross_validation():
    with criterion(1, "independent-coordinates formula vs rational sum and integral"):
        t0 = time.perf_counter()
        for n in range(2, 21):
            for d in range(2, 6):
                # oracle 1: the defining alternating sum, term by term, exact
                direct = sum(
                    (
                        Fraction((-1) ** (j - 1) * math.comb(n, j), j ** (d - 1))
                        for j in range(1, n + 1)
                    ),
                    Fraction(0),
                ) / n
                assert pn_independent_exact(n, d) == direct, (n, d)
                # oracle 2: integral over the coordinate-sum density
                val, _ = quad(
                    lambda y, d=d, n=n: y ** (d - 1)
                    / math.factorial(d - 1)
                    * math.exp(-y)
                    * (1.0 - math.exp(-y)) ** (n - 1),
                    0,
                    np.inf,
                )
                assert abs(pn_independent(n, d) - val) < 1e-9, (n, d)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f} s, budget 5 s"


def test_criterion_02_second_observation_identity():
    with criterion(2, "exact p_2 = 1 - 2^-d"):
        for d in range(1, 11):
            assert pn_independent_exact(2, d) == 1 - Fraction(1, 2**d), d


CRITERION_3_GRID = [
    *[(IidExponential(d), lambda n, d=d: pn_independent(n, d)) for d in (2, 3)],
    *[
        (MarginalDirichlet(d, a), lambda n, d=d, a=a: pn_marginal_dirichlet(n, d, a))
        for d in (2, 3)
        for a in (0.5, 1.0, 5.0)
    ],
    *[
        (ExponentialScaleMixture(d, a), lambda n, d=d, a=a: pn_scale_mixture(n, d, a))
        for d in (2, 3)
        for a in (0.5, 1.0, 5.0)
    ],
]


def test_criterion_03_monte_carlo_vs_exact():
    with criterion(3, "indicator estimator within 4 sigma of exact, 1e6 reps"):
        t0 = time.perf_counter()
        reps = 10**6
        for spec, exact_fn in CRITERION_3_GRID:
            for n in (2, 5, 10):
                exact = exact_fn(n)
                est = estimate_record_prob(ExperimentConfig(spec, n, reps, seed=101, workers=4))
                sigma = math.sqrt(exact * (1.0 - exact) / reps)
                assert abs(est.point - exact) < 4.0 * sigma, (spec, n, est.point, exact)
        elapsed = time.perf_counter() - t0
        assert elapsed < 180.0, f"took {elapsed:.1f} s, budget 180 s"


def test_criterion_04_range_sandwich():
    with criterion(4, "strict sandwich 1/n < p_pa < p_star < p_dir < 1"):
        for n in (2, 5, 10):
            for d in (2, 3):
                p_star = pn_independent(n, d)
                for a in (0.5, 1.0, 5.0):
                    p_dir = pn_marginal_dirichlet(n, d, a)
                    p_pa = pn_scale_mixture(n, d, a)
                    assert 1.0 / n < p_pa < p_star < p_dir < 1.0, (n, d, a)


def test_criterion_05_monotonicity_in_a():
    with criterion(5, "p_dir strictly decreasing, p_pa strictly increasing in a"):
        grid = [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0]
        for n in range(2, 11):
            for d in (2, 3):
                dirs = [pn_marginal_dirichlet(n, d, a) for a in grid]
                pas = [pn_scale_mixture(n, d, a) for a in grid]
                assert all(x > y for x, y in zip(dirs, dirs[1:])), (n, d)
                assert all(x < y for x, y in zip(pas, pas[1:])), (n, d)


def test_criterion_06_limit_endpoints():
    with criterion(6, "a -> 0 and a -> infinity endpoints at n=5, d=2"):
        p_star = pn_independent(5, 2)
        assert abs(pn_marginal_dirichlet(5, 2, 1e3) - p_star) <= 1e-3
        assert abs(pn_marginal_dirichlet(5, 2, 1e-3) - 1.0) <= 2e-2
        assert abs(pn_scale_mixture(5, 2, 1e3) - p_star) <= 1e-3
        assert abs(pn_scale_mixture(5, 2, 1e-3) - 1.0 / 5.0) <= 2e-2


def test_criterion_07_maxima_counts():
    with criterion(7, "E r_n matches H_n (iid d=2) and sqrt(pi n) growth (simplex)"):
        t0 = time.perf_counter()
        result = estimate_maxima(
            ExperimentConfig(IidExponential(2), n=1000, reps=10_000, seed=102, workers=4)
        )
        h_1000 = sum(1.0 / k for k in range(1, 1001))
        gap = abs(result.maxima.point - h_1000)
        assert gap < 4.0 * result.maxima.std_error, (result.maxima.point, h_1000)

        n = 10_000
        result = estimate_maxima(
            ExperimentConfig(MarginalDirichlet(2, 1.0), n=n, reps=1000, seed=103, workers=4)
        )
        ratio = result.maxima.point / math.sqrt(math.pi * n)
        assert 0.95 <= ratio <= 1.05, ratio
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"took {elapsed:.1f} s, budget 300 s"


def test_criterion_08_concomitant_identity():
    with criterion(8, "r_(n,d) vs concomitant R_(n,d-1), chi-square at alpha=0.001"):
        for spec2, spec3 in [
            (IidExponential(2), IidExponential(3)),
            (MarginalDirichlet(2, 2.0), MarginalDirichlet(3, 2.0)),
        ]:
            for spec, n in ((spec2, 50), (spec3, 30)):
                result = concomitant_check(ExperimentConfig(spec, n=n, reps=100_000, seed=104, workers=4))
                assert result.pvalue >= 1e-3, (spec, n, result.pvalue, result.statistic)


def test_criterion_09_frontier_oracle_equivalence():
    with criterion(9, "planar, generic and brute-force structures agree on 1000 streams"):
        families = [
            IidExponential(2),
            MarginalDirichlet(2, 1.0),
            ExponentialScaleMixture(2, 1.0),
            Dirichlet((1.0, 1.0)),
            Comonotone(2),
            Mixture(0.3, MarginalDirichlet(2, 1.0), Dirichlet((1.0, 1.0))),
        ]
        n = 500
        streams = 0
        for seed in range(10):
            for j in range(100):
                spec = families[j % len(families)]
                obs = sample_observations(spec, n, make_rng(900 + seed, stream=j))
                brute, brute_r = records_bruteforce(obs)
                planar, generic = Frontier2D(), GenericFrontier(2)
                got_p = [planar.insert(row).is_record for row in obs]
                got_g = [generic.insert(row).is_record for row in obs]
                assert got_p == got_g == list(brute), (seed, j, spec)
                assert planar.size == generic.size == brute_r
                streams += 1
        assert streams == 1000


def test_criterion_10_record_order_sandwich():
    with criterion(10, "survival-transform dominance places dir above, pa below iid"):
        for a in (0.5, 1.0, 5.0):
            for d in (2, 3):
                rng = make_rng(105)
                v = check_record_order(MarginalDirichlet(d, a), IidExponential(d), 100_000, rng)
                assert v.direction is Direction.SECOND_DOMINATES, ("dir", a, d, v)
                v = check_record_order(
                    ExponentialScaleMixture(d, a), IidExponential(d), 100_000, rng
                )
                assert v.direction is Direction.FIRST_DOMINATES, ("pa", a, d, v)


def test_criterion_11_scaled_weak_limits():
    with criterion(11, "a*X at a=200 passes per-coordinate KS against Exp(1)"):
        a = 200.0
        for spec in (MarginalDirichlet(2, a), ExponentialScaleMixture(2, a)):
            x = sample_observations(spec, 100_000, make_rng(1)) * a
            for j in range(spec.d):
                p = kstest(x[:, j], "expon").pvalue
                assert p > 0.01, (spec, j, p)


def test_criterion_12_determinism_across_workers(tmp_path):
    with criterion(12, "byte-identical outputs across reruns and worker counts"):
        base = [
            "simulate", "--family", "dir", "--d", "2", "--a", "1", "--n", "5",
            "--reps", "1000000", "--seed", "101",
        ]
        outputs = []
        for tag, workers in (("w1", "1"), ("w4", "4"), ("w1again", "1")):
            for fmt in ("csv", "json"):
                path = tmp_path / f"{tag}.{fmt}"
                code = cli_main(base + ["--workers", workers, "--out", fmt, "--out-file", str(path)])
                assert code == 0
                outputs.append((fmt, path.read_bytes()))
        for fmt in ("csv", "json"):
            blobs = [b for f, b in outputs if f == fmt]
            assert blobs[0] == blobs[1] == blobs[2], fmt
