"""The special functions of ``paretorecords._special`` against 40-digit mpmath.

Each test states the tolerance the function's docstring promises.
"""

import math

import mpmath
import numpy as np
import pytest

from paretorecords import _special
from paretorecords.exact import pn_independent
from paretorecords.model import ExponentialScaleMixture, IidExponential, MarginalDirichlet

EPS = float(np.finfo(float).eps)
BIG_NS = (64, 65, 10**3, 10**6, 10**9, 10**12)


@pytest.fixture(autouse=True)
def _digits():
    with mpmath.workdps(40):
        yield


def _chi2_oracle(dof, x):
    return mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2, mpmath.inf, regularized=True)


def test_chi2_sf():
    for dof in range(1, 201):
        for x in np.geomspace(1e-3, 2000.0, 25).tolist():
            value = _special.chi2_sf(dof, x)
            assert value >= 0.0 and not math.isnan(value), (dof, x, value)
            ref = _chi2_oracle(dof, x)
            if ref < 1e-300:
                assert value <= 1e-300, (dof, x, value)
                continue
            tol = 1e-13 if x / 2 < 700 else 1e-12
            assert abs(value - ref) <= tol * ref, (dof, x, value)


def test_chi2_sf_ends():
    assert _special.chi2_sf(1, 0.0) == 1.0
    assert _special.chi2_sf(6, 0.0) == 1.0
    for dof in (1, 2, 7, 200):
        assert _special.chi2_sf(dof, 1e6) == 0.0  # below every float, and never negative


def _power_sum_oracle(i, n):
    return mpmath.harmonic(n) if i == 1 else mpmath.zeta(i) - mpmath.zeta(i, n + 1)


def test_power_sums():
    # psi(n+1) + gamma and zeta(i) - zeta(i, n+1), within 2 ulps.
    for n in BIG_NS:
        for i, value in enumerate(_special.power_sums(9, n), start=1):
            ref = _power_sum_oracle(i, n)
            assert abs(value - ref) <= 2 * EPS * ref, (n, i, value)


def test_pn_independent_large_n():
    # Newton's identities in 40 digits on the exact power sums; 1e-14 relative.
    for n in BIG_NS:
        power = [_power_sum_oracle(i, n) for i in range(1, 10)]
        h = [mpmath.mpf(1)]
        for m in range(1, 10):
            h.append(mpmath.fsum(power[i - 1] * h[m - i] for i in range(1, m + 1)) / m)
        for d in range(1, 11):
            ref = h[d - 1] / n
            assert abs(pn_independent(n, d) - ref) <= 1e-14 * ref, (n, d)


def test_log_gamma():
    x = np.exp(np.random.default_rng(5).uniform(math.log(1e-4), math.log(1e8), 3000))
    x = np.concatenate([x, np.linspace(0.5, 30.0, 1000), [1.0, 2.0, 3.0]])
    value, ulps = _special.log_gamma(x.reshape(-1, 1))
    for v, got, bound in zip(x.tolist(), value.ravel().tolist(), ulps.ravel().tolist()):
        ref = mpmath.loggamma(mpmath.mpf(v))
        assert abs(got - ref) <= bound * EPS, (v, got)


_W = np.concatenate([np.linspace(0.0, 1.0, 33), np.geomspace(1e-300, 1e-3, 12), 1.0 - np.geomspace(1e-15, 1e-3, 7)])
_SPECS = [IidExponential(d) for d in range(1, 11)] + [
    cls(d, a) for d in range(2, 11) for a in (0.01, 0.7, 3.0, 50.0) for cls in (MarginalDirichlet, ExponentialScaleMixture)
]


def _cdf_oracle(spec, w):
    w = mpmath.mpf(w)
    if w == 0:
        return mpmath.mpf(0)
    if spec.family == "iid-exp":
        return mpmath.gammainc(spec.d, -mpmath.log(w), mpmath.inf, regularized=True)
    power = spec.d + spec.a - 1 if spec.family == "dir" else spec.a
    return mpmath.betainc(spec.a, spec.d, 0, w ** (1 / mpmath.mpf(power)), regularized=True)


@pytest.mark.parametrize("spec", _SPECS, ids=repr)
def test_survival_value_cdf(spec):
    # Exact at w = 0 and 1. Inside, 8d ulps, plus one ulp of |ln G| for the
    # power w^(a/s) whose exponent is rounded.
    assert spec.survival_value_cdf(0.0) == 0.0
    assert spec.survival_value_cdf(1.0) == 1.0
    for w, value in zip(_W.tolist(), spec.survival_value_cdf(_W).tolist()):
        ref = _cdf_oracle(spec, w)
        if ref == 0:
            assert value == 0.0
            continue
        tol = (8 * spec.d + abs(mpmath.log(ref))) * EPS
        assert abs(value - ref) <= tol * ref, (w, value)
