"""Closed-form evaluation of record-setting probabilities.

The probability that the n-th of a stream of iid observations sets a
coordinatewise record is ``E[1 - S(X)]^(n-1)`` where ``S(x) = P(X >= x)`` is
the upper-orthant survival function. Three families admit closed forms:

* independent coordinates:  p_n = H_n^(d-1) / n  with H_n^(k) the Roman
  harmonic number  sum_{j=1..n} (-1)^(j-1) C(n,j) j^(-k);
* marginalized Dirichlet (``MarginalDirichlet(d, a)``):
  S(x) = (1 - ||x||_1)^(d+a-1)  and  p_n = E(1 - Z^(d+a-1))^(n-1)
  with Z ~ Beta(a, d);
* Exponential scale mixture (``ExponentialScaleMixture(d, a)``):
  S(x) = (1 + ||x||_1)^(-a)  and  p_n = E(1 - Z^a)^(n-1),  Z ~ Beta(a, d).

Because d is an integer, every Beta moment here collapses to the finite
product  E Z^s = prod_{i<d} (a+i)/(a+s+i), which makes the n-term
alternating sums evaluable in exact rational arithmetic for any rational a.
Expanding (1 - z)^(d-1) in the Beta density instead gives d terms and no
integral (s = d+a-1 for dir, s = a for pa):

    p_n = 1/(s B(a, d)) * sum_{k<d} (-1)^k C(d-1, k) B((a+k)/s, n).

The float evaluators sum these d terms. Their cancellation factor
kappa = sum |t_k| / |sum t_k| comes with them, and kappa times the terms' own
rounding error bounds the sum's relative error. Where that bound exceeds
:data:`PN_REL_TOL` (large a, small n) they fall back to the trapezoidal rule
in v = ln y for the integral

    p_n = 1/B(a, d) * int_0^inf e^(-a y) (1 - e^(-y))^(d-1) (1 - e^(-s y))^(n-1) dy,

whose integrand is analytic in v and decays at both ends, so halving the
step converges geometrically. It raises PrecisionLossError rather than
return a value it could not converge to that tolerance. The ``*_exact``
functions sum the n-term alternating series in exact rationals instead.

``pn_marginal_dirichlet`` and ``pn_scale_mixture`` take ``a`` as a scalar
(and return a float) or as a 1-D array (and return a float array). A scalar
is a one-point block of the array route. An array is walked in blocks sized
so that no temporary exceeds about ``_PN_BLOCK_BUDGET`` floats; each block
builds its d terms for all its points at once, sums them per point with
``math.fsum``, and sends only the points it cannot certify to one batched
quadrature, which halves its step only for the points not yet converged.
Every value is bit-identical to the scalar call at the same point. A bad
point raises InvalidParameterError and an unconverged one
PrecisionLossError, for the whole call: the first such point in the array
is the one named.

p*_n = H_n^(d-1)/n is computed in O(d^2) by Newton's identities: H_n^(k) is
the complete homogeneous symmetric polynomial h_k(1, 1/2, ..., 1/n) of the
power sums P_i = sum_{j<=n} j^(-i).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ._special import lgamma_ulps, log_gamma, power_sums
from .errors import DimensionMismatchError, InvalidParameterError, PrecisionLossError
from .model import DistributionSpec, _require_int

__all__ = [
    "pn_independent",
    "pn_independent_exact",
    "pn_marginal_dirichlet",
    "pn_marginal_dirichlet_exact",
    "pn_scale_mixture",
    "pn_scale_mixture_exact",
    "roman_harmonic",
    "survival",
]

#: Relative accuracy of every float dir/pa value; a value that cannot be
#: certified to this raises PrecisionLossError.
PN_REL_TOL = 1e-9
# A term t_k of the d-term Beta sum is exp of a sum of logs whose magnitudes
# add up to m_k, so its relative error is at most (_TERM_ULPS + m_k) ulps; the
# sum's is then at most sum_k |t_k| (_TERM_ULPS + m_k) eps / |sum_k t_k|,
# i.e. kappa times the terms' own error.
_TERM_ULPS = 16
_EPS = float(np.finfo(float).eps)
# Quadrature starts at _QUAD_START_INTERVALS and halves its step until two
# levels agree to _QUAD_REL_TOL, up to _QUAD_MAX_INTERVALS.
_QUAD_START_INTERVALS = 64
_QUAD_REL_TOL = 1e-11
_QUAD_MAX_INTERVALS = 8192
# An array of a is evaluated in blocks of points whose largest temporary
# (points x d, or points x d x (n-1) below _STIRLING_MIN_N) holds about this
# many floats; the quadrature chunks its points x nodes arrays the same way.
_PN_BLOCK_BUDGET = 1 << 15

# ---------------------------------------------------------------------------
# Roman harmonic numbers and the independent-coordinates probability
# ---------------------------------------------------------------------------

# Cached columns: _ROMAN_EXACT[k][m-1] == H_m^(k). Level 0 is identically 1.
_ROMAN_EXACT: dict[int, list[Fraction]] = {}


def roman_harmonic(n: int, k: int) -> Fraction:
    """Roman harmonic number H_n^(k) as an exact rational.

    Defined by the alternating sum sum_{j=1..n} (-1)^(j-1) C(n,j) j^(-k);
    evaluated via the cancellation-free recurrence

        H_n^(0) = 1,      H_n^(k) = sum_{j=1..n} H_j^(k-1) / j,

    which agrees with the direct sum but stays exact and fast for large n.
    H_n^(1) is the ordinary harmonic number.
    """
    n, k = _require_int(n, 1, "n"), _require_int(k, 0, "k")
    if k == 0:
        return Fraction(1)
    col = _roman_column_exact(k, n)
    return col[n - 1]


def _roman_column_exact(k: int, n: int) -> list[Fraction]:
    col = _ROMAN_EXACT.setdefault(k, [])
    if len(col) >= n:
        return col
    if k == 1:
        prev = None
    else:
        prev = _roman_column_exact(k - 1, n)
    acc = col[-1] if col else Fraction(0)
    for m in range(len(col) + 1, n + 1):
        term = Fraction(1, m) if prev is None else prev[m - 1] / m
        acc += term
        col.append(acc)
    return col


def pn_independent_exact(n: int, d: int) -> Fraction:
    """Record probability for independent coordinates, exact: H_n^(d-1) / n."""
    n, d = _require_int(n, 1, "n"), _require_int(d, 1, "d")
    return roman_harmonic(n, d - 1) / n


# Below this n, pn_independent sums the power sums term by term.
_POWER_SUM_DIRECT_N = 64


def pn_independent(n: int, d: int) -> float:
    """Record probability for independent coordinates (any continuous marginals).

    Equals 1/n for d = 1 and H_n^(d-1)/n in general. H_n^(k) is the complete
    homogeneous symmetric polynomial h_k(1, 1/2, ..., 1/n), computed from the
    power sums P_i = sum_{j<=n} j^(-i) by Newton's identities
    k h_k = sum_{i<=k} P_i h_(k-i): O(d^2) time and O(1) memory in n, with
    every term positive. Below n = 64 each P_i sums its terms directly; from
    there on P_1 = psi(n+1) + gamma and P_i = zeta(i) - zeta(i, n+1), from
    the asymptotic series of psi and the Euler-Maclaurin sum of the Hurwitz
    zeta (``_special.power_sums``). Within 1e-14 relative of the exact value
    for d <= 10 (checked against mpmath up to n = 10^12).
    """
    n, d = _require_int(n, 1, "n"), _require_int(d, 1, "d")
    k = d - 1
    orders = np.arange(1.0, k + 1)
    if n < _POWER_SUM_DIRECT_N:
        j = np.arange(float(n), 0.0, -1.0)  # smallest terms first
        power = (j ** -orders[:, None]).sum(axis=1)
    else:
        power = power_sums(k, n)
    h = [1.0]
    for m in range(1, k + 1):
        h.append(math.fsum(power[i - 1] * h[m - i] for i in range(1, m + 1)) / m)
    return h[k] / n


def _beta_moment_fraction(a: Fraction, d: int, s: Fraction) -> Fraction:
    # E Z^s for Z ~ Beta(a, d) with integer d: prod_{i<d} (a+i)/(a+s+i).
    out = Fraction(1)
    for i in range(d):
        out *= (a + i) / (a + s + i)
    return out


# ---------------------------------------------------------------------------
# Record probabilities for the two parametric families
# ---------------------------------------------------------------------------


def _check_nda(n, d, a) -> tuple[int, int, np.ndarray]:
    # a may be a scalar (returned as a 0-d array) or a 1-D array; a bad
    # point is named as it was passed.
    n, d = _require_int(n, 1, "n"), _require_int(d, 2, "d")
    scalar = isinstance(a, float) or np.ndim(a) == 0
    av = np.array(float(a)) if scalar else np.asarray(a, dtype=float)
    if av.ndim > 1:
        raise InvalidParameterError(f"a must be a scalar or a 1-D array, got shape {av.shape}")
    for v in av.reshape(-1).tolist():
        if not 0.0 < v < math.inf:
            raise InvalidParameterError(f"a must be finite and > 0, got {a if scalar else v!r}")
    return n, d, av


def _pn_exact(n: int, d: int, a, dir_family: bool) -> Fraction:
    a = Fraction(a)
    s = a + (d - 1) if dir_family else a
    total = Fraction(0)
    sign = 1
    for j in range(n):
        total += sign * math.comb(n - 1, j) * _beta_moment_fraction(a, d, j * s)
        sign = -sign
    return total


def _pn_quadrature(n: int, d: int, a: np.ndarray, s: np.ndarray) -> np.ndarray:
    # In v = ln y the integrand of
    #   p = (1/B(a,d)) int_0^inf e^{-a y} (1-e^{-y})^{d-1} (1-e^{-s y})^{n-1} dy
    # is analytic and decays at both ends, so the trapezoidal rule in v
    # converges geometrically (Trefethen & Weideman, SIAM Review 2014). Each
    # point (a, s) gets its own range: below y = e^-14/s the last factor is
    # under e^{-14(n-1)}, and above y = 750/a e^{-a y} underflows. What the
    # range and the rule's two end values (left out) miss is below 1e-12 of
    # p; it is largest for pa at n = 2 and a -> 0. The powers are taken in
    # logs: raising a rounded base to the power n-1 would multiply its
    # rounding error by n. From _QUAD_START_INTERVALS the step is halved,
    # adding only the new midpoints, for the points not yet converged (in
    # chunks of _PN_BLOCK_BUDGET floats), until two levels agree to
    # _QUAD_REL_TOL. At _QUAD_MAX_INTERVALS a point is returned if its last
    # two levels agree to PN_REL_TOL; the first that does not raises.
    v0 = -np.log(s) - 14.0
    width = math.log(750.0) - np.log(a) - v0
    log_norm = np.log(a[:, None] + np.arange(d)).sum(axis=1) - math.lgamma(d)  # -ln B(a, d)
    out = np.empty(a.size)
    total = np.zeros(a.size)  # sum of the integrand over a point's nodes so far
    prev = np.empty(a.size)
    todo = np.arange(a.size)
    m = _QUAD_START_INTERVALS
    while todo.size:
        first = m == _QUAD_START_INTERVALS
        frac = np.arange(1, m, 1 if first else 2) / m  # node i of m sits at v0 + (i/m) width
        step = max(1, _PN_BLOCK_BUDGET // frac.size)
        for lo in range(0, todo.size, step):
            idx = todo[lo : lo + step]
            v = v0[idx, None] + frac * width[idx, None]
            y = np.exp(v)
            log_f = v - a[idx, None] * y + (d - 1) * np.log(-np.expm1(-y))
            log_f += (n - 1) * np.log1p(-np.exp(-s[idx, None] * y))
            total[idx] += np.exp(log_f + log_norm[idx, None]).sum(axis=1)
        cur = total[todo] * width[todo] / m
        if not first:
            gap = np.abs(cur - prev[todo])
            done = gap <= _QUAD_REL_TOL * cur
            if m >= _QUAD_MAX_INTERVALS:
                bad = np.flatnonzero(~(gap <= PN_REL_TOL * cur))
                if bad.size:
                    i = bad[0]
                    raise PrecisionLossError(
                        f"quadrature did not converge: {m} and {m // 2} intervals differ by "
                        f"{gap[i] / cur[i]:.1e} relative (n={n}, d={d}, a={a[todo[i]].item()}); "
                        "the *_exact functions are exact"
                    )
                done[:] = True
            out[todo[done]] = cur[done]
            todo, cur = todo[~done], cur[~done]
        prev[todo] = cur
        m *= 2
    return out


# From this n on, _log_beta_n uses Stirling's series instead of a product.
_STIRLING_MIN_N = 65


def _stirling_tail(z):
    # ln G(z) - [(z - 1/2) ln z - z + ln(2 pi)/2]; truncation error < 1e-22 for z >= 65.
    r = 1.0 / (z * z)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / z


def _log_beta_n(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """ln B(x, n) for x > 0 (any shape) and integer n >= 2, and the size of the logs it sums.

    A difference of log-Gammas loses up to 2e-9 here at large n: the answer
    is a small difference of large numbers. Below ``_STIRLING_MIN_N`` this
    uses B(x, n) = (1/x) prod_{j<n} 1/(1 + x/j); beyond, ln G(x) from
    ``math.lgamma`` minus ln G(n+x) - ln G(n) = (n - 1/2) log1p(x/n) +
    x ln(n+x) - x plus the difference of the Stirling tails at n+x and n,
    which stays accurate for large x. The error of ln B is a few ulps of the
    second value, the summed magnitude of its pieces, in which ln G(x)
    counts with its own error bound: close to |ln B| while x << n, and
    larger only where B is small.
    """
    if n < _STIRLING_MIN_N:
        log_x = np.log(x)
        ratio = x[..., None] / np.arange(1.0, n)
        log_rise = np.log1p(ratio, out=ratio).sum(axis=-1)
        return -log_x - log_rise, np.abs(log_x) + log_rise
    nf = float(n)
    lg, lg_ulps = log_gamma(x)
    log_rise = (nf - 0.5) * np.log1p(x / nf) + x * np.log(nf + x) - x + _stirling_tail(nf + x) - _stirling_tail(nf)
    return lg - log_rise, lg_ulps + log_rise


def _log_scales(d: int, ak: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ln C(d-1, k) by k, -ln(s B(a, d)) as a column, and a bound in ulps on the error of their sum.

    ``ak`` holds a + k for k < d in its rows. Both logs are differences of
    larger ones, so each is charged the summed size of its pieces: ln (d-1)!
    with the error measured for ``math.lgamma``, ln k! with one ulp beyond
    its size while k! fits a float (the lgamma bound beyond), and the logs of
    a + k and s with their sizes.
    """
    # ln k! for k < d, within an ulp while k! fits a float; beyond, lgamma
    # spares building ever larger integers.
    log_fact = [math.log(math.factorial(k)) if k < 171 else math.lgamma(k + 1.0) for k in range(d)]
    fact_ulps = [1.0 + v if k < 171 else lgamma_ulps(k + 1.0, v) for k, v in enumerate(log_fact)]
    log_gamma_d = math.lgamma(d)
    gamma_ulps = 2.0 * lgamma_ulps(d, log_gamma_d)  # once in each log
    log_fact = np.array(log_fact)
    log_binom = log_gamma_d - log_fact - log_fact[::-1]
    # -ln(s B(a, d)) with B(a, d) = (d-1)! / prod_{i<d} (a+i)
    log_s = np.array([math.log(v) for v in s.tolist()])
    log_ak = np.log(ak)
    log_norm = (log_ak.sum(axis=1) - log_gamma_d - log_s)[:, None]
    ulps = (np.abs(log_ak).sum(axis=1) + np.abs(log_s))[:, None] + [
        gamma_ulps + u + v for u, v in zip(fact_ulps, reversed(fact_ulps))]
    return log_binom, log_norm, ulps


def _pn_beta_terms(n: int, d: int, a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p_n as the d-term Beta sum at each point (a, s), with a bound on its relative error.

    t_k = (-1)^k C(d-1, k) B((a+k)/s, n) / (s B(a, d)), built for all points
    at once and summed per point with ``math.fsum``; a point's bound is inf
    when its computed sum is not positive.
    """
    ak = a[:, None] + np.arange(d)
    log_binom, log_norm, scale_ulps = _log_scales(d, ak, s)
    # At extreme a a term can overflow (then no bound holds) or underflow
    # to 0 with an infinite size (then it adds no error).
    with np.errstate(over="ignore", invalid="ignore"):
        log_beta, log_beta_size = _log_beta_n(ak / s[:, None], n)
        terms = np.exp(log_binom + log_norm + log_beta)
        err = terms * (_TERM_ULPS + scale_ulps + log_beta_size)
        err_sum = err.sum(axis=1)
    totals, bounds = [], []
    for i, (row, row_err) in enumerate(zip(terms.tolist(), err_sum.tolist())):
        if not all(map(math.isfinite, row)):
            totals.append(math.nan)
            bounds.append(math.inf)
            continue
        if 0.0 in row:
            row_err = float(err[i][terms[i] > 0.0].sum())
        row[1::2] = [-t for t in row[1::2]]
        total = math.fsum(row)
        totals.append(total)
        bounds.append(row_err * _EPS / total if total > 0.0 else math.inf)
    return np.array(totals), np.array(bounds)


def _pn_family(n, d, a, dir_family: bool):
    # One route for a scalar a (a one-point block) and for a 1-D array of a.
    n, d, av = _check_nda(n, d, a)
    points = av.reshape(-1)
    if n == 1:
        out = np.ones(points.size)
    else:
        out = np.empty(points.size)
        rise = n - 1 if n < _STIRLING_MIN_N else 1
        step = max(1, _PN_BLOCK_BUDGET // (d * rise))
        for lo in range(0, points.size, step):
            ab = points[lo : lo + step]
            sb = ab + (d - 1) if dir_family else ab
            value, bound = _pn_beta_terms(n, d, ab, sb)
            np.minimum(value, 1.0, out=out[lo : lo + step])  # p_n <= 1; the rounding may not know it
            uncertified = ~(bound <= PN_REL_TOL)
            if uncertified.any():
                rest = np.flatnonzero(uncertified)
                out[lo + rest] = _pn_quadrature(n, d, ab[rest], sb[rest])
    return float(out[0]) if av.ndim == 0 else out


def pn_marginal_dirichlet(n: int, d: int, a) -> float | np.ndarray:
    """Record probability under ``MarginalDirichlet(d, a)``.

    Evaluates E(1 - Z^(d+a-1))^(n-1) with Z ~ Beta(a, d). Strictly
    decreasing in a, with limits 1 (a -> 0) and the independent-coordinates
    value (a -> infinity); always >= :func:`pn_independent`.

    Sums the d-term Beta form (see the module docstring) wherever its error
    bound meets :data:`PN_REL_TOL`, and elsewhere (large a, small n) uses the
    trapezoidal rule in ln y; either way the value is within PN_REL_TOL
    relative or PrecisionLossError is raised.

    ``a`` is a scalar (the result is a float) or a 1-D array (a float array
    of the same length, evaluated in blocks of about ``_PN_BLOCK_BUDGET``
    floats per temporary, each value equal to the scalar call's). An array
    with any point that is not finite and > 0 raises InvalidParameterError,
    and one with any point that cannot be certified raises
    PrecisionLossError; the message names the first such point.
    """
    return _pn_family(n, d, a, True)


def pn_marginal_dirichlet_exact(n: int, d: int, a) -> Fraction:
    """Exact rational value of :func:`pn_marginal_dirichlet`.

    A float ``a`` is interpreted at its exact binary value; pass a
    :class:`~fractions.Fraction` to control the parameter exactly.
    """
    n, d, _ = _check_nda(n, d, a)
    return _pn_exact(n, d, a, True) if n > 1 else Fraction(1)


def pn_scale_mixture(n: int, d: int, a) -> float | np.ndarray:
    """Record probability under ``ExponentialScaleMixture(d, a)``.

    Evaluates E(1 - Z^a)^(n-1) with Z ~ Beta(a, d). Strictly increasing in
    a, with limits 1/n (a -> 0) and the independent-coordinates value
    (a -> infinity); always between 1/n and :func:`pn_independent`.
    Evaluated as :func:`pn_marginal_dirichlet` is, for a scalar or a 1-D
    array ``a`` alike, and raises as it does.
    """
    return _pn_family(n, d, a, False)


def pn_scale_mixture_exact(n: int, d: int, a) -> Fraction:
    """Exact rational value of :func:`pn_scale_mixture`."""
    n, d, _ = _check_nda(n, d, a)
    return _pn_exact(n, d, a, False) if n > 1 else Fraction(1)


# ---------------------------------------------------------------------------
# Survival functions
# ---------------------------------------------------------------------------


def survival(spec: DistributionSpec, x) -> float | np.ndarray:
    """Upper-orthant survival P(X >= x) under ``spec``.

    Each family class holds its closed form (``spec.survival``); the families
    without one raise UnsupportedSpecError. Coordinates below 0 are clamped
    to 0 first, since all supports lie in the positive orthant. Accepts a
    single point (1-D) or a batch (..., d); boundary values are resolved by
    continuity.
    """
    xv = np.asarray(x, dtype=np.float64)
    scalar = xv.ndim == 1
    if xv.shape[-1] != spec.dim:
        raise DimensionMismatchError(
            f"observation has dimension {xv.shape[-1]}, spec has {spec.dim}"
        )
    out = spec.survival(np.maximum(xv, 0.0))
    return float(out) if scalar else out
