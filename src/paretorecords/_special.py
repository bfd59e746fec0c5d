"""The few special functions the package needs, on numpy and the standard library.

Each is a finite sum of positive terms, a convergent asymptotic series or a
standard-library function whose measured error is charged where it is used.
The tolerances written next to each function are the ones
``tests/test_special.py`` checks against 40-digit mpmath.
"""

from __future__ import annotations

import math

import numpy as np

# Below this y, e^{-y} is a normal float and the chi-square tail is summed
# from it directly; beyond, each term is formed in logs.
_EXP_SAFE = 700.0


def log_gamma(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln G(x) for x > 0, elementwise (``math.lgamma`` on plain floats), and its error in ulps.

    Against 40-digit mpmath on 2e5 points of [1e-6, 1e9], ``math.lgamma``
    was within 7 + |ln G(x)| ulps up to x = 3, and within 6 + 1.7 |ln G(x)|
    beyond; the returned bound, 8 + |ln G(x)| and 8 + 2 |ln G(x)|, is what
    a caller charges.
    """
    flat = x.ravel().tolist()
    value = [math.lgamma(v) for v in flat]
    ulps = [lgamma_ulps(v, g) for v, g in zip(flat, value)]
    return np.reshape(value, x.shape), np.reshape(ulps, x.shape)


def lgamma_ulps(x: float, g: float) -> float:
    """The error bound of ``math.lgamma(x) = g`` in ulps that ``log_gamma`` returns."""
    return 8.0 + abs(g) * (2.0 if x > 3.0 else 1.0)


# The asymptotic series below keep four Bernoulli terms, B_2 .. B_8. From
# a = 64 on, the first term left out is below 1e-20, against power sums
# sum_{j>=1} j^-i >= 1.


def _digamma(a: float) -> float:
    # psi(a) = ln a - 1/(2a) - sum_k B_2k / (2k a^2k), for a >= 64.
    r = 1.0 / (a * a)
    return math.log(a) - 0.5 / a - r * (1 / 12 - r * (1 / 120 - r * (1 / 252 - r / 240)))


def _zeta_tail(i: int, a: float) -> float:
    # zeta(i, a) = sum_{j>=a} j^-i for i >= 2 and a >= 64, by Euler-Maclaurin:
    # a^(1-i)/(i-1) + a^-i/2 + sum_k B_2k/(2k)! (i)_(2k-1) a^(-i-2k+1).
    r = 1.0 / (a * a)
    series = i * (1 / 12 - (i + 1) * (i + 2) * r * (
        1 / 720 - (i + 3) * (i + 4) * r * (1 / 30240 - (i + 5) * (i + 6) * r / 1209600)))
    return a ** (1 - i) / (i - 1) + a**-i * (0.5 + series / a)


# zeta(i) for i = 2 .. 53: the sum over j < 64 plus the tail from 64 on.
# From i = 54 on, zeta(i) - 1 < 2^-54 and zeta(i) rounds to 1.
_ZETA = (np.arange(63.0, 0.0, -1.0) ** -np.arange(2.0, 54.0)[:, None]).sum(axis=1).tolist()
_ZETA = [z + _zeta_tail(i, 64.0) for i, z in enumerate(_ZETA, start=2)]


def power_sums(k: int, n: int) -> list[float]:
    """P_i = sum_{j<=n} j^-i for i = 1..k and n >= 63.

    P_1 = psi(n+1) + gamma and P_i = zeta(i) - zeta(i, n+1), each from its
    asymptotic series; zeta(i) is summed once, at import. Within 2 ulps
    (measured at n from 64 to 1e12, i <= 9).
    """
    nf = float(n) + 1.0
    return [
        _digamma(nf) + np.euler_gamma if i == 1 else (_ZETA[i - 2] if i < 54 else 1.0) - _zeta_tail(i, nf)
        for i in range(1, k + 1)
    ]


def chi2_sf(dof: int, x: float) -> float:
    """P(chi^2_dof > x) for integer dof >= 1 and x >= 0 (A&S 26.4.4, 26.4.5).

    With y = x/2 and h = (dof mod 2)/2 this is Q(dof/2, y) =
    [erfc(sqrt y) if h] + sum_{r < dof//2} e^{-y} y^(r+h) / G(r+1+h): positive
    terms, so the value is never negative or NaN. Below y = 700 each term
    follows from the one before; beyond, where e^{-y} would underflow, each
    is exp of its own log and the sum may underflow to 0. Within 1e-13
    relative below y = 700 and 1e-12 beyond, where the value is above 1e-300.
    """
    y = 0.5 * x
    h = 0.5 * (dof % 2)
    head = math.erfc(math.sqrt(y)) if h else 0.0
    m = dof // 2
    if m == 0:
        return head
    if y < _EXP_SAFE:
        term = math.exp(-y) * y**h / math.gamma(1.0 + h)
        terms = [head, term]
        for r in range(1, m):
            term *= y / (r + h)
            terms.append(term)
        return math.fsum(terms)
    log_y = math.log(y)
    terms = [math.exp(-y + (r + h) * log_y - math.lgamma(r + 1.0 + h)) for r in range(m)]
    return math.fsum([head, *terms])


def poisson_cdf(w: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """sum_{r<m} w y^r / r! for w >= 0 and y >= 0 (0 where w is 0).

    With w = e^{-y} this is P(N < m) for N ~ Poisson(y), which is the upper
    incomplete gamma ratio Q(m, y). Each term follows from the one before,
    all positive: within 8m ulps for w = e^{-y} with y = -ln w rounded.
    """
    y = np.where(w > 0.0, y, 0.0)
    term = np.array(w, dtype=float)
    total = term.copy()
    for r in range(1, m):
        term *= y / r
        total += term
    return total[()]


def beta_cdf_integer_b(a: float, b: int, log_z: np.ndarray) -> np.ndarray:
    """Regularized incomplete Beta I_z(a, b) for integer b >= 1, with z = e^{log_z}.

    I_z(a, b) = z^a sum_{j<b} (a)_j / j! (1 - z)^j, a finite sum of positive
    terms; 1 - z comes from expm1, so it keeps its digits as z -> 1. Within
    8b + |ln I| ulps, the second part from the rounding of log_z.
    """
    term = np.exp(a * log_z)
    comp = -np.expm1(log_z)
    total = term.copy()
    for j in range(1, b):
        term = term * comp * ((a + j - 1) / j)
        total += term
    return total[()]
