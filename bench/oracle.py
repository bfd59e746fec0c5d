"""Reference values computed apart from the program under test.

Nothing here imports ``paretorecords``. The values come from:

* exact rational alternating sums (``fractions.Fraction``) for the
  marginalized Dirichlet (``dir``) and Exponential scale mixture (``pa``)
  families, using E Z^s = prod_{i<d} (a+i)/(a+s+i) for Z ~ Beta(a, d);
* Roman harmonic numbers H_n^(k) from the recurrence
  H_n^(k) = sum_{j<=n} H_j^(k-1)/j, in rationals or in long double;
* ``mpmath`` integrals of p_n = E(1 - W)^(n-1), W = S(X), written in the
  log domain y = -ln Z, for stream lengths where the rational sum is too slow.

Run ``python3 bench/oracle.py`` to cross-check the rational sums against the
integrals on a small grid.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

#: Largest n for which p_n of dir/pa is taken from the exact rational sum.
RATIONAL_MAX_N = 60


def beta_moment(a: Fraction, d: int, s: Fraction) -> Fraction:
    """E Z^s for Z ~ Beta(a, d) with integer d."""
    out = Fraction(1)
    for i in range(d):
        out *= (a + i) / (a + s + i)
    return out


def _power(family: str, d: int, a):
    # W = Z^power is the survival value at a random observation.
    return a + (d - 1) if family == "dir" else a


def pn_rational(n: int, d: int, a: float, family: str) -> Fraction:
    """p_n = sum_j (-1)^j C(n-1, j) E Z^(j*power), a taken at its binary value."""
    a = Fraction(a)
    power = _power(family, d, a)
    return sum(
        ((-1) ** j * math.comb(n - 1, j) * beta_moment(a, d, j * power) for j in range(n)),
        Fraction(0),
    )


def _mp():
    import mpmath

    mpmath.mp.dps = 20
    return mpmath


def _family_integral(n: int, d: int, a: float, family: str, kernel) -> float:
    # (1/B(a, d)) int_0^inf e^{-a y} (1 - e^{-y})^{d-1} kernel(e^{-power*y}) dy
    mp = _mp()
    a_ = mp.mpf(a)
    power = _power(family, d, a_)
    log_beta = mp.loggamma(a_) + mp.loggamma(d) - mp.loggamma(a_ + d)

    def f(y):
        return mp.exp(-a_ * y - log_beta) * (-mp.expm1(-y)) ** (d - 1) * kernel(mp, n, mp.exp(-power * y))

    # Split [0, inf) at the integrand's feature scales so that tanh-sinh sees
    # smooth pieces: the step of (1 - w)^(n-1) near y = ln(n)/power, of
    # width 1/power; the rise of (1 - e^{-y})^(d-1) near y = 1; the decay
    # of e^{-a y}.
    step = mp.log(max(n, 2)) / power
    scales = {step / 4, step / 2, step, step + 2 / power, step + 6 / power, 1 / power,
              mp.mpf(1), 10 / (a_ + power), 1 / a_, 10 / a_}
    value, err = mp.quad(f, [0] + sorted(scales) + [mp.inf], error=True, maxdegree=8)
    if err > 1e-12 * abs(value):
        raise ArithmeticError(f"oracle integral did not converge: n={n} d={d} a={a} {family}")
    return float(value)


def _pn_kernel(mp, n, w):
    return (1 - w) ** (n - 1)


def _records_kernel(mp, n, w):
    # sum_{j<=n} (1 - w)^(j-1) = (1 - (1 - w)^n) / w, which tends to n as w -> 0.
    return -mp.expm1(n * mp.log1p(-w)) / w if w > 0 else mp.mpf(n)


@lru_cache(maxsize=None)
def pn_family(n: int, d: int, a: float, family: str) -> float:
    """p_n for ``dir``/``pa``: rational sum for small n, mpmath integral beyond."""
    if n == 1:
        return 1.0
    if n <= RATIONAL_MAX_N:
        return float(pn_rational(n, d, a, family))
    return _family_integral(n, d, a, family, _pn_kernel)


def pn_family_grid(n: int, d: int, a_values: list[float], family: str) -> list[float]:
    """p_n for ``dir``/``pa`` over many a at one (n, d).

    For n <= RATIONAL_MAX_N the alternating sum is taken in long double for
    the whole grid at once; a value whose rounding bound exceeds 1e-8 of it
    is taken from the rational sum instead. Beyond, :func:`pn_family`.
    """
    if n == 1 or n > RATIONAL_MAX_N:
        return [pn_family(n, d, a, family) for a in a_values]
    a = np.asarray(a_values, dtype=np.longdouble)[:, None]
    j = np.arange(n, dtype=np.longdouble)
    power = _power(family, d, a)
    moment = np.ones((len(a_values), n), dtype=np.longdouble)
    for i in range(d):
        moment *= (a + i) / (a + j * power + i)
    signed_comb = np.array([(-1) ** k * math.comb(n - 1, k) for k in range(n)], dtype=np.longdouble)
    terms = signed_comb * moment
    total = terms.sum(axis=1)
    # Each term carries at most 3d + 2 roundings, and the sum n - 1 more.
    bound = np.abs(terms).sum(axis=1) * (3 * d + n + 1) * np.finfo(np.longdouble).eps
    return [float(t) if b <= 1e-8 * abs(t) else pn_family(n, d, av, family)
            for av, t, b in zip(a_values, total, bound)]


@lru_cache(maxsize=None)
def records_mean_family(n: int, d: int, a: float, family: str) -> float:
    """E R_n = sum_{j<=n} p_j for ``dir``/``pa``, as one mpmath integral."""
    return _family_integral(n, d, a, family, _records_kernel)


@lru_cache(maxsize=None)
def _roman_columns(n: int, k: int) -> np.ndarray:
    # Row i holds H_j^(i) for j = 1..n, accumulated in long double.
    j = np.arange(1, n + 1, dtype=np.longdouble)
    cols = np.empty((k + 1, n), dtype=np.longdouble)
    cols[0] = 1
    for level in range(1, k + 1):
        cols[level] = np.cumsum(cols[level - 1] / j)
    return cols


def roman_float(n: int, k: int) -> float:
    """H_n^(k) from the positive-term recurrence in long double."""
    return float(_roman_columns(n, k)[k, n - 1])


@lru_cache(maxsize=None)
def _roman_rational_column(n: int, k: int) -> tuple[Fraction, ...]:
    # H_m^(k) for m = 1..n, from H_m^(k) = sum_{j<=m} H_j^(k-1) / j.
    prev = _roman_rational_column(n, k - 1) if k > 1 else (Fraction(1),) * n
    column, total = [], Fraction(0)
    for j in range(1, n + 1):
        total += prev[j - 1] / j
        column.append(total)
    return tuple(column)


def roman_rational(n: int, k: int) -> Fraction:
    """H_n^(k) exactly: the defining alternating sum for small n, else the recurrence."""
    if k == 0:
        return Fraction(1)
    if n <= 40:
        return sum(
            (Fraction((-1) ** (j - 1) * math.comb(n, j), j**k) for j in range(1, n + 1)),
            Fraction(0),
        )
    return _roman_rational_column(n, k)[n - 1]


def pstar(n: int, d: int) -> float:
    """p*_n = H_n^(d-1) / n, the value for independent coordinates."""
    return 1.0 / n if d == 1 else roman_float(n, d - 1) / n


def pstar_rational(n: int, d: int) -> Fraction:
    return roman_rational(n, d - 1) / n


def pn(family: str, n: int, d: int, a: float | None) -> float:
    """Exact p_n for the families that have one."""
    if family == "iid-exp":
        return pstar(n, d)
    if family == "comonotone":
        return 1.0 / n
    if family == "dirichlet":
        return 1.0
    return pn_family(n, d, a, family)


def records_mean(family: str, n: int, d: int, a: float | None) -> float:
    """E R_n = sum_{j<=n} p_j."""
    if family == "iid-exp":
        return roman_float(n, d)
    if family == "comonotone":
        return roman_float(n, 1)
    if family == "dirichlet":
        return float(n)
    return records_mean_family(n, d, a, family)


@lru_cache(maxsize=None)
def pn_mixture_iid_dir(n: int, d: int, a: float, q: float) -> float:
    """p_n for the mixture (1-q) iid-exp(d) + q dir(d, a).

    Both survival functions depend on x only through t = ||x||_1:
    S(t) = (1-q) e^{-t} + q (1-t)_+^{d+a-1}, with t ~ Gamma(d) under the
    first component and t ~ Beta(d, a) under the second.
    """
    mp = _mp()
    a_, q_ = mp.mpf(a), mp.mpf(q)
    power = a_ + d - 1
    log_beta = mp.loggamma(d) + mp.loggamma(a_) - mp.loggamma(a_ + d)

    def surv(t):
        return (1 - q_) * mp.exp(-t) + (q_ * (1 - t) ** power if t < 1 else 0)

    def first(t):
        return (1 - surv(t)) ** (n - 1) * t ** (d - 1) * mp.exp(-t) / mp.factorial(d - 1)

    def second(t):
        return (1 - surv(t)) ** (n - 1) * mp.exp((d - 1) * mp.log(t) + (a_ - 1) * mp.log1p(-t) - log_beta)

    pts = [mp.mpf(0), mp.mpf("0.25"), mp.mpf("0.5"), mp.mpf("0.75"), mp.mpf(1)]
    value = (1 - q_) * mp.quad(first, pts + [mp.mpf(4), mp.mpf(16), mp.mpf(64), mp.inf])
    value += q_ * mp.quad(second, pts)
    return float(value)


def _selfcheck() -> int:
    worst = grid_worst = 0.0
    for family in ("dir", "pa"):
        for n, d, a in [(5, 2, 0.3), (20, 3, 1.5), (40, 4, 0.01), (60, 6, 100.0)]:
            exact = float(pn_rational(n, d, a, family))
            integral = _family_integral(n, d, a, family, _pn_kernel)
            rel = abs(exact - integral) / exact
            worst = max(worst, rel)
            print(f"{family} n={n} d={d} a={a}: rational {exact!r} integral {integral!r} rel {rel:.1e}")
        grid = [1e-3, 0.02, 0.7, 3.0, 40.0, 900.0]
        for n, d in [(30, 5), (30, 6), (12, 2)]:
            rel = max(abs(v - float(pn_rational(n, d, a, family))) / v
                      for a, v in zip(grid, pn_family_grid(n, d, grid, family)))
            print(f"{family} n={n} d={d} long-double grid vs rational: worst rel {rel:.1e}")
            grid_worst = max(grid_worst, rel)
        total = sum(float(pn_rational(j, 3, 0.7, family)) for j in range(1, 31))
        integral = records_mean_family(30, 3, 0.7, family)
        print(f"{family} sum_j<=30 p_j: rational {total!r} integral {integral!r}")
        worst = max(worst, abs(total - integral) / total)
    for n, k in [(40, 3), (41, 3), (300, 2)]:
        rel = abs(float(roman_rational(n, k)) - roman_float(n, k)) / roman_float(n, k)
        print(f"H_{n}^({k}): rational vs long double rel {rel:.1e}")
        worst = max(worst, rel)
    mc = _mixture_mc(12, 3, 0.8, 0.4)
    print(f"mixture p_12: integral {pn_mixture_iid_dir(12, 3, 0.8, 0.4)!r}, plain Monte Carlo {mc[0]!r} +- {mc[1]:.1e}")
    print(f"worst relative disagreement {worst:.1e}; long-double grids {grid_worst:.1e}")
    return 0 if worst < 1e-12 and grid_worst < 1e-8 else 1


def _mixture_mc(n: int, d: int, a: float, q: float, reps: int = 200_000):
    # Brute-force check of the mixture integral, with numpy's own generator.
    rng = np.random.default_rng(12345)
    pick = rng.random((reps, n)) < q
    e = rng.exponential(size=(reps, n, d))
    g = rng.gamma(a, size=(reps, n, 1))
    x = np.where(pick[..., None], e / (e.sum(axis=2, keepdims=True) + g), e)
    last = x[:, -1, :]
    dominated = np.all(x[:, :-1, :] >= last[:, None, :], axis=2).any(axis=1)
    p = 1.0 - dominated.mean()
    return p, math.sqrt(p * (1 - p) / reps)


if __name__ == "__main__":
    raise SystemExit(_selfcheck())
