"""Domain types: distribution families and experiment parameters.

A distribution spec is an immutable tagged value describing one of the
sampling families handled by the package:

* ``IidExponential(d)`` -- d independent standard Exponential coordinates.
* ``MarginalDirichlet(d, a)`` -- the first d coordinates of a
  Dirichlet(1, ..., 1, a) vector in dimension d+1; negatively dependent,
  supported on the open unit simplex.
* ``ExponentialScaleMixture(d, a)`` -- (E_1/G, ..., E_d/G) with E_j iid
  Exponential(1) and G ~ Gamma(a) independent; positively associated.
* ``Dirichlet(b)`` -- a full Dirichlet vector (coordinates sum to one, so
  the observations form an antichain under coordinatewise <=, up to float
  resolution at small b; see the class).
* ``Comonotone(d)`` -- (Y, ..., Y) with a single Exponential(1) draw.
* ``Mixture(q, first, second)`` -- draws from ``second`` with probability q,
  else from ``first``.

Each family is a frozen dataclass under :class:`DistributionSpec` and is the
one home of what depends on the family: its JSON tag and encoding, its batch
sampler, its closed-form survival function and the law of the survival
value S(X) (where known), and the limit of its record probability.

All spec types validate their parameters on construction; ``validate``
re-checks an existing instance (useful after deserialization).

Specs serialize as JSON objects (``spec.to_json()`` and
:func:`spec_from_json`), with the keys in this order::

    {"family": "iid-exp" | "dir" | "pa" | "dirichlet" | "comonotone"
               | "mixture",
     "d": int,            # iid-exp, dir, pa, comonotone
     "a": float,          # dir, pa
     "b": [float, ...],   # dirichlet
     "q": float, "first": {...}, "second": {...}}   # mixture
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from ._special import beta_cdf_integer_b, poisson_cdf
from .errors import InvalidParameterError, RecordsError, UnsupportedSpecError

__all__ = [
    "FAMILIES",
    "Comonotone",
    "Dirichlet",
    "DistributionSpec",
    "ExperimentConfig",
    "ExponentialScaleMixture",
    "IidExponential",
    "MarginalDirichlet",
    "Mixture",
    "spec_from_json",
    "validate",
]

#: Mixtures may nest at most this deep; one level suffices in practice.
MAX_MIXTURE_DEPTH = 4


def _require_int(value, minimum: int, field: str) -> int:
    """``value`` as an int, or InvalidParameterError if it is a bool, not an
    integer, or below ``minimum``; the one integer check of the package."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < minimum:
        raise InvalidParameterError(f"{field} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _require_uint64(value, field: str) -> int:
    """A Philox seed or stream index: ``_require_int`` from 0, below 2**64."""
    try:
        if _require_int(value, 0, field) < 2**64:
            return int(value)
    except InvalidParameterError:
        pass
    raise InvalidParameterError(f"{field} must be an unsigned 64-bit integer, got {value!r}")


def _require_positive(x, field: str) -> float:
    try:
        v = float(x)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{field} must be a number, got {x!r}") from None
    if not np.isfinite(v) or v <= 0.0:
        raise InvalidParameterError(f"{field} must be finite and > 0, got {x!r}")
    return v


# Rows shorter than this are reduced column by column (see _row_reduce).
_COLUMN_FOLD_MAX_D = 8


def _row_reduce(op: np.ufunc, x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """``op.reduce(x, axis=-1)`` for ``op`` = ``np.add`` or ``np.maximum``, to the bit.

    On rows of 2 to 7 entries numpy combines each row left to right, so
    applying ``op`` to whole columns in that order gives the same bits at a
    fraction of the cost of reducing every short row. From 8 entries on
    numpy's pairwise sum unrolls and its own reduction is kept.
    """
    d = x.shape[-1]
    if d == 1 or d >= _COLUMN_FOLD_MAX_D:
        return op.reduce(x, axis=-1, keepdims=keepdims)
    out = op(x[..., 0], x[..., 1], out=np.empty(x.shape[:-1]))
    for j in range(2, d):
        op(out, x[..., j], out=out)
    return out[..., None] if keepdims else out


def _beta_law_cdf(a: float, d: int, w, power: float):
    # P(Z^power <= w) = I_z(a, d) at z = w^(1/power), for Z ~ Beta(a, d).
    with np.errstate(divide="ignore"):
        return beta_cdf_integer_b(a, d, np.log(np.clip(w, 0.0, 1.0)) / power)


class DistributionSpec:
    """Base of the distribution families.

    A family is a frozen dataclass whose fields are its parameters, in JSON
    key order. It sets ``family`` to its JSON tag and ``limit`` to the limit
    of the record probability as the stream grows, which is the probability
    mass of the region where the survival function vanishes (0 by default:
    the survival is positive everywhere). It implements ``sample``, and
    ``survival`` and ``survival_value_cdf`` where closed forms exist.
    """

    family: str
    limit = 0.0

    @property
    def dim(self) -> int:
        return self.d

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """m observations as an (m, dim) array, in the family's fixed draw
        order; callers validate through ``samplers.sample_observations``."""
        raise NotImplementedError

    def survival(self, pos: np.ndarray) -> np.ndarray:
        """P(X >= x) at the points of a (..., dim) array clamped to >= 0;
        callers check and clamp through ``exact.survival``."""
        raise UnsupportedSpecError(f"no closed-form survival for {type(self).__name__}")

    def survival_value_cdf(self, w):
        """CDF G(w) = P(S(X) <= w) of the survival value at a random
        observation, at w in [0, 1] (scalar or array; values outside are
        clipped). Every record probability follows from it:
        p_n = E(1 - S(X))^(n-1) = (n-1) int_0^1 (1-w)^(n-2) G(w) dw."""
        raise UnsupportedSpecError(f"no closed-form law of S(X) for {type(self).__name__}")

    def to_json(self) -> dict:
        """Plain JSON-compatible dict: the tag, then the fields in order."""
        obj = {"family": self.family}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, DistributionSpec):
                value = value.to_json()
            obj[f.name] = list(value) if isinstance(value, tuple) else value
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> DistributionSpec:
        """Inverse of ``to_json``; a missing field raises KeyError."""
        values = (obj[f.name] for f in fields(cls))
        return cls(*(spec_from_json(v) if isinstance(v, dict) else v for v in values))


@dataclass(frozen=True)
class IidExponential(DistributionSpec):
    """d independent Exponential(1) coordinates."""

    d: int

    family = "iid-exp"

    def __post_init__(self):
        object.__setattr__(self, "d", _require_int(self.d, 1, "d"))

    def sample(self, m, rng):
        """One block of m*d exponentials."""
        return rng.standard_exponential(size=(m, self.d))

    def survival(self, pos):
        """exp(-||x||_1)."""
        return np.exp(-_row_reduce(np.add, pos))

    def survival_value_cdf(self, w):
        """S(X) = exp(-T) with T ~ Gamma(d): G(w) = Q(d, -ln w), the
        regularized upper incomplete gamma function, which at integer d is
        w sum_{r<d} (-ln w)^r / r!."""
        w = np.clip(w, 0.0, 1.0)
        with np.errstate(divide="ignore"):
            return poisson_cdf(w, -np.log(w), self.d)


@dataclass(frozen=True)
class MarginalDirichlet(DistributionSpec):
    """First d coordinates of Dirichlet(1, ..., 1, a) in dimension d+1.

    Supported on the open unit simplex; needs d >= 2 (d = 1 would just be a
    Beta marginal with no dependence structure to study) and a > 0.
    """

    d: int
    a: float

    family = "dir"

    def __post_init__(self):
        object.__setattr__(self, "d", _require_int(self.d, 2, "d"))
        object.__setattr__(self, "a", _require_positive(self.a, "a"))

    def sample(self, m, rng):
        """m*d exponentials, then m Gamma(a) scales; each row is
        E / (sum(E) + G), the first d coordinates of a Dirichlet(1, ..., 1, a)
        vector."""
        e = rng.standard_exponential(size=(m, self.d))
        g = rng.standard_gamma(self.a, size=(m, 1))
        g += _row_reduce(np.add, e, keepdims=True)
        e /= g
        return e

    def survival(self, pos):
        """(1 - ||x||_1)^(d+a-1), and 0 outside the simplex."""
        slack = np.maximum(1.0 - _row_reduce(np.add, pos), 0.0)
        return slack ** (self.d + self.a - 1.0)

    def survival_value_cdf(self, w):
        """S(X) = Z^(d+a-1) with Z ~ Beta(a, d): G(w) = I_{w^(1/(d+a-1))}(a, d)."""
        return _beta_law_cdf(self.a, self.d, w, self.d + self.a - 1.0)


@dataclass(frozen=True)
class ExponentialScaleMixture(DistributionSpec):
    """(E_1/G, ..., E_d/G): iid Exponential(1) coordinates divided by an
    independent Gamma(a) scale. Requires d >= 2 and a > 0."""

    d: int
    a: float

    family = "pa"

    def __post_init__(self):
        object.__setattr__(self, "d", _require_int(self.d, 2, "d"))
        object.__setattr__(self, "a", _require_positive(self.a, "a"))

    def sample(self, m, rng):
        """m*d exponentials, then m Gamma(a) scales; each row is E / G."""
        e = rng.standard_exponential(size=(m, self.d))
        e /= rng.standard_gamma(self.a, size=(m, 1))
        return e

    def survival(self, pos):
        """(1 + ||x||_1)^(-a)."""
        return (1.0 + _row_reduce(np.add, pos)) ** -self.a

    def survival_value_cdf(self, w):
        """S(X) = Z^a with Z ~ Beta(a, d): G(w) = I_{w^(1/a)}(a, d)."""
        return _beta_law_cdf(self.a, self.d, w, self.a)


@dataclass(frozen=True)
class Dirichlet(DistributionSpec):
    """Full Dirichlet(b) vector; coordinates are positive and sum to one.

    Real draws form an antichain, but floats resolve it only for b not too
    small. A coordinate rounds to exactly 1.0 when the others sum to below
    about 2^-53 of it, which happens in about 2^(-53 b) of the rows of a
    two-coordinate Dirichlet(b, b): 2.6 % at b = 0.1 and 0.07 % at b = 0.2
    (measured; none in 2e5 rows at 0.3). Two such rows weakly dominate one another, so
    record and maxima counts fall below n: at n = 50 the mean record count
    is 49.8 at b = 0.1, 22.4 at b = 0.01 and 8.96 at b = 0.001. Below
    b = 0.01 the smaller coordinates also underflow to exactly 0, which
    makes duplicate rows such as (1, 0).
    """

    b: tuple[float, ...]

    family = "dirichlet"
    limit = 1.0

    def __post_init__(self):
        try:
            b = tuple(float(v) for v in self.b)
        except (TypeError, ValueError):
            raise InvalidParameterError(f"b must be a sequence of numbers, got {self.b!r}") from None
        if len(b) < 2:
            raise InvalidParameterError(f"b must have length >= 2, got {len(b)}")
        for j, v in enumerate(b):
            if not np.isfinite(v) or v <= 0.0:
                raise InvalidParameterError(f"b[{j}] must be finite and > 0, got {v!r}")
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return len(self.b)

    def sample(self, m, rng):
        """m*k Gamma(b+1) draws, then m*k uniforms U in (0, 1], both
        parameter-major. log G = log G_(b+1) + log(U)/b is a Gamma(b) draw
        (Marsaglia & Tsang, ACM TOMS 2000) taken in logs, so no row of tiny
        b underflows to 0/0; each row is scaled by its largest entry, then
        normalized."""
        b = np.asarray(self.b)
        g = rng.standard_gamma(b + 1.0, size=(m, b.size))
        np.log(g, out=g)
        u = rng.random((m, b.size))
        np.negative(u, out=u)
        np.log1p(u, out=u)
        u /= b
        g += u  # log G
        g -= _row_reduce(np.maximum, g, keepdims=True)
        np.exp(g, out=g)
        g /= _row_reduce(np.add, g, keepdims=True)
        return g


@dataclass(frozen=True)
class Comonotone(DistributionSpec):
    """All d coordinates equal to a single Exponential(1) draw."""

    d: int

    family = "comonotone"

    def __post_init__(self):
        object.__setattr__(self, "d", _require_int(self.d, 1, "d"))

    def sample(self, m, rng):
        """m exponentials, each repeated across the d coordinates."""
        y = rng.standard_exponential(size=(m, 1))
        return np.repeat(y, self.d, axis=1)

    def survival(self, pos):
        """exp(-max_j x_j)."""
        return np.exp(-_row_reduce(np.maximum, pos))


@dataclass(frozen=True)
class Mixture(DistributionSpec):
    """With probability q draw from ``second``, else from ``first``.

    Components must have equal dimension; nesting depth is capped at
    ``MAX_MIXTURE_DEPTH``.
    """

    q: float
    first: DistributionSpec
    second: DistributionSpec

    family = "mixture"

    def __post_init__(self):
        try:
            q = float(self.q)
        except (TypeError, ValueError):
            raise InvalidParameterError(f"q must be a number, got {self.q!r}") from None
        if not np.isfinite(q) or not 0.0 <= q <= 1.0:
            raise InvalidParameterError(f"q must lie in [0, 1], got {self.q!r}")
        object.__setattr__(self, "q", q)
        for name, comp in (("first", self.first), ("second", self.second)):
            if not isinstance(comp, DistributionSpec):
                raise InvalidParameterError(f"{name} must be a DistributionSpec, got {comp!r}")
            comp.__post_init__()  # so that validate re-checks nested components too
        if self.first.dim != self.second.dim:
            raise InvalidParameterError(
                f"mixture components must share a dimension, got {self.first.dim} and {self.second.dim}"
            )
        if _mixture_depth(self) > MAX_MIXTURE_DEPTH:
            raise InvalidParameterError(f"mixture nesting deeper than {MAX_MIXTURE_DEPTH}")

    @property
    def dim(self) -> int:
        return self.first.dim

    @property
    def limit(self) -> float:
        return (1.0 - self.q) * self.first.limit + self.q * self.second.limit

    def sample(self, m, rng):
        """m uniform selectors first (u < q picks ``second``), then the
        ``first`` sub-batch, then the ``second`` sub-batch."""
        pick_second = rng.random(m) < self.q
        out = np.empty((m, self.dim))
        m_first = int(m - pick_second.sum())
        if m_first:
            out[~pick_second] = self.first.sample(m_first, rng)
        if m - m_first:
            out[pick_second] = self.second.sample(m - m_first, rng)
        return out


#: Family classes by JSON tag, in the order they are defined above.
FAMILIES = {cls.family: cls for cls in DistributionSpec.__subclasses__()}


def spec_from_json(obj) -> DistributionSpec:
    """Decode a spec from a dict or JSON string (inverse of ``spec.to_json()``)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "family" not in obj:
        raise RecordsError(f"spec object must be a dict with a 'family' key, got {obj!r}")
    family = obj["family"]
    cls = FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise RecordsError(f"unknown family {family!r}")
    try:
        return cls.from_json(obj)
    except KeyError as exc:
        raise RecordsError(f"spec for family {family!r} is missing field {exc}") from None


def _mixture_depth(spec) -> int:
    if isinstance(spec, Mixture):
        return 1 + max(_mixture_depth(spec.first), _mixture_depth(spec.second))
    return 0


def validate(spec: DistributionSpec) -> None:
    """Re-run the constructor checks on ``spec``; raise InvalidParameterError
    if any invariant fails.

    Construction already enforces the invariants, so this mainly guards
    instances rebuilt by deserialization or introspection.
    """
    if not isinstance(spec, DistributionSpec):
        raise InvalidParameterError(f"not a DistributionSpec: {spec!r}")
    spec.__post_init__()


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one Monte Carlo experiment, validated on construction.

    The one argument of the four Monte Carlo entry points of ``simulate``
    (``estimate_record_prob``, ``estimate_record_prob_survival``,
    ``estimate_maxima`` and ``concomitant_check``); ``sweep`` builds one per
    row it estimates. ``workers`` is a scheduling hint only; results never
    depend on it.
    """

    spec: DistributionSpec
    n: int
    reps: int
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        validate(self.spec)
        object.__setattr__(self, "n", _require_int(self.n, 1, "n"))
        object.__setattr__(self, "reps", _require_int(self.reps, 1, "reps"))
        object.__setattr__(self, "seed", _require_uint64(self.seed, "seed"))
        object.__setattr__(self, "workers", _require_int(self.workers, 1, "workers"))
