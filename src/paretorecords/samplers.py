"""Reproducible random variate generation for every distribution family.

Streams are counter-based: :func:`make_rng` keys a Philox generator with the
pair ``(seed, stream)``, so

* the same (seed, stream, call sequence) yields the same draws on every
  platform, and
* distinct stream indices give statistically independent streams that can be
  handed to parallel workers without coordination.

Each sampler advances only the generator passed to it; none keep state.
Batch draws fix an internal draw order (documented per family), so a batch is
reproducible even though it is not the concatenation of smaller batches.

:func:`sample_observations` returns whatever float64 makes of a draw, inf
included. The estimators and checks draw inside :func:`finite_draws`, which
turns a draw that divides by zero or overflows into an error.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

from .errors import PrecisionLossError
from .model import DistributionSpec, _require_int, _require_uint64, validate

__all__ = ["finite_draws", "make_rng", "sample_observations"]


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Return an independent reproducible generator for ``(seed, stream)``.

    Philox is counter-based, so constructing a generator is cheap and the
    (seed, stream) key fully determines the output sequence.
    """
    key = np.array([_require_uint64(seed, "seed"), _require_uint64(stream, "stream")], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_observations(spec: DistributionSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` independent observations from ``spec`` as a (count, d) array.

    The draw order of each family is fixed for reproducibility and
    documented on its ``sample`` method.
    """
    validate(spec)
    return spec.sample(_require_int(count, 1, "count"), rng)


@contextmanager
def finite_draws(spec: DistributionSpec):
    """Raise PrecisionLossError where a draw from ``spec`` inside the block
    divides by zero or overflows.

    At small a the Gamma(a) scale G of ``pa`` underflows to 0 or to a
    subnormal number, and E / G is inf: in 49 % of rows at a = 1e-3 and in
    8.4e-4 of them at a = 0.01 (d = 3, 10^6 rows). Rows of inf tie under
    weak dominance, so an estimate built on them is wrong by far more than
    its standard error. NumPy's error state is per thread, so each worker
    enters the block itself.
    """
    try:
        with np.errstate(divide="raise", over="raise"):
            yield
    except FloatingPointError as exc:
        what = f"{spec.family} at a = {spec.a!r}" if hasattr(spec, "a") else json.dumps(spec.to_json())
        raise PrecisionLossError(
            f"draws of {what} are not finite in float64 ({exc}); the Gamma(a) scale underflows at small a"
        ) from None
