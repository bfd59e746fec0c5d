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
"""

from __future__ import annotations

import numpy as np

from .model import DistributionSpec, _require_int, _require_uint64, validate

__all__ = ["make_rng", "sample_observations"]


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
