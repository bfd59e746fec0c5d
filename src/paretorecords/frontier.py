"""Incremental Pareto-frontier maintenance along an observation stream.

A point is a *record* when no earlier point weakly dominates it
(coordinatewise >=); the *frontier* (current records, maxima) is the
antichain of points not dominated by anything seen so far. Because any
earlier dominating point is itself dominated by some current maximum,
checking the frontier alone decides record status; this equivalence is
exercised against an all-history brute force in the tests.

Two structures share one interface:

* :class:`GenericFrontier` -- flat array with a linear dominance scan; right
  for d >= 3, where frontiers stay small at desk scale.
* :class:`Frontier2D` -- kept sorted by the first coordinate (second then
  strictly decreasing), giving O(log r + broken) insertion; right for d = 2
  sweeps against simplex-like families, whose frontiers grow like sqrt(n).

Duplicate points are non-records under weak dominance; the first copy stays
on the frontier. Counters: ``records_total`` is the number of inserts that
were records (R_n), ``size`` the current antichain size (r_n).

Users: ``run_stream`` and ``simulate_trajectory`` fold single streams; the
batched maxima kernel ``simulate._fold_streams`` feeds them only the points
its prefilter cannot rule out on long streams. :func:`records_bruteforce`
is the oracle for all.

``_dominates`` is the one vectorized weak-dominance test of the Monte Carlo
code: the indicator estimator (``simulate.estimate_record_prob``), the
all-pairs tiles (``simulate._tile_counts``), the prefilter's frontier test
(``simulate._dominated``), the concomitant record side
(``simulate._count_records``) and ``ordering.check_p2_bound`` all call it.
``records_bruteforce`` keeps its own loop, so the oracle shares no code with
what it checks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError
from .model import _require_int

__all__ = [
    "Frontier2D",
    "GenericFrontier",
    "RecordOutcome",
    "StreamResult",
    "make_frontier",
    "records_bruteforce",
    "run_stream",
]


class RecordOutcome(NamedTuple):
    """Result of one insertion: record flag and number of maxima it broke."""

    is_record: bool
    broken: int


class StreamResult(NamedTuple):
    """Fold of a whole stream: per-step outcomes plus final (R_n, r_n)."""

    outcomes: list[RecordOutcome]
    records_total: int
    maxima_count: int


class GenericFrontier:
    """Frontier for any dimension; linear scan over a compact point array."""

    __slots__ = ("d", "records_total", "_buf", "_size")

    def __init__(self, d: int):
        self.d = _require_int(d, 1, "d")
        self.records_total = 0
        self._buf = np.empty((16, self.d))
        self._size = 0

    @property
    def size(self) -> int:
        return self._size

    @property
    def maxima(self) -> np.ndarray:
        """Current maxima as a (size, d) array (copy)."""
        return self._buf[: self._size].copy()

    def insert(self, x) -> RecordOutcome:
        xv = np.asarray(x, dtype=np.float64)
        if xv.shape != (self.d,):
            raise DimensionMismatchError(f"expected shape ({self.d},), got {xv.shape}")
        m = self._size
        pts = self._buf[:m]
        if m:
            if bool(np.all(pts >= xv, axis=1).any()):
                return RecordOutcome(False, 0)
            beaten = np.all(pts <= xv, axis=1)
            broken = int(beaten.sum())
            if broken:
                kept = pts[~beaten]
                m = kept.shape[0]
                self._buf[:m] = kept
        else:
            broken = 0
        if m == self._buf.shape[0]:
            grown = np.empty((2 * m, self.d))
            grown[:m] = self._buf[:m]
            self._buf = grown
        self._buf[m] = xv
        self._size = m + 1
        self.records_total += 1
        return RecordOutcome(True, broken)


class Frontier2D:
    """Planar frontier as parallel sorted lists (x ascending, y descending)."""

    __slots__ = ("records_total", "_xs", "_ys")

    d = 2

    def __init__(self):
        self.records_total = 0
        self._xs: list[float] = []
        self._ys: list[float] = []

    @property
    def size(self) -> int:
        return len(self._xs)

    @property
    def maxima(self) -> np.ndarray:
        return np.column_stack((self._xs, self._ys)) if self._xs else np.empty((0, 2))

    def insert(self, x) -> RecordOutcome:
        xv = np.asarray(x, dtype=np.float64)
        if xv.shape != (2,):
            raise DimensionMismatchError(f"expected shape (2,), got {xv.shape}")
        rec, broken = self._insert_xy(float(xv[0]), float(xv[1]))
        return RecordOutcome(rec, broken)

    def _insert_xy(self, x: float, y: float) -> tuple[bool, int]:
        # Hot path used by the simulators; plain floats, tuple return.
        xs = self._xs
        ys = self._ys
        lo = bisect_left(xs, x)
        # Points at index >= lo have first coordinate >= x; their largest
        # second coordinate is ys[lo], so that single probe decides dominance.
        if lo < len(xs) and ys[lo] >= y:
            return False, 0
        hi = bisect_right(xs, x, lo)
        # Maxima dominated by (x, y) occupy a contiguous block [j, hi):
        # first coordinate <= x and second <= y, with ys descending.
        a, b = 0, hi
        while a < b:
            mid = (a + b) // 2
            if ys[mid] <= y:
                b = mid
            else:
                a = mid + 1
        j = a
        broken = hi - j
        if broken:
            del xs[j:hi]
            del ys[j:hi]
        xs.insert(j, x)
        ys.insert(j, y)
        self.records_total += 1
        return True, broken


def _dominates(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mask of "x[q] >= y[q] for every q": x weakly dominates y.

    The coordinate is the first axis of both arrays; the rest broadcast
    against each other. The mask is built one coordinate at a time, so no
    broadcast temporary with a coordinate axis is formed.
    """
    dom = x[0] >= y[0]
    for q in range(1, len(x)):
        dom &= x[q] >= y[q]
    return dom


def make_frontier(d: int):
    """Pick the structure suited to the dimension (sorted lists for d = 2)."""
    return Frontier2D() if d == 2 else GenericFrontier(d)


def _as_stream(observations) -> np.ndarray:
    # An (n, d) float array of the observations; a 1-D sequence is n points of dimension 1.
    obs = np.asarray(observations, dtype=np.float64)
    if obs.ndim == 1:
        obs = obs[:, None]
    if obs.ndim != 2 or obs.shape[0] == 0:
        raise InvalidParameterError(f"observations must form a nonempty (n, d) array, got shape {obs.shape}")
    return obs


def run_stream(observations, frontier=None) -> StreamResult:
    """Insert every observation in order; return per-step outcomes and totals.

    ``observations`` is an (n, d) array or a sequence of length-d vectors,
    all of one dimension. A caller-supplied ``frontier`` lets streams resume.
    """
    obs = _as_stream(observations)
    if frontier is None:
        frontier = make_frontier(obs.shape[1])
    elif frontier.d != obs.shape[1]:
        raise DimensionMismatchError(f"frontier dimension {frontier.d} != stream dimension {obs.shape[1]}")
    outcomes = [frontier.insert(row) for row in obs]
    return StreamResult(outcomes, frontier.records_total, frontier.size)


def records_bruteforce(observations) -> tuple[np.ndarray, int]:
    """O(n^2) oracle: per-step record indicators and the final maxima count.

    Checks every new point against *all* predecessors (not just the
    frontier), which makes it the reference the incremental structures are
    validated against.
    """
    obs = _as_stream(observations)
    # dom[i, j] == True iff point i weakly dominates point j; built one
    # coordinate at a time, so no (n, n, d) array is formed.
    dom = obs[:, None, 0] >= obs[None, :, 0]
    for q in range(1, obs.shape[1]):
        dom &= obs[:, None, q] >= obs[None, :, q]
    np.fill_diagonal(dom, False)
    earlier = np.triu(dom, k=1)  # rows i < columns j
    is_record = ~earlier.any(axis=0)
    # Duplicates dominate both ways; drop later-copy -> earlier-copy edges so
    # the first copy counts as the surviving maximum, matching the
    # incremental structures.
    dup = dom & dom.T
    dom_kept = dom & ~np.tril(dup, k=-1)
    r_n = int((~dom_kept.any(axis=0)).sum())
    return is_record, r_n
