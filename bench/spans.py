"""Per-layer spans for the traced mode, recorded from outside the program.

Each layer is timed by replacing a public name in the module that looks it
up (``paretorecords.cli``, ``.simulate`` or ``.ordering``) with a wrapper
that records a span: name, start, end, parent span and thread. The thread
pool that ``simulate`` creates is replaced the same way, so every chunk job
becomes a span whose parent is the estimator or fold that submitted it.
Spans stay in memory until the run ends.

A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

# (module, public name) -> span name. Every layer is wrapped where the
# calling module looks the name up, so the program itself is untouched.
LAYERS = {
    ("cli", "emit_rows"): "cli.emit",
    ("cli", "estimate_record_prob"): "simulate.estimator",
    ("cli", "estimate_record_prob_survival"): "simulate.estimator",
    ("simulate", "estimate_record_prob"): "simulate.estimator",
    ("simulate", "estimate_record_prob_survival"): "simulate.estimator",
    ("cli", "estimate_maxima"): "simulate.fold",
    ("cli", "concomitant_check"): "simulate.fold",
    ("simulate", "concomitant_records"): "simulate.concomitant_records",
    ("simulate", "sample_observations"): "samplers",
    ("ordering", "sample_observations"): "samplers",
    ("simulate", "survival"): "exact.survival",
    ("ordering", "survival"): "exact.survival",
    ("cli", "check_record_order"): "ordering.record_order",
    ("cli", "check_nuod"): "ordering.nuod",
    ("cli", "default_probe_grid"): "ordering.nuod",
    ("cli", "check_p2_bound"): "ordering.p2",
}

# Value functions of the exact layer, named by the route the program takes
# by default: the float alternating sum for n <= 30 and quadrature beyond
# for the two families, the float Roman recurrence for p*, rationals else.
EXACT = {
    ("cli", "pn_marginal_dirichlet"): None,
    ("cli", "pn_scale_mixture"): None,
    ("simulate", "pn_marginal_dirichlet"): None,
    ("simulate", "pn_scale_mixture"): None,
    ("cli", "pn_independent"): "exact.roman",
    ("simulate", "pn_independent"): "exact.roman",
    ("cli", "pn_independent_exact"): "exact.rational",
    ("cli", "roman_harmonic"): "exact.rational",
}
ALTSUM_MAX_N = 30

UNITS = {
    "samplers.busy_s": "s",
    "samplers.obs_per_s": "1/s",
    "samplers.calls": "count",
    "simulate.estimator_self_s": "s",
    "simulate.parallel_eff": "ratio",
    "simulate.fold_self_s": "s",
    "simulate.fold_ns_per_obs": "ns",
    "simulate.concomitant_records_s": "s",
    "frontier.insert_us_2d": "us",
    "frontier.insert_us_nd": "us",
    "exact.survival_s": "s",
    "exact.altsum_s": "s",
    "exact.quadrature_s": "s",
    "exact.roman_s": "s",
    "exact.rational_s": "s",
    "exact.cold_fill_s": "s",
    "exact.peak_alloc_mb": "MB",
    "exact.evals": "count",
    "exact.failed_evals": "count",
    "ordering.record_order_s": "s",
    "ordering.nuod_s": "s",
    "ordering.p2_s": "s",
    "ordering.nuod_peak_alloc_mb": "MB",
    "cli.self_s": "s",
    "cli.emit_s": "s",
    "trace.overhead_frac": "ratio",
}


def _exact_route(fixed, args) -> str:
    if fixed is not None:
        return fixed
    return "exact.altsum" if args[0] <= ALTSUM_MAX_N else "exact.quadrature"


def _span_attrs(name: str, args) -> dict:
    # Work counts read off the arguments at the layer boundary.
    if name == "samplers":
        return {"obs": int(args[1])}
    if name == "simulate.fold":
        if len(args) == 1:  # estimate_maxima(config)
            return {"obs": args[0].reps * args[0].n}
        return {"obs": int(args[1]) * int(args[2])}  # concomitant_check(spec, n, reps)
    return {}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, span_id, name, parent, attrs):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.attrs = attrs
        self.start = time.perf_counter()
        self.end = None

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "thread": self.thread, **self.attrs,
        }


class Tracer:
    """Collects spans, thread-pool lifetimes and cold-fill times."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pools: list[tuple[float, float, int]] = []
        self.cold_fill_s = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent="current", **attrs):
        stack = self._stack()
        if parent == "current":
            parent = stack[-1] if stack else None
        s = Span(next(self._ids), name, parent, attrs)
        stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            self.spans.append(s)

    def take(self) -> tuple[list[Span], list, float]:
        """Hand over what was recorded so far and start afresh."""
        out = (self.spans, self.pools, self.cold_fill_s)
        self.spans, self.pools, self.cold_fill_s = [], [], 0.0
        return out

    # -- installation -------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the layer names in freshly imported program modules."""
        for (mod, attr), name in LAYERS.items():
            setattr(modules[mod], attr, self._wrap(getattr(modules[mod], attr), name))
        for (mod, attr), fixed in EXACT.items():
            setattr(modules[mod], attr, self._wrap_exact(getattr(modules[mod], attr), fixed))
        modules["simulate"].ThreadPoolExecutor = self._pool_class()

    def _wrap(self, fn, name):
        def wrapper(*args, **kwargs):
            with self.span(name, **_span_attrs(name, args)):
                return fn(*args, **kwargs)

        return wrapper

    def _wrap_exact(self, fn, fixed):
        # The span times the call as the program makes it; an identical
        # repeat right after it, outside the span, shows what part of the
        # first call was cache filling.
        def wrapper(*args, **kwargs):
            with self.span(_exact_route(fixed, args)):
                t0 = time.perf_counter()
                value = fn(*args, **kwargs)
                first = time.perf_counter() - t0
            t0 = time.perf_counter()
            fn(*args, **kwargs)
            self.cold_fill_s += first - (time.perf_counter() - t0)
            return value

        return wrapper

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._traced_start = time.perf_counter()

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def chunk():
                    with tracer.span("simulate.chunk", parent=parent):
                        return fn(*args, **kwargs)

                return super().submit(chunk)

            def shutdown(self, wait=True, **kwargs):
                super().shutdown(wait=wait, **kwargs)
                tracer.pools.append((self._traced_start, time.perf_counter(), self._max_workers))

        return TracedPool


class AllocProbe:
    """Peak traced allocation of exact-layer calls and of ``check_nuod``.

    tracemalloc runs only inside the wrapped calls, so the rest of the
    round runs at full speed.
    """

    def __init__(self):
        self.peak = {"exact": 0, "nuod": 0}

    def install(self, modules: dict) -> None:
        for mod, attr in EXACT:
            setattr(modules[mod], attr, self._wrap(getattr(modules[mod], attr), "exact"))
        modules["cli"].check_nuod = self._wrap(modules["cli"].check_nuod, "nuod")

    def _wrap(self, fn, group):
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak[group] = max(self.peak[group], peak)

        return wrapper


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end) for s in spans
    }


def round_metrics(spans: list[Span], cold_fill_s: float) -> dict[str, float]:
    """Per-layer figures of one traced round."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}

    def total(name, self_only=False):
        return sum(own[s.id] if self_only else s.end - s.start for s in spans if s.name == name)

    def with_chunks(name):
        # Self time of the spans plus that of the chunk jobs they submitted.
        chunks = sum(
            own[s.id] for s in spans
            if s.name == "simulate.chunk" and s.parent in by_id and by_id[s.parent].name == name
        )
        return total(name, self_only=True) + chunks

    samplers = [s for s in spans if s.name == "samplers"]
    sample_busy = sum(s.end - s.start for s in samplers)
    sample_obs = sum(s.attrs["obs"] for s in samplers)
    fold_self = with_chunks("simulate.fold")
    fold_obs = sum(s.attrs["obs"] for s in spans if s.name == "simulate.fold")
    routes = ("exact.altsum", "exact.quadrature", "exact.roman", "exact.rational")
    return {
        "samplers.busy_s": sample_busy,
        "samplers.obs_per_s": sample_obs / sample_busy if sample_busy else 0.0,
        "samplers.calls": len(samplers),
        "simulate.estimator_self_s": with_chunks("simulate.estimator"),
        "simulate.fold_self_s": fold_self,
        "simulate.fold_ns_per_obs": 1e9 * fold_self / fold_obs if fold_obs else 0.0,
        "simulate.concomitant_records_s": total("simulate.concomitant_records"),
        "exact.survival_s": total("exact.survival"),
        "exact.altsum_s": total("exact.altsum"),
        "exact.quadrature_s": total("exact.quadrature"),
        "exact.roman_s": total("exact.roman"),
        "exact.rational_s": total("exact.rational"),
        "exact.cold_fill_s": cold_fill_s,
        "exact.evals": sum(1 for s in spans if s.name in routes),
        "ordering.record_order_s": total("ordering.record_order", self_only=True),
        "ordering.nuod_s": total("ordering.nuod", self_only=True),
        "ordering.p2_s": total("ordering.p2", self_only=True),
        "cli.self_s": total("cli.main", self_only=True),
        "cli.emit_s": total("cli.emit"),
    }


def fold_layers_s(spans: list[Span]) -> float:
    """Sampling, fold self, concomitant_records and survival time inside fold commands."""
    own = self_times(spans)
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def below(span_id):
        for c in children.get(span_id, []):
            yield c
            yield from below(c.id)

    total = 0.0
    for main in (s for s in spans if s.name == "cli.main"):
        inner = list(below(main.id))
        if any(s.name == "simulate.fold" for s in inner):
            total += sum(own[s.id] for s in inner if s.name in ("simulate.fold", "simulate.chunk"))
            total += sum(s.end - s.start for s in inner
                         if s.name in ("samplers", "simulate.concomitant_records", "exact.survival"))
    return total


def parallel_efficiency(spans: list[Span], pools: list) -> float:
    """Chunk-job busy time over pool lifetime times workers; 1 when no pool ran."""
    chunk_busy = sum(s.end - s.start for s in spans if s.name == "simulate.chunk")
    pool_capacity = sum((end - start) * workers for start, end, workers in pools)
    return chunk_busy / pool_capacity if pool_capacity else 1.0


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
