"""The two workloads: the CLI operations of one round, and their checks.

A round is a fixed list of ``pareto-records`` commands built from the
workload seed; a run repeats the same round, so every run attempts whole
rounds of the same operations. Each operation carries its work units and a
check of the rows it wrote. Checks compare against ``oracle`` (computed
apart from the program) and against properties the method must have; they
never compare with a saved copy of earlier output.

Parameters that set an operation's cost (n, d, replicate counts, and the
family parameter a where frontier sizes depend on it) are fixed per slot,
so a run's timings do not depend on which seed it got; the seed draws the
Monte Carlo seeds and the remaining parameters.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import oracle

#: Relative tolerance for every float the exact layer returns.
REL_TOL = 1e-6
#: Monte Carlo estimates must lie within this many standard errors.
SE_LIMIT = 5.0
#: Significance level passed to ``check --check concomitant``.
ALPHA = 1e-6

# Points where the default pn_marginal_dirichlet (quadrature for n > 30)
# under-resolves the integrand at small a; measured relative errors against
# the mpmath oracle are 4e-5 to 7e-4, far above REL_TOL.
DIR_QUADRATURE_FAULTS = [
    (31, 2, 1e-3),
    (100, 3, 1e-3),
    (1000, 4, 1e-2),
    (10_000, 5, 1e-3),
    (100_000, 6, 1e-3),
    (1_000_000, 2, 1e-2),
    (1_000_000, 3, 1e-3),
]
DIR_FAULT_REASON = "exact._pn_quadrature under-resolves the dir integrand at small a"
# Away from those points the same route meets REL_TOL with a wide margin
# (worst measured: 6e-8) when a >= 0.3.
DIR_QUADRATURE_MIN_A = 0.3
#: Grid points of each of the two n = 30 sweeps that give the float
#: alternating sum its share of an ``exact-eval`` round.
ALTSUM_SWEEP_STEPS = 8000


@dataclass
class Op:
    argv: list[str]
    work: int  # observations drawn (Monte Carlo) or values returned (exact)
    check: Callable[[list[dict]], list[str]]
    spec: dict | None = None  # distribution sampled, for the frontier probe
    n: int = 0
    known_fault: str | None = None  # why this operation fails its check today
    rerun_workers: bool = False  # compare with a rerun at more workers
    fold: bool = False  # a maxima or concomitant command


def parse_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _one(rows: list[dict]) -> dict:
    if len(rows) != 1:
        raise ValueError(f"expected one row, got {len(rows)}")
    return rows[0]


def _close(value: float, ref: float, what: str) -> list[str]:
    if math.isclose(value, ref, rel_tol=REL_TOL, abs_tol=0.0):
        return []
    return [f"{what}: {value!r} vs reference {ref!r} (relative error {abs(value - ref) / abs(ref):.1e})"]


def _bhatia_davis_se(mean: float, lo: float, hi: float, reps: int) -> float:
    """Largest SE of a mean of ``reps`` draws in [lo, hi] with this mean."""
    return math.sqrt(max((hi - mean) * (mean - lo), 0.0) / reps)


def _within_se(est: float, ref: float, se: float, what: str) -> list[str]:
    if abs(est - ref) <= SE_LIMIT * se + 1e-12:
        return []
    return [f"{what}: estimate {est!r} is {abs(est - ref) / se:.1f} SE from {ref!r}"]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _spec_args(spec: dict) -> list[str]:
    family = spec["family"]
    if family == "mixture":
        return ["--spec", json.dumps(spec)]
    if family == "dirichlet":
        return ["--family", family, "--b", ",".join(repr(v) for v in spec["b"])]
    args = ["--family", family, "--d", str(spec["d"])]
    if "a" in spec:
        args += ["--a", repr(spec["a"])]
    return args


def _dim(spec: dict) -> int:
    return len(spec["b"]) if spec["family"] == "dirichlet" else spec.get("d") or _dim(spec["first"])


def _truth_pn(spec: dict, n: int) -> float:
    if spec["family"] == "mixture":
        first, second = spec["first"], spec["second"]
        return oracle.pn_mixture_iid_dir(n, first["d"], second["a"], spec["q"])
    return oracle.pn(spec["family"], n, _dim(spec), spec.get("a"))


# ---------------------------------------------------------------------------
# Monte Carlo operations
# ---------------------------------------------------------------------------


def simulate_pn(spec, n, reps, estimator, seed) -> Op:
    argv = ["simulate", *_spec_args(spec), "--n", str(n), "--reps", str(reps),
            "--seed", str(seed), "--workers", "1", "--estimator", estimator]

    def check(rows):
        row = _one(rows)
        est, se = float(row["estimate"]), float(row["std_error"])
        p = _truth_pn(spec, n)
        if spec["family"] == "dirichlet":
            # A full Dirichlet sample is an antichain: every point is a record.
            return [] if est == 1.0 else [f"full Dirichlet p_{n} estimate {est!r} != 1"]
        # The SE of the truth, not the program's: the indicator is Bernoulli(p_n),
        # and Var (1 - W)^(n-1) = E (1 - W)^(2n-2) - p_n^2 = p_{2n-1} - p_n^2.
        if estimator == "indicator":
            se = math.sqrt(p * (1.0 - p) / reps)
        else:
            se = math.sqrt((_truth_pn(spec, 2 * n - 1) - p * p) / reps)
        return _within_se(est, p, se, f"{spec['family']} p_{n}")

    work = reps * n if estimator == "indicator" else reps
    return Op(argv, work, check, spec, n)


def maxima(spec, n, reps, seed) -> Op:
    argv = ["simulate", *_spec_args(spec), "--n", str(n), "--reps", str(reps),
            "--seed", str(seed), "--workers", "1", "--estimand", "maxima"]
    d, a = _dim(spec), spec.get("a")

    def check(rows):
        got = {row["estimand"]: (float(row["estimate"]), float(row["std_error"])) for row in rows}
        if set(got) != {"records_mean", "maxima_mean"}:
            return [f"unexpected estimands {sorted(got)}"]
        # E r_n = n p_n, and E R_n = sum_{j<=n} p_j. Both counts lie in [1, n],
        # so their SE is at most the Bhatia-Davis bound at the true mean; the
        # program's SE is used only below that bound.
        problems = []
        for name, what, mean in (("maxima_mean", f"E r_{n}", n * oracle.pn(spec["family"], n, d, a)),
                                 ("records_mean", f"E R_{n}", oracle.records_mean(spec["family"], n, d, a))):
            est, se = got[name]
            problems += _within_se(est, mean, min(se, _bhatia_davis_se(mean, 1.0, n, reps)), what)
        return problems

    return Op(argv, reps * n, check, spec, n, fold=True)


def concomitant(spec, n, reps, seed) -> Op:
    argv = ["check", "--check", "concomitant", *_spec_args(spec), "--n", str(n),
            "--reps", str(reps), "--seed", str(seed), "--workers", "1", "--alpha", repr(ALPHA)]

    def check(rows):
        row = _one(rows)
        if row["verdict"] != "pass" or float(row["pvalue"]) < ALPHA:
            return [f"concomitant p-value {row['pvalue']} below alpha {ALPHA}"]
        return []

    # Both sides of the identity draw and process reps * n observations.
    return Op(argv, 2 * reps * n, check, spec, n, fold=True)


def rp_order(first, second, samples, seed, expected) -> Op:
    argv = ["check", "--check", "rp-order", *_spec_args(first), "--family2", second["family"],
            "--d2", str(second["d"]), "--samples", str(samples), "--seed", str(seed)]

    def check(rows):
        row = _one(rows)
        if row["direction"] != expected or row["verdict"] != "pass":
            return [f"rp-order {first['family']} vs {second['family']}: {row['direction']}, expected {expected}"]
        return []

    return Op(argv, 2 * samples, check, first, 2)


def p2(spec, samples, seed) -> Op:
    argv = ["check", "--check", "p2", *_spec_args(spec), "--samples", str(samples), "--seed", str(seed)]

    def check(rows):
        row = _one(rows)
        est, p = float(row["estimate"]), _truth_pn(spec, 2)
        problems = _within_se(est, p, math.sqrt(p * (1.0 - p) / samples), f"{spec['family']} p_2")
        bound = 1.0 - 2.0 ** -spec["d"]
        problems += _close(float(row["bound"]), bound, "p_2 independence bound")
        if row["verdict"] != "pass":
            problems.append(f"p2 verdict {row['verdict']}")
        return problems

    return Op(argv, 2 * samples, check, spec, 2)


def nuod(spec, samples, seed) -> Op:
    argv = ["check", "--check", "nuod", *_spec_args(spec), "--samples", str(samples), "--seed", str(seed)]

    def check(rows):
        row = _one(rows)
        problems = [] if row["verdict"] == "pass" else [f"dir is NUOD, verdict {row['verdict']}"]
        if int(row["probes"]) != 3 ** spec["d"]:
            problems.append(f"expected {3 ** spec['d']} probes, got {row['probes']}")
        return problems

    # The default probe grid draws a 4096-observation pilot first.
    return Op(argv, samples + 4096, check, spec, 2)


def _monte_carlo(seed: int) -> list[Op]:
    rng = random.Random(seed)

    def mc_seed():
        return rng.randrange(2**32)

    def fam(family, d):
        spec = {"family": family, "d": d}
        if family in ("dir", "pa"):
            spec["a"] = round(_log_uniform(rng, 1.1, 4.0), 6)
        return spec

    ops = []
    # Indicator runs draw about 1e6 observations each, survival runs 4e5.
    for family, d, n in [("iid-exp", 2, 50), ("iid-exp", 3, 5), ("iid-exp", 4, 20),
                         ("dir", 2, 2), ("dir", 3, 30), ("dir", 4, 10),
                         ("pa", 2, 20), ("pa", 3, 2), ("pa", 4, 50)]:
        spec = fam(family, d)
        ops.append(simulate_pn(spec, n, 1_000_000 // n, "indicator", mc_seed()))
        ops.append(simulate_pn(spec, n, 400_000, "survival", mc_seed()))
    ops[-2].rerun_workers = ops[-1].rerun_workers = True
    b = [round(rng.uniform(0.5, 3.0), 4) for _ in range(3)]
    ops.append(simulate_pn({"family": "dirichlet", "b": b}, 20, 25_000, "indicator", mc_seed()))
    como = {"family": "comonotone", "d": 3}
    ops.append(simulate_pn(como, 20, 25_000, "indicator", mc_seed()))
    ops.append(simulate_pn(como, 20, 400_000, "survival", mc_seed()))
    mix = {"family": "mixture", "q": round(rng.uniform(0.2, 0.8), 4),
           "first": {"family": "iid-exp", "d": 3}, "second": fam("dir", 3)}
    ops.append(simulate_pn(mix, 10, 50_000, "indicator", mc_seed()))
    d = rng.choice([2, 3, 4])
    iid = {"family": "iid-exp", "d": d}
    ops.append(rp_order(fam("dir", d), iid, 100_000, mc_seed(), "second-stochastically-geq-first"))
    ops.append(rp_order(fam("pa", d), iid, 100_000, mc_seed(), "first-stochastically-geq-second"))
    for family in ("iid-exp", "dir", "pa"):
        ops.append(p2(fam(family, rng.choice([2, 3, 4, 5])), 200_000, mc_seed()))
    ops.append(nuod(fam("dir", 5), 40_000, mc_seed()))
    return ops + _folds(rng)


# Maxima and concomitant counts on one thread, in the two regimes of Bentley,
# Kung, Schkolnick & Thompson (JACM 1978): at d >= 3 the frontiers stay small
# and GenericFrontier's per-point Python fold dominates; at d = 2 and large n
# Frontier2D holds sqrt(n)-size frontiers and the concomitant side is a sort
# and running max. Slots: (command, family, d, n, observations per side).
_FOLD_SLOTS = [
    ("maxima", "iid-exp", 3, 30, 10_500), ("maxima", "dir", 3, 100, 10_000),
    ("maxima", "pa", 4, 30, 10_500), ("maxima", "iid-exp", 4, 100, 10_000),
    ("concomitant", "dir", 3, 30, 7_500), ("concomitant", "pa", 3, 100, 7_500),
    ("concomitant", "iid-exp", 4, 30, 4_500), ("concomitant", "dir", 4, 100, 4_500),
    ("maxima", "iid-exp", 2, 10_000, 200_000), ("maxima", "dir", 2, 1_000, 200_000),
    ("maxima", "pa", 2, 10_000, 200_000),
    ("concomitant", "iid-exp", 2, 1_000, 200_000), ("concomitant", "dir", 2, 10_000, 200_000),
    ("concomitant", "pa", 2, 1_000, 200_000),
]
# Fixed per slot: the fold's cost follows the frontier size, which moves with a.
_FOLD_SPECS = {
    "iid-exp": lambda d: {"family": "iid-exp", "d": d},
    "dir": lambda d: {"family": "dir", "d": d, "a": 1.5},
    "pa": lambda d: {"family": "pa", "d": d, "a": 2.0},
}


def _folds(rng: random.Random) -> list[Op]:
    ops = []
    for kind, family, d, n, obs in _FOLD_SLOTS:
        spec = _FOLD_SPECS[family](d)
        make = maxima if kind == "maxima" else concomitant
        ops.append(make(spec, n, obs // n, rng.randrange(2**32)))
    return ops


# ---------------------------------------------------------------------------
# Exact operations
# ---------------------------------------------------------------------------


def exact_family(formula: str, n: int, d: int, a: float, known_fault: str | None = None) -> Op:
    family = "dir" if formula == "pdir" else "pa"
    argv = ["exact", "--formula", formula, "--n", str(n), "--d", str(d), "--a", repr(a)]

    def check(rows):
        value = float(_one(rows)["value"])
        problems = _close(value, oracle.pn_family(n, d, a, family), f"{formula}({n}, {d}, {a})")
        return problems + _sandwich(family, n, d, [value])

    return Op(argv, 1, check, {"family": family, "d": d, "a": a}, min(n, 1000), known_fault)


def _sandwich(family: str, n: int, d: int, values: list[float]) -> list[str]:
    # 1/n < p_pa < p* < p_dir < 1 for every a (n >= 2).
    if n < 2:
        return []
    star = oracle.pstar(n, d)
    lo, hi = (star, 1.0) if family == "dir" else (1.0 / n, star)
    bad = [v for v in values if not lo < v < hi]
    return [f"{family} values {bad} outside ({lo!r}, {hi!r})"] if bad else []


def exact_pstar(n: int, d: int, rational: bool) -> Op:
    argv = ["exact", "--formula", "pstar", "--n", str(n), "--d", str(d)] + (["--rational"] if rational else [])

    def check(rows):
        row = _one(rows)
        problems = _close(float(row["value"]), oracle.pstar(n, d), f"pstar({n}, {d})")
        if rational:
            ref = oracle.pstar_rational(n, d)
            if (int(row["numerator"]), int(row["denominator"])) != (ref.numerator, ref.denominator):
                problems.append(f"pstar({n}, {d}) rational differs from H_n^(d-1)/n")
        return problems

    return Op(argv, 1, check)


def exact_roman(n: int, k: int, rational: bool) -> Op:
    argv = ["exact", "--formula", "roman", "--n", str(n), "--k", str(k)] + (["--rational"] if rational else [])

    def check(rows):
        row = _one(rows)
        ref = oracle.roman_rational(n, k)
        problems = _close(float(row["value"]), float(ref), f"H_{n}^({k})")
        if rational and (int(row["numerator"]), int(row["denominator"])) != (ref.numerator, ref.denominator):
            problems.append(f"H_{n}^({k}) rational differs")
        return problems

    return Op(argv, 1, check)


def sweep(family: str, lo: float, hi: float, steps: int, n: int, d: int) -> Op:
    argv = ["sweep", "--family", family, "--a-grid", f"{lo!r}:{hi!r}:{steps}", "--n", str(n), "--d", str(d)]

    def check(rows):
        if len(rows) != steps:
            return [f"sweep returned {len(rows)} rows, expected {steps}"]
        problems = [f"sweep row error {row['error']}" for row in rows if row["error"]]
        rows = [row for row in rows if not row["error"]]
        grid = [float(row["a"]) for row in rows]
        values = [float(row["exact"]) for row in rows]
        for a, value, ref in zip(grid, values, oracle.pn_family_grid(n, d, grid, family)):
            problems += _close(value, ref, f"sweep {family}({n}, {d}, {a})")
        # p_n falls with a for dir and rises with a for pa.
        sign = -1 if family == "dir" else 1
        if any(sign * (b - a) <= 0 for a, b in zip(values, values[1:])):
            problems.append(f"sweep {family} n={n} d={d} not strictly monotone in a")
        return problems + _sandwich(family, n, d, values)

    return Op(argv, steps, check)


def limits(family: str, n: int, d: int) -> Op:
    argv = ["check", "--check", "limits", "--family", family, "--d", str(d), "--n", str(n)]

    def check(rows):
        row = _one(rows)
        problems = _close(float(row["p_at_a_0.001"]), oracle.pn_family(n, d, 1e-3, family), "p at a=1e-3")
        problems += _close(float(row["p_at_a_1000"]), oracle.pn_family(n, d, 1e3, family), "p at a=1e3")
        problems += _close(float(row["large_a_target"]), oracle.pstar(n, d), "p*")
        if row["verdict"] != "pass":
            problems.append(f"limits verdict {row['verdict']}")
        return problems

    return Op(argv, 3, check)


def _exact_eval(seed: int) -> list[Op]:
    rng = random.Random(seed)

    def big_n():
        return int(round(10 ** rng.uniform(math.log10(31), 6)))

    def dd():
        return rng.randint(2, 6)

    ops = [exact_family("pdir", n, d, a, DIR_FAULT_REASON) for n, d, a in DIR_QUADRATURE_FAULTS]
    for _ in range(12):  # quadrature route
        ops.append(exact_family("pdir", big_n(), dd(), _log_uniform(rng, DIR_QUADRATURE_MIN_A, 1e3)))
        ops.append(exact_family("ppa", big_n(), dd(), _log_uniform(rng, 1e-3, 1e3)))
    for _ in range(20):  # float alternating sum
        for formula in ("pdir", "ppa"):
            ops.append(exact_family(formula, rng.randint(2, 30), dd(), _log_uniform(rng, 1e-3, 1e3)))
    # Float sums in bulk: long a-grids at n = 30, where each value costs most.
    for family, d in (("dir", 5), ("pa", 6)):
        ops.append(sweep(family, _log_uniform(rng, 1e-3, 2e-3), _log_uniform(rng, 5e2, 1e3),
                         ALTSUM_SWEEP_STEPS, 30, d))
    # Float Roman recurrence: the large columns first, then lookups into them.
    ops += [exact_pstar(1_500_000, 4, False), exact_pstar(400_000, 6, False)]
    ops += [exact_pstar(rng.randint(2, 10_000), dd(), False) for _ in range(6)]
    # Rationals: the large columns first, then lookups and small sums.
    ops += [exact_roman(4000, 2, True), exact_roman(2000, 3, False),
            exact_pstar(1200, 5, True), exact_pstar(500, 6, True)]
    for _ in range(6):
        ops.append(exact_roman(rng.randint(2, 60), rng.randint(0, 5), rng.random() < 0.5))
        ops.append(exact_pstar(rng.randint(2, 60), dd(), True))
    ops += [
        sweep("dir", 1e-3, 1e3, 13, rng.randint(2, 30), dd()),
        sweep("dir", DIR_QUADRATURE_MIN_A, 1e3, 13, big_n(), dd()),
        sweep("pa", 1e-3, 1e3, 13, rng.randint(2, 30), dd()),
        sweep("pa", 1e-3, 1e3, 13, big_n(), dd()),
        # The dir limits check evaluates p_n at a = 1e-3, which for n > 30
        # is the quadrature fault above; it runs at n <= 30 so that fault is
        # counted once per point, in the pdir operations. Its fixed gaps
        # (2e-2 at a = 1e-3, 1e-3 at a = 1e3) flag correct values as a
        # violation for dir at d >= 5 and for pa at d >= 4, so d stays below.
        limits("dir", rng.randint(2, 30), rng.randint(2, 4)),
        limits("pa", big_n(), rng.randint(2, 3)),
    ]
    return ops


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "monte-carlo": _monte_carlo,
    "exact-eval": _exact_eval,
}


def build(name: str, seed: int) -> list[Op]:
    return WORKLOADS[name](seed)
