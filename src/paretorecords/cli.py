"""Command-line interface: exact values, simulation, sweeps, property checks.

Subcommands
-----------
* ``exact``     -- closed-form record probabilities and Roman harmonics.
* ``simulate``  -- Monte Carlo estimates with reproducible seeds.
* ``sweep``     -- parameter grids combining exact values and estimates.
* ``check``     -- ordering / dependence / limit property checks.

Exit codes: 0 success, 2 usage error, 3 invalid parameter or spec,
4 partial failure (some sweep rows failed), 5 property violation.

Output goes to stdout or ``--out-file`` as CSV (RFC 4180, floats with 12
significant digits) or JSON lines (one object per row, native numbers).
Every row carries ``schema_version``, the command name and the seed, so any
number is traceable to (command, params, seed). Timing is reported on
stderr only, keeping machine output byte-identical across reruns and across
``--workers`` settings.

Distribution specs serialize as JSON objects, in the schema documented in
:mod:`paretorecords.model`.

The default seed is 0; the environment variable ``RECORDS_SEED`` overrides
it and the ``--seed`` flag wins over both; both are read on every call. The
parser is built once per process, on the first :func:`main` call; handlers
look up evaluators and ``emit_rows`` through module globals when they run.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import fields

import numpy as np

from . import __version__
from .errors import RecordsError
from .exact import (
    pn_independent,
    pn_independent_exact,
    pn_marginal_dirichlet,
    pn_scale_mixture,
    roman_harmonic,
)
from .model import FAMILIES, DistributionSpec, ExperimentConfig, spec_from_json
from .ordering import (
    Direction,
    check_nuod,
    check_p2_bound,
    check_record_order,
    default_probe_grid,
)
from .samplers import make_rng
from .simulate import (
    EXACT_PN,
    concomitant_check,
    estimate_maxima,
    estimate_record_prob,
    estimate_record_prob_survival,
    simulate_trajectory,
    sweep,
)

__all__ = ["main", "spec_from_json"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARAMETER = 3
EXIT_PARTIAL = 4
EXIT_VIOLATION = 5


# ---------------------------------------------------------------------------
# Specs from JSON and from flags
# ---------------------------------------------------------------------------


def _spec_from_flags(text, family, suffix: str = "", **params) -> DistributionSpec:
    # --spec JSON, or --family and one flag per field of it; suffix "2" names rp-order's second set.
    if text:
        return spec_from_json(text)
    if family is None:
        raise RecordsError(f"either --family{suffix} or --spec{suffix} is required")
    if family == "mixture":
        raise RecordsError("mixtures must be given via --spec JSON")
    obj = {"family": family}
    for f in fields(FAMILIES[family]):
        if params.get(f.name) is None:
            raise RecordsError(f"--{f.name}{suffix} is required for family {family}")
        obj[f.name] = params[f.name]
    return spec_from_json(obj)


def _spec_from_args(args) -> DistributionSpec:
    b = [float(v) for v in args.b.split(",")] if args.b else None
    return _spec_from_flags(args.spec, args.family, d=args.d, a=args.a, b=b)


# ---------------------------------------------------------------------------
# Output machinery
# ---------------------------------------------------------------------------


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def emit_rows(const: dict, header, rows, out: str, out_file: str | None) -> None:
    """Write one table as CSV (with header) or JSON lines to stdout or a file.

    ``const`` maps the leading columns, which hold one value in every row,
    to that value; ``header`` names the other columns, and
    each row is a tuple of their values. A CSV cell is ``_format_value`` of
    its value, quoted as RFC 4180 needs; a JSON line keeps the native values.
    """
    if out == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([*const, *header])
        prefix = tuple(map(_format_value, const.values()))
        writer.writerows(prefix + tuple(map(_format_value, row)) for row in rows)
        text = buf.getvalue()
    else:
        lead = list(const.items())
        text = "".join(json.dumps(dict(lead + list(zip(header, row)))) + "\n" for row in rows)
    if out_file:
        with open(out_file, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _lead_columns(command: str, seed: int | None) -> dict:
    # The columns every table starts with; a command that draws nothing has no seed.
    const = {"schema_version": SCHEMA_VERSION, "command": command, "version": __version__}
    if seed is not None:
        const["seed"] = seed
    return const


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_exact(args) -> int:
    formula = args.formula
    row = {"formula": formula, "n": args.n}
    rational = None
    if formula == "roman":
        k = args.k if args.k is not None else 0
        value = roman_harmonic(args.n, k)
        row.update(k=k, value=float(value))
        rational = value if args.rational else None
    elif formula == "pstar":
        if args.d is None:
            raise RecordsError("--d is required for pstar")
        row.update(d=args.d, value=pn_independent(args.n, args.d))
        rational = pn_independent_exact(args.n, args.d) if args.rational else None
    elif formula in ("pdir", "ppa"):
        if args.d is None or args.a is None:
            raise RecordsError(f"--d and --a are required for {formula}")
        if args.rational:
            raise RecordsError("--rational is defined for pstar and roman only")
        fn = pn_marginal_dirichlet if formula == "pdir" else pn_scale_mixture
        row.update(d=args.d, a=args.a, value=fn(args.n, args.d, args.a))
    else:  # pragma: no cover - argparse restricts choices
        raise RecordsError(f"unknown formula {formula!r}")
    if rational is not None:
        row.update(numerator=rational.numerator, denominator=rational.denominator)
    emit_rows(_lead_columns("exact", None), list(row), [tuple(row.values())], args.out, args.out_file)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    spec = _spec_from_args(args)
    seed = _resolve_seed(args)
    t0 = time.perf_counter()
    config = ExperimentConfig(spec, args.n, args.reps, seed, args.workers)
    if args.estimand == "pn":
        estimate_pn = estimate_record_prob_survival if args.estimator == "survival" else estimate_record_prob
        estimates = [("pn", args.estimator, estimate_pn(config))]
    else:
        result = estimate_maxima(config)
        estimates = [("records_mean", "indicator", result.records), ("maxima_mean", "indicator", result.maxima)]
    if args.emit_trajectory:
        _write_trajectory(args.emit_trajectory, config)
    emit_rows(
        {**_lead_columns("simulate", seed), **spec_to_json_flat(spec)},
        ("estimand", "estimator", "n", "reps", "estimate", "std_error"),
        [(estimand, estimator, args.n, args.reps, est.point, est.std_error) for estimand, estimator, est in estimates],
        args.out,
        args.out_file,
    )
    print(f"elapsed {time.perf_counter() - t0:.3f} s", file=sys.stderr)
    return EXIT_OK


def spec_to_json_flat(spec: DistributionSpec) -> dict:
    """Spec fields flattened for tabular output: a spec with nested specs
    (a mixture) as one JSON text, lists as comma-joined reprs."""
    obj = spec.to_json()
    if any(isinstance(v, dict) for v in obj.values()):
        return {"family": obj["family"], "spec": json.dumps(obj)}
    return {k: ",".join(repr(x) for x in v) if isinstance(v, list) else v for k, v in obj.items()}


def _write_trajectory(path: str, config: ExperimentConfig) -> None:
    # One stream (stream index 0), one CSV row per step: step, is_record, broken, r_n.
    result = simulate_trajectory(config.spec, config.n, make_rng(config.seed, 0))
    rows, running = [], 0
    for step, outcome in enumerate(result.outcomes, start=1):
        if outcome.is_record:
            running += 1 - outcome.broken
        rows.append((step, outcome.is_record, outcome.broken, running))
    emit_rows({}, ("step", "is_record", "broken", "maxima_count"), rows, "csv", path)


def _cmd_sweep(args) -> int:
    seed = _resolve_seed(args)
    lo, hi, steps = _parse_grid(args.a_grid)
    grid = np.geomspace(lo, hi, steps)
    if args.with_mc and args.reps < 1:
        raise RecordsError(f"--with-mc needs --reps >= 1, got {args.reps}")
    reps = args.reps if args.with_mc else 0
    t0 = time.perf_counter()
    results = sweep(
        args.family,
        a_values=grid,
        n=args.n,
        d=args.d,
        reps=reps,
        seed=seed,
        workers=args.workers,
        estimator=args.estimator,
    )
    emit_rows(
        {**_lead_columns("sweep", seed), "family": args.family, "n": args.n, "d": args.d},
        ("a", "exact", "mc", "se", "sigma_gap", "error"),
        [(r.a, r.exact, r.estimate, r.std_error, r.sigma_gap, r.error) for r in results],
        args.out,
        args.out_file,
    )
    print(f"elapsed {time.perf_counter() - t0:.3f} s", file=sys.stderr)
    return EXIT_PARTIAL if any(r.error is not None for r in results) else EXIT_OK


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise RecordsError(f"grid must look like lo:hi:steps, got {text!r}")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if not (0 < lo < math.inf and 0 < hi < math.inf) or steps < 1:
        raise RecordsError("grid endpoints must be finite and > 0 (log spacing) and steps >= 1")
    return lo, hi, steps


def _cmd_check(args) -> int:
    seed = _resolve_seed(args)
    kind = args.check
    handler = {
        "rp-order": _check_rp_order,
        "nuod": _check_nuod,
        "p2": _check_p2,
        "concomitant": _check_concomitant,
        "limits": _check_limits,
    }[kind]
    report = handler(args, seed)
    emit_rows(_lead_columns("check", seed), list(report), [tuple(report.values())], args.out, args.out_file)
    return EXIT_OK if report["verdict"] == "pass" else EXIT_VIOLATION


def _check_rp_order(args, seed: int) -> dict:
    spec_first = _spec_from_args(args)
    d2 = args.d2 if args.d2 is not None else args.d
    spec_second = _spec_from_flags(args.spec2, args.family2, "2", d=d2, a=args.a2)
    verdict = check_record_order(spec_first, spec_second, args.samples, make_rng(seed, 0))
    expected = _expected_direction(spec_first, spec_second)
    violated = expected is not None and verdict.direction not in (expected, Direction.INDISTINGUISHABLE)
    return {
        "check": "rp-order",
        "first": json.dumps(spec_first.to_json()),
        "second": json.dumps(spec_second.to_json()),
        "samples": args.samples,
        "direction": verdict.direction.value,
        "statistic": verdict.statistic,
        "threshold": verdict.threshold,
        "expected": expected.value if expected is not None else None,
        "verdict": "violation" if violated else "pass",
    }


def _expected_direction(first, second) -> Direction | None:
    # Theoretical ordering when both families admit an exact p_2.
    def exact_p2(spec):
        pn = EXACT_PN.get(spec.family)
        return None if pn is None else pn(2, spec.dim, getattr(spec, "a", None))

    p_first, p_second = exact_p2(first), exact_p2(second)
    if p_first is None or p_second is None or first.dim != second.dim:
        return None
    if math.isclose(p_first, p_second, rel_tol=1e-12):
        return Direction.INDISTINGUISHABLE
    return Direction.FIRST_DOMINATES if p_first < p_second else Direction.SECOND_DOMINATES


def _check_nuod(args, seed: int) -> dict:
    spec = _spec_from_args(args)
    rng = make_rng(seed, 0)
    probes = default_probe_grid(spec, rng)
    result = check_nuod(spec, probes, args.samples, rng)
    return {
        "check": "nuod",
        "spec": json.dumps(spec.to_json()),
        "samples": args.samples,
        "probes": probes.shape[0],
        "worst_margin_sigma": result.worst_margin_sigma,
        "slack_sigma": result.slack_sigma,
        "verdict": "pass" if result.consistent else "violation",
    }


# Expected side of the bound, for the families that pin one down: negative
# dependence (dir) lifts p_2 above it, positive association (pa) lowers it.
_P2_SIDE = {
    "dir": lambda margin: margin >= -4.0,
    "pa": lambda margin: margin <= 4.0,
    "iid-exp": lambda margin: abs(margin) <= 4.0,
}


def _check_p2(args, seed: int) -> dict:
    spec = _spec_from_args(args)
    result = check_p2_bound(spec, args.samples, make_rng(seed, 0))
    ok = _P2_SIDE.get(spec.family, lambda margin: True)(result.margin_sigma)
    return {
        "check": "p2",
        "spec": json.dumps(spec.to_json()),
        "samples": args.samples,
        "estimate": result.estimate,
        "std_error": result.std_error,
        "bound": result.bound,
        "margin_sigma": result.margin_sigma,
        "verdict": "pass" if ok else "violation",
    }


def _check_concomitant(args, seed: int) -> dict:
    config = ExperimentConfig(_spec_from_args(args), args.n, args.reps, seed, args.workers)
    result = concomitant_check(config)  # positional: bench/spans.py reads one argument as a config
    return {
        "check": "concomitant",
        "spec": json.dumps(config.spec.to_json()),
        "n": args.n,
        "reps": args.reps,
        "statistic": result.statistic,
        "dof": result.dof,
        "pvalue": result.pvalue,
        "alpha": args.alpha,
        "verdict": "pass" if result.pvalue >= args.alpha else "violation",
    }


# The gap to the a -> 0 limit is linear in a and the gap to the a -> inf limit
# linear in 1/a, so a thousandfold step of a toward either limit divides its
# gap by about 1000 (978-1015 for d 2-8, n 2-1e8); a wrong limit stops it.
_LIMIT_STEP = 1e3
_LIMIT_MIN_SHRINK = 500.0


def _check_limits(args, seed: int) -> dict:
    if args.family not in ("dir", "pa"):
        raise RecordsError("limits check needs --family dir or pa")
    if args.d is None:
        raise RecordsError("--d is required for the limits check")
    n, d = args.n, args.d
    fn = pn_marginal_dirichlet if args.family == "dir" else pn_scale_mixture
    p_small, p_large, p_smaller, p_larger = fn(
        n, d, np.array([1e-3, 1e3, 1e-3 / _LIMIT_STEP, 1e3 * _LIMIT_STEP])
    ).tolist()
    p_indep = pn_independent(n, d)
    small_target = 1.0 if args.family == "dir" else 1.0 / n
    gap_small = abs(p_small - small_target)
    gap_large = abs(p_large - p_indep)
    converges = (
        abs(p_smaller - small_target) * _LIMIT_MIN_SHRINK <= gap_small
        and abs(p_larger - p_indep) * _LIMIT_MIN_SHRINK <= gap_large
    )
    # The theorem's ranges: dir sweeps [p*_n, 1], pa sweeps [1/n, p*_n].
    lo, hi = (p_indep, 1.0) if args.family == "dir" else (1.0 / n, p_indep)
    ok = converges and all(lo <= p <= hi for p in (p_small, p_large, p_smaller, p_larger))
    return {
        "check": "limits",
        "family": args.family,
        "n": n,
        "d": d,
        "p_at_a_0.001": p_small,
        "small_a_target": small_target,
        "small_a_gap": gap_small,
        "p_at_a_1000": p_large,
        "large_a_target": p_indep,
        "large_a_gap": gap_large,
        "verdict": "pass" if ok else "violation",
    }


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("RECORDS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise RecordsError(f"RECORDS_SEED must be an integer, got {env!r}") from None
    return 0


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--family",
        choices=list(FAMILIES),
        help="distribution family (dir = marginalized Dirichlet, pa = Exponential scale mixture)",
    )
    p.add_argument("--d", type=int, help="dimension")
    p.add_argument("--a", type=float, help="family parameter a > 0")
    p.add_argument("--b", help="comma-separated Dirichlet parameters")
    p.add_argument("--spec", help="full spec as a JSON object (required for mixtures)")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", choices=["csv", "json"], default="csv", help="output format")
    p.add_argument("--out-file", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pareto-records",
        description="Exact and Monte Carlo analysis of multivariate Pareto record probabilities.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_exact = sub.add_parser("exact", help="closed-form values")
    p_exact.add_argument("--formula", choices=["pstar", "pdir", "ppa", "roman"], required=True)
    p_exact.add_argument("--n", type=int, required=True)
    p_exact.add_argument("--d", type=int)
    p_exact.add_argument("--k", type=int, help="order of the Roman harmonic number")
    p_exact.add_argument("--a", type=float)
    p_exact.add_argument("--rational", action="store_true", help="also emit numerator/denominator")
    _add_output_flags(p_exact)
    p_exact.set_defaults(handler=_cmd_exact)

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimation")
    _add_spec_flags(p_sim)
    p_sim.add_argument("--n", type=int, required=True, help="stream length / horizon")
    p_sim.add_argument("--reps", type=int, required=True, help="replicate count")
    p_sim.add_argument("--seed", type=int, help="seed (default: $RECORDS_SEED or 0)")
    p_sim.add_argument("--workers", type=int, default=1, help="worker threads (never affects results)")
    p_sim.add_argument("--estimator", choices=["indicator", "survival"], default="indicator")
    p_sim.add_argument("--estimand", choices=["pn", "maxima"], default="pn")
    p_sim.add_argument("--emit-trajectory", metavar="PATH", help="dump one stream as CSV per-step rows")
    _add_output_flags(p_sim)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="grids over the family parameter")
    p_sweep.add_argument("--family", choices=["dir", "pa"], required=True)
    p_sweep.add_argument("--a-grid", required=True, metavar="LO:HI:STEPS", help="log-spaced grid")
    p_sweep.add_argument("--n", type=int, required=True)
    p_sweep.add_argument("--d", type=int, required=True)
    p_sweep.add_argument("--with-mc", action="store_true", help="add Monte Carlo columns")
    p_sweep.add_argument("--reps", type=int, default=100_000)
    p_sweep.add_argument("--estimator", choices=["indicator", "survival"], default="indicator")
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--workers", type=int, default=1)
    _add_output_flags(p_sweep)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_check = sub.add_parser("check", help="property checks with JSON verdicts")
    p_check.add_argument(
        "--check", choices=["rp-order", "nuod", "p2", "concomitant", "limits"], required=True
    )
    _add_spec_flags(p_check)
    p_check.add_argument("--family2", choices=["iid-exp", "dir", "pa"], help="second spec (rp-order)")
    p_check.add_argument("--d2", type=int)
    p_check.add_argument("--a2", type=float)
    p_check.add_argument("--spec2", help="second spec as JSON (rp-order)")
    p_check.add_argument("--n", type=int, default=50)
    p_check.add_argument("--reps", type=int, default=100_000)
    p_check.add_argument("--samples", type=int, default=100_000)
    p_check.add_argument("--alpha", type=float, default=1e-3)
    p_check.add_argument("--seed", type=int)
    p_check.add_argument("--workers", type=int, default=1)
    _add_output_flags(p_check)
    p_check.set_defaults(handler=_cmd_check)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.handler(args)
    except (RecordsError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except Exception as exc:  # noqa: BLE001 - nothing may escape to the shell
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
