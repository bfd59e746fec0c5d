"""Run the benchmark on a parent revision and on this checkout, and write the rows.

    python3 tools/bench_rows.py --out BENCH_N.json --parent HEAD~1 \\
        --workloads monte-carlo exact-eval --seeds 7101 7102 7103

For each workload and seed, ``bench/run.py --workload W --seed S --seconds T
--trace 0`` runs once in a copy of the parent revision (exported with
``git archive``, so only committed files run) and once in this checkout,
alternating which side goes first from pair to pair so both see the machine
in the same state. Each side runs its own ``bench/`` on its own ``src/``.
After these timed pairs, each side runs each workload once more with
``--trace 1``, on the first seed. Without ``--parent`` only this checkout
runs.

The JSON file named by ``--out`` gets:

- ``machine``: nproc and the Python, numpy and scipy versions;
- ``trees``: per side the git sha (with ``dirty`` when this checkout has
  uncommitted changes) and the ``wc -l`` count of ``src/paretorecords``;
- ``rows``: one per run, with the end-to-end metrics and the attempted and
  failed operation counts;
- ``summary``: per workload, side and metric the median and quartiles, and
  for each metric the pairs the change won (ties count for neither side)
  and ``log_ratio``: the median of the paired ``log(change / parent)`` with
  a distribution-free interval for it (see :func:`median_interval`);
- ``per_layer``: per workload and side, the traced run's seed, correctness,
  operation counts and per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout


def src_lines(tree: Path) -> int:
    """What ``wc -l src/paretorecords/*.py`` prints as the total."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "paretorecords").glob("*.py"))


def export(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def median_interval(values: list[float]) -> dict:
    """Median of ``values`` and an interval that covers the true median with
    probability ``coverage``, whatever the distribution.

    The interval runs from the k-th smallest to the k-th largest value, for
    the largest k with 2 P(B <= k - 1) <= 0.05, B ~ Binomial(n, 1/2):
    the 2nd and 9th of 10 values (coverage 0.979). Below six values no k
    meets 95 %, and the interval is the full range, with its lower
    coverage (Kalibera & Jones, ISMM 2013, argue for intervals on the ratio).
    """
    ordered, n = sorted(values), len(values)
    tail = [math.comb(n, i) / 2**n for i in range(n + 1)]  # P(B = i)
    k = 1
    while k < n // 2 and 2 * sum(tail[:k + 1]) <= 0.05:
        k += 1
    return {"median": statistics.median(ordered), "lo": ordered[k - 1], "hi": ordered[n - k],
            "coverage": 1 - 2 * sum(tail[:k])}


def summarize(rows: list[dict]) -> dict:
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in rows):
        mine = [r for r in rows if r["workload"] == workload]
        sides = {side: {r["seed"]: r for r in mine if r["side"] == side} for side in dict.fromkeys(r["side"] for r in mine)}
        entry = {}
        for metric in BETTER:
            stats = {side: quartiles([r["metrics"][metric] for r in by_seed.values()]) for side, by_seed in sides.items()}
            if {"parent", "change"} <= sides.keys():
                pairs = [(sides["parent"][s]["metrics"][metric], sides["change"][s]["metrics"][metric])
                         for s in sides["parent"] if s in sides["change"]]
                sign = 1 if BETTER[metric] == "lower" else -1
                stats["change_wins"] = sum(sign * (p - c) > 0 for p, c in pairs)
                stats["pairs"] = len(pairs)
                stats["log_ratio"] = median_interval([math.log(c / p) for p, c in pairs])
            entry[metric] = stats
        entry["failed"] = {side: sum(r["failed"] for r in by_seed.values()) for side, by_seed in sides.items()}
        entry["attempted"] = {side: sum(r["attempted"] for r in by_seed.values()) for side, by_seed in sides.items()}
        out[workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write, e.g. BENCH_<n>.json")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--parent", help="git revision to run as the parent side")
    args = parser.parse_args(argv)

    trees = {"change": {"sha": git("rev-parse", "HEAD").strip(), "dirty": bool(git("status", "--porcelain")),
                        "src_lines": src_lines(ROOT)}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        paths = {"change": ROOT}
        if args.parent:
            export(args.parent, Path(tmp))
            paths["parent"] = Path(tmp)
            trees["parent"] = {"sha": git("rev-parse", args.parent).strip(), "src_lines": src_lines(Path(tmp))}
        rows, i = [], 0
        for workload in args.workloads:
            for seed in args.seeds:
                sides = list(paths) if i % 2 else list(paths)[::-1]
                for side in sides:
                    row = {"workload": workload, "seed": seed, "side": side, "first": side == sides[0],
                           **run_once(paths[side], workload, seed, args.seconds)}
                    rows.append(row)
                    print(json.dumps(row), file=sys.stderr, flush=True)
                i += 1
        per_layer = {workload: {side: {"seed": args.seeds[0],
                                       **run_once(paths[side], workload, args.seeds[0], args.seconds, trace=1)}
                                for side in paths}
                     for workload in args.workloads}
    doc = {
        "command": ["python3", "tools/bench_rows.py", *(argv if argv is not None else sys.argv[1:])],
        "seconds": args.seconds,
        "machine": {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
                    "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__},
        "trees": trees,
        "rows": rows,
        "summary": summarize(rows),
        "per_layer": per_layer,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
