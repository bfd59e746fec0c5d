"""Steadiness of the end-to-end metrics: two sets of runs of the same code.

    python3 bench/steady.py --workload NAME [--runs 10] [--seconds S]

Each run is ``bench/run.py`` in a fresh process with its own seed: set A
uses seeds 1, 2, ..., set B seeds 1001, 1002, ..., and the runs of the two
sets alternate (A, B, A, B, ...). For every end-to-end metric it prints the
median and quartiles of each set and the spread (q3 - q1) / median, and
checks them against BENCHMARK.json: each spread within the metric's bound,
the second set's median no worse than the first's by more than the bound,
and the same share of failed operations in every run. Exit code 0 when
every check holds, 1 otherwise. A summary is written to
``.bench_run/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SET_SEEDS = {"A": 1, "B": 1001}  # first seed of each set


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".bench_run" / f"result-{workload}-{seed}-trace0.json").read_text())
    result["op_tail_ms"] = detail["op_tail_ms"]  # reported for reference, not gated
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    results = {name: [] for name in SET_SEEDS}
    for i in range(args.runs):
        for name, first in SET_SEEDS.items():
            seed = first + i
            res = run_once(args.workload, seed, seconds)
            results[name].append(res)
            values = " ".join(f"{key}={m['value']:.5g}" for key, m in res["metrics"].items())
            print(f"set {name} seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} {values}",
                  flush=True)

    ok = all(r["correct"] for rs in results.values() for r in rs)
    shares = {Fraction(r["failed"], r["attempted"]) for rs in results.values() for r in rs}
    if len(shares) != 1:
        ok = False
        print(f"FAIL: failed shares differ between runs: {sorted(map(str, shares))}")
    summary = {"workload": args.workload, "seconds": seconds, "runs": args.runs,
               "failed_share": str(shares.pop()) if len(shares) == 1 else None, "metrics": {}}
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sets = {k: summarize([r["metrics"][name]["value"] for r in rs]) for k, rs in results.items()}
        summary["metrics"][name] = sets
        line = f"{name:12s}"
        for k, s in sets.items():
            line += f"  {k}: median {s['median']:.5g} [q1 {s['q1']:.5g}, q3 {s['q3']:.5g}] spread {s['spread']:.3f}"
            if s["spread"] > bound:
                ok = False
                line += " (FAIL: spread above bound)"
        change = sets["B"]["median"] / sets["A"]["median"] - 1
        worse = change if metric["better"] == "lower" else -change
        line += f"  B/A-1 {change:+.3f}"
        if worse > bound:
            ok = False
            line += " (FAIL: B worse than A by more than the bound)"
        print(f"{line}  bound {bound}")
    tails = {k: summarize([r["op_tail_ms"] for r in rs]) for k, rs in results.items()}
    summary["op_tail_ms"] = tails
    print("op_tail_ms  " + "  ".join(f"{k}: median {t['median']:.5g} spread {t['spread']:.3f}"
                                     for k, t in tails.items()) + "  (not gated)")
    out = ROOT / ".bench_run" / f"steady-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
