"""Benchmark of the pareto-records command line, one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one ``pareto-records`` command run in-process through
``paretorecords.cli.main`` with ``--out-file``, so argument parsing and
output writing are timed, and the rows written are the rows checked. A
round is the workload's fixed list of commands, run on a freshly imported
package so that every round fills the program's caches from cold, as each
CLI process does. The run repeats whole rounds until ``--seconds`` have
passed, then checks every operation's rows (see ``workloads.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread: the only threads are the program's own workers.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from io import StringIO  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_PROBES = 3
RERUN_WORKERS = 2
PROGRAM_MODULES = ("cli", "simulate", "ordering")

END_TO_END_UNITS = {"wall_s": "s", "work_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def fresh_program() -> dict:
    """Import the package anew, dropping every module state of the last round."""
    for name in [m for m in sys.modules if m == "paretorecords" or m.startswith("paretorecords.")]:
        # typing's cache of Union[...] keeps the old classes alive, and
        # through their methods the old module namespace with its caches;
        # emptying the namespace frees them, as the end of a process would.
        sys.modules.pop(name).__dict__.clear()
    gc.collect()
    return {name: importlib.import_module(f"paretorecords.{name}") for name in PROGRAM_MODULES}


def run_round(ops, out_dir: Path, tracer=None, install=None):
    """Run every operation once on a fresh package; return latencies, wall and outputs."""
    program = fresh_program()
    if install is not None:
        install(program)
    main = program["cli"].main
    paths = [out_dir / f"op{i:03d}.csv" for i in range(len(ops))]
    for path in paths:
        path.unlink(missing_ok=True)
    latencies, codes = [], []
    sink = StringIO()  # the commands' timing lines on stderr
    with redirect_stdout(sink), redirect_stderr(sink):
        start = time.perf_counter()
        for op, path in zip(ops, paths):
            t0 = time.perf_counter()
            if tracer is None:
                code = main(op.argv + ["--out-file", str(path)])
            else:
                with tracer.span("cli.main"):
                    code = main(op.argv + ["--out-file", str(path)])
            latencies.append(time.perf_counter() - t0)
            codes.append(code)
        wall = time.perf_counter() - start
    outputs = [(code, path.read_text() if path.exists() else "") for code, path in zip(codes, paths)]
    return latencies, wall, outputs


def measure_setup(args) -> float:
    """Median time from launching a fresh interpreter to its inputs being built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
    return statistics.median(times)


def check_outputs(ops, outputs) -> tuple[list[str], set[int]]:
    """Check each operation's rows; return unexpected problems and failed op indices."""
    import workloads

    problems, failed = [], set()
    for i, (op, (code, text)) in enumerate(zip(ops, outputs)):
        try:
            found = [f"exit code {code}"] if code != 0 else op.check(workloads.parse_rows(text))
        except (KeyError, ValueError) as exc:
            found = [f"unreadable output: {exc!r}"]
        if found:
            failed.add(i)
            if op.known_fault is None:
                problems += [f"{' '.join(op.argv)}: {p}" for p in found]
    return problems, failed


def rerun_workers(ops, out_dir: Path, outputs, tracer=None) -> list[str]:
    """A rerun at RERUN_WORKERS threads must write the same bytes as the timed one-thread run."""
    program = fresh_program()
    if tracer is not None:
        tracer.install(program)
    workers = str(min(RERUN_WORKERS, len(os.sched_getaffinity(0))))
    problems = []
    for i, op in enumerate(ops):
        if not op.rerun_workers:
            continue
        argv = list(op.argv)
        argv[argv.index("--workers") + 1] = workers
        path = out_dir / "rerun.csv"
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            program["cli"].main(argv + ["--out-file", str(path)])
        if path.read_text() != outputs[i][1]:
            problems.append(f"{' '.join(op.argv)}: --workers {workers} output differs")
    return problems


def frontier_probe(ops, program) -> dict[str, float]:
    """Public ``insert`` timed on streams drawn from the workload's own specs."""
    import numpy as np
    from paretorecords import frontier, samplers

    specs = [(op.spec, op.n) for op in ops if op.spec is not None and op.spec["family"] != "mixture"]
    out = {}
    for key, want_2d, budget in (("frontier.insert_us_2d", True, 100_000), ("frontier.insert_us_nd", False, 20_000)):
        streams = []
        for spec, n in specs:
            if spec["family"] == "dirichlet":
                spec = {"family": "iid-exp", "d": len(spec["b"])}
            if (spec["d"] == 2) != want_2d:
                spec = {**spec, "d": 2 if want_2d else 3}
            streams.append((program["cli"].spec_from_json(spec), max(n, 100)))
        total, inserts, i = 0.0, 0, 0
        while inserts < budget:
            spec, n = streams[i % len(streams)]
            with np.errstate(all="ignore"):  # tiny a overflows pa draws to inf
                obs = samplers.sample_observations(spec, min(n, 10_000), samplers.make_rng(i, 0))
            f = frontier.make_frontier(spec.dim)
            t0 = time.perf_counter()
            for row in obs:
                f.insert(row)
            total += time.perf_counter() - t0
            inserts += len(obs)
            i += 1
        out[key] = 1e6 * total / inserts
    return out


def tail_ms(latencies: list[float]) -> float:
    # The highest order statistic with at least ten samples beyond it.
    ordered = sorted(latencies)
    return 1e3 * ordered[max(len(ordered) - 11, 0)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "paretorecords" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'paretorecords'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    fresh_program()
    ops = workloads.build(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    phases = {"start_to_inputs": time.perf_counter() - _STARTED}
    setup_s = measure_setup(args)
    phases["setup_probes"] = time.perf_counter() - _STARTED - sum(phases.values())
    out_dir = RUN_DIR / f"ops-{args.workload}-{args.seed}-{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        import spans as tracing

        tracer = tracing.Tracer()
    # Whole rounds until the time is up. In traced mode an untraced and a
    # traced round alternate, so both see the machine in the same state.
    latencies, walls, rounds_out = [], [], []  # latencies[round][op]
    traced_walls, per_round, fold_layers, recorded = [], [], [], []
    t_end = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < t_end:
        lat, wall, outputs = run_round(ops, out_dir)
        latencies.append(lat)
        walls.append(wall)
        rounds_out.append(outputs)
        if tracer is not None:
            _, wall, outputs = run_round(ops, out_dir, tracer, tracer.install)
            traced_walls.append(wall)
            rounds_out.append(outputs)
            round_spans, _, cold = tracer.take()
            per_round.append(tracing.round_metrics(round_spans, cold))
            fold_layers.append(tracing.fold_layers_s(round_spans))
            recorded += round_spans
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    phases["rounds"] = time.perf_counter() - _STARTED - sum(phases.values())

    if tracer is not None:
        alloc = tracing.AllocProbe()
        rounds_out.append(run_round(ops, out_dir, install=alloc.install)[2])
        layer = tracing.median_metrics(per_round)
        layer["exact.peak_alloc_mb"] = alloc.peak["exact"] / 2**20
        layer["ordering.nuod_peak_alloc_mb"] = alloc.peak["nuod"] / 2**20
        layer.update(frontier_probe(ops, fresh_program()))
        layer["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1
        phases["probes"] = time.perf_counter() - _STARTED - sum(phases.values())

    problems, failed = check_outputs(ops, rounds_out[0])
    if any(outputs != rounds_out[0] for outputs in rounds_out[1:]):
        problems.append("a later round wrote different rows than the first")
    problems += rerun_workers(ops, out_dir, rounds_out[0], tracer)
    if tracer is not None:
        layer["simulate.parallel_eff"] = tracing.parallel_efficiency(*tracer.take()[:2])
    for path in out_dir.iterdir():
        path.unlink()
    out_dir.rmdir()
    phases["checks"] = time.perf_counter() - _STARTED - sum(phases.values())

    rounds = len(rounds_out)
    if args.trace:
        layer["exact.failed_evals"] = len(failed)
        metrics = {name: {"value": value, "unit": tracing.UNITS[name]} for name, value in layer.items()}
    else:
        total_work = sum(op.work for op in ops) * len(walls)
        e2e = {
            "wall_s": statistics.median(walls),
            "work_per_s": total_work / sum(walls),
            # The median over the round's operations of each one's median latency.
            "op_p50_ms": 1e3 * statistics.median(map(statistics.median, zip(*latencies))),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in e2e.items()}
    result = {"correct": not problems, "attempted": rounds * len(ops), "failed": rounds * len(failed), "metrics": metrics}

    RUN_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    detail = {
        **result, "workload": args.workload, "seed": args.seed, "rounds": rounds, "ops_per_round": len(ops),
        "round_walls_s": walls, "op_tail_ms": tail_ms([t for lat in latencies for t in lat]), "problems": problems,
        "op_medians_ms": {" ".join(op.argv): 1e3 * statistics.median(lat) for op, lat in zip(ops, zip(*latencies))},
        "known_faults": [" ".join(ops[i].argv) for i in sorted(failed) if ops[i].known_fault],
        "phases_s": phases,
    }
    folds = [i for i, op in enumerate(ops) if op.fold]
    if args.trace and folds:
        # The layers under the fold commands of a traced round against the
        # same commands' latency in the untraced rounds.
        untraced = statistics.median(sum(lat[i] for i in folds) for lat in latencies)
        detail["fold_split_s"] = {"traced_layers": statistics.median(fold_layers), "untraced_commands": untraced}
    (RUN_DIR / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        with open(RUN_DIR / f"trace-{stem}.jsonl", "w") as fh:
            for s in recorded:
                fh.write(json.dumps(s.as_dict()) + "\n")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
