"""Run the same commands on a parent revision and on this checkout, and report every output that differs.

    python3 tools/compare_outputs.py --parent HEAD~1 --seeds 11 12 --workers 1 2

The commands are every operation of both workloads of ``bench/workloads.py``
at each seed, and the ``pareto-records`` commands of the README. The parent
is exported with ``git archive``, so only committed files run. Each tree
runs every command in one fresh process on its own ``src/``, through
``paretorecords.cli.main``: once writing to stdout and once with
``--out-file``, at each ``--workers`` value (set where the command takes
one). Compared are the exit code, the stdout bytes and the file bytes; the
commands' timing lines on stderr are not. Reported are each command whose
outputs differ between the trees at a workers value, and each whose outputs
at another workers value differ from those at the first, on either tree.
The exit status is 1 when anything differs.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_rows import ROOT, export

# Subcommands that take --workers.
WORKER_COMMANDS = ("simulate", "sweep", "check")
# What each tree returns per command, in this order.
FIELDS = ("exit code", "stdout", "--out-file exit code", "--out-file bytes")

RUNNER = """
import json, sys, tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from paretorecords.cli import main

out = []
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "out"
    for argv in json.load(sys.stdin):
        stdout = StringIO()
        with redirect_stdout(stdout), redirect_stderr(StringIO()):
            code = main(argv)
            path.unlink(missing_ok=True)
            file_code = main(argv + ["--out-file", str(path)])
        out.append([code, stdout.getvalue(), file_code, path.read_text() if path.exists() else None])
json.dump(out, sys.stdout)
"""


def readme_commands(text: str) -> list[list[str]]:
    """The ``pareto-records`` commands of the README's shell blocks, as argv lists without the program name."""
    commands, block, line = [], False, ""
    for raw in text.splitlines():
        if raw.startswith("```"):
            block = not block and raw.strip() in ("```bash", "```sh")
            continue
        if not block:
            continue
        line += raw.rstrip()
        if line.endswith("\\"):
            line = line[:-1] + " "
            continue
        argv = shlex.split(line, comments=True)
        line = ""
        if argv[:1] == ["pareto-records"]:
            commands.append(argv[1:])
    return commands


def with_workers(argv: list[str], workers: int) -> list[str]:
    """``argv`` without its own ``--out-file``, at ``workers`` where the subcommand takes it."""
    argv = list(argv)
    if "--out-file" in argv:
        i = argv.index("--out-file")
        del argv[i : i + 2]
    if argv[0] not in WORKER_COMMANDS:
        return argv
    if "--workers" in argv:
        argv[argv.index("--workers") + 1] = str(workers)
        return argv
    return argv + ["--workers", str(workers)]


def run_tree(tree: Path, commands: list[list[str]]) -> list[list]:
    """[exit code, stdout, --out-file exit code, file text] per command, run on ``tree``'s package."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", RUNNER], cwd=tree, env=env, input=json.dumps(commands),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"commands on {tree} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def differences(names: list[str], left: list[list], right: list[list]) -> list[str]:
    """One line per command whose outputs differ, naming the fields that do."""
    lines = []
    for name, a, b in zip(names, left, right, strict=True):
        fields = [field for field, x, y in zip(FIELDS, a, b) if x != y]
        if fields:
            lines.append(f"{name}: {', '.join(fields)} differ")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare with")
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--workers", nargs="+", type=int, default=[1, 2])
    parser.add_argument("--workloads", nargs="+", default=["monte-carlo", "exact-eval"])
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    commands = [(f"README: {' '.join(c)}", c) for c in readme_commands((ROOT / "README.md").read_text())]
    for name in args.workloads:
        for seed in args.seeds:
            commands += [(f"{name} seed {seed}: {' '.join(op.argv)}", op.argv) for op in workloads.build(name, seed)]
    names = [name for name, _ in commands]

    report = []
    with tempfile.TemporaryDirectory(prefix="compare-parent-") as tmp:
        export(args.parent, Path(tmp))
        trees = {"parent": Path(tmp), "change": ROOT}
        results = {(side, w): run_tree(tree, [with_workers(c, w) for _, c in commands])
                   for w in args.workers for side, tree in trees.items()}
    for w in args.workers:
        report += [f"--workers {w}, parent vs change: {line}"
                   for line in differences(names, results["parent", w], results["change", w])]
        if w != args.workers[0]:
            for side in trees:
                report += [f"{side}, --workers {args.workers[0]} vs {w}: {line}"
                           for line in differences(names, results[side, args.workers[0]], results[side, w])]
    print(f"{len(commands)} commands at --workers {' '.join(map(str, args.workers))}: "
          f"{len(report)} differences")
    for line in report:
        print(line)
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
