"""The traced benchmark mode still finds every layer it wraps.

``bench/spans.py`` times each layer by replacing a public name in the module
that calls it. This runs a handful of small commands under its tracer, in a
subprocess so that no wrapped name leaks into other tests, and checks that
every wrapped name exists and that every span kind was recorded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import paretorecords

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = [
    ["simulate", "--family", "dir", "--d", "2", "--a", "1", "--n", "5", "--reps", "2000"],
    ["simulate", "--family", "pa", "--d", "2", "--a", "1", "--n", "5", "--reps", "2000",
     "--estimator", "survival"],
    ["simulate", "--family", "dir", "--d", "2", "--a", "1", "--n", "5", "--reps", "120000",
     "--workers", "2"],
    ["simulate", "--family", "iid-exp", "--d", "3", "--n", "10", "--reps", "200", "--estimand", "maxima"],
    ["check", "--check", "concomitant", "--family", "iid-exp", "--d", "3", "--n", "10",
     "--reps", "200", "--alpha", "1e-9"],
    ["exact", "--formula", "pdir", "--n", "40", "--d", "2", "--a", "1"],
    ["exact", "--formula", "pstar", "--n", "10", "--d", "3", "--rational"],
    ["exact", "--formula", "roman", "--n", "10", "--k", "2", "--rational"],
    ["sweep", "--family", "dir", "--a-grid", "0.5:2:3", "--n", "5", "--d", "2"],
    ["check", "--check", "rp-order", "--family", "dir", "--d", "2", "--a", "1",
     "--family2", "iid-exp", "--samples", "2000"],
    ["check", "--check", "p2", "--family", "dir", "--d", "2", "--a", "1", "--samples", "2000"],
    ["check", "--check", "nuod", "--family", "dir", "--d", "2", "--a", "1", "--samples", "2000"],
]

SCRIPT = """
import importlib, json, os, sys
import spans

modules = {name: importlib.import_module("paretorecords." + name) for name in ("cli", "simulate", "ordering")}
missing = [f"{mod}.{attr}" for mod, attr in list(spans.LAYERS) + list(spans.EXACT)
           if not hasattr(modules[mod], attr)]
tracer = spans.Tracer()
tracer.install(modules)
codes = []
for i, argv in enumerate(json.loads(sys.argv[1])):
    with tracer.span("cli.main"):
        codes.append(modules["cli"].main(argv + ["--out-file", os.path.join(sys.argv[2], f"op{i}.csv")]))
recorded = {s.name for s in tracer.take()[0]}
# Every layer, every exact route (the two families' by n), and the pool's chunks.
expected = set(spans.LAYERS.values()) | {route for route in spans.EXACT.values() if route is not None}
expected |= {"exact.altsum", "exact.quadrature", "simulate.chunk", "cli.main"}
print(json.dumps({"missing": missing, "codes": codes, "unrecorded": sorted(expected - recorded)}))
"""


def test_traced_run_records_every_layer(tmp_path):
    src = Path(paretorecords.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(src)]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(COMMANDS), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["missing"] == []
    assert result["codes"] == [0] * len(COMMANDS)
    assert result["unrecorded"] == []
