import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paretorecords
from paretorecords import (
    ExperimentConfig,
    check_p2_bound,
    cli,
    estimate_maxima,
    make_rng,
    pn_independent,
    pn_scale_mixture,
    simulate,
    simulate_trajectory,
)
from paretorecords.cli import (
    EXIT_OK,
    EXIT_PARAMETER,
    EXIT_PARTIAL,
    EXIT_USAGE,
    EXIT_VIOLATION,
    main,
    spec_from_json,
)
from paretorecords.model import (
    Comonotone,
    Dirichlet,
    ExponentialScaleMixture,
    IidExponential,
    MarginalDirichlet,
    Mixture,
)

from tables import read_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpecJson:
    @pytest.mark.parametrize(
        "spec",
        [
            IidExponential(3),
            MarginalDirichlet(2, 0.5),
            ExponentialScaleMixture(4, 2.0),
            Dirichlet((1.0, 2.0, 3.0)),
            Comonotone(2),
            Mixture(0.25, MarginalDirichlet(2, 1.0), Dirichlet((1.0, 1.0))),
        ],
    )
    def test_round_trip(self, spec):
        assert spec_from_json(spec.to_json()) == spec
        assert spec_from_json(json.dumps(spec.to_json())) == spec

    def test_bad_family(self):
        with pytest.raises(Exception):
            spec_from_json({"family": "nope"})


class TestExactCommand:
    def test_pstar(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--formula", "pstar", "--n", "2", "--d", "3")
        assert code == EXIT_OK
        rows = read_table(out, from_file=False)
        assert rows[0]["value"] == pytest.approx(0.875)
        assert rows[0]["command"] == "exact" and rows[0]["schema_version"] == 1

    def test_roman_rational(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--formula", "roman", "--n", "3", "--k", "1", "--rational"
        )
        assert code == EXIT_OK
        row = read_table(out, from_file=False)[0]
        assert (row["numerator"], row["denominator"]) == (11, 6)

    def test_pstar_rational(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--formula", "pstar", "--n", "3", "--d", "2", "--rational"
        )
        row = read_table(out, from_file=False)[0]
        assert (row["numerator"], row["denominator"]) == (11, 18)

    def test_ppa(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--formula", "ppa", "--n", "2", "--d", "2", "--a", "1"
        )
        assert code == EXIT_OK
        assert read_table(out, from_file=False)[0]["value"] == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_rational_rejected_for_pdir(self, capsys):
        code, _, err = run_cli(
            capsys, "exact", "--formula", "pdir", "--n", "2", "--d", "2", "--a", "1", "--rational"
        )
        assert code == EXIT_PARAMETER
        assert "rational" in err

    def test_missing_flags(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--formula", "pdir", "--n", "2")
        assert code == EXIT_PARAMETER

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--formula", "bogus", "--n", "2"])
        assert exc.value.code == 2


class TestSimulateCommand:
    def test_iid_exp_estimate(self, capsys):
        code, out, err = run_cli(
            capsys,
            "simulate", "--family", "iid-exp", "--d", "2", "--n", "2",
            "--reps", "100000", "--seed", "7",
        )
        assert code == EXIT_OK
        row = read_table(out, from_file=False)[0]
        assert abs(row["estimate"] - 0.75) < 4.0 * row["std_error"]
        assert row["std_error"] == pytest.approx(math.sqrt(0.75 * 0.25 / 100_000), rel=0.05)
        assert "elapsed" in err  # timing goes to stderr only

    def test_comonotone(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--family", "comonotone", "--d", "4", "--n", "10",
            "--reps", "100000", "--seed", "1",
        )
        row = read_table(out, from_file=False)[0]
        assert abs(row["estimate"] - 0.1) < 4.0 * row["std_error"]

    def test_rerun_byte_identical(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "simulate", "--family", "dir", "--d", "2", "--a", "1", "--n", "5",
            "--reps", "50000", "--seed", "3",
        ]
        assert main(args + ["--out-file", str(f1)]) == EXIT_OK
        assert main(args + ["--workers", "4", "--out-file", str(f2)]) == EXIT_OK
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

    def test_mixture_via_spec_json(self, capsys):
        spec = json.dumps(
            {
                "family": "mixture", "q": 0.5,
                "first": {"family": "dir", "d": 2, "a": 1.0},
                "second": {"family": "dirichlet", "b": [1.0, 1.0]},
            }
        )
        code, out, _ = run_cli(
            capsys, "simulate", "--spec", spec, "--n", "3", "--reps", "20000", "--seed", "2"
        )
        assert code == EXIT_OK
        row = read_table(out, from_file=False)[0]
        assert 0.0 < row["estimate"] <= 1.0

    def test_no_q_flag(self):
        # A mixture weight is given only inside --spec; a bare --q is a usage error.
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--family", "dir", "--d", "2", "--a", "1", "--n", "3", "--q", "0.3"])
        assert exc.value.code == EXIT_USAGE

    def test_maxima_estimand(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--family", "iid-exp", "--d", "2", "--n", "100",
            "--reps", "2000", "--seed", "4", "--estimand", "maxima",
        )
        rows = read_table(out, from_file=False)
        names = {r["estimand"] for r in rows}
        assert names == {"records_mean", "maxima_mean"}
        h100 = sum(1.0 / k for k in range(1, 101))
        maxima = next(r for r in rows if r["estimand"] == "maxima_mean")
        assert abs(maxima["estimate"] - h100) < 5.0 * maxima["std_error"]

    def test_invalid_spec_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--family", "dir", "--d", "1", "--a", "1",
            "--n", "2", "--reps", "10",
        )
        assert code == EXIT_PARAMETER

    def test_env_seed_fallback(self, capsys, monkeypatch):
        args = ["simulate", "--family", "iid-exp", "--d", "2", "--n", "2", "--reps", "1000"]
        monkeypatch.setenv("RECORDS_SEED", "42")
        _, out_env, _ = run_cli(capsys, *args)
        _, out_flag, _ = run_cli(capsys, *args, "--seed", "42")
        assert out_env == out_flag
        row = read_table(out_env, from_file=False)[0]
        assert row["seed"] == 42
        # flag wins over the environment
        _, out_other, _ = run_cli(capsys, *args, "--seed", "1")
        assert read_table(out_other, from_file=False)[0]["seed"] == 1

    def test_trajectory_dump(self, capsys, tmp_path):
        path = tmp_path / "traj.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate", "--family", "dir", "--d", "2", "--a", "1", "--n", "40",
            "--reps", "100", "--seed", "5", "--emit-trajectory", str(path),
        )
        assert code == EXIT_OK
        rows = read_table(str(path))
        assert len(rows) == 40
        assert rows[0]["step"] == 1 and rows[0]["is_record"] is True
        # maxima count evolves consistently with the outcomes
        running = 0
        for r in rows:
            if r["is_record"]:
                running += 1 - r["broken"]
            assert r["maxima_count"] == running

    def test_json_lines_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--family", "iid-exp", "--d", "2", "--n", "2",
            "--reps", "1000", "--seed", "6", "--out", "json",
        )
        row = json.loads(out.splitlines()[0])
        assert row["command"] == "simulate" and isinstance(row["estimate"], float)


class TestSweepCommand:
    def test_exact_only_monotone(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--family", "dir", "--a-grid", "0.1:100:10", "--n", "5", "--d", "2",
            "--out-file", str(path),
        )
        assert code == EXIT_OK
        rows = read_table(str(path))
        vals = [r["exact"] for r in rows]
        assert len(vals) == 10
        assert all(x > y for x, y in zip(vals, vals[1:]))
        assert all(r["mc"] is None for r in rows)

    def test_single_point_matches_exact_command(self, capsys):
        _, out_sweep, _ = run_cli(
            capsys, "sweep", "--family", "pa", "--a-grid", "1:1:1", "--n", "2", "--d", "2"
        )
        row = read_table(out_sweep, from_file=False)[0]
        assert row["exact"] == pytest.approx(pn_scale_mixture(2, 2, 1.0), abs=1e-11)

    def test_with_mc(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--family", "pa", "--a-grid", "0.5:5:3", "--n", "3", "--d", "2",
            "--with-mc", "--reps", "20000", "--seed", "8",
        )
        assert code == EXIT_OK
        for r in read_table(out, from_file=False):
            assert abs(r["sigma_gap"]) < 5.0

    def test_bad_grid(self, capsys):
        for grid in ("1:10", "1:inf:3", "nan:2:3"):
            code, _, err = run_cli(
                capsys, "sweep", "--family", "dir", "--a-grid", grid, "--n", "2", "--d", "2"
            )
            assert code == EXIT_PARAMETER, grid
            assert err.startswith("error:"), grid

    @pytest.mark.parametrize("reps", ["0", "-5"])
    def test_with_mc_needs_positive_reps(self, capsys, reps):
        code, out, err = run_cli(
            capsys, "sweep", "--family", "pa", "--a-grid", "0.5:5:3", "--n", "3", "--d", "2",
            "--with-mc", "--reps", reps,
        )
        assert code == EXIT_PARAMETER
        assert out == "" and "--reps" in err

    def test_failing_rows_exit_4(self, capsys):
        # d = 1 has no closed form for either family: every row fails, the
        # sweep still emits a complete table with the error column set.
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "dir", "--a-grid", "1:10:3", "--n", "2", "--d", "1"
        )
        assert code == EXIT_PARTIAL
        rows = read_table(out, from_file=False)
        assert len(rows) == 3
        assert all(r["error"] is not None for r in rows)

    def test_csv_round_trip_fixed_point(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--family", "dir", "--a-grid", "0.1:10:5", "--n", "4", "--d", "3"
        )
        first = read_table(out, from_file=False)
        # emit the parsed table again through the same formatter: stable
        from paretorecords.cli import emit_rows

        emit_rows({}, list(first[0]), [tuple(row.values()) for row in first], "csv", None)
        second = read_table(capsys.readouterr().out, from_file=False)
        assert first == second


class TestCheckCommand:
    def test_limits_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--check", "limits", "--family", "dir", "--d", "2", "--n", "5",
            "--out", "json",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert report["small_a_gap"] <= 2e-2 and report["large_a_gap"] <= 1e-3

    def test_limits_pa(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--check", "limits", "--family", "pa", "--d", "3", "--n", "4",
            "--out", "json",
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize(
        "family, d, n", [("dir", 5, 16), ("dir", 8, 3777), ("pa", 6, 3777), ("pa", 5, 16)]
    )
    def test_limits_pass_at_larger_d(self, capsys, family, d, n):
        # Correct values whose gaps at a = 1e-3 or 1e3 are wider than any fixed bound.
        code, out, _ = run_cli(
            capsys, "check", "--check", "limits", "--family", family, "--d", str(d), "--n", str(n),
            "--out", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "pass"

    @pytest.mark.parametrize("family", ["dir", "pa"])
    def test_limits_wrong_large_a_limit_is_a_violation(self, capsys, monkeypatch, family):
        # An evaluator whose a -> inf limit sits 1e-5 above p*_n: its gap stops shrinking.
        name = "pn_marginal_dirichlet" if family == "dir" else "pn_scale_mixture"
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda n, d, a: real(n, d, a) + 1e-5 * a / (1.0 + a))
        code, out, _ = run_cli(
            capsys, "check", "--check", "limits", "--family", family, "--d", "3", "--n", "20",
            "--out", "json",
        )
        assert code == EXIT_VIOLATION
        assert json.loads(out)["verdict"] == "violation"

    def test_p2_pass_with_margin(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check", "--check", "p2", "--family", "pa", "--d", "2", "--a", "1",
            "--samples", "100000", "--seed", "9", "--out", "json",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert report["margin_sigma"] < 0  # positive dependence sits below the bound

    def test_rp_order_pass(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check", "--check", "rp-order", "--family", "dir", "--d", "2", "--a", "1",
            "--family2", "dir", "--a2", "5", "--samples", "50000", "--seed", "10",
            "--out", "json",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["direction"] == "second-stochastically-geq-first"

    def test_nuod_violation_exit_5(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check", "--check", "nuod", "--family", "pa", "--d", "2", "--a", "1",
            "--samples", "400000", "--seed", "11", "--out", "json",
        )
        assert code == EXIT_VIOLATION
        assert json.loads(out)["verdict"] == "violation"

    def test_nuod_grid_above_limit_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "check", "--check", "nuod", "--family", "iid-exp", "--d", "10")
        assert code == EXIT_PARAMETER
        assert out == "" and "ordering.MAX_GRID_PROBES = 19683" in err

    def test_concomitant_pass(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check", "--check", "concomitant", "--family", "iid-exp", "--d", "2",
            "--n", "20", "--reps", "20000", "--seed", "12", "--out", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["pvalue"] >= 1e-3

    @pytest.mark.parametrize("subcommand", [["check", "--check", "concomitant"], ["simulate"]])
    def test_zero_workers_exit_3(self, capsys, subcommand):
        code, out, err = run_cli(
            capsys, *subcommand, "--family", "iid-exp", "--d", "2", "--n", "5", "--reps", "100", "--workers", "0",
        )
        assert code == EXIT_PARAMETER
        assert out == "" and "workers must be an integer >= 1" in err

# The package runs on numpy alone. A fresh interpreter shows whether a
# command loads any scipy module: a test process has long since imported
# scipy itself.
_SCIPY_LOADED = "any(m.split('.')[0] == 'scipy' for m in sys.modules)"

# One fresh interpreter runs every job in turn and reports, after each,
# its result and whether a scipy module has been loaded so far.
_COLD_JOBS = f"""
import contextlib, io, json, sys
import numpy as np
from paretorecords.cli import main
from paretorecords.model import spec_from_json
results = []
for kind, arg in json.loads(sys.argv[1]):
    if kind == "main":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(arg)
        result = [code, out.getvalue()]
    else:
        result = spec_from_json(arg).survival_value_cdf(np.linspace(0.0, 1.0, 17)).tolist()
    results.append([result, {_SCIPY_LOADED}])
print(json.dumps(results))
"""


def run_cold(script, *args):
    src = Path(paretorecords.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_scipy():
    script = f"import json, sys, paretorecords, paretorecords.cli; print(json.dumps({_SCIPY_LOADED}))"
    assert run_cold(script) is False


_NO_SPECIAL_FUNCTION = {
    "simulate-indicator": ["simulate", "--family", "iid-exp", "--d", "2", "--n", "5", "--reps", "1000", "--seed", "1"],
    "simulate-survival": ["simulate", "--family", "pa", "--d", "2", "--a", "1", "--n", "5", "--reps", "1000",
                          "--estimator", "survival"],
    "simulate-maxima": ["simulate", "--family", "iid-exp", "--d", "2", "--n", "5", "--reps", "1000",
                        "--estimand", "maxima"],
    "check-p2": ["check", "--check", "p2", "--family", "pa", "--d", "2", "--a", "1", "--samples", "10000",
                 "--seed", "9"],
    "check-nuod": ["check", "--check", "nuod", "--family", "dir", "--d", "2", "--a", "1", "--samples", "10000",
                   "--seed", "11"],
    "exact-roman-rational": ["exact", "--formula", "roman", "--n", "3", "--k", "1", "--rational"],
    "exact-pstar-63": ["exact", "--formula", "pstar", "--n", "63", "--d", "3"],
}
# Each reaches a special function of ``_special``, named by the scipy
# function it replaced where there was one.
_SPECIAL_FUNCTION = {
    "chdtrc": ["check", "--check", "concomitant", "--family", "iid-exp", "--d", "2", "--n", "20", "--reps", "2000",
               "--seed", "12"],
    "gammaln-stirling": ["exact", "--formula", "pdir", "--n", "1000", "--d", "3", "--a", "2"],
    "gammaln-stirling-ppa": ["exact", "--formula", "ppa", "--n", "65", "--d", "4", "--a", "0.3"],
    "gammaln-beta-terms": ["exact", "--formula", "ppa", "--n", "5", "--d", "3", "--a", "2"],
    "digamma-zeta": ["exact", "--formula", "pstar", "--n", "64", "--d", "3"],
    "sweep": ["sweep", "--family", "dir", "--a-grid", "0.1:100:7", "--n", "200", "--d", "4"],
    "check-limits": ["check", "--check", "limits", "--family", "pa", "--d", "3", "--n", "70"],
    "check-rp-order": ["check", "--check", "rp-order", "--family", "dir", "--d", "2", "--a", "1.5",
                       "--family2", "iid-exp", "--d2", "2", "--samples", "2000", "--seed", "4"],
}
_CDF_SPECS = {
    spec.family: spec for spec in (IidExponential(3), MarginalDirichlet(3, 0.7), ExponentialScaleMixture(2, 2.5))
}


@pytest.fixture(scope="module")
def cold_results():
    """Every cold job's result and scipy flag, from one fresh interpreter."""
    jobs = [("main", argv) for argv in {**_NO_SPECIAL_FUNCTION, **_SPECIAL_FUNCTION}.values()]
    jobs += [("cdf", spec.to_json()) for spec in _CDF_SPECS.values()]
    results = run_cold(_COLD_JOBS, json.dumps(jobs))
    return {json.dumps(job): result for job, result in zip(jobs, results)}


@pytest.mark.parametrize("name", _NO_SPECIAL_FUNCTION)
def test_command_loads_no_scipy_special(cold_results, name):
    (code, _), loaded = cold_results[json.dumps(["main", _NO_SPECIAL_FUNCTION[name]])]
    assert code == EXIT_OK
    assert not loaded


@pytest.mark.parametrize("name", _SPECIAL_FUNCTION)
def test_cold_command_writes_same_bytes(capsys, cold_results, name):
    argv = _SPECIAL_FUNCTION[name]
    (code, out), loaded = cold_results[json.dumps(["main", argv])]
    assert not loaded
    assert (code, out) == run_cli(capsys, *argv)[:2]


@pytest.mark.parametrize("family", _CDF_SPECS)
def test_cold_survival_value_cdf_same_bits(cold_results, family):
    spec = _CDF_SPECS[family]
    value, loaded = cold_results[json.dumps(["cdf", spec.to_json()])]
    assert not loaded
    assert value == spec.survival_value_cdf(np.linspace(0.0, 1.0, 17)).tolist()


# ---------------------------------------------------------------------------
# One parser per process
# ---------------------------------------------------------------------------

# Each earlier call sets a flag whose value, if it stuck to the shared
# parser, would show in a later call's output.
_EARLIER = {
    "rational-json": ["exact", "--formula", "pstar", "--n", "3", "--d", "2", "--rational", "--out", "json"],
    "seed": ["simulate", "--family", "iid-exp", "--d", "2", "--n", "3", "--reps", "500", "--seed", "77"],
    "with-mc": ["sweep", "--family", "pa", "--a-grid", "0.5:2:2", "--n", "3", "--d", "2",
                "--with-mc", "--reps", "300", "--seed", "5"],
    "usage-error": ["sweep", "--family", "pa", "--a-grid", "0.5:2:2", "--n", "x", "--d", "2"],
}
_LATER = [
    ["exact", "--formula", "pstar", "--n", "3", "--d", "2"],
    ["simulate", "--family", "iid-exp", "--d", "2", "--n", "3", "--reps", "500"],
    ["sweep", "--family", "pa", "--a-grid", "0.5:2:2", "--n", "3", "--d", "2", "--reps", "300"],
]


@pytest.fixture(scope="module")
def fresh_process_outputs():
    return [run_cold(_COLD_JOBS, json.dumps([["main", argv]]))[0][0] for argv in _LATER]


class TestSharedParser:
    def test_built_once(self, capsys, monkeypatch):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        monkeypatch.setattr(cli, "_parser", None)
        assert run_cli(capsys, "exact", "--formula", "pstar", "--n", "2", "--d", "3")[0] == EXIT_OK
        assert run_cli(capsys, "exact", "--formula", "roman", "--n", "3", "--k", "1")[0] == EXIT_OK
        assert len(built) == 1

    @pytest.mark.parametrize("earlier", list(_EARLIER))
    def test_no_state_carries_over(self, capsys, fresh_process_outputs, earlier):
        try:
            code = main(_EARLIER[earlier])
        except SystemExit as exc:
            code = exc.code
        capsys.readouterr()
        assert code == (EXIT_USAGE if earlier == "usage-error" else EXIT_OK)
        for argv, fresh in zip(_LATER, fresh_process_outputs):
            assert list(run_cli(capsys, *argv)[:2]) == fresh, argv

    def test_records_seed_read_on_every_call(self, capsys, monkeypatch):
        argv = ["simulate", "--family", "iid-exp", "--d", "2", "--n", "2", "--reps", "100"]
        seeds = []
        for env in ("41", "42"):
            monkeypatch.setenv("RECORDS_SEED", env)
            seeds.append(read_table(run_cli(capsys, *argv)[1], from_file=False)[0]["seed"])
        assert seeds == [41, 42]


# ---------------------------------------------------------------------------
# Bytes of the table writer
# ---------------------------------------------------------------------------


def _reference_cell(value) -> str:
    # The cell rule of the CSV tables, written out here independently of cli.
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _reference_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _reference_cell(v) for k, v in row.items()})
    return buf.getvalue()


def _reference_json(rows: list[dict]) -> str:
    return "".join(json.dumps(row) + "\n" for row in rows)


def _lead(command: str, seed: int | None = None) -> dict:
    lead = {"schema_version": 1, "command": command, "version": paretorecords.__version__}
    return lead if seed is None else {**lead, "seed": seed}


def _exact_table():
    argv = ["exact", "--formula", "pstar", "--n", "3", "--d", "2", "--rational"]
    row = {"formula": "pstar", "n": 3, "d": 2, "value": pn_independent(3, 2), "numerator": 11, "denominator": 18}
    return argv, [{**_lead("exact"), **row}], EXIT_OK


def _simulate_table():
    argv = ["simulate", "--family", "dirichlet", "--b", "1,2.5", "--n", "6", "--reps", "300", "--seed", "3",
            "--estimand", "maxima"]
    result = estimate_maxima(ExperimentConfig(Dirichlet((1.0, 2.5)), 6, 300, 3))
    lead = {**_lead("simulate", 3), "family": "dirichlet", "b": "1.0,2.5"}
    rows = [
        {**lead, "estimand": estimand, "estimator": "indicator", "n": 6, "reps": 300,
         "estimate": est.point, "std_error": est.std_error}
        for estimand, est in (("records_mean", result.records), ("maxima_mean", result.maxima))
    ]
    return argv, rows, EXIT_OK


def _sweep_table():
    # EXACT_PN["dir"] fails above a = 3 (see flaky_dir): error rows beside value rows.
    argv = ["sweep", "--family", "dir", "--a-grid", "0.5:8:5", "--n", "4", "--d", "2",
            "--with-mc", "--reps", "500", "--seed", "2"]
    rows = [
        {**_lead("sweep", 2), "family": r.family, "n": r.n, "d": r.d, "a": r.a, "exact": r.exact,
         "mc": r.estimate, "se": r.std_error, "sigma_gap": r.sigma_gap, "error": r.error}
        for r in simulate.sweep("dir", a_values=np.geomspace(0.5, 8, 5), n=4, d=2, reps=500, seed=2)
    ]
    assert rows[0]["error"] is None and rows[-1]["error"] == 'ValueError: no value at a, "flagged"'
    return argv, rows, EXIT_PARTIAL


def _check_table():
    argv = ["check", "--check", "p2", "--family", "pa", "--d", "2", "--a", "1.5", "--samples", "2000",
            "--seed", "9"]
    spec = ExponentialScaleMixture(2, 1.5)
    result = check_p2_bound(spec, 2000, make_rng(9, 0))
    row = {"check": "p2", "spec": json.dumps(spec.to_json()), "samples": 2000, "estimate": result.estimate,
           "std_error": result.std_error, "bound": result.bound, "margin_sigma": result.margin_sigma,
           "verdict": "pass" if result.margin_sigma <= 4.0 else "violation"}
    return argv, [{**_lead("check", 9), **row}], EXIT_OK


class TestWriterBytes:
    @pytest.fixture(autouse=True)
    def flaky_dir(self, monkeypatch):
        real = simulate.EXACT_PN["dir"]

        def flaky(n, d, a):
            if np.ndim(a) or a > 3.0:
                raise ValueError('no value at a, "flagged"')
            return real(n, d, a)

        monkeypatch.setitem(simulate.EXACT_PN, "dir", flaky)

    @pytest.mark.parametrize("out", ["csv", "json"])
    @pytest.mark.parametrize("table", [_exact_table, _simulate_table, _sweep_table, _check_table],
                             ids=["exact", "simulate", "sweep", "check"])
    def test_stdout_and_file(self, capsys, tmp_path, table, out):
        argv, rows, expected_code = table()
        reference = _reference_csv(rows) if out == "csv" else _reference_json(rows)
        path = tmp_path / "table.txt"
        assert run_cli(capsys, *argv, "--out", out)[:2] == (expected_code, reference)
        assert main([*argv, "--out", out, "--out-file", str(path)]) == expected_code
        assert path.read_bytes() == reference.encode()

    def test_trajectory_file(self, capsys, tmp_path):
        path = tmp_path / "traj.csv"
        argv = ["simulate", "--family", "pa", "--d", "2", "--a", "1", "--n", "30", "--reps", "10", "--seed", "5"]
        assert run_cli(capsys, *argv, "--out", "json", "--emit-trajectory", str(path))[0] == EXIT_OK
        rows, running = [], 0
        result = simulate_trajectory(ExponentialScaleMixture(2, 1.0), 30, make_rng(5, 0))
        for step, outcome in enumerate(result.outcomes, start=1):
            if outcome.is_record:
                running += 1 - outcome.broken
            rows.append({"step": step, "is_record": outcome.is_record, "broken": outcome.broken,
                         "maxima_count": running})
        assert path.read_bytes() == _reference_csv(rows).encode()


# ---------------------------------------------------------------------------
# pa draws at tiny a
# ---------------------------------------------------------------------------

_TINY_PA = ["--family", "pa", "--d", "3", "--a", "0.001"]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", *_TINY_PA, "--n", "10", "--reps", "2000", "--seed", "1"],
        ["simulate", *_TINY_PA, "--n", "10", "--reps", "2000", "--seed", "1", "--estimator", "survival"],
        ["simulate", *_TINY_PA, "--n", "10", "--reps", "2000", "--seed", "1", "--estimand", "maxima"],
        ["simulate", *_TINY_PA, "--n", "10", "--reps", "200000", "--seed", "1", "--workers", "2"],
        ["check", "--check", "p2", *_TINY_PA, "--samples", "2000", "--seed", "1"],
        ["check", "--check", "nuod", *_TINY_PA, "--samples", "2000", "--seed", "1"],
        ["check", "--check", "rp-order", *_TINY_PA, "--family2", "iid-exp", "--samples", "2000"],
        ["check", "--check", "concomitant", *_TINY_PA, "--n", "10", "--reps", "200"],
    ],
    ids=["indicator", "survival", "maxima", "two-workers", "p2", "nuod", "rp-order", "concomitant"],
)
def test_pa_tiny_a_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_PARAMETER, "")
    assert err.startswith("error: draws of pa at a = 0.001 are not finite")


def test_pa_tiny_a_sweep_row_fails(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "pa", "--a-grid", "0.001:1:2", "--n", "10", "--d", "3",
        "--with-mc", "--reps", "2000", "--seed", "1",
    )
    assert code == EXIT_PARTIAL
    tiny, unit = read_table(out, from_file=False)
    assert tiny["error"].startswith("PrecisionLossError: draws of pa at a = 0.001")
    assert tiny["exact"] == pytest.approx(0.10015, abs=5e-6)
    assert tiny["mc"] is None and tiny["se"] is None and tiny["sigma_gap"] is None
    assert unit["error"] is None and abs(unit["sigma_gap"]) < 5.0
