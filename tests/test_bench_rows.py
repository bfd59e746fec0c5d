"""Paired summary of ``tools/bench_rows.py`` on synthetic rows."""

import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_rows", ROOT / "tools" / "bench_rows.py")
bench_rows = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_rows)


def _rows(ratios: list[float]) -> list[dict]:
    # Parent values drift from pair to pair; the change is the parent times a known ratio.
    rows = []
    for i, ratio in enumerate(ratios):
        parent = 1.0 + 0.37 * i
        for side, value in (("parent", parent), ("change", parent * ratio)):
            rows.append({"workload": "w", "seed": 100 + i, "side": side, "failed": 0, "attempted": 5,
                         "metrics": {name: value for name in bench_rows.BETTER}})
    return rows


def test_ten_pairs_use_the_second_and_ninth_order_statistics():
    ratios = [0.5, 0.9, 0.6, 0.55, 1.2, 0.45, 0.7, 0.52, 0.58, 0.4]
    entry = bench_rows.summarize(_rows(ratios))["w"]
    logs = sorted(math.log(r) for r in ratios)
    for name, better in bench_rows.BETTER.items():
        got = entry[name]["log_ratio"]
        assert got["median"] == pytest.approx((logs[4] + logs[5]) / 2)
        assert (got["lo"], got["hi"]) == pytest.approx((logs[1], logs[8]))
        assert got["coverage"] == pytest.approx(1 - 2 * 11 / 1024)
        assert entry[name]["change_wins"] == (9 if better == "lower" else 1)
        assert entry[name]["pairs"] == 10


@pytest.mark.parametrize("n, k", [(5, 1), (6, 1), (10, 2), (20, 6), (40, 14)])
def test_interval_rank_from_the_binomial_rule(n, k):
    # k is the order statistic of the usual 95 % sign-test tables.
    got = bench_rows.median_interval([float(i) for i in range(n)])
    assert (got["lo"], got["hi"]) == (k - 1, n - k)
