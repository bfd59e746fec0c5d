"""The diff logic of ``tools/compare_outputs.py`` on hand-made outputs."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))  # for its own import of bench_rows
_spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)
sys.path.remove(str(ROOT / "tools"))


def test_differences_name_each_differing_field():
    names = ["same", "stdout", "file", "codes"]
    left = [[0, "a\n", 0, "a\n"], [0, "a\n", 0, "a\n"], [0, "a\n", 0, "a\n"], [0, "", 0, None]]
    right = [[0, "a\n", 0, "a\n"], [0, "b\n", 0, "a\n"], [0, "a\n", 0, "a \n"], [3, "", 3, None]]
    assert compare_outputs.differences(names, left, right) == [
        "stdout: stdout differ",
        "file: --out-file bytes differ",
        "codes: exit code, --out-file exit code differ",
    ]


def test_differences_see_a_missing_file_and_trailing_bytes():
    left = [[0, "", 0, None], [0, "x", 0, "1,2\n"]]
    right = [[0, "", 0, ""], [0, "x", 0, "1,2\n\n"]]
    assert len(compare_outputs.differences(["a", "b"], left, right)) == 2


def test_with_workers_sets_or_adds_the_flag_and_drops_out_file():
    w = compare_outputs.with_workers
    assert w(["simulate", "--n", "2", "--workers", "1"], 2) == ["simulate", "--n", "2", "--workers", "2"]
    assert w(["check", "--check", "limits"], 2) == ["check", "--check", "limits", "--workers", "2"]
    assert w(["sweep", "--out-file", "s.csv", "--n", "5"], 1) == ["sweep", "--n", "5", "--workers", "1"]
    assert w(["exact", "--formula", "pstar"], 2) == ["exact", "--formula", "pstar"]


def test_readme_commands_join_continuations_and_skip_other_blocks():
    text = "\n".join([
        "```python",
        "pareto-records not a shell block",
        "```",
        "```bash",
        "pareto-records exact --n 2 --d 3   # 0.875",
        "pareto-records simulate --family pa \\",
        "    --out json",
        "python3 other.py",
        "```",
    ])
    assert compare_outputs.readme_commands(text) == [
        ["exact", "--n", "2", "--d", "3"],
        ["simulate", "--family", "pa", "--out", "json"],
    ]
