"""scripts/ladder.py on its smallest size with one run: every stage in a child, timed or failed.

With ``--before`` the two trees' children alternate in three pairs, and each tree keeps its
least raw time and least kernel time.
"""

import json
import os
import pathlib
import platform
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ladder.py"


def test_smallest_size_with_one_run(tmp_path):
    out = tmp_path / "BENCH_test.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), "--k", "1", "--size", "ring-8-12",
                           "--out", str(out)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["python"] == platform.python_version() and result["k"] == 1
    assert "commit" in result and "src_differs" in result
    stages = result["stages"]
    assert [row["stage"] for row in stages] == [
        "build_body", "inner_cells", "extract_boundary", "build_graph", "check_polytope",
        "_tables", "check_regularity", "_subdivision", "empty_circle_triples",
        "format_json boundary", "format_json hypergraph"]
    for row in stages:
        # a ring input is regular, so no stage fails on it
        assert row["size"] == "ring-8-12" and "error" not in row
        assert row["raw_ms"] > 0 and row["ms"] > 0 and row["kernel_ms"] > 0
        # ms at reference speed: raw * R0 / kernel, with R0 = 3 ms
        assert abs(row["ms"] - row["raw_ms"] * 3.0 / row["kernel_ms"]) <= 1e-9 * row["ms"]
    assert f"ladder: 11 stages written to {out}" in proc.stdout


def test_a_stage_that_raises_records_the_error_type():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--child", "empty_circle_triples",
                           "grid", "1"], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    done = json.loads(proc.stdout)
    assert done["error"] == "RegularityViolated" and "raw_ms" not in done


def test_before_on_the_smallest_size_with_one_run(tmp_path):
    out = tmp_path / "BENCH_test.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), "--k", "1", "--size", "ring-8-12",
                           "--before", str(ROOT), "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["before"].keys() == {"commit", "src_differs"}
    assert len(result["stages"]) == 11
    for row in result["stages"]:
        for times in (row, row["before"]):
            assert times["raw_ms"] > 0 and times["ms"] > 0 and times["kernel_ms"] > 0
    assert proc.stdout.count("   before ") == 11


def test_trees_alternate_in_three_pairs_and_keep_their_least_times(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPT.parent))
    import ladder

    calls = []
    raws = (3.0, 2.0, 1.0, 5.0, 4.0, 6.0)  # old: 3, 5, 4; new: 2, 1, 6
    kernels = (2.0, 1.5, 2.5, 1.0, 3.0, 2.0)  # old: 2, 1, 3; new: 1.5, 2.5, 2

    def fake_child(tree, stage, size, k):
        calls.append(tree)
        raw, kernel = raws[len(calls) - 1], kernels[len(calls) - 1]
        return {"raw_ms": raw, "ms": raw * 3.0 / kernel, "kernel_ms": kernel}

    monkeypatch.setattr(ladder, "STAGES", ("build_body",))
    monkeypatch.setattr(ladder, "run_child", fake_child)
    out = tmp_path / "BENCH_test.json"
    assert ladder.main(["--tree", "new", "--before", "old", "--size", "grid",
                        "--out", str(out)]) == 0
    new, old = os.path.abspath("new"), os.path.abspath("old")
    assert calls == [old, new, new, old, old, new]
    (row,) = json.loads(out.read_text(encoding="utf-8"))["stages"]
    # each tree's least raw and least kernel time, from different children
    assert (row["raw_ms"], row["kernel_ms"], row["ms"]) == (1.0, 1.5, pytest.approx(2.0))
    before = row["before"]
    assert (before["raw_ms"], before["kernel_ms"], before["ms"]) == (3.0, 1.0, pytest.approx(9.0))
