"""scripts/ladder.py on its smallest size with one run: every stage in a child, timed or failed."""

import json
import os
import pathlib
import platform
import subprocess
import sys

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
        "_tables", "check_regularity", "_delaunay_triangles", "empty_circle_triples",
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
