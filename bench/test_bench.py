"""Tests of the benchmark itself.  Run: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

import corpus
import ref
import run
import spans
import verify

sys.path.insert(0, run.SRC)
from equidist import cli  # noqa: E402


def _first_inputs(name: str, count: int):
    """The first timed inputs of a workload at the default seed."""
    wl = run.WORKLOADS[name]
    stream = corpus.stream(wl.corpus, run.DEFAULT_SEED)
    for _ in range(wl.warmup):
        next(stream)
    return wl, [next(stream) for _ in range(count)]


def _report(tmp_path, command: str, doc: dict, tracer=None) -> dict:
    in_path = tmp_path / "in.json"
    in_path.write_text(corpus.dumps(doc))
    _, code, out, err = run._call(cli, command, str(in_path), tracer)
    assert code == 0, err
    return json.loads(out)["result"]


@pytest.mark.parametrize("kind", ["ring-8-12", "ring-12-18", "grid", "pentagon"])
def test_seed_reproduces_input_bytes(kind):
    def texts(seed):
        stream = corpus.stream(kind, seed)
        return [corpus.dumps(next(stream)[0]) for _ in range(5)]

    first = texts(7)
    assert texts(7) == first
    assert len(set(first)) == len(first)
    assert texts(8) != first


def test_generators_never_import_the_engine():
    code = "import corpus, ref, verify, sys; sys.exit('equidist' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=run.SRC)
    assert subprocess.run([sys.executable, "-c", code], cwd=run.BENCH_DIR, env=env).returncode == 0


def test_grid_inputs_keep_hull_points_outer():
    stream = corpus.stream("grid", 3)
    for _ in range(10):
        doc, _ = next(stream)
        points = [tuple(p) for p in doc["inner"] + doc["outer"]]
        assert len(doc["inner"]) == 8 and len(set(points)) == 20
        assert not corpus._on_hull(points) & {tuple(p) for p in doc["inner"]}


def test_moved_vertex_fails_verification(tmp_path):
    wl, [(doc, _)] = _first_inputs("boundary-ring", 1)
    result = _report(tmp_path, wl.command, doc)
    verify.check_boundary(doc, result)
    moved = copy.deepcopy(result)
    x, y = moved["chains"][0]["vertices"][0]
    moved["chains"][0]["vertices"][0] = [x + 1e-4, y]
    with pytest.raises(verify.VerificationError):
        verify.check_boundary(doc, moved)


def test_dropped_hyperedge_fails_verification(tmp_path):
    wl, [(doc, _)] = _first_inputs("hypergraph-ring", 1)
    result = _report(tmp_path, wl.command, doc)
    verify.check_hypergraph(doc, result)
    dropped = copy.deepcopy(result)
    del dropped["edges"][3]
    with pytest.raises(verify.VerificationError):
        verify.check_hypergraph(doc, dropped)


def test_wrong_focal_point_fails_verification(tmp_path):
    wl, [(doc, generator)] = _first_inputs("pentagon32", 1)
    result = _report(tmp_path, wl.command, doc)
    verify.check_pentagon(generator, result)
    wrong = copy.deepcopy(generator)
    wrong["outer"][1][0] += 1e-3
    with pytest.raises(verify.VerificationError):
        verify.check_pentagon(wrong, result)


def test_calibration_arithmetic():
    assert 0.3 * ref.speed_factor(ref.R0) == pytest.approx(0.3)
    assert 0.3 * ref.speed_factor(2 * ref.R0) == pytest.approx(0.15)  # slow machine
    assert 0.3 * ref.speed_factor(ref.R0 / 3) == pytest.approx(0.9)  # fast machine
    assert 0.3 * ref.speed_factor(0.02, r0=0.01) == pytest.approx(0.15)
    # kernels ran before ops 0, 2, 4, 6 and after the last op 7
    refs, ref_at = [1.0, 2.0, 3.0, 4.0, 50.0], [0, 2, 4, 6, 8]
    assert ref.neighbour_ref(refs, ref_at, 0) == 1.5  # 1 before, 2 after
    assert ref.neighbour_ref(refs, ref_at, 3) == 2.5  # 2 before, 3 after
    assert ref.neighbour_ref(refs, ref_at, 7) == 27.0  # 4 before, 50 after


def test_kernel_is_deterministic():
    assert ref.kernel() == ref.kernel()


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tail_has_ten_samples_beyond_at_the_minimum_op_count(name):
    wl = run.WORKLOADS[name]
    values = list(range(wl.min_ops))
    value = run.tail(values, wl.tail_pct)
    assert sum(v > value for v in values) == run.TAIL_BEYOND


@pytest.mark.parametrize("name, expected", [
    ("boundary-ring", {"polygon.extract_boundary.calls": 2, "body.build_body.calls": 2,
                       "connectivity.intersection_dim.calls": 28}),
    ("boundary-grid", {"polygon.extract_boundary.calls": 2, "body.build_body.calls": 2,
                       "connectivity.intersection_dim.calls": 28}),
    ("hypergraph-ring", {"polygon.check_regularity.calls": 2,
                         "connectivity.intersection_dim.calls": 0}),
    ("pentagon32", {"connectivity.intersection_dim.calls": 0,
                    "polygon.check_regularity.calls": 0}),
])
def test_per_op_call_counts(tmp_path, name, expected):
    wl, inputs = _first_inputs(name, 2)
    tracer = spans.Tracer()
    for op, (doc, _) in enumerate(inputs):
        tracer.op = op
        _report(tmp_path, wl.command, doc, tracer)
    per_op = tracer.per_op()
    for op in range(len(inputs)):
        assert {k: per_op[op].get(k, 0) for k in expected} == expected


def test_uninstall_restores_every_binding():
    modules = [sys.modules[f"equidist.{name}"] for name in spans.LAYERS]
    before = [dict(vars(m)) for m in modules]
    tracer = spans.Tracer()
    tracer.install()
    assert cli.build_graph is not before[0]["build_graph"]
    tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.spans = [("cli.run", 0.0, 1.0, -1, 0), ("body.build_body", 0.2, 0.5, 0, 0),
                    ("polygon.extract_boundary", 0.5, 0.9, 0, 0)]
    per_op = tracer.per_op()[0]
    assert per_op["cli.run.self_ms"] == pytest.approx(300.0)
    assert per_op["cli.run.ms"] == pytest.approx(1000.0)
    assert per_op["body.build_body.calls"] == 1
