"""scripts/ab_bench.py on canned ``bench/run.py`` results: the summary, the order of runs, failures."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ab_bench.py"

# A stand-in for bench/run.py: prints a summary line and then the next canned
# result of its tree, and logs its tree, its options and the run's number.
FAKE_RUN = '''\
import json, os, pathlib, sys
tree = pathlib.Path(__file__).resolve().parents[1]
log = tree.parent / "log.jsonl"
number = len(log.read_text().splitlines()) if log.exists() else 0
with log.open("a") as fh:
    fh.write(json.dumps([tree.name, os.getcwd() == str(tree), sys.argv[1:]]) + "\\n")
runs = json.loads((tree / "canned.json").read_text())
mine = sum(1 for line in log.read_text().splitlines() if json.loads(line)[0] == tree.name)
print("workload: canned")
print(runs[mine - 1])
'''


def result(ops, p50, correct=True, failed=0):
    metrics = {"ops_per_s": ops, "latency_p50_ms": p50, "latency_tail_ms": 2 * p50,
               "peak_rss_mb": 23.0, "setup_s": 0.03}
    return json.dumps({"correct": correct, "attempted": 100, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}})


def trees(tmp_path, base_lines, head_lines):
    for name, lines in (("base", base_lines), ("head", head_lines)):
        (tmp_path / name / "bench").mkdir(parents=True)
        (tmp_path / name / "bench" / "run.py").write_text(FAKE_RUN)
        (tmp_path / name / "canned.json").write_text(json.dumps(lines))
    return tmp_path / "base", tmp_path / "head"


def ab(base, head, *options, workload="hypergraph-ring"):
    proc = subprocess.run([sys.executable, str(SCRIPT), str(base), str(head),
                           *(["--workload", workload] if workload else []), *options],
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def columns(out, name):
    return next(line for line in out.splitlines() if line.startswith(name + " ")).split()


def row(out, name):
    """A metric's columns up to its pairs won."""
    return columns(out, name)[:-1]


def verdict(out, name):
    return columns(out, name)[-1]


def test_summary_of_three_pairs(tmp_path):
    base, head = trees(tmp_path, [result(100, 8.0), result(110, 7.0), result(90, 9.0)],
                       [result(120, 6.0), result(105, 7.5), result(130, 6.5)])
    code, out = ab(base, head, "--pairs", "3", "--seconds", "0.5", "--seed", "9")
    assert code == 0, out
    assert "hypergraph-ring, seed 9, 3 pairs of 0.5 s runs" in out
    # medians 100 -> 120, inclusive quartiles [95, 105] and [112.5, 125]
    assert row(out, "ops_per_s") == ["ops_per_s", "1/s", "100", "[95,", "105]",
                                     "120", "[112.5,", "125]", "+20.00%", "2", "of", "3"]
    # lower is better: head won the first and the third pair
    assert row(out, "latency_p50_ms")[-6:] == ["[6.25,", "7]", "-18.75%", "2", "of", "3"]
    assert row(out, "peak_rss_mb")[-4:] == ["+0.00%", "0", "of", "3"]
    log = [json.loads(line) for line in (tmp_path / "log.jsonl").read_text().splitlines()]
    assert [tree for tree, _, _ in log] == ["base", "head", "head", "base", "base", "head"]
    assert all(in_tree for _, in_tree, _ in log)
    assert log[0][2] == ["--workload", "hypergraph-ring", "--seed", "9", "--seconds", "0.5"]


@pytest.mark.parametrize("bad, says", [
    (result(100, 8.0, correct=False), "pair 2 head: correct False, 0 of 100 ops failed"),
    (result(100, 8.0, failed=3), "pair 2 head: correct True, 3 of 100 ops failed"),
    ("no result here", "pair 2 head: exit 0, no JSON result line"),
])
def test_a_bad_run_fails_the_comparison(tmp_path, bad, says):
    base, head = trees(tmp_path, [result(100, 8.0)] * 2, [result(100, 8.0), bad])
    code, out = ab(base, head, "--pairs", "2")
    assert code == 1
    assert says in out
    assert "ab_bench: 1 runs failed or are not correct" in out


def test_without_a_workload_each_declared_workload_gets_its_summary(tmp_path):
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert len(declared) == 2
    base, head = trees(tmp_path, [result(100, 8.0), result(50, 4.0)],
                       [result(110, 8.0), result(40, 4.0)])
    code, out = ab(base, head, "--pairs", "1", "--seconds", "0.5", workload=None)
    assert code == 0, out
    log = [json.loads(line) for line in (tmp_path / "log.jsonl").read_text().splitlines()]
    assert [(tree, argv[1]) for tree, _, argv in log] == [
        ("base", declared[0]), ("head", declared[0]), ("base", declared[1]), ("head", declared[1])]
    summaries = out.split("ab_bench: ")[1:]
    assert [text.split(",")[0] for text in summaries] == declared
    assert row(summaries[0], "ops_per_s")[-4:] == ["+10.00%", "1", "of", "1"]
    assert row(summaries[1], "ops_per_s")[-4:] == ["-20.00%", "0", "of", "1"]


BOUND = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
STEADY = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


@pytest.mark.parametrize("base_ops, head_ops, says", [
    # every pair won by 10%, against a base interquartile range of about 1.5
    (STEADY, [1.1 * v for v in STEADY], "gain"),
    # won 9 of 10 pairs
    (STEADY, [1.1 * v for v in STEADY[:9]] + [0.9 * v for v in STEADY[9:]], "gain"),
    # won 8 of 10 pairs only
    (STEADY, [1.1 * v for v in STEADY[:8]] + [0.9 * v for v in STEADY[8:]], "flat"),
    # won every pair, by less than the base's interquartile range
    (STEADY, [v + 1 for v in STEADY], "flat"),
    # worse by 25%, beyond the bound of 20%
    (STEADY, [0.75 * v for v in STEADY], "worse"),
    # worse by 15%, within the bound
    (STEADY, [0.85 * v for v in STEADY], "flat"),
    # the base spreads by more than the bound
    ([60, 140, 80, 120, 100, 70, 130, 90, 110, 100], [1.05 * v for v in STEADY], "unresolved"),
    # the head spreads by more than the bound
    (STEADY, [60, 140, 80, 120, 100, 70, 130, 90, 110, 100], "unresolved"),
    # both spread widely, but every head run beats every base run
    ([50, 60, 70, 80, 55, 65, 75, 50, 60, 70], [200, 240, 280, 320, 220, 260, 300, 200, 240, 280],
     "gain"),
], ids=["gain", "won-9-of-10", "won-8-of-10", "within-the-spread", "worse", "within-the-bound",
        "base-spread", "head-spread", "every-head-run-beats-every-base-run"])
def test_verdicts(tmp_path, base_ops, head_ops, says):
    assert BOUND["ops_per_s"] == 0.2
    base, head = trees(tmp_path, [result(v, 8.0) for v in base_ops],
                       [result(v, 8.0) for v in head_ops])
    code, out = ab(base, head, "--pairs", "10")
    assert code == 0, out
    assert verdict(out, "ops_per_s") == says
    # equal runs on both sides
    assert verdict(out, "latency_p50_ms") == verdict(out, "peak_rss_mb") == "flat"


def test_lower_is_better_verdicts(tmp_path):
    base, head = trees(tmp_path, [result(100, v / 10) for v in STEADY],
                       [result(100, 1.15 * v / 10) for v in STEADY])
    code, out = ab(base, head, "--pairs", "10")
    assert code == 0, out
    # 15% longer: beyond the p50 bound of 12%, within the tail bound of 24% (the tail is 2 * p50)
    assert (BOUND["latency_p50_ms"], BOUND["latency_tail_ms"]) == (0.12, 0.24)
    assert verdict(out, "latency_p50_ms") == "worse"
    assert verdict(out, "latency_tail_ms") == "flat"


def test_each_run_compiles_into_its_own_empty_bytecode_cache(tmp_path, monkeypatch):
    # a tree's stale __pycache__ must not decide setup_s: every child run, base and head
    # alike, gets a new, empty PYTHONPYCACHEPREFIX, removed after the run
    spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
    ab_bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_bench)
    prefixes = []

    def fake_run(argv, cwd, capture_output, text, env):
        prefix = pathlib.Path(env["PYTHONPYCACHEPREFIX"])
        assert prefix.is_dir() and not any(prefix.iterdir())
        (prefix / "stale.pyc").write_bytes(b"")  # what a run leaves goes with its prefix
        prefixes.append(prefix)
        return subprocess.CompletedProcess(argv, 0, stdout=result(100, 8.0) + "\n", stderr="")

    monkeypatch.setattr(ab_bench.subprocess, "run", fake_run)
    base, head = trees(tmp_path, [], [])
    assert ab_bench.main([str(base), str(head), "--pairs", "2", "--workload", "boundary-ring"]) == 0
    assert len(prefixes) == 4 and len(set(prefixes)) == 4
    assert not any(prefix.exists() for prefix in prefixes)
