"""A/B benchmark of two source trees: alternating ``bench/run.py`` runs, summarised per metric.

Runs ``bench/run.py --workload W --seed S --seconds T`` in BASE and in HEAD,
each from its own root, so each tree's harness times each tree's engine.
Without ``--workload`` it compares every workload of this checkout's
``BENCHMARK.json`` in turn, so a claimed gain and its control come from one
command, and prints one summary per workload.  The pairs alternate their
order, base first and then head first, so a drift of the machine's speed
falls on both sides.  Each run's last line of output is
its JSON result.  For each end-to-end metric of ``BENCHMARK.json`` the script
prints the median and quartiles of each side, the relative change of the
medians, in how many pairs HEAD was strictly better, in the metric's own
direction, and a verdict against the metric's ``bound``:

- ``worse``: the head median is worse than the base median by more than the bound;
- ``unresolved``: either side's interquartile range exceeds the bound times its
  median, unless every head run beats every base run;
- ``gain``: head won at least 9 in 10 of the pairs, and its median beats the base
  median by more than the base's interquartile range;
- ``flat``: none of these.

The first that holds is printed.  It imports no engine code.  Each run gets a
new, empty bytecode cache (``PYTHONPYCACHEPREFIX``, a temporary directory removed
after the run), which its children inherit, so neither tree's ``__pycache__``
decides ``setup_s``; it writes no file in either tree.

Exits 1 if any run prints no result, is not ``correct`` or has failed ops,
and 0 otherwise.

usage: python scripts/ab_bench.py BASE HEAD [--workload W] [--pairs N] [--seconds S] [--seed S]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def declared() -> dict:
    """This checkout's BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(tree: str, workload: str, seconds: float, seed: int) -> tuple[dict | None, str]:
    """One ``bench/run.py`` run in tree, with its own empty bytecode cache: (its JSON result
    or None, why it has none)."""
    with tempfile.TemporaryDirectory(prefix="ab_bench_pycache_") as cache:
        proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"),
                               "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds)],
                              cwd=tree, capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPYCACHEPREFIX=cache))
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), ""
    except (IndexError, ValueError):
        return None, f"exit {proc.returncode}, no JSON result line\n{proc.stderr.strip()}"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(base: list[float], head: list[float], won: int, higher: bool, bound: float) -> str:
    """worse, unresolved, gain or flat (see the module docstring); head won ``won`` pairs."""
    sign = 1 if higher else -1
    (bq1, bmed, bq3), (hq1, hmed, hq3) = quartiles(base), quartiles(head)
    if sign * (bmed - hmed) > bound * abs(bmed):
        return "worse"
    wide = bq3 - bq1 > bound * abs(bmed) or hq3 - hq1 > bound * abs(hmed)
    if wide and not all(sign * (h - b) > 0 for h in head for b in base):
        return "unresolved"
    if 10 * won >= 9 * len(base) and sign * (hmed - bmed) > bq3 - bq1:
        return "gain"
    return "flat"


def summary(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> list[str]:
    """A header and one line per metric: medians, quartiles, change, pairs won and verdict."""
    lines = [f"{'metric':<18} {'unit':<5} {'base median [q1, q3]':>30} "
             f"{'head median [q1, q3]':>30} {'change':>8}  head won  verdict"]
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        head = [h["metrics"][name]["value"] for _, h in pairs]
        won = sum(h > b if higher else h < b for b, h in zip(base, head))
        stats = [quartiles(base), quartiles(head)]
        sides = [f"{median:.6g} [{q1:.6g}, {q3:.6g}]" for q1, median, q3 in stats]
        change = stats[1][1] / stats[0][1] - 1 if stats[0][1] else math.nan
        lines.append(f"{name:<18} {metric['unit']:<5} {sides[0]:>30} {sides[1]:>30} "
                     f"{change:>+8.2%}  {f'{won} of {len(pairs)}':<8}  "
                     f"{verdict(base, head, won, higher, metric['bound'])}")
    return lines


def compare(trees: dict, workload: str, args, metrics: list[dict]) -> int:
    """Alternating pairs of runs of one workload, and their summary; returns the bad runs."""
    pairs, bad = [], 0
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        results = {}
        for side in order:
            result, why = run(trees[side], workload, args.seconds, args.seed)
            if result is None:
                print(f"pair {i + 1} {side}: {why}")
                bad += 1
                continue
            if not result.get("correct") or result.get("failed"):
                print(f"pair {i + 1} {side}: correct {result.get('correct')}, "
                      f"{result.get('failed')} of {result.get('attempted')} ops failed")
                bad += 1
            results[side] = result
        if len(results) == 2:
            pairs.append((results["base"], results["head"]))
    print(f"ab_bench: {workload}, seed {args.seed}, {len(pairs)} pairs of "
          f"{args.seconds:g} s runs, {trees['base']} -> {trees['head']}")
    if pairs:
        print("\n".join(summary(metrics, pairs)))
    return bad


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--workload", help="default: every workload of BENCHMARK.json, in turn")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    trees = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}
    bench = declared()
    workloads = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    bad = sum(compare(trees, workload, args, bench["end_to_end"]) for workload in workloads)
    if bad:
        print(f"ab_bench: {bad} runs failed or are not correct")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
