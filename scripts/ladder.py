"""Stage ladder: each engine stage timed alone over a fixed size ladder, written to BENCH_<n>.json.

Each (stage, size) runs in fresh child processes, each of which imports
``equidist`` from ``TREE/src`` and runs the stage k times.  Each run gets a new
``FocalConfig``, so no memo slot of an earlier run answers, and what the stage
reads before it starts is built untimed:

- ``build_body`` (which clips nothing), ``extract_boundary`` (the body, the
  tables, the shared gift-wrap and the walk, as a ``boundary`` op pays them),
  ``check_polytope`` (body, graph and walk) and ``_tables`` on a new config;
- ``inner_cells`` (the first read of the property: each component's clip and
  its cell) and ``build_graph`` on a built body;
- ``check_regularity`` and ``_subdivision``, the gift-wrap that the walk and
  the hypergraph share, on built tables;
- ``empty_circle_triples`` after ``check_regularity``: the gift-wrap and the
  circles;
- ``format_json`` of a ``boundary`` and of a ``hypergraph`` result.

A stage that raises on an input records the error's type instead of times
(``empty_circle_triples`` on an irregular grid input).  The child takes the
minimum of the k raw times, and the minimum of the passes of the reference
kernel ``bench/ref.py`` timed in the same child, one before each run (at least
three), and reports both the raw ms and the ms at reference speed
(raw * R0 / kernel), as the benchmark's workloads do.

Sizes: ring (8, 12), (12, 18) (the size of the ``hypergraph-ring`` workload),
(16, 24) and (32, 48) from ``corpus.ring_config(random.Random(p), p, q)``, and
one grid input, ``corpus.grid_config(random.Random(1))``.  ``bench/corpus.py``
and ``bench/ref.py`` are imported, never changed.  Whole CLI processes and the
(3,2) stages are not timed here.

Each (stage, size) runs in three children per tree, and its row keeps the
least raw ms and the least kernel ms of the three, and the ms at reference
speed of those two.  With ``--before``, a second tree's three children alternate
with the first tree's in pairs (the second tree first, then the first tree
first, then the second first), so a change of the machine's load falls on both
trees; the row carries the second tree's times, taken the same way, under
``before``, beside its commit.  The JSON records the tree's commit (``git
rev-parse HEAD``), whether its ``src`` differs from that commit, the Python
version and k.  In a tree from before ``_subdivision``, its stage times
``_delaunay_triangles`` on built tables.  Without ``--out`` it goes to the first
free ``BENCH_<n>.json`` in this checkout's root.

usage: python scripts/ladder.py [--tree TREE] [--before TREE] [--k K] [--size NAME ...]
                                [--out PATH]
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
import corpus  # noqa: E402
import ref  # noqa: E402

SIZES = {
    "ring-8-12": lambda: corpus.ring_config(random.Random(8), 8, 12),
    "ring-12-18": lambda: corpus.ring_config(random.Random(12), 12, 18),
    "ring-16-24": lambda: corpus.ring_config(random.Random(16), 16, 24),
    "ring-32-48": lambda: corpus.ring_config(random.Random(32), 32, 48),
    "grid": lambda: corpus.grid_config(random.Random(1)),
}
PAIRS = 3  # children per tree and (stage, size); each tree keeps its least times
STAGES = ("build_body", "inner_cells", "extract_boundary", "build_graph", "check_polytope",
          "_tables", "check_regularity", "_subdivision", "empty_circle_triples",
          "format_json boundary", "format_json hypergraph")


def stages() -> dict:
    """Stage name -> (setup of an input document, the timed call on what setup returned)."""
    from equidist import cli, polygon
    from equidist.body import build_body
    from equidist.connectivity import build_graph, check_polytope

    def after(step):
        """Setup: a new config on which step has run; its memo slot is the config's."""
        def setup(doc):
            cfg = cli.load_config(doc)
            step(cfg)
            return cfg
        return setup

    def body(doc):
        return build_body(cli.load_config(doc))

    def report(command):
        return lambda doc: cli.COMMANDS[command][0](cli.RunConfig(command, "-"), doc)

    gift_wrap = (after(polygon._tables), getattr(polygon, "_subdivision", None))
    if gift_wrap[1] is None:  # a tree from before the shared subdivision
        gift_wrap = (lambda doc: polygon._tables(cli.load_config(doc)),
                     polygon._delaunay_triangles)
    return {
        "build_body": (cli.load_config, build_body),
        "inner_cells": (body, lambda b: b.inner_cells),
        "extract_boundary": (cli.load_config, polygon.extract_boundary),
        "build_graph": (body, build_graph),
        "check_polytope": (cli.load_config, check_polytope),
        "_tables": (cli.load_config, polygon._tables),
        "check_regularity": (after(polygon._tables), polygon.check_regularity),
        "_subdivision": gift_wrap,
        "empty_circle_triples": (after(polygon.check_regularity), polygon.empty_circle_triples),
        "format_json boundary": (report("boundary"), cli.format_json),
        "format_json hypergraph": (report("hypergraph"), cli.format_json),
    }


def child(stage: str, size: str, k: int) -> dict:
    """One (stage, size): min of k raw times and of the kernel, in ms; or the error's type."""
    import equidist
    from equidist.errors import GeometryError

    setup, call = stages()[stage]
    doc = SIZES[size]()
    ref.kernel()  # the first pass warms the kernel's caches
    raws, kernels = [], []
    try:
        for _ in range(k):  # each run next to a kernel pass, so both see the same speed
            kernels.append(ref.time_kernel())
            arg = setup(doc)
            t0 = perf_counter()
            call(arg)
            raws.append(perf_counter() - t0)
    except GeometryError as exc:  # the input is outside the stage's domain
        return {"module": equidist.__file__, "error": type(exc).__name__}
    kernel = min(kernels + [ref.time_kernel() for _ in range(3 - k)])
    raw = min(raws)
    return {"module": equidist.__file__, "raw_ms": raw * 1e3,
            "ms": raw * ref.speed_factor(kernel) * 1e3, "kernel_ms": kernel * 1e3}


def run_child(tree: str, stage: str, size: str, k: int) -> dict:
    src = os.path.join(tree, "src")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", stage, size,
                           str(k)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    if proc.returncode != 0:
        raise SystemExit(f"ladder: the child for {stage} on {size} failed:\n{proc.stderr}")
    done = json.loads(proc.stdout)
    if not os.path.abspath(done.pop("module")).startswith(src + os.sep):
        raise SystemExit(f"ladder: the child for {stage} on {size} ran another equidist")
    return done


def least_times(children: list[dict]) -> dict:
    """One tree's times: its children's least raw ms and least kernel ms, and their ms.

    Each minimum is the time least slowed by load, and both are taken before the ratio: the
    child with the least ratio would be the one whose kernel ran slowest beside its stage.  A
    stage that raises raises in every child, so its first row stands for all.
    """
    if "error" in children[0]:
        return children[0]
    raw, kernel = (min(row[key] for row in children) for key in ("raw_ms", "kernel_ms"))
    return {"raw_ms": raw, "ms": raw * ref.speed_factor(kernel / 1e3), "kernel_ms": kernel}


def git(tree: str, *args: str) -> str | None:
    proc = subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def commit_of(tree: str) -> dict:
    """The tree's commit, and whether its src differs from it (None outside git)."""
    commit = git(tree, "rev-parse", "HEAD")
    return {"commit": commit, "src_differs": None if commit is None else
            bool(git(tree, "status", "--porcelain", "--", "src"))}


def next_path() -> str:
    n = next(n for n in itertools.count(1)
             if not os.path.exists(os.path.join(ROOT, f"BENCH_{n}.json")))
    return os.path.join(ROOT, f"BENCH_{n}.json")


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        print(json.dumps(child(argv[1], argv[2], int(argv[3]))))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", default=ROOT, help="source tree whose src is timed (default: this)")
    ap.add_argument("--before", help="a second tree, timed beside it (its times under 'before')")
    ap.add_argument("--k", type=int, default=5, help="runs per (stage, size); the minimum counts")
    ap.add_argument("--size", action="append", choices=sorted(SIZES),
                    help="sizes to run, repeatable (default: all)")
    ap.add_argument("--out", help="output path (default: the first free BENCH_<n>.json here)")
    args = ap.parse_args(argv)
    if args.k < 1:
        ap.error("--k must be at least 1")
    tree = os.path.abspath(args.tree)
    before = args.before and os.path.abspath(args.before)

    def times(row):
        return (f"{row['raw_ms']:10.3f} {row['ms']:10.3f}" if "error" not in row
                else f"{row['error']:>21}")

    rows = []
    for size in args.size or SIZES:
        for stage in STAGES:
            sides = [before, tree] if before else [tree]
            runs = {side: [] for side in sides}
            for pair in range(PAIRS):  # the order alternates, so load drift falls on both trees
                for side in sides if pair % 2 == 0 else sides[::-1]:
                    runs[side].append(run_child(side, stage, size, args.k))
            new, old = least_times(runs[tree]), before and least_times(runs[before])
            rows.append({"stage": stage, "size": size, **new})
            print(f"{stage:<24} {size:<11} {times(new)}"
                  + (f"   before {times(old)}" if old else ""))
            if old:
                rows[-1]["before"] = old
    result = {**commit_of(tree), "python": platform.python_version(), "k": args.k,
              "units": "raw_ms raw; ms at reference speed (bench/ref.py); kernel_ms raw",
              "stages": rows}
    if before:
        result["before"] = commit_of(before)
    out = args.out or next_path()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"ladder: {len(rows)} stages written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
