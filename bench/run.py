"""Closed-loop benchmark of the equidist command line.

Run from the repository root:

    python3 bench/run.py --workload boundary-ring --seed 1 --seconds 25 --trace 0

One client in one thread runs one CLI subcommand per op, in-process, through
``equidist.cli.run(RunConfig(command, input))`` with the report captured from
standard output, and sends the next op only when the previous one has
returned.  Each workload uses one command on
one input size; the inputs come from ``--seed`` and none repeats in a run.
Every op is verified outside the timed region by checks that do not call
the engine.

Timings are calibrated: a reference kernel (``ref.py``) is timed between
the ops and every duration is reported at reference speed.  The raw
figures are printed beside them.  ``--trace 1`` wraps the layers' public
functions from outside (``spans.py``) on every other op and reports
per-layer medians instead of the end-to-end metrics.

The summary goes to standard output; its last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import corpus
import ref
import verify

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    command: str
    corpus: str
    warmup: int  # untimed ops on inputs that the timed ops never see
    # Tail percentile, fixed per workload so that every run reports the same
    # one; a run continues past --seconds until TAIL_BEYOND samples lie
    # beyond it.  It is the highest percentile that stayed steady across
    # seeds on a shared 2-vCPU machine: further out, preemption by other
    # processes, which no calibration removes, or the few slowest inputs of
    # each seed's corpus decide the value (p99 of pentagon32, p90 of
    # boundary-ring and p90 of boundary-grid spread 20%, 12% and 8% there).
    tail_pct: float

    @property
    def min_ops(self) -> int:
        return round(TAIL_BEYOND * 100 / (100 - self.tail_pct))


# Why each workload exists is recorded in BENCHMARK.json.  Its workloads must
# be ones on which no op fails, so it lists only the two ring workloads: the
# other two run by name and count the engine's known StitchFailure, which no
# corpus here resamples around (about 1 in 200 boundary-grid inputs, where
# degenerate stitching is the point, and about 1 in 10^4 to 10^5 pentagon32
# inputs, elongated pentagons with vertices 10^3 to 10^5 units out).
WORKLOADS = {
    "boundary-ring": Workload("boundary", "ring-8-12", 2, 75.0),
    "hypergraph-ring": Workload("hypergraph", "ring-12-18", 3, 90.0),
    "boundary-grid": Workload("boundary", "grid", 5, 75.0),
    "pentagon32": Workload("recognize-pentagon", "pentagon", 200, 90.0),
}

DEFAULT_SEED = 1
DIGEST_OPS = 10  # the first timed ops, whose topology digest is stored for DEFAULT_SEED
REF_EVERY = 0.05  # seconds of op time between two kernel timings
SETUP_RUNS = 15


def check(command: str, doc: dict, generator, result: dict) -> None:
    if command == "boundary":
        verify.check_boundary(doc, result)
    elif command == "hypergraph":
        verify.check_hypergraph(doc, result)
    else:
        verify.check_pentagon(generator, result)


def measure_setup() -> tuple[float, float]:
    """Median calibrated and raw time for a fresh interpreter to import equidist.cli.

    Each child times its own import, which is what every CLI call pays
    before its command runs; the interpreter's start-up, which the engine
    does not control, stays out.  The child then times the set-up reference
    (ref.SETUP_SOURCE), which calibrates its import.
    """
    cmd = [sys.executable, "-c", "import marshal\nfrom time import perf_counter as now\n"
           "t0 = now()\nimport equidist.cli\nt1 = now()\n"
           f"code = compile({ref.SETUP_SOURCE!r}, 'setup_ref', 'exec')\n"
           "exec(marshal.loads(marshal.dumps(code)), {})\nprint(t1 - t0, now() - t1)"]
    env = dict(os.environ, PYTHONPATH=SRC)

    def child() -> tuple[float, float]:
        out = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        imported, reference = map(float, out.stdout.split())
        return imported, reference

    child()  # writes the bytecode caches
    runs = [child() for _ in range(SETUP_RUNS)]
    return (statistics.median(d * ref.speed_factor(r, ref.S0) for d, r in runs),
            statistics.median(d for d, _ in runs))


def _call(cli, command: str, in_path: str, tracer=None):
    """One op: (raw seconds, exit code, report text, error text).  Only cli.run is timed.

    The report goes to standard output, captured in memory as a CLI user's
    pipe would take it: a file write would add the file system's stalls,
    which drift independently of the engine and of the reference kernel.
    """
    rc = cli.RunConfig(command, in_path)
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install()
    try:
        t0 = perf_counter()
        code = cli.run(rc)
        raw = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
        out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        sys.stdout, sys.stderr = saved
    return raw, code, out, err


def run_ops(wl: Workload, seed: int, seconds: float, tracer, workdir: str):
    """The closed loop.

    Returns the raw op times, the error types of failed ops, the kernel times
    with the number of ops done before each, and the first ops' topologies.
    With a tracer, the even-numbered ops are traced.
    """
    from equidist import cli

    stream = corpus.stream(wl.corpus, seed)
    # Every op rewrites the same input file, so no op pays for a growing directory.
    in_path = os.path.join(workdir, "in.json")

    def next_input():
        doc, generator = next(stream)
        with open(in_path, "w", encoding="utf-8") as fh:
            fh.write(corpus.dumps(doc))
        return doc, generator

    for _ in range(wl.warmup):
        next_input()
        _call(cli, wl.command, in_path)

    raws, errors, topologies = array("d"), Counter(), []
    refs, ref_at = [], []
    since_ref = REF_EVERY
    start = perf_counter()
    while len(raws) < wl.min_ops or perf_counter() - start < seconds:
        i = len(raws)
        doc, generator = next_input()
        if since_ref >= REF_EVERY:
            refs.append(ref.time_kernel())
            ref_at.append(i)
            since_ref = 0.0
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.op = i
        raw, code, out, err = _call(cli, wl.command, in_path, tracer if traced else None)
        since_ref += raw

        result = error = None
        if code != 0:
            try:
                error = json.loads(err)["error"]["type"]
            except (ValueError, KeyError, TypeError):
                error = f"exit{code}"
        else:
            try:
                result = json.loads(out)["result"]
                check(wl.command, doc, generator, result)
            except verify.VerificationError as exc:
                error = "VerificationError"
                print(f"  op {i}: verification failed: {exc}")
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                result, error = None, "MalformedReport"
                print(f"  op {i}: malformed report: {exc!r}")
        if error:
            errors[error] += 1
        if i < DIGEST_OPS:
            topologies.append(verify.topology(wl.command, result, error))
        raws.append(raw)
    refs.append(ref.time_kernel())
    ref_at.append(len(raws))
    return raws, errors, refs, ref_at, topologies


def tail(values, pct: float) -> float:
    """Nearest-rank percentile pct of values."""
    return sorted(values)[math.ceil(pct / 100 * len(values)) - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "equidist", "cli.py")):
        sys.stderr.write(f"bench: no engine sources at {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, SRC)
    import equidist

    if os.path.dirname(os.path.abspath(equidist.__file__)) != os.path.join(SRC, "equidist"):
        sys.stderr.write(f"bench: imported equidist from {equidist.__file__}, not {SRC}\n")
        return 2

    wl = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_DIR)
    try:
        setup_s, wall_setup_s = measure_setup()
        raws, errors, refs, ref_at, topologies = run_ops(wl, args.seed, args.seconds, tracer,
                                                         workdir)
    finally:
        shutil.rmtree(workdir)

    n = len(raws)
    scale = [ref.speed_factor(ref.neighbour_ref(refs, ref_at, i)) for i in range(n)]
    cal = [raw * s for raw, s in zip(raws, scale)]
    failed = sum(errors.values())
    bad_reports = errors.get("VerificationError", 0) + errors.get("MalformedReport", 0)

    stored = {}
    if os.path.isfile(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            stored = json.load(fh).get(args.workload, {})
    digests = {"topology": verify.digest(topologies)}
    if tracer is not None and tracer.graph_edges:
        digests["graph_edges"] = verify.digest(
            [tracer.graph_edges[i] for i in sorted(tracer.graph_edges) if i < DIGEST_OPS])
    digest_ok = True

    print(f"workload {args.workload}: `{wl.command}` on {wl.corpus} inputs, seed {args.seed}, "
          f"closed loop, 1 client, {n} timed ops after {wl.warmup} warm-up ops")
    for key, value in digests.items():
        if args.seed != DEFAULT_SEED:
            note = f"stored for seed {DEFAULT_SEED} only"
        elif key not in stored:
            note = "not stored"
        elif stored[key] == value:
            note = "matches the stored digest"
        else:
            note = f"DIFFERS from the stored {stored[key]}"
            digest_ok = False
        print(f"  digest.{key:<12} {value}  ({note})")
    print(f"  verification     {n - bad_reports} of {n} reports pass")
    print(f"  fail_ratio       {failed / n:.6g} 1  ({failed} of {n} ops"
          + "".join(f", {count} {kind}" for kind, count in sorted(errors.items())) + ")")

    # (name, value, unit, note); the JSON line carries the end-to-end rows
    # untraced and every row traced, the raw wall.* rows only beside them.
    if tracer is None:
        rows = [
            ("ops_per_s", (n - failed) / sum(cal), "1/s", "at reference speed"),
            ("latency_p50_ms", statistics.median(cal) * 1e3, "ms", "at reference speed"),
            ("latency_tail_ms", tail(cal, wl.tail_pct) * 1e3, "ms",
             f"p{wl.tail_pct:g} of {n} samples, {n - math.ceil(wl.tail_pct / 100 * n)} beyond"),
            ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", ""),
            ("setup_s", setup_s, "s", "import equidist.cli in a fresh interpreter, "
             f"median of {SETUP_RUNS}"),
        ]
        plain = range(n)
    else:
        traced, plain = range(0, n, 2), range(1, n, 2)
        layer = spans.layer_metrics(tracer.per_op(), {i: scale[i] for i in traced},
                                    tracer.hyperedges, tracer.graph_edges)
        rows = [(k, v, unit, "at reference speed" if unit in ("ms", "us") else "")
                for k, (v, unit) in layer.items()]
        rows.append(("trace.overhead_ratio", statistics.median(cal[i] for i in traced)
                     / statistics.median(cal[i] for i in plain), "1", "traced / untraced op time"))
        span_file = os.path.join(WORK_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(span_file)
        print(f"  spans written to {os.path.relpath(span_file, ROOT)}")
    rows += [
        ("bench.ref_ms", statistics.median(refs) * 1e3, "ms", "raw kernel time"),
        ("wall.latency_p50_ms", statistics.median(raws[i] for i in plain) * 1e3, "ms",
         "raw, untraced ops"),
        ("wall.setup_s", wall_setup_s, "s", "raw"),
    ]
    for name, value, unit, note in rows:
        print(f"  {name:<40} {value:12.6g} {unit:<6} {note}")

    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in (rows if tracer is not None else rows[:5])}
    print(json.dumps({"correct": bad_reports == 0 and digest_ok, "attempted": n,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
