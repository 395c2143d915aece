"""Compare the CLI reports of two source trees on a fixed seeded input matrix.

Writes the matrix's input files into a temporary directory, then starts one
child process per source tree.  Each child imports ``equidist.cli`` from
``TREE/src`` and runs every (command, input) of the matrix through
``cli.main``, capturing stdout, stderr, the exit code and, for ``render``,
the SVG document.  So a failure report (its error object on stderr and its exit
code, or argparse's message and exit 2) is compared like a success.  Prints
each (command, input) on which the trees differ, in any of the four, and exits
1 on any difference, 0 when every report is byte-identical.

The inputs come from ``bench/corpus.py`` (imported, never changed):

- every subcommand on ring (8, 12), ring (12, 18) and grid configurations, and
  ``boundary`` and ``body`` again at ``--eps 1e-3``, so that ``boundary`` walks
  at 1e-3 and then, for its polytope verdict, at the default eps.  One process
  runs every report, so each starts with the memo slots the one before it left;
- ``graph`` and ``boundary`` on grid input 10, whose inner cells meet in a single
  point on five pairs (weight 0): the other inputs have weights 2 and -1 only;
- ``classify32`` and ``voronoi-check`` on the (2, 3) configurations that
  generate the corpus pentagons, and ``recognize-pentagon`` and ``render`` on
  the pentagons;
- ``construct-quad`` on seeded concave quadrangles, with and without ``--t``;
- failures and a negative verdict: every subcommand of the first item on an
  unbounded (2, 3) configuration, ``boundary`` and ``hypergraph`` on a
  configuration with a point both inner and outer, whose error message embeds
  the point's ``repr``, and on one with no inner point (``InvalidConfig``),
  ``recognize-pentagon`` on a convex pentagon
  (not (3,2)), ``construct-quad`` on a convex quadrangle (``MalformedQuad``)
  and on two flat darts: one across the origin, whose rounded certificate's walk
  splits the double vertex, and dart 10 of the quadrangles below flattened by
  y * 0.001, which failed a float round trip, and ``recognize-pentagon``,
  ``construct-quad`` and ``voronoi-check`` with ``--eps 1e-3``, an option none
  of them reads;
- inputs far from the origin: ``body`` and ``boundary`` on a triangle at
  2e155 +- 1e150, whose squared coordinates leave the float range but whose
  squared distances do not, ``body`` and ``voronoi-check`` on the first
  ring (8, 12) configuration shifted by (1e9, -1e9), and ``recognize-pentagon``
  and ``construct-quad`` on the first pentagon and quadrangle shifted by
  (2**33, 2**33), which the exact round trip certifies as it does the unshifted ones;
- ``render --show-circles --show-voronoi`` on the first ring (8, 12)
  configuration scaled by 2**-40, a scene smaller than any absolute length;
- ``hypergraph`` where its integers are largest: on the first ring (12, 18)
  configuration shifted by (1e9, -1e9) and scaled by 2**-40, and on a regular
  configuration whose circle keys overflow the float range, two of them
  colliding at +inf, and whose circles leave it (``NumericalDegeneracy``).

usage: python scripts/compare_reports.py BASE_TREE HEAD_TREE
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
import corpus  # noqa: E402

SVG = "out.svg"
CONFIG_COMMANDS = (
    ["body"], ["graph"], ["boundary"], ["hypergraph"], ["classify32"],
    ["voronoi-check", "--samples", "500"], ["render", "--out", SVG],
    ["render", "--out", SVG, "--show-circles", "--show-voronoi"],
    ["recognize-pentagon"], ["construct-quad"],
    ["boundary", "--eps", "1e-3"], ["body", "--eps", "1e-3"],
)


def concave_quad(rng: random.Random) -> dict:
    """A ccw dart a, b, c, d: c strictly inside the triangle a, b, d, so its angle is reflex."""
    while True:
        a, b, d = [(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)) for _ in range(3)]
        if (b[0] - a[0]) * (d[1] - a[1]) - (b[1] - a[1]) * (d[0] - a[0]) > 20.0:  # ccw, not flat
            break
    wa, wb = rng.uniform(0.1, 0.4), rng.uniform(0.2, 0.4)
    wd = 1.0 - wa - wb
    c = (wa * a[0] + wb * b[0] + wd * d[0], wa * a[1] + wb * b[1] + wd * d[1])
    return {"polygon": [list(a), list(b), list(c), list(d)]}


FAILURES = {
    "unbounded.json": {"inner": [[0.25, 0.5], [5.0, 5.0]], "outer": [[0, 0], [2, 0], [0, 2]]},
    "convex-pentagon.json": {"polygon": [[0, 0], [4, 0], [5, 3], [2, 5], [-1, 3]]},
    "convex-quad.json": {"polygon": [[0, 0], [4, 0], [4, 3], [0, 3]]},
    "flat-dart.json": {"polygon": [[-4.746586673800708, -0.005902946252310706],
                                   [-3.167287754935413, -0.024408559805269937],
                                   [9.356261398575892, 0.08935820283430503],
                                   [9.991162478251315, 0.09483758907482023]]},
    "flat-dart-10.json": {"polygon": [[4.75654705427813, 0.00656377336509064],
                                      [-2.9990969714025812, 0.0068575917441357674],
                                      [2.2919707282074198, 0.006074977522100838],
                                      [7.398225049223225, 0.0037667391374385435]]},
    "far-triangle.json": {"inner": [[2e155, 0]], "outer": [[2.00001e155, 0],
                                                           [1.99999e155, 1e150],
                                                           [1.99999e155, -1e150]]},
    "shared-point.json": {"inner": [[0, 0], [1, 2]], "outer": [[1, 2], [4, 0], [0, 4]]},
    "empty-inner.json": {"inner": [], "outer": [[1, 2], [4, 0], [0, 4]]},
    "overflow-keys.json": {"inner": [[0.0, 0.0], [1e300, 1e-300]],
                           "outer": [[1e-300, 0.0], [-1e300, 1e-300]]},
}


def matrix() -> tuple[dict, list[list[str]]]:
    """(input file name -> document, argv of each report)."""
    inputs, jobs = {}, []
    for kind, seed, count in (("ring-8-12", 1, 3), ("ring-12-18", 2, 2), ("grid", 3, 2)):
        for k, (doc, _) in zip(range(count), corpus.stream(kind, seed)):
            name = f"{kind}-{k}.json"
            inputs[name] = doc
            jobs += [[cmd[0], name] + cmd[1:] for cmd in CONFIG_COMMANDS]
    inputs["grid-10.json"] = next(itertools.islice(corpus.stream("grid", 3), 10, None))[0]
    jobs += [["graph", "grid-10.json"], ["boundary", "grid-10.json"]]
    for k, (shape, config) in zip(range(4), corpus.stream("pentagon", 4)):
        inputs[f"pentagon-{k}.json"], inputs[f"generator-{k}.json"] = shape, config
        jobs += [["recognize-pentagon", f"pentagon-{k}.json"],
                 ["render", f"pentagon-{k}.json", "--out", SVG],
                 ["classify32", f"generator-{k}.json"],
                 ["voronoi-check", f"generator-{k}.json", "--samples", "500"]]
    rng = random.Random(5)
    for k in range(4):
        name = f"quad-{k}.json"
        inputs[name] = concave_quad(rng)
        jobs += [["construct-quad", name], ["construct-quad", name, "--t", "0.25"]]
    inputs.update(FAILURES)
    jobs += [[cmd[0], "unbounded.json"] + cmd[1:] for cmd in CONFIG_COMMANDS]
    jobs += [["recognize-pentagon", "convex-pentagon.json"],
             ["construct-quad", "convex-quad.json"], ["construct-quad", "flat-dart.json"],
             ["construct-quad", "flat-dart-10.json"],
             ["boundary", "shared-point.json"], ["hypergraph", "shared-point.json"],
             ["boundary", "empty-inner.json"], ["hypergraph", "empty-inner.json"],
             ["recognize-pentagon", "pentagon-0.json", "--eps", "1e-3"],
             ["construct-quad", "quad-0.json", "--eps", "1e-3"],
             ["voronoi-check", "ring-8-12-0.json", "--eps", "1e-3"]]
    inputs["ring-8-12-0-shifted.json"] = {
        side: [[x + 1e9, y - 1e9] for x, y in inputs["ring-8-12-0.json"][side]]
        for side in ("inner", "outer")}
    jobs += [["body", "far-triangle.json"], ["boundary", "far-triangle.json"],
             ["body", "ring-8-12-0-shifted.json"],
             ["voronoi-check", "ring-8-12-0-shifted.json", "--samples", "500"]]
    for name in ("pentagon-0.json", "quad-0.json"):
        inputs[name.replace(".json", "-shifted.json")] = {
            "polygon": [[x + 2**33, y + 2**33] for x, y in inputs[name]["polygon"]]}
    for name in ("ring-8-12-0.json", "ring-12-18-0.json"):
        inputs[name.replace(".json", "-tiny.json")] = {
            side: [[math.ldexp(x, -40), math.ldexp(y, -40)] for x, y in inputs[name][side]]
            for side in ("inner", "outer")}
    inputs["ring-12-18-0-shifted.json"] = {
        side: [[x + 1e9, y - 1e9] for x, y in inputs["ring-12-18-0.json"][side]]
        for side in ("inner", "outer")}
    jobs += [["recognize-pentagon", "pentagon-0-shifted.json"],
             ["construct-quad", "quad-0-shifted.json"],
             ["render", "ring-8-12-0-tiny.json", "--out", SVG, "--show-circles", "--show-voronoi"],
             ["hypergraph", "ring-12-18-0-shifted.json"], ["hypergraph", "ring-12-18-0-tiny.json"],
             ["hypergraph", "overflow-keys.json"]]
    return inputs, jobs


def child() -> None:
    """Run the argv list read from stdin through ``cli.main``; write the results to stdout."""
    from equidist import cli

    jobs = json.load(sys.stdin)
    results = []
    for argv in jobs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(SVG)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the options
                code = exc.code
        svg = None
        if os.path.exists(SVG):
            with open(SVG, encoding="utf-8") as fh:
                svg = fh.read()
        results.append({"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code,
                        "svg": svg})
    json.dump({"module": cli.__file__, "results": results}, sys.stdout)


def run_tree(tree: str, workdir: str, jobs: list) -> list[dict]:
    src = os.path.join(os.path.abspath(tree), "src")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child"],
                          input=json.dumps(jobs), capture_output=True, text=True, cwd=workdir,
                          env={**os.environ, "PYTHONPATH": src})
    if proc.returncode != 0:
        raise SystemExit(f"compare_reports: the child for {tree} failed:\n{proc.stderr}")
    done = json.loads(proc.stdout)
    if not os.path.abspath(done["module"]).startswith(src + os.sep):
        raise SystemExit(f"compare_reports: {tree} ran {done['module']}, not its own cli")
    return done["results"]


def main(argv: list[str]) -> int:
    if len(argv) == 1 and argv[0] == "--child":
        child()
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    inputs, jobs = matrix()
    with tempfile.TemporaryDirectory() as workdir:
        for name, doc in inputs.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(corpus.dumps(doc))
        base, head = (run_tree(tree, workdir, jobs) for tree in argv)
    differ = 0
    for job, old, new in zip(jobs, base, head):
        parts = [key for key in ("stdout", "stderr", "exit", "svg") if old[key] != new[key]]
        if parts:
            differ += 1
            print(f"differs: {' '.join(job)}: {', '.join(parts)}")
    print(f"compare_reports: {len(jobs)} reports, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
