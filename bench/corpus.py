"""Seeded input generators for the benchmark workloads.

This module never imports ``equidist``: the inputs depend only on the seed,
so two versions of the engine receive byte-identical JSON files.
"""

from __future__ import annotations

import json
import math
import random
from itertools import combinations


def ring_config(rng: random.Random, p: int, q: int) -> dict:
    """q outer points jittered on a radius-10 ring, p inner points uniform in [-6, 6]^2.

    The angular jitter stays within a quarter of the spacing and the radius
    within [9.5, 10.5], so the outer hull keeps an inradius above 8.5 and
    contains every inner point: the body is bounded.
    """
    outer = []
    for k in range(q):
        angle = 2.0 * math.pi * (k + rng.uniform(-0.25, 0.25)) / q
        radius = 10.0 + rng.uniform(-0.5, 0.5)
        outer.append([radius * math.cos(angle), radius * math.sin(angle)])
    inner = [[rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0)] for _ in range(p)]
    return {"inner": inner, "outer": outer}


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_hull(points) -> set:
    """Integer points on the boundary of their convex hull, collinear ones included."""
    pts = sorted(points)

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) < 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = half(pts), half(reversed(pts))
    return set(lower) | set(upper)


def grid_config(rng: random.Random, n: int = 20, p: int = 8, half_width: int = 4) -> dict:
    """n distinct integer points of [-h, h]^2: hull points outer, p of the rest inner.

    Integer coordinates make collinear triples and concircular quadruples
    common, so exact ties and degenerate stitching run.  A draw with fewer
    than p points strictly inside the hull is redrawn: it has no valid split.
    """
    cells = [(x, y) for x in range(-half_width, half_width + 1)
             for y in range(-half_width, half_width + 1)]
    while True:
        points = rng.sample(cells, n)
        hull = _on_hull(points)
        rest = [pt for pt in points if pt not in hull]
        if len(rest) >= p:
            break
    inner = rng.sample(rest, p)
    outer = [pt for pt in points if pt not in set(inner)]
    return {"inner": [list(pt) for pt in inner], "outer": [list(pt) for pt in outer]}


def _circumcircle(a, b, c):
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if d == 0.0:
        return None
    a2, b2, c2 = a[0] ** 2 + a[1] ** 2, b[0] ** 2 + b[1] ** 2, c[0] ** 2 + c[1] ** 2
    ux = (a2 * (b[1] - c[1]) + b2 * (c[1] - a[1]) + c2 * (a[1] - b[1])) / d
    uy = (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0]) + c2 * (b[0] - a[0])) / d
    return (ux, uy), math.hypot(a[0] - ux, a[1] - uy)


def _segments_cross(p1, p2, p3, p4) -> bool:
    d1, d2 = _cross(p3, p4, p1), _cross(p3, p4, p2)
    d3, d4 = _cross(p1, p2, p3), _cross(p1, p2, p4)
    return d1 * d2 < 0 and d3 * d4 < 0


def _is_simple(poly) -> bool:
    n = len(poly)
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            if _segments_cross(poly[i], poly[i + 1], poly[j], poly[(j + 1) % n]):
                return False
    return True


def boundary_cycles(inner, outer):
    """Circumcentres of the bichromatic empty-circle triples, grouped into boundary cycles.

    Float brute force: a triple mixing inner and outer points is kept when no
    other focal point lies inside its circumcircle.  Two kept triples are
    consecutive on the boundary when they share an inner-outer pair.
    """
    pts = [(tuple(x), "inner") for x in inner] + [(tuple(y), "outer") for y in outer]
    triples = {}
    for tri in combinations(range(len(pts)), 3):
        kinds = {pts[i][1] for i in tri}
        if len(kinds) != 2:
            continue
        circ = _circumcircle(*(pts[i][0] for i in tri))
        if circ is None:
            return None
        (cx, cy), r = circ
        if all(math.hypot(pts[k][0][0] - cx, pts[k][0][1] - cy) > r
               for k in range(len(pts)) if k not in tri):
            pairs = [e for e in combinations(tri, 2) if pts[e[0]][1] != pts[e[1]][1]]
            triples[tri] = ((cx, cy), pairs)
    by_pair = {}
    for tri, (_, pairs) in triples.items():
        for e in pairs:
            by_pair.setdefault(e, []).append(tri)
    if any(len(t) != 2 for t in by_pair.values()):
        return None
    cycles, seen = [], set()
    for start in triples:
        if start in seen:
            continue
        cycle, tri, via = [], start, None
        while tri not in seen:
            seen.add(tri)
            cycle.append(triples[tri][0])
            nxt = [e for e in triples[tri][1] if e != via][0]
            a, b = by_pair[nxt]
            tri, via = (b if a == tri else a), nxt
        cycles.append(cycle)
    return cycles


def _inside_triangle(pt, tri) -> bool:
    s = [_cross(tri[i], tri[(i + 1) % 3], pt) for i in range(3)]
    return all(v > 0 for v in s) or all(v < 0 for v in s)


def pentagon_shape(rng: random.Random) -> tuple[dict, dict]:
    """A (3,2) pentagon and the focal configuration that generated it.

    Random configurations of three outer and two inner points in
    [-10, 10]^2 are drawn until the inner points lie inside the outer
    triangle (bounded body) and the boundary cycles form one simple pentagon.
    """
    while True:
        outer = [(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)) for _ in range(3)]
        inner = [(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)) for _ in range(2)]
        if not all(_inside_triangle(x, outer) for x in inner):
            continue
        cycles = boundary_cycles(inner, outer)
        if cycles is None or len(cycles) != 1 or len(cycles[0]) != 5:
            continue
        poly = cycles[0]
        if _is_simple(poly):
            config = {"inner": [list(x) for x in inner], "outer": [list(y) for y in outer]}
            return {"polygon": [list(v) for v in poly]}, config


def stream(kind: str, seed: int):
    """Endless input stream: (input document, generating data or None) pairs."""
    rng = random.Random(seed)
    while True:
        if kind == "ring-8-12":
            yield ring_config(rng, 8, 12), None
        elif kind == "ring-12-18":
            yield ring_config(rng, 12, 18), None
        elif kind == "grid":
            yield grid_config(rng), None
        elif kind == "pentagon":
            yield pentagon_shape(rng)
        else:
            raise ValueError(f"unknown corpus {kind!r}")


def dumps(doc: dict) -> str:
    """Canonical input file text: float repr round-trips, key order fixed."""
    return json.dumps(doc, sort_keys=True) + "\n"
