"""Independent checks of CLI reports and the topology digest.

Nothing here imports ``equidist``: every check recomputes what it needs
from the input file with plain floats, so a check never calls the layer
whose time is being measured.
"""

from __future__ import annotations

import hashlib
import json
import math

# Relative tolerances, as a share of the configuration's coordinate scale.
EQUIDIST_TOL = 1e-7
CIRCLE_TOL = 1e-9
FOCAL_TOL = 1e-6


class VerificationError(Exception):
    """A report contradicts a property the benchmark recomputed from its input."""


def _scale(points) -> float:
    return max([1.0] + [max(abs(x), abs(y)) for x, y in points])


def _dist(a, b) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _hull_size(points) -> int:
    """Number of vertices of the convex hull (collinear boundary points excluded)."""
    pts = sorted(map(tuple, points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    return len(half(pts)) + len(half(reversed(pts))) - 2


def check_boundary(config: dict, result: dict) -> None:
    """Every chain vertex is equidistant from K and L; each edge lies on its bisector."""
    inner, outer = config["inner"], config["outer"]
    tol = EQUIDIST_TOL * _scale(inner + outer)
    chains = result["chains"]
    if result["chain_count"] != len(chains) or not chains:
        raise VerificationError("chain_count disagrees with the chains listed")
    for c, chain in enumerate(chains):
        verts = chain["vertices"]
        if len(verts) < 3 or len(chain["edge_pairs"]) != len(verts):
            raise VerificationError(f"chain {c} has {len(verts)} vertices")
        for v in verts:
            dk = min(_dist(v, x) for x in inner)
            dl = min(_dist(v, y) for y in outer)
            if abs(dk - dl) > tol:
                raise VerificationError(f"chain {c} vertex {v} is {dk - dl:.3g} off equidistance")
        for m, (i, j) in enumerate(chain["edge_pairs"]):
            for v in (verts[m], verts[(m + 1) % len(verts)]):
                if abs(_dist(v, inner[i]) - _dist(v, outer[j])) > tol:
                    raise VerificationError(f"chain {c} edge {m} leaves the bisector of ({i}, {j})")
    verdict = result["polytope"]
    split = "complement_disconnected" in verdict["reasons"]
    if split != (len(chains) != 1) or verdict["is_polytope"] != (not verdict["reasons"]):
        raise VerificationError("polytope verdict disagrees with the chain count")


def check_hypergraph(config: dict, result: dict) -> None:
    """Regular input; 2n - 2 - h empty circumcircles through their own triples."""
    if not result["regular"]:
        raise VerificationError("a generic ring configuration was reported irregular")
    pts = {"inner": config["inner"], "outer": config["outer"]}
    allpts = pts["inner"] + pts["outer"]
    n = len(allpts)
    want = 2 * n - 2 - _hull_size(allpts)
    edges = result["edges"]
    if len(edges) != want:
        raise VerificationError(f"{len(edges)} hyperedges, Delaunay count is {want}")
    seen = set()
    for e in edges:
        key = tuple(sorted((r["kind"], r["index"]) for r in e["refs"]))
        if len(set(key)) != 3 or key in seen:
            raise VerificationError(f"hyperedge refs {key} repeat")
        seen.add(key)
        center, radius = e["center"], e["radius"]
        tol = CIRCLE_TOL * max(radius, _scale(allpts))
        on = [pts[k][i] for k, i in key]
        if any(abs(_dist(center, p) - radius) > tol for p in on):
            raise VerificationError(f"circle of {key} misses its own points")
        if any(_dist(center, z) < radius - tol for z in allpts if z not in on):
            raise VerificationError(f"circle of {key} is not empty")


def check_pentagon(generator: dict, result: dict) -> None:
    """The certificate's focal sets equal the generating ones, up to order."""
    if not result["is_type_32"]:
        raise VerificationError("a (3,2) pentagon was not recognized")
    cert = result["certificate"]
    tol = FOCAL_TOL * _scale(generator["inner"] + generator["outer"])
    for kind in ("inner", "outer"):
        got, want = cert[kind], generator[kind]
        if len(got) != len(want) or any(min(_dist(g, w) for g in got) > tol for w in want):
            raise VerificationError(f"recovered {kind} focal points {got} differ from {want}")


def _min_rotation(seq: list) -> list:
    """Rotation-independent form of a cyclic sequence."""
    return min((seq[k:] + seq[:k] for k in range(len(seq))), default=seq)


def topology(command: str, result: dict | None, error: str | None):
    """Coordinate-free summary of one report: what must not change between versions."""
    if result is None:
        return ["error", error]
    if command == "boundary":
        chains = [_min_rotation([[vi["change_type"], vi["angle_type"], vi["inner_refs"],
                                  vi["outer_refs"], pair]
                                 for vi, pair in zip(ch["vertex_info"], ch["edge_pairs"])])
                  for ch in result["chains"]]
        verdict = result["polytope"]
        return [result["chain_count"], chains, verdict["is_polytope"], verdict["reasons"]]
    if command == "hypergraph":
        return sorted([e["color"], [[r["kind"], r["index"]] for r in e["refs"]]]
                      for e in result["edges"])
    return [result["is_type_32"]]


def digest(items) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()[:16]
