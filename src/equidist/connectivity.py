"""Weighted graph representation of a body and connectivity of body and interior.

Edge weights are the dimension of the pairwise intersections of the inner
cells, decided exactly, without tolerances, on the integer rows that each
component stores at its 2**k scale.  Two cells meet exactly when some disc
through both sites has no outer point inside it (the empty-circle test for a
Delaunay edge), and the centres of those discs lie on the sites' bisector.  So
each weight clips one line by the outer rows: an interval with interior gives
2, a single point 0 and an empty one -1.  The disc on the sites' segment is
tried first: with no outer point in it or on its circle, the weight is 2 with
no clip.  Components of different scalings are brought to the larger k by
shifts.
"""

from __future__ import annotations

from typing import NamedTuple

from .body import ConvexComponent, EquidistantBody, FocalConfig, build_body
from .errors import MismatchedOuterSet, Unbounded
from .polygon import extract_boundary
from .primitives import Point


class RepGraph(NamedTuple):
    """Graph on the inner focal points; an edge records the intersection dimension."""

    nodes: tuple[Point, ...]
    edges: tuple[tuple[int, int, int], ...]  # (i, j, weight) with i < j


class PolytopeVerdict(NamedTuple):
    is_polytope: bool
    reasons: tuple[str, ...]
    chain_count: int


REASON_UNBOUNDED = "unbounded"
REASON_INTERIOR_DISCONNECTED = "interior_disconnected"
REASON_COMPLEMENT_DISCONNECTED = "complement_disconnected"


def intersection_dim(a: ConvexComponent, b: ConvexComponent) -> int:
    """Exact dimension of the intersection of a's and b's cells: 2 area, 0 point, -1 empty.

    Raises ``MismatchedOuterSet`` unless a and b share the outer set.  The disc
    about a common point z of radius d(z, L), shrunk about one site and then the
    other, passes through both sites with no outer point inside.  So the cells
    meet exactly when such discs exist, and their centres lie on the sites'
    bisector, where a's outer rows alone clip them to an interval: with interior,
    bounded or not, it gives 2, a single point 0 and none -1.  A shared segment
    would force an inner point onto an outer one, and the clip box takes no part.

    Relative to a's site, a's row (x, y, c) toward an outer point l, with
    (x, y) = 2(l - a), keeps x*X + y*Y <= (x*x + y*y) / 4 at a point (X, Y), and
    the bisector is ((u, v) + t * (-v, u)) / 4, where (u, v) = 2(b - a) is a's
    first outer row minus b's, both at the larger 2**k by shifts.  So each row
    keeps t * d <= e, with d = y*u - x*v and e = x*(x - u) + y*(y - v), which is
    4 (l - a).(l - b): its row C takes no part.

    The smallest such disc is the one on the segment ab, at t = 0 (the Gabriel
    test; Gabriel & Sokal 1969).  By Thales, e > 0 exactly when l lies outside
    that closed disc, so when every row has e > 0, t = 0 keeps each of them
    strictly, the interval has interior and the weight is 2 with no clip.  An
    outer point on its circle gives e == 0 and goes on to the clip, which may
    close the interval to that one point.
    """
    if a.outer != b.outer:
        raise MismatchedOuterSet("components must share the outer set")
    (ra, _, ka, _), (rb, _, kb, _) = a._exact, b._exact
    k = max(ka, kb)
    da, db = k - ka, k - kb
    rows = ra[:len(a.outer)]
    if da:
        rows = [(x << da, y << da, c << 2 * da) for x, y, c in rows]
    u, v = rows[0][0] - (rb[0][0] << db), rows[0][1] - (rb[0][1] << db)
    if min(x * (x - u) + y * (y - v) for x, y, _ in rows) > 0:  # the disc on ab is empty
        return 2
    lo = hi = None  # the tightest bounds e / d on t, each with d > 0
    for x, y, _ in rows:
        d, e = y * u - x * v, x * (x - u) + y * (y - v)
        if d > 0:
            if hi is None or e * hi[1] < hi[0] * d:
                hi = e, d
        elif d < 0:
            if lo is None or e * lo[1] < lo[0] * d:  # -e / -d > lo
                lo = -e, -d
        elif e < 0:  # l lies between the sites
            return -1
    if lo is None or hi is None:
        return 2
    gap = hi[0] * lo[1] - lo[0] * hi[1]
    return 2 if gap > 0 else 0 if gap == 0 else -1


def build_graph(body: EquidistantBody) -> RepGraph:
    comps = body.components
    edges = []
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            w = intersection_dim(comps[i], comps[j])
            if w >= 0:
                edges.append((i, j, w))
    return RepGraph(nodes=tuple(c.site for c in comps), edges=tuple(edges))


def _components(n: int, pairs) -> list[list[int]]:
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def graph_components(g: RepGraph, min_weight: int = 0) -> list[list[int]]:
    pairs = [(i, j) for i, j, w in g.edges if w >= min_weight]
    return _components(len(g.nodes), pairs)


def is_connected(g: RepGraph) -> bool:
    """Connectivity of the body: every recorded edge counts."""
    return len(graph_components(g, min_weight=0)) == 1


def is_interior_connected(g: RepGraph) -> bool:
    """Connectivity of the interior: only edges of weight >= 1 count."""
    return len(graph_components(g, min_weight=1)) == 1


def decompose(cfg: FocalConfig) -> list[FocalConfig]:
    """Split the inner set along the connected components of the graph."""
    body = build_body(cfg)  # raises Unbounded
    groups = graph_components(build_graph(body))
    return [FocalConfig(inner=tuple(cfg.inner[i] for i in grp), outer=cfg.outer)
            for grp in groups]


def check_polytope(cfg: FocalConfig) -> PolytopeVerdict:
    """Full validity check: bounded, connected interior, connected complement.

    Complement connectedness is decided by the boundary consisting of exactly
    one simple closed chain.  All failed criteria are reported.
    """
    try:
        body = build_body(cfg)
    except Unbounded:
        return PolytopeVerdict(False, (REASON_UNBOUNDED,), 0)
    reasons = []
    if not is_interior_connected(build_graph(body)):
        reasons.append(REASON_INTERIOR_DISCONNECTED)
    chains = extract_boundary(cfg)
    if len(chains) != 1:
        reasons.append(REASON_COMPLEMENT_DISCONNECTED)
    return PolytopeVerdict(not reasons, tuple(reasons), len(chains))
