"""Weighted graph representation of a body and connectivity of body and interior.

Edge weights are the dimension of the pairwise component intersections,
decided exactly, without tolerances, on the integer rows that each component
stores at its 2**k scale.  First a witness: a vertex of one component's raw
clip with positive exact slack on every outer row and box side of the other
lies in the open interior of the other, and a component has area whenever
its box has, so the pair has weight 2.  Only a pair without such a vertex
either way is clipped: the integer homogeneous clip of ``body`` continues the
first component's stored clip with the second one's rows, and the dimension
is decided on the exact homogeneous vertices.  Components of different
scalings are brought to the larger k by shifts.
"""

from __future__ import annotations

from typing import NamedTuple

from .body import ConvexComponent, EquidistantBody, FocalConfig, build_body
from .body import _exact_clip, _float_point, _orientation_det, _same_point
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


def polygon_dim(verts) -> int:
    """Dimension of an exact (possibly degenerate) convex polygon: -1, 0, 1 or 2.

    The vertices are homogeneous triples (X, Y, W) with W > 0: two are equal
    when they match after cross-multiplying, three are collinear when their
    3x3 determinant vanishes.
    """
    if not verts:
        return -1
    other = next((v for v in verts if not _same_point(verts[0], v)), None)
    if other is None:
        return 0
    return 2 if any(_orientation_det(verts[0], other, v) for v in verts) else 1


def _require_shared(a: ConvexComponent, b: ConvexComponent) -> None:
    if a.outer != b.outer or a.clip != b.clip:
        raise MismatchedOuterSet("components must share the outer set and clip box")


def _interior_vertex(a: ConvexComponent, b: ConvexComponent) -> bool:
    """True iff a vertex of a's raw clip has positive exact slack on b's outer rows and box sides.

    Such a vertex lies in the open interior of b, and a, which has area
    whenever its box does, meets each neighbourhood of it in positive area:
    then a ∩ b has area.  Both are brought to the larger 2**k by shifts: a's
    vertices by k - ka, and b's rows, box sides included, by d = k - kb to
    (x << d, y << d, c << 2d), the same half-plane scaled by 2**d.
    """
    (_, _, ka, verts), kb = a._exact, b._exact[2]
    k = max(ka, kb)
    da, db = k - ka, k - kb
    lines = b._lines
    if db:
        lines = [(x << db, y << db, c << 2 * db) for x, y, c in lines]
    return any(all(c * w > (u * x + v * y) << da for u, v, c in lines)
               for (x, y, w), _ in verts)


def _intersection_exact(a: ConvexComponent, b: ConvexComponent):
    """Vertices (X, Y, W) of a ∩ b at the larger 2**k, and k: a's raw clip cut by b's rows."""
    (ra, box, ka, verts), (rb, _, kb, _) = a._exact, b._exact
    k, q = max(ka, kb), len(a.outer)
    rows = [(x << d, y << d, c << 2 * d) for rs, d in ((ra, k - ka), (rb, k - kb))
            for x, y, c in rs[:q]]
    box = tuple(v << k - ka for v in box)
    verts = [((x << k - ka, y << k - ka, w), e) for (x, y, w), e in verts]  # same points at k
    return [vert for vert, _ in _exact_clip(rows, box, verts, q)], k


def intersection_dim(a: ConvexComponent, b: ConvexComponent) -> int:
    """Exact dimension of a ∩ b: 2 area, 1 segment, 0 point, -1 empty.

    Raises ``MismatchedOuterSet`` unless a and b share the outer set and clip
    box.  A vertex of either raw clip in the open interior of the other
    certifies 2; only a pair without one is clipped, and ``polygon_dim``
    decides its dimension.  For disjoint focal sets in a box with area the
    segment case cannot arise (a shared boundary segment would force an inner
    point to coincide with an outer one), but the classifier decides all four
    outcomes uniformly.
    """
    _require_shared(a, b)
    if _interior_vertex(a, b) or _interior_vertex(b, a):
        return 2
    return polygon_dim(_intersection_exact(a, b)[0])


def intersection_polygon(a: ConvexComponent, b: ConvexComponent) -> list[Point]:
    """Vertices of a ∩ b (exact clip, correctly rounded to floats; may be degenerate)."""
    _require_shared(a, b)
    verts, k = _intersection_exact(a, b)
    return [_float_point(vert, k) for vert in verts]


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
