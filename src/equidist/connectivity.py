"""Weighted graph representation of a body and connectivity of body and interior.

Edge weights are the dimension of the pairwise component intersections,
computed exactly: the integer homogeneous clip of ``body`` cuts the clip box
by the integer bisector rows the two components were built from, in the one
scaling of their body, and the dimension is decided on the exact
homogeneous vertices, without tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

from .body import ConvexComponent, EquidistantBody, FocalConfig, build_body, is_bounded
from .body import _exact_clip, _orientation_det, _same_point
from .errors import MismatchedOuterSet
from .polygon import extract_boundary
from .primitives import Point


@dataclass(frozen=True)
class RepGraph:
    """Graph on the inner focal points; an edge records the intersection dimension."""

    nodes: tuple[Point, ...]
    edges: tuple[tuple[int, int, int], ...]  # (i, j, weight) with i < j


@dataclass(frozen=True)
class PolytopeVerdict:
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


def _intersection_exact(a: ConvexComponent, b: ConvexComponent):
    """Vertices (X, Y, W) of a ∩ b at the larger 2**k, and k: the box cut by a's, then b's rows."""
    if a.outer != b.outer or a.clip != b.clip:
        raise MismatchedOuterSet("components must share the outer set and clip box")
    (ra, box, ka), (rb, _, kb) = a._exact, b._exact
    k = max(ka, kb)
    rows = [(x << d, y << d, c << 2 * d) for rs, d in ((ra, k - ka), (rb, k - kb))
            for x, y, c in rs[:len(a.outer)]]
    box = tuple(v << k - ka for v in box)
    return [vert for vert, _ in _exact_clip(rows, box)], k


def intersection_dim(a: ConvexComponent, b: ConvexComponent) -> int:
    """Exact dimension of a ∩ b: 2 area, 1 segment, 0 point, -1 empty.

    For disjoint focal sets the segment case cannot arise (a shared boundary
    segment would force an inner point to coincide with an outer one), but
    the classifier decides all four outcomes uniformly.
    """
    return polygon_dim(_intersection_exact(a, b)[0])


def intersection_polygon(a: ConvexComponent, b: ConvexComponent) -> list[Point]:
    """Vertices of a ∩ b (exact clip, correctly rounded to floats; may be degenerate)."""
    verts, k = _intersection_exact(a, b)
    return [Point(x / (w << k), y / (w << k)) for x, y, w in verts]


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


def decompose(cfg: FocalConfig, clip_scale: float = 2.0) -> list[FocalConfig]:
    """Split the inner set along the connected components of the graph."""
    body = build_body(cfg, clip_scale)  # raises Unbounded
    groups = graph_components(build_graph(body))
    return [FocalConfig(inner=tuple(cfg.inner[i] for i in grp), outer=cfg.outer)
            for grp in groups]


def check_polytope(cfg: FocalConfig, clip_scale: float = 2.0) -> PolytopeVerdict:
    """Full validity check: bounded, connected interior, connected complement.

    Complement connectedness is decided by the boundary consisting of exactly
    one simple closed chain.  All failed criteria are reported.
    """
    if not is_bounded(cfg):
        return PolytopeVerdict(False, (REASON_UNBOUNDED,), 0)
    body = build_body(cfg, clip_scale)
    reasons = []
    if not is_interior_connected(build_graph(body)):
        reasons.append(REASON_INTERIOR_DISCONNECTED)
    chains = extract_boundary(cfg, clip_scale=clip_scale, body=body)
    if len(chains) != 1:
        reasons.append(REASON_COMPLEMENT_DISCONNECTED)
    return PolytopeVerdict(not reasons, tuple(reasons), len(chains))
