"""Weighted graph representation of a body and connectivity of body and interior.

Edge weights are the dimension of the pairwise component intersections,
computed exactly.  Every float is a dyadic rational, so scaling all
coordinates of a pair by one common power of two 2**k turns the bisector
half-planes into rows A*x + B*y <= C with integer coefficients.  The clip
runs in integer homogeneous coordinates: each vertex (X, Y, W), W > 0, is
the meet of the two original rows that carry its edges, never an
interpolation of earlier vertices, so the integers keep a bounded size and
the dimension is decided without tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

from .body import ConvexComponent, EquidistantBody, FocalConfig, build_body, is_bounded
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


def _exact_clip(rows, box):
    """Sutherland-Hodgman clip of an integer box by integer half-planes, exactly.

    ``box`` is (xmin, ymin, xmax, ymax) and each row (A, B, C) keeps
    A*x + B*y <= C.  Returns the vertices as homogeneous triples (X, Y, W)
    with W > 0; a vertex is kept when C*W - A*X - B*Y >= 0.
    """
    xmin, ymin, xmax, ymax = box
    # each vertex is paired with the row that carries its edge to the next one
    verts = [((xmin, ymin, 1), (0, -1, -ymin)), ((xmax, ymin, 1), (1, 0, xmax)),
             ((xmax, ymax, 1), (0, 1, ymax)), ((xmin, ymax, 1), (-1, 0, -xmin))]
    for row in rows:
        a, b, c = row
        svals = [c * w - a * x - b * y for (x, y, w), _ in verts]
        out = []
        n = len(verts)
        for i, (vert, edge) in enumerate(verts):
            sa, sb = svals[i], svals[i + 1 - n]
            if sa >= 0:
                out.append((vert, edge))
                if sb < 0:
                    out.append((_meet(edge, row), row))
            elif sb >= 0:
                out.append((_meet(edge, row), edge))
        verts = out
        if not verts:
            break
    return [vert for vert, _ in verts]


def _meet(r, s):
    """Homogeneous intersection point of the boundary lines of two rows, W > 0."""
    a1, b1, c1 = r
    a2, b2, c2 = s
    x, y, w = c1 * b2 - c2 * b1, a1 * c2 - a2 * c1, a1 * b2 - a2 * b1
    return (x, y, w) if w > 0 else (-x, -y, -w)


def polygon_dim(verts) -> int:
    """Dimension of an exact (possibly degenerate) convex polygon: -1, 0, 1 or 2.

    The vertices are homogeneous triples (X, Y, W) with W > 0: two are equal
    when they match after cross-multiplying, three are collinear when their
    3x3 determinant vanishes.
    """
    if not verts:
        return -1
    x1, y1, w1 = verts[0]
    for x2, y2, w2 in verts:
        if x2 * w1 != x1 * w2 or y2 * w1 != y1 * w2:
            break
    else:
        return 0
    for x3, y3, w3 in verts:
        if x1 * (y2 * w3 - y3 * w2) - y1 * (x2 * w3 - x3 * w2) + w1 * (x2 * y3 - x3 * y2):
            return 2
    return 1


def _intersection_exact(a: ConvexComponent, b: ConvexComponent):
    """Homogeneous vertices of a ∩ b in coordinates scaled by 2**k, and k."""
    if a.outer != b.outer or a.clip != b.clip:
        raise MismatchedOuterSet("components must share the outer set and clip box")
    clip = a.clip
    values = [v for p in (a.site, b.site, *a.outer) for v in (p.x, p.y)]
    values += [clip.xmin, clip.ymin, clip.xmax, clip.ymax]
    ratios = [v.as_integer_ratio() for v in values]  # denominators are powers of two
    k = max(d.bit_length() for _, d in ratios) - 1
    ints = [n << (k + 1 - d.bit_length()) for n, d in ratios]
    sites, outer, box = ints[:4], ints[4:-4], ints[-4:]
    rows = []
    for sx, sy in (sites[:2], sites[2:]):
        s2 = sx * sx + sy * sy
        rows += [(2 * (yx - sx), 2 * (yy - sy), yx * yx + yy * yy - s2)
                 for yx, yy in zip(outer[::2], outer[1::2])]
    return _exact_clip(rows, box), k


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
