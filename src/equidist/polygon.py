"""Regularity checks, the empty-circumcircle hypergraph, and boundary extraction.

The hypergraph path enumerates all focal triples and, for each, scans the
other focal points with the exact in-circle sign: O(n^3) triples times O(n)
candidates.  The scan (``primitives.incircle_hits``) lifts every point
relative to the triple's first point once per first point and runs the one
in-circle float filter with its exact integer fallback, so each sign is exact
and the reports list triples and quadruples in ``combinations`` order.  The
boundary path reads the chains off the inner sites' Voronoi cells in
Vor(K ∪ L), each its component's exact clip cut further by the inner rows:
the cell edges between an inner and an outer site are exactly the body's boundary.
They are walked at exactly equal endpoints, and pinch points, refs, angle
types, orientation and chain order are decided in integers; ``eps`` only merges consecutive
chain vertices closer than eps times the extent of the focal points.
Boundary extraction needs no regularity, so degenerate inputs (concircular
focal quadruples) are handled by the same code and show up as double-change
vertices.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import chain

from .body import (
    EquidistantBody,
    FocalConfig,
    _drop_zero_edges,
    _exact_clip,
    _orientation_det,
    body_clip_box,
    build_body,
    convex_component,
)
from .errors import RegularityViolated, StitchFailure
from .primitives import (
    EPS_GEO,
    Circle,
    Point,
    circumcircle,
    dist,
    incircle,  # noqa: F401  kept: bench/spans.py counts calls through polygon.incircle
    incircle_hits,
    lifted_rows,
    orient,
    signed_area,
    viewing_angle,
)

COLOR_MONO_INNER = "mono_inner"
COLOR_MONO_OUTER = "mono_outer"
COLOR_XYX = "colored_xyx"  # two inner, one outer: concave vertex
COLOR_YXY = "colored_yxy"  # one inner, two outer: convex vertex

CHANGE_INNER = "inner"
CHANGE_OUTER = "outer"
CHANGE_DOUBLE = "double"

ANGLE_CONVEX = "convex"
ANGLE_CONCAVE = "concave"


@dataclass(frozen=True)
class FocalRef:
    kind: str  # "inner" | "outer"
    index: int


@dataclass(frozen=True)
class RegularityReport:
    ok: bool
    collinear: tuple[tuple[FocalRef, FocalRef, FocalRef], ...]
    concircular: tuple[tuple[FocalRef, FocalRef, FocalRef, FocalRef], ...]


@dataclass(frozen=True)
class HyperEdge:
    """Empty-circumcircle focal triple; colored edges carry the lone point in the middle."""

    refs: tuple[FocalRef, FocalRef, FocalRef]
    color: str
    circle: Circle
    weight: float | None


@dataclass(frozen=True)
class VertexClassification:
    vertices: tuple[tuple[Point, str], ...]
    interior_witnesses: tuple[Point, ...]
    exterior_witnesses: tuple[Point, ...]


@dataclass(frozen=True)
class VertexInfo:
    angle_type: str
    change_type: str
    inner_refs: tuple[int, ...]
    outer_refs: tuple[int, ...]


@dataclass(frozen=True)
class PolygonChain:
    """Closed counterclockwise boundary chain.

    ``edge_pairs[m]`` is the (inner index, outer index) pair whose bisector
    carries the edge from ``vertices[m]`` to ``vertices[m+1]``.
    """

    vertices: tuple[Point, ...]
    vertex_info: tuple[VertexInfo, ...]
    edge_pairs: tuple[tuple[int, int], ...]

    def signed_area(self) -> float:
        return signed_area(self.vertices)


@dataclass(frozen=True)
class BoundReport:
    ok: bool
    count: int
    limit: int


@dataclass(frozen=True)
class VoronoiReport:
    samples: int
    ties_skipped: int
    agreements: int
    disagreements: int
    inside_count: int
    cell_misses: int
    overlap_violations: int

    @property
    def ok(self) -> bool:
        return (self.disagreements == 0 and self.cell_misses == 0
                and self.overlap_violations == 0)


def labeled_points(cfg: FocalConfig) -> list[tuple[FocalRef, Point]]:
    refs = [(FocalRef("inner", i), p) for i, p in enumerate(cfg.inner)]
    refs += [(FocalRef("outer", j), p) for j, p in enumerate(cfg.outer)]
    return refs


def ref_point(cfg: FocalConfig, ref: FocalRef) -> Point:
    return cfg.inner[ref.index] if ref.kind == "inner" else cfg.outer[ref.index]


def check_regularity(cfg: FocalConfig) -> RegularityReport:
    """Exhaustive exact test for collinear triples (C1) and concircular quadruples (C2).

    Each triple (a, b, c) in ``combinations`` order is tested with the exact
    ``orient``; a collinear one is reported and extends to no concircular
    quadruple, since a circle meets a line in at most two points.  For every
    other triple the candidates d after c are scanned with the exact
    in-circle sign (``incircle_hits``), so both lists come out in
    ``combinations`` order.
    """
    pts = labeled_points(cfg)
    refs = [r for r, _ in pts]
    points = [p for _, p in pts]
    n = len(points)
    collinear = []
    concircular = []
    for a in range(n):
        rows = lifted_rows(points, a)
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                if orient(points[a], points[b], points[c]) == 0:
                    collinear.append((refs[a], refs[b], refs[c]))
                    continue
                for d in incircle_hits(points, rows, a, b, c, range(c + 1, n), 0):
                    concircular.append((refs[a], refs[b], refs[c], refs[d]))
    return RegularityReport(ok=not collinear and not concircular,
                            collinear=tuple(collinear), concircular=tuple(concircular))


def _triple_color(kinds) -> str:
    inner = kinds.count("inner")
    if inner == 3:
        return COLOR_MONO_INNER
    if inner == 0:
        return COLOR_MONO_OUTER
    return COLOR_XYX if inner == 2 else COLOR_YXY


def empty_circle_triples(cfg: FocalConfig) -> tuple[HyperEdge, ...]:
    """All focal triples whose circumcircle contains no focal point strictly inside.

    Raises RegularityViolated unless ``check_regularity`` passes.  Triples
    come in ``combinations`` order; the scan of a triple stops at the first
    focal point found strictly inside its circle.  Colored triples list the
    lone point in the middle and carry its viewing angle of the other two as
    weight.
    """
    report = check_regularity(cfg)
    if not report.ok:
        raise RegularityViolated("configuration violates (C1)/(C2)", report)
    pts = labeled_points(cfg)
    points = [p for _, p in pts]
    n = len(points)
    edges = []
    for i in range(n):
        rows = lifted_rows(points, i)
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                (ra, a), (rb, b), (rc, c) = pts[i], pts[j], pts[k]
                # z is strictly inside the circle through a, b, c exactly when
                # the raw sign of (b, c, z, a) is -orient(a, b, c).
                others = chain(range(i), range(i + 1, j), range(j + 1, k), range(k + 1, n))
                inside = incircle_hits(points, rows, i, j, k, others, -orient(a, b, c))
                if next(inside, None) is not None:
                    continue
                trip = [(ra, a), (rb, b), (rc, c)]
                color = _triple_color([r.kind for r, _ in trip])
                weight = None
                if color in (COLOR_XYX, COLOR_YXY):
                    lone_kind = "outer" if color == COLOR_XYX else "inner"
                    lone = next(t for t in trip if t[0].kind == lone_kind)
                    pair = [t for t in trip if t[0].kind != lone_kind]
                    trip = [pair[0], lone, pair[1]]
                    weight = viewing_angle(lone[1], pair[0][1], pair[1][1])
                edges.append(HyperEdge(refs=tuple(r for r, _ in trip), color=color,
                                       circle=circumcircle(a, b, c), weight=weight))
    return tuple(edges)


def classify_vertices(edges) -> VertexClassification:
    """Colored-edge centers become polygon vertices; monochromatic centers are witnesses."""
    vertices = []
    interior, exterior = [], []
    for e in edges:
        if e.color == COLOR_YXY:
            vertices.append((e.circle.center, ANGLE_CONVEX))
        elif e.color == COLOR_XYX:
            vertices.append((e.circle.center, ANGLE_CONCAVE))
        elif e.color == COLOR_MONO_INNER:
            interior.append(e.circle.center)
        else:
            exterior.append(e.circle.center)
    return VertexClassification(tuple(vertices), tuple(interior), tuple(exterior))


def inactive_focals(cfg: FocalConfig, edges) -> tuple[FocalRef, ...]:
    """Focal points that appear in no colored edge (minimal representation filter)."""
    active = set()
    for e in edges:
        if e.color in (COLOR_XYX, COLOR_YXY):
            active.update(e.refs)
    return tuple(ref for ref, _ in labeled_points(cfg) if ref not in active)


@dataclass(frozen=True)
class WeightBoundReport:
    holds: bool
    attained: bool
    lhs: float
    rhs: float


def colored_weight_bound(cfg: FocalConfig, edge: HyperEdge) -> WeightBoundReport:
    """Max-angle form of the empty-circle condition for one colored edge.

    The weight must equal the largest viewing angle of the chord on the lone
    point's side of the chord line, and stay below pi minus the largest
    viewing angle on the opposite side.
    """
    a = ref_point(cfg, edge.refs[0])
    v = ref_point(cfg, edge.refs[1])
    b = ref_point(cfg, edge.refs[2])
    sgn = orient(a, b, v)
    plus, minus = [], []
    for _, z in labeled_points(cfg):
        if z in (a, b):
            continue
        s = orient(a, b, z)
        if s == sgn:
            plus.append(viewing_angle(z, a, b))
        elif s == -sgn:
            minus.append(viewing_angle(z, a, b))
    lhs = max(plus)
    rhs = math.pi - max(minus) if minus else math.pi
    attained = abs(lhs - edge.weight) <= 1e-12 * math.pi
    return WeightBoundReport(holds=lhs < rhs, attained=attained, lhs=lhs, rhs=rhs)


def _reduced(vert):
    """A homogeneous point (X, Y, W), W > 0, with gcd(X, Y, W) = 1: equal points, equal triples."""
    g = math.gcd(*vert)
    return vert[0] // g, vert[1] // g, vert[2] // g


def _direction(u, v):
    """A positive multiple of the vector from u to v (homogeneous points, W > 0)."""
    return v[0] * u[2] - u[0] * v[2], v[1] * u[2] - u[1] * v[2]


def _clockwise_order(back):
    """Comparator of directions by their clockwise angle from ``back``, in (0, 2*pi)."""

    def half(d):  # 0 for a clockwise angle in (0, pi), 1 for one in [pi, 2*pi)
        return 0 if back[0] * d[1] - back[1] * d[0] < 0 else 1

    def cmp(d, e):
        if half(d) != half(e):
            return half(d) - half(e)
        cross = d[0] * e[1] - d[1] * e[0]  # within a half the angles differ by less than pi
        return (cross > 0) - (cross < 0)

    return cmp_to_key(cmp)


def _is_clockwise(verts) -> bool:
    """Exactly whether a closed polygon of homogeneous points (W > 0) has negative area."""
    num, den = 0, 1  # twice the area so far is num / den, den > 0
    for (x1, y1, w1), (x2, y2, w2) in zip(verts, verts[1:] + verts[:1]):
        w = w1 * w2
        num, den = num * w + (x1 * y2 - x2 * y1) * den, den * w
    return num < 0


def _xy_cmp(u, v) -> int:
    """Exact lexicographic (x, y) comparison of two homogeneous points (W > 0)."""
    d = u[0] * v[2] - v[0] * u[2] or u[1] * v[2] - v[1] * u[2]
    return (d > 0) - (d < 0)


_xy_key = cmp_to_key(_xy_cmp)


def extract_boundary(cfg: FocalConfig, clip_scale: float = 2.0, eps: float = EPS_GEO,
                     body: EquidistantBody | None = None) -> list[PolygonChain]:
    """Boundary of the body as closed counterclockwise chains, one per boundary cycle.

    The body is the union of the closed Voronoi cells of the inner sites in
    Vor(K ∪ L), so its boundary is exactly the set of cell edges between an
    inner and an outer site.  Each inner cell continues its component's
    stored exact clip (the box cut by the outer rows, in the body's one
    scaling) with the rows toward the other inner sites; its edges on outer
    rows are the boundary edges.  They are joined at exactly equal
    homogeneous endpoints and walked with the body on the left.  At a pinch point the
    arriving edge continues into the nearest leaving edge clockwise from it,
    so it turns through a wedge of the body.  Refs, change types, angle
    types, orientation and chain order are decided exactly.  ``eps`` acts
    in one place only: consecutive chain vertices closer than eps times the
    extent of the focal points' bounding box are merged and their refs
    united, so a vertex the float input realises as a pair a few ulps apart
    counts once.
    """
    if body is None:
        body = build_body(cfg, clip_scale)
    if any(c.clipped for c in body.components):
        raise StitchFailure("component reaches the clip box; enlarge clip_scale")
    q = cfg.q
    # Each component keeps its site's block of rows, outer rows first.  The site's
    # own row (0, 0, 0) cuts nothing and has zero slack, so refs_at lists the site.
    blocks = [c._exact[0] for c in body.components]
    _, box, k, _ = body.components[0]._exact

    edges = []  # (start, end, inner i, outer j): cell edges between inner i and outer j
    for i, c in enumerate(body.components):
        cell = _drop_zero_edges(_exact_clip(blocks[i], box, c._exact[3], q))
        verts = [_reduced(vert) for vert, _ in cell]
        for t, (_, j) in enumerate(cell):
            if 0 <= j < q:
                edges.append((verts[t], verts[t + 1 - len(cell)], i, j))

    leaving = {}
    for e, edge in enumerate(edges):
        leaving.setdefault(edge[0], []).append(e)

    def successor(e):
        u, v = edges[e][:2]
        out = leaving[v]
        if len(out) == 1:
            return out[0]
        order = _clockwise_order(_direction(v, u))
        return min(out, key=lambda f: order(_direction(v, edges[f][1])))

    def refs_at(vert, i):
        """Indices into ``others`` of the sites nearest to a vertex of cell i, exactly."""
        x, y, w = vert
        return {j for j, (a, b, c) in enumerate(blocks[i]) if c * w - a * x - b * y == 0}

    xs, ys = [p.x for p in cfg.points], [p.y for p in cfg.points]
    tol = eps * max(max(xs) - min(xs), max(ys) - min(ys))
    seen = [False] * len(edges)
    out = []
    for start in range(len(edges)):
        if seen[start]:
            continue
        cycle = []
        e = start
        while not seen[e]:
            seen[e] = True
            cycle.append(e)
            e = successor(e)
        # per chain vertex: exact point, float point, refs, pair of the leaving edge
        verts, pts, refs, pairs = [], [], [], []
        prev = None
        for e in cycle:
            vert, _, i, j = edges[e]
            pt = Point(vert[0] / (vert[2] << k), vert[1] / (vert[2] << k))
            if prev is None or dist(prev, pt) >= tol:
                verts.append(vert)
                pts.append(pt)
                refs.append(set())
                pairs.append(None)
            refs[-1] |= refs_at(vert, i)
            pairs[-1] = (i, j)  # a merged vertex leaves by its last member's edge
            prev = pt
        if len(verts) > 1 and dist(prev, pts[0]) < tol:  # the edge back to vertex 0 is short
            verts.pop()
            pts.pop()
            pairs.pop()
            refs[0] |= refs.pop()
        if _is_clockwise(verts):  # a hole: reverse, keeping vertex 0
            verts, pts, refs = ([s[0]] + s[:0:-1] for s in (verts, pts, refs))
            pairs.reverse()
        n = len(verts)
        info = []
        for t, vref in enumerate(refs):
            inner = tuple(sorted(j - q for j in vref if j >= q))
            outer = tuple(sorted(j for j in vref if j < q))
            change = (CHANGE_DOUBLE if len(inner) >= 2 and len(outer) >= 2
                      else CHANGE_INNER if len(inner) >= 2 else CHANGE_OUTER)
            convex = _orientation_det(verts[t - 1], verts[t], verts[t + 1 - n]) > 0
            info.append(VertexInfo(angle_type=ANGLE_CONVEX if convex else ANGLE_CONCAVE,
                                   change_type=change, inner_refs=inner, outer_refs=outer))
        # rounding is monotone, so the exactly lowest vertex has the least float x
        least_x = min(pt.x for pt in pts)
        lowest = min((vert for vert, pt in zip(verts, pts) if pt.x == least_x), key=_xy_key)
        out.append((lowest, PolygonChain(vertices=tuple(pts), vertex_info=tuple(info),
                                         edge_pairs=tuple(pairs))))
    out.sort(key=lambda item: _xy_key(item[0]))
    return [chain for _, chain in out]


def check_vertex_bound(chain: PolygonChain, cfg: FocalConfig) -> BoundReport:
    """Vertex count of a single-chain boundary against its combinatorial limit."""
    limit = cfg.q if cfg.p == 1 else cfg.p + cfg.q
    count = len(chain.vertices)
    return BoundReport(ok=count <= limit, count=count, limit=limit)


def voronoi_check(cfg: FocalConfig, n_samples: int = 10000, seed: int = 42,
                  clip_scale: float = 2.0, tol: float = EPS_GEO) -> VoronoiReport:
    """Sampled agreement between the body and the Voronoi cells of the inner sites.

    A point is strictly inside the body exactly when its nearest focal point
    is inner; strict inside points must land in some inner site's cell and in
    at most one cell interior.  Ties within tol * scale are skipped.
    """
    clip = body_clip_box(cfg, clip_scale)
    all_points = [p for _, p in labeled_points(cfg)]
    cells = [convex_component(x, tuple(p for p in all_points if p != x), clip)
             for x in cfg.inner]
    rng = random.Random(seed)
    scale = cfg.scale()
    band = tol * scale
    p_count = cfg.p

    ties = agreements = disagreements = inside_count = 0
    cell_misses = overlap_violations = 0
    for _ in range(n_samples):
        q = Point(rng.uniform(clip.xmin, clip.xmax), rng.uniform(clip.ymin, clip.ymax))
        dists = [dist(q, p) for p in all_points]
        best = second = math.inf
        best_idx = -1
        for idx, d in enumerate(dists):
            if d < best:
                best, second, best_idx = d, best, idx
            elif d < second:
                second = d
        if second - best <= band:
            ties += 1
            continue
        # the gap between the two nearest focal points exceeds the band, so
        # the inner/outer minima cannot tie either
        inside = min(dists[:p_count]) < min(dists[p_count:])
        if inside == (best_idx < p_count):
            agreements += 1
        else:
            disagreements += 1
        if inside:
            inside_count += 1
            signed = [cell.min_signed(q) for cell in cells]
            hits = sum(1 for m in signed if m >= -band)
            strict_hits = sum(1 for m in signed if m > band)
            if hits == 0:
                cell_misses += 1
            if strict_hits > 1:
                overlap_violations += 1
    return VoronoiReport(samples=n_samples, ties_skipped=ties, agreements=agreements,
                         disagreements=disagreements, inside_count=inside_count,
                         cell_misses=cell_misses, overlap_violations=overlap_violations)
