"""Constructive theory of (3,2)-type equidistant polygons.

Pentagons with exactly two concave angles are recognized by intersecting two
auxiliary lines obtained from three-reflection compositions at the concave
vertices; the intersection and its mirror image across the inner diagonal
recover the inner focal points, reflections across the sides recover the
outer ones.  Concave quadrangles admit a one-parameter family of focal sets
along a single auxiliary line through the reflex vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .body import FocalConfig, is_bounded
from .errors import (
    InvalidConfig,
    MalformedQuad,
    NumericalDegeneracy,
    ParamOutOfRange,
    PreconditionViolated,
    RoundTripFailure,
    Unbounded,
)
from .polygon import check_regularity, extract_boundary
from .primitives import (
    EPS_GEO,
    EPS_RT,
    TWO_PI,
    Line,
    Point,
    compose_three_reflections,
    coord_scale,
    dist,
    line_intersection,
    orient,
    reflect_direction,
    reflect_point,
    signed_area,
    viewing_angle,
)

CATEGORY_GENERIC = "generic"
CATEGORY_CONCIRCULAR = "concircular"
CATEGORY_COLLINEAR = "collinear"

_OMEGA_PAIRS = ((0, 1), (1, 2), (2, 0))


# ---------------------------------------------------------------------------
# small polygon helpers


def polygon_diameter(pts) -> float:
    return max(dist(a, b) for i, a in enumerate(pts) for b in pts[i + 1:])


def point_in_polygon(p: Point, pts) -> bool:
    """Even-odd crossing test; points on the boundary are not reliable."""
    inside = False
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        if (a.y > p.y) != (b.y > p.y):
            xint = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
            if p.x < xint:
                inside = not inside
    return inside


def _on_segment(a: Point, b: Point, p: Point) -> bool:
    """p collinear with a,b: is it within the segment's bounding box?"""
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def segments_intersect(p1: Point, p2: Point, p3: Point, p4: Point) -> bool:
    """True if the closed segments share any point (proper or touching)."""
    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and 0 not in (d1, d2, d3, d4):
        return True
    if d1 == 0 and _on_segment(p3, p4, p1):
        return True
    if d2 == 0 and _on_segment(p3, p4, p2):
        return True
    if d3 == 0 and _on_segment(p1, p2, p3):
        return True
    if d4 == 0 and _on_segment(p1, p2, p4):
        return True
    return False


def is_simple_polygon(pts) -> bool:
    n = len(pts)
    if n < 3 or len(set((p.x, p.y) for p in pts)) != n:
        return False
    for i in range(n):
        a1, a2 = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # shared endpoint
            if segments_intersect(a1, a2, pts[j], pts[(j + 1) % n]):
                return False
    return True


def _point_segment_dist(p: Point, a: Point, b: Point) -> float:
    ax, ay = b.x - a.x, b.y - a.y
    d2 = ax * ax + ay * ay
    if d2 == 0.0:
        return dist(p, a)
    t = ((p.x - a.x) * ax + (p.y - a.y) * ay) / d2
    t = max(0.0, min(1.0, t))
    return dist(p, Point(a.x + t * ax, a.y + t * ay))


def point_to_polygon_boundary(p: Point, pts) -> float:
    n = len(pts)
    return min(_point_segment_dist(p, pts[i], pts[(i + 1) % n]) for i in range(n))


def boundary_hausdorff(pts_a, pts_b, samples_per_edge: int = 8) -> float:
    """Hausdorff distance between two closed polylines, via edge sampling."""
    def one_sided(src, dst):
        h = 0.0
        n = len(src)
        for i in range(n):
            a, b = src[i], src[(i + 1) % n]
            for k in range(samples_per_edge):
                t = k / samples_per_edge
                s = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
                h = max(h, point_to_polygon_boundary(s, dst))
        return h

    return max(one_sided(pts_a, pts_b), one_sided(pts_b, pts_a))


def vertex_sets_match(got, want, tol: float) -> bool:
    if len(got) != len(want):
        return False
    return (all(min(dist(g, w) for w in want) <= tol for g in got)
            and all(min(dist(g, w) for g in got) <= tol for w in want))


# ---------------------------------------------------------------------------
# labeled shapes


@dataclass(frozen=True)
class LabeledPentagon:
    """Simple ccw pentagon with reflex angles exactly at b and d; bd is an inner diagonal."""

    a: Point
    b: Point
    c: Point
    d: Point
    e: Point

    @property
    def points(self) -> tuple[Point, ...]:
        return (self.a, self.b, self.c, self.d, self.e)


@dataclass(frozen=True)
class LabeledQuad:
    """Simple ccw quadrangle with its single reflex angle at c."""

    a: Point
    b: Point
    c: Point
    d: Point

    @property
    def points(self) -> tuple[Point, ...]:
        return (self.a, self.b, self.c, self.d)


def _normalize_ccw(points):
    pts = list(points)
    area = signed_area(pts)
    if area == 0.0:
        return None
    if area < 0.0:
        pts.reverse()
    if not is_simple_polygon(pts):
        return None
    turns = [orient(pts[i - 1], pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))]
    if any(t == 0 for t in turns):
        return None
    return pts, turns


def _diagonal_inside(pts, i, j) -> bool:
    n = len(pts)
    a, b = pts[i], pts[j]
    for k in range(n):
        if k in (i, j) or (k + 1) % n in (i, j):
            continue
        if segments_intersect(a, b, pts[k], pts[(k + 1) % n]):
            return False
    mid = Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
    return point_in_polygon(mid, pts)


def label_pentagon(points):
    """Relabel five points as a LabeledPentagon, or None if the shape does not qualify."""
    if len(points) != 5:
        return None
    norm = _normalize_ccw(points)
    if norm is None:
        return None
    pts, turns = norm
    reflex = [i for i, t in enumerate(turns) if t < 0]
    if len(reflex) != 2:
        return None
    i, j = reflex
    gap = (j - i) % 5
    if gap == 2:
        b_idx, d_idx = i, j
    elif gap == 3:
        b_idx, d_idx = j, i
    else:
        return None  # reflex vertices are adjacent
    if not _diagonal_inside(pts, b_idx, d_idx):
        return None
    order = [(b_idx + k) % 5 for k in (-1, 0, 1, 2, 3)]
    a, b, c, d, e = (pts[k] for k in order)
    return LabeledPentagon(a, b, c, d, e)


def label_quad(points) -> LabeledQuad:
    """Relabel four points as a LabeledQuad with the reflex vertex at c."""
    if len(points) != 4:
        raise MalformedQuad("a quadrangle needs exactly four vertices")
    norm = _normalize_ccw(points)
    if norm is None:
        raise MalformedQuad("the four points do not form a simple quadrangle")
    pts, turns = norm
    reflex = [i for i, t in enumerate(turns) if t < 0]
    if len(reflex) != 1:
        raise MalformedQuad(f"expected exactly one reflex vertex, found {len(reflex)}")
    r = reflex[0]
    return LabeledQuad(a=pts[(r + 2) % 4], b=pts[(r + 3) % 4], c=pts[r], d=pts[(r + 1) % 4])


# ---------------------------------------------------------------------------
# certificates and recognition


@dataclass(frozen=True)
class Certificate32:
    """Recovered focal sets for a (3,2) shape plus the numerical defect of the recovery."""

    x1: Point
    x2: Point
    y1: Point
    y2: Point
    y3: Point
    residual: float
    source_kind: str  # "pentagon" | "quad"
    source: tuple[Point, ...]

    def config(self) -> FocalConfig:
        return FocalConfig(inner=(self.x1, self.x2), outer=(self.y1, self.y2, self.y3))


def auxiliary_lines(p: LabeledPentagon):
    """The four reflection-composition lines through the concave vertices."""
    ba, bc, bd = Line.through(p.b, p.a), Line.through(p.b, p.c), Line.through(p.b, p.d)
    de, dc, db = Line.through(p.d, p.e), Line.through(p.d, p.c), Line.through(p.d, p.b)
    f_b = compose_three_reflections(ba, bc, bd)
    f_d = compose_three_reflections(de, dc, db)
    g_b = compose_three_reflections(bc, ba, bd)
    g_d = compose_three_reflections(dc, de, db)
    return f_b, f_d, g_b, g_d


def pseudo_focal_points(p: LabeledPentagon) -> tuple[Point, Point]:
    """Intersection of the auxiliary lines and its mirror image across the inner diagonal."""
    f_b, f_d, _, _ = auxiliary_lines(p)
    x1 = line_intersection(f_b, f_d)
    if x1 is None:
        raise NumericalDegeneracy("auxiliary lines are parallel")
    x2 = reflect_point(Line.through(p.b, p.d), x1)
    return x1, x2


def recognize_pentagon(points, clip_scale: float = 2.0, eps: float = EPS_GEO,
                       eps_rt: float = EPS_RT):
    """Certificate for a pentagon that is a (3,2) equidistant polygon, else None.

    Returns None when the shape fails a structural condition (concave-angle
    count, inner diagonal, interior pseudo focal points).  Raises
    RoundTripFailure when the recovered focal sets do not reproduce the
    pentagon's boundary.
    """
    pent = points if isinstance(points, LabeledPentagon) else label_pentagon(points)
    if pent is None:
        return None
    poly = pent.points
    x1, x2 = pseudo_focal_points(pent)
    if not (point_in_polygon(x1, poly) and point_in_polygon(x2, poly)):
        return None
    y1 = reflect_point(Line.through(pent.a, pent.e), x1)
    y2 = reflect_point(Line.through(pent.a, pent.b), x1)
    y3 = reflect_point(Line.through(pent.c, pent.d), x2)
    scale = coord_scale(poly)
    residual = max(
        dist(y2, reflect_point(Line.through(pent.b, pent.c), x2)),
        dist(y3, reflect_point(Line.through(pent.d, pent.e), x1)),
    ) / scale
    try:
        cfg = FocalConfig(inner=(x1, x2), outer=(y1, y2, y3))
    except InvalidConfig:
        return None
    if not is_bounded(cfg):
        raise RoundTripFailure("recovered focal configuration is unbounded")
    chains = extract_boundary(cfg, clip_scale=clip_scale, eps=eps)
    if len(chains) != 1:
        raise RoundTripFailure("recovered boundary is not a single chain")
    if boundary_hausdorff(chains[0].vertices, poly) > eps_rt * scale:
        raise RoundTripFailure("recovered boundary does not match the pentagon")
    return Certificate32(x1=x1, x2=x2, y1=y1, y2=y2, y3=y3, residual=residual,
                         source_kind="pentagon", source=poly)


# ---------------------------------------------------------------------------
# concave quadrangles


def _focal_points_at(q: LabeledQuad, d, t: float):
    x1 = Point(q.c.x + t * d[0], q.c.y + t * d[1])
    x2 = reflect_point(Line.through(q.c, q.a), x1)
    y3 = reflect_point(Line.through(q.c, q.d), x1)
    y1 = reflect_point(Line.through(q.a, q.d), x1)
    y2 = reflect_point(Line.through(q.a, q.b), x2)
    return x1, x2, y1, y2, y3


def _direction_works(q: LabeledQuad, d) -> bool:
    """Probe a few interior parameters: does the construction stay bounded?"""
    intervals = _feasible_intervals(q, d)
    if not intervals:
        return False
    lo, hi = max(intervals, key=lambda iv: iv[1] - iv[0])
    for frac in (0.5, 0.25, 0.75):
        x1, x2, y1, y2, y3 = _focal_points_at(q, d, lo + (hi - lo) * frac)
        try:
            if is_bounded(FocalConfig(inner=(x1, x2), outer=(y1, y2, y3))):
                return True
        except InvalidConfig:
            continue
    return False


def quad_auxiliary_ray(q: LabeledQuad):
    """The auxiliary line through the reflex vertex, directed into the polygon.

    Returns (line, unit direction); construction parameters t measure the
    distance from c along this direction.  At a reflex vertex both rays of
    the line may enter the polygon; the returned one is the ray whose
    constructed focal sets actually bound the quadrangle.
    """
    f = compose_three_reflections(Line.through(q.c, q.d), Line.through(q.c, q.b),
                                  Line.through(q.c, q.a))
    d = (-f.b, f.a)
    poly = q.points
    h = 1e-6 * polygon_diameter(poly)
    candidates = []
    for sgn in (1.0, -1.0):
        probe = Point(q.c.x + sgn * h * d[0], q.c.y + sgn * h * d[1])
        if point_in_polygon(probe, poly):
            candidates.append((sgn * d[0], sgn * d[1]))
    if not candidates:
        raise NumericalDegeneracy("auxiliary line does not enter the polygon")
    for cand in candidates:
        if _direction_works(q, cand):
            return f, cand
    for cand in candidates:
        if _feasible_intervals(q, cand):
            return f, cand
    return f, candidates[0]


def _ray_inside_intervals(origin: Point, d, poly, tmax: float):
    ts = [0.0, tmax]
    n = len(poly)
    for i in range(n):
        u, v = poly[i], poly[(i + 1) % n]
        ex, ey = v.x - u.x, v.y - u.y
        denom = d[0] * ey - d[1] * ex
        if denom == 0.0:
            continue
        wx, wy = u.x - origin.x, u.y - origin.y
        t = (wx * ey - wy * ex) / denom
        s = (wx * d[1] - wy * d[0]) / denom
        if -1e-12 <= s <= 1.0 + 1e-12 and 0.0 < t < tmax:
            ts.append(t)
    ts.sort()
    merged = [ts[0]]
    for t in ts[1:]:
        if t - merged[-1] > 1e-12 * tmax:
            merged.append(t)
    out = []
    for lo, hi in zip(merged, merged[1:]):
        mid = Point(origin.x + (lo + hi) / 2.0 * d[0], origin.y + (lo + hi) / 2.0 * d[1])
        if point_in_polygon(mid, poly):
            if out and out[-1][1] == lo:
                out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
    return out


def _intersect_intervals(xs, ys):
    out = []
    for a0, a1 in xs:
        for b0, b1 in ys:
            lo, hi = max(a0, b0), min(a1, b1)
            if lo < hi:
                out.append((lo, hi))
    return out


def _feasible_intervals(q: LabeledQuad, d):
    poly = q.points
    tmax = 2.0 * polygon_diameter(poly)
    ca = Line.through(q.c, q.a)
    d2 = reflect_direction(ca, d[0], d[1])
    iv1 = _ray_inside_intervals(q.c, d, poly, tmax)
    iv2 = _ray_inside_intervals(q.c, d2, poly, tmax)
    return _intersect_intervals(iv1, iv2)


def feasible_param_range(q: LabeledQuad) -> list[tuple[float, float]]:
    """Open t-intervals along the auxiliary ray where both focal points are interior."""
    _, d = quad_auxiliary_ray(q)
    return _feasible_intervals(q, d)


def default_param(q: LabeledQuad) -> float:
    """Midpoint of the largest feasible interval."""
    intervals = feasible_param_range(q)
    if not intervals:
        raise NumericalDegeneracy("no feasible construction parameter")
    lo, hi = max(intervals, key=lambda iv: iv[1] - iv[0])
    return (lo + hi) / 2.0


def construct_quad_focals(q: LabeledQuad, t: float, clip_scale: float = 2.0,
                          eps: float = EPS_GEO, eps_rt: float = EPS_RT) -> Certificate32:
    """Focal sets realizing a concave quadrangle, at parameter t along the auxiliary ray."""
    _, d = quad_auxiliary_ray(q)
    intervals = _feasible_intervals(q, d)
    if not any(lo < t < hi for lo, hi in intervals):
        raise ParamOutOfRange(f"t={t} lies outside the feasible range {intervals}")
    x1, x2, y1, y2, y3 = _focal_points_at(q, d, t)
    scale = coord_scale(q.points)
    residual = dist(reflect_point(Line.through(q.c, q.b), x2), y3) / scale
    try:
        cfg = FocalConfig(inner=(x1, x2), outer=(y1, y2, y3))
    except InvalidConfig as exc:
        raise ParamOutOfRange(f"degenerate focal points at t={t}") from exc
    if not is_bounded(cfg):
        raise RoundTripFailure("constructed focal configuration is unbounded")
    chains = extract_boundary(cfg, clip_scale=clip_scale, eps=eps)
    if len(chains) != 1:
        raise RoundTripFailure("constructed boundary is not a single chain")
    if not vertex_sets_match(chains[0].vertices, q.points, eps_rt * scale):
        raise RoundTripFailure("constructed boundary does not reproduce the quadrangle")
    return Certificate32(x1=x1, x2=x2, y1=y1, y2=y2, y3=y3, residual=residual,
                         source_kind="quad", source=q.points)


# ---------------------------------------------------------------------------
# viewing-angle classification of (3,2) configurations


@dataclass(frozen=True)
class OrderingReport:
    category: str
    omegas: tuple[tuple[float, float, float], tuple[float, float, float]]
    deltas: tuple[float, float, float]
    closure_residuals: tuple[float, float]
    labeling: tuple[tuple[int, int], tuple[int, int, int]] | None
    separated_outer: int | None
    delta_ordered: bool | None
    equal_omega_pairs: tuple[tuple[int, int], ...]
    collinear: tuple
    concircular: tuple


def _omega(cfg: FocalConfig, i: int, j: int, k: int) -> float:
    return viewing_angle(cfg.inner[i], cfg.outer[j], cfg.outer[k])


def classify_generic_32(cfg: FocalConfig, angle_tol: float = 1e-9) -> OrderingReport:
    """Viewing-angle report for a (3,2) configuration.

    Finds the relabeling of focal points under which the three outer-pair
    viewing angles alternate between the two inner points (the pentagon
    ordering), reports which outer point the inner line separates from the
    other two, and tags non-regular inputs as concircular or collinear.
    """
    if cfg.p != 2 or cfg.q != 3:
        raise PreconditionViolated("classification needs exactly 2 inner and 3 outer points")
    if not is_bounded(cfg):
        raise Unbounded("classification needs a bounded configuration")
    reg = check_regularity(cfg)
    omegas = tuple(tuple(_omega(cfg, i, j, k) for j, k in _OMEGA_PAIRS) for i in (0, 1))
    deltas = tuple(viewing_angle(cfg.outer[j], cfg.inner[0], cfg.inner[1]) for j in range(3))
    closure = tuple(abs(sum(om) - TWO_PI) for om in omegas)
    equal_pairs = tuple(_OMEGA_PAIRS[m] for m in range(3)
                        if abs(omegas[0][m] - omegas[1][m]) <= angle_tol)

    if reg.collinear:
        category = CATEGORY_COLLINEAR
    elif reg.concircular:
        category = CATEGORY_CONCIRCULAR
    else:
        category = CATEGORY_GENERIC

    labeling = None
    separated = None
    delta_ordered = None
    if category == CATEGORY_GENERIC:
        candidates = []
        for xo in ((0, 1), (1, 0)):
            for yo in permutations((0, 1, 2)):
                w = [[_omega(cfg, xi, yo[j], yo[k]) for j, k in _OMEGA_PAIRS] for xi in xo]
                if w[0][0] > w[1][0] and w[0][1] < w[1][1] and w[0][2] > w[1][2]:
                    candidates.append((xo, yo))
        for xo, yo in candidates:
            sides = [orient(cfg.inner[xo[0]], cfg.inner[xo[1]], cfg.outer[j]) for j in yo]
            lone = [m for m in range(3) if sides.count(sides[m]) == 1]
            d_ok = deltas[yo[0]] < deltas[yo[1]]
            if lone == [2] and d_ok:
                labeling = (xo, yo)
                separated = yo[2]
                delta_ordered = True
                break
        if labeling is None and candidates:
            xo, yo = candidates[0]
            labeling = (xo, yo)
            sides = [orient(cfg.inner[xo[0]], cfg.inner[xo[1]], cfg.outer[j]) for j in yo]
            lone = [m for m in range(3) if sides.count(sides[m]) == 1]
            separated = yo[lone[0]] if len(lone) == 1 else None
            delta_ordered = deltas[yo[0]] < deltas[yo[1]]

    return OrderingReport(category=category, omegas=omegas, deltas=deltas,
                          closure_residuals=closure, labeling=labeling,
                          separated_outer=separated, delta_ordered=delta_ordered,
                          equal_omega_pairs=equal_pairs,
                          collinear=reg.collinear, concircular=reg.concircular)
