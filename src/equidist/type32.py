"""Constructive theory of (3,2)-type equidistant polygons.

Pentagons with two non-adjacent concave angles, at b and d, are recognized by
intersecting two auxiliary lines, three-reflection compositions at b and d;
the intersection and its mirror image across bd, an inner diagonal by the
two-ears theorem, recover the inner focal points, reflections across the sides
the outer ones.  A concave quadrangle (triangle abd minus bcd) has a one-parameter
family of focal sets along the ray from c on d's side of ca, the inner points' bisector,
up to where a focal point first leaves through ab or da.  Both build their focal points
exactly, in integers, and one exact round trip by equidistance certifies both.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .body import FocalConfig, _meet, _signed_ratio, is_bounded
from .errors import (
    InvalidConfig,
    MalformedQuad,
    NumericalDegeneracy,
    ParamOutOfRange,
    PreconditionViolated,
    RoundTripFailure,
    Unbounded,
)
from .polygon import check_regularity
from .primitives import Point, dyadic_ints, incircle, orient, viewing_angle

CATEGORY_GENERIC = "generic"
CATEGORY_CONCIRCULAR = "concircular"
CATEGORY_COLLINEAR = "collinear"

_OMEGA_PAIRS = ((0, 1), (1, 2), (2, 0))


# ---------------------------------------------------------------------------
# small polygon helpers


def point_in_polygon(p: Point, pts) -> bool:
    """Even-odd crossing test; p lies left of a crossing edge ab by one exact ``orient`` sign."""
    inside = False
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        if (a.y > p.y) != (b.y > p.y) and orient(a, b, p) == (1 if b.y > p.y else -1):
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
    if n < 3 or len(set(pts)) != n:
        return False
    for i in range(n):
        a1, a2 = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # shared endpoint
            if segments_intersect(a1, a2, pts[j], pts[(j + 1) % n]):
                return False
    return True


# ---------------------------------------------------------------------------
# labeled shapes


class LabeledPentagon(NamedTuple):
    """Simple ccw pentagon with reflex angles exactly at b and d; bd is an inner diagonal."""

    a: Point
    b: Point
    c: Point
    d: Point
    e: Point

    @property
    def points(self) -> tuple[Point, ...]:
        return tuple(self)


class LabeledQuad(NamedTuple):
    """Simple ccw quadrangle with its single reflex angle at c."""

    a: Point
    b: Point
    c: Point
    d: Point

    @property
    def points(self) -> tuple[Point, ...]:
        return tuple(self)


def _normalize_ccw(points):
    """(ccw points, exact turns) of a simple polygon with no straight vertex, else None."""
    pts = list(points)
    if not is_simple_polygon(pts):
        return None
    turns = [orient(pts[i - 1], pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))]
    if any(t == 0 for t in turns):
        return None
    # a simple polygon is convex at its lexicographically lowest vertex
    if turns[pts.index(min(pts))] < 0:
        pts.reverse()
        turns = [-t for t in turns[::-1]]
    return pts, turns


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
    # bd is an inner diagonal: a simple polygon has two non-overlapping ears
    # (Meisters 1975), ears at adjacent vertices overlap and an ear's tip is
    # convex, so of the convex a, c and e the vertex c is always an ear.
    return LabeledPentagon(*(pts[(b_idx + k) % 5] for k in (-1, 0, 1, 2, 3)))


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


class Certificate32(NamedTuple):
    """Recovered focal sets for a (3,2) shape."""

    x1: Point
    x2: Point
    y1: Point
    y2: Point
    y3: Point
    source_kind: str  # "pentagon" | "quad"
    source: tuple[Point, ...]

    def config(self) -> FocalConfig:
        return FocalConfig(inner=(self.x1, self.x2), outer=(self.y1, self.y2, self.y3))


def _integer_vertices(points):
    """The vertices as integer pairs at the least common 2**k, and k.  The exact construction
    maps them to focal points (X, Y, W), W > 0, homogeneous integer points at the same 2**k."""
    ints, k = dyadic_ints([v for p in points for v in p])
    return list(zip(ints[::2], ints[1::2])), k


def _composed_direction(v, p1, p2, p3):
    """u1 * conj(u2) * u3 for ui = pi - v, as complex numbers: the exact direction of the
    line through v whose reflection is the reflections in v p1, v p2 and v p3 composed (the
    three-reflection theorem), at the angle theta1 - theta2 + theta3."""
    (ax, ay), (bx, by), (cx, cy) = ((p[0] - v[0], p[1] - v[1]) for p in (p1, p2, p3))
    rx, ry = ax * bx + ay * by, ay * bx - ax * by
    return rx * cx - ry * cy, rx * cy + ry * cx


def _reflected(x, p, q):
    """The homogeneous point x reflected in the line pq."""
    (X, Y, W), (px, py), (ex, ey) = x, p, (q[0] - p[0], q[1] - p[1])
    n, vx, vy = ex * ex + ey * ey, X - px * W, Y - py * W
    twice = 2 * (vx * ex + vy * ey)
    return px * W * n + twice * ex - n * vx, py * W * n + twice * ey - n * vy, W * n


def _pentagon_sites(verts):
    """x1, x2, y1, y2, y3 of a labeled pentagon's integer vertices."""
    a, b, c, d, e = verts
    f_b, f_d = ((-u[1], u[0], u[0] * v[1] - u[1] * v[0])  # the line through v along u
                for v, u in ((b, _composed_direction(b, a, c, d)),
                             (d, _composed_direction(d, e, c, b))))
    x1 = _meet(f_b, f_d)
    if x1[2] == 0:
        raise NumericalDegeneracy("auxiliary lines are parallel")
    x2 = _reflected(x1, b, d)
    return x1, x2, _reflected(x1, a, e), _reflected(x1, a, b), _reflected(x2, c, d)


def _rounded(sites, k: int) -> tuple[Point, ...]:
    """The homogeneous points at 2**k, each coordinate rounded once (+-inf past the floats)."""
    return tuple(Point(_signed_ratio(x, w << k), _signed_ratio(y, w << k)) for x, y, w in sites)


_ROUND_TRIP = {"pentagon": "recovered boundary does not match the pentagon",
               "quad": "constructed boundary does not reproduce the quadrangle"}


def _certify(cfg: FocalConfig, sites, verts, kind: str, source) -> Certificate32:
    """Certificate of ``cfg``, the rounded ``sites``, if the polygon ``source`` with integer
    vertices ``verts`` is exactly the set of points equidistant from K and L, else
    RoundTripFailure.

    Each vertex's nearest sites come by exact squared distances.  The check passes when each
    two consecutive vertices share an inner and an outer nearest site, and the vertices'
    (number of nearest sites - 2) sum to 2*5 - 2 - 3 = 5.  Then each edge lies in the Voronoi
    cells of its shared sites, on the boundary, and each vertex, where two edges turn, is a
    Voronoi vertex whose Delaunay face has (number - 2) triangles.  Five sites with h hull
    points have 2*5 - 2 - h triangles, so h = 3 and every Voronoi vertex is a vertex of the
    polygon.  A Voronoi vertex has an even number of bichromatic edges, at three sites the
    polygon's two, so any other boundary edge starts at the one vertex (if any) with four
    sites of alternating kinds.  An inner hull point would give two bichromatic hull edges,
    boundary rays that both start there, and that vertex's face would hold the hull triangle
    and a fourth site on its circumcircle, outside the hull.  So the hull is the outer
    triangle (an unbounded configuration fails), no bounded edge is left over, and the
    boundary is the polygon.
    """
    scale = math.lcm(*(w for _, _, w in sites))
    pts = [(x * (scale // w), y * (scale // w)) for x, y, w in sites]
    near = []
    for vx, vy in verts:
        dists = [(vx * scale - x) ** 2 + (vy * scale - y) ** 2 for x, y in pts]
        least = min(dists)
        near.append({i for i, dd in enumerate(dists) if dd == least})
    shared = [s & t for s, t in zip(near, near[1:] + near[:1])]  # x1, x2 are sites 0 and 1
    if (sum(map(len, near)) != 2 * len(near) + 5
            or not all(e and min(e) < 2 <= max(e) for e in shared)):
        raise RoundTripFailure(_ROUND_TRIP[kind])
    return Certificate32(*cfg.inner, *cfg.outer, source_kind=kind, source=source)


def recognize_pentagon(points):
    """Certificate for a pentagon that is a (3,2) equidistant polygon, else None.

    Returns None when the shape fails a structural condition (two non-adjacent
    concave angles, interior and distinct pseudo focal points); the inner
    diagonal bd needs no test (``label_pentagon``).  Raises RoundTripFailure
    when the recovered focal sets do not reproduce the pentagon's boundary.
    """
    pent = points if isinstance(points, LabeledPentagon) else label_pentagon(points)
    if pent is None:
        return None
    poly = pent.points
    verts, k = _integer_vertices(poly)
    sites = _pentagon_sites(verts)
    pts = _rounded(sites, k)
    try:
        cfg = FocalConfig(inner=pts[:2], outer=pts[2:])
    except InvalidConfig:
        return None
    if not all(point_in_polygon(x, poly) for x in cfg.inner):
        return None
    return _certify(cfg, sites, verts, "pentagon", poly)


# ---------------------------------------------------------------------------
# concave quadrangles


def _crossing(c, d, u, v):
    """The denominator and the t and s numerators of c + t*d = u + s*(v - u)."""
    ex, ey = v[0] - u[0], v[1] - u[1]
    wx, wy = u[0] - c[0], u[1] - c[1]
    return d[0] * ey - d[1] * ex, wx * ey - wy * ex, wx * d[1] - wy * d[0]


def _exit_param(verts, ray):
    """The s > 0 at which c + s*ray leaves the triangle abd through ab or da, as the pair
    (numerator, denominator), or None; verts are a labeled quad's integer vertices.

    c lies inside abd, and the quadrangle is abd minus bcd: the ray enters the quadrangle
    exactly when it leaves abd through ab or da.  It leaves abd once; through the vertex a
    it meets both sides at one s.
    """
    a, b, c, d = verts
    for u, v in ((a, b), (d, a)):
        denom, tn, sn = _crossing(c, ray, u, v)
        if denom < 0:
            denom, tn, sn = -denom, -tn, -sn
        if denom and tn > 0 and 0 <= sn <= denom:
            return tn, denom
    return None


def _feasible_intervals(verts, k: int, ray):
    """[(0, the nearer exit of x1's ray and x2's ray, D mirrored in ca)], or [].

    An exit at s along D lies s * |D| / 2**k from c, and |D| = h * 2**e up to h's rounding.
    """
    a, _, c, _ = verts
    (ux, uy), e, h = ray
    mx, my, n = _reflected((c[0] + ux, c[1] + uy, 1), c, a)  # c + D mirrored, at n = |a - c|**2
    s1 = _exit_param(verts, (ux, uy))
    s2 = _exit_param(verts, (mx - c[0] * n, my - c[1] * n))  # n times D mirrored
    if s1 is None or s2 is None:
        return []
    (n1, d1), (n2, d2) = s1, (s2[0] * n, s2[1])
    num, den = (n1, d1) if n1 * d2 <= n2 * d1 else (n2, d2)
    return [(0.0, _signed_ratio(num << e, den << k) * h)]


def _auxiliary_ray(verts, k: int):
    """The auxiliary ray (D, e, h) of a labeled quad's integer vertices at 2**k, and its
    feasible intervals.

    D is the exact direction of the auxiliary line from c, 2**e exceeds its coordinates
    and h is the length of D / 2**e; construction parameters t measure the distance from
    c along D.  ca bisects x1 and x2, and cd and da are edges of x1's cell (y3 and y1
    mirror x1 in them), so x1 lies on d's side of ca: right of c -> a, as d is convex in
    ccw c, d, a, b.  D is never along ca, since b, c and d are not collinear.
    """
    a, b, c, dv = verts
    ux, uy = _composed_direction(c, dv, b, a)
    if (a[0] - c[0]) * uy - (a[1] - c[1]) * ux > 0:
        ux, uy = -ux, -uy
    e = max(abs(ux), abs(uy)).bit_length()
    ray = (ux, uy), e, math.hypot(ux / (1 << e), uy / (1 << e))
    return ray, _feasible_intervals(verts, k, ray)


def feasible_param_range(q: LabeledQuad) -> list[tuple[float, float]]:
    """Open t-intervals along the auxiliary ray where both focal points are interior (0 or 1)."""
    return _auxiliary_ray(*_integer_vertices(q.points))[1]


def _quad_sites(verts, k: int, ray, t: float):
    """x1, x2, y1, y2, y3 of a labeled quad's integer vertices at parameter t, on the ray
    (D, e, h): x1 = c + (t/h) D / 2**e exactly on the auxiliary line, t/h one float."""
    a, b, c, dv = verts
    (ux, uy), e, h = ray
    sn, sd = (t / h).as_integer_ratio()
    w = sd << e
    x1 = (c[0] * w + (sn << k) * ux, c[1] * w + (sn << k) * uy, w)
    x2 = _reflected(x1, c, a)
    return x1, x2, _reflected(x1, a, dv), _reflected(x2, a, b), _reflected(x1, c, dv)


def construct_quad_focals(q: LabeledQuad, t: float) -> Certificate32:
    """Focal sets realizing a concave quadrangle, at parameter t along the auxiliary ray."""
    return _construct_quad(q, t)[3]


def _construct_quad(q: LabeledQuad, t):
    """The unit ray direction, feasible intervals, t and certificate of one construction.

    The vertices are scaled to integers and the auxiliary ray is found once; t None takes
    the midpoint of the feasible interval.
    """
    verts, k = _integer_vertices(q.points)
    ray, intervals = _auxiliary_ray(verts, k)
    if t is None:
        if not intervals:
            raise NumericalDegeneracy("no feasible construction parameter")
        t = intervals[0][1] / 2.0
    if not any(lo < t < hi for lo, hi in intervals):
        raise ParamOutOfRange(f"t={t} lies outside the feasible range {intervals}")
    sites = _quad_sites(verts, k, ray, t)
    pts = _rounded(sites, k)
    try:
        cfg = FocalConfig(inner=pts[:2], outer=pts[2:])
    except InvalidConfig as exc:
        raise ParamOutOfRange(f"degenerate focal points at t={t}") from exc
    (ux, uy), e, h = ray
    return ((ux / (1 << e) / h, uy / (1 << e) / h), intervals, t,
            _certify(cfg, sites, verts, "quad", q.points))


# ---------------------------------------------------------------------------
# viewing-angle classification of (3,2) configurations


class OrderingReport(NamedTuple):
    category: str
    omegas: tuple[tuple[float, float, float], tuple[float, float, float]]
    deltas: tuple[float, float, float]
    labeling: tuple[tuple[int, int], tuple[int, int, int]] | None
    separated_outer: int | None
    equal_omega_pairs: tuple[tuple[int, int], ...]
    collinear: tuple
    concircular: tuple


def _omega(cfg: FocalConfig, i: int, j: int, k: int) -> float:
    return viewing_angle(cfg.inner[i], cfg.outer[j], cfg.outer[k])


def classify_generic_32(cfg: FocalConfig) -> OrderingReport:
    """Viewing-angle report for a (3,2) configuration; each decision is an exact sign.

    The line x0x1 separates one outer point s from a and b, and the ray from x0
    through x1 leaves by the side s-a.  Each triangle x0 x1 y has angle sum π, so
    ω(x0) - ω(x1) is -(δa + δs) on (a, s), δb + δs on (b, s) and δa - δb on (a, b).
    The angles thus alternate (the pentagon ordering) under y2 = s, y1 the one of a, b
    with the larger δ (an in-circle sign) and x0 the inner point whose ray to the other
    leaves by s-y1 (an orient sign), so every labeling has δ(y0) < δ(y1).
    A pair's two ω are equal iff its outer points and x0, x1 are concircular.
    Non-regular inputs are tagged concircular or collinear and not labeled.
    """
    if cfg.p != 2 or cfg.q != 3:
        raise PreconditionViolated("classification needs exactly 2 inner and 3 outer points")
    if not is_bounded(cfg):
        raise Unbounded("classification needs a bounded configuration")
    reg = check_regularity(cfg)
    (x0, x1), ys = cfg.inner, cfg.outer
    omegas = tuple(tuple(_omega(cfg, i, j, k) for j, k in _OMEGA_PAIRS) for i in (0, 1))
    deltas = tuple(viewing_angle(y, x0, x1) for y in ys)
    equal_pairs = tuple((j, k) for j, k in _OMEGA_PAIRS if incircle(ys[j], ys[k], x0, x1) == 0)

    category = (CATEGORY_COLLINEAR if reg.collinear
                else CATEGORY_CONCIRCULAR if reg.concircular else CATEGORY_GENERIC)
    labeling = separated = None
    if category == CATEGORY_GENERIC:
        sides = [orient(x0, x1, y) for y in ys]
        s = next(m for m in range(3) if sides.count(sides[m]) == 1)
        a, b = (m for m in range(3) if m != s)
        y0, y1 = (a, b) if incircle(x0, x1, ys[a], ys[b]) == 1 else (b, a)
        xo = (0, 1) if sides[s] == orient(ys[s], ys[y0], ys[y1]) else (1, 0)
        labeling, separated = (xo, (y0, y1, s)), s

    return OrderingReport(category=category, omegas=omegas, deltas=deltas,
                          labeling=labeling, separated_outer=separated,
                          equal_omega_pairs=equal_pairs,
                          collinear=reg.collinear, concircular=reg.concircular)
