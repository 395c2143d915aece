"""Robust planar primitives: exact sign predicates and double-precision constructions.

Predicates (``orient``, ``incircle``) are evaluated in floating point with a
forward error bound and fall back to exact integer arithmetic when the float
result is too close to zero to be trusted: the coordinates are scaled to
integers by one power of two (``dyadic_ints``).  ``incircle_hits`` holds the
one in-circle filter and runs it over many fourth points of one triangle at
once, for the exhaustive scans of the hypergraph; ``incircle`` is its case of
one candidate.  Circumcircles are computed exactly on the scaled integers and
rounded once; the other constructions (intersections, reflections) are plain
double precision, and callers compare their results with a relative
tolerance against the coordinate scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (CoincidentPoints, CollinearBase, DegenerateRay, NotConcurrent,
                     NumericalDegeneracy)

# Relative tolerance used for double-precision geometric comparisons.
EPS_GEO = 1e-9
# Relative tolerance for the concurrency check in compose_three_reflections.
TAU_CONC = 1e-9
# Relative tolerance for round-trip boundary comparisons.
EPS_RT = 1e-9

# Forward error bounds for the floating-point predicate filters (eps = 2^-53).
_EPS_MACH = 2.0 ** -53
_ORIENT_ERRBOUND = (3.0 + 16.0 * _EPS_MACH) * _EPS_MACH
_INCIRCLE_ERRBOUND = (10.0 + 96.0 * _EPS_MACH) * _EPS_MACH
# The bounds assume no underflow.  An underflowing product is off by at most 2^-1075:
# orient adds _ORIENT_FLOOR to its bound, and lifted_rows sends nonzero differences
# below _LIFT_TINY, whose products of four may underflow, to the exact in-circle sign.
_ORIENT_FLOOR = 2.0 ** -1060
_LIFT_TINY = 2.0 ** -240

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __iter__(self):
        yield self.x
        yield self.y


@dataclass(frozen=True)
class Line:
    """Implicit line a*x + b*y + c = 0 with a^2 + b^2 = 1.

    The normal (a, b) is normalized to be lexicographically positive
    (a > 0, or a = 0 and b > 0) so equal lines have equal coefficients.
    """

    a: float
    b: float
    c: float

    @staticmethod
    def normalized(a: float, b: float, c: float) -> "Line":
        n = math.hypot(a, b)
        if n == 0.0:
            raise ValueError("degenerate line: zero normal")
        a, b, c = a / n, b / n, c / n
        if a < 0.0 or (a == 0.0 and b < 0.0):
            a, b, c = -a, -b, -c
        return Line(a, b, c)

    @staticmethod
    def through(p: Point, q: Point) -> "Line":
        if p == q:
            raise CoincidentPoints(f"line through coincident points {p}")
        dx, dy = q.x - p.x, q.y - p.y
        return Line.normalized(-dy, dx, dy * p.x - dx * p.y)

    @staticmethod
    def from_point_angle(p: Point, theta: float) -> "Line":
        dx, dy = math.cos(theta), math.sin(theta)
        return Line.normalized(-dy, dx, dy * p.x - dx * p.y)

    def eval(self, p: Point) -> float:
        """Signed distance of p from the line (the normal is unit length)."""
        return self.a * p.x + self.b * p.y + self.c

    def angle(self) -> float:
        """Direction angle of the line in [0, pi)."""
        return math.atan2(self.a, -self.b) % math.pi


@dataclass(frozen=True)
class Circle:
    center: Point
    radius: float


def dist(p: Point, q: Point) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


def dyadic_ints(values) -> tuple[list[int], int]:
    """Finite floats as the integers values[i] * 2**k for the least k >= 0, and k."""
    ratios = [v.as_integer_ratio() for v in values]  # denominators are powers of two
    k = max(d.bit_length() for _, d in ratios) - 1
    return [n << (k + 1 - d.bit_length()) for n, d in ratios], k


def coord_scale(points) -> float:
    """Coordinate scale of a point collection: max absolute coordinate (>= fallback 1)."""
    m = 0.0
    for p in points:
        m = max(m, abs(p.x), abs(p.y))
    return m if m > 0.0 else 1.0


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of the counterclockwise turn p -> q -> r.

    +1 for a left turn, -1 for a right turn, 0 exactly when the points are
    collinear; the zero branch is decided in exact integer arithmetic.
    """
    detl = (q.x - p.x) * (r.y - p.y)
    detr = (q.y - p.y) * (r.x - p.x)
    det = detl - detr
    bound = _ORIENT_ERRBOUND * (abs(detl) + abs(detr)) + _ORIENT_FLOOR
    if det > bound:
        return 1
    if -det > bound:
        return -1
    return _orient_exact(p, q, r)


def _orient_exact(p: Point, q: Point, r: Point) -> int:
    (px, py, qx, qy, rx, ry), _ = dyadic_ints((p.x, p.y, q.x, q.y, r.x, r.y))
    det = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    return (det > 0) - (det < 0)


def incircle(p: Point, q: Point, r: Point, s: Point) -> int:
    """+1 iff s is strictly inside the circle through p, q, r; 0 on it; -1 outside.

    The orientation of (p, q, r) does not matter.  The exact sign comes from
    ``incircle_hits`` on the triangle (p, q, r) and the one candidate s.
    """
    o = orient(p, q, r)
    if o == 0:
        raise CollinearBase(f"incircle base points are collinear: {p}, {q}, {r}")
    points = (p, q, r, s)
    rows = lifted_rows(points, 0)
    for raw in (1, -1):
        if next(incircle_hits(points, rows, 0, 1, 2, (3,), raw), None) is not None:
            return -o * raw
    return 0


def lifted_rows(points, a: int) -> list[tuple[float, float, float]]:
    """Row (u, v, u^2 + v^2) of every point, relative to points[a].

    The row is NaN when u or v is nonzero and below ``_LIFT_TINY`` in
    magnitude, so every filter test of it fails and its signs are exact.
    """
    ax, ay = points[a].x, points[a].y
    rows = []
    for p in points:
        u, v = p.x - ax, p.y - ay
        tiny = 0.0 < abs(u) < _LIFT_TINY or 0.0 < abs(v) < _LIFT_TINY
        rows.append((math.nan,) * 3 if tiny else (u, v, u * u + v * v))
    return rows


def incircle_hits(points, rows, a: int, b: int, c: int, candidates, want: int):
    """Yield, in order, the candidates d with _incircle_exact(b, c, d, a) == want.

    ``rows`` is ``lifted_rows(points, a)``.  The float determinant of
    (b, c, d, a) is expanded along the lifted rows relative to a, with the
    terms of b and c computed once per call instead of once per candidate,
    and its forward error bound is Shewchuk's; undecided signs fall back to
    ``_incircle_exact``, so every sign is exact.  When o = orient(a, b, c) is
    not 0, incircle(a, b, c, d) == -o * _incircle_exact(b, c, d, a).
    """
    bu, bv, bw = rows[b]
    cu, cv, cw = rows[c]
    bucv, cubv = bu * cv, cu * bv
    minor = bucv - cubv
    perm = abs(bucv) + abs(cubv)
    pa, pb, pc = points[a], points[b], points[c]
    for d in candidates:
        du, dv, dw = rows[d]
        cudv, ducv = cu * dv, du * cv
        dubv, budv = du * bv, bu * dv
        det = bw * (cudv - ducv) + cw * (dubv - budv) + dw * minor
        bound = _INCIRCLE_ERRBOUND * ((abs(cudv) + abs(ducv)) * bw
                                      + (abs(dubv) + abs(budv)) * cw
                                      + perm * dw)
        if det > bound:
            sign = 1
        elif -det > bound:
            sign = -1
        else:
            sign = _incircle_exact(pb, pc, points[d], pa)
        if sign == want:
            yield d


def _incircle_exact(a: Point, b: Point, c: Point, d: Point) -> int:
    """Exact in-circle sign: +1 iff d is inside the circle through ccw a, b, c, 0 on it."""
    (ax, ay, bx, by, cx, cy, dx, dy), _ = dyadic_ints((a.x, a.y, b.x, b.y, c.x, c.y, d.x, d.y))
    adx, ady = ax - dx, ay - dy
    bdx, bdy = bx - dx, by - dy
    cdx, cdy = cx - dx, cy - dy
    det = ((adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
           + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
           + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady))
    return (det > 0) - (det < 0)


def signed_area(points) -> float:
    """Shoelace area of a closed polygon: positive when counterclockwise.

    A float sum that overflows is redone exactly and rounded once (±inf beyond the float range).
    """
    s = 0.0
    n = len(points)
    for i in range(n):
        a, b = points[i], points[(i + 1) % n]
        s += a.x * b.y - b.x * a.y
    if math.isfinite(s):
        return s / 2.0
    ints, k = dyadic_ints([v for p in points for v in (p.x, p.y)])
    xs, ys = ints[::2], ints[1::2]
    twice = sum(xs[i - 1] * ys[i] - xs[i] * ys[i - 1] for i in range(n))
    try:
        return twice / (2 << 2 * k)
    except OverflowError:
        return math.inf if twice > 0 else -math.inf


def circumcircle(p: Point, q: Point, r: Point) -> Circle:
    """Circle through three non-collinear points, its centre exact and rounded once.

    Raises NumericalDegeneracy when the centre or the radius leaves the float range.
    """
    (px, py, bx, by, cx, cy), k = dyadic_ints((p.x, p.y, q.x, q.y, r.x, r.y))
    bx, by, cx, cy = bx - px, by - py, cx - px, cy - py
    d = 2 * (bx * cy - by * cx)
    if d == 0:
        raise CollinearBase(f"circumcircle of collinear points: {p}, {q}, {r}")
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    nx, ny = cy * b2 - by * c2, bx * c2 - cx * b2  # centre - p == (nx, ny) / (d * 2**k)
    den = d << k
    try:
        center = Point((px * d + nx) / den, (py * d + ny) / den)
        radius = math.hypot(nx / den, ny / den)
    except OverflowError:
        radius = math.inf
    if not math.isfinite(radius):
        raise NumericalDegeneracy(f"circumcircle of {p}, {q}, {r} leaves the float range")
    return Circle(center, radius)


def perp_bisector(p: Point, q: Point) -> Line:
    """Perpendicular bisector of the segment pq (points of equal distance)."""
    if p == q:
        raise CoincidentPoints(f"perpendicular bisector of coincident points {p}")
    nx, ny = q.x - p.x, q.y - p.y
    mx, my = (p.x + q.x) / 2.0, (p.y + q.y) / 2.0
    return Line.normalized(nx, ny, -(nx * mx + ny * my))


def reflect_point(l: Line, p: Point) -> Point:
    d = l.eval(p)
    return Point(p.x - 2.0 * d * l.a, p.y - 2.0 * d * l.b)


def reflect_direction(l: Line, dx: float, dy: float) -> tuple[float, float]:
    """Image of a direction vector under reflection about l."""
    d = l.a * dx + l.b * dy
    return dx - 2.0 * d * l.a, dy - 2.0 * d * l.b


def line_intersection(l1: Line, l2: Line):
    """Intersection point of two lines, or None if they are parallel."""
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0.0:
        return None
    x = (l1.b * l2.c - l2.b * l1.c) / det
    y = (l2.a * l1.c - l1.a * l2.c) / det
    return Point(x, y)


def compose_three_reflections(l1: Line, l2: Line, l3: Line) -> Line:
    """Line m with reflect(m, .) == reflect(l1, reflect(l2, reflect(l3, .))).

    The three lines must pass through a common point P; the result passes
    through P with direction angle theta1 - theta2 + theta3 (mod pi).
    """
    best = None
    best_det = 0.0
    for la, lb in ((l1, l2), (l1, l3), (l2, l3)):
        det = la.a * lb.b - lb.a * la.b
        if abs(det) > abs(best_det):
            best, best_det = (la, lb), det
    if best is None or best_det == 0.0:
        # All parallel: concurrent only if the three lines coincide.
        common = Point(-l1.c * l1.a, -l1.c * l1.b)
    else:
        common = line_intersection(*best)
    scale = max(1.0, abs(common.x), abs(common.y))
    resid = max(abs(l.eval(common)) for l in (l1, l2, l3))
    if resid > TAU_CONC * scale:
        raise NotConcurrent(f"lines share no common point (residual {resid:.3e})")
    theta = (l1.angle() - l2.angle() + l3.angle()) % math.pi
    return Line.from_point_angle(common, theta)


def viewing_angle(vertex: Point, a: Point, b: Point) -> float:
    """Unsigned angle in [0, pi] between the rays vertex->a and vertex->b."""
    ax, ay = a.x - vertex.x, a.y - vertex.y
    bx, by = b.x - vertex.x, b.y - vertex.y
    if (ax == 0.0 and ay == 0.0) or (bx == 0.0 and by == 0.0):
        raise DegenerateRay(f"viewing angle from {vertex} with a ray of zero length")
    return math.atan2(abs(ax * by - ay * bx), ax * bx + ay * by)


def viewing_angle_ccw(vertex: Point, a: Point, b: Point) -> float:
    """Counterclockwise angle in [0, 2*pi) from ray vertex->a to ray vertex->b."""
    ax, ay = a.x - vertex.x, a.y - vertex.y
    bx, by = b.x - vertex.x, b.y - vertex.y
    if (ax == 0.0 and ay == 0.0) or (bx == 0.0 and by == 0.0):
        raise DegenerateRay(f"viewing angle from {vertex} with a ray of zero length")
    return math.atan2(ax * by - ay * bx, ax * bx + ay * by) % TWO_PI
