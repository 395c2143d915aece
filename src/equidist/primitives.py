"""Robust planar primitives: exact sign predicates and double-precision constructions.

``orient`` is evaluated in floating point with a forward error bound and falls
back to exact integer arithmetic when the float result is too close to zero to
be trusted; ``incircle`` is always exact.  Exact signs and circumcircles scale
the coordinates to integers by one power of two (``dyadic_ints``), and
circumcircles are rounded once.  The float line layer (``Line``,
``line_intersection``, ``reflect_point`` and ``compose_three_reflections``) is
plain double precision; the package re-exports it, and no engine module calls
it: the engine builds its (3,2) focal points exactly instead (``type32``).
``compose_three_reflections`` checks concurrency against
``TAU_CONC * max(1, |P.x|, |P.y|)`` at the common point P: relative where P has a
coordinate beyond +-1, and an absolute 1e-9 near the origin, where it has none.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (CoincidentPoints, CollinearBase, DegenerateRay, NotConcurrent,
                     NumericalDegeneracy)

# Default eps of extract_boundary's vertex merge (relative to the focal points' extent) and of
# the CLI's --eps; nothing else reads it.
EPS_GEO = 1e-9
# Concurrency tolerance of compose_three_reflections: relative to the common point's largest
# coordinate, and absolute (1e-9) where that coordinate is below 1.
TAU_CONC = 1e-9

# Forward error bound for the floating-point orientation filter (eps = 2^-53).
_EPS_MACH = 2.0 ** -53
_ORIENT_ERRBOUND = (3.0 + 16.0 * _EPS_MACH) * _EPS_MACH
# The bound assumes no underflow; an underflowing product is off by at most 2^-1075.
_ORIENT_FLOOR = 2.0 ** -1060

TWO_PI = 2.0 * math.pi


class Point(NamedTuple):
    x: float
    y: float


class Line(NamedTuple):
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


class Circle(NamedTuple):
    center: Point
    radius: float


def dist(p: Point, q: Point) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


def dyadic_ints(values) -> tuple[list[int], int]:
    """Finite floats as the integers values[i] * 2**k for the least k >= 0, and k."""
    ratios = [v.as_integer_ratio() for v in values]  # denominators are powers of two
    k = max(d.bit_length() for _, d in ratios) - 1
    return [n << (k + 1 - d.bit_length()) for n, d in ratios], k


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

    The orientation of (p, q, r) does not matter: ``_incircle_exact`` assumes
    a counterclockwise base, and its sign is multiplied by the orientation.
    """
    o = orient(p, q, r)
    if o == 0:
        raise CollinearBase(f"incircle base points are collinear: {p}, {q}, {r}")
    return o * _incircle_exact(p, q, r, s)


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

    The float terms are summed exactly and rounded once (``math.fsum``), so the area does
    not depend on the vertex the cycle starts at.  A term or sum that overflows is redone
    exactly and rounded once (±inf beyond the float range).
    """
    try:
        s = math.fsum(a.x * b.y - b.x * a.y for a, b in zip(points, points[1:] + points[:1]))
    except (OverflowError, ValueError):  # ValueError: terms of +inf and -inf
        s = math.inf
    if math.isfinite(s):
        return s / 2.0
    ints, k = dyadic_ints([v for p in points for v in p])
    xs, ys = ints[::2], ints[1::2]
    twice = sum(xs[i - 1] * ys[i] - xs[i] * ys[i - 1] for i in range(len(xs)))
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
    return _circumcircle_ints(p, q, r, k, px, py,
                              bx, by, bx * bx + by * by, cx, cy, cx * cx + cy * cy)


def _circumcircle_ints(p: Point, q: Point, r: Point, k: int, px: int, py: int,
                       bx: int, by: int, b2: int, cx: int, cy: int, c2: int) -> Circle:
    """``circumcircle(p, q, r)`` from integers at any 2**k: p as (px, py), q - p as
    (bx, by) with its squared length b2, and r - p as (cx, cy) with c2.

    The centre and radius are exact rationals rounded once, so every such k gives the
    same circle; p, q and r only name the points in an error.  ``circumcircle`` passes
    the squared differences as b2 and c2; ``polygon.empty_circle_triples`` reads them
    from its input's table of squared distances.
    """
    d = 2 * (bx * cy - by * cx)
    if d == 0:
        raise CollinearBase(f"circumcircle of collinear points: {p}, {q}, {r}")
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


def reflect_point(l: Line, p: Point) -> Point:
    d = l.eval(p)
    return Point(p.x - 2.0 * d * l.a, p.y - 2.0 * d * l.b)


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
