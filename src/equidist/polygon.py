"""Regularity checks, the empty-circumcircle hypergraph, and boundary extraction.

The focal points of an input are scaled to integers once, and two n x n
tables of their pairwise integers are built from them (``body._tables``, kept
for the last config object; the body's hull clearance and graph read them too):
the cross products X[p][q] = p x q and the squared distances S[p][q] = |p - q|^2.
Every triple's cross product and the dot
product behind its circle are then sums of table entries, so the O(n^3)
regularity loop does no multiplication.  For each pair (a, b) the regularity
check keys every later point c by its circle through a and b: a zero cross
product is a collinear triple, and otherwise the key is twice the circle's
centre along the bisector of ab, an exact rational rounded once.  Points
sharing a key are confirmed by exact equality of their rationals.  That loop
runs only where a float certificate cannot decide: inverted about each base
point a, the later points and the origin are in general position exactly when
no triple or quadruple with least index a is degenerate, so the directions of
the lines through their pairs, keyed in floats, sorted once per base point and
all further apart than twice a proven forward error bound of the form
(8 Dmax / Dmin + 8) 2**-53, prove the input regular (``_certified_regular``).
A gap at or below it, a vertical pair or a failed range guard runs the loop.  The
Delaunay subdivision of K ∪ L, whose faces are the maximal sets of points on
an empty circle, is built once per config object by gift-wrapping: each point
left of an open edge is keyed by its circle through the edge's ends, as the
regularity check keys it, from sums of table entries, and the least key, by
cross-multiplication, closes the edge.  On regular input its faces are the
empty-circumcircle triples; each circle comes from the differences and squared
distances of its lowest index, by the integer core of ``circumcircle``.  Both
reports list triples and quadruples in ``combinations`` order.
The body is the union of the inner sites' cells in Vor(K ∪ L), so its boundary is
dual to the subdivision's edges between an inner and an outer point, and its
vertices are the exact circumcentres of their faces.  The walk turns from one edge
to the next through the inner points of a face, so a pinch point needs no
comparison of directions, and only a tied chain start reads the clipped cells.
Refs are decided in integers.  Angle types, orientation and chain order are
read from the correctly rounded vertices where the one float sign filter
(``primitives._sum_sign``, on shoelace sums) or the monotonicity of rounding decides
them, and in integers where it does not, so each is exact and vertex 0 of a chain is
its exactly lowest vertex.  ``eps`` only merges each run of consecutive chain
vertices closer than eps times the extent of the focal points; a run keeps its
first member's point.  The chains of the last config object and eps are kept
(``once_per_input``), so the stages of one input walk its boundary once.
``voronoi_check`` and ``cell_polygons`` read the exact cells of ``inner_cells``.
Boundary extraction needs no regularity, so degenerate inputs (concircular
focal quadruples) are handled by the same code and show up as double-change
vertices.
"""

from __future__ import annotations

import math
import sys
from functools import cmp_to_key
from itertools import repeat
from operator import mul, neg, sub
from typing import NamedTuple

from .body import (
    MEMBER_BOUNDARY,
    MEMBER_INSIDE,
    EquidistantBody,
    FocalConfig,
    _float_point,
    _scaled,
    _tables,
    build_body,
    membership,
    once_per_input,
)
from .errors import RegularityViolated
from .primitives import (
    EPS_GEO,
    Circle,
    Point,
    _circumcircle_ints,
    _sum_sign,
    dist,
    incircle,  # with orient, not called here: bench/spans.py counts calls through both
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


class FocalRef(NamedTuple):
    kind: str  # "inner" | "outer"
    index: int


class RegularityReport(NamedTuple):
    ok: bool
    collinear: tuple[tuple[FocalRef, FocalRef, FocalRef], ...]
    concircular: tuple[tuple[FocalRef, FocalRef, FocalRef, FocalRef], ...]


class HyperEdge(NamedTuple):
    """Empty-circumcircle focal triple; colored edges carry the lone point in the middle."""

    refs: tuple[FocalRef, FocalRef, FocalRef]
    color: str
    circle: Circle
    weight: float | None


class VertexClassification(NamedTuple):
    vertices: tuple[tuple[Point, str], ...]
    interior_witnesses: tuple[Point, ...]
    exterior_witnesses: tuple[Point, ...]


class VertexInfo(NamedTuple):
    angle_type: str
    change_type: str
    inner_refs: tuple[int, ...]
    outer_refs: tuple[int, ...]


class PolygonChain(NamedTuple):
    """Closed counterclockwise boundary chain, from its exactly lowest vertex by (x, y).

    ``edge_pairs[m]`` is the (inner index, outer index) pair whose bisector
    carries the edge from ``vertices[m]`` to ``vertices[m+1]``.
    """

    vertices: tuple[Point, ...]
    vertex_info: tuple[VertexInfo, ...]
    edge_pairs: tuple[tuple[int, int], ...]

    def signed_area(self) -> float:
        return signed_area(self.vertices)


class BoundReport(NamedTuple):
    ok: bool
    count: int
    limit: int


class VoronoiReport(NamedTuple):
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


def _certified_regular(tables) -> bool:
    """True where floats prove the points of ``_tables`` regular; False where they cannot.

    Inversion about a focal point a, w_b = (b - a) / |b - a|^2, maps each circle through
    a to a line and each line through a to itself, and the origin O stands for a.  So
    a, b, c are collinear exactly when O, w_b and w_c are, and a, b, c, d are concircular
    exactly when w_b, w_c and w_d are collinear.  For a = 0 ... n - 3, the points
    W_a = {O} ∪ {w_b : b > a} thus have no three on a line exactly when no collinear triple
    and no concircular quadruple has a as its least index.  That holds where the lines
    through the pairs of W_a have pairwise different directions, since three points on a
    line give two pairs of one direction; two parallel pairs without a common point only
    make the certificate fail, and the loop decides.  Each pair's
    direction is keyed by t / (1 + |t|), t = Δv / Δu: on the angle θ in [-π/2, π/2) of the
    direction its slope is 1 / (|cos θ| + |sin θ|)^2 <= 1, and it closes into a circle of
    length 2 where -1 meets 1.  All keys of one a are built in one comprehension and sorted
    once.  Where every gap, and the wrap gap 2 + first - last, exceeds 2 eps, with eps a
    bound on each key's error along that circle, no two exact keys are equal, so every W_a
    is in general position and the points are regular.

    The bound, with u = 2**-53 and rho = Dmax / Dmin, the longest over the shortest
    distance of two focal points, read exactly from S:

    - The tables hold the points times 2**k, each integer a float times a power of two,
      so ``float`` converts it exactly or raises ``OverflowError``; distinct points differ
      by at least 1 there.  S < 2**800 then keeps every difference below 2**400, and every
      inverted coordinate 0 or within [2**-800, 1.01]: nothing overflows or underflows, and
      no value is subnormal.  So every rounding below is relative.
    - Each coordinate of w_b rounds three times (the difference, the float of S and the
      quotient), so w_b lies within (3u + 5u^2) |w_b| = (3u + 5u^2) / |b - a| of its value.
    - Δw = w_c - w_b has length |c - b| / (|b - a| |c - a|).  So the two points' errors
      move it by at most (3u + 5u^2) (|b - a| + |c - a|) / |c - b| <= (6u + 10u^2) rho
      relatively, the rounded subtraction by u more: eta <= 6 rho u (1 + 3u) + u in all.
      A pair with O carries w_b's error alone.  rho < 2**40 (S within 2**80 of its least
      entry) keeps eta below 2**-10, so the direction turns by at most
      arcsin(eta) <= (1 + 2**-20) eta, and the key moves no more along its circle.
    - Every nonzero coordinate is a multiple of 2**-852 of size at most 1.01, so a nonzero
      Δu is at least 2**-852 and |t| < 2**854: t is finite and normal.  t, 1 + |t| and the
      key each round once, which moves the key by at most 2.26u.
    - Each key thus lies within 6.00001 rho u + 3.27u of its exact value.  A rounded gap
      adds u relatively, the wrap gap 4u absolutely.  eps = (8 rho' + 8) u, with rho' the
      rounded sqrt(Smax / Smin), within 2u of rho relatively, covers all of it.

    A zero Δu (``ZeroDivisionError``), a failed guard or a gap at or below 2 eps returns
    False, and so does any tie, whose two pairs of one direction leave a gap of at most
    2 eps.
    """
    _, xs, ys, _, S = tables
    n = len(xs)
    smin = min(min(S[a][a + 1:]) for a in range(n - 1))
    smax = max(max(S[a][a + 1:]) for a in range(n - 1))
    if smax.bit_length() > 800 or smax >> 80 >= smin:  # the guards S < 2**800, rho < 2**40
        return False
    tol = (16.0 * math.sqrt(smax / smin) + 16.0) * 2.0 ** -53  # 2 eps
    try:
        fx, fy = list(map(float, xs)), list(map(float, ys))
        for a in range(n - 2):
            xa, ya = fx[a], fy[a]
            w = [((x - xa) / s, (y - ya) / s)
                 for x, y, s in zip(fx[a + 1:], fy[a + 1:], map(float, S[a][a + 1:]))]
            w.append((0.0, 0.0))
            keys = [(t := (vc - vb) / (uc - ub)) / (1.0 + abs(t))
                    for m, (ub, vb) in enumerate(w) for uc, vc in w[m + 1:]]
            keys.sort()
            if not (min(map(sub, keys[1:], keys)) > tol and 2.0 + keys[0] - keys[-1] > tol):
                return False
    except (ZeroDivisionError, OverflowError):
        return False
    return True


@once_per_input
def check_regularity(cfg: FocalConfig) -> RegularityReport:
    """Exact test for collinear triples (C1) and concircular quadruples (C2), O(n^3).

    A float certificate runs first (``_certified_regular``): it keys the direction of
    every line through two points inverted about each base point, sorts the keys of one
    base point once, and returns the report of a regular input, with no triple or
    quadruple listed, where every gap between them exceeds a proven forward error bound.
    Its verdict is exact: it certifies no irregular input.  Anything else, a gap at or
    below the bound, a vertical pair or a failed range guard, runs the exact loop below,
    which alone lists triples and quadruples.

    Every triple's integers are sums of entries of the tables of ``_tables``,
    built once per input, so the O(n^3) loop does no multiplication.  A later
    pair (b, c) is collinear with a exactly when the cross product
    (b - a) x (c - a) = X[a][b] + X[b][c] - X[a][c] is 0, and a collinear
    triple extends to no concircular quadruple, since a circle meets a line in
    at most two points.  Otherwise c's circle through a and b is keyed by
    twice its centre's coordinate along the bisector of ab, the rational
    num / cross with num = 2 (c - a).(c - b) = S[a][c] + S[b][c] - S[a][b],
    rounded once by the correctly rounded integer division (±inf beyond the
    float range).  Equal rationals give equal keys, so each concircular
    quadruple (a, b, c, d) shares a key; two members of a shared key are
    confirmed by exact equality of their rationals,
    num_c * cross_d == num_d * cross_c, which rejects keys that collide by
    rounding.  Both lists come out in ``combinations`` order.  A second call
    with the same config object returns the same report.
    """
    if _certified_regular(_tables(cfg)):
        return RegularityReport(ok=True, collinear=(), concircular=())
    refs = [r for r, _ in labeled_points(cfg)]
    n = len(refs)
    _, _, _, X, S = _tables(cfg)
    collinear = []
    concircular = []
    for a in range(n):
        Xa, Sa = X[a], S[a]
        for b in range(a + 1, n):
            Xb, Sb = X[b], S[b]
            xab, sab = Xa[b], Sa[b]
            first = {}  # key -> the least c with it
            shared = {}  # the least c of a shared key -> every c with it, ascending
            for c in range(b + 1, n):
                cross = xab + Xb[c] - Xa[c]
                if cross == 0:
                    collinear.append((refs[a], refs[b], refs[c]))
                    continue
                num = Sa[c] + Sb[c] - sab
                try:
                    key = num / cross
                except OverflowError:
                    key = math.inf if (num > 0) == (cross > 0) else -math.inf
                least = first.setdefault(key, c)
                if least != c:
                    shared.setdefault(least, [least]).append(c)
            for group in shared.values():
                ratios = [(Sa[c] + Sb[c] - sab, xab + Xb[c] - Xa[c]) for c in group]
                for m, (num_c, cross_c) in enumerate(ratios):
                    for d, (num_d, cross_d) in zip(group[m + 1:], ratios[m + 1:]):
                        if num_c * cross_d == num_d * cross_c:
                            concircular.append((a, b, group[m], d))
    concircular.sort()
    return RegularityReport(ok=not collinear and not concircular,
                            collinear=tuple(collinear),
                            concircular=tuple(tuple(refs[i] for i in quad)
                                              for quad in concircular))


@once_per_input
def _subdivision(cfg: FocalConfig) -> tuple[list[list[int]], dict]:
    """The Delaunay subdivision of cfg's points: faces, and the face left of each edge.

    Each face lists its points counterclockwise, and (u, v) maps to (face, position of
    u) for each face edge.  A face holds every point on its empty circle, so ties need
    no general position.  Gift-wrapping: the lowest point by (y, x) and the nearest
    point on the line that leaves every other point to its left span a hull edge.  An
    open edge (u, v) is closed by the points to its left on the circle through u and v
    that holds no point on that side.  A point z left of (u, v) has
    cross = X[u][v] + X[v][z] - X[u][z] > 0, and its circle through u and v is keyed,
    as in ``check_regularity``, by num / cross with num = S[u][z] + S[v][z] - S[u][v]:
    twice the cotangent of the angle u z v, so the key orders the circles' centres
    along the bisector of uv, and the circle whose centre lies least far to the left
    holds no left point.  Keys are compared by cross-multiplication: the face's points
    are the left points of the least key, the first of them found and every one tied
    with it.  They go around the circle from v, sorted by their turns at v.  The face's
    other edges open reversed; one with no point to its left is a hull edge.  X is
    antisymmetric, so no edge counts its own ends as left of it.  Kept for the last
    config object: the boundary walk and the hypergraph share it.
    """
    _, xs, ys, X, S = _tables(cfg)
    n = len(xs)
    faces, where = [], {}
    s = min(range(n), key=lambda i: (ys[i], xs[i]))
    Xs, Ss = X[s], S[s]
    t = (s + 1) % n
    for z in range(n):
        turn = Xs[t] + X[t][z] - Xs[z]
        if turn < 0 or turn == 0 and z != s and Ss[z] < Ss[t]:
            t = z
    stack = [(s, t)]
    while stack:
        u, v = stack.pop()
        if (u, v) in where:
            continue
        xuv, suv = X[u][v], S[u][v]
        w = None
        for z, xuz, xvz, suz, svz in zip(range(n), X[u], X[v], S[u], S[v]):
            cross = xuv + xvz - xuz
            if cross > 0:
                num = suz + svz - suv
                if w is not None:
                    order = num * least_cross - least_num * cross  # the keys' difference, times both
                    if order >= 0:
                        if order == 0:
                            tied.append(z)
                        continue
                w, tied, least_num, least_cross = z, [], num, cross
        if w is None:
            continue
        face = [u, v, w]
        if tied:  # around the circle from v: a before b when v, a, b turn left
            face[2:] = sorted([w, *tied], key=cmp_to_key(lambda a, b: X[v][b] - X[v][a] - X[a][b]))
        for m, a in enumerate(face):
            b = face[m + 1 - len(face)]
            where[a, b] = len(faces), m
            if m:
                stack.append((b, a))
        faces.append(face)
    return faces, where


def _triple_color(kinds) -> str:
    inner = kinds.count("inner")
    if inner == 3:
        return COLOR_MONO_INNER
    if inner == 0:
        return COLOR_MONO_OUTER
    return COLOR_XYX if inner == 2 else COLOR_YXY


def empty_circle_triples(cfg: FocalConfig) -> tuple[HyperEdge, ...]:
    """All focal triples whose circumcircle contains no focal point strictly inside.

    Raises RegularityViolated unless ``check_regularity`` passes.  On regular
    input these triples are exactly the faces of the Delaunay subdivision of the
    focal points (``_subdivision``), all of them triangles.  Triples
    come in ``combinations`` order.  Colored triples list the lone point in
    the middle and carry its viewing angle of the other two as weight.  Each
    circle is ``circumcircle`` of the sorted triple (a, b, c), computed from
    the integers of ``_tables``: the differences b - a and c - a with the
    squared lengths S[a][b] and S[a][c], so no point is scaled again.
    """
    report = check_regularity(cfg)
    if not report.ok:
        raise RegularityViolated("configuration violates (C1)/(C2)", report)
    pts = labeled_points(cfg)
    tables = _tables(cfg)
    k, xs, ys, _, S = tables
    edges = []
    for i, j, m in sorted(tuple(sorted(face)) for face in _subdivision(cfg)[0]):
        (ra, a), (rb, b), (rc, c) = pts[i], pts[j], pts[m]
        color = _triple_color([ra.kind, rb.kind, rc.kind])
        refs, weight = (ra, rb, rc), None
        # labeled_points lists inner points first, so the lone point of a sorted colored
        # triple is its last (two inner) or its first (one inner)
        if color == COLOR_XYX:
            refs, weight = (ra, rc, rb), viewing_angle(c, a, b)
        elif color == COLOR_YXY:
            refs, weight = (rb, ra, rc), viewing_angle(a, b, c)
        x, y = xs[i], ys[i]  # circumcircle(a, b, c) takes b and c relative to a
        circle = _circumcircle_ints(a, b, c, k, x, y,
                                    xs[j] - x, ys[j] - y, S[i][j], xs[m] - x, ys[m] - y, S[i][m])
        edges.append(HyperEdge(refs=refs, color=color, circle=circle, weight=weight))
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


def _is_clockwise(verts) -> bool:
    """Exactly whether a closed polygon of homogeneous points (W > 0) has negative area."""
    num, den = 0, 1  # twice the area so far is num / den, den > 0
    for (x1, y1, w1), (x2, y2, w2) in zip(verts, verts[1:] + verts[:1]):
        w = w1 * w2
        num, den = num * w + (x1 * y2 - x2 * y1) * den, den * w
    return num < 0


_MIN_NORMAL = sys.float_info.min


def _rounds_relatively(verts, pts) -> bool:
    """Whether each coordinate of pts, the homogeneous points verts correctly rounded, is
    within a relative 2**-53 of its exact value: none is subnormal, or 0.0 where the exact
    coordinate is not 0."""
    return min(abs(c) for p in pts for c in p) >= _MIN_NORMAL or not any(
        abs(c) < _MIN_NORMAL and (c or e) for p, vert in zip(pts, verts)
        for c, e in zip(p, vert))  # c rounds e / (W 2**k), vert = (X, Y, W)


def _shoelace_sign(terms: list[float]) -> int:
    """``_sum_sign`` of shoelace products x y' and -x' y, each rounded once, by ``math.fsum``;
    0 where the sum cannot decide.  It needs ``_rounds_relatively`` of their points."""
    try:
        return _sum_sign(math.fsum(terms), math.fsum(map(abs, terms)), len(terms))
    except (OverflowError, ValueError):  # ValueError: products of +inf and -inf
        return 0


def _is_hole(verts, pts, relative: bool) -> bool:
    """``_is_clockwise(verts)``, from the float shoelace of pts, the points correctly rounded,
    where ``relative`` (``_rounds_relatively``) holds and ``_shoelace_sign`` decides."""
    if relative:
        xs, ys = [p.x for p in pts], [p.y for p in pts]
        # the products x_m y_m+1 and -x_m+1 y_m, each rounded once
        sign = _shoelace_sign([*map(mul, xs, ys[1:] + ys[:1]),
                               *map(mul, map(neg, xs[1:] + xs[:1]), ys)])
        if sign:
            return sign < 0
    return _is_clockwise(verts)


def _orientation_det(u, v, w) -> int:
    """Determinant of three homogeneous points with W > 0: the sign of their turn u -> v -> w."""
    (x1, y1, w1), (x2, y2, w2), (x3, y3, w3) = u, v, w
    return x1 * (y2 * w3 - y3 * w2) - y1 * (x2 * w3 - x3 * w2) + w1 * (x2 * y3 - x3 * y2)


def _turn_signs(verts, pts, relative: bool) -> list[int]:
    """The exact sign of the turn at each vertex of a closed polygon of homogeneous points.

    From the float shoelace of the vertex and its neighbours in pts as in ``_is_hole``,
    else from the exact ``_orientation_det``.
    """
    n = len(pts)
    signs = []
    for t in range(n):
        sign = 0
        if relative:
            (ax, ay), (bx, by), (cx, cy) = pts[t - 1], pts[t], pts[t + 1 - n]
            sign = _shoelace_sign([ax * by, -(bx * ay), bx * cy, -(cx * by), cx * ay, -(ax * cy)])
        if not sign:
            det = _orientation_det(verts[t - 1], verts[t], verts[t + 1 - n])
            sign = (det > 0) - (det < 0)
        signs.append(sign)
    return signs


def _xy_cmp(u, v) -> int:
    """Exact lexicographic (x, y) comparison of two homogeneous points (W > 0)."""
    d = u[0] * v[2] - v[0] * u[2] or u[1] * v[2] - v[1] * u[2]
    return (d > 0) - (d < 0)


_xy_key = cmp_to_key(_xy_cmp)


def _lowest_key(vert, pt: Point) -> tuple:
    """Sort key of a homogeneous point by its exact (x, y), from pt, its correctly rounded point.

    Correct rounding is monotone, so a smaller float x means a smaller exact x, and only
    equal float x values compare the exact points (``_xy_key``).
    """
    return pt.x, _xy_key(vert)


def cell_polygons(body: EquidistantBody) -> tuple[tuple[Point, ...], ...]:
    """The inner sites' cells in Vor(K ∪ L), as float polygons."""
    k = body.components[0]._frame[2]
    return tuple(tuple(_float_point(vert, k) for vert, _ in cell) for cell in body.inner_cells)


def _chains(body: EquidistantBody, eps: float, cycles) -> list[PolygonChain]:
    """The chains of walked cycles of steps (inner i, exact vertex, outer j, sites), sorted.

    A vertex is a homogeneous point (X, Y, W), W > 0, at the 2**k of ``_tables``; its sites,
    indices into ``labeled_points``, are the focal points nearest it.  A step joins the
    run of its predecessor when their float points are closer than eps times the extent
    of the focal points.  A run becomes one vertex at its first member, or at its exactly
    lowest step if it is the whole cycle.  The chain starts at the exactly lowest run
    start, so vertex 0 is its exactly lowest vertex, and a hole is reversed around it.
    Both read the float points first: only run starts of the least float x compare
    exactly (``_lowest_key``), and the float shoelace decides a hole wherever its error
    bound allows (``_is_hole``); chains are sorted by the same key.
    Where a cycle passes that vertex twice, or two chains start there, the cells of
    ``body.inner_cells`` are read, and the steps ordered by inner site and then by their
    edge in its cell: a cycle is read from its first step, and chains come in that order.
    """
    cfg = body.config
    p, k = cfg.p, _tables(cfg)[0]
    xs, ys = [v.x for v in cfg.points], [v.y for v in cfg.points]
    tol = eps * max(max(xs) - min(xs), max(ys) - min(ys))
    at = []  # per inner cell, the position of its edge on each row

    def rank(step):
        if not at:
            at.extend({j: t for t, (_, j) in enumerate(cell)} for cell in body.inner_cells)
        return step[0], at[step[0]][step[2]]

    out = []
    for cycle in filter(None, cycles):
        n = len(cycle)
        step_pts = [_float_point(vert, k) for _, vert, _, _ in cycle]
        joins = [dist(step_pts[m - 1], step_pts[m]) < tol for m in range(n)]
        starts = [m for m in range(n) if not joins[m]] or range(n)
        first = min(starts, key=lambda m: _lowest_key(cycle[m][1], step_pts[m]))
        ties = [m for m in starts if cycle[m][1] == cycle[first][1]]
        if len(ties) > 1:
            start = min(range(n), key=lambda m: rank(cycle[m]))
            first = min(ties, key=lambda m: (m - start) % n)
        # per chain vertex: exact point, float point, refs, pair of the leaving edge
        verts, pts, refs, pairs = [], [], [], []
        for m in range(first, first + n):
            i, vert, j, sites = cycle[m % n]
            if m == first or not joins[m % n]:
                verts.append(vert)
                pts.append(step_pts[m % n])
                refs.append(set())
                pairs.append(None)
            refs[-1].update(sites)
            pairs[-1] = (i, j)  # a run leaves by its last member's edge
        relative = _rounds_relatively(verts, pts)  # kept by the reversal
        if _is_hole(verts, pts, relative):  # reverse, keeping vertex 0
            verts, pts, refs = ([s[0]] + s[:0:-1] for s in (verts, pts, refs))
            pairs.reverse()
        info = []
        for vref, turn in zip(refs, _turn_signs(verts, pts, relative)):
            inner = tuple(sorted(s for s in vref if s < p))
            outer = tuple(sorted(s - p for s in vref if s >= p))
            change = (CHANGE_DOUBLE if len(inner) >= 2 and len(outer) >= 2
                      else CHANGE_INNER if len(inner) >= 2 else CHANGE_OUTER)
            info.append(VertexInfo(angle_type=ANGLE_CONVEX if turn > 0 else ANGLE_CONCAVE,
                                   change_type=change, inner_refs=inner, outer_refs=outer))
        out.append((verts[0], cycle, PolygonChain(vertices=tuple(pts), vertex_info=tuple(info),
                                                  edge_pairs=tuple(pairs))))

    out.sort(key=lambda item: _lowest_key(item[0], item[2].vertices[0]))
    if any(a[0] == b[0] for a, b in zip(out, out[1:])):  # two chains start at one vertex
        out.sort(key=lambda item: (_lowest_key(item[0], item[2].vertices[0]),
                                   min(map(rank, item[1]))))
    return [chain for _, _, chain in out]


@once_per_input
def _boundary(cfg: FocalConfig, eps: float) -> tuple[PolygonChain, ...]:
    """cfg's chains at eps, walked once per config object and eps (``extract_boundary``)."""
    body = build_body(cfg)  # raises Unbounded or NumericalDegeneracy; clips nothing
    p = cfg.p
    _, xs, ys, _, S = _tables(cfg)
    faces, where = _subdivision(cfg)
    seen, cycles = set(), []
    for e in ((f, m) for f, face in enumerate(faces)
              for m in range(len(face)) if face[m - 1] >= p > face[m]):
        cycles.append([])
        while e not in seen:
            seen.add(e)
            f, m = e
            i, j = faces[f][m], faces[f][m - 1]
            a, b, c = faces[f][:3]  # the face's exact circumcentre, from its first points
            bx, by, cx, cy = xs[b] - xs[a], ys[b] - ys[a], xs[c] - xs[a], ys[c] - ys[a]
            d = 2 * (bx * cy - by * cx)  # > 0: a face is counterclockwise
            vert = (xs[a] * d + cy * S[a][b] - by * S[a][c],
                    ys[a] * d + bx * S[a][c] - cx * S[a][b], d)
            cycles[-1].append((i, vert, j - p, faces[f]))
            f, m = where[i, j]  # the face on the other side, where j follows i
            while faces[f][m - 1] < p:  # turn through the inner sites before i
                m -= 1
            e = f, m % len(faces[f])
    return tuple(_chains(body, eps, cycles))


def extract_boundary(cfg: FocalConfig, eps: float = EPS_GEO) -> list[PolygonChain]:
    """Boundary of the body as closed counterclockwise chains, one per boundary cycle.

    The body is the union of the closed Voronoi cells of the inner sites in
    Vor(K ∪ L), so its boundary is exactly the set of cell edges between an inner
    and an outer site, the duals of such edges of the Delaunay subdivision
    (``_subdivision``), walked with the body on the left.  A step along the bisector
    of inner i and outer j runs from the circumcentre of the face where j precedes i
    to that of the face where j follows i; a face's points are the sites nearest its
    centre.  There the walk scans back from i to the first inner point that follows
    an outer one: it turns through the inner cells at the vertex, clockwise from
    the arriving edge, and at a pinch point it leaves by the first boundary edge of
    that turn, with no comparison of directions.  Refs, change types, angle types,
    orientation and chain order are decided exactly.  Vertex 0 of a chain is its
    exactly lowest vertex by (x, y), and chains are sorted by it.  ``eps`` acts in one
    place only: each maximal run of consecutive chain vertices closer than eps times
    the extent of the focal points' bounding box is merged into one vertex, which
    keeps its first member's point and unites the refs, so a vertex the float input
    realises as a pair a few ulps apart counts once.

    The chains of the last config object and eps are kept, so a second call with both
    returns them again, in a new list, even after ``build_body`` has built another body.
    """
    return list(_boundary(cfg, eps))


def check_vertex_bound(chain: PolygonChain, cfg: FocalConfig) -> BoundReport:
    """Vertex count of a single-chain boundary against its combinatorial limit."""
    limit = cfg.q if cfg.p == 1 else cfg.p + cfg.q
    count = len(chain.vertices)
    return BoundReport(ok=count <= limit, count=count, limit=limit)


def voronoi_check(cfg: FocalConfig, n_samples: int = 10000, seed: int = 42) -> VoronoiReport:
    """Sampled agreement between the body and the Voronoi cells of the inner sites.

    A point is strictly inside the body exactly when its nearest focal point is
    inner; strict inside points must land in some inner site's cell and in at
    most one cell interior.  Samples are drawn from the clip box.  One scan finds
    the nearest inner and outer distances, whose float order is exact beyond the
    rounding bound of ``math.hypot``; within it, ``membership`` compares the squared
    distances in integers.  Only a sample exactly as far from an inner as from an
    outer point is skipped as a tie (a tie of two inner sites does not change the
    verdict), so every verdict is exact, ``agreements`` counts it and
    ``disagreements`` is 0.  A sample, scaled to
    integers once at the body's 2**k, lies in a cell of ``EquidistantBody.inner_cells``
    when the exact sign of every edge row of the cell is >= 0, and in its interior
    when every sign is > 0.
    """
    import random  # only this check samples, so a process that never calls it skips the import

    body = build_body(cfg)
    clip = body.clip
    k = body.components[0]._exact[2]
    cells = [[comp._exact[0][j] for _, j in cell]
             for comp, cell in zip(body.components, body.inner_cells)]
    rng = random.Random(seed)

    ties = inside_count = cell_misses = overlap_violations = 0
    for _ in range(n_samples):
        q = (rng.uniform(clip.xmin, clip.xmax), rng.uniform(clip.ymin, clip.ymax))
        d_in = min(map(math.dist, repeat(q), cfg.inner))
        d_out = min(map(math.dist, repeat(q), cfg.outer))
        # math.dist is hypot of the rounded differences: each off by a relative 2**-53 (under
        # an ulp of the distance), hypot under an ulp more, so each distance is within 2 ulps
        # of the exact one, and past 4 ulps of the larger d_in < d_out is the exact order
        inside = d_in < d_out
        if abs(d_in - d_out) <= 4 * math.ulp(max(d_in, d_out)):
            member = membership(Point(*q), cfg)
            if member == MEMBER_BOUNDARY:
                ties += 1
                continue
            inside = member == MEMBER_INSIDE
        if inside:
            inside_count += 1
            x, y, w = _scaled(Point(*q), k)
            slacks = [min(c * w - a * x - b * y for a, b, c in rows) for rows in cells]
            if max(slacks) < 0:
                cell_misses += 1
            if sum(1 for m in slacks if m > 0) > 1:
                overlap_violations += 1
    return VoronoiReport(samples=n_samples, ties_skipped=ties, agreements=n_samples - ties,
                         disagreements=0, inside_count=inside_count,
                         cell_misses=cell_misses, overlap_violations=overlap_violations)
