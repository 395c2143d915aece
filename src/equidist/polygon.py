"""Regularity checks, the empty-circumcircle hypergraph, and boundary extraction.

The focal points of an input are scaled to integers once, and two n x n
tables of their pairwise integers are built from them (``_tables``, kept for
the last config object): the cross products X[p][q] = p x q and the squared
distances S[p][q] = |p - q|^2.  Every triple's cross product and the dot
product behind its circle are then sums of table entries, so the O(n^3)
regularity loop does no multiplication.  For each pair (a, b) the regularity
check keys every later point c by its circle through a and b: a zero cross
product is a collinear triple, and otherwise the key is twice the circle's
centre along the bisector of ab, an exact rational rounded once.  Points
sharing a key are confirmed by exact equality of their rationals.  On regular
input the empty-circumcircle triples are exactly the triangles of the unique
Delaunay triangulation of K ∪ L, built by gift-wrapping with O(n^2)
orientation and in-circle signs: each orientation is a sum of cross products,
each in-circle sign an integer determinant of the points' differences and
squared distances.  Each triangle's circle comes from the differences and
squared distances of its lowest index, by the integer core of
``circumcircle``.  Both reports list triples and quadruples in
``combinations`` order.
The inner sites' Voronoi cells in Vor(K ∪ L) are built once per body, by
``EquidistantBody.inner_cells``: each is its component's exact clip cut
further by the inner rows.  The boundary walk, ``voronoi_check`` and
``cell_polygons`` read them.
The cell edges between an inner and an outer site are exactly the body's boundary.
The walk turns from one to the next through the inner cells that share their
end, so a pinch point needs no comparison of directions; refs, angle types,
orientation and chain order are decided in integers, and vertex 0 of a chain is its
exactly lowest vertex.  ``eps`` only merges each run of consecutive chain vertices
closer than eps times the extent of the focal points; a run keeps its first member's point.
The chains of the last config object and eps are kept (``once_per_input``), so the stages
of one input walk its boundary once.
Boundary extraction needs no regularity, so degenerate inputs (concircular
focal quadruples) are handled by the same code and show up as double-change
vertices.
"""

from __future__ import annotations

import math
from functools import cmp_to_key
from itertools import repeat
from typing import NamedTuple

from .body import (
    EquidistantBody,
    FocalConfig,
    _float_point,
    _orientation_det,
    _scaled,
    build_body,
    once_per_input,
)
from .errors import RegularityViolated
from .primitives import (
    EPS_GEO,
    Circle,
    Point,
    _circumcircle_ints,
    dist,
    dyadic_ints,
    incircle,
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


def ref_point(cfg: FocalConfig, ref: FocalRef) -> Point:
    return cfg.inner[ref.index] if ref.kind == "inner" else cfg.outer[ref.index]


@once_per_input
def _tables(cfg: FocalConfig) -> tuple:
    """cfg's focal points, in ``labeled_points`` order, scaled to integers once.

    Returns (k, xs, ys, X, S): the points at 2**k as columns xs and ys, and
    two n x n tables of their pairwise integers, ``X[p][q]`` the cross product
    p x q and ``S[p][q]`` the squared distance |p - q|^2.  Each is built from
    its upper triangle and mirrored: X is antisymmetric and S symmetric, both
    with a zero diagonal.  Every triple's integers are sums of table entries:
    (b - a) x (c - a) = X[a][b] + X[b][c] - X[a][c], the shoelace terms of
    the triangle, and 2 (c - a).(c - b) = S[a][c] + S[b][c] - S[a][b], the law
    of cosines.  ``check_regularity``, the gift-wrap and the hyperedge circles
    all read these tables, which are kept for the last config object.
    """
    ints, k = dyadic_ints([v for p in cfg.points for v in p])
    xs, ys = ints[::2], ints[1::2]
    n = len(xs)
    X = [[0] * n for _ in range(n)]
    S = [[0] * n for _ in range(n)]
    for p in range(n):
        xp, yp, Xp, Sp = xs[p], ys[p], X[p], S[p]
        for q in range(p + 1, n):
            xq, yq = xs[q], ys[q]
            Xp[q] = cross = xp * yq - yp * xq
            X[q][p] = -cross
            dx, dy = xq - xp, yq - yp
            Sp[q] = S[q][p] = dx * dx + dy * dy
    return k, xs, ys, X, S


@once_per_input
def check_regularity(cfg: FocalConfig) -> RegularityReport:
    """Exact test for collinear triples (C1) and concircular quadruples (C2), O(n^3).

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


def _delaunay_triangles(tables) -> list[tuple[int, int, int]]:
    """Index triples, sorted, of the Delaunay triangles of the points of ``_tables``.

    The points must be in general position.  Gift-wrapping: the lowest point
    by (y, x) and the point that leaves every other one to its left span a
    hull edge.  Each open directed edge (u, v) is closed by the point w to its
    left whose circle through u and v holds no other point on that side; such
    circles are nested there, so one scan that moves to each point found
    inside the current best circle finds w.  The triangle's two other edges
    are opened reversed; an edge with no point to its left is a hull edge.
    Every sign is exact.  z is left of (u, v) when
    (v - u) x (z - u) = X[u][v] + X[v][z] - X[u][z] > 0, by additions on the
    cross product table.  z is inside the circle through ccw u, v and w when
    the determinant of the lifted rows (x, y, x^2 + y^2) of v, w and z
    relative to u is negative; the rows are the differences of the points and
    the entries of S in row u, and the minors of v and w are hoisted out of
    the scan.  The sum is 0 for z = u and for z = v, as X is antisymmetric, so
    no edge counts its own endpoints as left of it.
    """
    _, xs, ys, X, S = tables
    n = len(xs)
    if n < 3:
        return []
    s = min(range(n), key=lambda i: (ys[i], xs[i]))
    Xs = X[s]
    t = (s + 1) % n
    for z in range(n):
        if Xs[t] + X[t][z] < Xs[z]:
            t = z
    closed = set()
    triangles = []
    stack = [(s, t)]
    while stack:
        u, v = stack.pop()
        if (u, v) in closed:
            continue
        xu, yu, Xu, Su = xs[u], ys[u], X[u], S[u]
        xuv, vu, vv, vl = Xu[v], xs[v] - xu, ys[v] - yu, Su[v]
        w = None
        for z, xuz, xvz, zl, xz, yz in zip(range(n), Xu, X[v], Su, xs, ys):
            # the minors of v and w change only when w moves; per candidate they cost time
            if xuv + xvz > xuz and (w is None or (xz - xu) * mu + (yz - yu) * mv + zl * ml < 0):
                w = z
                wu, wv, wl = xz - xu, yz - yu, zl
                mu, mv, ml = vv * wl - wv * vl, vl * wu - wl * vu, vu * wv - wu * vv
        if w is None:
            continue
        closed.update(((u, v), (v, w), (w, u)))
        triangles.append(tuple(sorted((u, v, w))))
        stack += [(w, v), (u, w)]
    triangles.sort()
    return triangles


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
    input these triples are exactly the triangles of the unique Delaunay
    triangulation of the focal points (``_delaunay_triangles``).  Triples
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
    for i, j, m in _delaunay_triangles(tables):
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


class WeightBoundReport(NamedTuple):
    holds: bool
    attained: bool
    lhs: float
    rhs: float


def colored_weight_bound(cfg: FocalConfig, edge: HyperEdge) -> WeightBoundReport:
    """Max-angle form of the empty-circle condition for one colored edge.

    The weight must equal the largest viewing angle of the chord ab on the lone
    point's side of the chord line, and stay below pi minus the largest
    viewing angle on the opposite side.  By the inscribed-angle theorem both
    flags are exact in-circle signs: ``attained`` when no point on the lone
    point's side lies strictly inside the circle through a, it and b, and
    ``holds`` when every point on the other side lies strictly outside the
    circle through a, b and z, the same-side point whose circle holds no
    other.  ``lhs`` and ``rhs`` are the float angles.
    """
    a, v, b = (ref_point(cfg, r) for r in edge.refs)
    sgn = orient(a, b, v)
    plus = [z for _, z in labeled_points(cfg) if orient(a, b, z) == sgn]
    minus = [z for _, z in labeled_points(cfg) if orient(a, b, z) == -sgn]
    z = v  # circles through a and b are nested on one side: move to each point inside
    for y in plus:
        if incircle(a, b, z, y) > 0:
            z = y
    lhs = max(viewing_angle(y, a, b) for y in plus)
    rhs = math.pi - max((viewing_angle(y, a, b) for y in minus), default=0.0)
    return WeightBoundReport(holds=all(incircle(a, b, z, y) < 0 for y in minus),
                             attained=all(incircle(a, v, b, y) <= 0 for y in plus),
                             lhs=lhs, rhs=rhs)


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


def cell_polygons(body: EquidistantBody) -> tuple[tuple[Point, ...], ...]:
    """The inner sites' cells in Vor(K ∪ L), as float polygons."""
    k = body.components[0]._exact[2]
    return tuple(tuple(_float_point(vert, k) for vert, _ in cell) for cell in body.inner_cells)


def _chains(body: EquidistantBody, eps: float, cycles) -> list[PolygonChain]:
    """The chains of walked cycles of boundary steps (inner i, exact vertex, row j), sorted.

    A step joins the run of its predecessor when their float points are closer
    than eps times the extent of the body's focal points.  A run becomes one vertex at
    its first member, or at its exactly lowest step if it is the whole cycle.  The chain
    starts at the exactly lowest run start, so vertex 0 is its exactly lowest vertex, and
    a hole is reversed around vertex 0.
    """
    cfg = body.config
    q = cfg.q
    # Each component keeps its site's block of rows, outer rows first.  The site's
    # own row (0, 0, 0) cuts nothing and has zero slack, so refs list the site.
    blocks = [c._exact[0] for c in body.components]
    k = body.components[0]._exact[2]
    xs, ys = [p.x for p in cfg.points], [p.y for p in cfg.points]
    tol = eps * max(max(xs) - min(xs), max(ys) - min(ys))
    out = []
    for cycle in filter(None, cycles):
        n = len(cycle)
        step_pts = [_float_point(vert, k) for _, vert, _ in cycle]
        joins = [dist(step_pts[m - 1], step_pts[m]) < tol for m in range(n)]
        first = min(range(n), key=lambda m: (joins[m], _xy_key(cycle[m][1])))  # starts a run
        # per chain vertex: exact point, float point, refs, pair of the leaving edge
        verts, pts, refs, pairs = [], [], [], []
        for m in range(first, first + n):
            i, vert, j = cycle[m % n]
            if m == first or not joins[m % n]:
                verts.append(vert)
                pts.append(step_pts[m % n])
                refs.append(set())
                pairs.append(None)
            x, y, w = vert  # the rows of block i with zero slack: the nearest sites
            refs[-1].update(r for r, (a, b, c) in enumerate(blocks[i]) if c * w == a * x + b * y)
            pairs[-1] = (i, j)  # a run leaves by its last member's edge
        if _is_clockwise(verts):  # a hole: reverse, keeping vertex 0
            verts, pts, refs = ([s[0]] + s[:0:-1] for s in (verts, pts, refs))
            pairs.reverse()
        info = []
        for t, vref in enumerate(refs):
            inner = tuple(sorted(j - q for j in vref if j >= q))
            outer = tuple(sorted(j for j in vref if j < q))
            change = (CHANGE_DOUBLE if len(inner) >= 2 and len(outer) >= 2
                      else CHANGE_INNER if len(inner) >= 2 else CHANGE_OUTER)
            convex = _orientation_det(verts[t - 1], verts[t], verts[t + 1 - len(verts)]) > 0
            info.append(VertexInfo(angle_type=ANGLE_CONVEX if convex else ANGLE_CONCAVE,
                                   change_type=change, inner_refs=inner, outer_refs=outer))
        out.append((verts[0], PolygonChain(vertices=tuple(pts), vertex_info=tuple(info),
                                           edge_pairs=tuple(pairs))))
    out.sort(key=lambda item: _xy_key(item[0]))
    return [chain for _, chain in out]


@once_per_input
def _boundary(cfg: FocalConfig, eps: float) -> tuple[PolygonChain, ...]:
    """cfg's chains at eps, walked once per config object and eps (``extract_boundary``)."""
    body = build_body(cfg)
    q = cfg.q
    cells = body.inner_cells
    at = [{j: t for t, (_, j) in enumerate(cell)} for cell in cells]  # cell i's position of row j

    def successor(i, t):
        """The boundary edge after edge t of cell i, turning through the inner cells at its end."""
        t = (t + 1) % len(cells[i])
        while (j := cells[i][t][1]) >= q:  # shared with cell j - q, listed there on row q + i
            i, t = j - q, (at[j - q][q + i] + 1) % len(cells[j - q])
        return i, t

    seen = set()
    cycles = []
    for e in ((i, t) for i, cell in enumerate(cells)
              for t, (_, j) in enumerate(cell) if 0 <= j < q):
        cycles.append([])
        while e not in seen:
            seen.add(e)
            cycles[-1].append((e[0], *cells[e[0]][e[1]]))
            e = successor(*e)
    return tuple(_chains(body, eps, cycles))


def extract_boundary(cfg: FocalConfig, eps: float = EPS_GEO) -> list[PolygonChain]:
    """Boundary of the body as closed counterclockwise chains, one per boundary cycle.

    The body is the union of the closed Voronoi cells of the inner sites in
    Vor(K ∪ L), so its boundary is exactly the set of cell edges between an inner
    and an outer site: the edges on outer rows of the exact cells of
    ``EquidistantBody.inner_cells`` (``build_body`` keeps every cell off the clip
    box), walked with the body on the left.  The edge after edge t of cell i is edge
    t + 1 of the cell.  While that edge lies on the inner row q + i', it is also an
    edge of cell i' on row q + i, listed reversed, and the walk goes on after it in
    cell i'.  So it turns through the inner cells at the vertex, clockwise from the
    arriving edge, and at a pinch point it leaves by the first boundary edge of that
    turn, with no comparison of directions.  Refs, change types, angle types,
    orientation and chain order are decided exactly.  Vertex 0 of a chain is its
    exactly lowest vertex by (x, y), and chains are sorted by it.  ``eps`` acts in
    one place only: each maximal run of consecutive chain vertices closer than eps
    times the extent of the focal points' bounding box is merged into one vertex,
    which keeps its first member's point and unites the refs, so a vertex the float
    input realises as a pair a few ulps apart counts once.

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
    the nearest inner and outer distances; only a sample where the two lie within
    the rounding bound of ``math.hypot`` is skipped as a tie (a tie of two inner
    sites does not change the verdict), so every other verdict is exact,
    ``agreements`` counts it and ``disagreements`` is 0.  A sample, scaled to
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
        if abs(d_in - d_out) <= 4 * math.ulp(max(d_in, d_out)):
            ties += 1
            continue
        if d_in < d_out:
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
