"""Equidistant bodies of finite focal sets.

A body is the set of points at least as close to the inner focal set as to
the outer one.  It is assembled as a union of convex components, one per
inner point, each obtained by clipping a box of half-width ``CLIP_SCALE`` body radii
against the perpendicular-bisector half-planes toward every outer point.  The
focal points are scaled to integers by one power of two once per config object
(``_tables``, with their pairwise cross products and squared distances): the hull
clearance behind the body radius, the disc certificate, the graph's empty-disc
test and ``polygon``'s regularity check, subdivision and walk read those integers.
The clip is exact: the components' integer rows, box and k come from one
``_integer_rows`` call per body, which scales the points and the box, on the first
read of any component's rows, and each vertex (X, Y, W), W > 0, is the meet of the
two rows that carry its edges, rounded to floats once.  A component clips when its
clip, or the body's ``inner_cells``, which continue it, are first read: ``body``,
``render`` and ``voronoi-check`` clip, ``boundary`` and ``graph`` do not, since an
exact disc certificate (``_disc_in_box``) shows that no component reaches the box.
``connectivity`` reads the outer rows of a pair that fails the empty-disc test, and
``contains_strict``, ``contains`` and ``min_signed`` read their exact signs at a
probe scaled as the rows are; none of them reads a float vertex.  ``membership``
decides the same body from the focal points alone, exactly.  ``build_body`` keeps
the body of the last config object it was given, so the stages of one input share
one body (``once_per_input``).
"""

from __future__ import annotations

import math
from functools import cache, cached_property, wraps
from typing import NamedTuple

from .errors import (
    EmptySet,
    InvalidConfig,
    NumericalDegeneracy,
    PreconditionViolated,
    SiteInOuterSet,
    Unbounded,
)
from .primitives import (
    Point,
    circumcircle,
    dist,
    dyadic_ints,
    incircle,
    orient,
)

MEMBER_INSIDE = "inside_strict"
MEMBER_BOUNDARY = "on_boundary"
MEMBER_OUTSIDE = "outside"

CLIP_SCALE = 2.0  # half-width of a body's clip box in body radii, which bound the body


class Rect(NamedTuple):
    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def contains(self, p: Point) -> bool:
        return self.xmin <= p.x <= self.xmax and self.ymin <= p.y <= self.ymax


class _Frozen:
    """Fields named in ``_fields``, set once by ``__init__``; other attributes cannot be set.

    Repr, equality (with the same class only) and hash read the named fields in
    order; a private attribute beside them takes no part.  ``cached_property``
    still caches: it writes the instance dict directly.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FocalConfig(_Frozen):
    """Inner focal points (the near set) and outer focal points (the far set)."""

    _fields = ("inner", "outer")  # a plain class: a tuple cannot be weakly referenced

    def __init__(self, inner: tuple[Point, ...], outer: tuple[Point, ...]):
        if not inner or not outer:
            raise InvalidConfig("both focal sets must be non-empty")
        seen = {}
        for kind, pts in (("inner", inner), ("outer", outer)):
            for p in pts:
                if not (math.isfinite(p.x) and math.isfinite(p.y)):
                    raise InvalidConfig(f"non-finite focal point {p}")
                if p in seen:
                    raise InvalidConfig(f"duplicate focal point {p} ({seen[p]}/{kind})")
                seen[p] = kind
        vars(self).update(inner=inner, outer=outer)

    @staticmethod
    def of(inner, outer) -> "FocalConfig":
        return FocalConfig(tuple(Point(float(x), float(y)) for x, y in inner),
                           tuple(Point(float(x), float(y)) for x, y in outer))

    @property
    def p(self) -> int:
        return len(self.inner)

    @property
    def q(self) -> int:
        return len(self.outer)

    @property
    def points(self) -> tuple[Point, ...]:
        return self.inner + self.outer


_NO_INPUT = object()


def once_per_input(fn):
    """Keep fn(first, *rest) for the last call; the same first object and equal rest return it.

    The first argument matches by identity, not equality: equal configs may differ in the
    sign of a zero coordinate, and an input never refers back to the slot, so a dropped one
    is freed at once.  The rest, such as a tolerance, match by ``==``.  The slot is one
    (first, rest, value) tuple, read once and replaced whole, so threads at worst
    recompute; a call that raises leaves it as it was.
    """
    last = (_NO_INPUT, None, None)

    @wraps(fn)
    def once(first, *rest):
        nonlocal last
        key, args, value = last
        if key is not first or args != rest:
            value = fn(first, *rest)
            last = (first, rest, value)
        return value

    return once


@once_per_input
def _tables(cfg: FocalConfig) -> tuple:
    """cfg's focal points, in ``cfg.points`` order (inner, then outer), scaled to integers once.

    Returns (k, xs, ys, X, S): the points at 2**k as columns xs and ys, and
    two n x n tables of their pairwise integers, ``X[p][q]`` the cross product
    p x q and ``S[p][q]`` the squared distance |p - q|^2.  Each is built from
    its upper triangle and mirrored: X is antisymmetric and S symmetric, both
    with a zero diagonal.  Every triple's integers are sums of table entries:
    (b - a) x (c - a) = X[a][b] + X[b][c] - X[a][c], the shoelace terms of
    the triangle, and 2 (c - a).(c - b) = S[a][c] + S[b][c] - S[a][b], the law
    of cosines.  The hull clearance, the graph's empty-disc test, and ``polygon``'s
    regularity check, gift-wrap, hyperedge circles and walk read these tables, which
    are kept for the last config object.
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


class ConvexComponent(_Frozen):
    """Clipped half-plane intersection attached to one site.

    ``edge_tags[i]`` labels the edge from ``vertices[i]`` to ``vertices[i+1]``:
    a non-negative value is the index of the outer point whose bisector
    carries the edge, negative values are clip-box sides.  ``_frame`` holds
    the integer rows, box and k of the clip and ``_exact`` adds its raw output;
    ``contains`` and ``min_signed`` read the rows, so their signs are exact, and
    ``connectivity.intersection_dim`` reads the outer rows.  ``convex_component`` builds
    the rows at once.  A component of ``build_body`` builds them on the first read of
    ``_frame``, by one ``_integer_rows`` call that its body's components share;
    until then ``_source`` = (that call, the body's ``_tables`` S, the site's index)
    serves the empty-disc test of two components of one body.  A component clips on
    the first read of ``_exact``, and of ``vertices``, ``edge_tags`` or ``clipped``,
    which it builds from the raw output without its zero-length edges; values given
    to the constructor are kept as given.
    """

    _fields = ("site", "outer", "clip", "vertices", "edge_tags", "clipped")

    def __init__(self, site: Point, outer: tuple[Point, ...], clip: Rect,
                 vertices: tuple[Point, ...], edge_tags: tuple[int, ...], clipped: bool,
                 _exact: tuple):
        vars(self).update(site=site, outer=outer, clip=clip, vertices=vertices,
                          edge_tags=edge_tags, clipped=clipped, _exact=_exact,
                          _frame=_exact and _exact[:3], _source=None)

    @cached_property
    def _frame(self) -> tuple:
        """(rows, box, k) of a body's component: its block of the body's one rows call."""
        frames, _, i = self._source
        return frames()[i]

    @cached_property
    def _exact(self) -> tuple:
        rows, box, k = self._frame
        return rows, box, k, _exact_clip(rows[:len(self.outer)], box)

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        _, _, k, raw = self._exact
        return tuple(_float_point(vert, k) for vert, _ in _drop_zero_edges(raw))

    @cached_property
    def edge_tags(self) -> tuple[int, ...]:
        return tuple(tag for _, tag in _drop_zero_edges(self._exact[3]))

    @cached_property
    def clipped(self) -> bool:
        raw = self._exact[3]
        return any(t < 0 and not _same_point(v, raw[i + 1 - len(raw)][0])
                   for i, (v, t) in enumerate(raw))

    @cached_property
    def _lines(self) -> list:
        """Rows (A, B, C) of the outer points, then the box sides, at the component's 2**k."""
        rows, box, _ = self._frame
        return rows[:len(self.outer)] + _side_rows(box)

    @cached_property
    def _rows(self) -> list:
        """The rows of ``_lines`` with their norms, (A, B, C, N), N ~ |(A, B)| * 2**64."""
        return [(a, b, c, math.isqrt((a * a + b * b) << 128)) for a, b, c in self._lines]

    def min_signed(self, p: Point) -> float:
        """Least signed distance to a row, positive inside, each rounded once from the exact slack.

        Its sign is exact: 0.0 exactly on a row, and -inf for a non-finite p.
        """
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            return -math.inf
        k = self._frame[2]
        x, y, w = _scaled(p, k)
        return min(_signed_ratio((c * w - a * x - b * y) << 64, (w << k) * n)
                   for a, b, c, n in self._rows)

    def contains(self, p: Point) -> bool:
        """True iff p is in the closed component (exact sign); False for a non-finite p."""
        return self.min_signed(p) >= 0


class EquidistantBody(_Frozen):
    """The union of one convex component per inner point of ``config``, within ``clip``."""

    _fields = ("config", "components", "clip", "radius")

    def __init__(self, config: FocalConfig, components: tuple[ConvexComponent, ...],
                 clip: Rect, radius: float):
        vars(self).update(config=config, components=components, clip=clip, radius=radius)

    def contains_strict(self, p: Point) -> bool:
        """True iff some component has only positive exact slacks at p; False for a non-finite p."""
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            return False
        x, y, w = _scaled(p, self.components[0]._frame[2])  # every component shares k
        return any(min(c * w - a * x - b * y for a, b, c in comp._lines) > 0
                   for comp in self.components)

    @cached_property
    def inner_cells(self) -> tuple[tuple[tuple[tuple[int, int, int], int], ...], ...]:
        """The exact cell of each inner site in Vor(K ∪ L), built once.

        A cell continues its component's stored raw clip with the rows toward the
        other inner sites.  It lists (vertex, row) pairs counterclockwise, without
        zero-length edges: a reduced homogeneous vertex (X, Y, W), W > 0, and the
        row of its edge to the next one, indexing the component's block (outer j
        < q, inner j - q).  No component reaches the clip box, so no cell does.
        """
        q = self.config.q
        cells = []
        for c in self.components:
            rows, box, _, raw = c._exact
            cell = _drop_zero_edges(_exact_clip(rows, box, raw, q))
            # from a list: tuple(<generator>) here raised a boundary op's peak RSS by ~0.5 MB
            cells.append(tuple([(_reduced(vert), j) for vert, j in cell]))
        return tuple(cells)


def distance_to_set(q: Point, pts) -> float:
    """Distance from q to the nearest point of a non-empty finite set (inf past the float range)."""
    best = min((dist(q, p) for p in pts), default=None)
    if best is None:
        raise EmptySet("distance to an empty point set")
    return best


def membership(q: Point, cfg: FocalConfig) -> str:
    """Exact membership of q in the body of cfg, from the focal points alone; reads no component.

    q and the focal points are scaled to integers once, and the least squared
    distance to the inner points is compared with the least to the outer points:
    ``on_boundary`` exactly when they are equal.  A non-finite q is ``outside``.
    """
    if not (math.isfinite(q.x) and math.isfinite(q.y)):
        return MEMBER_OUTSIDE
    (x, y, *coords), _ = dyadic_ints([q.x, q.y, *(c for p in cfg.points for c in p)])
    sq = [(px - x) ** 2 + (py - y) ** 2 for px, py in zip(coords[::2], coords[1::2])]
    dk, dl = min(sq[:cfg.p]), min(sq[cfg.p:])
    if dk == dl:
        return MEMBER_BOUNDARY
    return MEMBER_INSIDE if dk < dl else MEMBER_OUTSIDE


def convex_hull(pts) -> list[Point]:
    """Strictly convex hull, counterclockwise (collinear mid-points dropped)."""
    points = sorted(set(pts))
    if len(points) <= 2:
        return points

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and orient(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    hull = half(points)[:-1] + half(reversed(points))[:-1]
    return hull if len(hull) >= 3 else points[:1] + points[-1:]


@once_per_input
def _hull_clearance(cfg: FocalConfig) -> tuple | None:
    """Least distance r from an inner point to a side of the outer hull, rounded once.

    Per side (a, b), its least exact cross product with an inner point x,
    (b - a) x (x - a) = X[a][b] + X[b][x] - X[a][x], over its length, from the tables
    of ``_tables``.  None unless every cross product is positive (a hull of 1 or 2
    points has a side each way), else (r, hull, sides): the hull corners as indices
    into ``cfg.points``, and per side its least cross product and squared length
    S[a][b], at the tables' 4**k.  r divides them at the scale 2**kh of the hull
    corners and inner points alone, to which a shift by 2 (k - kh) brings them exactly,
    so r does not depend on the other outer points.  Kept for the last config object.
    """
    k, xs, ys, X, S = _tables(cfg)
    index = {pt: j for j, pt in enumerate(cfg.points)}
    hull = [index[pt] for pt in convex_hull(cfg.outer)]
    sides = []
    for a, b in zip(hull, hull[1:] + hull[:1]):
        Xa, Xb = X[a], X[b]
        least = Xa[b] + min(Xb[x] - Xa[x] for x in range(cfg.p))  # (b-a) × (x-a)
        if least <= 0:
            return None
        sides.append((least, S[a][b]))
    # k - kh is the fewest trailing zero bits of a hull corner's or inner point's integer
    d = min(k, *((v & -v).bit_length() - 1
                 for j in (*hull, *range(cfg.p)) for v in (xs[j], ys[j]) if v))
    r = min(((least >> 2 * d) << 64) / (math.isqrt((length >> 2 * d) << 128) << k - d)
            for least, length in sides)
    return r, hull, sides


def is_bounded(cfg: FocalConfig) -> bool:
    """True iff every inner point is strictly inside the hull of the outer set (exact signs)."""
    return _hull_clearance(cfg) is not None


def _disc_in_box(cfg: FocalConfig, o: Point, clip: Rect) -> bool:
    """Exactly whether the disc D(o, c / r) of ``bounding_radius``, unrounded, is in the open box.

    The disc holds the body: take x nearer the inner point xᵢ than every outer point.  The
    disc of radius r about xᵢ lies in the outer hull, so a corner y has (y - xᵢ).u >= r for
    u along x - o, so 2r|x - o| <= 2(y - xᵢ).(x - o) <= far - near = 2c, with far and near
    the largest |y - o|² and least |xᵢ - o|².  With m the least distance from o to a box
    side, c < r m is (2c)² |b - a|² < 4 least² m² for each hull side, on the integers of
    ``_tables`` and ``_hull_clearance`` and of o and the box, brought to one power of two.
    """
    _, hull, sides = _hull_clearance(cfg)
    k, xs, ys, _, _ = _tables(cfg)
    (ox, oy, *box), kb = dyadic_ints([o.x, o.y, *clip])
    s, t = max(kb - k, 0), max(k - kb, 0)  # shifts to the finer of the two scalings
    ox, oy, xmin, ymin, xmax, ymax = (v << t for v in (ox, oy, *box))
    far = max(((xs[j] << s) - ox) ** 2 + ((ys[j] << s) - oy) ** 2 for j in hull)
    near = min(((xs[i] << s) - ox) ** 2 + ((ys[i] << s) - oy) ** 2 for i in range(cfg.p))
    c2, m = (far - near) ** 2, min(ox - xmin, oy - ymin, xmax - ox, ymax - oy)
    return m > 0 and all(c2 * length < (least * m) ** 2 << 2 * s + 2 for least, length in sides)


def _centroid(pts) -> Point:
    n = len(pts)
    return Point(sum(p.x for p in pts) / n, sum(p.y for p in pts) / n)


def bounding_radius(cfg: FocalConfig) -> float:
    """Radius of a disk around the inner centroid that contains the whole body.

    Computed as c / r where, after translating the inner centroid to the origin, c
    bounds (|Y|^2 - |X|^2) / 2 over all focal pairs (rounding is monotone, so the farthest
    outer and the nearest inner point give c) and r is the exact hull clearance rounded
    once; neither depends on where the input sits.  A c rounded too small only gives a
    clip box that ``build_body`` finds a component reaching.  Raises Unbounded unless the
    inner set lies strictly inside the outer hull, and NumericalDegeneracy when a squared
    distance or c / r overflows, or c or r is 0.
    """
    if (clearance := _hull_clearance(cfg)) is None:
        raise Unbounded("bounding radius requires the inner set inside the outer hull")
    r = clearance[0]
    o = _centroid(cfg.inner)
    # squares by multiplication, correctly rounded, so a power-of-two scaling scales them exactly
    far = max(u * u + v * v for u, v in ((y.x - o.x, y.y - o.y) for y in cfg.outer))
    near = min(u * u + v * v for u, v in ((x.x - o.x, x.y - o.y) for x in cfg.inner))
    c = max(0.0, (far - near) / 2.0)
    if far == math.inf:  # the inner points lie in the outer hull, so near <= far
        raise NumericalDegeneracy("squared distances between the focal points "
                                  "leave the float range")
    if c == 0.0 or r == 0.0:  # both are positive unless they underflow
        raise NumericalDegeneracy("distances between the focal points "
                                  "underflow the float range")
    radius = c / r
    if radius == math.inf:
        raise NumericalDegeneracy(f"the body radius {c!r} / {r!r} leaves the float range")
    return radius


def star_center(cfg: FocalConfig):
    """Center of a ball separating inner from outer points, for q = 3.

    Returns the circumcenter of the outer triangle when every inner point is
    strictly inside its circumcircle, by exact in-circle signs, else None.
    """
    if cfg.q != 3:
        raise PreconditionViolated("star_center is implemented for exactly 3 outer points")
    if orient(*cfg.outer) == 0:
        return None
    if all(incircle(*cfg.outer, x) == 1 for x in cfg.inner):
        return circumcircle(*cfg.outer).center
    return None


def _integer_rows(sites, outer, clip: Rect):
    """Integer rows of {site <= y} for each site in turn and every outer y, the box, and k.

    Row (A, B, C) keeps A*x + B*y <= C, the box is (xmin, ymin, xmax, ymax),
    and all of them are scaled to integers by 2**k.  The sites must lie in the box.
    Each point p is lifted once to (2 p.x, 2 p.y, |p|^2), and the row of site s
    toward y is y's lift minus s's.
    """
    for site in sites:
        if not clip.contains(site):
            raise PreconditionViolated(f"clip box does not contain the site {site}")
    values = [v for pt in (*sites, *outer) for v in pt]
    ints, k = dyadic_ints(values + [clip.xmin, clip.ymin, clip.xmax, clip.ymax])
    lifts = [(2 * x, 2 * y, x * x + y * y) for x, y in zip(ints[:-4:2], ints[1:-4:2])]
    m = len(sites)
    rows = []
    for sx, sy, s2 in lifts[:m]:
        rows += [(yx - sx, yy - sy, y2 - s2) for yx, yy, y2 in lifts[m:]]
    return rows, tuple(ints[-4:]), k


def _side_rows(box) -> list:
    """Box side rows; after the other rows, edges -1 ... -4 are bottom, right, top, left."""
    xmin, ymin, xmax, ymax = box
    return [(-1, 0, -xmin), (0, 1, ymax), (1, 0, xmax), (0, -1, -ymin)]


def _exact_clip(rows, box, verts=None, first=0):
    """Sutherland-Hodgman clip of an integer box by integer half-planes, exactly.

    ``box`` is (xmin, ymin, xmax, ymax) and each row (A, B, C) keeps
    A*x + B*y <= C.  Returns (vertex, edge) pairs: the vertex is a homogeneous
    triple (X, Y, W), W > 0, kept when C*W - A*X - B*Y >= 0, and ``edge``
    names the row that carries its edge to the next vertex: its index in
    ``rows``, or -1, -2, -3, -4 for the bottom, right, top and left box sides.
    From ``verts``, the raw output of a clip by ``rows[:first]``, it cuts on by the rest.

    A line meets a convex polygon's boundary in one arc, zero-length edges
    included, so the vertices a row cuts off form one cyclic run.  The row
    splices the run out for two meets: where the boundary leaves the row's
    half-plane, on the edge into the run, with row j carrying the new edge, and
    where it comes back, on the run's last edge, which keeps its row.  The
    output is the per-vertex clip's, in its order: it starts with the second
    meet when the run holds vertex 0.
    """
    xmin, ymin, xmax, ymax = box
    lines = [*rows, *_side_rows(box)]
    if verts is None:
        verts = [((xmin, ymin, 1), -1), ((xmax, ymin, 1), -2), ((xmax, ymax, 1), -3),
                 ((xmin, ymax, 1), -4)]
    for j in range(first, len(rows)):
        a, b, c = row = rows[j]
        svals = [c * w - a * x - b * y for (x, y, w), _ in verts]
        low = min(svals, default=0)
        if low >= 0:
            continue  # the row cuts nothing off
        if max(svals) < 0:
            verts = []  # the row cuts everything off
            continue
        n = len(verts)
        p = q = svals.index(low)
        while svals[p - 1] < 0:
            p -= 1
        while svals[q + 1 - n] < 0:
            q += 1
        p, q = p % n, q % n  # the cut run is verts p ... q, cyclically
        leave = (_meet(lines[verts[p - 1][1]], row), j)
        enter = (_meet(lines[verts[q][1]], row), verts[q][1])
        if 0 < p <= q:
            verts = [*verts[:p], leave, enter, *verts[q + 1:]]
        else:  # the run holds vertex 0
            verts = [enter, *verts[q + 1:p or n], leave]
    return verts


def _same_point(u, v) -> bool:
    """Exact equality of two homogeneous points with W > 0."""
    return u[0] * v[2] == v[0] * u[2] and u[1] * v[2] == v[1] * u[2]


def _drop_zero_edges(clip_out):
    """The (vertex, edge) pairs of ``_exact_clip`` without its zero-length edges.

    A vertex exactly equal to its successor goes, so the next vertex carries
    the edge that leaves the repeated point.
    """
    n = len(clip_out)
    return [clip_out[i] for i in range(n)
            if not _same_point(clip_out[i][0], clip_out[i + 1 - n][0])]


def _reduced(vert):
    """A homogeneous point (X, Y, W), W > 0, with gcd(X, Y, W) = 1: equal points, equal triples."""
    g = math.gcd(*vert)
    return vert[0] // g, vert[1] // g, vert[2] // g


def _scaled(p: Point, k: int) -> tuple[int, int, int]:
    """The finite point p as a homogeneous integer point (X, Y, W), W > 0, of a clip at 2**k."""
    (x, y), kp = dyadic_ints(p)
    return x << k, y << k, 1 << kp


def _signed_ratio(num: int, den: int) -> float:
    """num / den, den > 0, rounded keeping the sign of num: +-5e-324 on underflow, +-inf on overflow."""
    try:
        return num / den or ((num > 0) - (num < 0)) * math.ulp(0.0)
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _float_point(vert, k: int) -> Point:
    """The homogeneous point (X, Y, W), W > 0, of a clip at 2**k, each coordinate rounded once."""
    return Point(vert[0] / (vert[2] << k), vert[1] / (vert[2] << k))


def _meet(r, s):
    """Homogeneous intersection point of the boundary lines of two rows, W > 0."""
    a1, b1, c1 = r
    a2, b2, c2 = s
    x, y, w = c1 * b2 - c2 * b1, a1 * c2 - a2 * c1, a1 * b2 - a2 * b1
    return (x, y, w) if w > 0 else (-x, -y, -w)


def _component(site: Point, outer: tuple, clip: Rect, **rows) -> ConvexComponent:
    """The component of ``site`` from its rows (``_frame`` and ``_source``), clipped when read."""
    comp = ConvexComponent.__new__(ConvexComponent)
    vars(comp).update(site=site, outer=outer, clip=clip, **rows)
    return comp


def convex_component(site: Point, outer, clip: Rect) -> ConvexComponent:
    """Clip-box intersection of the half-planes {site <= y} for every outer y."""
    outer = tuple(outer)
    if not outer:
        raise EmptySet("convex component with an empty outer set")
    if site in outer:
        raise SiteInOuterSet(f"site {site} appears in the outer set")
    return _component(site, outer, clip, _frame=_integer_rows((site,), outer, clip), _source=None)


@once_per_input
def build_body(cfg: FocalConfig) -> EquidistantBody:
    """Assemble the body as the union of one convex component per inner point.

    The box reaches CLIP_SCALE body radii from the inner centroid, so no component meets it
    (else NumericalDegeneracy): ``_disc_in_box`` shows it, or else the components' clips.
    The radius and the certificate read the integers of ``_tables``.  The components'
    rows, site i's toward outer and then inner points, are scaled by one ``_integer_rows``
    call when one of them is first read.  A second call with the same config object
    returns the same body, inner cells included.
    """
    radius = bounding_radius(cfg)  # raises Unbounded
    o = _centroid(cfg.inner)
    h = CLIP_SCALE * radius
    clip = Rect(o.x - h, o.y - h, o.x + h, o.y + h)
    if not all(map(math.isfinite, (clip.xmin, clip.ymin, clip.xmax, clip.ymax))):
        raise NumericalDegeneracy(f"the clip box at {CLIP_SCALE!r} times the body radius "
                                  f"{radius!r} leaves the float range")

    @cache
    def frames():
        rows, box, k = _integer_rows(cfg.inner, cfg.outer + cfg.inner, clip)
        n = cfg.q + cfg.p
        return [(rows[i * n:(i + 1) * n], box, k) for i in range(cfg.p)]

    S = _tables(cfg)[4]
    components = tuple(_component(x, cfg.outer, clip, _source=(frames, S, i))
                       for i, x in enumerate(cfg.inner))
    if not _disc_in_box(cfg, o, clip) and any(c.clipped for c in components):
        raise NumericalDegeneracy(f"a component reaches the clip box at {CLIP_SCALE!r} "
                                  f"times the body radius {radius!r}")
    return EquidistantBody(config=cfg, components=components, clip=clip, radius=radius)
