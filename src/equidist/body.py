"""Equidistant bodies of finite focal sets.

A body is the set of points at least as close to the inner focal set as to
the outer one.  It is assembled as a union of convex components, one per
inner point, each obtained by clipping a bounding box against the
perpendicular-bisector half-planes toward every outer point.  The clip is
exact: ``build_body`` scales the focal points and the box to integers by one
power of two, once, and each vertex (X, Y, W), W > 0, is the meet of the two
rows that carry its edges, rounded to floats once.  The components keep
their rows and raw clip, which ``connectivity`` and ``polygon`` continue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    EmptySet,
    InvalidConfig,
    NumericalDegeneracy,
    PreconditionViolated,
    SiteInOuterSet,
    Unbounded,
)
from .primitives import (
    EPS_GEO,
    Line,
    Point,
    circumcircle,
    coord_scale,
    dist,
    dyadic_ints,
    orient,
    perp_bisector,
)

MEMBER_INSIDE = "inside_strict"
MEMBER_BOUNDARY = "on_boundary"
MEMBER_OUTSIDE = "outside"


@dataclass(frozen=True)
class Rect:
    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def contains(self, p: Point) -> bool:
        return self.xmin <= p.x <= self.xmax and self.ymin <= p.y <= self.ymax

    def side_dists(self, p: Point) -> tuple[float, float, float, float]:
        """Signed distances to the four sides, positive inside."""
        return (p.y - self.ymin, self.xmax - p.x, self.ymax - p.y, p.x - self.xmin)


@dataclass(frozen=True)
class HalfPlane:
    """Closed half-plane bounded by ``boundary``; inside is signed() >= 0."""

    boundary: Line
    keep_positive: bool

    def signed(self, p: Point) -> float:
        v = self.boundary.eval(p)
        return v if self.keep_positive else -v

    @staticmethod
    def closer_to(x: Point, y: Point) -> "HalfPlane":
        """The half-plane of points at least as close to x as to y."""
        l = perp_bisector(x, y)
        return HalfPlane(l, l.eval(x) > 0.0)


@dataclass(frozen=True)
class FocalConfig:
    """Inner focal points (the near set) and outer focal points (the far set)."""

    inner: tuple[Point, ...]
    outer: tuple[Point, ...]

    def __post_init__(self):
        if not self.inner or not self.outer:
            raise InvalidConfig("both focal sets must be non-empty")
        seen = {}
        for kind, pts in (("inner", self.inner), ("outer", self.outer)):
            for p in pts:
                if not (math.isfinite(p.x) and math.isfinite(p.y)):
                    raise InvalidConfig(f"non-finite focal point {p}")
                key = (p.x, p.y)
                if key in seen:
                    raise InvalidConfig(f"duplicate focal point {p} ({seen[key]}/{kind})")
                seen[key] = kind

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

    def scale(self) -> float:
        return coord_scale(self.points)


@dataclass(frozen=True)
class ConvexComponent:
    """Clipped half-plane intersection attached to one site.

    ``edge_tags[i]`` labels the edge from ``vertices[i]`` to ``vertices[i+1]``:
    a non-negative value is the index of the outer point whose bisector
    carries the edge, negative values are clip-box sides.  ``_exact`` holds
    the integer rows, box and k of the clip and its raw output (``build_body``).
    """

    site: Point
    outer: tuple[Point, ...]
    clip: Rect
    vertices: tuple[Point, ...]
    edge_tags: tuple[int, ...]
    clipped: bool
    _exact: tuple = field(compare=False, repr=False)

    @cached_property
    def halfplanes(self) -> tuple[HalfPlane, ...]:
        """Float half-planes {site <= y} of the outer points, for ``min_signed``."""
        return tuple(HalfPlane.closer_to(self.site, y) for y in self.outer)

    def min_signed(self, p: Point) -> float:
        """Smallest signed distance to the defining half-planes and clip sides."""
        m = min(hp.signed(p) for hp in self.halfplanes)
        return min(m, *self.clip.side_dists(p))

    def contains(self, p: Point, tol: float = 0.0) -> bool:
        return self.min_signed(p) >= -tol


@dataclass(frozen=True)
class EquidistantBody:
    config: FocalConfig
    components: tuple[ConvexComponent, ...]
    clip: Rect
    radius: float

    def contains_strict(self, p: Point) -> bool:
        return any(c.min_signed(p) > 0.0 for c in self.components)


def distance_to_set(q: Point, pts) -> float:
    """Distance from q to the nearest point of a non-empty finite set."""
    best = math.inf
    for p in pts:
        best = min(best, dist(q, p))
    if best is math.inf:
        raise EmptySet("distance to an empty point set")
    return best


def membership(q: Point, cfg: FocalConfig, tol: float = EPS_GEO) -> str:
    """Distance-oracle membership of q in the body; never consults components."""
    dk = distance_to_set(q, cfg.inner)
    dl = distance_to_set(q, cfg.outer)
    if abs(dk - dl) <= tol * cfg.scale():
        return MEMBER_BOUNDARY
    return MEMBER_INSIDE if dk < dl else MEMBER_OUTSIDE


def convex_hull(pts) -> list[Point]:
    """Strictly convex hull, counterclockwise (collinear mid-points dropped)."""
    uniq = sorted(set((p.x, p.y) for p in pts))
    points = [Point(x, y) for x, y in uniq]
    if len(points) <= 2:
        return points

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and orient(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(points)
    upper = half(reversed(points))
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) >= 3 else points[:1] + points[-1:]


def is_bounded(cfg: FocalConfig) -> bool:
    """True iff every inner point is strictly inside the hull of the outer set."""
    hull = convex_hull(cfg.outer)
    if len(hull) < 3:
        return False
    n = len(hull)
    for x in cfg.inner:
        for i in range(n):
            if orient(hull[i], hull[(i + 1) % n], x) != 1:
                return False
    return True


def _centroid(pts) -> Point:
    n = len(pts)
    return Point(sum(p.x for p in pts) / n, sum(p.y for p in pts) / n)


def bounding_radius(cfg: FocalConfig) -> float:
    """Radius of a disk around the inner centroid that contains the whole body.

    Computed as c / r where, after translating the inner centroid to the
    origin, c bounds (|Y|^2 - |X|^2) / 2 over all focal pairs and r is the
    largest radius such that every inner point keeps that distance to the
    boundary of the outer hull (rounding is monotone, so the farthest outer
    and the nearest inner point give c).  Raises NumericalDegeneracy when a
    squared distance leaves the float range.
    """
    if not is_bounded(cfg):
        raise Unbounded("bounding radius requires the inner set inside the outer hull")
    o = _centroid(cfg.inner)
    try:
        far = max((y.x - o.x) ** 2 + (y.y - o.y) ** 2 for y in cfg.outer)
        near = min((x.x - o.x) ** 2 + (x.y - o.y) ** 2 for x in cfg.inner)
        c = max(0.0, (far - near) / 2.0, 1e-15 * cfg.scale() ** 2)
    except OverflowError:
        far = math.inf
    if far == math.inf:  # the inner points lie in the outer hull, so near <= far
        raise NumericalDegeneracy("squared distances between the focal points "
                                  "leave the float range")

    hull = convex_hull(cfg.outer)
    n = len(hull)
    edge_lines = [Line.through(hull[i], hull[(i + 1) % n]) for i in range(n)]
    r = math.inf
    for x in cfg.inner:
        rx = min(abs(l.eval(x)) for l in edge_lines)
        r = min(r, rx)
    return c / r


def star_center(cfg: FocalConfig):
    """Center of a ball separating inner from outer points, for q = 3.

    Returns the circumcenter of the outer triangle when every inner point is
    strictly closer to it than the circumradius, else None.
    """
    if cfg.q != 3:
        raise PreconditionViolated("star_center is implemented for exactly 3 outer points")
    if orient(*cfg.outer) == 0:
        return None
    circ = circumcircle(*cfg.outer)
    if max(dist(circ.center, x) for x in cfg.inner) < circ.radius:
        return circ.center
    return None


def _integer_rows(sites, outer, clip: Rect):
    """Integer rows of {site <= y} for each site in turn and every outer y, the box, and k.

    Row (A, B, C) keeps A*x + B*y <= C, the box is (xmin, ymin, xmax, ymax),
    and all of them are scaled to integers by 2**k.  The sites must lie in the box.
    """
    for site in sites:
        if not clip.contains(site):
            raise PreconditionViolated(f"clip box does not contain the site {site}")
    values = [v for pt in (*sites, *outer) for v in (pt.x, pt.y)]
    ints, k = dyadic_ints(values + [clip.xmin, clip.ymin, clip.xmax, clip.ymax])
    m = 2 * len(sites)
    outer_xy = list(zip(ints[m:-4:2], ints[m + 1:-4:2]))
    rows = []
    for sx, sy in zip(ints[:m:2], ints[1:m:2]):
        s2 = sx * sx + sy * sy
        rows += [(2 * (yx - sx), 2 * (yy - sy), yx * yx + yy * yy - s2) for yx, yy in outer_xy]
    return rows, tuple(ints[-4:]), k


def _exact_clip(rows, box, verts=None, first=0):
    """Sutherland-Hodgman clip of an integer box by integer half-planes, exactly.

    ``box`` is (xmin, ymin, xmax, ymax) and each row (A, B, C) keeps
    A*x + B*y <= C.  Returns (vertex, edge) pairs: the vertex is a homogeneous
    triple (X, Y, W), W > 0, kept when C*W - A*X - B*Y >= 0, and ``edge``
    names the row that carries its edge to the next vertex: its index in
    ``rows``, or -1, -2, -3, -4 for the bottom, right, top and left box sides.
    From ``verts``, the raw output of a clip by ``rows[:first]``, it cuts on by the rest.
    """
    xmin, ymin, xmax, ymax = box
    # box sides last, so that lines[-1] ... lines[-4] are bottom, right, top, left
    lines = [*rows, (-1, 0, -xmin), (0, 1, ymax), (1, 0, xmax), (0, -1, -ymin)]
    if verts is None:
        verts = [((xmin, ymin, 1), -1), ((xmax, ymin, 1), -2), ((xmax, ymax, 1), -3),
                 ((xmin, ymax, 1), -4)]
    for j in range(first, len(rows)):
        a, b, c = row = rows[j]
        svals = [c * w - a * x - b * y for (x, y, w), _ in verts]
        if min(svals, default=0) >= 0:
            continue  # the row cuts nothing off
        out = []
        n = len(verts)
        for i, (vert, edge) in enumerate(verts):
            sa, sb = svals[i], svals[i + 1 - n]
            if sa >= 0:
                out.append((vert, edge))
                if sb < 0:
                    out.append((_meet(lines[edge], row), j))
            elif sb >= 0:
                out.append((_meet(lines[edge], row), edge))
        verts = out
    return verts


def _same_point(u, v) -> bool:
    """Exact equality of two homogeneous points with W > 0."""
    return u[0] * v[2] == v[0] * u[2] and u[1] * v[2] == v[1] * u[2]


def _orientation_det(u, v, w) -> int:
    """Determinant of three homogeneous points with W > 0: the sign of their turn u -> v -> w."""
    (x1, y1, w1), (x2, y2, w2), (x3, y3, w3) = u, v, w
    return x1 * (y2 * w3 - y3 * w2) - y1 * (x2 * w3 - x3 * w2) + w1 * (x2 * y3 - x3 * y2)


def _drop_zero_edges(clip_out):
    """The (vertex, edge) pairs of ``_exact_clip`` without its zero-length edges.

    A vertex exactly equal to its successor goes, so the next vertex carries
    the edge that leaves the repeated point.
    """
    n = len(clip_out)
    return [clip_out[i] for i in range(n)
            if not _same_point(clip_out[i][0], clip_out[i + 1 - n][0])]


def _meet(r, s):
    """Homogeneous intersection point of the boundary lines of two rows, W > 0."""
    a1, b1, c1 = r
    a2, b2, c2 = s
    x, y, w = c1 * b2 - c2 * b1, a1 * c2 - a2 * c1, a1 * b2 - a2 * b1
    return (x, y, w) if w > 0 else (-x, -y, -w)


def _component(site: Point, outer: tuple, clip: Rect, rows, box, k: int) -> ConvexComponent:
    """The component of ``site``: the box clipped by the first len(outer) of its rows."""
    raw = _exact_clip(rows[:len(outer)], box)
    clip_out = _drop_zero_edges(raw)
    verts = tuple(Point(x / (w << k), y / (w << k)) for (x, y, w), _ in clip_out)
    tags = tuple(tag for _, tag in clip_out)
    return ConvexComponent(site=site, outer=outer, clip=clip,
                           vertices=verts, edge_tags=tags, clipped=any(t < 0 for t in tags),
                           _exact=(rows, box, k, raw))


def convex_component(site: Point, outer, clip: Rect) -> ConvexComponent:
    """Clip-box intersection of the half-planes {site <= y} for every outer y."""
    outer = tuple(outer)
    if not outer:
        raise EmptySet("convex component with an empty outer set")
    if site in outer:
        raise SiteInOuterSet(f"site {site} appears in the outer set")
    return _component(site, outer, clip, *_integer_rows((site,), outer, clip))


def body_clip_box(cfg: FocalConfig, clip_scale: float = 2.0) -> Rect:
    """Square clip box guaranteed to contain the body with margin."""
    return _clip_box(cfg, clip_scale, bounding_radius(cfg))


def _clip_box(cfg: FocalConfig, clip_scale: float, radius: float) -> Rect:
    o = _centroid(cfg.inner)
    h = clip_scale * radius
    clip = Rect(o.x - h, o.y - h, o.x + h, o.y + h)
    if not all(map(math.isfinite, (clip.xmin, clip.ymin, clip.xmax, clip.ymax))):
        raise InvalidConfig(f"--clip-scale {clip_scale!r} times the body radius "
                            f"{radius!r} overflows the clip box")
    return clip


def build_body(cfg: FocalConfig, clip_scale: float = 2.0) -> EquidistantBody:
    """Assemble the body as the union of one convex component per inner point.

    All points are scaled once; site i's rows go toward the outer, then the inner points.
    """
    radius = bounding_radius(cfg)  # raises Unbounded
    clip = _clip_box(cfg, clip_scale, radius)
    rows, box, k = _integer_rows(cfg.inner, cfg.outer + cfg.inner, clip)
    n = cfg.q + cfg.p
    components = tuple(_component(x, cfg.outer, clip, rows[i * n:(i + 1) * n], box, k)
                       for i, x in enumerate(cfg.inner))
    return EquidistantBody(config=cfg, components=components, clip=clip, radius=radius)
