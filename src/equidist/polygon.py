"""Regularity checks, the empty-circumcircle hypergraph, and boundary extraction.

The hypergraph path enumerates all focal triples and, for each, scans the
other focal points with the exact in-circle sign: O(n^3) triples times O(n)
candidates.  The scan (``primitives.incircle_hits``) lifts every point
relative to the triple's first point once per first point and keeps the
float filter of ``incircle`` with its exact fallback, so each sign is exact
and the reports list triples and quadruples in ``combinations`` order.  The
boundary path collects the component edges that survive on the outside of
every other component and stitches them into closed chains.  Boundary
extraction needs no regularity, so degenerate inputs (concircular focal
quadruples) are handled by the same code and show up as double-change
vertices.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain

from .body import (
    MEMBER_BOUNDARY,
    ConvexComponent,
    EquidistantBody,
    FocalConfig,
    build_body,
    convex_component,
    distance_to_set,
    membership,
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
    lerp,
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

# Relative half-width of the distance band used to collect the focal points
# that generate a boundary vertex.
_REF_BAND = 1e-7


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


def _strict_inside_interval(a: Point, b: Point, comp: ConvexComponent, scale: float):
    """Parameter range of segment a->b strictly inside a component, or None."""
    tiny = 1e-12 * scale
    lo, hi = 0.0, 1.0
    constraints = [(hp.signed(a), hp.signed(b)) for hp in comp.halfplanes]
    constraints += list(zip(comp.clip.side_dists(a), comp.clip.side_dists(b)))
    for sa, sb in constraints:
        if abs(sa) <= tiny and abs(sb) <= tiny:
            return None  # segment runs along the constraint line: nothing strict
        if sa == sb:
            if sa <= 0.0:
                return None
            continue
        t = sa / (sa - sb)
        if sb < sa:
            hi = min(hi, t)
        else:
            lo = max(lo, t)
        if lo >= hi:
            return None
    return (lo, hi)


def _subtract_open(keep, lo, hi):
    out = []
    for k0, k1 in keep:
        if hi <= k0 or lo >= k1:
            out.append((k0, k1))
            continue
        if lo > k0:
            out.append((k0, lo))
        if hi < k1:
            out.append((hi, k1))
    return out


class _Clusters:
    """Greedy endpoint clustering on a pitch grid (3x3 neighborhood match)."""

    def __init__(self, pitch: float):
        self.pitch = pitch
        self.grid = {}
        self.anchors = []
        self.sums = []

    def add(self, p: Point) -> int:
        kx, ky = round(p.x / self.pitch), round(p.y / self.pitch)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for cid in self.grid.get((kx + dx, ky + dy), ()):
                    if dist(p, self.anchors[cid]) <= self.pitch:
                        sx, sy, n = self.sums[cid]
                        self.sums[cid] = (sx + p.x, sy + p.y, n + 1)
                        return cid
        cid = len(self.anchors)
        self.anchors.append(p)
        self.sums.append((p.x, p.y, 1))
        self.grid.setdefault((kx, ky), []).append(cid)
        return cid

    def rep(self, cid: int) -> Point:
        sx, sy, n = self.sums[cid]
        return Point(sx / n, sy / n)


def _pair_pinch(cid, incident, ends, clusters, body, scale):
    """Pair boundary rays at an even-degree junction through the inside wedges.

    Each ray borders exactly one wedge whose interior lies inside the body;
    the two rays of that wedge continue into each other.
    """
    rep = clusters.rep(cid)
    rays = []
    min_len = math.inf
    for j in incident:
        c0, c1 = ends[j]
        other = clusters.rep(c1 if c0 == cid else c0)
        dx, dy = other.x - rep.x, other.y - rep.y
        min_len = min(min_len, math.hypot(dx, dy))
        rays.append((math.atan2(dy, dx), j))
    rays.sort()
    h = min(1e-6 * scale, 0.3 * min_len)
    n = len(rays)
    wedge_inside = []
    for i in range(n):
        a0 = rays[i][0]
        a1 = rays[(i + 1) % n][0]
        gap = (a1 - a0) % (2.0 * math.pi)
        mid = a0 + gap / 2.0
        probe = Point(rep.x + h * math.cos(mid), rep.y + h * math.sin(mid))
        wedge_inside.append(body.contains_strict(probe))
    pairing = {}
    for i in range(n):
        if not wedge_inside[i]:
            continue
        ja, jb = rays[i][1], rays[(i + 1) % n][1]
        if ja in pairing or jb in pairing:
            raise StitchFailure(f"inconsistent pinch wedges at {rep}")
        pairing[ja] = jb
        pairing[jb] = ja
    if len(pairing) != n:
        raise StitchFailure(f"unmatched boundary rays at pinch point {rep}")
    return pairing


def _vertex_info_at(v: Point, cfg: FocalConfig, turn: int) -> VertexInfo:
    band = _REF_BAND * cfg.scale()
    dmin = min(distance_to_set(v, cfg.inner), distance_to_set(v, cfg.outer))
    inner = tuple(i for i, p in enumerate(cfg.inner) if dist(v, p) - dmin <= band)
    outer = tuple(j for j, p in enumerate(cfg.outer) if dist(v, p) - dmin <= band)
    if len(inner) >= 2 and len(outer) >= 2:
        change = CHANGE_DOUBLE
    elif len(inner) >= 2:
        change = CHANGE_INNER
    elif len(outer) >= 2:
        change = CHANGE_OUTER
    else:
        change = "unknown"
    angle = ANGLE_CONVEX if turn > 0 else ANGLE_CONCAVE
    return VertexInfo(angle_type=angle, change_type=change,
                      inner_refs=inner, outer_refs=outer)


def extract_boundary(cfg: FocalConfig, clip_scale: float = 2.0, eps: float = EPS_GEO,
                     body: EquidistantBody | None = None) -> list[PolygonChain]:
    """Outer boundary of the body as simple closed chains (one per boundary cycle).

    Every component edge is a piece of a perpendicular bisector; the parts of
    it strictly inside some other component are interior gluing and are cut
    away, the rest is body boundary.  The remaining segments are stitched by
    matching endpoints within eps * scale.
    """
    if body is None:
        body = build_body(cfg, clip_scale)
    scale = cfg.scale()
    pitch = eps * scale
    comps = body.components

    pieces = []  # (p0, p1, inner index, outer index)
    for i, comp in enumerate(comps):
        if comp.clipped:
            raise StitchFailure("component reaches the clip box; enlarge clip_scale")
        for a, b, tag in comp.edges():
            keep = [(0.0, 1.0)]
            for k, other in enumerate(comps):
                if k == i or not keep:
                    continue
                iv = _strict_inside_interval(a, b, other, scale)
                if iv is not None:
                    keep = _subtract_open(keep, iv[0], iv[1])
            edge_len = dist(a, b)
            for t0, t1 in keep:
                if (t1 - t0) * edge_len <= 2.0 * pitch:
                    continue
                p0, p1 = lerp(a, b, t0), lerp(a, b, t1)
                mid = lerp(a, b, (t0 + t1) / 2.0)
                if membership(mid, cfg, tol=10.0 * eps) != MEMBER_BOUNDARY:
                    raise StitchFailure(
                        f"retained segment midpoint {mid} is not on the boundary")
                pieces.append((p0, p1, i, tag))

    if not pieces:
        raise StitchFailure("no boundary segments were retained")

    clusters = _Clusters(pitch)
    ends = [(clusters.add(p0), clusters.add(p1)) for p0, p1, _, _ in pieces]

    adj = {}
    live = []
    for idx, (c0, c1) in enumerate(ends):
        if c0 == c1:
            continue  # collapsed sliver
        live.append(idx)
        adj.setdefault(c0, []).append(idx)
        adj.setdefault(c1, []).append(idx)

    # Continuation map: at degree 2 the chain passes through; higher even
    # degrees are pinch points, resolved by pairing rays across the wedges
    # that lie inside the body.
    partner = {}
    for cid, incident in adj.items():
        if len(incident) == 2:
            partner[cid] = {incident[0]: incident[1], incident[1]: incident[0]}
        elif len(incident) % 2 == 0:
            partner[cid] = _pair_pinch(cid, incident, ends, clusters, body, scale)
        else:
            raise StitchFailure(
                f"boundary junction {clusters.rep(cid)} has odd degree {len(incident)}")

    visited = set()
    chains = []
    for start in live:
        if start in visited:
            continue
        visited.add(start)
        c_start, c_cur = ends[start]
        cycle_clusters = [c_start]
        cycle_pieces = [start]
        piece = start
        while c_cur != c_start:
            cycle_clusters.append(c_cur)
            nxt = partner[c_cur][piece]
            if nxt in visited:
                raise StitchFailure("boundary chain failed to close")
            visited.add(nxt)
            cycle_pieces.append(nxt)
            piece = nxt
            e0, e1 = ends[piece]
            c_cur = e1 if e0 == c_cur else e0
        chains.append((cycle_clusters, cycle_pieces))

    out = []
    for cycle_clusters, cycle_pieces in chains:
        verts = [clusters.rep(c) for c in cycle_clusters]
        pairs = [(pieces[j][2], pieces[j][3]) for j in cycle_pieces]
        n = len(verts)
        if signed_area(verts) < 0.0:
            verts = [verts[0]] + verts[:0:-1]
            pairs = [pairs[(n - 1 - t) % n] for t in range(n)]
        info = []
        for i, v in enumerate(verts):
            turn = orient(verts[(i - 1) % n], v, verts[(i + 1) % n])
            info.append(_vertex_info_at(v, cfg, turn))
        out.append(PolygonChain(vertices=tuple(verts), vertex_info=tuple(info),
                                edge_pairs=tuple(pairs)))
    out.sort(key=lambda ch: min((v.x, v.y) for v in ch.vertices))
    return out


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
    body = build_body(cfg, clip_scale)
    all_points = [p for _, p in labeled_points(cfg)]
    cells = [convex_component(x, tuple(p for p in all_points if p != x), body.clip)
             for x in cfg.inner]
    rng = random.Random(seed)
    scale = cfg.scale()
    band = tol * scale
    clip = body.clip
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
            hits = sum(1 for cell in cells if cell.min_signed(q) >= -band)
            strict_hits = sum(1 for cell in cells if cell.min_signed(q) > band)
            if hits == 0:
                cell_misses += 1
            if strict_hits > 1:
                overlap_violations += 1
    return VoronoiReport(samples=n_samples, ties_skipped=ties, agreements=agreements,
                         disagreements=disagreements, inside_count=inside_count,
                         cell_misses=cell_misses, overlap_violations=overlap_violations)
