"""(3,2) classification, pentagon recognition, and quad construction."""

import json
import math
import pathlib
import random
import sys
from fractions import Fraction
from functools import partial
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    coord_scale,
    random_concave_quad,
    random_generic_32,
    random_pentagon_config,
    vertex_sets_match,
)
from equidist import cli, type32
from equidist.body import FocalConfig, is_bounded
from equidist.errors import (
    GeometryError,
    InvalidConfig,
    MalformedQuad,
    NumericalDegeneracy,
    ParamOutOfRange,
    PreconditionViolated,
    RoundTripFailure,
    Unbounded,
)
from equidist.polygon import check_regularity, extract_boundary
from equidist.primitives import (
    Line,
    Point,
    compose_three_reflections,
    dist,
    dyadic_ints,
    orient,
    reflect_point,
    signed_area,
    viewing_angle,
    viewing_angle_ccw,
)
from equidist.type32 import (
    classify_generic_32,
    construct_quad_focals,
    feasible_param_range,
    label_pentagon,
    label_quad,
    point_in_polygon,
    recognize_pentagon,
    segments_intersect,
)
from test_boundary_walk import _snap
from test_integer_exact import frac_incircle_exact

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "scripts")]
import corpus  # noqa: E402
from compare_reports import concave_quad  # noqa: E402

# ---------------------------------------------------------------------------
# oracles: the general-polygon scans that type32 ran before the dart and
# two-ears facts replaced them, kept verbatim


def polygon_diameter(pts) -> float:
    return max(dist(a, b) for i, a in enumerate(pts) for b in pts[i + 1:])


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


def _feasible_intervals(q, d, d2):
    """The feasible intervals of the ray d and its mirror image d2 in ca, both unit vectors."""
    poly = q.points
    tmax = 2.0 * polygon_diameter(poly)
    iv1 = _ray_inside_intervals(q.c, d, poly, tmax)
    iv2 = _ray_inside_intervals(q.c, d2, poly, tmax)
    return _intersect_intervals(iv1, iv2)


def _probed_candidates(q, d):
    """The directions of the auxiliary line that the 1e-6 probe found entering."""
    poly = q.points
    h = 1e-6 * polygon_diameter(poly)
    candidates = []
    for sgn in (1.0, -1.0):
        probe = Point(q.c.x + sgn * h * d[0], q.c.y + sgn * h * d[1])
        if point_in_polygon(probe, poly):
            candidates.append((sgn * d[0], sgn * d[1]))
    return candidates


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


def searched_label_pentagon(points):
    """``label_pentagon`` with its former inner-diagonal search."""
    if len(points) != 5:
        return None
    norm = type32._normalize_ccw(points)
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
    return type32.LabeledPentagon(a, b, c, d, e)


# the quad's exact auxiliary ray, as the engine finds it, and as floats


def quad_ray(q):
    """(integer vertices, their 2**k, the auxiliary ray (D, e, h), its feasible intervals)."""
    verts, k = type32._integer_vertices(q.points)
    return (verts, k, *type32._auxiliary_ray(verts, k))


def float_unit(v):
    """The integer vector v as a float unit vector, as construct-quad reports its ray."""
    e = max(abs(v[0]), abs(v[1])).bit_length()
    fx, fy = v[0] / (1 << e), v[1] / (1 << e)
    h = math.hypot(fx, fy)
    return fx / h, fy / h


def mirrored_in_ca(verts, v):
    """|a - c|**2 times the integer vector v mirrored in the line ca, exactly."""
    a, _, c, _ = verts
    ex, ey = a[0] - c[0], a[1] - c[1]
    n, twice = ex * ex + ey * ey, 2 * (v[0] * ex + v[1] * ey)
    return twice * ex - n * v[0], twice * ey - n * v[1]


def default_construction(q):
    """construct-quad's certificate at the midpoint of the feasible interval."""
    return type32._construct_quad(q, None)[3]


# the boundedness probe that chose the quad ray before the side of ca decided it, on the
# exact direction


def quad_sites(q, ray, t):
    """The construction's exact focal points at t along the ray (D, e, h), and their 2**k."""
    verts, k = type32._integer_vertices(q.points)
    return type32._quad_sites(verts, k, ray, t), k


def _direction_works(q, ray, intervals) -> bool:
    """Probe a few interior parameters: does the construction stay bounded?"""
    for lo, hi in intervals:  # at most one
        for frac in (0.5, 0.25, 0.75):
            try:
                pts = type32._rounded(*quad_sites(q, ray, lo + (hi - lo) * frac))
                if is_bounded(FocalConfig(inner=pts[:2], outer=pts[2:])):
                    return True
            except InvalidConfig:
                continue
    return False


def probed_auxiliary_ray(q):
    """``_auxiliary_ray`` with its former boundedness probe over both directions of the
    composed reflection, starting from the sign that ``_composed_direction`` gives."""
    verts, k, (_, e, h), _ = quad_ray(q)
    a, b, c, dv = verts
    ux, uy = type32._composed_direction(c, dv, b, a)
    tried = []
    for sgn in (1, -1):
        cand = ((sgn * ux, sgn * uy), e, h)
        if type32._exit_param(verts, cand[0]) is None:
            continue
        intervals = type32._feasible_intervals(verts, k, cand)
        if _direction_works(q, cand, intervals):
            return cand, intervals
        tried.append((cand, intervals))
    if not tried:
        raise NumericalDegeneracy("auxiliary line does not enter the polygon")
    return next((t for t in tried if t[1]), tried[0])


def same_point(p, q) -> bool:
    """Are the homogeneous integer points p and q the same point?"""
    return p[0] * q[2] == q[0] * p[2] and p[1] * q[2] == q[1] * p[2]


def fraction_exit(verts, ray):
    """The least s > 0 with c + s*ray on the side ab or da, in rationals, or None."""
    a, b, c, d = (tuple(map(Fraction, v)) for v in verts)
    (cx, cy), (dx, dy) = c, map(Fraction, ray)
    exits = []
    for (ux, uy), (vx, vy) in ((a, b), (d, a)):
        denom = dx * (vy - uy) - dy * (vx - ux)
        if denom:
            t = ((ux - cx) * (vy - uy) - (uy - cy) * (vx - ux)) / denom
            s = ((ux - cx) * dy - (uy - cy) * dx) / denom
            if 0 <= s <= 1 and t > 0:
                exits.append(t)
    return min(exits, default=None)


def close_intervals(got, want, rel=1e-9) -> bool:
    """As many intervals, each end within rel of the other's."""
    return len(got) == len(want) and all(abs(g - w) <= rel * abs(w)
                                         for gv, wv in zip(got, want) for g, w in zip(gv, wv))


# exactly concircular inner/outer quadruple on the circle x^2 + y^2 = 25
CONCIRC = FocalConfig.of([(-4, 3), (-4, -3)], [(3, 4), (3, -4), (-40, 0)])
COLLIN = FocalConfig.of([(-1, 0), (1, 0)], [(3, 0), (-2, 4), (-2, -4)])


def searched_labeling(cfg, rep):
    """The former search over all 12 relabelings: (labeling, separated outer, delta ordered)."""
    if rep.category != "generic":
        return None, None, None
    pairs = ((0, 1), (1, 2), (2, 0))
    omega = {}
    for i in (0, 1):
        for (j, k), w in zip(pairs, rep.omegas[i]):
            omega[i, j, k] = omega[i, k, j] = w
    found = (None, None, None)
    for xo, yo in product(((0, 1), (1, 0)), permutations((0, 1, 2))):
        w = [[omega[xi, yo[j], yo[k]] for j, k in pairs] for xi in xo]
        if not (w[0][0] > w[1][0] and w[0][1] < w[1][1] and w[0][2] > w[1][2]):
            continue
        sides = [orient(cfg.inner[xo[0]], cfg.inner[xo[1]], cfg.outer[j]) for j in yo]
        lone = [m for m in range(3) if sides.count(sides[m]) == 1]
        d_ok = rep.deltas[yo[0]] < rep.deltas[yo[1]]
        if lone == [2] and d_ok:
            return (xo, yo), yo[2], True
        if found[0] is None:
            found = (xo, yo), yo[lone[0]] if len(lone) == 1 else None, d_ok
    return found


class TestClassify32:
    def test_labeling_matches_the_search_over_relabelings(self):
        rng = random.Random(52)
        cfgs = [random_generic_32(rng) for _ in range(200)]
        grid = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
        while len(cfgs) < 600:
            pts = rng.sample(grid, 5)
            cfg = FocalConfig.of(pts[:2], pts[2:])
            if is_bounded(cfg):
                cfgs.append(cfg)
        ascending = set()  # whether the odd pair comes in ascending order, None without a labeling
        for cfg in cfgs:
            rep = classify_generic_32(cfg)
            # every labeling the search finds orders the two deltas
            got = (rep.labeling, rep.separated_outer, rep.labeling and True)
            assert got == searched_labeling(cfg, rep)
            ascending.add(rep.labeling and rep.labeling[1][1] < rep.labeling[1][2])
        assert ascending == {None, False, True}
    def test_closure_at_both_inner_points(self):
        # an inner point lies inside the outer triangle: its three viewing angles sum to 2 pi
        rng = random.Random(50)
        for _ in range(20):
            cfg = random_generic_32(rng)
            rep = classify_generic_32(cfg)
            assert rep.category == "generic"
            assert max(abs(math.fsum(om) - 2 * math.pi) for om in rep.omegas) < 1e-12

    def test_ordering_labeling_found(self):
        rng = random.Random(51)
        for _ in range(20):
            cfg = random_generic_32(rng)
            rep = classify_generic_32(cfg)
            assert rep.labeling is not None
            xo, yo = rep.labeling
            pairs = ((0, 1), (1, 2), (2, 0))
            w = [[viewing_angle(cfg.inner[xi], cfg.outer[yo[j]], cfg.outer[yo[k]])
                  for j, k in pairs] for xi in xo]
            assert w[0][0] > w[1][0]
            assert w[0][1] < w[1][1]
            assert w[0][2] > w[1][2]
            # the line through the relabeled inner points separates the third
            # outer point from the first two
            assert rep.separated_outer == yo[2]
            assert rep.deltas[yo[0]] < rep.deltas[yo[1]]

    def test_concircular_class(self):
        rep = classify_generic_32(CONCIRC)
        assert rep.category == "concircular"
        assert rep.concircular
        # equal viewing angles over the concircular outer pair are flagged
        assert (0, 1) in rep.equal_omega_pairs
        assert abs(rep.omegas[0][0] - rep.omegas[1][0]) < 1e-12

    def test_collinear_class(self):
        rep = classify_generic_32(COLLIN)
        assert rep.category == "collinear"
        assert rep.collinear

    def test_wrong_shape_raises(self):
        with pytest.raises(PreconditionViolated):
            classify_generic_32(FocalConfig.of([(0, 0)], [(2, 0), (-2, 0), (0, 2)]))
        with pytest.raises(Unbounded):
            classify_generic_32(FocalConfig.of([(0, 5), (1, 5)],
                                               [(2, -1), (-2, -1), (0, 2)]))


class TestLabeling:
    def test_pentagon_any_rotation_and_reflection(self):
        rng = random.Random(52)
        cfg, ch = random_pentagon_config(rng)
        pts = list(ch.vertices)
        for shift in range(5):
            rotated = pts[shift:] + pts[:shift]
            pent = label_pentagon(rotated)
            assert pent is not None
            assert orient(pent.a, pent.b, pent.c) is not None
            pent_r = label_pentagon(list(reversed(rotated)))
            assert pent_r is not None
            assert {(p.x, p.y) for p in pent.points} == {(p.x, p.y) for p in pent_r.points}

    def test_convex_pentagon_rejected(self):
        pts = [Point(math.cos(2 * math.pi * k / 5), math.sin(2 * math.pi * k / 5))
               for k in range(5)]
        assert label_pentagon(pts) is None

    def test_adjacent_reflex_rejected(self):
        # two reflex vertices next to each other: no inner-diagonal labeling
        pts = [Point(0, 0), Point(10, 0), Point(10, 10),
               Point(4.9, 1.5), Point(3.9, 1.4)]
        assert label_pentagon(pts) is None

    def test_quad_labeling(self):
        quad = label_quad([Point(0, 0), Point(6, 0), Point(2, 2), Point(0, 6)])
        assert (quad.c.x, quad.c.y) == (2, 2)
        with pytest.raises(MalformedQuad):
            label_quad([Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)])  # convex
        with pytest.raises(MalformedQuad):
            label_quad([Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 2)])  # collinear


class TestDegenerateShapes:
    """Shapes the labelers reject before looking at reflex angles."""

    PENTAGONS = {
        "vertex on a far edge": [(0, 0), (4, 0), (4, 4), (2, 0), (0, 4)],
        "spike back onto an edge": [(0, 0), (4, 0), (2, 0), (2, 3), (0, 3)],
        "repeated vertex": [(0, 0), (4, 0), (4, 0), (2, 3), (0, 4)],
        "zero area": [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)],
    }
    QUADS = {
        "vertex on a far edge": [(0, 0), (4, 0), (4, 4), (2, 0)],
        "spike back onto an edge": [(0, 0), (4, 0), (2, 0), (2, 3)],
        "repeated vertex": [(0, 0), (4, 0), (4, 0), (0, 4)],
        "zero area": [(0, 0), (1, 1), (2, 2), (3, 3)],
    }

    @staticmethod
    def relabelings(points):
        """Every rotation of the points, and their reversal."""
        pts = [Point(*t) for t in points]
        return [pts[k:] + pts[:k] for k in range(len(pts))] + [pts[::-1]]

    @pytest.mark.parametrize("kind", sorted(PENTAGONS))
    def test_pentagon_rejected(self, kind):
        for pts in self.relabelings(self.PENTAGONS[kind]):
            assert label_pentagon(pts) is None

    @pytest.mark.parametrize("kind", sorted(QUADS))
    def test_quad_rejected(self, kind):
        for pts in self.relabelings(self.QUADS[kind]):
            with pytest.raises(MalformedQuad):
                label_quad(pts)

    def test_wrong_vertex_count(self):
        pent = [Point(*t) for t in [(0, 0), (10, 0), (10, 10), (5, 2), (0, 10)]]
        assert label_pentagon(pent[:4]) is None
        assert label_pentagon(pent + [Point(-1, 5)]) is None
        with pytest.raises(MalformedQuad):
            label_quad(pent)
        with pytest.raises(MalformedQuad):
            label_quad(pent[:3])
        assert not vertex_sets_match(pent[:2], pent[:3], 100.0)
        assert not vertex_sets_match(pent[:3], pent[:2], 100.0)


def composed_at(v, p1, p2, p3):
    """The reflections in the float lines v p1, v p2 and v p3, composed into one line."""
    return compose_three_reflections(Line.through(v, p1), Line.through(v, p2),
                                     Line.through(v, p3))


def auxiliary_lines(p):
    """The four float reflection-composition lines through the concave vertices."""
    f_b, f_d = composed_at(p.b, p.a, p.c, p.d), composed_at(p.d, p.e, p.c, p.b)
    return f_b, f_d, composed_at(p.b, p.c, p.a, p.d), composed_at(p.d, p.c, p.e, p.b)


def pseudo_focal_points(p):
    """x1 and x2 of the exact construction, each coordinate rounded once."""
    verts, k = type32._integer_vertices(p.points)
    return type32._rounded(type32._pentagon_sites(verts)[:2], k)


class TestPseudoFocalPoints:
    """The three-reflection theorem behind the exact construction, on the float line layer."""

    def test_exact_direction_is_the_composed_line(self):
        # u1 * conj(u2) * u3 runs along the line that compose_three_reflections returns
        rng = random.Random(69)
        for _ in range(20):
            _, ch = random_pentagon_config(rng)
            pent = label_pentagon(ch.vertices)
            verts, _ = type32._integer_vertices(pent.points)
            a, b, c, d, e = verts
            exact = [type32._composed_direction(*args) for args in
                     ((b, a, c, d), (d, e, c, b), (b, c, a, d), (d, c, e, b))]
            for line, v in zip(auxiliary_lines(pent), exact):
                ux, uy = float_unit(v)
                assert abs(line.a * ux + line.b * uy) < 1e-12

    def test_angle_against_inner_diagonal(self):
        # the auxiliary line through a concave vertex makes the angle
        # (interior reflex angle - pi) with the inner diagonal on the a-side
        rng = random.Random(53)
        for _ in range(10):
            cfg, ch = random_pentagon_config(rng)
            pent = label_pentagon(ch.vertices)
            f_b, f_d, g_b, g_d = auxiliary_lines(pent)
            for vertex, other, aux, prev_pt, next_pt in (
                    (pent.b, pent.d, f_b, pent.c, pent.a),
                    (pent.d, pent.b, f_d, pent.e, pent.c)):
                reflex = viewing_angle_ccw(vertex, prev_pt, next_pt)
                assert reflex > math.pi
                ux, uy = other.x - vertex.x, other.y - vertex.y
                dx, dy = -aux.b, aux.a
                side = orient(vertex, other, pent.a)
                if orient(vertex, other, Point(vertex.x + dx, vertex.y + dy)) != side:
                    dx, dy = -dx, -dy
                ang = math.atan2(abs(ux * dy - uy * dx), ux * dx + uy * dy)
                assert abs(ang - (reflex - math.pi)) < 1e-10

    def test_reflex_angle_sum_identity(self):
        # interior angles of a pentagon sum to 3*pi, so the two auxiliary
        # angles sum to pi minus the three convex angles
        rng = random.Random(54)
        cfg, ch = random_pentagon_config(rng)
        pent = label_pentagon(ch.vertices)
        ang = {}
        pts = pent.points
        for i, name in enumerate("abcde"):
            prev_pt, v, next_pt = pts[i - 1], pts[i], pts[(i + 1) % 5]
            ang[name] = viewing_angle_ccw(v, next_pt, prev_pt)
        assert abs(sum(ang.values()) - 3 * math.pi) < 1e-10
        lhs = (ang["b"] - math.pi) + (ang["d"] - math.pi)
        rhs = math.pi - (ang["a"] + ang["c"] + ang["e"])
        assert abs(lhs - rhs) < 1e-10
        assert lhs < math.pi

    def test_sides_of_inner_diagonal(self):
        rng = random.Random(55)
        for _ in range(10):
            cfg, ch = random_pentagon_config(rng)
            pent = label_pentagon(ch.vertices)
            x1, x2 = pseudo_focal_points(pent)
            side_a = orient(pent.b, pent.d, pent.a)
            side_c = orient(pent.b, pent.d, pent.c)
            assert orient(pent.b, pent.d, x1) == side_a
            assert orient(pent.b, pent.d, x2) == side_c

    def test_mirror_line_property(self):
        # g_b is the mirror image of f_b across the inner diagonal
        rng = random.Random(56)
        cfg, ch = random_pentagon_config(rng)
        pent = label_pentagon(ch.vertices)
        f_b, f_d, g_b, g_d = auxiliary_lines(pent)
        bd = Line.through(pent.b, pent.d)
        for t in (-3.0, -1.0, 0.5, 2.0):
            g_pt = Point(pent.b.x - g_b.b * t, pent.b.y + g_b.a * t)
            assert abs(g_b.eval(g_pt)) < 1e-12
            assert abs(f_b.eval(reflect_point(bd, g_pt))) < 1e-9

    def test_forward_recovery(self):
        rng = random.Random(57)
        for _ in range(20):
            cfg, ch = random_pentagon_config(rng)
            pent = label_pentagon(ch.vertices)
            x1, x2 = pseudo_focal_points(pent)
            scale = coord_scale(cfg)
            d1 = min(dist(x1, cfg.inner[0]), dist(x1, cfg.inner[1]))
            d2 = min(dist(x2, cfg.inner[0]), dist(x2, cfg.inner[1]))
            assert d1 < 1e-9 * scale and d2 < 1e-9 * scale
            bd = Line.through(pent.b, pent.d)
            assert dist(reflect_point(bd, x1), x2) < 1e-9 * scale


class TestRecognizePentagon:
    def test_convex_pentagon_negative(self):
        pts = [Point(3 * math.cos(2 * math.pi * k / 5), 3 * math.sin(2 * math.pi * k / 5))
               for k in range(5)]
        assert recognize_pentagon(pts) is None

    def test_adjacent_reflex_negative(self):
        pts = [Point(0, 0), Point(10, 0), Point(10, 10),
               Point(4.9, 1.5), Point(3.9, 1.4)]
        assert recognize_pentagon(pts) is None

    def test_pseudo_focal_point_outside_negative(self):
        # two non-adjacent reflex angles, but x2 falls outside the pentagon
        pts = [Point(*t) for t in [(-2, 2), (3, -5), (0, 0), (4, 5), (-6, 1)]]
        pent = label_pentagon(pts)
        assert pent is not None
        x1, x2 = pseudo_focal_points(pent)
        assert point_in_polygon(x1, pent.points) and not point_in_polygon(x2, pent.points)
        assert recognize_pentagon(pts) is None

    def test_exterior_pseudo_focals_negative(self):
        # two opposite deep notches push the pseudo focal points outside
        pts = [Point(0, 0), Point(5, 4.5), Point(10, 0), Point(5.2, 9), Point(4.8, 9)]
        pent = label_pentagon(pts)
        if pent is not None:
            x1, x2 = pseudo_focal_points(pent)
            inside = (point_in_polygon(x1, pent.points)
                      and point_in_polygon(x2, pent.points))
            assert not inside
            assert recognize_pentagon(pts) is None

    def test_focal_point_past_the_float_range_is_no_certificate(self):
        # a two-reflex pentagon near the top of the float range: its outer point y1 rounds
        # to inf, so the focal points form no configuration
        pts = [Point(math.ldexp(x, 1020), math.ldexp(y, 1020)) for x, y in [
            (-4.13516902923584, -3.934232711791992), (9.704928398132324, -9.510152816772461),
            (8.820141792297363, 6.275642395019531), (-5.030261993408203, -2.118438720703125),
            (-7.860008239746094, -2.519418716430664)]]
        verts, k = type32._integer_vertices(label_pentagon(pts).points)
        assert math.inf in type32._rounded(type32._pentagon_sites(verts), k)[2]
        assert recognize_pentagon(pts) is None

    def test_collinear_arrangement_uses_generic_pipeline(self):
        # an outer point on the inner line still yields a two-concave
        # pentagon, recognized and recovered exactly
        rep = classify_generic_32(COLLIN)
        assert rep.category == "collinear"
        chains = extract_boundary(COLLIN)
        assert len(chains) == 1 and len(chains[0].vertices) == 5
        cert = recognize_pentagon(chains[0].vertices)
        assert cert is not None
        got = (cert.x1, cert.x2, cert.y1, cert.y2, cert.y3)
        assert vertex_sets_match(got, COLLIN.points, 1e-9 * coord_scale(COLLIN))

    def test_forward_round_trip(self):
        rng = random.Random(58)
        for _ in range(20):
            cfg, ch = random_pentagon_config(rng)
            cert = recognize_pentagon(ch.vertices)
            assert cert is not None
            scale = coord_scale(cfg)
            got_inner = sorted([(cert.x1.x, cert.x1.y), (cert.x2.x, cert.x2.y)])
            want_inner = sorted([(p.x, p.y) for p in cfg.inner])
            for g, w in zip(got_inner, want_inner):
                assert math.hypot(g[0] - w[0], g[1] - w[1]) < 1e-9 * scale
            got_outer = [Point(*t) for t in
                         sorted([(p.x, p.y) for p in (cert.y1, cert.y2, cert.y3)])]
            want_outer = [Point(*t) for t in sorted([(p.x, p.y) for p in cfg.outer])]
            assert vertex_sets_match(got_outer, want_outer, 1e-9 * scale)
            # the construction closes exactly: y2 and y3 mirror x2 and x1 in bc and de too
            verts, _ = type32._integer_vertices(label_pentagon(ch.vertices).points)
            x1, x2, _, y2, y3 = type32._pentagon_sites(verts)
            a, b, c, d, e = verts
            assert same_point(y2, type32._reflected(x2, b, c))
            assert same_point(y3, type32._reflected(x1, d, e))

    def test_labeling_invariance(self):
        rng = random.Random(59)
        cfg, ch = random_pentagon_config(rng)
        pts = list(ch.vertices)
        base = recognize_pentagon(pts)
        rotated = recognize_pentagon(pts[2:] + pts[:2])
        reversed_ = recognize_pentagon(list(reversed(pts)))
        assert base and rotated and reversed_
        for other in (rotated, reversed_):
            assert vertex_sets_match((base.x1, base.x2), (other.x1, other.x2), 1e-9 * coord_scale(cfg))


class TestQuadConstruction:
    QUAD = [Point(0, 0), Point(6, 0), Point(2, 2), Point(0, 6)]

    def test_example_round_trip(self):
        quad = label_quad(self.QUAD)
        cert = default_construction(quad)
        chains = extract_boundary(cert.config())
        assert len(chains) == 1
        assert vertex_sets_match(chains[0].vertices, quad.points, 1e-9 * 6)

    def test_zero_param_rejected(self):
        quad = label_quad(self.QUAD)
        with pytest.raises(ParamOutOfRange):
            construct_quad_focals(quad, 0.0)

    def test_param_beyond_exit_rejected(self):
        quad = label_quad(self.QUAD)
        hi = max(hi for _, hi in feasible_param_range(quad))
        with pytest.raises(ParamOutOfRange):
            construct_quad_focals(quad, hi * 1.5)

    def test_one_parameter_family(self):
        quad = label_quad(self.QUAD)
        lo, hi = max(feasible_param_range(quad), key=lambda iv: iv[1] - iv[0])
        t1 = lo + (hi - lo) * 0.3
        t2 = lo + (hi - lo) * 0.7
        c1 = construct_quad_focals(quad, t1)
        c2 = construct_quad_focals(quad, t2)
        assert dist(c1.x1, c2.x1) > 1e-6
        for cert in (c1, c2):
            chains = extract_boundary(cert.config())
            assert vertex_sets_match(chains[0].vertices, quad.points, 1e-9 * 6)

    def test_feasible_range_opens_at_zero(self):
        quad = label_quad(self.QUAD)
        intervals = feasible_param_range(quad)
        assert intervals
        assert intervals[0][0] == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_quad_ranges_coincide(self):
        # symmetric about the inner diagonal: both focal points enter and
        # leave the polygon at the same parameters
        quad = label_quad([Point(6, 0), Point(4, 3), Point(4.5, 0), Point(4, -3)])
        verts, _, ((ux, uy), _, _), _ = quad_ray(quad)
        d, d2 = float_unit((ux, uy)), float_unit(mirrored_in_ca(verts, (ux, uy)))
        tmax = 2.0 * polygon_diameter(quad.points)
        iv1 = _ray_inside_intervals(quad.c, d, quad.points, tmax)
        iv2 = _ray_inside_intervals(quad.c, d2, quad.points, tmax)
        assert len(iv1) == len(iv2)
        for (a0, a1), (b0, b1) in zip(iv1, iv2):
            assert a0 == pytest.approx(b0, abs=1e-9)
            assert a1 == pytest.approx(b1, abs=1e-9)
        # the exact exits that replaced the scan coincide too, D's mirror image being
        # |a - c|**2 times shorter than mirrored_in_ca's
        a, _, c, _ = verts
        s1 = Fraction(*type32._exit_param(verts, (ux, uy)))
        s2 = Fraction(*type32._exit_param(verts, mirrored_in_ca(verts, (ux, uy))))
        assert s1 == s2 * ((a[0] - c[0]) ** 2 + (a[1] - c[1]) ** 2)

    def test_random_quads(self):
        rng = random.Random(60)
        for _ in range(25):
            quad = random_concave_quad(rng)
            intervals = feasible_param_range(quad)
            assert intervals, quad
            lo, hi = max(intervals, key=lambda iv: iv[1] - iv[0])
            t = rng.uniform(lo + (hi - lo) * 0.1, hi - (hi - lo) * 0.1)
            cert = construct_quad_focals(quad, t)
            # the construction closes exactly: y3 mirrors x2 in cb too
            (x1, x2, _, _, y3), _ = quad_sites(quad, quad_ray(quad)[2], t)
            verts, _ = type32._integer_vertices(quad.points)
            assert same_point(y3, type32._reflected(x2, verts[2], verts[1]))
            scale = max(abs(v) for p in quad.points for v in (p.x, p.y))
            chains = extract_boundary(cert.config())
            assert len(chains) == 1
            assert vertex_sets_match(chains[0].vertices, quad.points, 1e-9 * scale)

    def test_far_flat_dart_round_trip(self):
        # the exact round trip certifies it, and the walk of the rounded certificate
        # finds the four vertices
        quad = label_quad([Point(9984.670490954783, -20022.760706562585),
                           Point(10007.063733748128, -20016.52117341381),
                           Point(10023.425445846124, -20009.76367051825),
                           Point(10029.202115665843, -20007.63896803547)])
        cert = default_construction(quad)
        assert cert.source == quad.points
        chains = extract_boundary(cert.config())
        assert len(chains) == 1
        assert vertex_sets_match(chains[0].vertices, quad.points, 1e-12 * 2e4)

    FLAT_DART = [[-4.746586673800708, -0.005902946252310706],
                 [-3.167287754935413, -0.024408559805269937],
                 [9.356261398575892, 0.08935820283430503],
                 [9.991162478251315, 0.09483758907482023]]

    def test_flat_dart_across_the_origin_round_trip(self, tmp_path, capsys):
        # the exact round trip certifies it; rounding the certificate splits the double
        # vertex a, where four focal points are concircular, into two chain vertices 3.1e-7
        # apart, so only the exact sites reproduce the shape
        quad = label_quad([Point(*p) for p in self.FLAT_DART])
        cert = default_construction(quad)
        assert cert.source == quad.points
        chains = extract_boundary(cert.config())
        assert len(chains) == 1 and len(chains[0].vertices) == 5
        path = tmp_path / "dart.json"
        path.write_text(json.dumps({"polygon": self.FLAT_DART}))
        assert cli.main(["construct-quad", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["certificate"]["source"] == \
            self.FLAT_DART

    def test_seeded_flat_darts_certify(self):
        # the darts of scripts/compare_reports.py flattened by y * 0.001: 78 of the 1500,
        # dart 10 among them, failed the float round trip that matched a walked chain
        rng = random.Random(5)
        darts = [[Point(x, 0.001 * y) for x, y in concave_quad(rng)["polygon"]]
                 for _ in range(1500)]
        assert [n for n, dart in enumerate(darts)
                if round_trip_outcome("quad", dart) != "certificate"] == []

    def test_quad_vertices_are_concircular_witnesses(self):
        # each boundary vertex is equidistant from its generating focal
        # points; at the double-change vertex four focal points lie on one
        # circle around it
        quad = label_quad(self.QUAD)
        cert = default_construction(quad)
        cfg = cert.config()
        chains = extract_boundary(cfg)
        scale = coord_scale(cfg)
        doubles = 0
        for v, vi in zip(chains[0].vertices, chains[0].vertex_info):
            refs = ([cfg.inner[i] for i in vi.inner_refs]
                    + [cfg.outer[j] for j in vi.outer_refs])
            dists = [dist(v, r) for r in refs]
            assert max(dists) - min(dists) < 1e-9 * scale
            if vi.change_type == "double":
                doubles += 1
                assert len(refs) == 4
        assert doubles == 1


class TestEachStageOnce:
    """classify32 computes each viewing angle once, construct-quad its ray once."""

    @staticmethod
    def count_calls(monkeypatch, names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(type32, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(type32, name, counted)
        return calls

    def test_classify_reads_the_six_stored_angles(self, monkeypatch):
        rng = random.Random(60)
        cfgs = [random_generic_32(rng) for _ in range(10)] + [CONCIRC, COLLIN]
        want = [classify_generic_32(cfg) for cfg in cfgs]
        calls = self.count_calls(monkeypatch, ["_omega"])
        assert [classify_generic_32(cfg) for cfg in cfgs] == want
        assert calls["_omega"] == 6 * len(cfgs)

    def test_swapped_chord_gives_the_same_angle(self):
        # the lookup relies on ω(x; a, b) and ω(x; b, a) being one float
        rng = random.Random(61)
        for _ in range(2000):
            x, a, b = (Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3))
            assert viewing_angle(x, a, b) == viewing_angle(x, b, a)

    @pytest.mark.parametrize("t", [None, 0.75])
    def test_construct_quad_computes_its_ray_once(self, tmp_path, capsys, monkeypatch, t):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"polygon": [list(p) for p in TestQuadConstruction.QUAD]}))
        args = ["construct-quad", str(path)] + ([] if t is None else ["--t", str(t)])
        assert cli.main(args) == 0
        want = capsys.readouterr().out
        calls = self.count_calls(monkeypatch, ["dyadic_ints", "_composed_direction",
                                               "_auxiliary_ray", "_feasible_intervals",
                                               "_exit_param", "is_bounded"])
        assert cli.main(args) == 0
        assert capsys.readouterr().out == want
        # the vertices are scaled once and D is found once; two exits, for x1's ray and
        # x2's; the exact round trip needs no boundedness test
        assert calls == {"dyadic_ints": 1, "_composed_direction": 1, "_auxiliary_ray": 1,
                         "_feasible_intervals": 1, "_exit_param": 2, "is_bounded": 0}


class TestDartAndTwoEars:
    """The exit parameter and the ear fact agree with the general-polygon scans."""

    def test_exit_matches_the_interval_scan(self):
        rng = random.Random(63)
        shapes = 0
        for _ in range(700):
            quad = random_concave_quad(rng)
            for pts in (quad.points, quad.points[::-1], [Point(3e5 * p.x, 3e5 * p.y - 7)
                                                         for p in quad.points]):
                q = label_quad(pts)
                verts, k, ((ux, uy), e, h), intervals = quad_ray(q)
                entering = [cand for cand in ((ux, uy), (-ux, -uy))
                            if type32._exit_param(verts, cand) is not None]
                assert (list(map(float_unit, entering))
                        == _probed_candidates(q, float_unit((ux, uy))))
                for cand in entering:
                    want = _feasible_intervals(q, float_unit(cand),
                                               float_unit(mirrored_in_ca(verts, cand)))
                    assert close_intervals(type32._feasible_intervals(verts, k, (cand, e, h)),
                                           want)
                    if cand == (ux, uy):
                        assert intervals == type32._feasible_intervals(verts, k, (cand, e, h))
                shapes += 1
        assert shapes == 2100

    def test_exit_matches_a_fraction_oracle(self):
        rng = random.Random(68)
        exits = 0
        for _ in range(150):
            quad = random_concave_quad(rng)
            for pts in (quad.points, [Point(3e5 * p.x, 3e5 * p.y - 7) for p in quad.points],
                        [Point(p.x, 0.02 * p.y) for p in quad.points]):
                verts, k, ((ux, uy), e, h), _ = quad_ray(label_quad(pts))
                a, _, c, _ = verts
                n = (a[0] - c[0]) ** 2 + (a[1] - c[1]) ** 2
                for d in ((ux, uy), (-ux, -uy)):
                    # x1's ray, and x2's: its exit along n times D's mirror image, scaled by n
                    wants = []
                    for ray, scale in ((d, 1), (mirrored_in_ca(verts, d), n)):
                        want = fraction_exit(verts, ray)
                        got = type32._exit_param(verts, ray)
                        assert (got is None) == (want is None)
                        if want is not None:
                            assert Fraction(*got) == want
                            wants.append(want * scale)
                            exits += 1
                    # the feasible interval ends at the nearer exit, s * |D| / 2**k from c
                    want_t = ([(0.0, float(min(wants)) * math.hypot(*d) / 2.0 ** k)]
                              if len(wants) == 2 else [])
                    got_t = type32._feasible_intervals(verts, k, (d, e, h))
                    assert close_intervals(got_t, want_t, rel=1e-12)
        assert exits > 900

    def test_exit_one_rounding_past_c(self):
        # c lies within an ulp inside ab: a float quotient for the exit is 0, the exact one
        # is not
        q = label_quad([Point(0.0, 0.0), Point(3.0, 1.1),
                        Point(1.2399103330961585, 0.45463378880192484), Point(0.5, 3.0)])
        verts, _ = type32._integer_vertices(q.points)
        ray, _ = dyadic_ints((0.36503865687766207, -0.9388763158866086))
        want = fraction_exit(verts, ray)
        assert want is not None and float(want) > 0.0
        assert Fraction(*type32._exit_param(verts, ray)) == want

    def test_two_reflex_pentagons_keep_their_inner_diagonal(self):
        rng = random.Random(64)
        two_reflex = 0
        for n in range(6000):
            if n % 3:  # star-shaped about the origin, most with dents at vertices 1 and 3
                angles = [2 * math.pi * k / 5 + rng.uniform(-0.3, 0.3) for k in range(5)]
                radii = [rng.uniform(0.02, 0.3) if n % 3 == 2 and k in (1, 3)
                         else rng.uniform(0.7, 1.3) for k in range(5)]
                pts = [Point(r * math.cos(a), r * math.sin(a)) for r, a in zip(radii, angles)]
            else:
                pts = [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(5)]
            norm = type32._normalize_ccw(pts)
            if norm is not None:
                ccw, turns = norm
                reflex = [i for i, t in enumerate(turns) if t < 0]
                if len(reflex) == 2 and (reflex[1] - reflex[0]) % 5 in (2, 3):
                    assert _diagonal_inside(ccw, *reflex)
                    two_reflex += 1
            assert label_pentagon(pts) == searched_label_pentagon(pts)
        assert two_reflex > 1400

    def test_pentagon_corpus_labels_as_before(self):
        rng = random.Random(65)
        for _ in range(20):
            _, ch = random_pentagon_config(rng)
            pts = list(ch.vertices)
            for shape in (pts, pts[::-1], pts[2:] + pts[:2]):
                assert label_pentagon(shape) == searched_label_pentagon(shape) is not None


class TestRayOnTheSideOfD:
    """The ray on d's side of ca is the one the boundedness probe chose."""

    def test_side_of_ca_matches_the_probe(self):
        rng = random.Random(67)
        shapes = two_ways = 0
        for _ in range(500):
            quad = random_concave_quad(rng)
            for pts in (quad.points, quad.points[::-1],
                        [Point(3e5 * p.x, 3e5 * p.y - 7) for p in quad.points],
                        [Point(p.x, 0.02 * p.y) for p in quad.points]):
                q = label_quad(pts)
                verts, _, ray, intervals = quad_ray(q)
                assert (ray, intervals) == probed_auxiliary_ray(q)
                (ux, uy), _, _ = ray
                d = float_unit((ux, uy))
                assert orient(q.c, q.a, Point(q.c.x + d[0], q.c.y + d[1])) == orient(q.c, q.a, q.d)
                two_ways += all(type32._exit_param(verts, cand) is not None
                                for cand in ((ux, uy), (-ux, -uy)))
                shapes += 1
        assert shapes == 2000
        assert two_ways > 300  # darts on which both rays enter and the probe had to choose


def moving_x1(monkeypatch, tenths):
    """Make the round trip check x1 moved along x by tenths(vertices) tenths of a unit of the
    vertices' integer frame, and certify the rounded focal points as they are."""
    certify = type32._certify

    def moved(cfg, sites, verts, kind, source):
        (x, y, w), *rest = sites
        x1 = (10 * x + tenths(verts) * w, 10 * y, 10 * w)
        return certify(cfg, (x1, *rest), verts, kind, source)

    monkeypatch.setattr(type32, "_certify", moved)


def shortest_edge(verts) -> int:
    return math.isqrt(min((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
                          for p, q in zip(verts, verts[1:] + verts[:1])))


class TestRoundTripFailureTexts:
    """The pentagon and the quad share one exact round trip, each with its own text."""

    TEXTS = {"pentagon": "recovered boundary does not match the pentagon",
             "quad": "constructed boundary does not reproduce the quadrangle"}

    @pytest.mark.parametrize("kind", ["pentagon", "quad"])
    def test_each_failed_check_keeps_its_text(self, monkeypatch, kind):
        if kind == "pentagon":
            _, ch = random_pentagon_config(random.Random(66))
            run = partial(recognize_pentagon, ch.vertices)
        else:
            run = partial(default_construction, label_quad(TestQuadConstruction.QUAD))
        assert run() is not None
        # x1 off the shape's bisectors, and x1 so far out that the configuration is unbounded
        far = lambda verts: 10**7 * max(abs(v) for p in verts for v in p)  # noqa: E731
        for move in (shortest_edge, far):
            with monkeypatch.context() as patched:
                moving_x1(patched, move)
                with pytest.raises(RoundTripFailure) as exc:
                    run()
            assert str(exc.value) == self.TEXTS[kind]


def _snapped(points):
    """Points on multiples of 2**-20: a shift by up to 2**32 leaves their sums below 2**33,
    where the float spacing is at most 2**-20, so the shift is an exact translation."""
    return [_snap(Point(x, y)) for x, y in points]


def corpus_pentagons(count: int):
    return [_snapped(doc["polygon"])
            for _, (doc, _) in zip(range(count), corpus.stream("pentagon", 21))]


def two_reflex_pentagons(rng: random.Random, count: int):
    """Random pentagons with two non-adjacent reflex vertices: most are not (3,2)."""
    shapes = []
    while len(shapes) < count:
        pts = _snapped((rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(5))
        if label_pentagon(pts) is not None:
            shapes.append(pts)
    return shapes


def round_trip_outcome(kind: str, points) -> str:
    """"certificate", "none" or the name of the error the (3,2) round trip raises."""
    try:
        if kind == "pentagon":
            return "none" if recognize_pentagon(points) is None else "certificate"
        default_construction(label_quad(points))
    except GeometryError as exc:
        return type(exc).__name__
    return "certificate"


SHAPE_MAPS = {
    "shift 2**20": lambda v: Point(v.x + 2**20, v.y - 2**20),
    "shift 2**30": lambda v: Point(v.x + 2**30, v.y + 2**30),
    "shift 2**32": lambda v: Point(v.x - 2**32, v.y + 2**32),
    "quarter turn": lambda v: Point(-v.y, v.x),
    "scale 2**200": lambda v: Point(math.ldexp(v.x, 200), math.ldexp(v.y, 200)),
    "scale 2**-200": lambda v: Point(math.ldexp(v.x, -200), math.ldexp(v.y, -200)),
}


class TestRoundTripInvariance:
    """A (3,2) verdict is similarity-invariant: translation, quarter turns, power-of-two
    scaling and relabelling of the vertices leave the round trip's outcome as it is."""

    def assert_invariant(self, kind, shapes):
        changed = []
        for k, pts in enumerate(shapes):
            base = round_trip_outcome(kind, pts)
            moved = {name: [f(v) for v in pts] for name, f in SHAPE_MAPS.items()}
            moved.update({"reversed": pts[::-1], "cyclic shift": pts[2:] + pts[:2]})
            for name, other in moved.items():
                got = round_trip_outcome(kind, other)
                if got != base:
                    changed.append((k, name, base, got))
        assert changed == []

    def test_corpus_pentagons(self):
        shapes = corpus_pentagons(80)
        assert {round_trip_outcome("pentagon", pts) for pts in shapes} == {"certificate"}
        self.assert_invariant("pentagon", shapes)

    def test_two_reflex_pentagons(self):
        shapes = two_reflex_pentagons(random.Random(3), 150)
        outcomes = {round_trip_outcome("pentagon", pts) for pts in shapes}
        assert outcomes == {"certificate", "none", "RoundTripFailure"}
        self.assert_invariant("pentagon", shapes)

    def test_seeded_darts(self):
        rng = random.Random(21)
        shapes = [_snapped(random_concave_quad(rng).points) for _ in range(80)]
        self.assert_invariant("quad", shapes)

    @pytest.mark.parametrize("offset", [0, 2**20, 2**32])
    def test_chain_moved_by_a_tenth_of_an_edge_fails(self, monkeypatch, offset):
        # x1 moved by a tenth of the shortest edge moves its part of the chain off the shape;
        # the exact check sees it at any offset
        shifted = [[Point(v.x + offset, v.y + offset) for v in pts]
                   for pts in corpus_pentagons(10)]
        assert all(recognize_pentagon(pts) for pts in shifted)
        moving_x1(monkeypatch, shortest_edge)
        for pts in shifted:
            with pytest.raises(RoundTripFailure):
                recognize_pentagon(pts)


# ---------------------------------------------------------------------------
# exact signs of the (3,2) layer, against Fraction oracles


def cot_terms(v, a, b):
    """(a - v)·(b - v) and |(a - v) x (b - v)| as Fractions: cot of the angle a v b is their ratio."""
    ax, ay = Fraction(a.x) - Fraction(v.x), Fraction(a.y) - Fraction(v.y)
    bx, by = Fraction(b.x) - Fraction(v.x), Fraction(b.y) - Fraction(v.y)
    return ax * bx + ay * by, abs(ax * by - ay * bx)


def angle_sign(u, w) -> int:
    """Sign of angle u - angle w, each given by its ``cot_terms``; cot falls on (0, pi)."""
    (dot_u, cross_u), (dot_w, cross_w) = u, w
    diff = dot_w * cross_u - dot_u * cross_w
    return (diff > 0) - (diff < 0)


def alternates_exactly(cfg, labeling) -> bool:
    """The pentagon ordering and delta(y0) < delta(y1), decided on Fractions."""
    xo, yo = labeling
    x0, x1 = (cfg.inner[i] for i in xo)
    ys = [cfg.outer[j] for j in yo]
    signs = [angle_sign(cot_terms(x0, ys[j], ys[k]), cot_terms(x1, ys[j], ys[k]))
             for j, k in ((0, 1), (1, 2), (2, 0))]
    return signs == [1, -1, 1] and angle_sign(cot_terms(ys[0], x0, x1),
                                              cot_terms(ys[1], x0, x1)) == -1


# integer points of the circle x^2 + y^2 = 625
CIRCLE = [Point(float(x), float(y))
          for x in range(-25, 26) for y in range(-25, 26) if x * x + y * y == 625]


def near_tie_32(rng):
    """A bounded (3,2) configuration with two outer and both inner points on CIRCLE, and the
    same one with an inner coordinate moved by 1 to 1000 ulps, which is exactly generic."""
    while True:
        yj, yk, xa, xb = rng.sample(CIRCLE, 4)
        side = orient(yj, yk, xa)
        if orient(yj, yk, xb) != side:
            continue
        # the third outer point lies beyond the arc of xa and xb, on the chord's bisector
        t = side * rng.uniform(1.0, 30.0)
        yl = Point(float(round((yj.x + yk.x) / 2 - t * (yk.y - yj.y))),
                   float(round((yj.y + yk.y) / 2 + t * (yk.x - yj.x))))
        outer, inner = [yj, yk, yl], [xa, xb]
        rng.shuffle(outer)
        rng.shuffle(inner)
        on_circle = FocalConfig(tuple(inner), tuple(outer))
        if not is_bounded(on_circle):
            continue
        i, toward = rng.randrange(2), rng.choice((math.inf, -math.inf))
        coords = list(inner[i])
        c = rng.randrange(2)
        for _ in range(rng.randint(1, 1000)):
            coords[c] = math.nextafter(coords[c], toward)
        inner[i] = Point(*coords)
        moved = FocalConfig(tuple(inner), tuple(outer))
        if is_bounded(moved) and check_regularity(moved).ok:
            return on_circle, moved


class TestExactSigns:
    """Labeling, equal pairs, crossings and orientation are exact, where floats tie."""

    @staticmethod
    def exactly_equal_pairs(cfg):
        return tuple((j, k) for j, k in ((0, 1), (1, 2), (2, 0))
                     if frac_incircle_exact(cfg.outer[j], cfg.outer[k], *cfg.inner) == 0)

    def test_near_ties_are_labeled_and_alternate_exactly(self):
        rng = random.Random(70)
        for _ in range(300):
            on_circle, moved = near_tie_32(rng)
            pairs = classify_generic_32(on_circle).equal_omega_pairs
            assert pairs == self.exactly_equal_pairs(on_circle) != ()
            rep = classify_generic_32(moved)
            assert rep.category == "generic"
            assert rep.equal_omega_pairs == self.exactly_equal_pairs(moved) == ()
            assert alternates_exactly(moved, rep.labeling)
            assert rep.separated_outer == rep.labeling[1][2]

    def test_point_in_polygon_on_rounded_edge_points(self):
        def crossing_oracle(p, pts):
            inside = False
            for a, b in zip(pts, pts[1:] + pts[:1]):
                if (a.y > p.y) != (b.y > p.y):
                    ax, ay, bx, by = map(Fraction, (a.x, a.y, b.x, b.y))
                    if p.x < ax + (Fraction(p.y) - ay) * (bx - ax) / (by - ay):
                        inside = not inside
            return inside

        rng = random.Random(72)
        for _ in range(1000):
            pts = [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(5)]
            c = Point(sum(p.x for p in pts) / 5, sum(p.y for p in pts) / 5)
            pts.sort(key=lambda p: math.atan2(p.y - c.y, p.x - c.x))
            e = rng.randrange(5)
            a, b, t = pts[e - 1], pts[e], rng.random()
            p = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
            assert point_in_polygon(p, pts) == crossing_oracle(p, pts)

    def test_flat_shapes_far_out_are_labeled_by_exact_orientation(self):
        def exact_twice_area(pts):
            return sum(Fraction(a.x) * Fraction(b.y) - Fraction(b.x) * Fraction(a.y)
                       for a, b in zip(pts, pts[1:] + pts[:1]))

        rng = random.Random(73)
        labeled = float_sign_wrong = 0
        for n in range(900):
            k = 4 + n % 2
            raw = [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(k)]
            c = Point(sum(p.x for p in raw) / k, sum(p.y for p in raw) / k)
            raw.sort(key=lambda p: math.atan2(p.y - c.y, p.x - c.x), reverse=rng.random() < 0.5)
            off = (0.0, 1e6, 1e12)[n % 3]
            pts = [Point(p.x + off, 1e-9 * p.y + off) for p in raw]
            norm = type32._normalize_ccw(pts)
            if norm is None:
                continue
            ccw, turns = norm
            area = exact_twice_area(ccw)
            assert area > 0
            assert turns == [orient(ccw[i - 1], ccw[i], ccw[(i + 1) % k]) for i in range(k)]
            assert ccw in (pts, pts[::-1])
            labeled += 1
            float_sign_wrong += (signed_area(pts) > 0) != (exact_twice_area(pts) > 0)
        assert labeled > 150 and float_sign_wrong > 20


EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2**32 - 1)


def drawn_32(seed: int, near_tie: bool) -> FocalConfig:
    rng = random.Random(seed)
    return near_tie_32(rng)[1] if near_tie else random_generic_32(rng)


def mapped(cfg, f) -> FocalConfig:
    return FocalConfig(tuple(map(f, cfg.inner)), tuple(map(f, cfg.outer)))


class TestClassify32Invariance:
    """The labeling follows the points: relabeled, turned by 90 degrees or scaled by 2^k."""

    @EXAMPLES
    @given(seed=SEEDS, near_tie=st.booleans(), perm=st.permutations(range(3)))
    def test_relabeling(self, seed, near_tie, perm):
        cfg = drawn_32(seed, near_tie)
        (xo, yo) = classify_generic_32(cfg).labeling
        swapped = FocalConfig(cfg.inner[::-1], cfg.outer)
        assert classify_generic_32(swapped).labeling == (xo[::-1], yo)
        outer = [None] * 3
        for j, y in enumerate(cfg.outer):
            outer[perm[j]] = y  # outer point j becomes perm[j]
        rep = classify_generic_32(FocalConfig(cfg.inner, tuple(outer)))
        assert rep.labeling == (xo, tuple(perm[j] for j in yo))
        assert rep.separated_outer == perm[yo[2]]

    @EXAMPLES
    @given(seed=SEEDS, near_tie=st.booleans(), k=st.integers(-30, 30))
    def test_rotation_and_power_of_two_scaling(self, seed, near_tie, k):
        cfg = drawn_32(seed, near_tie)
        rep = classify_generic_32(cfg)
        turned = classify_generic_32(mapped(cfg, lambda v: Point(-v.y, v.x)))
        scaled = classify_generic_32(mapped(cfg, lambda v: Point(math.ldexp(v.x, k),
                                                                  math.ldexp(v.y, k))))
        for other in (turned, scaled):
            assert (other.labeling, other.separated_outer, other.equal_omega_pairs) == (
                rep.labeling, rep.separated_outer, rep.equal_omega_pairs)


# ---------------------------------------------------------------------------
# reports that commute with quarter turns and power-of-two scaling


def report(command: str, doc: dict) -> dict:
    """The CLI result of one command on an input document, in process."""
    return cli.COMMANDS[command][0](cli.RunConfig(command, ""), doc)


def snapped_doc(doc: dict) -> dict:
    return {key: [list(_snap(Point(*p))) for p in pts] for key, pts in doc.items()}


def mapped_doc(doc: dict, f) -> dict:
    return {key: [list(f(Point(*p))) for p in pts] for key, pts in doc.items()}


def cycle(points) -> tuple:
    """The cycle of points, started at its least point."""
    pts = [tuple(p) for p in points]
    k = pts.index(min(pts))
    return tuple(pts[k:] + pts[:k])


def chains_up_to_order(rep: dict, f=lambda p: p, area=1.0) -> list:
    """Each chain's vertex cycle (mapped by f) and area (times area), in a fixed order."""
    return sorted((cycle(map(f, ch["vertices"])), ch["area"] * area) for ch in rep["chains"])


def certificate(cert: dict, f=lambda p: p) -> tuple:
    return (tuple(map(f, cert["inner"])), tuple(map(f, cert["outer"])),
            cert["source_kind"], cycle(map(f, cert["source"])))


def similar_parts(command: str, rep: dict, f=lambda p: p, turn=False, scale=1.0) -> tuple:
    """The parts of a report that a similarity maps: its points by f, its directions by a
    quarter turn if turn, its lengths by scale and its areas by scale**2."""
    if command == "construct-quad":
        dx, dy = rep["ray_direction"]
        return (cycle(map(f, rep["labeled"])), (-dy, dx) if turn else (dx, dy),
                [(lo * scale, hi * scale) for lo, hi in rep["feasible_t"]],
                rep["t"] * scale, certificate(rep["certificate"], f))
    if command == "recognize-pentagon":
        return rep["is_type_32"], rep["is_type_32"] and certificate(rep["certificate"], f)
    if command == "classify32":
        return rep
    if command == "boundary":
        return chains_up_to_order(rep, f, scale * scale)
    if command == "graph":
        return tuple(map(f, rep["nodes"])), {k: v for k, v in rep.items() if k != "nodes"}
    if command == "hypergraph":
        if not rep["regular"]:
            return rep  # indices of the collinear triples and concircular quadruples
        return ([(e["refs"], e["color"], f(e["center"]), e["radius"] * scale, e["weight"])
                 for e in rep["edges"]],
                [(f(v["point"]), v["angle_type"]) for v in rep["vertices"]],
                [f(p) for p in rep["interior_witnesses"]],
                [f(p) for p in rep["exterior_witnesses"]], rep["inactive"])
    x0, y0, x1, y1 = (v * scale for v in rep["clip"])  # body
    return (rep["radius"] * scale, [-y1, x0, -y0, x1] if turn else [x0, y0, x1, y1],
            chains_up_to_order(rep, f, scale * scale))


def commuting_jobs():
    """(command, snapped input document) pairs on ring, grid, pentagon and dart inputs."""
    configs = [snapped_doc(doc) for kind, seed, count in (("ring-8-12", 1, 16), ("grid", 3, 8))
               for _, (doc, _) in zip(range(count), corpus.stream(kind, seed))]
    shapes, generators = [], []
    for _, (shape, config) in zip(range(8), corpus.stream("pentagon", 4)):
        shapes.append(snapped_doc(shape))
        generators.append(snapped_doc(config))
    rng = random.Random(5)
    darts = [snapped_doc(concave_quad(rng)) for _ in range(40)]
    return ([(command, doc) for doc in configs + generators
             for command in ("boundary", "body", "graph", "hypergraph")]
            + [("classify32", doc) for doc in generators]
            + [("recognize-pentagon", doc) for doc in shapes]
            + [("construct-quad", doc) for doc in darts])


class TestReportsCommuteWithSimilarities:
    """The report of a quarter-turned input, or of one scaled by 2**k, is the mapped report,
    float for float: each reported float is a rounding of an exact value that maps with the
    input.  Cycles compare up to their start and chains up to their order."""

    @pytest.mark.parametrize("k", [None, -1, 5], ids=["quarter turn", "scale 2**-1",
                                                       "scale 2**5"])
    def test_mapped_input_gives_the_mapped_report(self, k):
        if k is None:
            f, turn, scale = (lambda p: Point(-p[1], p[0])), True, 1.0
        else:
            f, turn, scale = (lambda p: Point(math.ldexp(p[0], k), math.ldexp(p[1], k))), \
                False, 2.0 ** k
        moved = []
        for n, (command, doc) in enumerate(commuting_jobs()):
            want = similar_parts(command, report(command, doc), f, turn, scale)
            got = similar_parts(command, report(command, mapped_doc(doc, f)))
            if got != want:
                moved.append((n, command))
        assert moved == []
