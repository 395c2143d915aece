"""Convex components, membership oracle, bounds, and body assembly."""

import gc
import math
import random
import sys
import threading
import weakref
from fractions import Fraction

import pytest

from conftest import coord_scale, random_bounded_config
from equidist import polygon as polygon_module
from equidist.body import (
    MEMBER_BOUNDARY,
    MEMBER_INSIDE,
    MEMBER_OUTSIDE,
    FocalConfig,
    Rect,
    bounding_radius,
    build_body,
    convex_component,
    distance_to_set,
    is_bounded,
    membership,
    once_per_input,
    star_center,
)
from equidist.errors import (
    EmptySet,
    InvalidConfig,
    PreconditionViolated,
    SiteInOuterSet,
    Unbounded,
)
from equidist.polygon import check_regularity, extract_boundary
from equidist.primitives import Point, circumcircle, dist, orient
from test_exact_graph import MIXED, grid_config, ring_config

BOX10 = Rect(-10, -10, 10, 10)


class TestFocalConfig:
    def test_duplicates_rejected(self):
        with pytest.raises(InvalidConfig):
            FocalConfig.of([(0, 0), (0, 0)], [(1, 1)])
        with pytest.raises(InvalidConfig):
            FocalConfig.of([(0, 0)], [(0, 0)])
        with pytest.raises(InvalidConfig):
            FocalConfig.of([(0, 0)], [(1, 1), (1, 1)])

    def test_empty_rejected(self):
        with pytest.raises(InvalidConfig):
            FocalConfig(inner=(), outer=(Point(1, 1),))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidConfig):
            FocalConfig.of([(0, math.nan)], [(1, 1)])


class TestDistanceToSet:
    def test_singleton(self):
        assert distance_to_set(Point(0, 0), [Point(3, 4)]) == 5.0

    def test_member(self):
        assert distance_to_set(Point(1, 2), [Point(0, 0), Point(1, 2)]) == 0.0

    def test_nearer_of_two(self):
        assert distance_to_set(Point(1, 0), [Point(0, 0), Point(4, 0)]) == 1.0

    def test_empty_raises(self):
        with pytest.raises(EmptySet):
            distance_to_set(Point(0, 0), [])

    def test_overflowing_distance_is_inf(self):
        # a non-empty set is not empty because its distances leave the float range
        assert distance_to_set(Point(-1e308, 0), [Point(1e308, 0)]) == math.inf
        assert distance_to_set(Point(-1e308, 0), iter([Point(1e308, 0)])) == math.inf


class TestMembership:
    CFG = FocalConfig.of([(0, 0)], [(2, 0), (-2, 0), (0, 2)])

    def test_inside(self):
        assert membership(Point(0.5, 0), self.CFG) == MEMBER_INSIDE

    def test_boundary(self):
        assert membership(Point(1, 0), self.CFG) == MEMBER_BOUNDARY

    def test_outside(self):
        assert membership(Point(1.5, 0), self.CFG) == MEMBER_OUTSIDE

    def test_inner_points_strictly_inside(self):
        rng = random.Random(10)
        for _ in range(20):
            cfg = random_bounded_config(rng)
            for x in cfg.inner:
                assert membership(x, cfg) == MEMBER_INSIDE


class TestConvexComponent:
    def test_single_bisector_half_plane(self):
        comp = convex_component(Point(0, 0), [Point(2, 0)], BOX10)
        assert comp.clipped
        assert max(v.x for v in comp.vertices) == pytest.approx(1.0)
        assert comp.contains(Point(-5, 5)) and not comp.contains(Point(2, 0))

    def test_square_from_four_bisectors(self):
        comp = convex_component(Point(0, 0), [Point(2, 0), Point(-2, 0), Point(0, 2), Point(0, -2)], BOX10)
        assert not comp.clipped
        got = sorted((round(v.x, 12), round(v.y, 12)) for v in comp.vertices)
        assert got == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_triangle_vertices_equidistant(self):
        site = Point(0, 0)
        outer = [Point(2, -1), Point(-2, -1), Point(0, 2)]
        comp = convex_component(site, outer, BOX10)
        assert not comp.clipped
        n = len(comp.vertices)
        for i in range(n):
            v = comp.vertices[i]
            tag_out = comp.edge_tags[i]
            tag_in = comp.edge_tags[(i - 1) % n]
            d_site = dist(v, site)
            for tag in (tag_out, tag_in):
                assert abs(d_site - dist(v, outer[tag])) < 1e-12 * 10

    def test_counterclockwise(self):
        comp = convex_component(Point(0.3, -0.2), [Point(2, -1), Point(-2, -1), Point(0, 2)], BOX10)
        area = 0.0
        n = len(comp.vertices)
        for i in range(n):
            a, b = comp.vertices[i], comp.vertices[(i + 1) % n]
            area += a.x * b.y - b.x * a.y
        assert area > 0

    def test_site_in_outer_raises(self):
        with pytest.raises(SiteInOuterSet):
            convex_component(Point(1, 1), [Point(1, 1)], BOX10)

    def test_empty_outer_raises(self):
        with pytest.raises(EmptySet):
            convex_component(Point(0, 0), [], BOX10)

    def test_site_outside_clip_raises(self):
        with pytest.raises(PreconditionViolated):
            convex_component(Point(20, 0), [Point(1, 1)], BOX10)

    def test_monotone_under_outer_growth(self):
        # adding outer points can only shrink the component
        rng = random.Random(11)
        for _ in range(30):
            cfg = random_bounded_config(rng, p_max=1, q_max=5)
            extra = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if any(extra == p for p in cfg.points):
                continue
            small = convex_component(cfg.inner[0], cfg.outer + (extra,), BOX10)
            for v in small.vertices:
                # every vertex of the shrunk region is in the bigger one
                big = convex_component(cfg.inner[0], cfg.outer, BOX10)
                assert big.min_signed(v) >= -1e-9 * 10


class TestIsBounded:
    def test_inside_triangle(self):
        assert is_bounded(FocalConfig.of([(0, 0)], [(2, -1), (-2, -1), (0, 2)]))

    def test_outside_hull(self):
        assert not is_bounded(FocalConfig.of([(0, 3)], [(2, -1), (-2, -1), (0, 2)]))

    def test_on_hull_boundary_not_interior(self):
        # exactly on an edge: midpoint of (2,-1) and (-2,-1), decided exactly
        assert not is_bounded(FocalConfig.of([(0, -1)], [(2, -1), (-2, -1), (0, 2)]))

    def test_inner_equal_to_hull_vertex_is_invalid(self):
        # an inner point coinciding with an outer point violates disjointness
        with pytest.raises(InvalidConfig):
            FocalConfig.of([(0, 2)], [(2, -1), (-2, -1), (0, 2)])

    def test_collinear_outer_unbounded(self):
        assert not is_bounded(FocalConfig.of([(0, 0)], [(1, 1), (2, 2), (3, 3)]))

    def test_two_outer_points_unbounded(self):
        assert not is_bounded(FocalConfig.of([(0, 0)], [(1, 1), (-1, -1)]))


class TestBoundingRadius:
    def test_reference_value(self):
        cfg = FocalConfig.of([(0, 0)], [(2, -1), (-2, -1), (0, 2)])
        # c = max(|Y|^2 - |X|^2)/2 = 2.5, r = distance from origin to edge y=-1
        assert bounding_radius(cfg) == pytest.approx(2.5, abs=1e-12)

    def test_scaling_homogeneity(self):
        cfg = FocalConfig.of([(0, 0)], [(2, -1), (-2, -1), (0, 2)])
        for s in (0.5, 3.0, 17.0):
            scaled = FocalConfig.of([(0, 0)], [(2 * s, -s), (-2 * s, -s), (0, 2 * s)])
            assert bounding_radius(scaled) == pytest.approx(s * bounding_radius(cfg), rel=1e-12)

    def test_dominates_sampled_body(self):
        rng = random.Random(12)
        for _ in range(10):
            cfg = random_bounded_config(rng)
            radius = bounding_radius(cfg)
            ox = sum(p.x for p in cfg.inner) / cfg.p
            oy = sum(p.y for p in cfg.inner) / cfg.p
            for _ in range(500):
                q = Point(rng.uniform(-14, 14), rng.uniform(-14, 14))
                if membership(q, cfg) == MEMBER_INSIDE:
                    assert math.hypot(q.x - ox, q.y - oy) <= radius + 1e-9

    def test_unbounded_raises(self):
        with pytest.raises(Unbounded):
            bounding_radius(FocalConfig.of([(0, 3)], [(2, -1), (-2, -1), (0, 2)]))

    def test_near_degenerate_square_has_no_floor(self):
        # each inner point 2**-53 inside its outer corner: c = 2**-52 and r = 2**-53 after
        # rounding, so the radius is 2.0, the distance of the body's farthest vertices
        e = 1 - 1.2e-16
        assert e == 1 - 2.0 ** -53
        cfg = FocalConfig.of([(e, e), (-e, e), (-e, -e), (e, -e)],
                             [(1, 1), (-1, 1), (-1, -1), (1, -1)])
        assert bounding_radius(cfg) == 2.0
        (chain,) = extract_boundary(cfg)
        assert chain.vertices == (Point(-2.0, 0.0), Point(0.0, -2.0), Point(2.0, 0.0),
                                  Point(0.0, 2.0))
        assert [v.change_type for v in chain.vertex_info] == ["double"] * 4
        assert chain.edge_pairs == ((2, 2), (3, 3), (0, 0), (1, 1))


def near_side_config(rng: random.Random, offset: float) -> FocalConfig:
    """One inner point 1e-12 to 1e-6 inside a side of a jittered q-gon far from the origin.

    The inner point is rounded to floats near ``offset``, so it may land on
    or outside the side; callers keep the exactly bounded configs.  Its
    clearance from the hull is then far below the cancellation error of a
    float line equation at that offset.
    """
    q = rng.randint(3, 8)
    outer = []
    for k in range(q):
        angle = 2.0 * math.pi * (k + rng.uniform(-0.25, 0.25)) / q
        radius = 10.0 + rng.uniform(-0.5, 0.5)
        outer.append(Point(offset + radius * math.cos(angle), offset + radius * math.sin(angle)))
    i = rng.randrange(q)
    a, b = outer[i], outer[(i + 1) % q]
    t, depth = rng.uniform(0.2, 0.8), 10.0 ** rng.uniform(-12, -6)
    dx, dy = b.x - a.x, b.y - a.y
    n = math.hypot(dx, dy)
    x = Point(a.x + t * dx - depth * dy / n, a.y + t * dy + depth * dx / n)  # left of a -> b
    return FocalConfig((x,), tuple(outer))


def near_side_corpus():
    for offset in (1e6, 1e8, 1e10):
        rng = random.Random(int(math.log10(offset)))
        yield from filter(is_bounded, (near_side_config(rng, offset) for _ in range(40)))


def assert_equidistant(point: Point, cfg: FocalConfig):
    dk, dl = distance_to_set(point, cfg.inner), distance_to_set(point, cfg.outer)
    assert abs(dk - dl) <= 1e-9 * max(coord_scale(cfg), dk)


class TestRadiusBoundsTheBody:
    """The radius holds every component, so no component reaches the clip box at twice it."""

    @staticmethod
    def assert_bounded_by_radius(cfg: FocalConfig) -> list:
        body = build_body(cfg)
        ox = Fraction(sum(p.x for p in cfg.inner)) / cfg.p
        oy = Fraction(sum(p.y for p in cfg.inner)) / cfg.p
        for comp in body.components:
            assert not comp.clipped
            for v in comp.vertices:
                assert (Fraction(v.x) - ox) ** 2 + (Fraction(v.y) - oy) ** 2 <= Fraction(
                    body.radius) ** 2
        chains = extract_boundary(cfg)
        for chain in chains:
            pts = chain.vertices
            for u, v in zip(pts, pts[1:] + pts[:1]):
                assert_equidistant(u, cfg)
                assert_equidistant(Point((u.x + v.x) / 2, (u.y + v.y) / 2), cfg)
        return chains

    def test_ring_grid_and_mixed_bodies(self):
        rng = random.Random(14)
        cfgs = [ring_config(rng, p, q) for p, q in ((2, 6), (5, 12), (8, 12))]
        cfgs += [grid_config(rng, rng.randint(2, 8)) for _ in range(20)] + [MIXED]
        for cfg in cfgs:
            self.assert_bounded_by_radius(cfg)

    def test_inner_point_just_inside_a_hull_side_far_from_the_origin(self):
        # a float clearance there cancels to 0 or exceeds the true one; the exact one does not
        cfgs = list(near_side_corpus())
        assert len(cfgs) > 40
        for cfg in cfgs:
            # one inner site: the body is its convex cell, one chain
            (chain,) = self.assert_bounded_by_radius(cfg)
            assert len(chain.vertices) >= 3


class TestStarCenter:
    def test_single_inner(self):
        cfg = FocalConfig.of([(0, 0)], [(2, -1), (-2, -1), (0, 2)])
        center = star_center(cfg)
        circ = circumcircle(*cfg.outer)
        assert center == circ.center
        assert max(dist(center, x) for x in cfg.inner) < min(dist(center, y) for y in cfg.outer)

    def test_two_inner_near_circumcenter(self):
        circ = circumcircle(Point(2, -1), Point(-2, -1), Point(0, 2))
        c = circ.center
        cfg = FocalConfig(inner=(Point(c.x + 0.01, c.y), Point(c.x - 0.01, c.y)),
                          outer=(Point(2, -1), Point(-2, -1), Point(0, 2)))
        center = star_center(cfg)
        assert center is not None
        assert max(dist(center, x) for x in cfg.inner) < min(dist(center, y) for y in cfg.outer)
        # the star center sees every component: it is strictly inside each
        body = build_body(cfg)
        for comp in body.components:
            assert comp.min_signed(center) > 0

    def test_separation_impossible(self):
        # an inner point farther from the circumcenter than the circumradius
        # (necessarily outside the outer hull, so the body is unbounded)
        cfg = FocalConfig.of([(0, 4)], [(2, -1), (-2, -1), (0, 3)])
        assert star_center(cfg) is None

    def test_collinear_outer_has_no_center(self):
        assert star_center(FocalConfig.of([(0, 1)], [(0, 0), (1, 0), (2, 0)])) is None

    def test_wrong_q_raises(self):
        with pytest.raises(PreconditionViolated):
            star_center(FocalConfig.of([(0, 0)], [(2, 0), (-2, 0), (0, 2), (0, -2)]))

    @staticmethod
    def inside_circumcircle(outer, x) -> bool:
        """x strictly inside the circle through the three outer points, by its rational centre."""
        (ax, ay), (bx, by), (cx, cy) = [(Fraction(p.x), Fraction(p.y)) for p in outer]
        a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
        d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
        uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
        dx, dy = Fraction(x.x) - ux, Fraction(x.y) - uy
        return dx * dx + dy * dy < (ax - ux) ** 2 + (ay - uy) ** 2

    def test_points_within_ulps_of_the_circumcircle_match_a_fraction_oracle(self):
        rng = random.Random(72)
        inside = 0
        for _ in range(150):
            outer = tuple(Point(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(3))
            if orient(*outer) == 0:
                continue
            circ = circumcircle(*outer)
            for _ in range(4):
                th = rng.uniform(0.0, 2.0 * math.pi)
                x, y = (circ.center.x + circ.radius * math.cos(th),
                        circ.center.y + circ.radius * math.sin(th))
                for _ in range(rng.randint(0, 3)):  # a few ulps either way
                    x = math.nextafter(x, rng.choice((-math.inf, math.inf)))
                    y = math.nextafter(y, rng.choice((-math.inf, math.inf)))
                cfg = FocalConfig(inner=(Point(x, y),), outer=outer)
                want = self.inside_circumcircle(outer, Point(x, y))
                assert star_center(cfg) == (circ.center if want else None)
                inside += want
        assert 100 < inside < 450

    @pytest.mark.parametrize("outer, x, inside", [
        ([(2, -1), (-2, -1), (0, 2)], (1.7600476633114683, -1.4302633852902487), True),
        ([(7, 6), (2, -9), (-9, -1)], (3.4050914162637826, -8.583900093395085), False),
    ])
    def test_rounded_distance_misjudges_the_circle(self, outer, x, inside):
        cfg = FocalConfig.of([x], outer)
        assert self.inside_circumcircle(cfg.outer, cfg.inner[0]) == inside
        circ = circumcircle(*cfg.outer)
        assert (dist(circ.center, cfg.inner[0]) < circ.radius) != inside  # the former test
        assert star_center(cfg) == (circ.center if inside else None)


class TestBuildBody:
    def test_square(self):
        cfg = FocalConfig.of([(0, 0)], [(2, 0), (-2, 0), (0, 2), (0, -2)])
        body = build_body(cfg)
        assert len(body.components) == 1
        assert not body.components[0].clipped
        got = sorted((round(v.x, 12), round(v.y, 12)) for v in body.components[0].vertices)
        assert got == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_union_matches_oracle(self):
        cfg = FocalConfig.of([(-1, 0), (1, 0)], [(10, 0), (-10, 0), (0, 10), (0, -10)])
        body = build_body(cfg)
        rng = random.Random(13)
        scale = coord_scale(cfg)
        for _ in range(1000):
            q = Point(rng.uniform(body.clip.xmin, body.clip.xmax),
                      rng.uniform(body.clip.ymin, body.clip.ymax))
            m = membership(q, cfg)
            if m == MEMBER_BOUNDARY:
                continue
            assert body.contains_strict(q) == (m == MEMBER_INSIDE)

    def test_union_oracle_many_configs(self):
        rng = random.Random(14)
        for _ in range(50):
            cfg = random_bounded_config(rng)
            body = build_body(cfg)
            for comp in body.components:
                assert not comp.clipped
            for _ in range(100):
                q = Point(rng.uniform(body.clip.xmin, body.clip.xmax),
                          rng.uniform(body.clip.ymin, body.clip.ymax))
                m = membership(q, cfg)
                if m == MEMBER_BOUNDARY:
                    continue
                assert body.contains_strict(q) == (m == MEMBER_INSIDE)

    def test_split_outer_intersection_identity(self):
        # membership w.r.t. L equals membership w.r.t. L1 and L2 simultaneously,
        # with all three bodies realized as clipped component unions
        rng = random.Random(15)
        for _ in range(20):
            cfg = random_bounded_config(rng)
            k = cfg.q // 2
            l1, l2 = cfg.outer[:k], cfg.outer[k:]
            body = build_body(cfg)
            comps1 = [convex_component(x, l1, body.clip) for x in cfg.inner]
            comps2 = [convex_component(x, l2, body.clip) for x in cfg.inner]
            scale = coord_scale(cfg)
            checked = 0
            for _ in range(200):
                q = Point(rng.uniform(body.clip.xmin, body.clip.xmax),
                          rng.uniform(body.clip.ymin, body.clip.ymax))
                dk = distance_to_set(q, cfg.inner)
                near_any = any(abs(dk - distance_to_set(q, ls)) <= 1e-9 * scale
                               for ls in (cfg.outer, l1, l2))
                if near_any:
                    continue
                checked += 1
                in_full = body.contains_strict(q)
                in_1 = any(c.min_signed(q) > 0 for c in comps1)
                in_2 = any(c.min_signed(q) > 0 for c in comps2)
                assert in_full == (in_1 and in_2)
            assert checked > 100

    def test_unbounded_raises(self):
        with pytest.raises(Unbounded):
            build_body(FocalConfig.of([(0, 3)], [(2, -1), (-2, -1), (0, 2)]))


# --- one computation per input ------------------------------------------------

SQUARE = [(2, 0), (-2, 0), (0, 2), (0, -2)]


def failing_regularity(monkeypatch, bad):
    """Make check_regularity raise for the config object bad, as build_body does when unbounded."""
    points = polygon_module.labeled_points

    def labeled_points(cfg):
        if cfg is bad:
            raise Unbounded("raised for this config")
        return points(cfg)

    monkeypatch.setattr(polygon_module, "labeled_points", labeled_points)


@pytest.mark.parametrize("stage", [build_body, check_regularity],
                         ids=["build_body", "check_regularity"])
class TestOncePerInput:
    """build_body and check_regularity keep their value for the last config object only."""

    def test_same_object_returns_the_kept_value(self, stage):
        cfg = ring_config(random.Random(51), 4)
        kept = stage(cfg)
        assert stage(cfg) is kept
        assert stage(FocalConfig(cfg.inner, cfg.outer)) is not kept  # equal, another object

    def test_negative_zero_gets_its_own_value(self, stage):
        plus = FocalConfig.of([(0.0, 0.5)], SQUARE)
        minus = FocalConfig.of([(-0.0, 0.5)], SQUARE)
        assert plus == minus  # a memo keyed by value would hand plus's value to minus
        kept = stage(plus)
        got = stage(minus)
        assert got is not kept
        if stage is build_body:
            assert math.copysign(1.0, got.components[0].site.x) == -1.0

    def test_a_call_that_raises_raises_again_and_keeps_the_slot(self, stage, monkeypatch):
        good = ring_config(random.Random(52), 4)
        bad = FocalConfig.of([(0, 3)], [(2, -1), (-2, -1), (0, 2)])  # build_body: unbounded
        if stage is check_regularity:
            failing_regularity(monkeypatch, bad)
        kept = stage(good)
        for _ in range(2):
            with pytest.raises(Unbounded):
                stage(bad)
        assert stage(good) is kept

    def test_a_dropped_config_is_freed_without_the_cyclic_collector(self, stage):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            cfg = ring_config(random.Random(53), 4)
            dead = weakref.ref(cfg)
            value = stage(cfg)
            stage(ring_config(random.Random(54), 4))
            del cfg, value
            assert dead() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_undecorated_function_is_wrapped(self, stage):
        cfg = ring_config(random.Random(55), 4)
        assert stage.__wrapped__(cfg) is not stage.__wrapped__(cfg)
        assert stage.__name__ == stage.__wrapped__.__name__


def test_threads_get_the_value_of_their_own_config():
    """Threads share the one slot; each must still get its own input's value, never another's."""
    stage = once_per_input(lambda cfg: [cfg])  # cheap, so the threads mostly race on the slot
    work = [(object(), object()) for _ in range(4)]
    wrong = []

    def run(pair):
        for i in range(20000):
            cfg = pair[i // 2 % 2]  # each input twice in a row: a miss, then a hit
            if stage(cfg)[0] is not cfg:
                wrong.append(cfg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(pair,)) for pair in work]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
