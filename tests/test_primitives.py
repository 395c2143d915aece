"""Predicates and constructions: exactness, involutions, composition."""

import math
import random
from fractions import Fraction

import pytest

from equidist.errors import (
    CollinearBase,
    CoincidentPoints,
    DegenerateRay,
    NotConcurrent,
    NumericalDegeneracy,
)
from equidist.primitives import (
    Line,
    Point,
    circumcircle,
    compose_three_reflections,
    dist,
    incircle,
    line_intersection,
    orient,
    reflect_point,
    signed_area,
    viewing_angle,
    viewing_angle_ccw,
)


class TestOrient:
    def test_ccw_unit_triangle(self):
        assert orient(Point(0, 0), Point(1, 0), Point(0, 1)) == 1

    def test_collinear(self):
        assert orient(Point(0, 0), Point(1, 0), Point(2, 0)) == 0

    def test_tiny_perturbation_is_exact(self):
        # 1e-17 below the axis: far below double rounding of the naive formula
        assert orient(Point(0, 0), Point(1, 0), Point(0.5, -1e-17)) == -1
        assert orient(Point(0, 0), Point(1, 0), Point(0.5, 1e-17)) == 1
        assert orient(Point(0, 0), Point(1, 0), Point(0.5, 0.0)) == 0

    def test_antisymmetry(self):
        rng = random.Random(1)
        for _ in range(200):
            p, q, r = (Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3))
            s = orient(p, q, r)
            assert orient(q, p, r) == -s
            assert orient(p, r, q) == -s
            assert orient(q, r, p) == s

    def test_exact_zero_on_rational_line(self):
        # collinear by construction, off-axis
        p, q = Point(0.1, 0.3), Point(0.7, 2.1)
        r = Point(0.4, 1.2)  # midpoint, exact in binary? not necessarily: verify via exact path
        assert orient(p, q, r) == orient(p, q, r)  # deterministic
        assert orient(Point(1, 1), Point(3, 3), Point(2, 2)) == 0


class TestIncircle:
    def test_inside(self):
        assert incircle(Point(0, 0), Point(2, 0), Point(0, 2), Point(1, 1)) == 1

    def test_on_circle_exact(self):
        assert incircle(Point(0, 0), Point(2, 0), Point(0, 2), Point(2, 2)) == 0

    def test_outside(self):
        assert incircle(Point(0, 0), Point(2, 0), Point(0, 2), Point(3, 3)) == -1

    def test_orientation_flip_preserves_meaning(self):
        # clockwise base triangle must give the same geometric answer
        assert incircle(Point(0, 2), Point(2, 0), Point(0, 0), Point(1, 1)) == 1
        assert incircle(Point(0, 2), Point(2, 0), Point(0, 0), Point(2, 2)) == 0
        assert incircle(Point(0, 2), Point(2, 0), Point(0, 0), Point(3, 3)) == -1

    def test_collinear_base_raises(self):
        with pytest.raises(CollinearBase):
            incircle(Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 1))

    def test_near_degenerate_perturbation(self):
        # (3,4),(5,0),(-5,0),(0,-5) are exactly concircular; a 1e-17 sideways
        # shift at the bottom of the circle lands outside, decided exactly
        a, b, c = Point(3, 4), Point(5, 0), Point(-5, 0)
        assert incircle(a, b, c, Point(0, -5)) == 0
        assert incircle(a, b, c, Point(1e-17, -5)) == -1
        assert incircle(a, b, c, Point(-1e-17, -5)) == -1
        # on a circle through the origin the same shift flips both ways
        base = (Point(2, 0), Point(0, 2), Point(2, 2))
        assert incircle(*base, Point(0, 0)) == 0
        assert incircle(*base, Point(1e-17, 0)) == 1
        assert incircle(*base, Point(-1e-17, 0)) == -1

    def test_random_agreement_with_distance(self):
        rng = random.Random(2)
        for _ in range(200):
            pts = [Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(4)]
            if orient(*pts[:3]) == 0:
                continue
            circ = circumcircle(*pts[:3])
            d = dist(circ.center, pts[3])
            if abs(d - circ.radius) < 1e-9:
                continue
            want = 1 if d < circ.radius else -1
            assert incircle(*pts) == want


class TestCircumcircle:
    def test_right_triangle(self):
        circ = circumcircle(Point(0, 0), Point(2, 0), Point(0, 2))
        assert circ.center == Point(1, 1)
        assert circ.radius == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_unit_circle(self):
        circ = circumcircle(Point(-1, 0), Point(1, 0), Point(0, 1))
        assert abs(circ.center.x) < 1e-15 and abs(circ.center.y) < 1e-15
        assert circ.radius == pytest.approx(1.0, abs=1e-15)

    def test_random_equidistance(self):
        rng = random.Random(3)
        for _ in range(200):
            pts = [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)]
            if orient(*pts) == 0:
                continue
            circ = circumcircle(*pts)
            scale = max(abs(v) for p in pts for v in (p.x, p.y))
            for p in pts:
                assert abs(dist(circ.center, p) - circ.radius) < 1e-12 * max(scale, 1.0)

    def test_collinear_raises(self):
        with pytest.raises(CollinearBase):
            circumcircle(Point(0, 0), Point(1, 0), Point(2, 0))

    def test_centre_is_rounded_once(self):
        rng = random.Random(4)
        for _ in range(200):
            pts = [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)]
            (px, py), (qx, qy), (rx, ry) = [(Fraction(p.x), Fraction(p.y)) for p in pts]
            bx, by, cx, cy = qx - px, qy - py, rx - px, ry - py
            d = 2 * (bx * cy - by * cx)
            b2, c2 = bx * bx + by * by, cx * cx + cy * cy
            centre = circumcircle(*pts).center
            assert centre == Point(float(px + (cy * b2 - by * c2) / d),
                                   float(py + (bx * c2 - cx * b2) / d))

    def test_nearly_collinear_triple(self):
        # exactly non-collinear, but the float determinant rounds to zero
        pts = (Point(-57395627.5, 43046721.25), Point(0.5, 0.25),
               Point(57395628.49999999, -43046720.75))
        assert orient(*pts) != 0
        circ = circumcircle(*pts)
        assert math.isfinite(circ.center.x) and math.isfinite(circ.radius)
        for p in pts:
            assert dist(circ.center, p) == pytest.approx(circ.radius, rel=1e-12)

    def test_centre_beyond_float_range_raises(self):
        with pytest.raises(NumericalDegeneracy):
            circumcircle(Point(100000.0, 1e-300), Point(0.0, 0.0), Point(200000.0, 0.0))


class TestReflect:
    def test_example(self):
        l = Line.normalized(1, 0, -1)  # x = 1
        assert reflect_point(l, Point(0, 0)) == Point(2, 0)

    def test_fixed_points(self):
        l = Line.through(Point(0, 0), Point(1, 1))
        p = Point(2, 2)
        r = reflect_point(l, p)
        assert dist(r, p) < 1e-15

    def test_involution_and_isometry(self):
        rng = random.Random(5)
        for _ in range(300):
            l = Line.through(Point(rng.uniform(-10, 10), rng.uniform(-10, 10)),
                             Point(rng.uniform(-10, 10), rng.uniform(-10, 10)))
            p = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
            q = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
            assert dist(reflect_point(l, reflect_point(l, p)), p) < 1e-13 * 10
            assert abs(dist(reflect_point(l, p), reflect_point(l, q)) - dist(p, q)) < 1e-12 * 10


class TestComposeThreeReflections:
    def test_axes_and_diagonal(self):
        l1 = Line.normalized(0, 1, 0)   # y = 0
        l2 = Line.through(Point(0, 0), Point(1, 1))  # y = x
        l3 = Line.normalized(1, 0, 0)   # x = 0
        m = compose_three_reflections(l1, l2, l3)
        # the composition maps (1,0) to (0,1), as reflection in y=x does
        img = reflect_point(l1, reflect_point(l2, reflect_point(l3, Point(1, 0))))
        assert dist(img, Point(0, 1)) < 1e-15
        assert dist(reflect_point(m, Point(1, 0)), Point(0, 1)) < 1e-15
        assert m.angle() == pytest.approx(math.pi / 4)

    def test_triple_same_line(self):
        l = Line.through(Point(1, 2), Point(3, -1))
        m = compose_three_reflections(l, l, l)
        rng = random.Random(6)
        for _ in range(20):
            p = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
            assert dist(reflect_point(m, p), reflect_point(l, p)) < 1e-12

    def test_random_concurrent_pencils(self):
        rng = random.Random(7)
        for _ in range(100):
            center = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
            lines = [Line.from_point_angle(center, rng.uniform(0, math.pi))
                     for _ in range(3)]
            m = compose_three_reflections(*lines)
            worst = 0.0
            for _ in range(100):
                p = Point(rng.uniform(-20, 20), rng.uniform(-20, 20))
                seq = reflect_point(lines[0], reflect_point(lines[1], reflect_point(lines[2], p)))
                worst = max(worst, dist(seq, reflect_point(m, p)))
            assert worst < 1e-10 * 20

    def test_not_concurrent_raises(self):
        l1 = Line.normalized(1, 0, 0)
        l2 = Line.normalized(0, 1, 0)
        l3 = Line.normalized(1, 0, -5)  # x = 5: no common point
        with pytest.raises(NotConcurrent):
            compose_three_reflections(l1, l2, l3)
        # parallel distinct lines
        with pytest.raises(NotConcurrent):
            compose_three_reflections(l1, l3, l1)

    def test_concurrent_triples_compose_at_every_scale(self):
        # a triple through one point composes whatever power of two it is drawn at; one whose
        # third line misses that point by a tenth of the triple's size does not, at unit size
        # and above
        rng = random.Random(12)
        for k in (-500, -40, 0, 40):
            for _ in range(200):
                center = Point(math.ldexp(rng.uniform(-1, 1), k),
                               math.ldexp(rng.uniform(-1, 1), k))
                angles = [rng.uniform(0, math.pi) for _ in range(3)]
                lines = [Line.from_point_angle(center, a) for a in angles]
                m = compose_three_reflections(*lines)
                assert abs(m.eval(center)) <= math.ldexp(1e-12, k)
                # offset the third line along x, where it misses center by a tenth of 2**k
                # times |sin| of its angle; keep triples whose lines meet at wide angles
                if k < 0 or min(abs(math.sin(a - b)) for a, b in
                                ((angles[0], angles[1]), (angles[1], angles[2]),
                                 (angles[2], angles[0]), (angles[2], 0.0))) < 0.1:
                    continue
                off = Point(center.x + math.ldexp(0.1, k), center.y)
                with pytest.raises(NotConcurrent):
                    compose_three_reflections(*lines[:2], Line.from_point_angle(off, angles[2]))

    def test_lines_through_far_points_compose_near_the_origin(self):
        # each line's offset carries the rounding of the points it was built from, 1 to 10
        # away, which the common point near the origin does not show
        rng = random.Random(5)
        for _ in range(2000):
            center = Point(rng.uniform(-1e-6, 1e-6), rng.uniform(-1e-6, 1e-6))
            lines = []
            for _ in range(3):
                theta, r, s = rng.uniform(0, math.pi), rng.uniform(1, 10), rng.uniform(1, 10)
                u = Point(math.cos(theta), math.sin(theta))
                lines.append(Line.through(Point(center.x + r * u.x, center.y + r * u.y),
                                          Point(center.x - s * u.x, center.y - s * u.y)))
            m = compose_three_reflections(*lines)
            assert abs(m.eval(center)) <= 1e-12


class TestViewingAngle:
    def test_right_angle(self):
        assert viewing_angle(Point(0, 0), Point(1, 0), Point(0, 1)) == pytest.approx(math.pi / 2)

    def test_equal_rays(self):
        assert viewing_angle(Point(0, 0), Point(2, 3), Point(2, 3)) == 0.0

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateRay):
            viewing_angle(Point(1, 1), Point(1, 1), Point(2, 2))

    def test_full_turn_partition(self):
        # the three viewing angles of a triangle's sides from an interior
        # point sum to a full turn
        rng = random.Random(8)
        for _ in range(100):
            tri = [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)]
            if orient(*tri) == 0:
                continue
            u, v = rng.uniform(0.1, 0.4), rng.uniform(0.1, 0.4)
            inner = Point(tri[0].x + u * (tri[1].x - tri[0].x) + v * (tri[2].x - tri[0].x),
                          tri[0].y + u * (tri[1].y - tri[0].y) + v * (tri[2].y - tri[0].y))
            total = (viewing_angle(inner, tri[0], tri[1])
                     + viewing_angle(inner, tri[1], tri[2])
                     + viewing_angle(inner, tri[2], tri[0]))
            assert abs(total - 2 * math.pi) < 1e-12

    def test_ccw_variant_zero_ray_raises(self):
        with pytest.raises(DegenerateRay):
            viewing_angle_ccw(Point(1, 1), Point(2, 2), Point(1, 1))

    def test_ccw_variant_range_and_closure(self):
        v = Point(0.5, 0.25)
        a, b = Point(2, 0), Point(0, 2)
        ccw = viewing_angle_ccw(v, a, b)
        cw = viewing_angle_ccw(v, b, a)
        assert 0 <= ccw < 2 * math.pi and 0 <= cw < 2 * math.pi
        assert ccw + cw == pytest.approx(2 * math.pi)


class TestLine:
    def test_normalization_sign_convention(self):
        l = Line.normalized(-2, 0, 4)
        assert l.a > 0
        l2 = Line.normalized(0, -3, 6)
        assert l2.a == 0 and l2.b > 0

    def test_intersection(self):
        l1 = Line.normalized(1, 0, -1)
        l2 = Line.normalized(0, 1, -2)
        assert line_intersection(l1, l2) == Point(1, 2)
        assert line_intersection(l1, l1) is None

    def test_zero_normal_raises(self):
        with pytest.raises(ValueError):
            Line.normalized(0.0, 0.0, 1.0)

    def test_through_coincident_points_raises(self):
        with pytest.raises(CoincidentPoints):
            Line.through(Point(1, 2), Point(1, 2))


class TestSignedArea:
    @staticmethod
    def exact(points):
        n = len(points)
        return sum(Fraction(points[i - 1].x) * Fraction(points[i].y)
                   - Fraction(points[i].x) * Fraction(points[i - 1].y) for i in range(n)) / 2

    def test_overflowing_float_sum_rounds_the_exact_area(self):
        # each shoelace term is near the float maximum, the area is not
        quad = [Point(0.1, 0.0), Point(1.3e154, 0.3), Point(1.3e154, 1.3e154), Point(0.5, 1.3e154)]
        for pts in (quad, quad[::-1]):
            area = signed_area(pts)
            assert math.isfinite(area) and area == float(self.exact(pts))

    def test_area_beyond_the_float_range_is_infinite(self):
        tri = [Point(0.0, 0.0), Point(1e300, 0.0), Point(0.0, 1e300)]
        assert signed_area(tri) == math.inf
        assert signed_area(tri[::-1]) == -math.inf
