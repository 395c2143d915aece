"""The integer exact predicates against the Fraction code they replaced.

The oracles below are the ``Fraction`` versions of ``primitives._orient_exact``,
``primitives._incircle_exact``, the former in-circle filter ``_incircle_raw``
(its float filter with the Fraction fallback) and
``polygon._is_clockwise``, plus the Fraction key that ordered chains by their
lowest vertex.  They are slow but plainly exact.  The inputs mix binary
exponents from -1074 to 1023, are exactly collinear or concircular (and one
ulp off), or are random homogeneous polygons with exact ties.  ``_chains``
decides a hole and its lowest vertices from the correctly rounded points,
which later tests check against the same oracles on exact points built
to round against the float decision.  The last tests check the one float sign
filter, ``primitives._sum_sign``, against the exact sums of exact products, and
count the signs it leaves to the exact fallbacks on the ring, grid and
dense-grid corpora against the constants of the three filters it replaced.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from equidist import polygon, primitives
from equidist.body import FocalConfig
from equidist.polygon import (
    _is_clockwise,
    _is_hole,
    _lowest_key,
    _rounds_relatively,
    _shoelace_sign,
    _turn_signs,
    _xy_key,
    check_regularity,
    extract_boundary,
)
from equidist.primitives import (
    Point,
    _incircle_exact,
    _orient_exact,
    _sum_sign,
    incircle,
    orient,
)

_INCIRCLE_ERRBOUND = (10.0 + 96.0 * 2.0 ** -53) * 2.0 ** -53


# --- oracles -------------------------------------------------------------------

def frac_orient_exact(p, q, r):
    px, py = Fraction(p.x), Fraction(p.y)
    det = (Fraction(q.x) - px) * (Fraction(r.y) - py) \
        - (Fraction(q.y) - py) * (Fraction(r.x) - px)
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def frac_incircle_exact(a, b, c, d):
    dx, dy = Fraction(d.x), Fraction(d.y)
    adx, ady = Fraction(a.x) - dx, Fraction(a.y) - dy
    bdx, bdy = Fraction(b.x) - dx, Fraction(b.y) - dy
    cdx, cdy = Fraction(c.x) - dx, Fraction(c.y) - dy
    det = ((adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
           + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
           + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady))
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def frac_incircle_raw(a, b, c, d):
    adx, ady = a.x - d.x, a.y - d.y
    bdx, bdy = b.x - d.x, b.y - d.y
    cdx, cdy = c.x - d.x, c.y - d.y

    bdxcdy, cdxbdy = bdx * cdy, cdx * bdy
    cdxady, adxcdy = cdx * ady, adx * cdy
    adxbdy, bdxady = adx * bdy, bdx * ady
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy

    det = (alift * (bdxcdy - cdxbdy)
           + blift * (cdxady - adxcdy)
           + clift * (adxbdy - bdxady))
    permanent = ((abs(bdxcdy) + abs(cdxbdy)) * alift
                 + (abs(cdxady) + abs(adxcdy)) * blift
                 + (abs(adxbdy) + abs(bdxady)) * clift)
    bound = _INCIRCLE_ERRBOUND * permanent
    if det > bound:
        return 1
    if -det > bound:
        return -1
    return frac_incircle_exact(a, b, c, d)


def frac_incircle(p, q, r, s):
    """The former ``incircle``: the raw sign times the orientation of the base."""
    return frac_incircle_raw(p, q, r, s) * frac_orient_exact(p, q, r)


def frac_is_clockwise(verts):
    return sum(Fraction(x1 * y2 - x2 * y1, w1 * w2)
               for (x1, y1, w1), (x2, y2, w2) in zip(verts, verts[1:] + verts[:1])) < 0


def frac_xy_key(vert):
    x, y, w = vert
    return Fraction(x, w), Fraction(y, w)


# --- inputs --------------------------------------------------------------------

def mixed_value(rng, lo=-1074, hi=1023):
    """A float with a random sign, 53-bit mantissa and binary exponent in [lo, hi]."""
    e = rng.randint(lo, hi)
    m = rng.getrandbits(53) | 1 << 52
    return rng.choice((-1.0, 1.0)) * math.ldexp(m, max(e - 52, -1074))


def mixed_point(rng):
    return Point(mixed_value(rng), mixed_value(rng))


def clustered_points(rng, n, lo=-1074, hi=1020):
    """n points a few ulps to 2**30 ulps apart around one mixed-magnitude base."""
    base = Point(mixed_value(rng, lo, hi), mixed_value(rng, lo, hi))
    out = []
    for _ in range(n):
        x, y = base.x, base.y
        for _ in range(rng.randint(0, 3)):
            x = math.nextafter(x, rng.choice((-math.inf, math.inf)))
            y = math.nextafter(y, rng.choice((-math.inf, math.inf)))
        ulp = math.ulp(base.x) if rng.random() < 0.5 else 0.0
        out.append(Point(x + rng.randint(-2**30, 2**30) * ulp, y))
    return out


def dyadic_scale(rng, lo=-1074, hi=990):
    """A power of two 2**e, e in [lo, hi]: times a 31-bit integer an exact finite float."""
    return math.ldexp(1.0, rng.randint(lo, hi))


def nudged(p, rng):
    return Point(math.nextafter(p.x, rng.choice((-math.inf, math.inf))), p.y)


def collinear_triple(rng):
    s = dyadic_scale(rng)
    px, py = rng.randint(-2**20, 2**20), rng.randint(-2**20, 2**20)
    dx, dy = rng.randint(-2**8, 2**8), rng.randint(-2**8, 2**8)
    pts = [Point((px + t * dx) * s, (py + t * dy) * s)
           for t in rng.sample(range(-2**10, 2**10), 3)]
    rng.shuffle(pts)
    return pts


# Integer points on the circle x^2 + y^2 = 65^2.
_R65 = sorted({(sx * a, sy * b) for a, b in ((0, 65), (16, 63), (25, 60), (33, 56), (39, 52))
               for a, b in ((a, b), (b, a)) for sx in (1, -1) for sy in (1, -1)})


def concircular_points(rng, n, lo=-1074, hi=990):
    s = dyadic_scale(rng, lo, hi)
    cx, cy = rng.randint(-2**20, 2**20), rng.randint(-2**20, 2**20)
    return [Point((cx + x) * s, (cy + y) * s) for x, y in rng.sample(_R65, n)]


def homogeneous_polygon(rng):
    """Vertices (X, Y, W), W > 0, of small or huge integers, some of them equal points."""
    bits = rng.choice((3, 20, 200))
    verts = []
    for _ in range(rng.randint(3, 9)):
        if verts and rng.random() < 0.2:
            x, y, w = rng.choice(verts)
            f = rng.randint(1, 5)
            verts.append((x * f, y * f, w * f))
        else:
            verts.append((rng.randint(-2**bits, 2**bits), rng.randint(-2**bits, 2**bits),
                          rng.randint(1, 2**bits)))
    return verts


# --- tests ---------------------------------------------------------------------

class TestOrientExact:
    def test_mixed_magnitudes(self):
        rng = random.Random(101)
        for _ in range(2000):
            pts = [mixed_point(rng) for _ in range(3)]
            assert _orient_exact(*pts) == frac_orient_exact(*pts)
            assert orient(*pts) == frac_orient_exact(*pts)

    def test_clustered_mixed_magnitudes(self):
        rng = random.Random(102)
        for _ in range(1000):
            pts = clustered_points(rng, 3)
            assert _orient_exact(*pts) == orient(*pts) == frac_orient_exact(*pts)

    def test_collinear_and_one_ulp_off(self):
        rng = random.Random(103)
        for _ in range(1000):
            pts = collinear_triple(rng)
            assert _orient_exact(*pts) == orient(*pts) == frac_orient_exact(*pts) == 0
            pts[2] = nudged(pts[2], rng)
            assert _orient_exact(*pts) == orient(*pts) == frac_orient_exact(*pts)


class TestIncircleExact:
    def check(self, pts):
        assert _incircle_exact(*pts) == frac_incircle_exact(*pts)
        o = frac_orient_exact(*pts[:3])
        if o != 0:
            assert incircle(*pts) == frac_incircle_exact(*pts) * o

    def test_mixed_magnitudes(self):
        rng = random.Random(111)
        for _ in range(2000):
            self.check([mixed_point(rng) for _ in range(4)])

    def test_clustered_mixed_magnitudes(self):
        rng = random.Random(112)
        for _ in range(1000):
            self.check(clustered_points(rng, 4))

    def test_concircular_and_one_ulp_off(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _incircle_exact(*args)

        monkeypatch.setattr(primitives, "_incircle_exact", counted)
        rng = random.Random(113)
        for _ in range(1000):
            pts = concircular_points(rng, 4)
            self.check(pts)
            assert incircle(*pts) == 0
            pts[3] = nudged(pts[3], rng)
            self.check(pts)
        assert calls  # incircle takes its sign from the exact determinant

    def test_agrees_with_the_former_filter(self):
        # the former filter is exact wherever no product underflows
        rng = random.Random(115)
        for _ in range(1000):
            pts = concircular_points(rng, 4, -200, 200)
            pts[3] = nudged(pts[3], rng) if rng.random() < 0.5 else pts[3]
            assert incircle(*pts) == frac_incircle(*pts)
            pts = clustered_points(rng, 4, -200, 200)
            if frac_orient_exact(*pts[:3]) != 0:
                assert incircle(*pts) == frac_incircle(*pts)

    def test_collinear_base_with_fourth_point(self):
        rng = random.Random(114)
        for _ in range(500):
            pts = collinear_triple(rng) + [mixed_point(rng)]
            assert _incircle_exact(*pts) == frac_incircle_exact(*pts)


class TestUnderflow:
    """Products of tiny differences underflow, which a float error bound must allow for."""

    TINY_CONCIRCULAR = (Point(4.174249164359271e-78, 2.8071336406442794e-77),
                        Point(4.1762258264736266e-78, 2.807001863169989e-77),
                        Point(4.1729643339849396e-78, 2.807090812965135e-77),
                        Point(4.1737220544621093e-78, 2.80671195272655e-77))

    def test_tiny_concircular_quadruple(self):
        pts = self.TINY_CONCIRCULAR
        assert frac_incircle_exact(*pts) == 0
        assert frac_incircle(*pts) == -1  # the former filter's sign
        for perm in permutations(pts):
            assert incircle(*perm) == 0
            report = check_regularity(FocalConfig(inner=perm[:1], outer=perm[1:]))
            assert len(report.concircular) == 1

    def test_tiny_orientation(self):
        pts = (Point(-4.974802610971244e-177, 8.712317835913197e-166),
               Point(1.0990816422188408e-156, -1.2054986872866281e-155),
               Point(1.7430758785143936e-156, -1.9118467661820925e-155))
        assert frac_orient_exact(*pts) == 1
        assert orient(*pts) == 1


class TestChainOrientationAndOrder:
    def test_is_clockwise_on_random_polygons(self):
        rng = random.Random(131)
        clockwise = 0
        for _ in range(3000):
            verts = homogeneous_polygon(rng)
            want = frac_is_clockwise(verts)
            assert _is_clockwise(verts) == want
            clockwise += want
        assert 0 < clockwise < 3000

    def test_is_clockwise_zero_area(self):
        rng = random.Random(132)
        for _ in range(500):
            verts = homogeneous_polygon(rng)
            there_and_back = verts + verts[-2:0:-1]  # encloses nothing
            assert not _is_clockwise(there_and_back)
            assert not frac_is_clockwise(there_and_back)

    def test_sort_and_min_with_ties(self):
        rng = random.Random(133)
        for _ in range(1000):
            verts = homogeneous_polygon(rng)
            # equal x with other y, and the same point written with another W
            x, y, w = rng.choice(verts)
            verts.append((x * 3, (y + rng.randint(-2, 2) * w) * 3, w * 3))
            rng.shuffle(verts)
            assert sorted(verts, key=_xy_key) == sorted(verts, key=frac_xy_key)
            assert min(verts, key=_xy_key) is min(verts, key=frac_xy_key)


# --- the chain rules from the rounded points --------------------------------------

U = 2.0 ** -53  # the unit roundoff


def exact_vert(x, y):
    """The exact point (x, y), Fractions or floats, as a homogeneous vertex (X, Y, W), W > 0."""
    x, y = Fraction(x), Fraction(y)
    w = math.lcm(x.denominator, y.denominator)
    return int(x * w), int(y * w), w


def rounded(verts):
    """The correctly rounded points of homogeneous vertices, as ``_chains`` reads them."""
    return [Point(x / w, y / w) for x, y, w in verts]


def float_shoelace(pts):
    """Twice the float area of pts from their products rounded once, and the products' |sum|."""
    pairs = list(zip(pts, pts[1:] + pts[:1]))
    terms = [a.x * b.y for a, b in pairs] + [-(b.x * a.y) for a, b in pairs]
    return math.fsum(terms), math.fsum(map(abs, terms))


def pushed(floats, sign):
    """Exact points that round to ``floats`` and move twice the area by ``sign`` as far as
    rounding allows: each coordinate nearly half the way to its next float along the
    area's gradient."""
    n = len(floats)
    verts = []
    for i, (x, y) in enumerate(floats):
        (xp, yp), (xn, yn) = floats[i - 1], floats[(i + 1) % n]
        moved = []
        for v, grad in ((x, yn - yp), (y, xp - xn)):
            toward = math.nextafter(v, math.copysign(math.inf, sign * grad))
            moved.append(Fraction(v) + (Fraction(toward) - Fraction(v)) / 2 * (1 - Fraction(1, 2**20)))
        verts.append(exact_vert(*moved))
    assert rounded(verts) == [Point(*p) for p in floats]
    return verts


# three points on a line through the origin, (1, -1, eps) along it, so that rounding
# the coordinates moves twice the area by up to 2u times the sum of the |products|
A = 1.0 + 2.0 ** -52  # its half ulp is u relative to it
TINY = 2.0 ** -20
# the flat dart whose rounded certificate splits its double vertex (see test_type32.py)
FLAT_DART = [(-4.746586673800708, -0.005902946252310706),
             (-3.167287754935413, -0.024408559805269937),
             (9.356261398575892, 0.08935820283430503),
             (9.991162478251315, 0.09483758907482023)]


class TestHoleFromRoundedPoints:
    """``_is_hole`` against ``frac_is_clockwise`` where the float shoelace cannot decide."""

    def check(self, verts):
        want = frac_is_clockwise(verts)
        pts = rounded(verts)
        got = _is_hole(verts, pts, _rounds_relatively(verts, pts))
        assert got == _is_clockwise(verts) == want
        return want

    @pytest.mark.parametrize("sign", [1, -1])
    def test_float_sum_of_the_wrong_sign_beyond_half_its_bound(self, sign):
        # twice the float area is -1.75 u times the sum of the |products| times sign
        floats = [(A, A), (-A, -A), (TINY, TINY + sign * 1.75 * U)]
        verts = pushed(floats, sign)
        twice, size = float_shoelace(rounded(verts))
        assert 1.5 * U * size < abs(twice) < 3 * U * size
        assert self.check(verts) == (sign < 0) != (twice < 0)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_float_sum_of_zero(self, sign):
        floats = [(A, A), (-A, -A), (TINY, TINY)]
        verts = pushed(floats, sign)
        assert float_shoelace(rounded(verts))[0] == 0.0
        assert self.check(verts) == (sign < 0)

    def test_random_near_zero_areas(self):
        rng = random.Random(134)
        zero = wrong = 0
        for _ in range(3000):
            n = rng.randint(3, 7)
            e = rng.randint(-60, 60)
            d = (rng.uniform(1, 2) * 2.0 ** e, rng.uniform(1, 2) * 2.0 ** e)
            floats = [(t * d[0], t * d[1]) for t in (rng.uniform(-2, 2) for _ in range(n))]
            if rng.random() < 0.5:
                verts = pushed(floats, rng.choice((1, -1)))
            else:  # random exact points within half an ulp of the float ones
                verts = [exact_vert(*(Fraction(v) + Fraction(rng.randint(-2**20, 2**20), 2**21)
                                      * Fraction(math.ulp(v)) for v in p)) for p in floats]
            twice, _ = float_shoelace(rounded(verts))
            want = self.check(verts)
            zero += twice == 0.0
            wrong += twice != 0.0 and (twice < 0) != want
        assert zero and wrong  # both cases the float sum cannot decide occur

    @pytest.mark.parametrize("order", [1, -1], ids=["ccw", "cw"])
    def test_square_at_1e154(self, order):
        # squared coordinates beyond the float range: the float sum overflows
        lo, hi = 1e154, 1.5e154
        verts = [exact_vert(x, y) for x, y in ((lo, lo), (hi, lo), (hi, hi), (lo, hi))][::order]
        assert math.isinf(hi * hi)
        assert self.check(verts) == (order < 0)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_subnormal_coordinates(self, sign):
        # twice the area is L (2 y_c - y_a - y_b) = 0.8 L ulp; rounded, it is -L ulp
        ulp, big = Fraction(2) ** -1074, 2 ** 100
        ys = [Fraction(31, 20) * ulp, Fraction(11, 20) * ulp, Fraction(29, 20) * ulp]
        verts = [exact_vert(-big, ys[0]), exact_vert(big, ys[1]), exact_vert(0, ys[2])][::sign]
        pts = rounded(verts)
        assert [p.y for p in pts[::sign]] == [2 * 5e-324, 5e-324, 5e-324]
        twice, size = float_shoelace(pts)
        assert (twice < 0) != frac_is_clockwise(verts) and abs(twice) > 0.1 * size
        self.check(verts)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_coordinate_rounded_to_zero(self, sign):
        # y_c underflows to 0.0; twice the area is 2**-76 (1.8 - 1) exactly, 2**-76 (0 - 1) rounded
        ulp = Fraction(2) ** -1074
        verts = [exact_vert(-2.0 ** 1000, 2.0 ** -1022), exact_vert(2.0 ** 946, 0),
                 exact_vert(0, Fraction(9, 20) * ulp)][::sign]
        pts = rounded(verts)
        assert pts[::sign][2] == (0.0, 0.0)
        twice, size = float_shoelace(pts)
        assert (twice < 0) != frac_is_clockwise(verts) and abs(twice) == size
        self.check(verts)

    def test_random_coordinates_near_the_least_normal(self):
        rng = random.Random(135)
        for _ in range(2000):
            n = rng.randint(3, 6)
            # exact points about 2**-1022, some of them rounding to subnormals
            verts = [exact_vert(*(Fraction(rng.randint(-2**60, 2**60), 2**60)
                                  * Fraction(2) ** rng.randint(-1076, -1018) for _ in range(2)))
                     for _ in range(n)]
            self.check(verts)

    def test_products_that_underflow(self):
        # float points on a line through the origin, one y moved by up to 2**19 ulps: their
        # products round to subnormals, so only the floor of the bound covers them
        rng = random.Random(136)
        wrong = 0
        for _ in range(2000):
            d = (rng.randint(1, 2**20) * 2.0 ** -520, rng.randint(1, 2**20) * 2.0 ** -580)
            floats = [(t * d[0], t * d[1]) for t in rng.sample(range(-2**10, 2**10), 3)]
            i = rng.randrange(3)
            x, y = floats[i]
            floats[i] = (x, y + rng.randint(-2**19, 2**19) * math.ulp(y))
            verts = [exact_vert(*p) for p in floats]
            twice, _ = float_shoelace(rounded(verts))
            wrong += twice != 0.0 and (twice < 0) != self.check(verts)
        assert wrong


def frac_turn_sign(u, v, w):
    """The sign of the turn u -> v -> w of homogeneous points (W > 0), in Fractions."""
    (ux, uy), (vx, vy), (wx, wy) = ((Fraction(x, h), Fraction(y, h)) for x, y, h in (u, v, w))
    det = (vx - ux) * (wy - uy) - (vy - uy) * (wx - ux)
    return (det > 0) - (det < 0)


class TestTurnSignsFromRoundedPoints:
    """``_turn_signs`` against ``frac_turn_sign`` where the float shoelace cannot decide."""

    @staticmethod
    def check(verts):
        want = [frac_turn_sign(verts[t - 1], verts[t], verts[(t + 1) % len(verts)])
                for t in range(len(verts))]
        pts = rounded(verts)
        assert _turn_signs(verts, pts, _rounds_relatively(verts, pts)) == want
        return want

    @pytest.mark.parametrize("sign", [1, -1])
    def test_float_sum_of_the_wrong_sign_beyond_half_its_bound(self, sign):
        floats = [(A, A), (-A, -A), (TINY, TINY + sign * 1.75 * U)]
        verts = pushed(floats, sign)
        twice, size = float_shoelace(rounded(verts))
        assert 1.5 * U * size < abs(twice) < 3 * U * size and (twice > 0) != (sign > 0)
        assert self.check(verts) == [sign] * 3

    @pytest.mark.parametrize("sign", [1, -1])
    def test_float_sum_of_zero(self, sign):
        verts = pushed([(A, A), (-A, -A), (TINY, TINY)], sign)
        assert float_shoelace(rounded(verts))[0] == 0.0
        assert self.check(verts) == [sign] * 3

    def test_collinear_turns_are_zero(self):
        verts = [exact_vert(x, y) for x, y in ((0, 0), (1, 1), (3, 3), (3, 0))]
        assert self.check(verts) == [-1, 0, -1, -1]  # clockwise, straight at (1, 1)

    def test_random_near_collinear_polygons(self):
        # every turn of points near one line, exact points pushed against the float sign or
        # anywhere within half an ulp of the float ones
        rng = random.Random(138)
        for _ in range(2000):
            e = rng.randint(-60, 60)
            d = (rng.uniform(1, 2) * 2.0 ** e, rng.uniform(1, 2) * 2.0 ** e)
            floats = [(t * d[0], t * d[1])
                      for t in (rng.uniform(-2, 2) for _ in range(rng.randint(3, 7)))]
            if rng.random() < 0.5:
                verts = pushed(floats, rng.choice((1, -1)))
            else:
                verts = [exact_vert(*(Fraction(v) + Fraction(rng.randint(-2**20, 2**20), 2**21)
                                      * Fraction(math.ulp(v)) for v in p)) for p in floats]
            self.check(verts)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_subnormal_coordinates(self, sign):
        # as for holes: rounding the subnormal y coordinates flips the float sign of the turn
        ulp, big = Fraction(2) ** -1074, 2 ** 100
        ys = [Fraction(31, 20) * ulp, Fraction(11, 20) * ulp, Fraction(29, 20) * ulp]
        verts = [exact_vert(-big, ys[0]), exact_vert(big, ys[1]), exact_vert(0, ys[2])][::sign]
        twice, size = float_shoelace(rounded(verts))
        assert (twice < 0) != frac_is_clockwise(verts) and abs(twice) > 0.1 * size
        assert self.check(verts) == [sign] * 3

    @pytest.mark.parametrize("sign", [1, -1])
    def test_coordinate_rounded_to_zero(self, sign):
        ulp = Fraction(2) ** -1074
        verts = [exact_vert(-2.0 ** 1000, 2.0 ** -1022), exact_vert(2.0 ** 946, 0),
                 exact_vert(0, Fraction(9, 20) * ulp)][::sign]
        twice, size = float_shoelace(rounded(verts))
        assert (twice < 0) != frac_is_clockwise(verts) and abs(twice) == size
        self.check(verts)

    def test_products_that_underflow(self):
        # three float points on a line through the origin, one y moved by up to 2**19 ulps:
        # their products round to subnormals, so only the floor of the bound covers them
        rng = random.Random(141)
        wrong = 0
        for _ in range(2000):
            d = (rng.randint(1, 2**20) * 2.0 ** -520, rng.randint(1, 2**20) * 2.0 ** -580)
            floats = [(t * d[0], t * d[1]) for t in rng.sample(range(-2**10, 2**10), 3)]
            i = rng.randrange(3)
            x, y = floats[i]
            floats[i] = (x, y + rng.randint(-2**19, 2**19) * math.ulp(y))
            verts = [exact_vert(*p) for p in floats]
            twice, _ = float_shoelace(rounded(verts))
            want = self.check(verts)
            wrong += twice != 0.0 and (twice > 0) != (want[0] > 0)
        assert wrong

    def test_random_coordinates_near_the_least_normal_and_beyond_the_range(self):
        rng = random.Random(139)
        for _ in range(1000):
            exp = rng.choice((-1076, -1048, 480, 1000))
            verts = [exact_vert(*(Fraction(rng.randint(-2**60, 2**60), 2**60)
                                  * Fraction(2) ** rng.randint(exp, exp + 20) for _ in range(2)))
                     for _ in range(rng.randint(3, 6))]
            self.check(verts)

    @staticmethod
    def groups():
        """The ring, grid and dense-grid inputs of ``corpus``, by name, and the rng after them."""
        from test_exact_graph import dense_grid_configs, grid_config, ring_config

        rng = random.Random(140)
        return {"ring": [ring_config(rng, 8, 12) for _ in range(40)],
                "grid": [grid_config(rng, rng.randint(2, 8)) for _ in range(40)],
                "dense grid": dense_grid_configs(10)}, rng

    @staticmethod
    def corpus():
        """Ring, grid and dense-grid inputs, and certificates of concave quads and flat darts."""
        from equidist.type32 import _construct_quad, label_quad

        from conftest import random_concave_quad

        groups, rng = TestTurnSignsFromRoundedPoints.groups()
        for configs in groups.values():
            yield from configs
        quads = [random_concave_quad(rng) for _ in range(20)]
        quads += [label_quad([Point(x, 0.001 * y) for x, y in quad.points]) for quad in quads]
        quads.append(label_quad([Point(*p) for p in FLAT_DART]))
        for quad in quads:
            yield _construct_quad(quad, None)[3].config()

    def test_chain_turns_on_the_corpora(self, monkeypatch):
        walked = []
        signs = polygon._turn_signs
        monkeypatch.setattr(polygon, "_turn_signs",
                            lambda verts, pts, relative: walked.append((verts, pts))
                            or signs(verts, pts, relative))
        for cfg in self.corpus():
            extract_boundary(FocalConfig(cfg.inner, cfg.outer))  # a new object: no memo answers
        exact, det = [], polygon._orientation_det
        monkeypatch.setattr(polygon, "_orientation_det", lambda *uvw: exact.append(uvw) or det(*uvw))
        turns = straight = 0
        for verts, pts in walked:
            n = len(verts)
            want = [frac_turn_sign(verts[t - 1], verts[t], verts[(t + 1) % n]) for t in range(n)]
            assert signs(verts, pts, _rounds_relatively(verts, pts)) == want
            turns, straight = turns + n, straight + want.count(0)
        # the rounded points decide nearly every turn that is not straight (grid inputs have
        # straight ones, which only the exact determinant decides)
        assert turns > 2000 and straight > 0 and len(exact) - straight < turns / 100


class TestLowestFromRoundedPoints:
    """``_lowest_key`` orders exact points as ``frac_xy_key`` does, reading floats first."""

    def test_equal_float_x_against_the_float_y_order(self):
        # exact x ascending, float x all 1.0, float y descending: only the exact x decides
        verts = [exact_vert(1 + Fraction(m, 2**60), 5 - m) for m in range(4)]
        verts.append(exact_vert(0.5, 9))  # a smaller float x goes first whatever its y
        pts = rounded(verts)
        assert {p.x for p in pts[:4]} == {1.0}
        order = sorted(range(5), key=lambda m: _lowest_key(verts[m], pts[m]))
        assert order == sorted(range(5), key=lambda m: frac_xy_key(verts[m])) == [4, 0, 1, 2, 3]
        assert sorted(range(4), key=lambda m: (pts[m].x, pts[m].y)) == [3, 2, 1, 0]

    def test_random_clusters_with_ties(self):
        rng = random.Random(137)
        for _ in range(1000):
            base = Fraction(mixed_value(rng, -1000, 1000))
            step = Fraction(math.ulp(float(base))) / rng.choice((1, 8, 2**20))
            verts = [exact_vert(base + rng.randint(-6, 6) * step,
                                Fraction(rng.randint(-3, 3)) + rng.randint(-3, 3) * step)
                     for _ in range(rng.randint(2, 9))]
            x, y, w = rng.choice(verts)
            verts.append((3 * x, 3 * y, 3 * w))  # an exact tie, written with another W
            rng.shuffle(verts)
            pts = rounded(verts)
            key = [_lowest_key(v, p) for v, p in zip(verts, pts)]
            frac = [frac_xy_key(v) for v in verts]
            assert sorted(range(len(verts)), key=key.__getitem__) == sorted(
                range(len(verts)), key=frac.__getitem__)
            assert min(range(len(verts)), key=key.__getitem__) == min(
                range(len(verts)), key=frac.__getitem__)


# --- the one float sign filter -------------------------------------------------

def exact_factor(rng, lo, hi):
    """An 80-bit Fraction times 2**e, e in [lo, hi], and its float, rounded once to a normal."""
    v = Fraction(rng.choice((1, -1)) * (rng.getrandbits(79) | 1 << 79), 2**79)
    v *= Fraction(2) ** rng.randint(lo, hi)
    return v, float(v)


def cancelling_factors(rng, n, lo, hi, shifts=(40, 80)):
    """n pairs of factors whose exact products sum to 0, or to 2**-s of their size, s in shifts."""
    factors = [(exact_factor(rng, lo, hi), exact_factor(rng, lo, hi)) for _ in range(n - 1)]
    rest = sum(a0 * b0 for (a0, _), (b0, _) in factors)
    a0, a = exact_factor(rng, lo, hi)
    tiny = 0 if rng.random() < 0.1 else (rest * Fraction(rng.randint(-2**20, 2**20), 2**20)
                                         * Fraction(2) ** -rng.randint(*shifts))
    b0 = (tiny - rest) / a0
    return factors + [((a0, a), (b0, float(b0)))]


def float_sign(factors) -> int:
    """``_sum_sign`` of the factors' float products, summed as its callers sum them."""
    products = [a * b for (_, a), (_, b) in factors]
    if len(products) == 2:  # as orient: one float operation each
        p, q = products
        return _sum_sign(p + q, abs(p) + abs(q), 2)
    return _shoelace_sign(products)


def frac_sum_sign(factors) -> int:
    total = sum(a0 * b0 for (a0, _), (b0, _) in factors)
    return (total > 0) - (total < 0)


class TestSumSign:
    """``_sum_sign`` against the exact sum of the exact products, in Fractions."""

    def test_the_constants_meet_the_proof(self):
        u, tiny = Fraction(1, 2**53), Fraction(1, 2**1075)
        c, f = Fraction(primitives._SUM_ERRBOUND), Fraction(primitives._SUM_FLOOR)
        assert 1 / (1 - u) ** 3 - 1 <= 3 * u + 7 * u**2
        assert (2 * u + 4 * u**2) * tiny + tiny <= 2 * tiny
        assert 1 / (1 - u) ** 2 - 1 <= 2 * u + 4 * u**2
        assert c >= (3 * u + 7 * u**2) * (1 + u) / (1 - u) ** 3
        for n in (1, 2, 3, 6, 10**6):
            assert (1 - u) * (n * f - tiny) >= (1 + u) * n * 2 * tiny

    @pytest.mark.parametrize("lo, hi, shifts", [(-30, 30, (40, 80)), (-545, -515, (0, 30))],
                             ids=["normal", "underflowing"])
    def test_near_zero_sums(self, lo, hi, shifts):
        # exact sums of 0 or far below the rounding of their products: the float sum has the
        # wrong sign in some, which the filter must leave undecided; products of factors
        # about 2**-530 round to subnormals, which only the floor covers
        rng = random.Random(142 if lo > -100 else 143)
        got = Counter()
        for _ in range(3000):
            factors = cancelling_factors(rng, rng.choice((2, 3, 6, 12)), lo, hi, shifts)
            want, sign = frac_sum_sign(factors), float_sign(factors)
            assert sign in (0, want)
            products = [a * b for (_, a), (_, b) in factors]
            total = math.fsum(products)
            got[sign != 0, (total > 0) - (total < 0) == want] += 1
        # decided, and left open both where the float sign is right and where it is wrong
        assert got[True, True] and got[False, True] and got[False, False], got
        assert not got[True, False], got

    def test_clear_sums_are_decided(self):
        rng = random.Random(144)
        for _ in range(1000):
            factors = [(exact_factor(rng, -30, 30), exact_factor(rng, -30, 30))
                       for _ in range(rng.choice((2, 3, 6)))]
            products = [a0 * b0 for (a0, _), (b0, _) in factors]
            if abs(sum(products)) > Fraction(1, 2**40) * sum(map(abs, products)):
                assert float_sign(factors) == frac_sum_sign(factors)

    @pytest.mark.parametrize("terms", [
        [math.inf, 1.0], [-math.inf, 1.0], [math.inf, -math.inf], [math.nan, 1.0],
        [math.inf, math.inf, 1.0], [math.inf, -math.inf, 2.0], [math.nan, 1.0, 2.0],
        [1e308, 1e308, -1e308, 1.0],
    ], ids=["inf", "-inf", "inf-inf", "nan", "inf-3", "inf-inf-3", "nan-3", "overflow"])
    def test_non_finite_terms_give_zero(self, terms):
        assert _shoelace_sign(terms) == 0
        if len(terms) == 2:
            p, q = terms
            assert _sum_sign(p + q, abs(p) + abs(q), 2) == 0

    def test_non_finite_sums_give_zero(self):
        inf, nan = math.inf, math.nan
        for total, size in ((inf, inf), (-inf, inf), (nan, inf), (nan, nan), (0.0, nan),
                            (1.0, inf)):
            assert _sum_sign(total, size, 6) == 0


# The three filters' constants before ``_sum_sign`` replaced them, (error bound, underflow
# floor), the reference of the count below; the shoelace's floor was per vertex.
FORMER_ORIENT = ((3.0 + 16.0 * U) * U, 2.0 ** -1060)
FORMER_SHOELACE = ((3.0 + 64.0 * U) * U, 2.0 ** -1072)
FORMER_TURN = ((8.0 + 128.0 * U) * U, 3 * 2.0 ** -1072)


def former_orient_decides(total, size) -> bool:
    err, floor = FORMER_ORIENT
    return abs(total) > err * size + floor


def former_hole_decides(pts) -> bool:
    pairs = list(zip(pts, pts[1:] + pts[:1]))
    terms = [a.x * b.y for a, b in pairs] + [-b.x * a.y for a, b in pairs]
    err, floor = FORMER_SHOELACE
    try:
        return abs(math.fsum(terms)) > err * math.fsum(map(abs, terms)) + len(pts) * floor
    except (OverflowError, ValueError):
        return False


def former_turn_decides(a, b, c) -> bool:
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    t1, t2, t3, t4, t5, t6 = ax * by, bx * ay, bx * cy, cx * by, cx * ay, ax * cy
    err, floor = FORMER_TURN
    return abs(t1 - t2 + t3 - t4 + t5 - t6) > err * (abs(t1) + abs(t2) + abs(t3) + abs(t4)
                                                     + abs(t5) + abs(t6)) + floor


class TestOneFilterOnTheCorpora:
    """``_sum_sign`` leaves no more signs to the exact fallbacks than the former filters did."""

    @pytest.mark.parametrize("group", ["ring", "grid", "dense grid"])
    def test_exact_fallbacks_against_the_former_constants(self, monkeypatch, group):
        configs = TestTurnSignsFromRoundedPoints.groups()[0][group]
        orients, holes, turns = [], [], []
        sum_sign, is_hole, turn_signs = primitives._sum_sign, polygon._is_hole, polygon._turn_signs
        monkeypatch.setattr(primitives, "_sum_sign",  # only orient calls it there
                            lambda total, size, n: orients.append((total, size))
                            or sum_sign(total, size, n))
        monkeypatch.setattr(polygon, "_is_hole", lambda verts, pts, relative:
                            holes.append((pts, relative)) or is_hole(verts, pts, relative))
        monkeypatch.setattr(polygon, "_turn_signs", lambda verts, pts, relative:
                            turns.append((pts, relative)) or turn_signs(verts, pts, relative))
        exact = Counter()
        for kind, module, name in (("orient", primitives, "_orient_exact"),
                                   ("hole", polygon, "_is_clockwise"),
                                   ("turn", polygon, "_orientation_det")):
            monkeypatch.setattr(module, name, lambda *args, kind=kind, fn=getattr(module, name):
                                exact.update([kind]) or fn(*args))
        for cfg in configs:
            extract_boundary(FocalConfig(cfg.inner, cfg.outer))  # a new object: no memo answers
        former = Counter(
            orient=sum(not former_orient_decides(*call) for call in orients),
            hole=sum(not (relative and former_hole_decides(pts)) for pts, relative in holes),
            turn=sum(not (relative and former_turn_decides(pts[t - 2], pts[t - 1], pts[t]))
                     for pts, relative in turns for t in range(len(pts))))
        assert orients and holes and turns
        assert all(exact[kind] <= former[kind] for kind in former), (exact, former)
        assert group != "ring" or not +exact  # ring inputs leave no sign to the fallbacks
