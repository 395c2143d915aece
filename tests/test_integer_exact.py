"""The integer exact predicates against the Fraction code they replaced.

The oracles below are the ``Fraction`` versions of ``primitives._orient_exact``,
``primitives._incircle_exact``, the former second in-circle filter
``_incircle_raw`` (its float filter with the Fraction fallback) and
``polygon._is_clockwise``, plus the Fraction key that ordered chains by their
lowest vertex.  They are slow but plainly exact.  The inputs mix binary
exponents from -1074 to 1023, are exactly collinear or concircular (and one
ulp off), or are random homogeneous polygons with exact ties.
"""

import math
import random
from fractions import Fraction
from itertools import combinations, permutations

from equidist import primitives
from equidist.body import FocalConfig
from equidist.polygon import _is_clockwise, _xy_key, check_regularity
from equidist.primitives import (
    Point,
    _incircle_exact,
    _orient_exact,
    incircle,
    incircle_hits,
    lifted_rows,
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
        assert calls  # the exact fallback decided some of these signs

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


class TestIncircleHits:
    def test_scans_agree_with_the_exact_sign(self):
        rng = random.Random(121)
        for trial in range(60):
            if trial % 3 == 0:
                points = concircular_points(rng, 8)
                t = rng.randrange(8)
                points[t] = nudged(points[t], rng)
            elif trial % 3 == 1:
                points = clustered_points(rng, 8)
            else:
                points = [mixed_point(rng) for _ in range(8)]
            if len(set(points)) < len(points):
                continue
            n = len(points)
            for a in range(n):
                rows = lifted_rows(points, a)
                for b, c in combinations(range(a + 1, n), 2):
                    if frac_orient_exact(points[a], points[b], points[c]) == 0:
                        continue
                    pa, pb, pc = points[a], points[b], points[c]
                    cands = [d for d in range(n) if d not in (a, b, c)]
                    signs = [frac_incircle_exact(pb, pc, points[d], pa) for d in cands]
                    for want in (1, 0, -1):
                        got = list(incircle_hits(points, rows, a, b, c, cands, want))
                        assert got == [d for d, s in zip(cands, signs) if s == want]


class TestUnderflow:
    """Products of tiny differences underflow, and the float error bounds assume they do not."""

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
