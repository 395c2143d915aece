"""The hoisted in-circle scan against the brute-force loops, and its invariances.

The reference below is ``check_regularity`` and ``empty_circle_triples`` as
they were before the scan was hoisted: one call of the exact ``orient`` and
``incircle`` per triple and per quadruple.  It is slow but plainly exact, so
it serves as the oracle for both reports, tuple order and floats included.
The near-concircular inputs lie on a circle of radius about 7e7 with a
half-integer centre, so a float determinant would round: exact zeros would
come out as small non-zero floats, and a point moved by one ulp would get
float signs of either kind.  The engine decides them on integers.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_generic_32
from equidist import polygon
from equidist.body import FocalConfig, convex_hull
from equidist.errors import GeometryError, NumericalDegeneracy, RegularityViolated
from equidist.polygon import (
    COLOR_XYX,
    COLOR_YXY,
    HyperEdge,
    RegularityReport,
    _certified_regular,
    _subdivision,
    _tables,
    _triple_color,
    check_regularity,
    empty_circle_triples,
    labeled_points,
)
from equidist.primitives import Point, circumcircle, incircle, orient, viewing_angle
from test_exact_graph import dense_grid_configs, grid_config, mapped_config, ring_config
from test_integer_exact import frac_orient_exact

# Deterministic example generation keeps the suite reproducible run to run.
EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True)


# --- brute-force reference ---------------------------------------------------

def ref_regularity(cfg: FocalConfig) -> RegularityReport:
    pts = labeled_points(cfg)
    collinear = []
    for (ra, a), (rb, b), (rc, c) in combinations(pts, 3):
        if orient(a, b, c) == 0:
            collinear.append((ra, rb, rc))
    concircular = []
    for (ra, a), (rb, b), (rc, c), (rd, d) in combinations(pts, 4):
        if orient(a, b, c) != 0:
            on = incircle(a, b, c, d) == 0
        elif orient(a, b, d) != 0:
            on = incircle(a, b, d, c) == 0
        else:
            on = False
        if on:
            concircular.append((ra, rb, rc, rd))
    return RegularityReport(ok=not collinear and not concircular,
                            collinear=tuple(collinear), concircular=tuple(concircular))


def ref_triples(cfg: FocalConfig) -> tuple[HyperEdge, ...]:
    report = ref_regularity(cfg)
    if not report.ok:
        raise RegularityViolated("configuration violates (C1)/(C2)", report)
    pts = labeled_points(cfg)
    edges = []
    for chosen in combinations(range(len(pts)), 3):
        (ra, a), (rb, b), (rc, c) = (pts[i] for i in chosen)
        if any(incircle(a, b, c, z) > 0 for i, (_, z) in enumerate(pts) if i not in chosen):
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


def assert_matches_reference(cfg: FocalConfig) -> RegularityReport:
    """Both reports equal the reference's; HyperEdge floats compare exactly."""
    report = check_regularity(cfg)
    assert report == ref_regularity(cfg)
    if report.ok:
        assert empty_circle_triples(cfg) == ref_triples(cfg)
    else:
        with pytest.raises(RegularityViolated):
            empty_circle_triples(cfg)
    return report


# --- corpora -----------------------------------------------------------------

# Pythagorean directions: every (cx + u*m, cy + v*m) lies on one circle.
_CIRCLE_DIRS = ((3, 4), (-4, 3), (0, -5), (5, 0), (-3, -4), (4, -3), (-5, 0), (3, -4))
_M = 3 ** 15
_CENTER = (0.5, 0.25)


def circle_points(dirs):
    return [(_CENTER[0] + u * _M, _CENTER[1] + v * _M) for u, v in dirs]


def nudged(points, k, axis, direction):
    """points with coordinate `axis` of point k moved one ulp towards `direction`."""
    out = list(points)
    x, y = out[k]
    if axis == 0:
        out[k] = (math.nextafter(x, direction), y)
    else:
        out[k] = (x, math.nextafter(y, direction))
    return out


def near_concircular_configs():
    """Four points on the big circle, one moved by one ulp, split 2 inner / 2 outer.

    Each comes once alone and once with a third inner point inside the
    circle, so that every triple has more than one candidate to scan.
    """
    fifth = (_CENTER[0] + _M, _CENTER[1] + 2 * _M)
    for dirs in combinations(_CIRCLE_DIRS[:6], 4):
        pts = circle_points(dirs)
        for k in range(4):
            for axis in (0, 1):
                for direction in (math.inf, -math.inf):
                    moved = nudged(pts, k, axis, direction)
                    yield FocalConfig.of(moved[:2], moved[2:])
                    yield FocalConfig.of(moved[:2] + [fifth], moved[2:])


# --- oracle ------------------------------------------------------------------

class TestAgainstBruteForce:
    def test_random_generic_32_configs(self):
        rng = random.Random(51)
        for _ in range(30):
            assert assert_matches_reference(random_generic_32(rng)).ok

    def test_ring_configs(self):
        rng = random.Random(52)
        for _ in range(3):
            assert assert_matches_reference(ring_config(rng, 12, 18)).ok

    def test_grid_configs(self):
        rng = random.Random(53)
        collinear = concircular = 0
        for _ in range(15):
            report = assert_matches_reference(grid_config(rng, rng.randint(2, 6), n=10))
            collinear += len(report.collinear)
            concircular += len(report.concircular)
        # the corpus reaches both degeneracies, not only regular inputs
        assert collinear > 0 and concircular > 0

    def test_exactly_concircular_with_rounding_floats(self):
        pts = circle_points(_CIRCLE_DIRS)
        cfg = FocalConfig.of(pts[:3], pts[3:])
        report = assert_matches_reference(cfg)
        assert len(report.concircular) == math.comb(len(pts), 4)

    def test_near_concircular_configs(self):
        regular = 0
        for cfg in near_concircular_configs():
            regular += assert_matches_reference(cfg).ok
        assert regular > 0


# --- metamorphic -------------------------------------------------------------

def _config(kind: str, seed: int, p: int) -> FocalConfig:
    rng = random.Random(seed)
    if kind == "ring":
        return ring_config(rng, p)
    if kind == "generic32":
        return random_generic_32(rng)
    return grid_config(rng, p, n=10)


def _combinatorics(cfg: FocalConfig):
    """Regularity report, and for regular input the (refs, color) of every hyperedge."""
    report = check_regularity(cfg)
    edges = None
    if report.ok:
        edges = tuple((e.refs, e.color) for e in empty_circle_triples(cfg))
    return report, edges


SEEDS = st.integers(0, 2**32 - 1)
KINDS = st.sampled_from(["ring", "grid", "generic32"])
SIZES = st.integers(2, 6)


class TestHypergraphInvariance:
    @EXAMPLES
    @given(seed=SEEDS, p=SIZES,
           dx=st.integers(-2**30, 2**30), dy=st.integers(-2**30, 2**30))
    def test_integer_translation(self, seed, p, dx, dy):
        cfg = _config("grid", seed, p)
        moved = mapped_config(cfg, lambda v: Point(v.x + dx, v.y + dy))
        assert _combinatorics(moved) == _combinatorics(cfg)

    @EXAMPLES
    @given(kind=KINDS, seed=SEEDS, p=SIZES)
    def test_rotation_by_90_degrees(self, kind, seed, p):
        cfg = _config(kind, seed, p)
        turned = mapped_config(cfg, lambda v: Point(-v.y, v.x))
        assert _combinatorics(turned) == _combinatorics(cfg)

    @EXAMPLES
    @given(kind=KINDS, seed=SEEDS, p=SIZES, k=st.integers(-30, 30))
    def test_power_of_two_scaling(self, kind, seed, p, k):
        cfg = _config(kind, seed, p)
        scaled = mapped_config(cfg, lambda v: Point(math.ldexp(v.x, k), math.ldexp(v.y, k)))
        assert _combinatorics(scaled) == _combinatorics(cfg)

    @EXAMPLES
    @given(kind=KINDS, seed=SEEDS, p=SIZES,
           k=st.one_of(st.integers(-900, -240), st.integers(240, 900)))
    def test_power_of_two_scaling_beyond_float_products(self, kind, seed, p, k):
        # products of four lifted differences underflow or overflow at these scales
        cfg = _config(kind, seed, p)
        scaled = mapped_config(cfg, lambda v: Point(math.ldexp(v.x, k), math.ldexp(v.y, k)))
        assert _combinatorics(scaled) == _combinatorics(cfg)

    @EXAMPLES
    @given(kind=KINDS, seed=SEEDS, p=SIZES, data=st.data())
    def test_point_permutation(self, kind, seed, p, data):
        cfg = _config(kind, seed, p)
        perm = {"inner": data.draw(st.permutations(range(cfg.p))),
                "outer": data.draw(st.permutations(range(cfg.q)))}
        inner, outer = [None] * cfg.p, [None] * cfg.q
        for i, v in enumerate(cfg.inner):
            inner[perm["inner"][i]] = v
        for j, v in enumerate(cfg.outer):
            outer[perm["outer"][j]] = v

        def relabel(refs):
            return frozenset((r.kind, perm[r.kind][r.index]) for r in refs)

        def as_sets(combinatorics, relabelled):
            report, edges = combinatorics
            key = relabel if relabelled else (
                lambda refs: frozenset((r.kind, r.index) for r in refs))
            return (report.ok, {key(t) for t in report.collinear},
                    {key(t) for t in report.concircular},
                    None if edges is None else {
                        (key(refs), key(refs[1:2]) if color in (COLOR_XYX, COLOR_YXY) else None,
                         color)
                        for refs, color in edges})

        permuted = FocalConfig(tuple(inner), tuple(outer))
        assert as_sets(_combinatorics(permuted), False) == as_sets(_combinatorics(cfg), True)


# --- the O(n^3) regularity keys and the gift-wrapped Delaunay ---------------

def outcome(fn, cfg: FocalConfig) -> str:
    """repr of fn(cfg), or the name of the GeometryError it raises.

    HyperEdge weights are NaN for some extreme magnitudes, and NaN != NaN,
    so the reports compare by repr.
    """
    try:
        return repr(fn(cfg))
    except GeometryError as exc:
        return type(exc).__name__


def assert_repr_matches_reference(cfg: FocalConfig) -> RegularityReport:
    report = check_regularity(cfg)
    assert repr(report) == repr(ref_regularity(cfg))
    assert outcome(empty_circle_triples, cfg) == outcome(ref_triples, cfg)
    return report


def overflowing_keys(cfg: FocalConfig) -> int:
    """Triples (a, b, c) whose circle key 2 (c - a).(c - b) / ((b - a) x (c - a)) overflows.

    The key is a ratio of integers of the scaled points, and those integers
    scale together, so its exact rational does not depend on the scale.  Its
    float is the correctly rounded quotient of the rational's numerator and
    denominator, the division that raises ``OverflowError`` in the engine.
    """
    pts = [(Fraction(p.x), Fraction(p.y)) for _, p in labeled_points(cfg)]
    count = 0
    for (ax, ay), (bx, by), (cx, cy) in combinations(pts, 3):
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if cross:
            key = 2 * ((cx - ax) * (cx - bx) + (cy - ay) * (cy - by)) / cross
            try:
                key.numerator / key.denominator
            except OverflowError:
                count += 1
    return count


def hull_edges(points) -> set:
    """Edges of the convex hull of points with no three collinear, by the exact orient."""
    order = sorted(range(len(points)), key=lambda i: (points[i].x, points[i].y))

    def half(seq):
        out = []
        for i in seq:
            while len(out) >= 2 and orient(points[out[-2]], points[out[-1]], points[i]) <= 0:
                out.pop()
            out.append(i)
        return out[:-1]

    ring = half(order) + half(order[::-1])
    return {frozenset((ring[k - 1], ring[k])) for k in range(len(ring))}


_EXPONENTS = (-300, -150, -1, 0, 1, 150, 300)


def mixed_magnitude_configs(rng: random.Random, count: int):
    """Configurations of 3 to 7 points whose coordinates range over 1e-300 to 1e300."""
    for _ in range(count):
        n = rng.randint(3, 7)
        pts = set()
        while len(pts) < n:
            pts.add(tuple(rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 10.0)
                          * 10.0 ** rng.choice(_EXPONENTS) for _ in range(2)))
        pts = sorted(pts)
        rng.shuffle(pts)
        p = rng.randint(1, n - 1)
        yield FocalConfig.of(pts[:p], pts[p:])


# mantissa * 2**exponent spans about 1e-300 to 1e300
MAGNITUDES = st.builds(math.ldexp, st.integers(-2**20, 2**20), st.integers(-1000, 976))


class TestKeyedRegularityAndGiftWrap:
    @pytest.mark.parametrize("inner, outer", [
        ([(0, 0)], [(1, 0)]),
        ([(0.5, -3)], [(1e-300, 1e300)]),
        ([(0, 0)], [(1, 0), (0, 1)]),
        ([(0, 0), (3, 1)], [(1, 5)]),
        ([(0, 0)], [(1, 0), (2, 0)]),
        ([(1e-300, 0)], [(0, 1e-300), (1e300, 1e300)]),
    ])
    def test_two_and_three_points(self, inner, outer):
        assert_repr_matches_reference(FocalConfig.of(inner, outer))

    def test_mixed_magnitudes(self):
        overflowing = 0
        for cfg in mixed_magnitude_configs(random.Random(54), 300):
            assert_repr_matches_reference(cfg)
            overflowing += overflowing_keys(cfg) > 0
        assert overflowing > 0

    def test_colliding_overflow_keys_are_rejected_exactly(self):
        # relative to (0, 0) and (1e-300, 0), both later points key to +inf
        cfg = FocalConfig.of([(0.0, 0.0), (1e300, 1e-300)], [(1e-300, 0.0), (-1e300, 1e-300)])
        assert overflowing_keys(cfg) >= 2
        assert check_regularity(cfg).ok
        assert_repr_matches_reference(cfg)

    def test_shared_keys_of_many_members(self):
        # the 8 circle points, interleaved with 3 off the circle: each (a, b) on the
        # circle shares one key among up to 6 later points, some of them off it
        on = circle_points(_CIRCLE_DIRS)
        off = [(_CENTER[0] + _M, _CENTER[1] + 2 * _M), (_CENTER[0] + 0.5, _CENTER[1]),
               (_CENTER[0] - 7 * _M, _CENTER[1] + 0.5)]
        pts = on[:3] + off[:1] + on[3:6] + off[1:] + on[6:]
        report = assert_repr_matches_reference(FocalConfig.of(pts[:5], pts[5:]))
        assert len(report.concircular) == math.comb(len(on), 4)
        for k in range(len(on)):
            moved = nudged(on, k, k % 2, math.inf)
            assert_repr_matches_reference(FocalConfig.of(moved[:4], moved[4:] + off))

    @EXAMPLES
    @given(kind=KINDS, seed=SEEDS, p=SIZES)
    def test_generated_configs(self, kind, seed, p):
        assert_repr_matches_reference(_config(kind, seed, p))

    @EXAMPLES
    @given(pts=st.lists(st.tuples(MAGNITUDES, MAGNITUDES), min_size=2, max_size=7, unique=True),
           split=st.integers(1, 6))
    def test_generated_mixed_magnitudes(self, pts, split):
        p = min(split, len(pts) - 1)
        assert_repr_matches_reference(FocalConfig.of(pts[:p], pts[p:]))


class TestDelaunayBeyondBruteForce:
    """Inputs too large for the O(n^4) reference: the triangulation is checked directly.

    Every triple's circle is exactly empty, there are 2n - 2 - h of them for a
    hull of h points, and every edge lies in two triples, a hull edge in one:
    together these leave no empty-circle triple out.
    """

    @pytest.mark.parametrize("p, q, seed", [(16, 24, 61), (32, 48, 62)])
    def test_ring_triangulation(self, p, q, seed):
        cfg = ring_config(random.Random(seed), p, q)
        assert check_regularity(cfg).ok
        pts = labeled_points(cfg)
        index = {ref: i for i, (ref, _) in enumerate(pts)}
        points = [pt for _, pt in pts]
        triples = [tuple(sorted(index[r] for r in e.refs)) for e in empty_circle_triples(cfg)]
        assert triples == sorted(set(triples))
        for t in triples:
            a, b, c = (points[i] for i in t)
            assert all(incircle(a, b, c, z) < 0 for i, z in enumerate(points) if i not in t)
        hull = hull_edges(points)
        assert len(triples) == 2 * len(points) - 2 - len(hull)
        uses = Counter(frozenset(e) for t in triples for e in combinations(t, 2))
        assert hull <= set(uses)
        assert all(count == (1 if e in hull else 2) for e, count in uses.items())


# --- the subdivision against a Fraction oracle on tied inputs -----------------

def frac_circle(a, b, c):
    """Centre and squared radius of the circle through three points, in Fractions."""
    (ax, ay), (bx, by), (cx, cy) = (map(Fraction, pt) for pt in (a, b, c))
    bx, by, cx, cy = bx - ax, by - ay, cx - ax, cy - ay
    d = 2 * (bx * cy - by * cx)
    b2, c2 = bx * bx + by * by, cx * cx + cy * cy
    ux, uy = (cy * b2 - by * c2) / d, (bx * c2 - cx * b2) / d
    return (ax + ux, ay + uy), ux * ux + uy * uy


def frac_twice_area(points) -> Fraction:
    return sum(Fraction(a.x) * Fraction(b.y) - Fraction(b.x) * Fraction(a.y)
               for a, b in zip(points, points[1:] + points[:1]))


class TestSubdivisionAgainstFractions:
    """``_subdivision`` on grids, whose points lie four and more on one circle, in Fractions.

    Each face holds every input point on one circle and none inside it, in
    counterclockwise order around it; ``where`` names each directed face edge, once.
    The faces' areas add up to the hull's, so no face is missing.
    """

    def test_grid_and_dense_grid_faces(self):
        rng = random.Random(63)
        configs = [grid_config(rng, rng.randint(2, 8)) for _ in range(60)] + dense_grid_configs(6)
        ties = 0
        for cfg in configs:
            points = cfg.points  # the order of labeled_points
            faces, where = _subdivision(cfg)
            for face in faces:
                (ox, oy), r2 = frac_circle(*(points[i] for i in face[:3]))
                d2 = [(Fraction(pt.x) - ox) ** 2 + (Fraction(pt.y) - oy) ** 2 for pt in points]
                assert {i for i, d in enumerate(d2) if d <= r2} == set(face)
                assert all(d2[i] == r2 for i in face)
                corners = [points[i] for i in face]
                for m in range(len(face)):  # every other point left of each edge: convex, ccw
                    a, b = corners[m - 1], corners[m]
                    assert all(frac_orient_exact(a, b, c) == 1 for c in corners if c not in (a, b))
                ties += len(face) > 3
            edges = {(face[m - 1], face[m]): (f, (m - 1) % len(face))
                     for f, face in enumerate(faces) for m in range(len(face))}
            assert sum(map(len, faces)) == len(edges) and where == edges
            assert sum(frac_twice_area([points[i] for i in face]) for face in faces) \
                == frac_twice_area(convex_hull(points))
        assert ties  # the grids have faces of four and more points


# --- the hyperedge circles from the shared integer frame ----------------------

def circle_bits(circle):
    """A circle's three floats as hex strings, so -0.0 and 0.0 differ."""
    return circle.center.x.hex(), circle.center.y.hex(), circle.radius.hex()


class TestCirclesFromTheFrame:
    """Each hyperedge circle is ``circumcircle`` of its sorted triple, to the bit.

    The engine reads the triple's integers from the frame that the whole input
    was scaled into once, at the input's 2**k, where ``circumcircle`` scales
    the three points alone; both round the same exact rationals once.
    """

    @staticmethod
    def regular_configs():
        ring = ring_config(random.Random(71), 12, 18)
        yield ring
        yield mapped_config(ring, lambda v: Point(v.x + 1e9, v.y - 1e9))
        yield mapped_config(ring, lambda v: Point(math.ldexp(v.x, -40), math.ldexp(v.y, -40)))
        rng = random.Random(72)
        sizes = [rng.randint(1, 3) for _ in range(60)]  # p inner points, at least 3 outer
        grids = [grid_config(rng, p, n=p + rng.randint(3, 5)) for p in sizes]
        regular = [cfg for cfg in grids if check_regularity(cfg).ok]
        assert len(regular) >= 10
        yield from regular

    def test_circles_equal_circumcircle_field_by_field(self):
        for cfg in self.regular_configs():
            assert check_regularity(cfg).ok
            pts = labeled_points(cfg)
            index = {ref: i for i, (ref, _) in enumerate(pts)}
            edges = empty_circle_triples(cfg)
            assert edges
            for e in edges:
                a, b, c = (pts[i][1] for i in sorted(index[r] for r in e.refs))
                assert circle_bits(e.circle) == circle_bits(circumcircle(a, b, c))

    def test_centre_beyond_the_float_range_raises_as_circumcircle_does(self):
        # regular; the only triple's circumcentre lies ~5e309 out
        cfg = FocalConfig.of([(100000.0, 1e-300)], [(0.0, 0.0), (200000.0, 0.0)])
        assert check_regularity(cfg).ok
        with pytest.raises(NumericalDegeneracy) as want:
            circumcircle(*cfg.points)
        with pytest.raises(NumericalDegeneracy) as got:
            empty_circle_triples(cfg)
        assert str(got.value) == str(want.value)


# --- the tables of pairwise cross products and squared distances --------------

class TestPairwiseTables:
    """``_tables`` against integers computed directly from the points at 2**k.

    Every triple's cross product and the dot product behind its circle key are
    sums of three table entries; both identities are checked on every ordered
    triple, so a wrong entry anywhere in either table shows.
    """

    @staticmethod
    def configs():
        ring = ring_config(random.Random(81), 12, 18)
        yield ring
        yield mapped_config(ring, lambda v: Point(v.x + 1e9, v.y - 1e9))
        for k in (-40, 200):
            yield mapped_config(ring, lambda v: Point(math.ldexp(v.x, k), math.ldexp(v.y, k)))
        rng = random.Random(82)
        for _ in range(5):
            yield grid_config(rng, rng.randint(2, 6), n=10)
        yield from mixed_magnitude_configs(random.Random(83), 40)

    @staticmethod
    def scaled_points(cfg: FocalConfig, k: int):
        """The points of cfg at 2**k, in ``labeled_points`` order, as Python integers."""
        out = []
        for _, p in labeled_points(cfg):
            x, y = Fraction(p.x) * 2**k, Fraction(p.y) * 2**k
            assert x.denominator == y.denominator == 1
            out.append((int(x), int(y)))
        return out

    def test_x_antisymmetric_and_s_symmetric_with_zero_diagonals(self):
        for cfg in self.configs():
            k, xs, ys, X, S = _tables(cfg)
            n = len(xs)
            assert list(zip(xs, ys)) == self.scaled_points(cfg, k)
            assert len(X) == len(S) == n and all(len(row) == n for row in X + S)
            for p in range(n):
                assert X[p][p] == S[p][p] == 0
                for q in range(n):
                    assert X[q][p] == -X[p][q] and S[q][p] == S[p][q]

    def test_additions_give_each_triple_exactly(self):
        for cfg in self.configs():
            k, _, _, X, S = _tables(cfg)
            pts = self.scaled_points(cfg, k)
            for a, b, c in permutations(range(len(pts)), 3):
                (ax, ay), (bx, by), (cx, cy) = pts[a], pts[b], pts[c]
                cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
                dot = (cx - ax) * (cx - bx) + (cy - ay) * (cy - by)
                assert X[a][b] + X[b][c] - X[a][c] == cross
                assert S[a][c] + S[b][c] - S[a][b] == 2 * dot


# --- the float certificate in front of the exact loop -------------------------

def exact_loop(cfg: FocalConfig) -> RegularityReport:
    """``check_regularity``'s exact loop alone: the certificate patched to decide nothing."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polygon, "_certified_regular", lambda tables: False)
        return check_regularity.__wrapped__(cfg)


# the lattice points at distance 5 from the origin
_RADIUS_5 = ((3, 4), (4, 3), (5, 0), (4, -3), (3, -4), (0, -5),
             (-3, -4), (-4, -3), (-5, 0), (-4, 3), (-3, 4), (0, 5))


def tied_integer_points(rng: random.Random) -> tuple[list, list]:
    """Integer points with an exactly collinear triple or concircular quadruple: (all, tied).

    The tie sits among two to five other random points, all within a box of width 200.
    """
    cx, cy = rng.randint(-50, 50), rng.randint(-50, 50)
    if rng.random() < 0.5:
        while True:
            dx, dy = rng.randint(-6, 6), rng.randint(-6, 6)
            if dx or dy:
                break
        tied = [(cx + t * dx, cy + t * dy) for t in rng.sample(range(-5, 6), 3)]
    else:
        m = rng.randint(1, 9)
        tied = [(cx + m * u, cy + m * v) for u, v in rng.sample(_RADIUS_5, 4)]
    pts = set(tied)
    while len(pts) < len(tied) + rng.randint(2, 5):
        pts.add((rng.randint(-100, 100), rng.randint(-100, 100)))
    pts = sorted(pts)
    rng.shuffle(pts)
    return pts, tied


def scaled_shifted(pts, e: int, ox: int, oy: int) -> list:
    """(x + ox, y + oy) * 2**e for integer points: exact floats for |e| <= 1000."""
    return [(math.ldexp(x + ox, e), math.ldexp(y + oy, e)) for x, y in pts]


def split(pts, rng: random.Random) -> FocalConfig:
    p = rng.randint(1, len(pts) - 1)
    return FocalConfig.of(pts[:p], pts[p:])


class TestFloatCertificate:
    """``_certified_regular`` never certifies an irregular input, and gives the loop's report.

    Certified, ``check_regularity`` returns ``RegularityReport(True, (), ())``, which is what
    the exact loop returns on regular input; on anything else the loop runs.  So the report
    always equals the loop's, and the certificate must refuse every input with an exact tie,
    at any power-of-two scale and shift, whatever its floats round to.
    """

    @staticmethod
    def seeded_corpus():
        rng = random.Random(91)
        for p, q, count in ((4, 6, 300), (8, 12, 300), (12, 18, 150), (16, 24, 40),
                            (32, 48, 10)):
            yield from (ring_config(rng, p, q) for _ in range(count))
        yield from (grid_config(rng, rng.randint(2, 8)) for _ in range(200))
        yield from dense_grid_configs(10)

    def test_report_equals_the_exact_loop_on_seeded_inputs(self):
        count = certified = 0
        for cfg in self.seeded_corpus():
            report = check_regularity(cfg)
            assert report == exact_loop(cfg)
            count += 1
            certified += _certified_regular(_tables(cfg))
        assert count >= 1000 and 0 < certified < count

    def test_exact_ties_never_certify_at_any_scale_and_shift(self):
        rng = random.Random(92)
        for _ in range(400):
            pts, _ = tied_integer_points(rng)
            e = rng.randint(-1000, 1000)
            ox, oy = rng.randint(-2**20, 2**20), rng.randint(-2**20, 2**20)
            cfg = split(scaled_shifted(pts, e, ox, oy), rng)
            assert not _certified_regular(_tables(cfg))
            report = check_regularity(cfg)
            assert not report.ok and report == exact_loop(cfg)

    def test_ties_moved_by_one_ulp_get_the_exact_loops_verdict(self):
        rng = random.Random(93)
        outcomes = Counter()
        for _ in range(400):
            pts, tied = tied_integer_points(rng)
            e = rng.randint(-1000, 1000)
            ox, oy = rng.choice((0, rng.randint(-2**20, 2**20))), rng.randint(-2**20, 2**20)
            moved = scaled_shifted(pts, e, ox, oy)
            k = pts.index(rng.choice(tied))
            moved = nudged(moved, k, rng.randint(0, 1), rng.choice((math.inf, -math.inf)))
            cfg = split(moved, rng)
            report = check_regularity(cfg)
            assert report == exact_loop(cfg)
            outcomes[report.ok, _certified_regular(_tables(cfg))] += 1
        assert not outcomes[False, True]
        # the move leaves some ties irregular, makes some regular in a way the floats
        # prove, and some regular only the exact loop can tell
        assert outcomes[False, False] and outcomes[True, True] and outcomes[True, False]

    def test_rings_never_enter_the_exact_loop_and_grids_always_do(self, monkeypatch):
        verdicts = []
        certify = polygon._certified_regular
        monkeypatch.setattr(polygon, "_certified_regular",
                            lambda tables: verdicts.append(certify(tables)) or verdicts[-1])
        rng = random.Random(94)
        for p, q, count in ((4, 6, 100), (8, 12, 100), (12, 18, 50), (16, 24, 10),
                            (32, 48, 3)):
            for _ in range(count):
                assert check_regularity(ring_config(rng, p, q)).ok
        assert verdicts == [True] * 263
        verdicts.clear()
        grids = [grid_config(rng, rng.randint(2, 8)) for _ in range(100)] + dense_grid_configs(10)
        for cfg in grids:
            assert not check_regularity(cfg).ok
        assert verdicts == [False] * 110
