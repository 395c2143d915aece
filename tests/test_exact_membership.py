"""Exact body membership against a rational nearest-site oracle.

``EquidistantBody.contains_strict``, ``ConvexComponent.contains`` and
``ConvexComponent.min_signed`` read the integer rows each component stores;
``membership`` reads the focal points alone.  Their signs must be the exact
ones, also within a few ulps of the boundary chains, where float bisector
half-planes misjudged thousands of probes, and far from the origin, where a
band scaled by the coordinates called most probes boundary.  The oracle
compares squared distances to the focal points in ``Fraction`` arithmetic: q
is strictly inside the body when its nearest focal point is inner, on its
boundary when the nearest inner and outer points are equally near, and the
slack of q on the row of site x and outer point y is |q - y|^2 - |q - x|^2 up
to a positive factor.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from equidist.body import (
    MEMBER_BOUNDARY,
    MEMBER_INSIDE,
    MEMBER_OUTSIDE,
    FocalConfig,
    Rect,
    build_body,
    convex_component,
    membership,
)
from equidist.polygon import extract_boundary
from equidist.primitives import Point
from test_exact_graph import (
    EXAMPLES,
    KINDS,
    MIXED,
    SEEDS,
    SIZES,
    grid_config,
    mapped_config,
    ring_config,
)


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _sq(q: Point, p: Point) -> Fraction:
    dx, dy = Fraction(q.x) - Fraction(p.x), Fraction(q.y) - Fraction(p.y)
    return dx * dx + dy * dy


def _ulps(t: float, n: int) -> float:
    for _ in range(abs(n)):
        t = math.nextafter(t, math.copysign(math.inf, n))
    return t


def near_boundary_probes(cfg):
    """Every chain vertex and edge midpoint, moved by -2 ... 2 ulps in x and in y."""
    points = []
    for chain in extract_boundary(cfg):
        vs = chain.vertices
        points += vs
        points += [Point((a.x + b.x) / 2, (a.y + b.y) / 2) for a, b in zip(vs, vs[1:] + vs[:1])]
    return [Point(_ulps(v.x, i), _ulps(v.y, j)) for v in points
            for i in range(-2, 3) for j in range(-2, 3)]


def _snap(v: Point) -> Point:
    return Point(round(v.x * 2**10) / 2**10, round(v.y * 2**10) / 2**10)


def boundary_midpoints(cfg):
    """(m, x, y) for each inner x and outer y whose float midpoint m the oracle finds
    equidistant from x and y and nearer to no other focal point: m is on the boundary."""
    found = []
    for x in cfg.inner:
        for y in cfg.outer:
            m = Point((x.x + y.x) / 2, (x.y + y.y) / 2)
            d = _sq(m, x)
            if d == _sq(m, y) and all(_sq(m, v) >= d for v in cfg.points):
                found.append((m, x, y))
    return found


def pair_probes(cfg):
    """Each boundary midpoint m of x and y, and m moved by t * (y - x), 1e-15 <= |t| <= 1e-7."""
    probes = []
    for m, x, y in boundary_midpoints(cfg):
        probes.append(m)
        probes += [Point(m.x + t * (y.x - x.x), m.y + t * (y.y - x.y))
                   for e in (15, 13, 11, 9, 7) for t in (10.0**-e, -(10.0**-e))]
    return probes


def membership_mismatches(cfg, probes=None):
    """The probes on which a membership method of the body disagrees with the oracle.

    Every component of the body has the outer set as its bisector rows, so its
    least exact slack at q has the sign of min(min_y |q - y|^2 - |q - site|^2,
    the slacks of q on the box sides).
    """
    body = build_body(cfg)
    if probes is None:
        probes = near_boundary_probes(cfg)
    box = body.clip
    bad = []
    for q in probes:
        sq = {p: _sq(q, p) for p in cfg.points}
        to_inner, to_outer = min(sq[x] for x in cfg.inner), min(sq[y] for y in cfg.outer)
        qx, qy = Fraction(q.x), Fraction(q.y)
        to_box = min(qy - Fraction(box.ymin), Fraction(box.xmax) - qx,
                     Fraction(box.ymax) - qy, qx - Fraction(box.xmin))
        if body.contains_strict(q) != (to_inner < to_outer):
            bad.append(("contains_strict", q))
        want = (MEMBER_INSIDE, MEMBER_BOUNDARY, MEMBER_OUTSIDE)[_sign(to_inner - to_outer) + 1]
        if membership(q, cfg) != want:
            bad.append(("membership", q))
        for comp in body.components:
            want = _sign(min(to_outer - sq[comp.site], to_box))
            if _sign(comp.min_signed(q)) != want:
                bad.append(("min_signed", q))
            if comp.contains(q) != (want >= 0):
                bad.append(("contains", q))
    return bad, len(probes)


def test_exact_signs_near_the_boundary_of_ring_and_grid_bodies():
    rng = random.Random(16)
    for cfg in (ring_config(rng, 8, 12), ring_config(rng, 8, 12),
                grid_config(rng, 8, 20), grid_config(rng, 8, 20)):
        bad, probes = membership_mismatches(cfg)
        assert probes > 500
        assert bad == []


def test_extreme_scales_and_mixed_magnitudes():
    rng = random.Random(17)
    cfg = ring_config(rng, 4, 8)
    for k in (-500, 500):
        scaled = mapped_config(cfg, lambda v: Point(math.ldexp(v.x, k), math.ldexp(v.y, k)))
        bad, probes = membership_mismatches(scaled)
        assert probes > 0 and bad == []
    assert membership_mismatches(MIXED)[0] == []


def test_membership_on_and_off_the_boundary_of_ring_grid_and_shifted_bodies():
    rng = random.Random(19)
    ring = mapped_config(ring_config(rng, 8, 12), _snap)
    shifted = mapped_config(ring, lambda v: Point(v.x + 2.0**30, v.y - 2.0**30))
    on = 0
    for cfg in (ring, grid_config(rng, 8, 20), shifted):
        bad, probes = membership_mismatches(cfg, pair_probes(cfg))
        assert bad == []
        on += len(boundary_midpoints(cfg))
    assert on >= 10


@pytest.mark.parametrize("shift", [2**20, 2**30, 2**33])
def test_membership_unchanged_by_exact_shifts(shift):
    rng = random.Random(1)
    cfg = mapped_config(ring_config(rng, 8, 12), _snap)
    clip = build_body(cfg).clip
    probes = [_snap(Point(rng.uniform(clip.xmin, clip.xmax), rng.uniform(clip.ymin, clip.ymax)))
              for _ in range(3000)]
    probes += [m for m, _, _ in boundary_midpoints(cfg)]

    def f(v: Point) -> Point:
        return Point(v.x + shift, v.y + shift)

    assert all(f(q).x - shift == q.x and f(q).y - shift == q.y for q in probes)  # exact
    want = [membership(q, cfg) for q in probes]
    assert MEMBER_BOUNDARY in want
    assert [membership(f(q), mapped_config(cfg, f)) for q in probes] == want


def test_far_probes_are_decided_exactly():
    # in floats the distances to both sets are equal at these probes
    cfg = FocalConfig.of([(0, 0)], [(2, 0), (-2, 0), (0, 2)])
    assert membership(Point(1e20, 1e20), cfg) == MEMBER_OUTSIDE
    assert membership(Point(0.0, -1e20), cfg) == MEMBER_INSIDE


def test_non_finite_probes_are_outside():
    cfg = ring_config(random.Random(18), 3, 8)
    body = build_body(cfg)
    for v in (math.inf, -math.inf, math.nan):
        for q in (Point(v, 0.0), Point(0.0, v), Point(v, v)):
            assert membership(q, cfg) == MEMBER_OUTSIDE
            assert body.contains_strict(q) is False
            for comp in body.components:
                assert comp.contains(q) is False
                assert comp.min_signed(q) == -math.inf


def test_signed_distance_keeps_its_sign_where_it_underflows():
    u = math.ulp(0.0)  # the bisector of (0, 0) and (3u, 5u) is 3X + 5Y = 17 in units of u
    comp = convex_component(Point(0.0, 0.0), [Point(3 * u, 5 * u)], Rect(-1.0, -1.0, 1.0, 1.0))
    assert comp.min_signed(Point(2 * u, 2 * u)) > 0.0
    assert comp.min_signed(Point(u, 3 * u)) < 0.0
    assert not comp.contains(Point(u, 3 * u))
    on_row = Point(4 * u, u)
    assert comp.min_signed(on_row) == 0.0 and comp.contains(on_row)


def test_distance_is_exactly_zero_on_a_row():
    comp = convex_component(Point(0.0, 0.0), [Point(2.0, 0.0)], Rect(-10.0, -10.0, 10.0, 10.0))
    assert comp.min_signed(Point(1.0, 5.0)) == 0.0
    assert comp.min_signed(Point(-10.0, 3.0)) == 0.0
    assert comp.min_signed(Point(0.0, 0.0)) == 1.0


def _probe_config(kind: str, seed: int, p: int):
    rng = random.Random(seed)
    return ring_config(rng, p, 8) if kind == "ring" else grid_config(rng, p)


def _similarity(k: int, turns: int):
    """Quarter turns, then scaling by 2**k: exact on floats away from the subnormals."""
    def f(v: Point) -> Point:
        for _ in range(turns):
            v = Point(-v.y, v.x)
        return Point(math.ldexp(v.x, k), math.ldexp(v.y, k))
    return f


@EXAMPLES
@given(kind=KINDS, seed=SEEDS, p=SIZES, k=st.integers(-30, 30), turns=st.integers(0, 3))
def test_contains_strict_under_rotation_and_power_of_two_scaling(kind, seed, p, k, turns):
    f = _similarity(k, turns)
    cfg = _probe_config(kind, seed, p)
    # nudged zeros are subnormal, and scaling a subnormal by 2**k is not exact
    probes = [q for q in near_boundary_probes(cfg)
              if all(c == 0.0 or abs(c) > 2.0**-900 for c in (q.x, q.y))]
    body, mapped = build_body(cfg), build_body(mapped_config(cfg, f))
    assert ([mapped.contains_strict(f(q)) for q in probes]
            == [body.contains_strict(q) for q in probes])


@EXAMPLES
@given(kind=KINDS, seed=SEEDS, p=SIZES, k=st.integers(-30, 30), turns=st.integers(0, 3))
def test_membership_under_rotation_and_power_of_two_scaling(kind, seed, p, k, turns):
    f = _similarity(k, turns)
    cfg = mapped_config(_probe_config(kind, seed, p), _snap)
    probes = [q for q in near_boundary_probes(cfg) + pair_probes(cfg)
              if all(c == 0.0 or abs(c) > 2.0**-900 for c in (q.x, q.y))]
    mapped = mapped_config(cfg, f)
    assert [membership(f(q), mapped) for q in probes] == [membership(q, cfg) for q in probes]
