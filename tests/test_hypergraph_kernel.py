"""The hoisted in-circle scan against the brute-force loops, and its invariances.

The reference below is ``check_regularity`` and ``empty_circle_triples`` as
they were before the scan was hoisted: one call of the exact ``orient`` and
``incircle`` per triple and per quadruple.  It is slow but plainly exact, so
it serves as the oracle for both reports, tuple order and floats included.
The near-concircular inputs lie on a circle of radius about 7e7 with a
half-integer centre, so the float determinant rounds: exact zeros come out
as small non-zero floats, and a point moved by one ulp gets float signs of
either kind.  Only the exact fallback decides them.
"""

import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equidist.primitives as primitives
from conftest import random_generic_32
from equidist.body import FocalConfig
from equidist.errors import RegularityViolated
from equidist.polygon import (
    COLOR_XYX,
    COLOR_YXY,
    HyperEdge,
    RegularityReport,
    _triple_color,
    check_regularity,
    empty_circle_triples,
    labeled_points,
)
from equidist.primitives import Point, circumcircle, incircle, orient, viewing_angle
from test_exact_graph import grid_config, mapped_config, ring_config

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


def kernel_fallbacks(monkeypatch, cfg: FocalConfig) -> int:
    """Exact in-circle fallbacks taken by check_regularity and empty_circle_triples."""
    calls = []
    original = primitives._incircle_exact

    def counted(*args):
        calls.append(args)
        return original(*args)

    with monkeypatch.context() as m:
        m.setattr(primitives, "_incircle_exact", counted)
        if check_regularity(cfg).ok:
            empty_circle_triples(cfg)
    return len(calls)


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

    def test_exactly_concircular_with_rounding_floats(self, monkeypatch):
        pts = circle_points(_CIRCLE_DIRS)
        cfg = FocalConfig.of(pts[:3], pts[3:])
        report = assert_matches_reference(cfg)
        assert len(report.concircular) == math.comb(len(pts), 4)
        assert kernel_fallbacks(monkeypatch, cfg) > 0

    def test_near_concircular_configs(self, monkeypatch):
        regular = fallbacks = 0
        for cfg in near_concircular_configs():
            regular += assert_matches_reference(cfg).ok
            fallbacks += kernel_fallbacks(monkeypatch, cfg)
        assert regular > 0
        assert fallbacks > 0


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
