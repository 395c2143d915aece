"""Regularity, hypergraph vertices, boundary chains, vertex bound, Voronoi."""

import math
import random
from collections import Counter
from itertools import combinations

import pytest

from conftest import (
    coord_scale,
    in_float_band,
    random_bounded_config,
    random_generic_32,
    random_pentagon_config,
)
from equidist.body import (
    MEMBER_INSIDE,
    MEMBER_OUTSIDE,
    FocalConfig,
    build_body,
    membership,
)
from equidist.errors import RegularityViolated, Unbounded
from equidist.polygon import (
    COLOR_XYX,
    COLOR_YXY,
    FocalRef,
    HyperEdge,
    check_regularity,
    check_vertex_bound,
    classify_vertices,
    colored_weight_bound,
    empty_circle_triples,
    extract_boundary,
    inactive_focals,
    labeled_points,
    ref_point,
    voronoi_check,
)
from equidist.primitives import Point, circumcircle, dist, incircle, viewing_angle
from test_exact_graph import ring_config
from test_integer_exact import frac_incircle_exact, frac_orient_exact

SQUARE = FocalConfig.of([(0, 0)], [(2, 0), (-2, 0), (0, 2), (0, -2)])


class TestCheckRegularity:
    def test_clean_config(self):
        cfg = FocalConfig.of([(0.1, 0.2)], [(2, -1), (-2, -1.1), (0.3, 2)])
        rep = check_regularity(cfg)
        assert rep.ok and rep.collinear == () and rep.concircular == ()

    def test_collinear_violation_listed(self):
        cfg = FocalConfig.of([(0.5, 1)], [(0, 0), (1, 0), (2, 0), (0.5, 3)])
        rep = check_regularity(cfg)
        assert not rep.ok
        triple = (FocalRef("outer", 0), FocalRef("outer", 1), FocalRef("outer", 2))
        assert triple in rep.collinear

    def test_concircular_violation_listed(self):
        # (3,4), (5,0), (-3,4), (0,-5) lie exactly on the circle of radius 5
        cfg = FocalConfig.of([(0.25, 0.125)], [(3, 4), (5, 0), (-3, 4), (0, -5)])
        rep = check_regularity(cfg)
        assert not rep.ok
        assert len(rep.concircular) == 1
        assert {r.kind for r in rep.concircular[0]} == {"outer"}

    def test_near_degenerate_perturbation_exact(self):
        # shifting one concircular point by 1e-17 near the origin is enough
        # to clear the violation, decided by the exact predicate path
        cfg = FocalConfig.of([(0.25, 0.125)], [(3, 4), (5, 0), (-3, 4), (1e-17, -5)])
        assert check_regularity(cfg).ok
        near = FocalConfig.of([(0.25, 0.125 + 1e-17)],
                              [(0, 0), (1, 0), (2, 0), (0.25, 3)])
        rep = check_regularity(near)
        assert not rep.ok and len(rep.collinear) == 1

    def test_square_config_is_concircular(self):
        rep = check_regularity(SQUARE)
        assert not rep.ok and len(rep.concircular) == 1


# the integer points of x^2 + y^2 = 25
CIRCLE_25 = [(3, 4), (4, 3), (5, 0), (4, -3), (3, -4), (0, -5), (-3, -4), (-4, -3),
             (-5, 0), (-4, 3), (-3, 4), (0, 5)]


def frac_incircle(a, b, c, d):
    """+1 iff d lies strictly inside the circle through a, b and c, in Fractions."""
    return frac_orient_exact(a, b, c) * frac_incircle_exact(a, b, c, d)


def near_concircular_edge(rng):
    """A colored triple (a, lone point, b) and a fourth point, all of x^2 + y^2 = 25
    scaled by 2**k, one coordinate of one of them moved by 1 to 8 ulps, and a large
    outer triangle around them."""
    k = rng.randint(-20, 20)
    quad = [[math.ldexp(x, k), math.ldexp(y, k)] for x, y in rng.sample(CIRCLE_25, 4)]
    m, c, toward = rng.randrange(4), rng.randrange(2), rng.choice([-math.inf, math.inf])
    for _ in range(rng.randint(1, 8)):
        quad[m][c] = math.nextafter(quad[m][c], toward)
    pair, lone = rng.choice([("inner", "outer"), ("outer", "inner")])
    groups = {"inner": [], "outer": []}
    refs = []
    for (x, y), kind in zip(quad, (pair, lone, pair, rng.choice([pair, lone]))):
        refs.append(FocalRef(kind, len(groups[kind])))
        groups[kind].append(Point(x, y))
    groups["outer"] += [Point(math.ldexp(x, k), math.ldexp(y, k))
                        for x, y in ((0, 1000), (-1000, -1000), (1000, -1000))]
    cfg = FocalConfig(tuple(groups["inner"]), tuple(groups["outer"]))
    a, v, b = (ref_point(cfg, r) for r in refs[:3])
    edge = HyperEdge(refs=tuple(refs[:3]), color=COLOR_XYX if lone == "outer" else COLOR_YXY,
                     circle=circumcircle(a, v, b), weight=viewing_angle(v, a, b))
    return cfg, edge


class TestEmptyCircleTriples:
    def test_refuses_irregular(self):
        with pytest.raises(RegularityViolated):
            empty_circle_triples(SQUARE)

    def test_four_points_brute_force(self):
        cfg = FocalConfig.of([(0.2, 0.3)], [(3, -1), (-2.5, -1.2), (0.1, 2.7)])
        edges = empty_circle_triples(cfg)
        pts = labeled_points(cfg)
        # independent brute force over all 4 triples
        expect = 0
        for chosen in combinations(range(4), 3):
            a, b, c = (pts[i][1] for i in chosen)
            rest = [pts[i][1] for i in range(4) if i not in chosen]
            if all(incircle(a, b, c, z) < 0 for z in rest):
                expect += 1
        assert len(edges) == expect
        # every returned triple is re-verified empty
        for e in edges:
            trip = [pts_point for ref, pts_point in pts
                    if ref in e.refs]
            others = [p for ref, p in pts if ref not in e.refs]
            for z in others:
                assert incircle(*trip, z) < 0

    def test_generic_32_colored_edge_pattern(self):
        # after relabeling by the ordering report, the colored edges are
        # exactly {Y1,X1,Y2}, {Y2,X2,Y3}, {Y3,X1,Y1}, {X1,Y2,X2}, {X1,Y3,X2}
        from equidist.type32 import classify_generic_32

        rng = random.Random(31)
        for _ in range(10):
            cfg = random_generic_32(rng)
            rep = classify_generic_32(cfg)
            assert rep.labeling is not None
            xo, yo = rep.labeling
            xmap = {xo[0]: 0, xo[1]: 1}
            ymap = {yo[0]: 0, yo[1]: 1, yo[2]: 2}

            def relabel(ref):
                if ref.kind == "inner":
                    return ("inner", xmap[ref.index])
                return ("outer", ymap[ref.index])

            colored = set()
            for e in empty_circle_triples(cfg):
                if e.color in (COLOR_XYX, COLOR_YXY):
                    a, mid, b = (relabel(r) for r in e.refs)
                    lo, hi = sorted([a, b])
                    colored.add((lo, mid, hi))
            want = {
                (("outer", 0), ("inner", 0), ("outer", 1)),
                (("outer", 1), ("inner", 1), ("outer", 2)),
                (("outer", 0), ("inner", 0), ("outer", 2)),
                (("inner", 0), ("outer", 1), ("inner", 1)),
                (("inner", 0), ("outer", 2), ("inner", 1)),
            }
            assert colored == want

    def test_weight_inequality_agrees_with_incircle(self):
        # the max-angle inequality holds exactly when the triple's circle is
        # empty: both tests must agree on every colored triple
        rng = random.Random(32)
        for _ in range(8):
            cfg = random_bounded_config(rng, p_max=3, q_max=5, require_regular=True)
            edges = empty_circle_triples(cfg)
            retained = {frozenset(e.refs) for e in edges}
            pts = labeled_points(cfg)
            for chosen in combinations(pts, 3):
                kinds = sorted(r.kind for r, _ in chosen)
                if kinds not in (["inner", "inner", "outer"],
                                 ["inner", "outer", "outer"]):
                    continue
                lone_kind = "outer" if kinds.count("inner") == 2 else "inner"
                lone = next(t for t in chosen if t[0].kind == lone_kind)
                pair = [t for t in chosen if t[0].kind != lone_kind]
                refs = (pair[0][0], lone[0], pair[1][0])
                a, v, b = pair[0][1], lone[1], pair[1][1]
                empty = all(incircle(a, v, b, z) < 0 for r, z in pts
                            if r not in refs)
                assert empty == (frozenset(refs) in retained)
                color = COLOR_XYX if lone_kind == "outer" else COLOR_YXY
                probe = HyperEdge(refs=refs, color=color,
                                  circle=circumcircle(a, v, b),
                                  weight=viewing_angle(v, a, b))
                wb = colored_weight_bound(cfg, probe)
                # empty circle <=> the weight attains the same-side maximum
                # and stays below pi minus the opposite-side maximum
                assert (wb.holds and wb.attained) == empty

    def test_weight_flags_are_exact_on_near_concircular_triples(self):
        # one point of an exactly concircular quadruple moved by a few ulps: the
        # float angles cannot tell which side of the circle it went to
        flags = set()
        for seed in range(600):
            cfg, edge = near_concircular_edge(random.Random(seed))
            a, v, b = (ref_point(cfg, r) for r in edge.refs)
            side = frac_orient_exact(a, b, v)
            pts = [z for _, z in labeled_points(cfg)]
            plus = [z for z in pts if frac_orient_exact(a, b, z) == side]
            minus = [z for z in pts if frac_orient_exact(a, b, z) == -side]
            wb = colored_weight_bound(cfg, edge)
            assert wb.attained == all(frac_incircle(a, v, b, z) <= 0 for z in plus)
            assert wb.holds == all(frac_incircle(a, b, y, z) < 0 for y in plus for z in minus)
            flags.add((wb.holds, wb.attained))
        assert flags == {(True, True), (True, False), (False, True)}

    def test_witness_placement(self):
        rng = random.Random(33)
        seen_mono = 0
        for _ in range(15):
            cfg = random_bounded_config(rng, p_max=4, q_max=6, require_regular=True)
            edges = empty_circle_triples(cfg)
            cls = classify_vertices(edges)
            for w in cls.interior_witnesses:
                assert membership(w, cfg) == MEMBER_INSIDE
                seen_mono += 1
            for w in cls.exterior_witnesses:
                assert membership(w, cfg) == MEMBER_OUTSIDE
                seen_mono += 1
        assert seen_mono > 10  # the corpus must actually exercise witnesses

    def test_classify_vertex_types(self):
        rng = random.Random(34)
        cfg = random_generic_32(rng)
        edges = empty_circle_triples(cfg)
        cls = classify_vertices(edges)
        for e in edges:
            if e.color == COLOR_YXY:
                assert (e.circle.center, "convex") in cls.vertices
            elif e.color == COLOR_XYX:
                assert (e.circle.center, "concave") in cls.vertices

    def test_inactive_filter(self):
        # a deep interior inner point shadowed by another stays inactive
        cfg = FocalConfig.of([(0, 0), (0.05, 0)],
                             [(4.03, 0.11), (-3.9, 0.07), (0.13, 4.1), (-0.04, -3.8)])
        edges = empty_circle_triples(cfg)
        inact = inactive_focals(cfg, edges)
        assert isinstance(inact, tuple)
        active = set()
        for e in edges:
            if e.color in (COLOR_XYX, COLOR_YXY):
                active.update(e.refs)
        for ref in inact:
            assert ref not in active


class TestExtractBoundary:
    def test_square_exact(self):
        chains = extract_boundary(SQUARE)
        assert len(chains) == 1
        got = sorted((v.x, v.y) for v in chains[0].vertices)
        want = [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]
        for (gx, gy), (wx, wy) in zip(got, want):
            assert abs(gx - wx) < 1e-12 and abs(gy - wy) < 1e-12
        assert all(vi.angle_type == "convex" for vi in chains[0].vertex_info)

    def test_chain_is_ccw_and_edges_on_bisectors(self):
        rng = random.Random(35)
        for _ in range(10):
            cfg = random_bounded_config(rng)
            chains = extract_boundary(cfg)
            scale = coord_scale(cfg)
            for ch in chains:
                assert ch.signed_area() > 0
                n = len(ch.vertices)
                for m in range(n):
                    a, b = ch.vertices[m], ch.vertices[(m + 1) % n]
                    i, j = ch.edge_pairs[m]
                    mid = Point((a.x + b.x) / 2, (a.y + b.y) / 2)
                    # edge midpoint equidistant from its generating pair
                    assert abs(dist(mid, cfg.inner[i]) - dist(mid, cfg.outer[j])) < 1e-9 * scale
                    assert in_float_band(mid, cfg, 1e-8)

    def test_vertices_equidistant(self):
        rng = random.Random(36)
        for _ in range(10):
            cfg = random_bounded_config(rng)
            scale = coord_scale(cfg)
            for ch in extract_boundary(cfg):
                for v in ch.vertices:
                    dk = min(dist(v, p) for p in cfg.inner)
                    dl = min(dist(v, p) for p in cfg.outer)
                    assert abs(dk - dl) < 1e-9 * scale

    def test_generic_32_pentagon(self):
        rng = random.Random(37)
        cfg, ch = random_pentagon_config(rng)
        assert len(ch.vertices) == 5
        concave = [vi for vi in ch.vertex_info if vi.angle_type == "concave"]
        assert len(concave) == 2
        # concave vertices are inner changes, convex are outer changes
        for vi in ch.vertex_info:
            if vi.angle_type == "concave":
                assert vi.change_type == "inner"
            else:
                assert vi.change_type == "outer"

    def test_separated_two_chains(self):
        cfg = FocalConfig.of([(-5, 0), (5, 0)],
                             [(10, 0), (-10, 0), (0, 10), (0, -10), (0, 0)])
        chains = extract_boundary(cfg)
        assert len(chains) == 2

    def test_vertices_match_colored_centers(self):
        rng = random.Random(38)
        for _ in range(8):
            cfg = random_bounded_config(rng, require_regular=True)
            chains = extract_boundary(cfg)
            edges = empty_circle_triples(cfg)
            centers = [e.circle.center for e in edges
                       if e.color in (COLOR_XYX, COLOR_YXY)]
            scale = coord_scale(cfg)
            for ch in chains:
                for v in ch.vertices:
                    assert min(dist(v, c) for c in centers) < 1e-9 * scale

    def test_concave_count_matches_xyx_centers(self):
        rng = random.Random(39)
        for _ in range(8):
            cfg = random_bounded_config(rng, require_regular=True)
            chains = extract_boundary(cfg)
            if len(chains) != 1:
                continue
            ch = chains[0]
            edges = empty_circle_triples(cfg)
            xyx_centers = [e.circle.center for e in edges if e.color == COLOR_XYX]
            scale = coord_scale(cfg)
            n_concave = sum(1 for vi in ch.vertex_info if vi.angle_type == "concave")
            matched = sum(1 for v, vi in zip(ch.vertices, ch.vertex_info)
                          if vi.angle_type == "concave"
                          and xyx_centers
                          and min(dist(v, c) for c in xyx_centers) < 1e-9 * scale)
            assert matched == n_concave

    @pytest.mark.parametrize("seed", [11, 12])
    def test_regular_chain_vertices_are_the_colored_centres_once_each(self, seed):
        # a chain vertex and a colored triangle's circumcentre are one exact point
        # rounded once; unmerged (eps 0), each colored triangle gives one chain vertex
        rng = random.Random(seed)
        checked = 0
        for p, q in [(8, 12), (12, 18)] * 40:
            cfg = ring_config(rng, p, q)
            if not check_regularity(cfg).ok:
                continue
            walked = Counter((v, vi.angle_type) for ch in extract_boundary(cfg, 0.0)
                             for v, vi in zip(ch.vertices, ch.vertex_info))
            colored = classify_vertices(empty_circle_triples(cfg)).vertices
            assert walked == Counter(colored) and len(set(colored)) == len(colored)
            checked += 1
        assert checked >= 60

    def test_unbounded_raises(self):
        with pytest.raises(Unbounded):
            extract_boundary(FocalConfig.of([(0, 3)], [(2, -1), (-2, -1), (0, 2)]))


class TestVertexBound:
    def test_square(self):
        chains = extract_boundary(SQUARE)
        rep = check_vertex_bound(chains[0], SQUARE)
        assert rep.ok and rep.count == 4 and rep.limit == 4

    def test_pentagon(self):
        rng = random.Random(40)
        cfg, ch = random_pentagon_config(rng)
        rep = check_vertex_bound(ch, cfg)
        assert rep.ok and rep.count == 5 and rep.limit == 5

    def test_single_inner_corpus(self):
        # one inner point: the body is the convex component itself, so the
        # chain has at most one vertex per outer point
        rng = random.Random(41)
        checked = 0
        while checked < 40:
            cfg = random_bounded_config(rng, p_max=1, q_max=6, require_regular=True)
            chains = extract_boundary(cfg)
            if len(chains) != 1:
                continue
            rep = check_vertex_bound(chains[0], cfg)
            assert rep.ok and rep.limit == cfg.q
            checked += 1

    def test_32_corpus(self):
        rng = random.Random(43)
        for _ in range(20):
            cfg = random_generic_32(rng)
            chains = extract_boundary(cfg)
            if len(chains) != 1:
                continue
            assert check_vertex_bound(chains[0], cfg).ok

    def test_known_excess_reported_honestly(self):
        # This bounded regular configuration is a genuine counterexample to
        # the p+q vertex bound: its boundary is one simple chain with twelve
        # vertices (all colored circumcenters), two more than p+q = 10.  The
        # checker must report the violation rather than hide it.
        cfg = FocalConfig.of(
            [(-3.952730398033563, -3.680036999758202),
             (-3.538003885192087, -7.095716967004227),
             (-4.279552550169052, -0.848583193473015),
             (-0.442565856072056, -7.33643295141783)],
            [(1.940318471209837, 0.7182075051682535),
             (-6.671487414373676, -7.158261739692994),
             (-4.39977937558962, 3.2148814913182093),
             (8.970327846684079, -6.396267525530628),
             (-3.953728221867494, -1.5982565618170135),
             (-6.938630028842699, -9.437599602564216)])
        assert check_regularity(cfg).ok
        chains = extract_boundary(cfg)
        assert len(chains) == 1
        rep = check_vertex_bound(chains[0], cfg)
        assert not rep.ok and rep.count == 12 and rep.limit == 10
        # independent confirmation that the twelve vertices are real: the
        # chain polygon agrees with the distance oracle everywhere
        from equidist.type32 import point_in_polygon
        body = build_body(cfg)
        rng = random.Random(2)
        for _ in range(3000):
            q = Point(rng.uniform(body.clip.xmin, body.clip.xmax),
                      rng.uniform(body.clip.ymin, body.clip.ymax))
            if in_float_band(q, cfg, 1e-7):
                continue
            m = membership(q, cfg)
            assert point_in_polygon(q, chains[0].vertices) == (m == MEMBER_INSIDE)
        # and every vertex is the circumcenter of a colored hypergraph edge
        edges = empty_circle_triples(cfg)
        centers = [e.circle.center for e in edges
                   if e.color in (COLOR_XYX, COLOR_YXY)]
        assert len(centers) == 12
        for v in chains[0].vertices:
            assert min(dist(v, c) for c in centers) < 1e-9 * coord_scale(cfg)


class TestVoronoiCheck:
    def test_square_analytic(self):
        rep = voronoi_check(SQUARE, n_samples=10000, seed=42)
        assert rep.ok
        assert rep.agreements == rep.samples - rep.ties_skipped

    def test_generic_32(self):
        rng = random.Random(42)
        cfg = random_generic_32(rng)
        rep = voronoi_check(cfg, n_samples=10000, seed=7)
        assert rep.ok

    def test_tie_points_skipped(self):
        # symmetric config: points on the symmetry axis between the two inner
        # sites tie; the sampler must skip rather than judge them
        cfg = FocalConfig.of([(-1, 0), (1, 0)], [(10, 0), (-10, 0), (0, 10), (0, -10)])
        rep = voronoi_check(cfg, n_samples=5000, seed=3)
        assert rep.ok

    def test_unbounded_raises(self):
        with pytest.raises(Unbounded):
            voronoi_check(FocalConfig.of([(0, 3)], [(2, -1), (-2, -1), (0, 2)]),
                          n_samples=10)
