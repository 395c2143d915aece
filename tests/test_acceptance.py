"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  All corpora are seeded and deterministic.
"""

import math
import random
import time

import pytest

from conftest import (
    coord_scale,
    grid_inside_mask,
    random_bounded_config,
    random_concave_quad,
    random_pentagon_config,
    region_count,
    vertex_sets_match,
)
from equidist.body import (
    MEMBER_BOUNDARY,
    MEMBER_INSIDE,
    MEMBER_OUTSIDE,
    FocalConfig,
    build_body,
    convex_component,
    distance_to_set,
    membership,
)
from equidist.connectivity import build_graph, is_connected, is_interior_connected
from equidist.polygon import (
    COLOR_MONO_INNER,
    COLOR_MONO_OUTER,
    check_regularity,
    check_vertex_bound,
    empty_circle_triples,
    extract_boundary,
    voronoi_check,
)
from equidist.primitives import (
    Line,
    Point,
    compose_three_reflections,
    dist,
    incircle,
    orient,
    reflect_point,
    viewing_angle_ccw,
)
from equidist.type32 import label_pentagon, recognize_pentagon

_CORPUS_45 = None


def _corpus_single_chain(seed=42, count=100):
    """Random regular bounded configs (p, q <= 6) whose boundary is one chain."""
    global _CORPUS_45
    if _CORPUS_45 is None:
        rng = random.Random(seed)
        corpus = []
        while len(corpus) < count:
            cfg = random_bounded_config(rng, p_max=6, q_max=6, require_regular=True)
            try:
                chains = extract_boundary(cfg)
            except Exception:
                continue
            if len(chains) == 1:
                corpus.append((cfg, chains[0]))
        _CORPUS_45 = corpus
    return _CORPUS_45


def _report(num, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} ({elapsed:6.2f}s) {detail}")


def test_criterion_1_square_exactness():
    t0 = time.perf_counter()
    cfg = FocalConfig.of([(0, 0)], [(2, 0), (-2, 0), (0, 2), (0, -2)])
    chains = extract_boundary(cfg)
    ok = len(chains) == 1
    chain = chains[0]
    want = {(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)}
    ok = ok and len(chain.vertices) == 4
    for v in chain.vertices:
        ok = ok and any(abs(v.x - wx) <= 1e-12 and abs(v.y - wy) <= 1e-12
                        for wx, wy in want)
    ok = ok and all(vi.angle_type == "convex" for vi in chain.vertex_info)
    ok = ok and cfg.q == 4 and cfg.p == 1  # type (4,1)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(1, ok, elapsed, "square boundary exact, type (4,1) convex")
    assert ok


def test_criterion_2_union_oracle_and_split():
    t0 = time.perf_counter()
    rng = random.Random(2042)
    agreements = probes = 0
    split_agreements = split_probes = 0
    for _ in range(50):
        cfg = random_bounded_config(rng, p_max=4, q_max=6)
        body = build_body(cfg)
        k = cfg.q // 2
        l1, l2 = cfg.outer[:k], cfg.outer[k:]
        comps1 = [convex_component(x, l1, body.clip) for x in cfg.inner]
        comps2 = [convex_component(x, l2, body.clip) for x in cfg.inner]
        scale = coord_scale(cfg)
        done = 0
        while done < 1000:
            q = Point(rng.uniform(body.clip.xmin, body.clip.xmax),
                      rng.uniform(body.clip.ymin, body.clip.ymax))
            m = membership(q, cfg)
            if m == MEMBER_BOUNDARY:
                continue
            done += 1
            probes += 1
            if body.contains_strict(q) == (m == MEMBER_INSIDE):
                agreements += 1
            dk = distance_to_set(q, cfg.inner)
            if any(abs(dk - distance_to_set(q, ls)) <= 1e-9 * scale for ls in (l1, l2)):
                continue
            split_probes += 1
            in_1 = any(c.min_signed(q) > 0 for c in comps1)
            in_2 = any(c.min_signed(q) > 0 for c in comps2)
            if body.contains_strict(q) == (in_1 and in_2):
                split_agreements += 1
    elapsed = time.perf_counter() - t0
    ok = (agreements == probes and split_agreements == split_probes
          and probes == 50000 and elapsed < 30.0)
    _report(2, ok, elapsed,
            f"union oracle {agreements}/{probes}, split {split_agreements}/{split_probes}")
    assert ok


def test_criterion_3_connectivity_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(3042)
    body_ok = interior_ok = 0
    for _ in range(50):
        cfg = random_bounded_config(rng, grid_friendly=True)
        g = build_graph(build_body(cfg))
        margin = 1e-8
        closed_regions = region_count(grid_inside_mask(cfg, n=400, margin=-margin))
        open_regions = region_count(grid_inside_mask(cfg, n=400, margin=margin))
        if is_connected(g) == (closed_regions == 1):
            body_ok += 1
        if is_interior_connected(g) == (open_regions == 1):
            interior_ok += 1
    elapsed = time.perf_counter() - t0
    ok = body_ok == 50 and interior_ok == 50 and elapsed < 60.0
    _report(3, ok, elapsed, f"body {body_ok}/50, interior {interior_ok}/50 vs flood fill")
    assert ok


def test_criterion_4_vertex_bound():
    t0 = time.perf_counter()
    corpus = _corpus_single_chain()
    violations = []
    for cfg, chain in corpus:
        rep = check_vertex_bound(chain, cfg)
        if not rep.ok:
            violations.append((cfg.p, cfg.q, rep.count))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 60.0
    _report(4, ok, elapsed,
            f"{len(violations)} of {len(corpus)} single-chain bodies exceed p+q vertices")
    assert ok, (
        f"{len(violations)} bodies have more than p+q boundary vertices "
        f"(examples (p, q, count): {violations[:5]}). Each excess vertex is a "
        "colored-edge circumcenter and the chain matches the membership "
        "oracle, so the p+q bound itself does not hold for p >= 2."
    )


def test_criterion_5_witness_placement():
    t0 = time.perf_counter()
    corpus = _corpus_single_chain()
    violations = 0
    vertex_misses = 0
    for cfg, chain in corpus:
        edges = empty_circle_triples(cfg)
        scale = coord_scale(cfg)
        centers = []
        for e in edges:
            if e.color == COLOR_MONO_INNER:
                if membership(e.circle.center, cfg) != MEMBER_INSIDE:
                    violations += 1
            elif e.color == COLOR_MONO_OUTER:
                if membership(e.circle.center, cfg) != MEMBER_OUTSIDE:
                    violations += 1
            else:
                centers.append(e.circle.center)
        for v in chain.vertices:
            if min(dist(v, c) for c in centers) > 1e-9 * scale:
                vertex_misses += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and vertex_misses == 0
    _report(5, ok, elapsed,
            f"witness violations {violations}, unmatched vertices {vertex_misses}")
    assert ok


def test_criterion_6_voronoi_correspondence():
    t0 = time.perf_counter()
    rng = random.Random(6042)
    all_ok = True
    for i in range(20):
        cfg = random_bounded_config(rng)
        rep = voronoi_check(cfg, n_samples=10000, seed=6000 + i)
        all_ok = all_ok and rep.ok and rep.agreements + rep.ties_skipped == rep.samples
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 30.0
    _report(6, ok, elapsed, "20 configs x 10000 samples, ties skipped")
    assert ok


def test_criterion_7_pentagon_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(7042)
    failures = 0
    for _ in range(100):
        cfg, chain = random_pentagon_config(rng)
        scale = coord_scale(cfg)
        if len(chain.vertices) != 5:
            failures += 1
            continue
        if sum(1 for vi in chain.vertex_info if vi.angle_type == "concave") != 2:
            failures += 1
            continue
        cert = recognize_pentagon(chain.vertices)
        if cert is None:
            failures += 1
            continue
        got = sorted([(p.x, p.y) for p in (cert.x1, cert.x2)])
        want = sorted([(p.x, p.y) for p in cfg.inner])
        focal_ok = all(math.hypot(g[0] - w[0], g[1] - w[1]) < 1e-9 * scale
                       for g, w in zip(got, want))
        got_o = sorted([(p.x, p.y) for p in (cert.y1, cert.y2, cert.y3)])
        want_o = sorted([(p.x, p.y) for p in cfg.outer])
        focal_ok = focal_ok and all(
            math.hypot(g[0] - w[0], g[1] - w[1]) < 1e-9 * scale
            for g, w in zip(got_o, want_o))
        pent = label_pentagon(chain.vertices)
        bd = Line.through(pent.b, pent.d)
        x1, x2 = (cert.x1, cert.x2)
        if orient(pent.b, pent.d, x1) != orient(pent.b, pent.d, pent.a):
            x1, x2 = x2, x1
        sym_ok = dist(reflect_point(bd, x1), x2) < 1e-9 * scale
        ang = {}
        pts = pent.points
        for i, name in enumerate("abcde"):
            ang[name] = viewing_angle_ccw(pts[i], pts[(i + 1) % 5], pts[i - 1])
        angle_ok = abs((ang["b"] - math.pi) + (ang["d"] - math.pi)
                       - (math.pi - (ang["a"] + ang["c"] + ang["e"]))) < 1e-10
        if not (focal_ok and sym_ok and angle_ok):
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 60.0
    _report(7, ok, elapsed, f"{100 - failures}/100 pentagons recovered")
    assert ok


def test_criterion_8_quad_round_trip():
    t0 = time.perf_counter()
    from equidist.type32 import construct_quad_focals, feasible_param_range

    rng = random.Random(8042)
    failures = 0
    for _ in range(100):
        quad = random_concave_quad(rng)
        scale = max(abs(v) for p in quad.points for v in (p.x, p.y))
        intervals = feasible_param_range(quad)
        if not intervals:
            failures += 1
            continue
        lo, hi = max(intervals, key=lambda iv: iv[1] - iv[0])
        t = rng.uniform(lo + (hi - lo) * 0.05, hi - (hi - lo) * 0.05)
        try:
            cert = construct_quad_focals(quad, t)
            chains = extract_boundary(cert.config())
        except Exception:
            failures += 1
            continue
        if len(chains) != 1 or not vertex_sets_match(chains[0].vertices, quad.points,
                                                     1e-9 * scale):
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 60.0
    _report(8, ok, elapsed, f"{100 - failures}/100 quadrangles reproduced")
    assert ok


def test_criterion_9_three_reflection_composition():
    t0 = time.perf_counter()
    rng = random.Random(9042)
    worst = 0.0
    for _ in range(1000):
        center = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
        lines = [Line.from_point_angle(center, rng.uniform(0, math.pi)) for _ in range(3)]
        composed = compose_three_reflections(*lines)
        for _ in range(100):
            p = Point(rng.uniform(-20, 20), rng.uniform(-20, 20))
            seq = reflect_point(lines[0], reflect_point(lines[1], reflect_point(lines[2], p)))
            got = reflect_point(composed, p)
            scale = max(1.0, abs(p.x), abs(p.y), abs(center.x), abs(center.y))
            worst = max(worst, dist(seq, got) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    _report(9, ok, elapsed, f"1000 pencils x 100 points, worst {worst:.2e}")
    assert ok


def test_criterion_10_exact_regularity():
    t0 = time.perf_counter()
    ok = True

    # collinear triple detected, 1e-17 perturbation separates exactly
    c1 = FocalConfig.of([(0.5, 1)], [(0, 0), (1, 0), (2, 0)])
    rep = check_regularity(c1)
    ok = ok and not rep.ok and len(rep.collinear) == 1

    clean = FocalConfig.of([(0.5, 1)], [(0, 0), (1, 0), (2, 1e-17)])
    ok = ok and check_regularity(clean).ok
    ok = ok and orient(Point(0, 0), Point(1, 0), Point(0.5, -1e-17)) == -1
    ok = ok and orient(Point(0, 0), Point(1, 0), Point(0.5, 0.0)) == 0

    # concircular quadruple on the radius-5 circle, detected exactly
    c2 = FocalConfig.of([(0.25, 0.125)], [(3, 4), (5, 0), (-3, 4), (0, -5)])
    rep = check_regularity(c2)
    ok = ok and not rep.ok and len(rep.concircular) == 1

    cleared = FocalConfig.of([(0.25, 0.125)], [(3, 4), (5, 0), (-3, 4), (1e-17, -5)])
    ok = ok and check_regularity(cleared).ok
    ok = ok and incircle(Point(3, 4), Point(5, 0), Point(-3, 4), Point(0, -5)) == 0
    # near the bottom of the circle any 1e-17 sideways move lands outside
    ok = ok and incircle(Point(3, 4), Point(5, 0), Point(-3, 4), Point(1e-17, -5)) == -1
    ok = ok and incircle(Point(3, 4), Point(5, 0), Point(-3, 4), Point(-1e-17, -5)) == -1
    # two-sided 1e-17 flip on a circle through the origin
    base = (Point(2, 0), Point(0, 2), Point(2, 2))
    ok = ok and incircle(*base, Point(0, 0)) == 0
    ok = ok and incircle(*base, Point(1e-17, 0)) == 1
    ok = ok and incircle(*base, Point(-1e-17, 0)) == -1

    # no false positives on a generic regular configuration
    rng = random.Random(1042)
    for _ in range(20):
        cfg = random_bounded_config(rng)
        rep = check_regularity(cfg)
        ok = ok and rep.ok

    elapsed = time.perf_counter() - t0
    _report(10, ok, elapsed, "exact C1/C2 fixtures incl. 1e-17 perturbations")
    assert ok
