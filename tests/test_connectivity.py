"""Graph representation, intersection dimension, and connectivity equivalences."""

import random

import pytest

from conftest import coord_scale, grid_inside_mask, random_bounded_config, region_count
from equidist.body import FocalConfig, build_body, convex_component, membership
from equidist.connectivity import (
    RepGraph,
    build_graph,
    check_polytope,
    decompose,
    intersection_dim,
    is_connected,
    is_interior_connected,
)
from equidist.errors import MismatchedOuterSet, Unbounded
from equidist.primitives import Point

OVERLAP = FocalConfig.of([(-1, 0), (1, 0)], [(10, 0), (-10, 0), (0, 10), (0, -10)])
SEPARATED = FocalConfig.of([(-5, 0), (5, 0)], [(10, 0), (-10, 0), (0, 10), (0, -10), (0, 0)])
# exactly concircular inner/outer quadruple: components touch at the origin
TOUCHING = FocalConfig.of([(-1, 0), (1, 0)], [(0, 1), (0, -1), (10, 0), (-10, 0)])


class TestIntersectionDim:
    def test_overlapping_components(self):
        body = build_body(OVERLAP)
        assert intersection_dim(body.components[0], body.components[1]) == 2

    def test_separated_components(self):
        body = build_body(SEPARATED)
        assert intersection_dim(body.components[0], body.components[1]) == -1

    def test_touching_components(self):
        body = build_body(TOUCHING)
        assert intersection_dim(body.components[0], body.components[1]) == 0

    def test_symmetry(self):
        rng = random.Random(20)
        for _ in range(15):
            cfg = random_bounded_config(rng, p_max=3)
            if cfg.p < 2:
                continue
            body = build_body(cfg)
            for i in range(cfg.p):
                for j in range(i + 1, cfg.p):
                    a, b = body.components[i], body.components[j]
                    assert intersection_dim(a, b) == intersection_dim(b, a)

    def test_mismatched_outer_raises(self):
        body = build_body(OVERLAP)
        other = convex_component(Point(0, 1), (Point(3, 3),), body.clip)
        with pytest.raises(MismatchedOuterSet):
            intersection_dim(body.components[0], other)

    def test_segment_case_excluded_for_components(self):
        # A shared boundary segment between two components would force an
        # inner focal point to coincide with an outer one, so components of a
        # valid configuration can only yield -1, 0 or 2.
        rng = random.Random(23)
        for _ in range(20):
            cfg = random_bounded_config(rng, p_max=4)
            body = build_body(cfg)
            for i in range(cfg.p):
                for j in range(i + 1, cfg.p):
                    assert intersection_dim(body.components[i], body.components[j]) != 1


class TestGraph:
    def test_single_node(self):
        cfg = FocalConfig.of([(0, 0)], [(2, 0), (-2, 0), (0, 2), (0, -2)])
        g = build_graph(build_body(cfg))
        assert g.edges == ()
        assert is_connected(g) and is_interior_connected(g)

    def test_overlap_single_weight2_edge(self):
        g = build_graph(build_body(OVERLAP))
        assert g.edges == ((0, 1, 2),)
        assert is_connected(g) and is_interior_connected(g)

    def test_separated_no_edges(self):
        g = build_graph(build_body(SEPARATED))
        assert g.edges == ()
        assert not is_connected(g) and not is_interior_connected(g)

    def test_touching_weight0_edge(self):
        g = build_graph(build_body(TOUCHING))
        assert g.edges == ((0, 1, 0),)
        assert is_connected(g)
        assert not is_interior_connected(g)

    def test_path_graph_connected(self):
        g = RepGraph(nodes=(Point(0, 0), Point(1, 0), Point(2, 0)),
                     edges=((0, 1, 2), (1, 2, 2)))
        assert is_connected(g)
        g2 = RepGraph(nodes=(Point(0, 0), Point(1, 0)), edges=())
        assert not is_connected(g2)


class TestGridEquivalence:
    def test_graph_vs_flood_fill(self):
        # body and interior connectivity against the rasterized oracle;
        # the corpus is filtered to raster-resolvable overlaps and gaps
        rng = random.Random(21)
        for _ in range(25):
            cfg = random_bounded_config(rng, grid_friendly=True)
            g = build_graph(build_body(cfg))
            grid_regions = region_count(grid_inside_mask(cfg, n=400))
            assert is_connected(g) == (grid_regions == 1)
            assert is_interior_connected(g) == (grid_regions == 1)

    def test_touching_interior_disconnected_by_grid(self):
        # the open interior of the touching body falls into two grid regions
        assert region_count(grid_inside_mask(TOUCHING, n=400)) == 2
        g = build_graph(build_body(TOUCHING))
        assert is_connected(g) and not is_interior_connected(g)


class TestDecompose:
    def test_connected_stays_whole(self):
        parts = decompose(OVERLAP)
        assert len(parts) == 1 and parts[0].inner == OVERLAP.inner

    def test_separated_splits(self):
        parts = decompose(SEPARATED)
        assert [part.p for part in parts] == [1, 1]
        assert all(part.outer == SEPARATED.outer for part in parts)

    def test_three_way_split(self):
        cfg = FocalConfig.of(
            [(-6, 0), (6, 0), (0, 6)],
            [(12, 0), (-12, 0), (0, 12), (0, -12), (0, 0), (3, 3), (-3, 3)])
        parts = decompose(cfg)
        assert len(parts) == 3

    def test_parts_pairwise_disjoint_and_cover(self):
        rng = random.Random(22)
        for _ in range(10):
            cfg = random_bounded_config(rng)
            parts = decompose(cfg)
            whole = build_body(cfg)
            bodies = [build_body(part) for part in parts]
            for _ in range(300):
                q = Point(rng.uniform(whole.clip.xmin, whole.clip.xmax),
                          rng.uniform(whole.clip.ymin, whole.clip.ymax))
                strict_in = sum(1 for b in bodies
                                if b.clip.contains(q) and b.contains_strict(q))
                if len(parts) > 1:
                    assert strict_in <= 1
                # the union of the sub-bodies is the body
                if membership(q, cfg) != "on_boundary":
                    assert (strict_in > 0) == whole.contains_strict(q)

    def test_unbounded_raises(self):
        with pytest.raises(Unbounded):
            decompose(FocalConfig.of([(0, 3)], [(2, -1), (-2, -1), (0, 2)]))


class TestCheckPolytope:
    def test_square_is_polytope(self):
        v = check_polytope(FocalConfig.of([(0, 0)], [(2, 0), (-2, 0), (0, 2), (0, -2)]))
        assert v.is_polytope and v.reasons == () and v.chain_count == 1

    def test_unbounded_reason(self):
        v = check_polytope(FocalConfig.of([(0, 3)], [(2, -1), (-2, -1), (0, 2)]))
        assert not v.is_polytope and v.reasons == ("unbounded",)

    def test_hole_complement_disconnected(self):
        # a ring of inner points around one outer point leaves a hole
        import math
        rng = random.Random(5)
        ring = []
        for k in range(6):
            ang = 2 * math.pi * k / 6 + 0.19 + rng.uniform(-0.03, 0.03)
            r = 2.0 + rng.uniform(-0.1, 0.1)
            ring.append((r * math.cos(ang), r * math.sin(ang)))
        outer = [(0.05, -0.02), (11.3, 0.7), (-10.8, 5.9), (-0.4, -12.1),
                 (10.2, 9.3), (-11.1, -8.7)]
        cfg = FocalConfig.of(ring, outer)
        v = check_polytope(cfg)
        assert not v.is_polytope
        assert v.reasons == ("complement_disconnected",)
        assert v.chain_count == 2
        # oracle: the complement, flooded from the frame, misses the hole
        import numpy as np
        from scipy import ndimage
        from conftest import body_bbox
        xmin, ymin, xmax, ymax = body_bbox(cfg)
        xs = np.linspace(xmin, xmax, 400)
        ys = np.linspace(ymin, ymax, 400)
        gx, gy = np.meshgrid(xs, ys)
        dk = np.full(gx.shape, np.inf)
        for p in cfg.inner:
            np.minimum(dk, np.hypot(gx - p.x, gy - p.y), out=dk)
        dl = np.full(gx.shape, np.inf)
        for p in cfg.outer:
            np.minimum(dl, np.hypot(gx - p.x, gy - p.y), out=dl)
        outside = dk > dl + 1e-8 * coord_scale(cfg)
        _, n_out = ndimage.label(outside)
        assert n_out == 2  # unbounded part plus the hole

    def test_separated_reports_both(self):
        v = check_polytope(SEPARATED)
        assert not v.is_polytope
        assert set(v.reasons) == {"interior_disconnected", "complement_disconnected"}

    def test_touching_not_polytope(self):
        v = check_polytope(TOUCHING)
        assert not v.is_polytope
        assert "interior_disconnected" in v.reasons
