"""The integer homogeneous clip and the graph weights against a rational reference.

The reference below is the Sutherland-Hodgman clip in Fraction arithmetic
that decided the graph weights before the integer clip: every new vertex is
an interpolation of earlier Fraction vertices.  It is slow but plainly
exact, so it serves as the oracle for ``convex_component`` and, clipped to a
body's own box, which no component reaches, for ``intersection_dim``.  The
metamorphic tests pin the components and the exact graph under maps that are
exact in floating point: integer translation, 90° rotation, scaling by a power
of two and relabelling of the points.
"""

import math
import pathlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_bounded_config
from equidist import body as body_module
from equidist.body import (
    FocalConfig,
    Rect,
    bounding_radius,
    build_body,
    convex_component,
    is_bounded,
)
from equidist.connectivity import build_graph, intersection_dim
from equidist.errors import MismatchedOuterSet, PreconditionViolated
from equidist.polygon import extract_boundary
from equidist.primitives import Point
from test_connectivity import OVERLAP, SEPARATED, TOUCHING

# Deterministic example generation keeps the suite reproducible run to run.
EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True)


# --- rational reference ------------------------------------------------------

def ref_rows(site, outer):
    """Half-plane rows A*x + B*y <= C for {site <= y}, exact in the inputs."""
    sx, sy = Fraction(site.x), Fraction(site.y)
    rows = []
    for y in outer:
        yx, yy = Fraction(y.x), Fraction(y.y)
        rows.append((2 * (yx - sx), 2 * (yy - sy), yx * yx + yy * yy - sx * sx - sy * sy))
    return rows


def ref_clip(rows, clip):
    """Sutherland-Hodgman clip of the box by rational half-planes, exactly."""
    xmin, ymin, xmax, ymax = map(Fraction, (clip.xmin, clip.ymin, clip.xmax, clip.ymax))
    verts = [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]
    for a, b, c in rows:
        if not verts:
            break
        svals = [c - (a * x + b * y) for x, y in verts]
        out = []
        n = len(verts)
        for i in range(n):
            j = (i + 1) % n
            sa, sb = svals[i], svals[j]
            if sa >= 0:
                out.append(verts[i])
                if sb < 0:
                    t = sa / (sa - sb)
                    out.append((verts[i][0] + t * (verts[j][0] - verts[i][0]),
                                verts[i][1] + t * (verts[j][1] - verts[i][1])))
            elif sb >= 0:
                t = sa / (sa - sb)
                out.append((verts[i][0] + t * (verts[j][0] - verts[i][0]),
                            verts[i][1] + t * (verts[j][1] - verts[i][1])))
        verts = out
    return verts


def ref_dim(verts) -> int:
    """Dimension of an exact convex polygon of Fraction vertices: -1, 0, 1 or 2."""
    uniq = []
    for v in verts:
        if v not in uniq:
            uniq.append(v)
    if not uniq:
        return -1
    if len(uniq) == 1:
        return 0
    a, b = uniq[0], uniq[1]
    ux, uy = b[0] - a[0], b[1] - a[1]
    for w in uniq[2:]:
        if ux * (w[1] - a[1]) - uy * (w[0] - a[0]) != 0:
            return 2
    return 1


def ref_component(site, outer, clip):
    """Reference component vertices: the clip minus each vertex equal to its successor."""
    verts = ref_clip(ref_rows(site, outer), clip)
    n = len(verts)
    return [v for i, v in enumerate(verts) if v != verts[(i + 1) % n]]


def ref_weight(a, b, clip) -> int:
    """Dimension of the Fraction clip of ``clip`` by both components' outer rows."""
    return ref_dim(ref_clip(ref_rows(a.site, a.outer) + ref_rows(b.site, b.outer), clip))


def ref_edges(body):
    comps = body.components
    edges = []
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            w = ref_weight(comps[i], comps[j], body.clip)
            if w >= 0:
                edges.append((i, j, w))
    return tuple(edges)


# --- corpora -----------------------------------------------------------------

def ring_config(rng: random.Random, p: int, q: int = 12) -> FocalConfig:
    """q outer points jittered on a radius-10 ring, p inner points uniform in [-6, 6]^2."""
    outer = []
    for k in range(q):
        angle = 2.0 * math.pi * (k + rng.uniform(-0.25, 0.25)) / q
        radius = 10.0 + rng.uniform(-0.5, 0.5)
        outer.append((radius * math.cos(angle), radius * math.sin(angle)))
    inner = [(rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0)) for _ in range(p)]
    return FocalConfig.of(inner, outer)


def grid_config(rng: random.Random, p: int, n: int = 18, half_width: int = 4) -> FocalConfig:
    """n distinct points of the integer grid [-h, h]^2, p of them inner, the body bounded.

    Integer points make concircular inner/outer quadruples common, so
    components that touch in a single point (weight 0) occur often.
    """
    cells = [(x, y) for x in range(-half_width, half_width + 1)
             for y in range(-half_width, half_width + 1)]
    while True:
        pts = rng.sample(cells, n)
        cfg = FocalConfig.of(pts[:p], pts[p:])
        if is_bounded(cfg):
            return cfg


def mapped_config(cfg: FocalConfig, f) -> FocalConfig:
    return FocalConfig(tuple(f(v) for v in cfg.inner), tuple(f(v) for v in cfg.outer))


def graph_edges(cfg: FocalConfig):
    return build_graph(build_body(cfg)).edges


def checked_dims(comps, clip) -> set:
    """The weight of every ordered pair of ``comps`` against the oracle in ``clip``; their set.

    ``clip`` must hold the true cells' intersections, as a body's own box does.
    """
    dims = set()
    for i, a in enumerate(comps):
        for b in comps[i + 1:]:
            ref = ref_weight(a, b, clip)
            assert intersection_dim(a, b) == intersection_dim(b, a) == ref
            dims.add(ref)
    return dims


def assert_matches_reference(body, extra=()):
    """Every ordered pair among the body's components and ``extra`` against the oracle."""
    checked_dims(body.components + tuple(extra), body.clip)
    assert build_graph(body).edges == ref_edges(body)


# coordinates with long binary expansions and mixed magnitudes
MIXED = FocalConfig.of([(0.1, 1e-7), (-0.3, 0.2)],
                       [(3.7, 0.01), (-2.9, 3.1), (-3.3, -2.6), (1e-9, -4.4)])


# --- oracle ------------------------------------------------------------------

class TestAgainstRationalClip:
    def test_named_configs(self):
        for cfg in (OVERLAP, SEPARATED, TOUCHING):
            assert_matches_reference(build_body(cfg))

    def test_random_bounded_configs(self):
        rng = random.Random(41)
        for _ in range(25):
            assert_matches_reference(build_body(random_bounded_config(rng, p_max=5)))

    def test_ring_configs(self):
        rng = random.Random(42)
        for p in (2, 3, 5, 6):
            for _ in range(3):
                assert_matches_reference(build_body(ring_config(rng, p)))

    def test_grid_configs_with_touching_pairs(self):
        rng = random.Random(43)
        seen = set()
        for _ in range(40):
            body = build_body(grid_config(rng, rng.randint(2, 5)))
            assert_matches_reference(body)
            seen.update(w for _, _, w in build_graph(body).edges)
        # the corpus reaches the degenerate outcome, not only overlaps
        assert {0, 2} <= seen

    def test_vertices_outside_the_dyadic_grid(self):
        # coordinates with long binary expansions and mixed magnitudes force
        # a large common power of two
        assert_matches_reference(build_body(MIXED))


def voronoi_cells(cfg: FocalConfig):
    """Cells of the inner sites among all focal points, as ``voronoi_check`` builds them."""
    clip = build_body(cfg).clip
    pts = cfg.points
    return [convex_component(x, tuple(p for p in pts if p != x), clip) for x in cfg.inner]


def side_row(tag: int, clip):
    """Row (A, B, C) with A*x + B*y <= C of a clip-box side: -1 bottom ... -4 left."""
    return {-1: (0, -1, -Fraction(clip.ymin)), -2: (1, 0, Fraction(clip.xmax)),
            -3: (0, 1, Fraction(clip.ymax)), -4: (-1, 0, -Fraction(clip.xmin))}[tag]


def assert_component_matches_reference(comp):
    ref = ref_component(comp.site, comp.outer, comp.clip)
    assert comp.vertices == tuple(Point(float(x), float(y)) for x, y in ref)
    assert len(comp.edge_tags) == len(ref)
    assert comp.clipped == any(t < 0 for t in comp.edge_tags)
    rows = ref_rows(comp.site, comp.outer)
    for i, tag in enumerate(comp.edge_tags):
        a, b, c = rows[tag] if tag >= 0 else side_row(tag, comp.clip)
        for x, y in (ref[i], ref[(i + 1) % len(ref)]):
            assert a * x + b * y == c


class TestComponentsAgainstRationalClip:
    def test_named_configs(self):
        for cfg in (OVERLAP, SEPARATED, TOUCHING):
            for comp in build_body(cfg).components + tuple(voronoi_cells(cfg)):
                assert_component_matches_reference(comp)

    def test_random_bounded_configs(self):
        rng = random.Random(44)
        for _ in range(25):
            cfg = random_bounded_config(rng, p_max=5)
            for comp in build_body(cfg).components + tuple(voronoi_cells(cfg)):
                assert_component_matches_reference(comp)

    def test_ring_configs(self):
        rng = random.Random(45)
        for p in (2, 3, 5, 8):
            for _ in range(3):
                for comp in build_body(ring_config(rng, p)).components:
                    assert_component_matches_reference(comp)

    def test_grid_configs_with_repeated_vertices(self):
        rng = random.Random(46)
        merged = 0
        for _ in range(40):
            cfg = grid_config(rng, rng.randint(2, 6))
            for comp in build_body(cfg).components + tuple(voronoi_cells(cfg)):
                assert_component_matches_reference(comp)
                raw = ref_clip(ref_rows(comp.site, comp.outer), comp.clip)
                merged += len(raw) - len(comp.vertices)
        # concurrent bisectors reach the merge of exactly equal vertices
        assert merged > 0

    def test_clipped_components(self):
        # a small box around each site cuts its component on some sides
        cfg = ring_config(random.Random(47), 6)
        seen = set()
        for x in cfg.inner:
            comp = convex_component(x, cfg.outer, Rect(x.x - 1, x.y - 2.5, x.x + 3, x.y + 0.75))
            assert_component_matches_reference(comp)
            seen.update(t for t in comp.edge_tags if t < 0)
        assert seen == {-1, -2, -3, -4}

    def test_vertices_outside_the_dyadic_grid(self):
        for comp in build_body(MIXED).components:
            assert_component_matches_reference(comp)


def shared_scaling_configs():
    rng = random.Random(48)
    yield from (ring_config(rng, p) for p in (2, 5, 8))
    yield from (grid_config(rng, rng.randint(2, 6)) for _ in range(10))
    yield MIXED
    # the long binary expansion sits in an inner site: the body's scale is finer
    yield FocalConfig.of([(0.1, 1e-7), (-0.3, 0.2)],
                         [(3.75, 0.0), (-3.0, 3.0), (-3.25, -2.5), (0.0, -4.5)])


class TestSharedScaling:
    """A body scales its points once; a standalone component scales its own inputs."""

    def test_body_components_equal_standalone_components(self):
        for cfg in shared_scaling_configs():
            body = build_body(cfg)
            for comp in body.components:
                alone = convex_component(comp.site, cfg.outer, body.clip)
                # repr shows every public field, floats exactly (with the sign of zero)
                assert repr(comp) == repr(alone)
                assert comp.edge_tags == alone.edge_tags

    def test_pairs_across_scalings(self):
        # a standalone component at another scale is brought to the larger k
        # by shifts, in either argument order
        shifts = set()
        for cfg in shared_scaling_configs():
            body = build_body(cfg)
            others = [convex_component(Point(*xy), cfg.outer, body.clip)
                      for xy in ((0.1, 1e-7), (0.5, 0.25)) if Point(*xy) not in cfg.inner]
            assert_matches_reference(body, extra=others)
            k = body.components[0]._exact[2]
            shifts.update((c._exact[2] > k) - (c._exact[2] < k) for c in others)
        assert {-1, 1} <= shifts


def dense_grid_configs(count: int):
    """Grids of 40 points in [-4, 4]^2: many ties, and so weights 0 and -1.

    The square's corners are outer and 16 points strictly inside it inner, so
    each body is bounded without rejection.
    """
    rng = random.Random(54)
    corners = [(x, y) for x in (-4, 4) for y in (-4, 4)]
    cells = [(x, y) for x in range(-4, 5) for y in range(-4, 5) if (x, y) not in corners]
    configs = []
    for _ in range(count):
        inner = rng.sample([(x, y) for x, y in cells if abs(x) < 4 and abs(y) < 4], 16)
        outer = corners + rng.sample([c for c in cells if c not in inner], 20)
        configs.append(FocalConfig.of(inner, outer))
    return configs


class TestInteriorWitness:
    """The weight of every ordered pair against the Fraction clip of the body's own box.

    The weight is the dimension of the cells' intersection, whatever box cut the components.
    """

    def test_ring_and_grid_bodies(self):
        rng = random.Random(52)
        dims = set()
        for cfg in [ring_config(rng, p) for p in (2, 5, 8)] + [
                grid_config(rng, rng.randint(2, 8)) for _ in range(40)]:
            body = build_body(cfg)
            dims |= checked_dims(body.components, body.clip)
        # the grid corpus reaches the empty and the one-point intersection
        assert {-1, 0, 2} <= dims

    def test_dense_grids(self):
        for cfg in dense_grid_configs(3):
            body = build_body(cfg)
            assert {-1, 0, 2} <= checked_dims(body.components, body.clip)

    def test_connectivity_criterion_corpus(self):
        # the first configurations of criterion 3's rasterized corpus
        rng = random.Random(3042)
        for _ in range(20):
            body = build_body(random_bounded_config(rng, grid_friendly=True))
            checked_dims(body.components, body.clip)

    def test_mixed_magnitudes(self):
        body = build_body(MIXED)
        assert checked_dims(body.components, body.clip) == {2}

    def test_box_cut_components(self):
        # a body's box never cuts a component; squares of 1.0, 0.6 and 0.3 times its
        # radius and a box just around the inner sites do, and leave the weights as they are
        rng = random.Random(53)
        cut = 0
        for cfg in [ring_config(rng, 6) for _ in range(4)] + [
                random_bounded_config(rng, p_max=5) for _ in range(12)]:
            xs, ys = [x.x for x in cfg.inner], [x.y for x in cfg.inner]
            boxes = [Rect(min(xs) - 0.5, min(ys) - 0.5, max(xs) + 0.5, max(ys) + 0.5)]
            ox, oy, radius = sum(xs) / cfg.p, sum(ys) / cfg.p, bounding_radius(cfg)
            boxes += [Rect(ox - h, oy - h, ox + h, oy + h) for h in (radius, 0.6 * radius,
                                                                        0.3 * radius)]
            for box in boxes:
                try:
                    comps = [convex_component(x, cfg.outer, box) for x in cfg.inner]
                except PreconditionViolated:  # the box misses an inner site
                    continue
                checked_dims(comps, build_body(cfg).clip)
                cut += sum(c.clipped for c in comps)
        assert cut > 0

    def test_box_without_area(self):
        # every component is a segment of the line x = 0, but the cells meet in area
        cfg = FocalConfig.of([(0, -1), (0, 1)], [(-3, 0), (3, 0), (0, 4), (0, -4)])
        a, b = (convex_component(x, cfg.outer, Rect(0, -5, 0, 5)) for x in cfg.inner)
        assert checked_dims((a, b), build_body(cfg).clip) == {2}

    def test_components_of_other_scalings(self):
        # a standalone component has its own k: the pair shifts to the larger one,
        # in a copy of the component's kept rows
        shifts = set()
        for cfg in shared_scaling_configs():
            body = build_body(cfg)
            others = [convex_component(Point(*xy), cfg.outer, body.clip)
                      for xy in ((0.1, 1e-7), (0.5, 0.25)) if Point(*xy) not in cfg.inner]
            comps = body.components + tuple(others)
            kept = [list(c._exact[0]) for c in comps]
            checked_dims(comps, body.clip)
            assert [c._exact[0] for c in comps] == kept
            k = body.components[0]._exact[2]
            shifts.update((c._exact[2] > k) - (c._exact[2] < k) for c in others)
        assert {-1, 1} <= shifts

    def test_mismatch_raises_before_the_witness(self):
        # another outer set raises in either order; another box does not, as it takes no part
        body = build_body(OVERLAP)
        comp, clip = body.components[0], body.clip
        other = convex_component(Point(0, 1), (Point(3, 3),), clip)
        for a, b in ((comp, other), (other, comp)):
            with pytest.raises(MismatchedOuterSet):
                intersection_dim(a, b)
        wider = convex_component(body.components[1].site, OVERLAP.outer,
                                 Rect(clip.xmin - 1, clip.ymin, clip.xmax, clip.ymax))
        assert intersection_dim(comp, wider) == intersection_dim(wider, comp) == 2


def clip_calls(fn, *args):
    """fn(*args), and how many times it ran ``body._exact_clip``, however the name is bound."""
    code, calls = body_module._exact_clip.__code__, [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        return fn(*args), calls[0]
    finally:
        sys.setprofile(previous)


class TestClipOnce:
    """Each component is clipped from the box once, each cell continues it, and no weight clips."""

    def test_rows_cut_per_body(self, monkeypatch):
        clip = body_module._exact_clip
        cut = []

        def counting(rows, box, *start):  # start: the raw clip and its first new row
            cut.append(len(rows) - (start[1] if start else 0))
            return clip(rows, box, *start)

        monkeypatch.setattr(body_module, "_exact_clip", counting)
        p, q = 8, 12
        cfg = ring_config(random.Random(49), p, q)
        body = build_body(cfg)
        build_graph(body)
        extract_boundary(cfg)
        # p components by q outer rows and p cells by p inner rows; the graph clips nothing
        assert sum(cut) == p * q + p * p == 160

    def test_ring_graphs_clip_no_pair(self):
        rng = random.Random(50)
        for _ in range(50):
            graph, calls = clip_calls(build_graph, build_body(ring_config(rng, 8, 12)))
            assert len(graph.edges) == math.comb(8, 2)
            assert calls == 0

    def test_grid_graphs_clip_no_pair(self):
        # unlike rings, grids reach weights 0 and -1
        rng = random.Random(51)
        configs = [grid_config(rng, rng.randint(2, 8)) for _ in range(40)]
        weights = set()
        for cfg in configs + dense_grid_configs(2):
            body = build_body(cfg)
            graph, calls = clip_calls(build_graph, body)
            assert calls == 0
            weights.update(w for _, _, w in graph.edges)
            if len(graph.edges) < math.comb(cfg.p, 2):
                weights.add(-1)  # a pair without an edge
        assert {-1, 0, 2} <= weights


# --- metamorphic -------------------------------------------------------------

def _config(kind: str, seed: int, p: int) -> FocalConfig:
    rng = random.Random(seed)
    return ring_config(rng, p) if kind == "ring" else grid_config(rng, p)


SEEDS = st.integers(0, 2**32 - 1)
KINDS = st.sampled_from(["ring", "grid"])
SIZES = st.integers(2, 6)


class TestGraphInvariance:
    @EXAMPLES
    @given(seed=SEEDS, p=SIZES,
           dx=st.integers(-2**30, 2**30), dy=st.integers(-2**30, 2**30))
    def test_integer_translation(self, seed, p, dx, dy):
        cfg = _config("grid", seed, p)
        moved = mapped_config(cfg, lambda v: Point(v.x + dx, v.y + dy))
        assert graph_edges(moved) == graph_edges(cfg)

    @EXAMPLES
    @given(kind=KINDS, seed=SEEDS, p=SIZES)
    def test_rotation_by_90_degrees(self, kind, seed, p):
        cfg = _config(kind, seed, p)
        turned = mapped_config(cfg, lambda v: Point(-v.y, v.x))
        assert graph_edges(turned) == graph_edges(cfg)

    @EXAMPLES
    @given(kind=KINDS, seed=SEEDS, p=SIZES, k=st.integers(-30, 30))
    def test_power_of_two_scaling(self, kind, seed, p, k):
        cfg = _config(kind, seed, p)
        scaled = mapped_config(cfg, lambda v: Point(math.ldexp(v.x, k), math.ldexp(v.y, k)))
        assert graph_edges(scaled) == graph_edges(cfg)

    @EXAMPLES
    @given(kind=KINDS, seed=SEEDS, p=SIZES, data=st.data())
    def test_point_permutation(self, kind, seed, p, data):
        cfg = _config(kind, seed, p)
        perm = data.draw(st.permutations(range(p)))  # new index of inner point i
        inner = [None] * p
        for i, v in enumerate(cfg.inner):
            inner[perm[i]] = v
        outer = data.draw(st.permutations(cfg.outer))
        relabelled = sorted((min(perm[i], perm[j]), max(perm[i], perm[j]), w)
                            for i, j, w in graph_edges(cfg))
        assert list(graph_edges(FocalConfig(tuple(inner), tuple(outer)))) == relabelled


def component_shapes(cfg: FocalConfig):
    return [(c.edge_tags, c.clipped) for c in build_body(cfg).components]


class TestComponentInvariance:
    @EXAMPLES
    @given(seed=SEEDS, p=SIZES,
           dx=st.integers(-2**30, 2**30), dy=st.integers(-2**30, 2**30))
    def test_integer_translation(self, seed, p, dx, dy):
        cfg = _config("grid", seed, p)
        moved = mapped_config(cfg, lambda v: Point(v.x + dx, v.y + dy))
        assert component_shapes(moved) == component_shapes(cfg)

    @EXAMPLES
    @given(kind=KINDS, seed=SEEDS, p=SIZES, k=st.integers(-30, 30))
    def test_power_of_two_scaling(self, kind, seed, p, k):
        cfg = _config(kind, seed, p)
        scaled = mapped_config(cfg, lambda v: Point(math.ldexp(v.x, k), math.ldexp(v.y, k)))
        for c, d in zip(build_body(cfg).components, build_body(scaled).components):
            assert d.edge_tags == c.edge_tags
            assert d.vertices == tuple(Point(math.ldexp(v.x, k), math.ldexp(v.y, k))
                                       for v in c.vertices)


# --- the empty disc on the sites' segment ------------------------------------

def disc_certifies(a, b) -> bool:
    """Every outer point of a lies outside the closed disc on the segment ab, in Fractions."""
    (ax, ay), (bx, by) = map(Fraction, a.site), map(Fraction, b.site)
    return all((Fraction(y.x) - ax) * (Fraction(y.x) - bx)
               + (Fraction(y.y) - ay) * (Fraction(y.y) - by) > 0 for y in a.outer)


def compare_reports_grid(monkeypatch):
    """The grid input of ``scripts/compare_reports.py`` whose cells touch in five points."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))
    import compare_reports

    doc = compare_reports.matrix()[0]["grid-10.json"]
    return FocalConfig.of(doc["inner"], doc["outer"])


def disc_pair(extra):
    """Components of a = (-1, 0) and b = (1, 0) among far outer points (+-10, 0) and extra."""
    outer = tuple(Point(*xy) for xy in [(10, 0), (-10, 0), *extra])
    box = Rect(-20, -20, 20, 20)
    return [convex_component(Point(x, 0), outer, box) for x in (-1, 1)], box


class TestDiscCertificate:
    """Weight 2 from the empty disc on ab, and the clip for every other pair, against the oracle."""

    def test_ring_grid_and_dense_grid_pairs(self):
        rng = random.Random(55)
        configs = ([ring_config(rng, 8) for _ in range(4)]
                   + [grid_config(rng, rng.randint(2, 8)) for _ in range(20)]
                   + dense_grid_configs(2))
        certified = clipped = 0
        for cfg in configs:
            body = build_body(cfg)
            checked_dims(body.components, body.clip)
            comps = body.components
            for i, a in enumerate(comps):
                for b in comps[i + 1:]:
                    if disc_certifies(a, b):
                        certified += 1
                        assert ref_weight(a, b, body.clip) == 2
                    else:
                        clipped += 1
        # both paths run: rings certify nearly every pair, grids often do not
        assert certified > 0 and clipped > 0

    def test_compare_reports_grid_input_takes_the_clip_on_its_touching_pairs(self, monkeypatch):
        body = build_body(compare_reports_grid(monkeypatch))
        assert build_graph(body).edges == ref_edges(body)
        comps = body.components
        touching = [(i, j) for i, j, w in build_graph(body).edges if w == 0]
        assert len(touching) == 5
        assert not any(disc_certifies(comps[i], comps[j]) for i, j in touching)

    @pytest.mark.parametrize("extra, weight", [
        ([(0, 1), (0, -1)], 0),  # on the circle on ab (Thales): the cells meet at the origin
        ([(0, 0.5), (0, -3)], 2),  # inside the disc, but a disc through a and b stays empty
        ([(0, 0)], -1),  # on the open segment: inside every disc through a and b
    ], ids=["thales", "inside-the-disc", "on-the-segment"])
    def test_hand_built_pairs(self, extra, weight):
        (a, b), box = disc_pair(extra)
        assert not disc_certifies(a, b)
        assert intersection_dim(a, b) == intersection_dim(b, a) == weight
        assert ref_weight(a, b, box) == weight
