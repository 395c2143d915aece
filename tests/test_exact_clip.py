"""The exact clip against its per-vertex reference, and the component floats left for a first read.

``body._exact_clip`` splices one cut arc out per row; ``conftest.per_vertex_clip``
visits every vertex, as the clip did before.  They must return equal lists: the
same vertices and rows, in the same order, from the same start, with the same
zero-length edges.
"""

import math
import random
from collections import Counter

from conftest import per_vertex_clip
from equidist.body import (
    ConvexComponent,
    Rect,
    _drop_zero_edges,
    _exact_clip,
    _float_point,
    _same_point,
    build_body,
    convex_component,
)
from equidist.connectivity import check_polytope
from equidist.polygon import extract_boundary
from test_exact_graph import MIXED, dense_grid_configs, grid_config, ring_config


def cut_kind(svals) -> str:
    """Which vertices of a clip a row's slacks cut off, by where the cut run lies."""
    cut = [s < 0 for s in svals]
    if not any(cut):
        return "nothing"
    if all(cut):
        return "everything"
    if cut[0] and cut[-1]:
        return "wrap"  # the run passes the end of the list
    return "from vertex 0" if cut[0] else "inside"


def clip_by_steps(rows, box, seen: Counter, verts=None, first=0):
    """Clip by rows[first:] one row at a time, equal to the reference at each; tally the cuts."""
    if verts is None:
        verts = per_vertex_clip([], box)
    for j in range(first, len(rows)):
        want = per_vertex_clip(rows[:j + 1], box, verts, j)
        assert _exact_clip(rows[:j + 1], box, verts, j) == want
        a, b, c = rows[j]
        svals = [c * w - a * x - b * y for (x, y, w), _ in verts]
        seen[cut_kind(svals)] += 1
        if min(svals, default=0) < 0:
            seen["zero slack"] += 0 in svals
            n = len(verts)
            seen["zero-length edge"] += any(_same_point(verts[i][0], verts[i + 1 - n][0])
                                            for i in range(n))
        verts = want
    return verts


def random_row(rng: random.Random, verts, box):
    """A row of a random kind: through a vertex or a box corner, at random, or cutting none or all."""
    a, b = rng.choice([(1, 0), (0, 1), (-1, 1)] + [(rng.randint(-6, 6), rng.randint(-6, 6))
                                                    for _ in range(4)])
    if a == b == 0:
        a = 1
    kind = rng.choice(["vertex", "corner", "random", "nothing", "everything"])
    if kind == "vertex" and verts:
        x, y, w = rng.choice(verts)[0]
        return a * w, b * w, a * x + b * y
    if kind == "corner":
        return a, b, a * rng.choice(box[::2]) + b * rng.choice(box[1::2])
    dots = [(a * x + b * y) / w for (x, y, w), _ in verts] or [0]
    if kind == "nothing":
        return a, b, math.ceil(max(dots)) + rng.randint(0, 3)
    if kind == "everything":
        return a, b, math.floor(min(dots)) - 1 - rng.randint(0, 3)
    return a, b, rng.randint(-60, 60)


def test_random_rows_and_boxes():
    rng = random.Random(39)
    seen = Counter()
    for _ in range(3000):
        x0, y0 = rng.randint(-20, 20), rng.randint(-20, 20)
        box = (x0, y0, x0 + rng.randint(0, 12), y0 + rng.randint(0, 12))
        verts, rows = per_vertex_clip([], box), []
        for _ in range(rng.randint(1, 8)):
            rows.append(random_row(rng, verts, box))
            verts = clip_by_steps(rows, box, seen, verts, len(rows) - 1)
        assert _exact_clip(rows, box) == per_vertex_clip(rows, box)
    for kind in ("nothing", "everything", "wrap", "from vertex 0", "inside", "zero slack",
                 "zero-length edge"):
        assert seen[kind] > 100, (kind, seen)


def clip_corpus():
    rng = random.Random(40)
    rings = [ring_config(rng, p) for p in (2, 5, 8) for _ in range(3)]
    grids = [grid_config(rng, rng.randint(2, 8)) for _ in range(40)] + dense_grid_configs(3)
    return rings, grids


def test_raw_clips_and_inner_cells_of_ring_and_grid_bodies():
    rings, grids = clip_corpus()
    tallies = []
    for corpus in (rings + [MIXED], grids):
        seen = Counter()
        for cfg in corpus:
            for comp in build_body(cfg).components:
                rows, box, _, raw = comp._exact
                q = len(comp.outer)
                assert _exact_clip(rows[:q], box) == raw == clip_by_steps(rows[:q], box, seen)
                cell = clip_by_steps(rows, box, seen, raw, q)
                assert _exact_clip(rows, box, raw, q) == cell == per_vertex_clip(rows, box, raw, q)
        tallies.append(seen)
    rings_seen, grids_seen = tallies
    # every outer row cuts a ring component; grids reach zero slacks and zero-length edges
    assert rings_seen["wrap"] and rings_seen["from vertex 0"] and rings_seen["inside"]
    assert grids_seen["zero slack"] > 100 and grids_seen["zero-length edge"] > 10


def eager_fields(comp):
    """vertices, edge_tags and clipped as built from the raw clip before they were lazy."""
    _, _, k, raw = comp._exact
    kept = _drop_zero_edges(raw)
    tags = tuple(tag for _, tag in kept)
    return tuple(_float_point(vert, k) for vert, _ in kept), tags, any(t < 0 for t in tags)


class TestFloatsOnFirstRead:
    def test_a_boundary_op_builds_no_component_float(self):
        rings, grids = clip_corpus()
        for cfg in rings + grids:
            extract_boundary(cfg)
            check_polytope(cfg)
            for comp in build_body(cfg).components:
                assert "vertices" not in vars(comp) and "edge_tags" not in vars(comp)

    def test_lazy_fields_equal_the_eager_ones(self):
        rings, grids = clip_corpus()
        comps = [c for cfg in rings + grids + [MIXED] for c in build_body(cfg).components]
        site = MIXED.inner[0]
        comps.append(convex_component(site, MIXED.outer,
                                      Rect(site.x - 1, site.y - 1, site.x + 1, site.y + 1)))
        assert comps[-1].clipped
        for comp in comps:
            verts, tags, clipped = eager_fields(comp)
            assert (comp.clipped, comp.vertices, comp.edge_tags) == (clipped, verts, tags)
            eager = ConvexComponent(comp.site, comp.outer, comp.clip, verts, tags, clipped,
                                    comp._exact)
            assert eager == comp and hash(eager) == hash(comp) and repr(eager) == repr(comp)
        # a value given to the constructor wins over the one the raw clip would give
        given = ConvexComponent(comp.site, comp.outer, comp.clip, (), (), False, comp._exact)
        assert (given.vertices, given.edge_tags) == ((), ())
