"""The exact boundary walk: metamorphic invariance, former stitching failures, exact labels.

The chains are read off the inner sites' exact Voronoi cells, so their
topology must not move under maps that are exact in floating point: integer
translation, 90° rotation, scaling by a power of two and relabelling of the
points.  Ring inputs are snapped to multiples of 2**-20 so that translation
by 2**30 stays exact; grid inputs are integers already.
"""

import json
import math
import random
from functools import cmp_to_key

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import coord_scale, in_float_band
from equidist import body as body_module
from equidist import polygon as polygon_module
from equidist.body import (
    MEMBER_INSIDE,
    FocalConfig,
    build_body,
    membership,
)
from equidist.cli import main
from equidist.polygon import PolygonChain, _chains, extract_boundary
from equidist.primitives import EPS_GEO, Point, dist
from equidist.type32 import point_in_polygon
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


def _snap(v: Point) -> Point:
    return Point(round(v.x * 2**20) / 2**20, round(v.y * 2**20) / 2**20)


def _config(kind: str, seed: int, p: int) -> FocalConfig:
    rng = random.Random(seed)
    if kind == "ring":
        return mapped_config(ring_config(rng, p), _snap)
    return grid_config(rng, p)


def chain_signatures(cfg: FocalConfig, inner_label=None, outer_label=None, eps=EPS_GEO):
    """Per chain, its (change, angle, refs, edge pair) sequence from vertex 0.

    The labels map the indices of ``cfg`` to those of a relabelled copy.
    """
    li = inner_label or list(range(cfg.p))
    lo = outer_label or list(range(cfg.q))
    return [[(vi.change_type, vi.angle_type, tuple(sorted(li[i] for i in vi.inner_refs)),
              tuple(sorted(lo[j] for j in vi.outer_refs)), (li[i], lo[j]))
             for vi, (i, j) in zip(ch.vertex_info, ch.edge_pairs)]
            for ch in extract_boundary(cfg, eps=eps)]


def least_rotations(signatures):
    return sorted(min(seq[t:] + seq[:t] for t in range(len(seq))) for seq in signatures)


class TestBoundaryInvariance:
    """Every chain starts at its exactly lowest vertex, so exact maps that keep the
    (x, y) order keep the chains as returned, vertex 0 and chain order included."""

    @pytest.mark.parametrize("offset", [1e6, 2.0**30])
    @EXAMPLES
    @given(kind=KINDS, seed=SEEDS, p=SIZES)
    def test_integer_translation(self, offset, kind, seed, p):
        cfg = _config(kind, seed, p)
        moved = mapped_config(cfg, lambda v: Point(v.x + offset, v.y + offset))
        assert chain_signatures(moved) == chain_signatures(cfg)

    @EXAMPLES
    @given(kind=KINDS, seed=SEEDS, p=SIZES)
    def test_rotation_by_90_degrees(self, kind, seed, p):
        # a quarter turn moves the lowest vertex, so chains compare up to rotation
        cfg = _config(kind, seed, p)
        turned = mapped_config(cfg, lambda v: Point(-v.y, v.x))
        assert least_rotations(chain_signatures(turned)) == least_rotations(chain_signatures(cfg))

    @EXAMPLES
    @given(kind=KINDS, seed=SEEDS, p=SIZES, k=st.integers(-30, 30))
    def test_power_of_two_scaling(self, kind, seed, p, k):
        cfg = _config(kind, seed, p)
        scaled = mapped_config(cfg, lambda v: Point(math.ldexp(v.x, k), math.ldexp(v.y, k)))
        assert chain_signatures(scaled) == chain_signatures(cfg)

    @EXAMPLES
    @given(kind=KINDS, seed=SEEDS, p=SIZES, data=st.data())
    def test_point_permutation(self, kind, seed, p, data):
        cfg = _config(kind, seed, p)
        perm = data.draw(st.permutations(range(cfg.p)))  # new index of inner point i
        operm = data.draw(st.permutations(range(cfg.q)))  # new index of outer point j
        inner, outer = [None] * cfg.p, [None] * cfg.q
        for i, v in enumerate(cfg.inner):
            inner[perm[i]] = v
        for j, v in enumerate(cfg.outer):
            outer[operm[j]] = v
        relabelled = FocalConfig(tuple(inner), tuple(outer))
        for eps in (1e-9, 1e-3, 0.3):
            assert ([ch.vertices for ch in extract_boundary(relabelled, eps=eps)]
                    == [ch.vertices for ch in extract_boundary(cfg, eps=eps)])
            assert chain_signatures(relabelled, eps=eps) == chain_signatures(cfg, perm, operm, eps)


# Both closed no chain under the tolerance stitcher ("boundary chain failed to close").
FORMER_STITCH_FAILURES = [
    {"inner": [[3, 2], [-3, 3], [1, 2], [2, -1], [-3, 2], [3, -3], [2, 2], [-1, 1]],
     "outer": [[4, -4], [4, 4], [-4, -4], [4, 1], [-4, -1], [-4, 3], [0, 4], [2, -4],
               [-4, 4], [3, -4], [1, 4], [1, 1]]},
    {"inner": [[0, -3], [2, -2], [1, 2], [0, -1], [-2, -1], [-2, 3], [3, 2], [-3, -1]],
     "outer": [[-4, -2], [1, -4], [-1, 4], [2, 0], [-1, -4], [0, -2], [4, 2], [4, 4],
               [4, 1], [4, 0], [4, -1], [-4, 4]]},
]


@pytest.mark.parametrize("doc", FORMER_STITCH_FAILURES)
def test_former_stitch_failure_closes(tmp_path, capsys, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["boundary", str(path)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["chain_count"] == 1
    cfg = FocalConfig.of(doc["inner"], doc["outer"])
    scale = coord_scale(cfg)
    verts = [Point(*v) for v in result["chains"][0]["vertices"]]
    assert len(verts) == 23
    for v in verts:
        dk = min(dist(v, p) for p in cfg.inner)
        dl = min(dist(v, p) for p in cfg.outer)
        assert abs(dk - dl) < 1e-9 * scale
    for m, (i, j) in enumerate(result["chains"][0]["edge_pairs"]):
        a, b = verts[m], verts[(m + 1) % len(verts)]
        mid = Point((a.x + b.x) / 2, (a.y + b.y) / 2)
        assert abs(dist(mid, cfg.inner[i]) - dist(mid, cfg.outer[j])) < 1e-9 * scale


def test_straight_double_vertex_is_concave():
    # (3, -1) is equidistant from inner 1, 7 and outer 2, 6, and its two chain
    # neighbours lie on one line through it: the exact turn is 0
    cfg = FocalConfig.of([[3, 1], [3, -2], [2, 2], [1, -2], [-1, 0], [1, 1], [2, -3], [2, -1]],
                         [[0, 0], [-2, 4], [4, -1], [3, 2], [-2, -2], [4, 2], [3, 0], [-4, 2],
                          [4, -2], [-3, 2], [4, 3], [3, -4]])
    (chain,) = extract_boundary(cfg)
    m = chain.vertices.index(Point(3.0, -1.0))
    info = chain.vertex_info[m]
    assert (info.inner_refs, info.outer_refs) == ((1, 7), (2, 6))
    assert (info.change_type, info.angle_type) == ("double", "concave")


def test_close_vertices_merge_into_the_first_of_their_run():
    # ring (8, 12) from seed 3: an eps between the chain's shortest edge and the next
    # shortest merges only that edge's two ends, into the point of its start: the run's
    # first member in walk order, which is chain order on a counterclockwise outer chain
    cfg = ring_config(random.Random(3), 8, 12)
    (chain,) = extract_boundary(cfg)
    verts = chain.vertices
    n = len(verts)
    lengths = sorted((dist(verts[m], verts[(m + 1) % n]), m) for m in range(n))
    assert n == 20 and lengths[0][1] == 1 and chain.signed_area() > 0
    xs, ys = [p.x for p in cfg.points], [p.y for p in cfg.points]
    extent = max(max(xs) - min(xs), max(ys) - min(ys))
    eps = (lengths[0][0] + lengths[1][0]) / 2 / extent
    (merged,) = extract_boundary(cfg, eps=eps)
    assert merged.vertices == verts[:2] + verts[3:]
    info = merged.vertex_info[1]
    assert (info.inner_refs, info.outer_refs, info.change_type) == ((0, 7), (7, 8), "double")
    others = merged.vertex_info[:1] + merged.vertex_info[2:]
    assert others == chain.vertex_info[:1] + chain.vertex_info[3:]
    assert merged.edge_pairs == chain.edge_pairs[:1] + chain.edge_pairs[2:]


def test_a_cycle_within_eps_collapses_to_its_lowest_step():
    cfg = ring_config(random.Random(3), 8, 12)
    (steps,) = extract_boundary(cfg, eps=0.0)  # one vertex per step of the walk
    (collapsed,) = extract_boundary(cfg, eps=0.3)
    info = collapsed.vertex_info[0]
    assert collapsed.vertices == steps.vertices[:1]
    assert set(info.inner_refs) == {i for vi in steps.vertex_info for i in vi.inner_refs}
    assert set(info.outer_refs) == {j for vi in steps.vertex_info for j in vi.outer_refs}
    assert collapsed.edge_pairs == steps.edge_pairs[-1:]  # the last member's leaving edge
    rng = random.Random(3)
    for _ in range(5):
        relabelled = FocalConfig(tuple(rng.sample(cfg.inner, cfg.p)),
                                 tuple(rng.sample(cfg.outer, cfg.q)))
        assert [ch.vertices for ch in extract_boundary(relabelled, eps=0.3)] == [steps.vertices[:1]]


def _has_pinch_or_hole(chains):
    verts = [v for ch in chains for v in ch.vertices]
    pinch = len(set(verts)) < len(verts)
    hole = any(point_in_polygon(v, b.vertices)
               for a in chains for b in chains if a is not b
               for v in a.vertices if v not in b.vertices)
    return pinch, hole


def _angle(v: Point, u: Point) -> float:
    return math.atan2(u.y - v.y, u.x - v.x)


def _body_on_left(cfg: FocalConfig, a: Point, b: Point) -> bool:
    h = 1e-3
    probe = Point((a.x + b.x) / 2 - h * (b.y - a.y), (a.y + b.y) / 2 + h * (b.x - a.x))
    return membership(probe, cfg) == MEMBER_INSIDE


def assert_walk_turns_through_body(cfg: FocalConfig, chains):
    """Walked with the body on the left, every chain turns clockwise from its arriving
    edge into its leaving edge through a wedge of the body that no other boundary
    edge at the vertex enters."""
    rays = {}  # vertex -> directions of every boundary edge at it
    for ch in chains:
        n = len(ch.vertices)
        for t, v in enumerate(ch.vertices):
            rays.setdefault(v, []).extend(
                (_angle(v, ch.vertices[t - 1]), _angle(v, ch.vertices[(t + 1) % n])))
    for ch in chains:
        verts = list(ch.vertices)
        if not _body_on_left(cfg, verts[0], verts[1]):  # a hole, listed counterclockwise
            verts.reverse()
        n = len(verts)
        for t, v in enumerate(verts):
            u, w = verts[t - 1], verts[(t + 1) % n]
            back, ahead = _angle(v, u), _angle(v, w)
            sweep = (back - ahead) % (2 * math.pi)
            for r in rays[v]:
                if r not in (back, ahead):
                    assert (back - r) % (2 * math.pi) > sweep
            h = 1e-3 * min(dist(u, v), dist(v, w))
            mid = back - sweep / 2
            probe = Point(v.x + h * math.cos(mid), v.y + h * math.sin(mid))
            assert membership(probe, cfg) == MEMBER_INSIDE


def assert_lowest_first_and_sorted(chains):
    lowest = [min((v.x, v.y) for v in ch.vertices) for ch in chains]
    assert lowest == sorted(lowest) == [(ch.vertices[0].x, ch.vertices[0].y) for ch in chains]


def test_chains_agree_with_distance_oracle_at_pinches_and_holes():
    """On grid bodies with a pinch point or a hole: even-odd over all chains equals
    membership, each edge lies on its pair's bisector, every turn passes through the
    body, and each chain starts at its lowest vertex and comes sorted by it, also on
    the pinch and hole corpus at eps 0, 1e-3 and 0.3, where runs merge."""
    kinds = set()
    checked = 0
    for seed in range(60):
        cfg = grid_config(random.Random(seed), 8)
        chains = extract_boundary(cfg)
        pinch, hole = _has_pinch_or_hole(chains)
        if not (pinch or hole):
            continue
        kinds.update(k for k, on in (("pinch", pinch), ("hole", hole)) if on)
        assert_lowest_first_and_sorted(chains)
        for ch in chains:
            n = len(ch.vertices)
            for m, (i, j) in enumerate(ch.edge_pairs):
                a, b = ch.vertices[m], ch.vertices[(m + 1) % n]
                mid = Point((a.x + b.x) / 2, (a.y + b.y) / 2)
                assert abs(dist(mid, cfg.inner[i]) - dist(mid, cfg.outer[j])) < 1e-9
        assert_walk_turns_through_body(cfg, chains)
        clip = build_body(cfg).clip
        rng = random.Random(seed)
        for _ in range(300):
            q = Point(rng.uniform(clip.xmin, clip.xmax), rng.uniform(clip.ymin, clip.ymax))
            if in_float_band(q, cfg, 1e-7):
                continue
            m = membership(q, cfg)
            inside = sum(point_in_polygon(q, ch.vertices) for ch in chains) % 2 == 1
            assert inside == (m == MEMBER_INSIDE)
        checked += 1
    assert kinds == {"pinch", "hole"} and checked >= 10
    for cfg in _pinch_and_hole_corpus():
        for eps in (0.0, 1e-3, 0.3):
            assert_lowest_first_and_sorted(extract_boundary(cfg, eps))


# --- the former walk, kept as an oracle --------------------------------------
# It joined the boundary edges at equal endpoints and, at a pinch point, chose
# the leaving edge by an exact angular sort.  The walk through the inner cells
# must give the same chains.

def _direction(u, v):
    """A positive multiple of the vector from u to v (homogeneous points, W > 0)."""
    return v[0] * u[2] - u[0] * v[2], v[1] * u[2] - u[1] * v[2]


def _clockwise_order(back):
    """Comparator of directions by their clockwise angle from ``back``, in (0, 2*pi)."""

    def half(d):  # 0 for a clockwise angle in (0, pi), 1 for one in [pi, 2*pi)
        return 0 if back[0] * d[1] - back[1] * d[0] < 0 else 1

    def cmp(d, e):
        if half(d) != half(e):
            return half(d) - half(e)
        cross = d[0] * e[1] - d[1] * e[0]  # within a half the angles differ by less than pi
        return (cross > 0) - (cross < 0)

    return cmp_to_key(cmp)


def angular_extract_boundary(cfg: FocalConfig, eps: float = EPS_GEO) -> list[PolygonChain]:
    """Boundary of the body as closed counterclockwise chains, one per boundary cycle.

    The boundary edges, the edges on outer rows of the exact cells of
    ``EquidistantBody.inner_cells``, are joined at exactly equal homogeneous
    endpoints and walked with the body on the left.  At a pinch point the
    arriving edge continues into the nearest leaving edge clockwise from it,
    so it turns through a wedge of the body.  The engine's ``_chains`` turns
    the cycles into chains.
    """
    body = build_body(cfg)
    edges = []  # (start, end, inner i, outer j): cell edges between inner i and outer j
    for i, cell in enumerate(body.inner_cells):
        for t, (vert, j) in enumerate(cell):
            if 0 <= j < cfg.q:
                edges.append((vert, cell[t + 1 - len(cell)][0], i, j))

    leaving = {}
    for e, edge in enumerate(edges):
        leaving.setdefault(edge[0], []).append(e)

    def successor(e):
        u, v = edges[e][:2]
        out = leaving[v]
        if len(out) == 1:
            return out[0]
        order = _clockwise_order(_direction(v, u))
        return min(out, key=lambda f: order(_direction(v, edges[f][1])))

    seen = [False] * len(edges)
    cycles = []
    for e in range(len(edges)):
        cycles.append([])
        while not seen[e]:
            seen[e] = True
            vert, _, i, j = edges[e]
            cycles[-1].append((i, vert, j))
            e = successor(e)
    return _chains(body, eps, cycles)


def _pinch_and_hole_corpus():
    """The grid bodies of the pinch and hole test, ring bodies and MIXED."""
    yield from (grid_config(random.Random(seed), 8) for seed in range(60))
    yield from (ring_config(random.Random(seed), 2 + seed % 7) for seed in range(30))
    yield MIXED


@pytest.mark.parametrize("eps", [1e-9, 1e-3])
def test_walk_through_cells_matches_angular_walk(monkeypatch, eps):
    turns = []
    angular = _clockwise_order

    def counted(back):
        turns.append(back)
        return angular(back)

    monkeypatch.setitem(globals(), "_clockwise_order", counted)
    for cfg in _pinch_and_hole_corpus():
        assert repr(extract_boundary(cfg, eps=eps)) == repr(angular_extract_boundary(cfg, eps=eps))
    assert turns  # the corpus reaches the angular pinch-point branch


# --- the chains kept per config and eps --------------------------------------

def test_same_body_and_eps_give_equal_distinct_lists():
    cfg = ring_config(random.Random(3), 8, 12)
    first = extract_boundary(cfg)
    second = extract_boundary(cfg)
    assert first == second and first is not second
    first.clear()
    assert second and extract_boundary(cfg) == second


def test_another_eps_on_the_same_body_walks_again():
    cfg = ring_config(random.Random(3), 8, 12)
    epsilons = (EPS_GEO, 0.3, 0.0, EPS_GEO)  # 0.3 collapses the chain to one vertex
    kept = [repr(extract_boundary(cfg, eps)) for eps in epsilons]
    # an equal config builds a new body
    fresh = [repr(extract_boundary(FocalConfig(cfg.inner, cfg.outer), eps)) for eps in epsilons]
    assert kept == fresh and kept[1] != kept[0]


def test_walk_is_kept_per_config_object(monkeypatch):
    """A body built for another config in between neither rebuilds cfg's body nor walks again."""
    cfg = ring_config(random.Random(3), 8, 12)
    first = extract_boundary(cfg)
    build_body(ring_config(random.Random(4), 8, 12))  # takes build_body's slot
    calls = []
    for module, name in ((polygon_module, "_chains"), (body_module, "bounding_radius")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, name=name, original=original:
                            calls.append(name) or original(*args))
    assert extract_boundary(cfg) == first and calls == []
    # an equal config object builds its own body and walks it
    assert extract_boundary(FocalConfig(cfg.inner, cfg.outer)) == first
    assert calls == ["bounding_radius", "_chains"]
