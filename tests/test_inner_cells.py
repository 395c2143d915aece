"""The one exact inner-cell construction against the standalone cells, and the sampled check.

``EquidistantBody.inner_cells`` continues each component's stored clip with the
inner rows.  Its cells must equal the cells of the inner sites among all
focal points clipped on their own (``convex_component`` with its own
scaling), up to the vertex they start at, with exactly equal floats and the
same focal point or box side on every edge.  ``voronoi_check`` tests samples
against those cells with exact row signs.  Two former versions stay as
oracles: ``float_band_voronoi_check`` tested the standalone cells with a band,
and ``scanned_voronoi_check`` decided "inside" twice per sample.  Both skipped
a sample whose two nearest focal distances were within tol times the
coordinate scale; ``voronoi_check`` skips one only when its nearest inner and
nearest outer distance are within the rounding of ``math.hypot``, which an
integer oracle checks sample by sample.
"""

import functools
import json
import math
import random

import pytest

from conftest import coord_scale, random_generic_32
from equidist import body as body_module
from equidist import cli
from equidist import polygon as polygon_module
from equidist.body import FocalConfig, _side_rows, bounding_radius, build_body, convex_component
from equidist.polygon import (
    VoronoiReport,
    cell_polygons,
    extract_boundary,
    labeled_points,
    voronoi_check,
)
from equidist.primitives import EPS_GEO, Point, dist, dyadic_ints
from test_exact_graph import MIXED, grid_config, ring_config, voronoi_cells


def float_band_voronoi_check(cfg: FocalConfig, n_samples: int = 10000, seed: int = 42,
                             tol: float = EPS_GEO) -> VoronoiReport:
    """The former ``voronoi_check``: standalone cells tested by signed distances with a band.

    Verbatim but for the clip box, taken here from the body: ``build_body(cfg).clip``.
    The signed distances (``min_signed``) now have exact signs; the cell
    tests still allow them the band of +-tol * scale.
    """
    clip = build_body(cfg).clip
    all_points = [p for _, p in labeled_points(cfg)]
    cells = [convex_component(x, tuple(p for p in all_points if p != x), clip)
             for x in cfg.inner]
    rng = random.Random(seed)
    scale = coord_scale(cfg)
    band = tol * scale
    p_count = cfg.p

    ties = agreements = disagreements = inside_count = 0
    cell_misses = overlap_violations = 0
    for _ in range(n_samples):
        q = Point(rng.uniform(clip.xmin, clip.xmax), rng.uniform(clip.ymin, clip.ymax))
        dists = [dist(q, p) for p in all_points]
        best = second = math.inf
        best_idx = -1
        for idx, d in enumerate(dists):
            if d < best:
                best, second, best_idx = d, best, idx
            elif d < second:
                second = d
        if second - best <= band:
            ties += 1
            continue
        inside = min(dists[:p_count]) < min(dists[p_count:])
        if inside == (best_idx < p_count):
            agreements += 1
        else:
            disagreements += 1
        if inside:
            inside_count += 1
            signed = [cell.min_signed(q) for cell in cells]
            hits = sum(1 for m in signed if m >= -band)
            strict_hits = sum(1 for m in signed if m > band)
            if hits == 0:
                cell_misses += 1
            if strict_hits > 1:
                overlap_violations += 1
    return VoronoiReport(samples=n_samples, ties_skipped=ties, agreements=agreements,
                         disagreements=disagreements, inside_count=inside_count,
                         cell_misses=cell_misses, overlap_violations=overlap_violations)


def scanned_voronoi_check(cfg: FocalConfig, n_samples: int = 10000, seed: int = 42,
                          tol: float = EPS_GEO) -> VoronoiReport:
    """The former ``voronoi_check``: a scan for the two nearest focal distances.

    Verbatim but for this docstring.  It decides "inside" twice per sample,
    by the inner and outer minima and by the nearest index, and counts how
    often the two agree.
    """
    body = build_body(cfg)
    clip = body.clip
    _, box, k, _ = body.components[0]._exact
    lines = [c._exact[0] + _side_rows(box) for c in body.components]
    cells = [[lines[i][j] for _, j in cell] for i, cell in enumerate(body.inner_cells)]
    all_points = cfg.points
    rng = random.Random(seed)
    scale = coord_scale(cfg)
    band = tol * scale
    p_count = cfg.p

    ties = agreements = disagreements = inside_count = 0
    cell_misses = overlap_violations = 0
    for _ in range(n_samples):
        q = Point(rng.uniform(clip.xmin, clip.xmax), rng.uniform(clip.ymin, clip.ymax))
        dists = [dist(q, p) for p in all_points]
        best = second = math.inf
        best_idx = -1
        for idx, d in enumerate(dists):
            if d < best:
                best, second, best_idx = d, best, idx
            elif d < second:
                second = d
        if second - best <= band:
            ties += 1
            continue
        # the gap between the two nearest focal points exceeds the band, so
        # the inner/outer minima cannot tie either
        inside = min(dists[:p_count]) < min(dists[p_count:])
        if inside == (best_idx < p_count):
            agreements += 1
        else:
            disagreements += 1
        if inside:
            inside_count += 1
            (x, y), kq = dyadic_ints((q.x, q.y))
            x, y, w = x << k, y << k, 1 << kq
            slacks = [min(c * w - a * x - b * y for a, b, c in rows) for rows in cells]
            if max(slacks) < 0:
                cell_misses += 1
            if sum(1 for m in slacks if m > 0) > 1:
                overlap_violations += 1
    return VoronoiReport(samples=n_samples, ties_skipped=ties, agreements=agreements,
                         disagreements=disagreements, inside_count=inside_count,
                         cell_misses=cell_misses, overlap_violations=overlap_violations)


# outer points far from the inner sites: a wide body with long cells
FAR_OUTER = FocalConfig.of([(0.5, 0.25), (-1.0, 0.75), (0.25, -1.0)],
                           [(10.0, 0.5), (-0.5, 10.0), (-10.0, -0.25), (0.75, -10.0)])


def labelled_edges(points, sites):
    """(repr of x, repr of y, the point or box side that carries the edge from it)."""
    return [(repr(p.x), repr(p.y), site) for p, site in zip(points, sites)]


def assert_cells_match_standalone(cfg: FocalConfig):
    """Builder cells equal standalone cells up to rotation, and meet no box side."""
    body = build_body(cfg)
    q = cfg.q
    pts = cfg.points
    for x, cell, poly in zip(cfg.inner, body.inner_cells, cell_polygons(body)):
        others = tuple(p for p in pts if p != x)
        alone = convex_component(x, others, body.clip)
        # row j of a block is outer point j, then inner site j - q; box sides are negative
        got = labelled_edges(poly, [j if j < 0 else cfg.outer[j] if j < q else cfg.inner[j - q]
                                    for _, j in cell])
        want = labelled_edges(alone.vertices, [t if t < 0 else others[t]
                                               for t in alone.edge_tags])
        assert len(got) == len(want) >= 3
        assert any(got[s:] + got[:s] == want for s in range(len(got)))
        assert all(j >= 0 for _, j in cell)


class TestBuilderCellsEqualStandaloneCells:
    def test_ring_configs(self):
        rng = random.Random(71)
        for p in (2, 5, 8):
            for _ in range(3):
                assert_cells_match_standalone(ring_config(rng, p))

    def test_grid_configs(self):
        # integer points: concurrent bisectors, so zero-length edges are dropped
        rng = random.Random(72)
        for _ in range(30):
            assert_cells_match_standalone(grid_config(rng, rng.randint(2, 6)))

    def test_mixed_magnitudes(self):
        assert_cells_match_standalone(MIXED)

    def test_standalone_helper_of_the_graph_tests(self):
        rng = random.Random(73)
        for cfg in (MIXED, ring_config(rng, 4), grid_config(rng, 4)):
            got = cell_polygons(build_body(cfg))
            for poly, alone in zip(got, voronoi_cells(cfg)):
                want = list(alone.vertices)
                assert any(list(poly[s:] + poly[:s]) == want for s in range(len(poly)))

    def test_one_clip_per_cell_from_the_component(self):
        # each cell is the component's raw clip cut by the p inner rows only
        cfg = ring_config(random.Random(74), 5)
        body = build_body(cfg)
        for comp, cell in zip(body.components, body.inner_cells):
            rows = comp._exact[0]
            assert len(rows) == cfg.q + cfg.p
            # every vertex lies on both rows that meet there and within all rows
            for t, (vert, j) in enumerate(cell):
                x, y, w = vert
                assert math.gcd(x, y, w) == 1 and w > 0
                assert all(c * w - a * x - b * y >= 0 for a, b, c in rows)
                for e in (j, cell[t - 1][1]):
                    if e >= 0:
                        a, b, c = rows[e]
                        assert c * w - a * x - b * y == 0


def oracle_configs():
    rng = random.Random(75)
    yield from (ring_config(rng, 8, 12) for _ in range(3))
    yield from (grid_config(rng, rng.randint(3, 6)) for _ in range(4))
    yield random_generic_32(random.Random(76))
    # inner sites symmetric about an axis: samples on it are ties
    yield FocalConfig.of([(-1, 0), (1, 0)], [(10, 0), (-10, 0), (0, 10), (0, -10)])
    yield MIXED


def assert_band_now_counted(got: VoronoiReport, want: VoronoiReport):
    """got, of ``voronoi_check``, skips no sample; want, of a former check, skipped its band.

    Both decide every other sample by the same float distances, so the former
    agreements are a subset of the new ones, and the reports are repr-equal when
    the band skipped nothing.
    """
    assert got.ties_skipped == 0 and got.ok
    assert got.agreements == want.agreements + want.ties_skipped
    assert 0 <= got.inside_count - want.inside_count <= want.ties_skipped
    if want.ties_skipped == 0:
        assert repr(got) == repr(want)


class TestVoronoiCheckAgainstFloatBand:
    def test_reports_equal(self):
        for i, cfg in enumerate(oracle_configs()):
            want = float_band_voronoi_check(cfg, 1500, 80 + i)
            assert want.ties_skipped == 0 and want.ok
            assert voronoi_check(cfg, 1500, 80 + i) == want

    def test_ties_are_skipped_the_same_way(self):
        # samples on the axis between the inner sites tie two inner sites, which
        # voronoi_check does not skip; a band that skips none of them gives its report
        cfg = FocalConfig.of([(-1, 0), (1, 0)], [(10, 0), (-10, 0), (0, 10), (0, -10)])
        for tol in (1e-9, 1e-15):
            want = float_band_voronoi_check(cfg, 2000, 3, tol=tol)
            assert want.ties_skipped == 0
            assert voronoi_check(cfg, 2000, 3) == want

    def test_sample_on_a_cell_edge_hits_both_cells(self, monkeypatch):
        # the exact signs put the midpoint of the two inner sites on both cells'
        # closed edge but in neither interior, so it is no miss and no overlap
        cfg = FocalConfig.of([(-1, 0), (1, 0)], [(10, 0), (-10, 0), (0, 10), (0, -10)])
        body = build_body(cfg)
        for cell in body.inner_cells:
            assert any(j >= cfg.q for _, j in cell)
        monkeypatch.setattr(random.Random, "uniform", lambda self, a, b: 0.0)
        rep = voronoi_check(cfg, 10)  # a tie of two inner sites is no tie
        assert rep.ties_skipped == 0
        assert rep.inside_count == 10 and rep.cell_misses == 0
        assert rep.overlap_violations == 0


class TestVoronoiCheckAgainstScan:
    """The scan for the two nearest points at its former bands, against the one rule now."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-3, 0.0])
    def test_reports_repr_equal(self, tol):
        ties = 0
        for i, cfg in enumerate([*oracle_configs(), FAR_OUTER]):
            want = scanned_voronoi_check(cfg, 1000, 90 + i, tol)
            assert_band_now_counted(voronoi_check(cfg, 1000, 90 + i), want)
            ties += want.ties_skipped
        assert ties > 0 or tol < 1e-3

    def test_exact_ties_on_a_lattice(self, monkeypatch):
        # half-integer samples are often exactly as far from an inner as from an
        # outer grid point: those, and only those, are skipped
        monkeypatch.setattr(random.Random, "uniform", half_integers)
        rng = random.Random(81)
        ties = 0
        for i in range(6):
            cfg = grid_config(rng, rng.randint(2, 6))
            signs = [exact_sign(cfg, q) for q in samples(cfg, 300, i)]
            rep = voronoi_check(cfg, 300, i)
            assert rep.ties_skipped == signs.count(0)
            assert rep.inside_count == signs.count(-1)
            ties += rep.ties_skipped
        assert ties > 0

    @pytest.mark.parametrize("eps", ["1e-9", "1e-3"])
    def test_cli_stdout_byte_identical(self, tmp_path, capsys, monkeypatch, eps):
        # the former check at the former --eps writes the same bytes wherever its band
        # skipped nothing; voronoi-check reads no --eps now
        rng = random.Random(80)
        for i, cfg in enumerate([ring_config(rng, 8, 12), grid_config(rng, 4), MIXED]):
            path = tmp_path / f"cfg{i}.json"
            path.write_text(json.dumps({"inner": [list(p) for p in cfg.inner],
                                        "outer": [list(p) for p in cfg.outer]}))
            outs = []
            for check in (voronoi_check, functools.partial(scanned_voronoi_check,
                                                           tol=float(eps))):
                monkeypatch.setattr(cli, "voronoi_check", check)
                assert cli.main(["voronoi-check", str(path), "--samples", "800"]) == 0
                outs.append(capsys.readouterr().out)
            got, want = (VoronoiReport(**{k: v for k, v in json.loads(out)["result"].items()
                                          if k != "ok"}) for out in outs)
            assert_band_now_counted(got, want)
            assert (outs[0] == outs[1]) == (want.ties_skipped == 0)


def half_integers(self, a, b):
    """A ``random.Random.uniform`` on the half-integers of [-4, 4)."""
    return math.floor(self.random() * 16) / 2 - 4


def samples(cfg: FocalConfig, n: int, seed: int):
    """The sample points of ``voronoi_check(cfg, n, seed)``, in its order."""
    clip = build_body(cfg).clip
    rng = random.Random(seed)
    return [(rng.uniform(clip.xmin, clip.xmax), rng.uniform(clip.ymin, clip.ymax))
            for _ in range(n)]


def exact_sign(cfg: FocalConfig, q) -> int:
    """Sign of (least inner - least outer squared distance) of the float point q, in integers."""
    ints, _ = dyadic_ints([*q, *(v for p in cfg.points for v in p)])
    (x, y), pts = ints[:2], list(zip(ints[2::2], ints[3::2]))
    d = [(px - x) ** 2 + (py - y) ** 2 for px, py in pts]
    least_in, least_out = min(d[:cfg.p]), min(d[cfg.p:])
    return (least_in > least_out) - (least_in < least_out)


def shifted(cfg: FocalConfig, s: float) -> FocalConfig:
    return FocalConfig.of([(x + s, y - s) for x, y in cfg.inner],
                          [(x + s, y - s) for x, y in cfg.outer])


def translation_configs():
    rng = random.Random(82)
    yield from (ring_config(rng, 8, 12) for _ in range(2))
    yield from (grid_config(rng, rng.randint(2, 6)) for _ in range(2))


def tie_rule_configs():
    rng = random.Random(83)
    cfgs = [ring_config(rng, 8, 12) for _ in range(4)]
    cfgs += [grid_config(rng, rng.randint(2, 6)) for _ in range(4)]
    return cfgs + [shifted(cfg, s) for cfg, s in zip(cfgs[::2], (1e6, 1e9, 1e10, 1e12))]


def near_boundary(cfg: FocalConfig):
    """Chain vertices and edge midpoints of the body, and each moved in x by +-1e-15 to 1e-7."""
    extent = max(abs(v) for p in cfg.points for v in p)
    points = []
    for chain in extract_boundary(cfg):
        vs = chain.vertices
        for u, v in zip(vs, vs[1:] + vs[:1]):
            points += [(u.x, u.y), ((u.x + v.x) / 2, (u.y + v.y) / 2)]
    return [(x + sign * 10.0 ** -e * extent, y) for x, y in points
            for e in (15, 13, 11, 9, 7) for sign in (-1, 1)] + points


class TestTieRuleAgainstIntegers:
    """Each sample's float verdict against the exact one, by the integer squared distances."""

    @staticmethod
    def assert_tie_rule(monkeypatch, cfg, qs, run) -> int:
        """run() is voronoi_check(cfg) on the samples qs; returns the samples within the bound."""
        scaled = polygon_module._scaled
        inside = []
        monkeypatch.setattr(polygon_module, "_scaled",
                            lambda q, k: inside.append((q.x, q.y)) or scaled(q, k))
        want_inside, within = [], 0
        for q in qs:
            d_in, d_out = (min(math.hypot(q[0] - p.x, q[1] - p.y) for p in side)
                           for side in (cfg.inner, cfg.outer))
            sign = exact_sign(cfg, q)
            if abs(d_in - d_out) <= 4 * math.ulp(max(d_in, d_out)):
                within += 1
            else:
                assert sign == (1 if d_in > d_out else -1)
                if sign < 0:
                    want_inside.append(q)
        rep = run()
        assert inside == want_inside  # every counted sample, inside by exact signs
        assert rep.ties_skipped == within and rep.inside_count == len(want_inside)
        monkeypatch.undo()
        return within

    def test_uniform_samples(self, monkeypatch):
        # 12 configurations, 24000 samples
        for i, cfg in enumerate(tie_rule_configs()):
            self.assert_tie_rule(monkeypatch, cfg, samples(cfg, 2000, i),
                                 lambda: voronoi_check(cfg, 2000, i))

    def test_samples_near_the_boundary(self, monkeypatch):
        # a sample on the boundary ties up to rounding; 1e-9 off it, it does not
        within = 0
        for cfg in tie_rule_configs():
            qs = near_boundary(cfg)
            coords = iter([v for q in qs for v in q])
            monkeypatch.setattr(random.Random, "uniform", lambda self, a, b: next(coords))
            within += self.assert_tie_rule(monkeypatch, cfg, qs,
                                           lambda: voronoi_check(cfg, len(qs)))
        assert within > 0


class TestTranslation:
    """The radius and the sampled check follow the input under translation."""

    @pytest.mark.parametrize("s", [1e6, 1e9, 1e10, 1e12])
    def test_shifted_configs(self, s):
        for i, cfg in enumerate(translation_configs()):
            moved = shifted(cfg, s)
            assert bounding_radius(moved) == pytest.approx(bounding_radius(cfg), rel=1e-4)
            if s <= 1e10:
                rep = voronoi_check(moved, 2000, i)
                assert rep.ties_skipped == 0 and rep.ok
                assert rep.inside_count == voronoi_check(cfg, 2000, i).inside_count


class TestCellsBuiltOnce:
    def test_render_clips_each_cell_once(self, tmp_path, monkeypatch):
        # the boundary walk and the drawn cells share the body's cells
        cfg = ring_config(random.Random(77), 8, 12)
        path = tmp_path / "ring.json"
        path.write_text(json.dumps({"inner": [list(p) for p in cfg.inner],
                                    "outer": [list(p) for p in cfg.outer]}))
        clip = body_module._exact_clip
        continued = []

        def counting(rows, box, *start):  # start: the raw clip and its first new row
            if start:
                continued.append(len(rows) - start[1])
            return clip(rows, box, *start)

        monkeypatch.setattr(body_module, "_exact_clip", counting)
        args = ["render", str(path), "--show-voronoi", "--out", str(tmp_path / "ring.svg")]
        assert cli.main(args) == 0
        assert continued == [8] * 8

    def test_cells_are_cached_on_the_body(self):
        body = build_body(ring_config(random.Random(78), 5))
        assert body.inner_cells is body.inner_cells
        assert cell_polygons(body) == cell_polygons(body)
