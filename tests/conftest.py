"""Shared generators and grid oracles for the test suite.

The generators are deterministic (caller passes a seeded Random) and keep
margins between focal points so that rasterized oracles resolve the bodies.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
from scipy import ndimage

from equidist.body import (
    FocalConfig,
    _exact_clip,
    _float_point,
    _meet,
    _side_rows,
    build_body,
    convex_hull,
    distance_to_set,
    is_bounded,
)
from equidist.cli import _fmt_float
from equidist.errors import InvalidConfig
from equidist.polygon import (BoundReport, FocalRef, VertexInfo, check_regularity,
                              extract_boundary)
from equidist.primitives import Line, Point, dist


def coord_scale(cfg: FocalConfig) -> float:
    """The largest absolute coordinate of cfg's focal points, or 1.0 when every one is 0."""
    m = max(max(abs(p.x), abs(p.y)) for p in cfg.points)
    return m if m > 0.0 else 1.0


def in_float_band(q: Point, cfg: FocalConfig, band: float) -> bool:
    """|d_K - d_L| <= band * coord_scale(cfg), in floats, at q: a band about the boundary."""
    dk, dl = distance_to_set(q, cfg.inner), distance_to_set(q, cfg.outer)
    return abs(dk - dl) <= band * coord_scale(cfg)


def per_vertex_clip(rows, box, verts=None, first=0):
    """``body._exact_clip`` as a per-vertex Sutherland-Hodgman loop: the reference for its splice.

    Each vertex is kept when its slack is >= 0, and an edge whose ends have opposite
    signs gives its meet with the row: carrying the row on the way out, keeping the
    edge's row on the way in.
    """
    xmin, ymin, xmax, ymax = box
    lines = [*rows, *_side_rows(box)]
    if verts is None:
        verts = [((xmin, ymin, 1), -1), ((xmax, ymin, 1), -2), ((xmax, ymax, 1), -3),
                 ((xmin, ymax, 1), -4)]
    for j in range(first, len(rows)):
        a, b, c = row = rows[j]
        svals = [c * w - a * x - b * y for (x, y, w), _ in verts]
        if min(svals, default=0) >= 0:
            continue
        out = []
        n = len(verts)
        for i, (vert, edge) in enumerate(verts):
            sa, sb = svals[i], svals[i + 1 - n]
            if sa >= 0:
                out.append((vert, edge))
                if sb < 0:
                    out.append((_meet(lines[edge], row), j))
            elif sb >= 0:
                out.append((_meet(lines[edge], row), edge))
        verts = out
    return verts


def reference_format_json(obj, indent: int = 0) -> str:
    """``cli.format_json`` as a string-returning recursion: the reference for its one buffer.

    Each container joins the strings of its items, dispatched on their exact type.
    """
    pad = "  " * (indent + 1)
    inline = {bool: lambda v: "true" if v else "false", type(None): lambda v: "null", int: str,
              float: _fmt_float, str: json.encoder.encode_basestring_ascii,
              Point: lambda p: f"[{_fmt_float(p.x)}, {_fmt_float(p.y)}]"}
    kind = type(obj)
    if kind in inline:
        return inline[kind](obj)
    if kind in (FocalRef, VertexInfo, BoundReport):
        obj, kind = obj._asdict(), dict
    if kind is dict:
        if not obj:
            return "{}"
        items = [f'{pad}"{k}": {reference_format_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + "  " * indent + "}"
    if kind in (list, tuple):
        if not obj:
            return "[]"
        simple = all(isinstance(v, (int, float, str, bool)) or v is None for v in obj)
        parts = [reference_format_json(v, indent + 1) for v in obj]
        if simple and sum(len(s) for s in parts) < 72:
            return "[" + ", ".join(parts) + "]"
        return "[\n" + ",\n".join(pad + s for s in parts) + "\n" + "  " * indent + "]"
    raise TypeError(f"unsupported report value {obj!r}")


def random_bounded_config(rng: random.Random, p_max: int = 4, q_max: int = 6,
                          require_regular: bool = False, min_sep: float = 0.4,
                          hull_margin: float = 0.6,
                          grid_friendly: bool = False) -> FocalConfig:
    """Random bounded configuration with coordinates in [-10, 10]."""
    while True:
        q = rng.randint(3, q_max)
        outer = []
        while len(outer) < q:
            cand = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if all(dist(cand, o) >= min_sep for o in outer):
                outer.append(cand)
        hull = convex_hull(outer)
        if len(hull) < 3:
            continue
        edge_lines = []
        n = len(hull)
        for i in range(n):
            l = Line.through(hull[i], hull[(i + 1) % n])
            sign = 1.0 if l.eval(_centroid(hull)) > 0 else -1.0
            edge_lines.append((l, sign))
        xs = [h.x for h in hull]
        ys = [h.y for h in hull]
        p = rng.randint(1, p_max)
        inner = []
        attempts = 0
        while len(inner) < p and attempts < 400:
            attempts += 1
            cand = Point(rng.uniform(min(xs), max(xs)), rng.uniform(min(ys), max(ys)))
            if any(s * l.eval(cand) < hull_margin for l, s in edge_lines):
                continue
            if any(dist(cand, o) < min_sep for o in outer + inner):
                continue
            inner.append(cand)
        if len(inner) < p:
            continue
        try:
            cfg = FocalConfig(inner=tuple(inner), outer=tuple(outer))
        except InvalidConfig:
            continue
        if not is_bounded(cfg):
            continue
        if require_regular and not check_regularity(cfg).ok:
            continue
        if grid_friendly and not grid_resolvable(cfg):
            continue
        return cfg


def vertex_sets_match(got, want, tol: float) -> bool:
    """Equal sizes, and each point of either set within tol of some point of the other."""
    return (len(got) == len(want)
            and all(min(dist(g, w) for w in want) <= tol for g in got)
            and all(min(dist(g, w) for g in got) <= tol for w in want))


def _centroid(pts):
    return Point(sum(p.x for p in pts) / len(pts), sum(p.y for p in pts) / len(pts))


def random_generic_32(rng: random.Random) -> FocalConfig:
    """Random bounded regular configuration with 2 inner and 3 outer points."""
    from equidist.primitives import signed_area

    while True:
        outer = [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)]
        if abs(signed_area(outer)) < 8.0:
            continue
        inner = []
        while len(inner) < 2:
            u, v = rng.random(), rng.random()
            if u + v > 1.0:
                u, v = 1.0 - u, 1.0 - v
            cand = Point(outer[0].x + u * (outer[1].x - outer[0].x) + v * (outer[2].x - outer[0].x),
                         outer[0].y + u * (outer[1].y - outer[0].y) + v * (outer[2].y - outer[0].y))
            if all(dist(cand, z) >= 0.3 for z in outer + inner):
                inner.append(cand)
        try:
            cfg = FocalConfig(inner=tuple(inner), outer=tuple(outer))
        except InvalidConfig:
            continue
        if is_bounded(cfg) and check_regularity(cfg).ok:
            return cfg


def random_pentagon_config(rng: random.Random) -> tuple[FocalConfig, object]:
    """Forward-generated (3,2) configuration whose boundary is a 2-concave pentagon."""
    while True:
        cfg = random_generic_32(rng)
        try:
            chains = extract_boundary(cfg)
        except Exception:
            continue
        if len(chains) != 1:
            continue
        ch = chains[0]
        concave = sum(1 for vi in ch.vertex_info if vi.angle_type == "concave")
        if len(ch.vertices) == 5 and concave == 2:
            return cfg, ch


def random_concave_quad(rng: random.Random):
    """Random simple quadrangle with exactly one reflex vertex."""
    from equidist.type32 import label_quad

    while True:
        raw = [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(4)]
        c = _centroid(raw)
        raw.sort(key=lambda p: math.atan2(p.y - c.y, p.x - c.x))
        if min(dist(raw[i], raw[(i + 1) % 4]) for i in range(4)) < 0.5:
            continue
        try:
            return label_quad(raw)
        except Exception:
            continue


# ---------------------------------------------------------------------------
# grid rasterization oracle (test-only apparatus)


def _min_width(pts) -> float:
    """Minimal width of a convex polygon (0 for degenerate input)."""
    n = len(pts)
    if n < 3:
        return 0.0
    width = math.inf
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        if a == b:
            continue
        l = Line.through(a, b)
        width = min(width, max(abs(l.eval(p)) for p in pts))
    return 0.0 if width is math.inf else width


def _segment_dist(p, a, b) -> float:
    ax, ay = b.x - a.x, b.y - a.y
    d2 = ax * ax + ay * ay
    if d2 == 0.0:
        return dist(p, a)
    t = max(0.0, min(1.0, ((p.x - a.x) * ax + (p.y - a.y) * ay) / d2))
    return dist(p, Point(a.x + t * ax, a.y + t * ay))


def _poly_gap(pa, pb) -> float:
    gap = math.inf
    na, nb = len(pa), len(pb)
    for p in pa:
        for i in range(nb):
            gap = min(gap, _segment_dist(p, pb[i], pb[(i + 1) % nb]))
    for p in pb:
        for i in range(na):
            gap = min(gap, _segment_dist(p, pa[i], pa[(i + 1) % na]))
    return gap


def _overlap(a, b) -> list[Point]:
    """Vertices of a ∩ b for components of one body: its box clipped by both outer row blocks."""
    (rows_a, box, k, _), rows_b, q = a._exact, b._exact[0], len(a.outer)
    return [_float_point(vert, k) for vert, _ in _exact_clip(rows_a[:q] + rows_b[:q], box)]


def grid_resolvable(cfg: FocalConfig, n: int = 400, cells: float = 6.0) -> bool:
    """True when a n-by-n raster can resolve every overlap, gap, and component.

    Rejects configurations whose component overlaps or separations are
    thinner than a few grid cells; the flood-fill oracle is only conclusive
    for such generic inputs.
    """
    from equidist.connectivity import intersection_dim

    body = build_body(cfg)
    xs, ys = [], []
    for comp in body.components:
        for v in comp.vertices:
            xs.append(v.x)
            ys.append(v.y)
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    thr = cells * span / n
    comps = body.components
    for comp in comps:
        if _min_width(comp.vertices) < thr:
            return False
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            dim = intersection_dim(comps[i], comps[j])
            if dim == 2:
                if _min_width(_overlap(comps[i], comps[j])) < thr:
                    return False
            elif dim == -1:
                if _poly_gap(comps[i].vertices, comps[j].vertices) < thr:
                    return False
            else:
                return False  # exact touching: not resolvable by a raster
    return True


def body_bbox(cfg: FocalConfig, pad_cells: int = 2, n: int = 400):
    """Tight bounding box of the component polygons, padded by whole cells."""
    body = build_body(cfg)
    xs, ys = [], []
    for comp in body.components:
        for v in comp.vertices:
            xs.append(v.x)
            ys.append(v.y)
    w = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    pad = pad_cells * w / n
    return min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad


def grid_inside_mask(cfg: FocalConfig, n: int = 400, margin: float = 1e-8):
    """Boolean mask of grid points strictly inside the body (distance oracle)."""
    xmin, ymin, xmax, ymax = body_bbox(cfg, n=n)
    xs = np.linspace(xmin, xmax, n)
    ys = np.linspace(ymin, ymax, n)
    gx, gy = np.meshgrid(xs, ys)
    dk = np.full(gx.shape, np.inf)
    for p in cfg.inner:
        np.minimum(dk, np.hypot(gx - p.x, gy - p.y), out=dk)
    dl = np.full(gx.shape, np.inf)
    for p in cfg.outer:
        np.minimum(dl, np.hypot(gx - p.x, gy - p.y), out=dl)
    return dk < dl - margin * coord_scale(cfg)


def region_count(mask, min_cells: int = 10) -> int:
    """Number of significant 4-connected regions in a boolean mask.

    Sharp convex corners rasterize into isolated diagonal cells, so regions
    below min_cells are counted as noise; genuine body pieces are far larger
    for grid-resolvable configurations.
    """
    labels, count = ndimage.label(mask)
    if min_cells <= 1:
        return int(count)
    sizes = ndimage.sum(mask, labels, range(1, count + 1))
    return int((np.asarray(sizes) >= min_cells).sum())
