"""Command-line front end: JSON reports and SVG rendering over the library pipelines.

Input files are JSON documents: a focal configuration
``{"inner": [[x, y], ...], "outer": [[x, y], ...]}`` or a shape
``{"polygon": [[x, y], ...]}``.  Every run writes one JSON report; numeric
fields use 17 significant digits so values round-trip exactly, and identical
inputs produce byte-identical output.

Exit codes: 0 success, 1 validation or geometry failure, 2 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from .body import (
    FocalConfig,
    body_clip_box,
    build_body,
    convex_component,
    is_bounded,
)
from .connectivity import build_graph, check_polytope, graph_components
from .errors import GeometryError, InvalidConfig, NumericalDegeneracy
from .polygon import (
    COLOR_XYX,
    COLOR_YXY,
    check_regularity,
    check_vertex_bound,
    classify_vertices,
    empty_circle_triples,
    extract_boundary,
    inactive_focals,
    labeled_points,
    voronoi_check,
)
from .primitives import Point
from .svg import Scene, render_svg
from .type32 import (
    classify_generic_32,
    construct_quad_focals,
    default_param,
    feasible_param_range,
    label_quad,
    quad_auxiliary_ray,
    recognize_pentagon,
)

COMMANDS = ("body", "graph", "boundary", "hypergraph", "classify32",
            "recognize-pentagon", "construct-quad", "voronoi-check", "render")


@dataclass
class RunConfig:
    command: str
    input_path: str
    output_path: str | None = None
    eps: float = 1e-9
    clip_scale: float = 2.0
    samples: int = 10000
    seed: int = 42
    show_circles: bool = False
    show_voronoi: bool = False
    t: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise InvalidConfig(f"--eps must be positive and finite, got {self.eps!r}")
        if not (math.isfinite(self.clip_scale) and self.clip_scale > 0.0):
            raise InvalidConfig(
                f"--clip-scale must be positive and finite, got {self.clip_scale!r}")
        if self.samples <= 0:
            raise InvalidConfig("samples must be positive")


class ParseFailure(Exception):
    """Input file is missing, unreadable, or structurally malformed."""


# ---------------------------------------------------------------------------
# deterministic JSON with exact float round-trip


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise NumericalDegeneracy(f"non-finite value in report: {x}")
    return format(x, ".17g")


def format_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner_pad = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner_pad}"{k}": {format_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        simple = all(isinstance(v, (int, float, str, bool)) or v is None for v in obj)
        parts = [format_json(v, indent + 1) for v in obj]
        if simple and sum(len(s) for s in parts) < 72:
            return "[" + ", ".join(parts) + "]"
        return "[\n" + ",\n".join(inner_pad + s for s in parts) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"unsupported report value {obj!r}")


# ---------------------------------------------------------------------------
# input parsing and report pieces


def _as_points(rows, what: str) -> tuple[Point, ...]:
    if not isinstance(rows, list):
        raise ParseFailure(f"{what} must be a list of [x, y] pairs")
    pts = []
    for row in rows:
        if (not isinstance(row, (list, tuple)) or len(row) != 2
                or not all(isinstance(v, (int, float)) for v in row)):
            raise ParseFailure(f"{what} entries must be [x, y] number pairs, got {row!r}")
        try:
            pts.append(Point(float(row[0]), float(row[1])))
        except OverflowError:
            raise ParseFailure(f"{what} coordinates must lie within the float range") from None
    return tuple(pts)


def load_config(data) -> FocalConfig:
    if not isinstance(data, dict) or "inner" not in data or "outer" not in data:
        raise ParseFailure('a focal configuration needs "inner" and "outer" keys')
    return FocalConfig(inner=_as_points(data["inner"], "inner"),
                       outer=_as_points(data["outer"], "outer"))


def load_polygon(data) -> tuple[Point, ...]:
    if not isinstance(data, dict) or "polygon" not in data:
        raise ParseFailure('a shape file needs a "polygon" key')
    pts = _as_points(data["polygon"], "polygon")
    if len(pts) < 3:
        raise ParseFailure("a polygon needs at least three vertices")
    if not all(math.isfinite(v) for pt in pts for v in pt):
        raise ParseFailure("polygon vertices must be finite numbers")
    return pts


def _pt(p: Point):
    return [p.x, p.y]


def _pts(points):
    return [_pt(p) for p in points]


def _ref(r):
    return {"kind": r.kind, "index": r.index}


def _chain_dict(chain):
    return {
        "vertices": _pts(chain.vertices),
        "vertex_info": [
            {
                "angle_type": vi.angle_type,
                "change_type": vi.change_type,
                "inner_refs": list(vi.inner_refs),
                "outer_refs": list(vi.outer_refs),
            }
            for vi in chain.vertex_info
        ],
        "edge_pairs": [list(pair) for pair in chain.edge_pairs],
        "area": chain.signed_area(),
    }


def _certificate_dict(cert):
    return {
        "inner": _pts((cert.x1, cert.x2)),
        "outer": _pts((cert.y1, cert.y2, cert.y3)),
        "residual": cert.residual,
        "source_kind": cert.source_kind,
        "source": _pts(cert.source),
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_body(rc: RunConfig, data):
    cfg = load_config(data)
    body = build_body(cfg, rc.clip_scale)
    chains = extract_boundary(cfg, rc.clip_scale, rc.eps, body=body)
    return {
        "bounded": True,
        "radius": body.radius,
        "clip": [body.clip.xmin, body.clip.ymin, body.clip.xmax, body.clip.ymax],
        "components": [
            {
                "site": _pt(c.site),
                "vertices": _pts(c.vertices),
                "outer_tags": list(c.edge_tags),
                "clipped": c.clipped,
            }
            for c in body.components
        ],
        "chains": [_chain_dict(ch) for ch in chains],
    }


def _cmd_graph(rc: RunConfig, data):
    cfg = load_config(data)
    body = build_body(cfg, rc.clip_scale)
    g = build_graph(body)
    groups = graph_components(g)
    interior_groups = graph_components(g, min_weight=1)
    return {
        "nodes": _pts(g.nodes),
        "edges": [list(e) for e in g.edges],
        "connected": len(groups) == 1,
        "interior_connected": len(interior_groups) == 1,
        "components": [list(grp) for grp in groups],
        "interior_components": [list(grp) for grp in interior_groups],
    }


def _cmd_boundary(rc: RunConfig, data):
    cfg = load_config(data)
    chains = extract_boundary(cfg, rc.clip_scale, rc.eps)
    result = {
        "chain_count": len(chains),
        "chains": [_chain_dict(ch) for ch in chains],
    }
    verdict = check_polytope(cfg, rc.clip_scale)
    result["polytope"] = {"is_polytope": verdict.is_polytope,
                          "reasons": list(verdict.reasons)}
    if len(chains) == 1:
        bound = check_vertex_bound(chains[0], cfg)
        result["vertex_bound"] = {"ok": bound.ok, "count": bound.count,
                                  "limit": bound.limit}
    return result


def _cmd_hypergraph(rc: RunConfig, data):
    cfg = load_config(data)
    reg = check_regularity(cfg)
    if not reg.ok:
        return {
            "regular": False,
            "collinear": [[_ref(r) for r in t] for t in reg.collinear],
            "concircular": [[_ref(r) for r in t] for t in reg.concircular],
        }
    edges = empty_circle_triples(cfg)
    cls = classify_vertices(edges)
    return {
        "regular": True,
        "edges": [
            {
                "refs": [_ref(r) for r in e.refs],
                "color": e.color,
                "center": _pt(e.circle.center),
                "radius": e.circle.radius,
                "weight": e.weight,
            }
            for e in edges
        ],
        "vertices": [{"point": _pt(p), "angle_type": t} for p, t in cls.vertices],
        "interior_witnesses": _pts(cls.interior_witnesses),
        "exterior_witnesses": _pts(cls.exterior_witnesses),
        "inactive": [_ref(r) for r in inactive_focals(cfg, edges)],
    }


def _cmd_classify32(rc: RunConfig, data):
    cfg = load_config(data)
    rep = classify_generic_32(cfg)
    return {
        "category": rep.category,
        "omegas": [list(om) for om in rep.omegas],
        "deltas": list(rep.deltas),
        "closure_residuals": list(rep.closure_residuals),
        "labeling": None if rep.labeling is None else {
            "inner_order": list(rep.labeling[0]),
            "outer_order": list(rep.labeling[1]),
        },
        "separated_outer": rep.separated_outer,
        "delta_ordered": rep.delta_ordered,
        "equal_omega_pairs": [list(p) for p in rep.equal_omega_pairs],
        "collinear": [[_ref(r) for r in t] for t in rep.collinear],
        "concircular": [[_ref(r) for r in t] for t in rep.concircular],
    }


def _cmd_recognize_pentagon(rc: RunConfig, data):
    poly = load_polygon(data)
    cert = recognize_pentagon(poly, rc.clip_scale, rc.eps)
    if cert is None:
        return {"is_type_32": False, "verdict": "not (3,2)"}
    return {"is_type_32": True, "certificate": _certificate_dict(cert)}


def _cmd_construct_quad(rc: RunConfig, data):
    poly = load_polygon(data)
    quad = label_quad(poly)
    _, direction = quad_auxiliary_ray(quad)
    intervals = feasible_param_range(quad)
    t = rc.t if rc.t is not None else default_param(quad)
    cert = construct_quad_focals(quad, t, rc.clip_scale, rc.eps)
    return {
        "labeled": _pts(quad.points),
        "ray_direction": list(direction),
        "feasible_t": [list(iv) for iv in intervals],
        "t": t,
        "certificate": _certificate_dict(cert),
    }


def _cmd_voronoi_check(rc: RunConfig, data):
    cfg = load_config(data)
    rep = voronoi_check(cfg, n_samples=rc.samples, seed=rc.seed,
                        clip_scale=rc.clip_scale, tol=rc.eps)
    return {
        "samples": rep.samples,
        "ties_skipped": rep.ties_skipped,
        "agreements": rep.agreements,
        "disagreements": rep.disagreements,
        "inside_count": rep.inside_count,
        "cell_misses": rep.cell_misses,
        "overlap_violations": rep.overlap_violations,
        "ok": rep.ok,
    }


def _scene_for(rc: RunConfig, data) -> tuple[Scene, dict]:
    if isinstance(data, dict) and "polygon" in data:
        poly = load_polygon(data)
        return Scene(chains=(poly,)), {"kind": "polygon", "chains": 1}
    cfg = load_config(data)
    chains = ()
    circles = ()
    cells = ()
    bounded = is_bounded(cfg)
    if bounded:
        chains = tuple(ch.vertices for ch in extract_boundary(cfg, rc.clip_scale, rc.eps))
        if rc.show_circles and check_regularity(cfg).ok:
            circles = tuple(e.circle for e in empty_circle_triples(cfg)
                            if e.color in (COLOR_XYX, COLOR_YXY))
        if rc.show_voronoi:
            clip = body_clip_box(cfg, rc.clip_scale)
            pts = [p for _, p in labeled_points(cfg)]
            cells = tuple(tuple(convex_component(x, tuple(p for p in pts if p != x),
                                                 clip).vertices)
                          for x in cfg.inner)
    scene = Scene(inner=cfg.inner, outer=cfg.outer, chains=chains,
                  circles=circles, cells=cells)
    info = {"kind": "config", "bounded": bounded, "chains": len(chains),
            "circles": len(circles), "cells": len(cells)}
    return scene, info


def _cmd_render(rc: RunConfig, data):
    if not rc.output_path:
        raise ParseFailure("render requires --out <path> for the SVG document")
    scene, info = _scene_for(rc, data)
    svg = render_svg(scene, show_circles=rc.show_circles, show_voronoi=rc.show_voronoi)
    with open(rc.output_path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    info["svg_path"] = rc.output_path
    info["svg_bytes"] = len(svg.encode("utf-8"))
    return info


_DISPATCH = {
    "body": _cmd_body,
    "graph": _cmd_graph,
    "boundary": _cmd_boundary,
    "hypergraph": _cmd_hypergraph,
    "classify32": _cmd_classify32,
    "recognize-pentagon": _cmd_recognize_pentagon,
    "construct-quad": _cmd_construct_quad,
    "voronoi-check": _cmd_voronoi_check,
    "render": _cmd_render,
}


def _error_obj(kind: str, message: str) -> str:
    return format_json({"error": {"type": kind, "message": message}}) + "\n"


def run(rc: RunConfig) -> int:
    """Execute one subcommand; returns the process exit code."""
    try:
        with open(rc.input_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or an over-long integer
        sys.stderr.write(_error_obj(type(exc).__name__, str(exc)))
        return 2

    try:
        report = {
            "command": rc.command,
            "input": rc.input_path,
            "result": _DISPATCH[rc.command](rc, data),
            "diagnostics": {
                "eps": rc.eps,
                "clip_scale": rc.clip_scale,
                "samples": rc.samples,
                "seed": rc.seed,
            },
        }
        text = format_json(report) + "\n"  # raises on a non-finite value
    except ParseFailure as exc:
        sys.stderr.write(_error_obj("ParseFailure", str(exc)))
        return 2
    except GeometryError as exc:
        sys.stderr.write(_error_obj(type(exc).__name__, str(exc)))
        return 1
    if rc.output_path and rc.command != "render":
        try:
            with open(rc.output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(_error_obj(type(exc).__name__, str(exc)))
            return 2
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equidist",
        description="Equidistant bodies and polygons of finite focal sets.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("input", help="input JSON file (configuration or shape)")
        p.add_argument("--eps", type=float, default=1e-9,
                       help="relative tolerance (default 1e-9): the boundary chains of "
                            "body, boundary, render and the (3,2) round trips merge "
                            "consecutive vertices closer than eps times the extent of "
                            "the focal points; voronoi-check skips samples whose two "
                            "nearest focal distances differ by at most eps times the "
                            "coordinate scale")
        p.add_argument("--clip-scale", type=float, default=2.0,
                       help="clip box half-width as a multiple of the body radius")
        p.add_argument("--samples", type=int, default=10000,
                       help="sample count for randomized checks")
        p.add_argument("--seed", type=int, default=42,
                       help="seed for the deterministic generator (Mersenne Twister)")
        p.add_argument("--show-circles", action="store_true",
                       help="render: include colored-edge circumcircles")
        p.add_argument("--show-voronoi", action="store_true",
                       help="render: include Voronoi cells of the inner sites")
        p.add_argument("--out", dest="out", default=None,
                       help="output path (report JSON; SVG document for render)")
        if name == "construct-quad":
            p.add_argument("--t", type=float, default=None,
                           help="construction parameter along the auxiliary ray "
                                "(default: midpoint of the largest feasible interval)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = RunConfig(command=args.command, input_path=args.input,
                       output_path=args.out, eps=args.eps, clip_scale=args.clip_scale,
                       samples=args.samples, seed=args.seed,
                       show_circles=args.show_circles, show_voronoi=args.show_voronoi,
                       t=getattr(args, "t", None))
    except InvalidConfig as exc:
        sys.stderr.write(_error_obj("InvalidConfig", str(exc)))
        return 1
    return run(rc)


if __name__ == "__main__":
    sys.exit(main())
