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

from .body import CLIP_SCALE, FocalConfig, build_body
from .connectivity import build_graph, check_polytope, graph_components
from .errors import (GeometryError, InvalidConfig, NumericalDegeneracy, RegularityViolated,
                     Unbounded)
from .polygon import (
    COLOR_XYX,
    COLOR_YXY,
    BoundReport,
    FocalRef,
    VertexInfo,
    cell_polygons,
    check_regularity,
    check_vertex_bound,
    classify_vertices,
    empty_circle_triples,
    extract_boundary,
    inactive_focals,
    voronoi_check,
)
from .primitives import EPS_GEO, Point
from .type32 import _construct_quad, classify_generic_32, label_quad, recognize_pentagon


class RunConfig:
    """One run: the command and paths, positional, then the options, by keyword.

    An option not given reads its class default, as the ``--eps`` help text does.
    Equality compares ``_fields`` in order, with a RunConfig of the same class only.
    """

    _fields = ("command", "input_path", "output_path", "eps", "samples", "seed",
               "show_circles", "show_voronoi", "t")
    output_path: str | None = None
    eps: float = EPS_GEO
    samples: int = 10000
    seed: int = 42
    show_circles: bool = False
    show_voronoi: bool = False
    t: float | None = None

    def __init__(self, command: str, input_path: str, output_path: str | None = None,
                 **options):
        unknown = options.keys() - set(self._fields[3:])
        if unknown:
            raise TypeError("RunConfig.__init__() got an unexpected keyword argument "
                            f"{min(unknown)!r}")
        vars(self).update(command=command, input_path=input_path, output_path=output_path,
                          **options)
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise InvalidConfig(f"--eps must be positive and finite, got {self.eps!r}")
        if self.samples <= 0:
            raise InvalidConfig("samples must be positive")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()


class ParseFailure(Exception):
    """Input file is missing, unreadable, or structurally malformed."""


# ---------------------------------------------------------------------------
# deterministic JSON with exact float round-trip


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise NumericalDegeneracy(f"non-finite value in report: {x}")
    return format(x, ".17g")


# values written on one line
_INLINE = {
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
    int: str,
    float: _fmt_float,
    str: json.encoder.encode_basestring_ascii,  # what json.dumps returns for a str
    Point: lambda p: f"[{_fmt_float(p.x)}, {_fmt_float(p.y)}]",
}
# report records, NamedTuples, written as the dict of their fields in their order
_RECORDS = (FocalRef, VertexInfo, BoundReport)


def _write(obj, level: int, out: list) -> None:
    """Append the report text of obj, nested at level, to out, dispatched on its exact type."""
    kind = type(obj)
    fmt = _INLINE.get(kind)
    if fmt is not None:
        out.append(fmt(obj))
    elif kind is dict or kind in _RECORDS:
        if not obj:
            out.append("{}")
            return
        pad = "\n" + "  " * (level + 1)
        sep = "{" + pad
        for key, value in obj.items() if kind is dict else zip(obj._fields, obj):
            fmt = _INLINE.get(type(value))
            if fmt is None:
                out.append(f'{sep}"{key}": ')
                _write(value, level + 1, out)
            else:
                out.append(f'{sep}"{key}": {fmt(value)}')
            sep = "," + pad
        out.append("\n" + "  " * level + "}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        pad = "\n" + "  " * (level + 1)
        if all(isinstance(v, (int, float, str)) or v is None for v in obj):
            parts = []
            for value in obj:
                _write(value, level + 1, parts)
            # inline when the scalars take fewer than 72 characters
            if sum(map(len, parts)) < 72:
                out.append("[" + ", ".join(parts) + "]")
            else:
                out.append("[" + pad + ("," + pad).join(parts) + "\n" + "  " * level + "]")
            return
        sep = "[" + pad
        for value in obj:
            out.append(sep)
            _write(value, level + 1, out)
            sep = "," + pad
        out.append("\n" + "  " * level + "]")
    else:
        raise TypeError(f"unsupported report value {obj!r}")


def format_json(obj, indent: int = 0) -> str:
    """The report text of obj, nested at indent: its pieces go to one list, joined once.

    Scalars and Points are written inline, dicts and records (as the dict of their
    fields in order) one member per line, and a list or tuple inline when every item
    is a scalar and the items take fewer than 72 characters, else one item per line.
    Any other type, subclasses included, is a TypeError, and the first non-finite
    float in document order a NumericalDegeneracy.
    """
    out = []
    _write(obj, indent, out)
    return "".join(out)


# ---------------------------------------------------------------------------
# input parsing and report pieces


def _as_points(rows, what: str) -> tuple[Point, ...]:
    if not isinstance(rows, list):
        raise ParseFailure(f"{what} must be a list of [x, y] pairs")
    pts = []
    for row in rows:
        # JSON true and false load as bool, a subclass of int, and are no coordinates
        if (not isinstance(row, (list, tuple)) or len(row) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                           for v in row)):
            raise ParseFailure(f"{what} entries must be [x, y] number pairs, got {row!r}")
        try:
            x, y = float(row[0]), float(row[1])
        except OverflowError:
            raise ParseFailure(f"{what} coordinates must lie within the float range") from None
        # json.load reads the Infinity and NaN literals
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseFailure(f"{what} coordinates must be finite numbers")
        pts.append(Point(x, y))
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
    return pts


def _chain_dict(chain):
    return {
        "vertices": chain.vertices,
        "vertex_info": chain.vertex_info,
        "edge_pairs": chain.edge_pairs,
        "area": chain.signed_area(),
    }


def _certificate_dict(cert):
    return {
        "inner": (cert.x1, cert.x2),
        "outer": (cert.y1, cert.y2, cert.y3),
        "source_kind": cert.source_kind,
        "source": cert.source,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_body(rc: RunConfig, data):
    cfg = load_config(data)
    body = build_body(cfg)
    chains = extract_boundary(cfg, rc.eps)
    return {
        "bounded": True,
        "radius": body.radius,
        "clip": [body.clip.xmin, body.clip.ymin, body.clip.xmax, body.clip.ymax],
        "components": [
            {
                "site": c.site,
                "vertices": c.vertices,
                "outer_tags": c.edge_tags,
                "clipped": c.clipped,
            }
            for c in body.components
        ],
        "chains": [_chain_dict(ch) for ch in chains],
    }


def _cmd_graph(rc: RunConfig, data):
    cfg = load_config(data)
    body = build_body(cfg)
    g = build_graph(body)
    groups = graph_components(g)
    interior_groups = graph_components(g, min_weight=1)
    return {
        "nodes": g.nodes,
        "edges": g.edges,
        "connected": len(groups) == 1,
        "interior_connected": len(interior_groups) == 1,
        "components": groups,
        "interior_components": interior_groups,
    }


def _cmd_boundary(rc: RunConfig, data):
    cfg = load_config(data)
    chains = extract_boundary(cfg, rc.eps)
    result = {
        "chain_count": len(chains),
        "chains": [_chain_dict(ch) for ch in chains],
    }
    verdict = check_polytope(cfg)
    result["polytope"] = {"is_polytope": verdict.is_polytope, "reasons": verdict.reasons}
    if len(chains) == 1:
        result["vertex_bound"] = check_vertex_bound(chains[0], cfg)
    return result


def _cmd_hypergraph(rc: RunConfig, data):
    cfg = load_config(data)
    reg = check_regularity(cfg)
    if not reg.ok:
        return {
            "regular": False,
            "collinear": reg.collinear,
            "concircular": reg.concircular,
        }
    edges = empty_circle_triples(cfg)
    cls = classify_vertices(edges)
    return {
        "regular": True,
        "edges": [
            {
                "refs": e.refs,
                "color": e.color,
                "center": e.circle.center,
                "radius": e.circle.radius,
                "weight": e.weight,
            }
            for e in edges
        ],
        "vertices": [{"point": p, "angle_type": t} for p, t in cls.vertices],
        "interior_witnesses": cls.interior_witnesses,
        "exterior_witnesses": cls.exterior_witnesses,
        "inactive": inactive_focals(cfg, edges),
    }


def _cmd_classify32(rc: RunConfig, data):
    cfg = load_config(data)
    rep = classify_generic_32(cfg)
    labeling = None if rep.labeling is None else {"inner_order": rep.labeling[0],
                                                  "outer_order": rep.labeling[1]}
    return {**rep._asdict(), "labeling": labeling}


def _cmd_recognize_pentagon(rc: RunConfig, data):
    poly = load_polygon(data)
    cert = recognize_pentagon(poly)
    if cert is None:
        return {"is_type_32": False, "verdict": "not (3,2)"}
    return {"is_type_32": True, "certificate": _certificate_dict(cert)}


def _cmd_construct_quad(rc: RunConfig, data):
    quad = label_quad(load_polygon(data))
    direction, intervals, t, cert = _construct_quad(quad, rc.t)
    return {
        "labeled": quad.points,
        "ray_direction": direction,
        "feasible_t": intervals,
        "t": t,
        "certificate": _certificate_dict(cert),
    }


def _cmd_voronoi_check(rc: RunConfig, data):
    cfg = load_config(data)
    rep = voronoi_check(cfg, n_samples=rc.samples, seed=rc.seed)
    return {**rep._asdict(), "ok": rep.ok}


def _scene_for(rc: RunConfig, data) -> tuple[Scene, dict]:
    from .svg import Scene  # only render draws, so other commands do not import svg

    if isinstance(data, dict) and "polygon" in data:
        poly = load_polygon(data)
        return Scene(chains=(poly,)), {"kind": "polygon", "chains": 1}
    cfg = load_config(data)
    chains = ()
    circles = ()
    cells = ()
    try:
        body = build_body(cfg)
    except Unbounded:
        body = None
    else:
        chains = tuple(ch.vertices for ch in extract_boundary(cfg, rc.eps))
        if rc.show_circles:
            try:
                circles = tuple(e.circle for e in empty_circle_triples(cfg)
                                if e.color in (COLOR_XYX, COLOR_YXY))
            except RegularityViolated:  # irregular input has no circles to show
                pass
        if rc.show_voronoi:
            cells = cell_polygons(body)
    scene = Scene(inner=cfg.inner, outer=cfg.outer, chains=chains,
                  circles=circles, cells=cells)
    info = {"kind": "config", "bounded": body is not None, "chains": len(chains),
            "circles": len(circles), "cells": len(cells)}
    return scene, info


def _cmd_render(rc: RunConfig, data):
    if not rc.output_path:
        raise ParseFailure("render requires --out <path> for the SVG document")
    from .svg import render_svg

    scene, info = _scene_for(rc, data)
    svg = render_svg(scene)
    with open(rc.output_path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    info["svg_path"] = rc.output_path
    info["svg_bytes"] = len(svg.encode("utf-8"))
    return info


# name: (handler, the RunConfig fields it reads besides input_path and output_path)
COMMANDS = {
    "body": (_cmd_body, ("eps",)),
    "graph": (_cmd_graph, ()),
    "boundary": (_cmd_boundary, ("eps",)),
    "hypergraph": (_cmd_hypergraph, ()),
    "classify32": (_cmd_classify32, ()),
    "recognize-pentagon": (_cmd_recognize_pentagon, ()),
    "construct-quad": (_cmd_construct_quad, ("t",)),
    "voronoi-check": (_cmd_voronoi_check, ("samples", "seed")),
    "render": (_cmd_render, ("eps", "show_circles", "show_voronoi")),
}


def _fail(exc: Exception, code: int) -> int:
    """Write the error object of exc to stderr; returns the exit code."""
    sys.stderr.write(format_json({"error": {"type": type(exc).__name__,
                                            "message": str(exc)}}) + "\n")
    return code


def run(rc: RunConfig) -> int:
    """Execute one subcommand; returns the process exit code."""
    try:
        with open(rc.input_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    # ValueError: bad JSON, UTF-8 or an over-long integer; RecursionError: deep nesting
    except (OSError, ValueError, RecursionError) as exc:
        return _fail(exc, 2)

    try:
        report = {
            "command": rc.command,
            "input": rc.input_path,
            "result": COMMANDS[rc.command][0](rc, data),
            "diagnostics": {
                "eps": rc.eps,
                "clip_scale": CLIP_SCALE,
                "samples": rc.samples,
                "seed": rc.seed,
            },
        }
        text = format_json(report) + "\n"  # raises on a non-finite value
        if rc.output_path and rc.command != "render":
            with open(rc.output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (OSError, ParseFailure) as exc:
        return _fail(exc, 2)
    except GeometryError as exc:
        return _fail(exc, 1)
    return 0


# the argparse settings of each option, by the RunConfig field it sets; its flag is the
# field name with dashes
_OPTIONS = {
    "eps": dict(type=float,
                help=f"relative tolerance (default {RunConfig.eps}): the boundary chains of "
                     "body, boundary and render merge each run of consecutive vertices closer "
                     "than eps times the extent of the focal points into its first member, and "
                     "start at their lowest vertex"),
    "samples": dict(type=int, help="sample count for randomized checks"),
    "seed": dict(type=int, help="seed for the deterministic generator (Mersenne Twister)"),
    "show_circles": dict(action="store_true", help="include colored-edge circumcircles"),
    "show_voronoi": dict(action="store_true", help="include Voronoi cells of the inner sites"),
    "t": dict(type=float, help="construction parameter along the auxiliary ray "
                               "(default: midpoint of the feasible interval)"),
}


def build_parser() -> argparse.ArgumentParser:
    """A subparser per command: input, --out and the options it reads, with RunConfig dests.

    An option not given is left out, so RunConfig holds every default.
    """
    parser = argparse.ArgumentParser(
        prog="equidist",
        description="Equidistant bodies and polygons of finite focal sets.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, fields) in COMMANDS.items():
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("input_path", metavar="input",
                       help="input JSON file (configuration or shape)")
        p.add_argument("--out", dest="output_path", metavar="OUT",
                       help="output path (report JSON; SVG document for render)")
        for field in fields:
            p.add_argument("--" + field.replace("_", "-"), **_OPTIONS[field])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = RunConfig(**vars(args))
    except InvalidConfig as exc:
        return _fail(exc, 1)
    return run(rc)


if __name__ == "__main__":
    sys.exit(main())
