"""Deterministic SVG renderer for focal configurations and boundary chains.

The output is a pure function of the scene: no timestamps, no generator
metadata, fixed number formatting.  Identical scenes produce byte-identical
documents.
"""

from __future__ import annotations

from typing import NamedTuple

from .primitives import Circle, Point

_CANVAS = 800.0
_MARGIN = 0.05


class Scene(NamedTuple):
    inner: tuple[Point, ...] = ()
    outer: tuple[Point, ...] = ()
    chains: tuple[tuple[Point, ...], ...] = ()
    circles: tuple[Circle, ...] = ()
    cells: tuple[tuple[Point, ...], ...] = ()


def _fmt(v: float) -> str:
    return format(v, ".6g")


class _Mapper:
    def __init__(self, scene: Scene):
        xs, ys = [], []
        for p in scene.inner + scene.outer:
            xs.append(p.x)
            ys.append(p.y)
        for chain in scene.chains + scene.cells:
            for p in chain:
                xs.append(p.x)
                ys.append(p.y)
        for c in scene.circles:
            xs += [c.center.x - c.radius, c.center.x + c.radius]
            ys += [c.center.y - c.radius, c.center.y + c.radius]
        if not xs:
            xs, ys = [0.0, 1.0], [0.0, 1.0]
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        self.span = max(xmax - xmin, ymax - ymin) or 1.0  # any span draws a single point
        self.cx = (xmin + xmax) / 2.0
        self.cy = (ymin + ymax) / 2.0

    def pt(self, p: Point) -> tuple[float, float]:
        return (_CANVAS / 2.0 + self.px(p.x - self.cx), _CANVAS / 2.0 - self.px(p.y - self.cy))

    def px(self, r: float) -> float:
        # divide first: the reciprocal of a span near the float range's bottom overflows
        return r / self.span * (_CANVAS * (1.0 - 2.0 * _MARGIN))


def _path(points, mapper: _Mapper) -> str:
    cmds = []
    for i, p in enumerate(points):
        x, y = mapper.pt(p)
        cmds.append(f"{'M' if i == 0 else 'L'} {_fmt(x)} {_fmt(y)}")
    cmds.append("Z")
    return " ".join(cmds)


def render_svg(scene: Scene) -> str:
    """Render a scene to an SVG 1.1 document string, drawing every layer the scene holds."""
    m = _Mapper(scene)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(_CANVAS)}" height="{_fmt(_CANVAS)}" '
        f'viewBox="0 0 {_fmt(_CANVAS)} {_fmt(_CANVAS)}">',
        f'<rect id="frame" x="0.5" y="0.5" width="{_fmt(_CANVAS - 1)}" '
        f'height="{_fmt(_CANVAS - 1)}" fill="white" stroke="#888888" stroke-width="1"/>',
    ]
    if scene.cells:
        out.append('<g id="voronoi" fill="none" stroke="#77aa77" stroke-width="1" '
                   'stroke-dasharray="5 3">')
        for cell in scene.cells:
            out.append(f'<path d="{_path(cell, m)}"/>')
        out.append('</g>')
    if scene.circles:
        out.append('<g id="circles" fill="none" stroke="#8888cc" stroke-width="1">')
        for c in scene.circles:
            x, y = m.pt(c.center)
            out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(m.px(c.radius))}"/>')
        out.append('</g>')
    if scene.chains:
        out.append('<g id="body" fill="#f2e8d8" fill-opacity="0.6" '
                   'stroke="#333333" stroke-width="2">')
        for chain in scene.chains:
            out.append(f'<path d="{_path(chain, m)}"/>')
        out.append('</g>')
    if scene.inner:
        out.append('<g id="inner-points" fill="#bb3333">')
        for p in scene.inner:
            x, y = m.pt(p)
            out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="5"/>')
        out.append('</g>')
    if scene.outer:
        out.append('<g id="outer-points" fill="white" stroke="#2244bb" stroke-width="2">')
        for p in scene.outer:
            x, y = m.pt(p)
            out.append(f'<rect x="{_fmt(x - 4.5)}" y="{_fmt(y - 4.5)}" width="9" height="9"/>')
        out.append('</g>')
    if scene.inner or scene.outer:
        out.append('<g id="labels" font-family="sans-serif" font-size="14" fill="#222222">')
        for i, p in enumerate(scene.inner):
            x, y = m.pt(p)
            out.append(f'<text x="{_fmt(x + 7)}" y="{_fmt(y - 7)}">X{i + 1}</text>')
        for j, p in enumerate(scene.outer):
            x, y = m.pt(p)
            out.append(f'<text x="{_fmt(x + 7)}" y="{_fmt(y - 7)}">Y{j + 1}</text>')
        out.append('</g>')
    out.append('</svg>')
    return "\n".join(out) + "\n"
