"""Deterministic SVG rendering of wall-circle scenes.

Output is plain SVG 1.1 with fixed 6-decimal coordinate formatting, so a
given scene renders to byte-identical documents across runs.  A ball
circle is drawn as its orthographic projection: only the two drawn
coordinates of its points are evaluated, with the expression of
`walls.ball_circle_points` on the first two of its axes, and each point
is formatted once.
"""

import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InputError
from .linalg import to_real
from .walls import WallCircle, ball_circle_axes, unit_circle

WIDTH = 640
HEIGHT = 640
STROKE_WIDTH = 1.0
STROKE = "#1a1a1a"
SAMPLES = 64  # polyline resolution for 3d ball circles
_STROKE_ATTRS = f' stroke="{STROKE}" stroke-width="{STROKE_WIDTH:.6f}"'


@dataclass(frozen=True)
class RenderOptions:
    scale: float = 60.0  # pixels per model unit
    labels: Optional[Sequence[str]] = None  # parallel to the scene
    mark_infinity: bool = False  # annotate the cusp for uhs scenes

    def __post_init__(self):
        if not 0 < to_real(self.scale, "scale") <= sys.float_info.max:
            raise InputError("scale must be positive and within a double")


def _fmt(v: float) -> str:
    s = f"{v:.6f}"
    return "0.000000" if s == "-0.000000" else s


def _px(options: RenderOptions, x: float, y: float):
    cx = WIDTH / 2.0 + options.scale * x
    cy = HEIGHT / 2.0 - options.scale * y
    return cx, cy


def _circle_elem(options, x, y, r, extra=""):
    cx, cy = _px(options, x, y)
    return (f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r * options.scale)}"'
            f' fill="none"{_STROKE_ATTRS}{extra}/>')


def _text_elem(options, x, y, text):
    cx, cy = _px(options, x, y)
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" font-size="12"'
            f' font-family="monospace">{text}</text>')


def _path_elem(options, points):
    """Closed polyline through points; `_px` and `_fmt` inlined, with one
    "%.6f %.6f" per point."""
    scale, x0, y0 = options.scale, WIDTH / 2.0, HEIGHT / 2.0
    d = " L ".join(["%.6f %.6f" % (x0 + scale * x, y0 - scale * y)
                    for x, y in points])
    # _fmt's rule; with 6 decimals "-0.000000" can only be a whole number
    d = d.replace("-0.000000", "0.000000")
    return f'<path d="M {d} Z" fill="none"{_STROKE_ATTRS}/>'


def _pad2(coords):
    xs = list(coords) + [0.0, 0.0]
    return xs[0], xs[1]


def _ball_circle_points(circle: WallCircle):
    if len(circle.center) == 2:
        # 2-dimensional ball: the trace is a pair of boundary points
        normal = circle.normal
        e1 = (-normal[1], normal[0])
        return [(circle.center[0] + s * circle.radius * e1[0],
                 circle.center[1] + s * circle.radius * e1[1])
                for s in (1.0, -1.0)]
    # orthographic projection to the first two coordinates
    (cx, ax, bx), (cy, ay, by) = ball_circle_axes(circle)[:2]
    r = circle.radius
    return [(cx + r * (ct * ax + st * bx), cy + r * (ct * ay + st * by))
            for ct, st in unit_circle(SAMPLES)]


def render_svg(scene: Sequence[WallCircle],
               options: RenderOptions = RenderOptions()) -> str:
    """Render wall circles to an SVG document (deterministic bytes)."""
    if not scene:
        raise InputError("empty scene")
    labels = options.labels
    if labels is not None and len(labels) != len(scene):
        raise InputError("labels must parallel the scene")
    body = []
    models = {c.model for c in scene}
    if models == {"ball"}:
        body.append(_circle_elem(options, 0.0, 0.0, 1.0,
                                 extra=' stroke-dasharray="4 3"'))
    for idx, circle in enumerate(scene):
        if circle.degenerate is not None:
            nx, ny = _pad2(circle.degenerate.normal)
            off = circle.degenerate.offset
            # line through off*(nx, ny), direction (-ny, nx), clipped crudely
            span = max(WIDTH, HEIGHT) / options.scale
            p1 = (off * nx - span * ny, off * ny + span * nx)
            p2 = (off * nx + span * ny, off * ny - span * nx)
            c1, c2 = _px(options, *p1), _px(options, *p2)
            body.append(f'<line x1="{_fmt(c1[0])}" y1="{_fmt(c1[1])}"'
                        f' x2="{_fmt(c2[0])}" y2="{_fmt(c2[1])}"'
                        f'{_STROKE_ATTRS}/>')
        elif circle.model == "uhs":
            x, y = _pad2(circle.center)
            body.append(_circle_elem(options, x, y, circle.radius))
        elif circle.model == "ball":
            body.append(_path_elem(options, _ball_circle_points(circle)))
        else:
            raise InputError(f"unknown circle model {circle.model!r}")
        if labels is not None and labels[idx]:
            x, y = _pad2(circle.center)
            body.append(_text_elem(options, x, y, labels[idx]))
    if options.mark_infinity:
        body.append(f'<text x="8" y="16" font-size="12" font-family="monospace">'
                    f"[E] at infinity</text>")
    header = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
              f'width="{WIDTH}" height="{HEIGHT}" '
              f'viewBox="0 0 {WIDTH} {HEIGHT}">')
    return "\n".join([header, *body, "</svg>"]) + "\n"
