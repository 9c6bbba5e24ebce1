"""Wall enumeration and boundary-circle geometry for the ample cone.

The section walls are the translates D_m = T_w([O]), w = sum m_i v_i, of
the zero section under the Mordell-Weil group.  On a valid frame

    D_m = O + w - (O.w + w.w/2) E,    D_m.O = -2 - w.w/2,

and 4 + 2 D_m.O = -w.w, the Neron-Tate form the synthetic pairing
targets.  That is Shioda's height of the section (Comment. Math. Univ. St.
Paul. 39, 1990) only when every v_i lies in the narrow Mordell-Weil
lattice, i.e. is orthogonal to the roots of V_L, the integral vectors of
V; otherwise Shioda's height is -pi(w).pi(w), pi the orthogonal
projection away from the root lattice.  On U + A_2(-1) + <-4> with
v = e_3 + e_5 the target -v.v is 6 and Shioda's height is 4.
`orbit_walls` evaluates the closed form on integers through
`FibrationFrame.section_map`, which proved every translate a section
class.

Every -2 class D cuts the hyperbolic cross-section along a hyperplane.
Seen from the cusp [E] in the upper-half-space model, a wall with D.E != 0
traces a circle about the chart of D / D.E on the Euclidean boundary;
with D.E = 0 it degenerates to a vertical hyperplane.  In the Poincare
ball, a wall traces a circle on the unit sphere.  `k3cone render` emits
the closed forms without sampling them; the tests, acceptance criterion
11 and the benchmark gate them behind a sampled residual check
(`sample_wall_circle`, `max_residual`: |A.D| and |A.A| below 1e-9 for
reconstructed boundary classes).

Per-scene work is done once: `orbit_walls` shares one `Fraction` per
distinct numerator among its walls, a ball circle's points read
(cos t, sin t) from one table per sample count and take its axes
(centre, e1, e2) once, and `svg` projects onto the two coordinates it
draws without building the others.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import linalg
from .errors import InputError
from .frame import FibrationFrame
from .linalg import Vector, vector
from .models import BallModel, BoundaryChart, inner_f


@dataclass(frozen=True)
class Hyperplane:
    """Degenerate wall trace {x : <x, normal> = offset} on the boundary."""

    normal: tuple
    offset: float


@dataclass(frozen=True)
class WallCircle:
    model: str  # "ball" | "uhs"
    center: tuple
    radius: float
    source_class: Vector
    normal: Optional[tuple] = None  # ball circles: unit normal of their plane
    degenerate: Optional[Hyperplane] = None


def orbit_walls(frame, n: int):
    """Translates D_m = T_w([O]) for w = sum m_i v_i with |m_i| <= n,
    deduplicated, in `itertools.product` order.

    Every output has self-intersection -2 and meets the fiber class once.
    The integer numerators of each D_m come from `frame.section_map` over
    one fixed denominator, so they dedupe as they are; one `Fraction` is
    built per distinct numerator of the walls kept, and shared.
    """
    n = linalg.to_integer(n, "orbit box size", least=0)
    image, den = frame.section_map
    kept = dict.fromkeys(map(image, itertools.product(range(-n, n + 1),
                                                      repeat=frame.rank)))
    distinct = set(itertools.chain.from_iterable(kept))
    frac = {x: Fraction(x, den) for x in distinct}
    return [tuple(map(frac.__getitem__, d)) for d in kept]


def wall_circle_uhs(frame, d: Vector, chart: Optional[BoundaryChart] = None
                    ) -> WallCircle:
    """Boundary circle of a -2 wall in the upper-half-space model.

    For delta = D.E != 0 the circle has center phi(D) = dperp/delta in
    chart coordinates and radius sqrt(2)/|delta|; every section translate
    (delta = 1) shares radius sqrt(2).  delta = 0 walls degenerate to
    hyperplanes.  D.D and delta are integer dots on one `numerators` of D.
    `InputError` unless chart has the frame's form and boundary basis, and
    on a 0-dimensional boundary (rank 0), which walls do not meet.
    """
    d = vector(d)
    x, dx = frame.form.numerators(d)
    dg = frame.form.gram_numerators[1]
    if linalg.dot(x, frame.form.images([x])[0]) != -2 * dg * dx * dx:
        raise InputError("wall class must have self-intersection -2")
    chart = chart or frame.chart
    if chart.basis != frame.boundary_basis or (
            chart.form is not frame.form and chart.form != frame.form):
        raise InputError("chart is not a chart of this frame's boundary")
    if not chart.dim:
        raise InputError("walls have no trace on a 0-dimensional boundary")
    den = frame.fixed.den
    xe = linalg.dot(x, frame.fixed.gE)  # delta = xe / (dx den)
    if xe:
        center = chart.euclid_of([den * t for t in x], xe)  # chart of D/delta
        return WallCircle("uhs", center, math.sqrt(2.0) / abs(xe / (dx * den)), d)
    normal = chart.euclid_of(x, dx)
    norm = math.sqrt(sum(t * t for t in normal)) or 1.0
    # wall equation <a, dperp>_euc = aE-coefficient of D, v q / (dx det)
    v, c = frame.split_numerators(x)[1], frame.fixed
    return WallCircle("uhs", (), 0.0, d, degenerate=Hyperplane(
        tuple(t / norm for t in normal), v * c.q / (dx * c.det) / norm))


def wall_circle_ball(form, d: Vector, ball: BallModel) -> WallCircle:
    """Trace of a wall on the boundary sphere of the Poincare ball.

    In signature coordinates D = (d0, dvec), the null rays orthogonal to D
    hit the sphere along {u : <u, dvec> = d0}, a circle of radius
    sqrt(1 - d0^2/|dvec|^2) centered at (d0/|dvec|^2) dvec.  D.D and the
    coordinates are taken on one `numerators` of D; `InputError` unless
    form is the ball's form.
    """
    if form is not ball.form and form != ball.form:
        raise InputError("wall class and ball model are on different forms")
    d = vector(d)
    x, dx = form.numerators(d)
    if linalg.dot(x, form.images([x])[0]) >= 0:
        raise InputError("wall class must have negative self-intersection")
    d0, *dvec = ball.coords(x, dx)
    space2 = sum(t * t for t in dvec)
    # space2 > d0^2 precisely because D.D < 0
    center = tuple(d0 * t / space2 for t in dvec)
    radius = math.sqrt(1.0 - d0 * d0 / space2)
    norm = math.sqrt(space2)
    return WallCircle("ball", center, radius, d,
                      normal=tuple(t / norm for t in dvec))


def _plane_frame(normal):
    """Two deterministic orthonormal vectors spanning normal's complement."""
    n = len(normal)
    basis = []
    for k in range(n):
        e = [0.0] * n
        e[k] = 1.0
        v = [a - sum(x * y for x, y in zip(e, normal)) * b
             for a, b in zip(e, normal)]
        for u in basis:
            proj = sum(x * y for x, y in zip(v, u))
            v = [a - proj * b for a, b in zip(v, u)]
        length = math.sqrt(sum(x * x for x in v))
        if length > 1e-9:
            basis.append([x / length for x in v])
        if len(basis) == 2:
            break
    return basis


@lru_cache(maxsize=8)
def unit_circle(k: int) -> tuple:
    """(cos t, sin t) at t = 2 pi idx / k for idx < k, built once per k."""
    return tuple((math.cos(t), math.sin(t))
                 for t in (2.0 * math.pi * idx / k for idx in range(k)))


def ball_circle_axes(circle: WallCircle) -> list:
    """(centre, e1, e2) entries per coordinate of a ball wall circle; e1, e2
    span the complement of its normal (e2 = 0 when the ball is
    2-dimensional).  `InputError` on a 1-dimensional ball."""
    if len(circle.center) < 2:
        raise InputError("walls have no boundary trace in a 1-dimensional ball")
    basis = _plane_frame(list(circle.normal))
    e1 = basis[0]
    e2 = basis[1] if len(basis) > 1 else [0.0] * len(e1)
    return list(zip(circle.center, e1, e2))


def ball_circle_points(circle: WallCircle, k: int):
    """k points center + r (cos t e1 + sin t e2), t = 2 pi idx / k, on a
    ball wall circle, over `ball_circle_axes` and `unit_circle`."""
    axes, r = ball_circle_axes(circle), circle.radius
    return [[c + r * (ct * a + st * b) for c, a, b in axes]
            for ct, st in unit_circle(k)]


def sample_wall_circle(frame_or_form, circle: WallCircle, k: int = 16,
                       ball: Optional[BallModel] = None):
    """Reconstruct k boundary classes from (center, radius) of a wall circle.

    The returned float lattice vectors are the oracle for the closed forms:
    each should satisfy A.A ~ 0 and A.D ~ 0.  A uhs sample a (chart
    coordinates) is the null class with cusp coordinates (1, |a|^2/2, a),
    mapped back by `FibrationFrame.from_cusp`; a ball sample u is the null
    class with signature coordinates (1, u).  The model is checked once per
    circle, so both lifts skip the per-point checks.  A 1-dimensional trace is
    two points, sampled min(k, 2) times.  A degenerate (D.E = 0) uhs trace
    {a : <a, n> = offset} is sampled at offset n + cos t e1 + sin t e2,
    e1 and e2 from `_plane_frame(n)`: one point on a rank-1 chart, min(k, 2)
    on rank 2.  `InputError` unless k >= 1 and the model fits the circle
    (a frame of its chart dimension for uhs, a ball on frame_or_form and of
    its dimension for ball), and on a 0-dimensional boundary, which walls
    do not meet.
    """
    if linalg.to_integer(k, "sample count") < 1:
        raise InputError("a wall circle needs at least one sample")
    if circle.model == "uhs":
        frame = frame_or_form
        r = len(circle.center if circle.degenerate is None
                 else circle.degenerate.normal)
        if not isinstance(frame, FibrationFrame) or frame.chart.dim != r:
            raise InputError("a uhs wall circle is sampled on a frame of its "
                             "chart dimension")
        if r == 0:
            raise InputError("walls have no trace on a 0-dimensional boundary")
        if circle.degenerate is None:
            chart_pts = ([c + circle.radius * x for c, x in
                          zip(circle.center, ([ct, st] + [0.0] * r)[:r])]
                         for ct, st in unit_circle(min(k, 2) if r == 1 else k))
        else:
            n, offset = circle.degenerate.normal, circle.degenerate.offset
            e1, e2 = (_plane_frame(list(n)) + [[0.0] * r] * 2)[:2]
            axes = list(zip([offset * t for t in n], e1, e2))
            chart_pts = ([c + ct * x + st * y for c, x, y in axes]
                         for ct, st in unit_circle(min(k, r) if r < 3 else k))
        return [frame._from_cusp(1.0, sum(t * t for t in a) / 2.0, a)
                for a in chart_pts]
    if circle.model == "ball":
        if ball is None:
            raise InputError("ball model required to sample ball circles")
        if (frame_or_form is not ball.form and frame_or_form != ball.form
                or len(circle.center) != ball.form.dim - 1):
            raise InputError("wall circle and ball model are on different forms")
        k = min(k, 2) if len(circle.center) == 2 else k
        return [ball.vector((1.0, *u)) for u in ball_circle_points(circle, k)]
    raise InputError(f"unknown circle model {circle.model!r}")


def max_residual(form, circle: WallCircle, samples) -> float:
    """Worst |A.A| and |A.D| over a nonempty sequence of reconstructed
    sample points; D is converted to floats once per circle.  `InputError`
    on a residual that is not finite, which `max` would pass over."""
    if not samples:
        raise InputError("no samples to check the wall circle against")
    d = [float(x) for x in circle.source_class]
    worst = 0.0
    for a in samples:
        aa, ad = abs(inner_f(form, a, a)), abs(inner_f(form, a, d))
        if not (aa < math.inf and ad < math.inf):
            raise InputError("a wall circle sample is not a finite point")
        worst = max(worst, aa, ad)
    return worst
