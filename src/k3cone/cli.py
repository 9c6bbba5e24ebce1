"""Command-line entry point: configs in, TSV/SVG artifacts out.

All randomness is seed-controlled, so identical invocations produce
byte-identical artifacts.
"""

import sys
from fractions import Fraction

import click

from . import configio, heights, walls
from .curves import (CurveQ, canonical_height as curve_canonical_height,
                     naive_height, nt_pairing as curve_nt_pairing,
                     specialization_scan)
from .errors import InputError, K3ConeError
from .heights import SyntheticFibration
from .models import BallModel
from .svg import RenderOptions, render_svg


def _fail(exc: K3ConeError):
    click.echo(f"ERROR\t{type(exc).__name__}\t{exc}", err=True)
    sys.exit(1)


def _parse(kind, text, name):
    """kind(text); `InputError` naming the input if the text is malformed."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad {name}: {text!r}") from None


def _point(text):
    x, y = text.split(",")
    return Fraction(x), Fraction(y)


def _emit(out, text):
    """text to the file out (`InputError` if it cannot be written) or stdout."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out} ({exc})") from exc
    else:
        click.echo(text, nl=False)


class _Main(click.Group):
    """The command group: any `K3ConeError` a command raises is reported
    by `_fail`, one boundary for every command."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except K3ConeError as exc:
            _fail(exc)


@click.group(cls=_Main)
def main():
    """Ample-cone lattice geometry and height-pairing experiments."""


@main.command()
@click.argument("frame_path", type=click.Path(exists=True))
def validate(frame_path):
    """Check every frame invariant and print a structured report."""
    report = configio.load_frame(frame_path).validate()
    for line in report.lines():
        click.echo(line)
    click.echo("pass" if report.passed else "fail")
    sys.exit(0 if report.passed else 1)


@main.command()
@click.argument("frame_path", type=click.Path(exists=True))
@click.option("--N", "n", type=int, default=1, show_default=True,
              help="orbit box half-width")
def orbit(frame_path, n):
    """Enumerate section-wall translates in the box |m_i| <= N."""
    frame = configio.load_frame(frame_path)
    classes = walls.orbit_walls(frame, n)
    click.echo("class\tself_intersection\tfiber_product")
    for d in classes:
        coords = ",".join(str(c) for c in d)
        click.echo(f"{coords}\t{frame.form.norm2(d)}"
                   f"\t{frame.form.inner(d, frame.classE)}")


@main.command()
@click.argument("frame_path", type=click.Path(exists=True))
@click.option("--model", type=click.Choice(["ball", "uhs"]), default="uhs",
              show_default=True)
@click.option("--N", "n", type=int, default=2, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def render(frame_path, model, n, out):
    """Render the wall orbit as a deterministic SVG figure."""
    frame = configio.load_frame(frame_path)
    classes = walls.orbit_walls(frame, n)
    labels = ["O" if d == frame.classO else "" for d in classes]
    if model == "uhs":
        scene = [walls.wall_circle_uhs(frame, d) for d in classes]
        options = RenderOptions(labels=labels, mark_infinity=True)
    else:
        ball = BallModel(frame.form, frame.ample)
        scene = [walls.wall_circle_ball(frame.form, d, ball) for d in classes]
        options = RenderOptions(labels=labels, scale=280.0)
    _emit(out, render_svg(scene, options))
    click.echo(f"wrote {out}")


@main.command("synthetic-pair")
@click.argument("frame_path", type=click.Path(exists=True))
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--noise", type=float, default=0.0, show_default=True,
              help="noise bound M of the synthetic oracle")
@click.option("--fibers", default="10,100,1000,10000", show_default=True,
              help="comma-separated base heights h(E)")
@click.option("--n-max", type=int, default=200, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def synthetic_pair(frame_path, seed, noise, fibers, n_max, out):
    """Normalized pairing table of the synthetic fibration oracle."""
    frame = configio.load_frame(frame_path)
    if not frame.rank:
        raise InputError("a rank-0 frame has no pairing to tabulate")
    fiber_heights = [_parse(float, h, "--fibers")
                     for h in fibers.split(",") if h]
    fib = SyntheticFibration(frame, fiber_heights, noise, seed)
    lines = ["hE\ti\tj\tpairing\tnormalized\ttarget\tdeviation"]
    for i in range(frame.rank):
        for j in range(frame.rank):
            for row in heights.limit_experiment(fib, i, j, frame.ample, n_max):
                lines.append(
                    f"{row.fiber_height:.6g}\t{i}\t{j}\t{row.pairing:.9g}"
                    f"\t{row.normalized:.9g}\t{row.target:.9g}"
                    f"\t{row.deviation:.9g}")
    _emit(out, "\n".join(lines) + "\n")


@main.command("curve-heights")
@click.option("--a", "a_coeff", required=True, help="rational coefficient a")
@click.option("--b", "b_coeff", required=True, help="rational coefficient b")
@click.option("--point", "points", multiple=True, required=True,
              help="rational point 'x,y' (repeatable)")
@click.option("--tolerance", type=float, default=1e-4, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def curve_heights(a_coeff, b_coeff, points, tolerance, out):
    """Naive and canonical heights, plus pairings, on y^2 = x^3 + ax + b."""
    curve = CurveQ(_parse(Fraction, a_coeff, "--a"),
                   _parse(Fraction, b_coeff, "--b"))
    pts = [_parse(_point, raw, "--point") for raw in points]
    lines = ["kind\ti\tj\tvalue"]
    for i, p in enumerate(pts):
        lines.append(f"naive\t{i}\t-\t{naive_height(p):.9g}")
        lines.append(f"canonical\t{i}\t-\t"
                     f"{curve_canonical_height(curve, p, tolerance):.9g}")
    for i in range(len(pts)):
        for j in range(i, len(pts)):
            val = curve_nt_pairing(curve, pts[i], pts[j], tolerance)
            lines.append(f"pairing\t{i}\t{j}\t{val:.9g}")
    _emit(out, "\n".join(lines) + "\n")


@main.command("specialize-scan")
@click.argument("pencil_path", type=click.Path(exists=True))
@click.option("--t-min", type=str, default="8", show_default=True)
@click.option("--t-max", type=str, default="256", show_default=True)
@click.option("--geometric-step", type=str, default="2", show_default=True)
@click.option("--tolerance", type=float, default=1e-4, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def specialize_scan(pencil_path, t_min, t_max, geometric_step, tolerance, out):
    """Pairing matrices of the specialized sections along t = t_min * step^k."""
    pencil = configio.load_pencil(pencil_path)
    t0, t1, step = (_parse(Fraction, t_min, "--t-min"),
                    _parse(Fraction, t_max, "--t-max"),
                    _parse(Fraction, geometric_step, "--geometric-step"))
    if step <= 1 or t0 <= 0:
        raise InputError("need t_min > 0 and geometric step > 1")
    ts = []
    t = t0
    while t <= t1:
        ts.append(t)
        t *= step
    result = specialization_scan(pencil, ts, tolerance)
    lines = ["t\theight\ti\tj\tpairing\tnormalized"]
    for row in result.rows:
        r = len(row.pairings)
        for i in range(r):
            for j in range(r):
                lines.append(f"{row.t}\t{row.height:.9g}\t{i}\t{j}"
                             f"\t{row.pairings[i][j]:.9g}"
                             f"\t{row.normalized[i][j]:.9g}")
    for t_skipped, reason in result.skipped:
        lines.append(f"# skipped t={t_skipped}: {reason}")
    diffs = ", ".join(f"{d:.6g}" for d in result.max_entry_diffs)
    lines.append(f"# successive normalized max-entry diffs: {diffs}")
    for i, srow in enumerate(result.slopes):
        vals = ", ".join(f"{s:.6g}" for s in srow)
        lines.append(f"# pairing-vs-height slope row {i}: {vals}")
    _emit(out, "\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
