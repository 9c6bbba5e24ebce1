import itertools
import math
import pathlib
import random
from fractions import Fraction
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (change_basis, mat_vec, random_unimodular,
                      random_valid_frame, zero_vector)
from k3cone import f4_frame, linalg, svg, walls
from k3cone.errors import FrameError, InputError
from k3cone.frame import FibrationFrame
from k3cone.lattice import IntersectionForm
from k3cone.models import BallModel, BoundaryChart, inner_f
from k3cone.svg import RenderOptions, render_svg
from k3cone.translations import section_translate, translation
from k3cone.walls import (WallCircle, max_residual, orbit_walls,
                          sample_wall_circle, wall_circle_ball,
                          wall_circle_uhs)

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden_uhs.svg"
GOLDEN_BALL = DATA / "golden_ball.svg"


def golden_scene(frame):
    chart = BoundaryChart(frame)
    classes = orbit_walls(frame, 2)
    circles = [wall_circle_uhs(frame, d, chart) for d in classes]
    labels = ["O" if d == frame.classO else "" for d in classes]
    return circles, RenderOptions(labels=labels, mark_infinity=True)


def test_orbit_walls_counts(f4):
    assert len(orbit_walls(f4, 0)) == 1
    assert len(orbit_walls(f4, 1)) == 9
    assert len(orbit_walls(f4, 2)) == 25
    with pytest.raises(InputError):
        orbit_walls(f4, -1)


def reference_orbit(frame, n):
    """The orbit wall by wall through `section_translate`, deduplicated in
    `itertools.product` order."""
    out = []
    for ms in itertools.product(range(-n, n + 1), repeat=frame.rank):
        w = zero_vector(frame.form.dim)
        for m, v in zip(ms, frame.translations):
            w = linalg.vec_add(w, linalg.vec_scale(m, v))
        d = section_translate(frame, w)
        if d not in out:
            out.append(d)
    return out


# largest n with at most 729 walls per rank (rank 1 capped lower)
ORBIT_N = {1: 12, 2: 13, 3: 4, 4: 2, 5: 1, 6: 1}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), dim=st.integers(3, 8),
       scrambled=st.booleans(), data=st.data())
def test_orbit_walls_match_section_translates(seed, dim, scrambled, data):
    frame = random_valid_frame(seed, dim, scrambled)
    n = data.draw(st.integers(0, ORBIT_N[dim - 2]))
    assert orbit_walls(frame, n) == reference_orbit(frame, n)


def test_orbit_walls_special_frames(f4):
    # rational Gram and translations with denominators, in a moved basis
    form = IntersectionForm(linalg.matrix(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, "-7/3", "1/2"],
         [0, 0, "1/2", -4]]))
    frame = FibrationFrame.create(form, (1, 0, 0, 0), (-1, 1, 0, 0),
                                  (2, 1, 0, 0),
                                  [("1/3", 0, "1/2", 0), (0, 0, "1/2", "-5/3")])
    moved = change_basis(frame, ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 2),
                                (0, 0, 0, 1)))
    # dependent translations, one with an E-component: duplicate walls
    raw = FibrationFrame(f4.form, f4.classE, f4.classO, f4.ample,
                         ((0, 0, 1, 0), (3, 0, 2, 0)))
    for fr in (frame, moved, raw):
        assert orbit_walls(fr, 3) == reference_orbit(fr, 3)
    assert len(orbit_walls(raw, 3)) == 19  # w = (m1 + 2 m2) f1 + 3 m2 E
    rank0 = FibrationFrame.create(IntersectionForm(((0, 1), (1, 0))),
                                  (1, 0), (-1, 1), (2, 1), ())
    assert orbit_walls(rank0, 4) == [rank0.classO]


def test_rank_zero_walls_have_no_boundary_trace():
    """The ball of a rank-0 frame is 1-dimensional and its UHS boundary a
    point, so neither model can draw or sample a wall trace."""
    rank0 = FibrationFrame.create(IntersectionForm(((0, 1), (1, 0))),
                                  (1, 0), (-1, 1), (2, 1), ())
    ball = BallModel(rank0.form, rank0.ample)
    circle = wall_circle_ball(rank0.form, rank0.classO, ball)
    with pytest.raises(InputError):
        render_svg([circle])
    with pytest.raises(InputError):
        sample_wall_circle(rank0.form, circle, 16, ball)
    with pytest.raises(InputError):
        sample_wall_circle(rank0, wall_circle_uhs(rank0, rank0.classO), 16)


def test_rank_zero_uhs_wall_circle_is_an_input_error():
    """A rank-0 frame's UHS boundary is a point: `wall_circle_uhs` raises
    instead of returning a circle with an empty centre, with the frame's
    chart or a chart passed in, and a circle built by hand is not sampled."""
    rank0 = FibrationFrame.create(IntersectionForm(((0, 1), (1, 0))),
                                  (1, 0), (-1, 1), (2, 1), ())
    for chart in (None, BoundaryChart(rank0)):
        for d in orbit_walls(rank0, 2):
            with pytest.raises(InputError, match="0-dimensional"):
                wall_circle_uhs(rank0, d, chart)
    by_hand = walls.WallCircle("uhs", (), math.sqrt(2.0), rank0.classO)
    with pytest.raises(InputError, match="0-dimensional"):
        sample_wall_circle(rank0, by_hand, 16)


def test_rank_one_traces_are_sampled_on_the_wall():
    """On a rank-1 frame a wall's trace is two points, in both models;
    sampling it asks for 16 points and gets those two, on the wall."""
    for seed in range(12):
        frame = random_valid_frame(seed, 3)
        ball = BallModel(frame.form, frame.ample)
        for d in orbit_walls(frame, 2):
            uhs = wall_circle_uhs(frame, d)
            disc = wall_circle_ball(frame.form, d, ball)
            for circle, samples in (
                    (uhs, sample_wall_circle(frame, uhs, 16)),
                    (disc, sample_wall_circle(frame.form, disc, 16, ball))):
                assert len(samples) == 2
                assert max_residual(frame.form, circle, samples) < 1e-9


@pytest.mark.parametrize("classO", [(0, 1, 0, 0), (-1, 2, 0, 0)])
def test_orbit_walls_reject_inconsistent_frame(f4, classO):
    # O.O = 0, and O.O = -4 with O.E = 2: no translate is a section class
    frame = FibrationFrame(f4.form, f4.classE, classO, f4.ample,
                           f4.translations)
    for n in (0, 2):
        with pytest.raises(FrameError, match="not a section class"):
            orbit_walls(frame, n)
    with pytest.raises(FrameError, match="not a section class"):
        section_translate(frame, f4.translations[0])


def test_orbit_walls_are_sections(f4):
    for d in orbit_walls(f4, 2):
        assert f4.form.norm2(d) == -2
        assert f4.form.inner(d, f4.classE) == 1


def test_uhs_circle_radius_and_center(f4):
    chart = BoundaryChart(f4)
    circle = wall_circle_uhs(f4, f4.sections[0], chart)
    assert abs(circle.radius - math.sqrt(2.0)) < 1e-12
    # center at phi(D_1)/1 = f1 in chart coordinates: Euclidean norm 2
    assert abs(math.sqrt(sum(c * c for c in circle.center)) - 2.0) < 1e-9
    # a chart of another frame would put the circle off the wall
    with pytest.raises(InputError, match="chart"):
        wall_circle_uhs(f4, f4.sections[0],
                        BoundaryChart(random_valid_frame(3, 4)))


def test_wall_circle_uhs_makes_no_exact_product(monkeypatch):
    """A section wall's circle takes D.D and D.E on one `numerators` of D
    and its center from the chart of D itself: no `IntersectionForm.inner`
    and no `decompose` call."""
    frame = random_valid_frame(2, dim=6)
    chart = frame.chart
    classes = list(frame.sections) + orbit_walls(frame, 1)
    want = [wall_circle_uhs(frame, d, chart) for d in classes]
    calls = []
    inner, decompose = IntersectionForm.inner, FibrationFrame.decompose

    def counting_inner(form, u, v):
        calls.append("inner")
        return inner(form, u, v)

    def counting_decompose(self, x):
        calls.append("decompose")
        return decompose(self, x)

    monkeypatch.setattr(IntersectionForm, "inner", counting_inner)
    monkeypatch.setattr(FibrationFrame, "decompose", counting_decompose)
    assert [wall_circle_uhs(frame, d, chart) for d in classes] == want
    assert calls == []


def test_wall_circle_ball_makes_no_exact_product(monkeypatch):
    """A ball circle takes D.D and its coordinates on one `numerators` of D:
    no `IntersectionForm.inner` call."""
    frame = random_valid_frame(2, dim=6)
    ball = BallModel(frame.form, frame.ample)
    classes = list(frame.sections) + orbit_walls(frame, 1)
    want = [wall_circle_ball(frame.form, d, ball) for d in classes]
    calls = []
    inner = IntersectionForm.inner

    def counting_inner(form, u, v):
        calls.append("inner")
        return inner(form, u, v)

    monkeypatch.setattr(IntersectionForm, "inner", counting_inner)
    assert [wall_circle_ball(frame.form, d, ball) for d in classes] == want
    assert calls == []


def test_uhs_circle_rejects_non_wall(f4):
    with pytest.raises(InputError):
        wall_circle_uhs(f4, f4.classE)
    ball = BallModel(f4.form, f4.ample)
    with pytest.raises(InputError, match="negative self-intersection"):
        wall_circle_ball(f4.form, f4.ample, ball)


def test_non_wall_class_rejected_even_if_negative(f4):
    with pytest.raises(InputError):
        wall_circle_uhs(f4, (0, 0, 1, -1))  # square -8, not a wall


def test_ball_circle_rejects_a_second_form(f4):
    """D's products and its ball coordinates come from one form: a wall of
    another form on f4's ball would be a circle off that wall.  The sampler
    checks its model once per circle in the same way: a ball circle on the
    ball's form, a uhs circle on a frame of its chart dimension."""
    ball = BallModel(f4.form, f4.ample)
    other = IntersectionForm(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, -2, 0),
                              (0, 0, 0, -6)))
    with pytest.raises(InputError, match="different forms"):
        wall_circle_ball(other, (0, 0, 1, 0), ball)
    disc = wall_circle_ball(f4.form, f4.sections[0], ball)
    with pytest.raises(InputError, match="different forms"):
        sample_wall_circle(other, disc, 16, ball)
    with pytest.raises(InputError, match="ball model required"):
        sample_wall_circle(f4.form, disc, 16)
    cone = WallCircle("cone", disc.center, disc.radius, disc.source_class)
    with pytest.raises(InputError, match="unknown circle model"):
        sample_wall_circle(f4.form, cone, 16, ball)
    uhs = wall_circle_uhs(f4, f4.sections[0])
    with pytest.raises(InputError, match="on a frame"):
        sample_wall_circle(f4.form, uhs, 16)
    wide = random_valid_frame(3, 5)
    with pytest.raises(InputError, match="chart dimension"):
        sample_wall_circle(f4, wall_circle_uhs(wide, wide.sections[0]), 16)
    same = IntersectionForm(f4.form.gram)  # equal, not identical
    assert (wall_circle_ball(same, f4.sections[0], ball)
            == wall_circle_ball(f4.form, f4.sections[0], ball))


def test_degenerate_wall_is_hyperplane():
    # lattice with a -2 vector orthogonal to E: D = g1 traces a hyperplane
    from k3cone.frame import FibrationFrame
    from k3cone.lattice import IntersectionForm
    form = IntersectionForm(linalg.matrix(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]]))
    frame = FibrationFrame.create(form, (1, 0, 0, 0), (-1, 1, 0, 0),
                                  (2, 1, 0, 0),
                                  [(0, 0, 1, 0), (0, 0, 0, 1)])
    circle = wall_circle_uhs(frame, (0, 0, 1, 0))
    assert circle.degenerate is not None
    n = circle.degenerate.normal
    assert abs(math.sqrt(sum(x * x for x in n)) - 1.0) < 1e-12
    assert circle.degenerate.offset == 0.0


@pytest.mark.parametrize("dim", range(3, 7))
def test_degenerate_walls_pass_the_residual_gate(dim):
    """D = a E + g_i (D.E = 0) on U + (-2)^r, plain and moved by a
    unimodular change of basis: the samples of its hyperplane lie on the
    wall, one on a rank-1 chart and two on rank 2."""
    r = dim - 2
    gram = [[int(i + j == 1) if max(i, j) < 2 else -2 * (i == j)
             for j in range(dim)] for i in range(dim)]
    unit = [tuple(int(k == i) for k in range(dim)) for i in range(dim)]
    frame = FibrationFrame.create(
        IntersectionForm(linalg.matrix(gram)), unit[0],
        (-1, 1) + (0,) * r, (3, 1) + (0,) * r, unit[2:])
    rng = random.Random(dim)
    u = random_unimodular(rng, dim)
    u_inv = linalg.inverse(linalg.matrix(u))
    for i in range(r):
        d = [rng.randint(-3, 3)] + [0] * (dim - 1)
        d[2 + i] = 1
        for target, dd in ((frame, d),
                           (change_basis(frame, u), mat_vec(u_inv, d))):
            circle = wall_circle_uhs(target, dd)
            assert circle.degenerate is not None
            for k in (1, 2, 16):
                samples = sample_wall_circle(target, circle, k)
                assert len(samples) == (1 if r == 1 else min(k, 2) if r == 2
                                        else k)
                assert max_residual(target.form, circle, samples) < 1e-9


def test_degenerate_wall_renders_as_a_line():
    """D = E + g1 on the frame of `test_degenerate_wall_is_hyperplane`
    traces the line x = 1/sqrt(2) of the chart, drawn across the view."""
    form = IntersectionForm(linalg.matrix(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]]))
    frame = FibrationFrame.create(form, (1, 0, 0, 0), (-1, 1, 0, 0),
                                  (2, 1, 0, 0),
                                  [(0, 0, 1, 0), (0, 0, 0, 1)])
    circle = wall_circle_uhs(frame, (1, 0, 1, 0))
    assert max_residual(form, circle, sample_wall_circle(frame, circle)) < 1e-9
    assert render_svg([circle]).splitlines()[1] == (
        '<line x1="362.426407" y1="-320.000000" x2="362.426407"'
        ' y2="960.000000" stroke="#1a1a1a" stroke-width="1.000000"/>')


def test_sampled_residuals_uhs(f4):
    """Every wall of the N = 2 box passes the gate.  On exact input, a class
    and samples of ints or `Fraction`s (thirds, which no double holds),
    the residual equals `ref_max_residual`'s to the bit."""
    chart = BoundaryChart(f4)
    for d in orbit_walls(f4, 2):
        circle = wall_circle_uhs(f4, d, chart)
        samples = sample_wall_circle(f4, circle, 16)
        assert max_residual(f4.form, circle, samples) < 1e-9
        for cls in (d, tuple(map(round, d))):
            exact = WallCircle("uhs", circle.center, circle.radius, cls)
            for pts in ([tuple(map(round, a)) for a in samples],
                        [tuple(Fraction(round(3 * t), 3) for t in a)
                         for a in samples]):
                assert (max_residual(f4.form, exact, pts)
                        == ref_max_residual(f4.form, exact, pts))


def test_sampled_residuals_ball(f4):
    ball = BallModel(f4.form, f4.ample)
    for d in orbit_walls(f4, 1):
        circle = wall_circle_ball(f4.form, d, ball)
        samples = sample_wall_circle(f4.form, circle, 16, ball=ball)
        assert max_residual(f4.form, circle, samples) < 1e-9


def test_ball_circle_lies_on_sphere(f4):
    ball = BallModel(f4.form, f4.ample)
    circle = wall_circle_ball(f4.form, f4.sections[0], ball)
    for u in sample_wall_circle(f4.form, circle, 8, ball=ball):
        w = ball.signature_coords(u)
        assert abs(w[0] ** 2 - sum(t * t for t in w[1:])) < 1e-9


def test_translation_equivariance_of_circles(f4):
    chart = BoundaryChart(f4)
    t = translation(f4, f4.translations[0])
    shift = chart.euclid(f4.translations[0])
    for d in orbit_walls(f4, 1):
        c0 = wall_circle_uhs(f4, d, chart)
        c1 = wall_circle_uhs(f4, t(d), chart)
        assert abs(c0.radius - c1.radius) < 1e-9
        moved = [a + s for a, s in zip(c0.center, shift)]
        assert max(abs(a - b) for a, b in zip(moved, c1.center)) < 1e-9


def test_render_svg_deterministic(f4):
    circles, options = golden_scene(f4)
    assert render_svg(circles, options) == render_svg(circles, options)


def test_render_matches_golden(f4):
    circles, options = golden_scene(f4)
    assert render_svg(circles, options).encode() == GOLDEN.read_bytes()


def test_render_ball_matches_golden(f4):
    # the scene of `k3cone render configs/f4_frame.json --model ball --N 2`
    ball = BallModel(f4.form, f4.ample)
    classes = orbit_walls(f4, 2)
    circles = [wall_circle_ball(f4.form, d, ball) for d in classes]
    labels = ["O" if d == f4.classO else "" for d in classes]
    doc = render_svg(circles, RenderOptions(labels=labels, scale=280.0))
    assert doc.encode() == GOLDEN_BALL.read_bytes()


def test_render_ball_scene(f4):
    ball = BallModel(f4.form, f4.ample)
    circles = [wall_circle_ball(f4.form, d, ball) for d in orbit_walls(f4, 1)]
    doc = render_svg(circles, RenderOptions(scale=280.0))
    assert doc.startswith("<svg")
    assert "stroke-dasharray" in doc  # unit-circle outline
    assert doc.count("<path") == len(circles)


def test_render_rejects_bad_input(f4):
    """Labels are one `str` per circle: a string is not read as one label
    per character, and a label that is not a `str` is an `InputError`,
    not a bare `AttributeError` in the renderer."""
    with pytest.raises(InputError):
        render_svg([])
    circles, options = golden_scene(f4)
    with pytest.raises(InputError):
        render_svg(circles, RenderOptions(labels=["only-one"]))
    cone = WallCircle("cone", (0.0, 0.0), 1.0, f4.sections[0])
    with pytest.raises(InputError, match="unknown circle model"):
        render_svg([cone])
    n = len(circles)
    for labels in ([1] * n, [b"O"] * n, [None] * n, "O" * n, 7):
        with pytest.raises(InputError, match="label"):
            render_svg(circles, RenderOptions(labels=labels))
    listed = RenderOptions(labels=iter(options.labels), mark_infinity=True)
    assert listed == options
    assert render_svg(circles, listed) == render_svg(circles, options)


@pytest.mark.parametrize("model", ["uhs", "ball"])
def test_labels_are_escaped(f4, model):
    """Any label text leaves the document well-formed and reads back."""
    circles, _ = golden_scene(f4)
    if model == "ball":
        ball = BallModel(f4.form, f4.ample)
        circles = [wall_circle_ball(f4.form, c.source_class, ball)
                   for c in circles]
    labels = ["a<b&c", "O", "", "x > \"y\" 'z'"]
    labels += [""] * (len(circles) - len(labels))
    root = ElementTree.fromstring(render_svg(circles,
                                             RenderOptions(labels=labels)))
    texts = [e.text for e in root.iter() if e.tag.endswith("text")]
    assert texts == [t for t in labels if t]


def test_default_chart_is_built_once_per_frame(monkeypatch):
    frame = f4_frame()
    built = []
    init = BoundaryChart.__init__

    def counting_init(self, frame):
        built.append(frame)
        init(self, frame)

    monkeypatch.setattr(BoundaryChart, "__init__", counting_init)
    for d in orbit_walls(frame, 1):
        circle = wall_circle_uhs(frame, d)
        sample_wall_circle(frame, circle, 4)
    assert built == [frame]
    assert frame.chart.basis == frame.perp_basis()


# -- per-scene work done once: equal to the per-point forms -------------------

@pytest.mark.parametrize("k", [0, -2])
def test_residual_gate_needs_samples(f4, k):
    """No sample count below 1, and no residual of an empty sample: the
    < 1e-9 gate would pass on 0.0 with nothing checked.  A sample or a
    class of another dimension than the form's is an `InputError` too."""
    ball = BallModel(f4.form, f4.ample)
    d = f4.sections[0]
    for circle, target, kw in (
            (wall_circle_uhs(f4, d), f4, {}),
            (wall_circle_ball(f4.form, d, ball), f4.form, {"ball": ball})):
        with pytest.raises(InputError, match="at least one sample"):
            sample_wall_circle(target, circle, k, **kw)
        with pytest.raises(InputError, match="no samples"):
            max_residual(f4.form, circle, [])
        samples = sample_wall_circle(target, circle, 4, **kw)
        for bad in (samples[0][:-1], (*samples[0], 0.0)):
            with pytest.raises(InputError, match="dimension"):
                max_residual(f4.form, circle, [*samples, bad])
        short = WallCircle(circle.model, circle.center, circle.radius, d[:-1])
        with pytest.raises(InputError, match="dimension"):
            max_residual(f4.form, short, samples)


@pytest.mark.parametrize("center", [(math.nan, 0.0), (1e200, 0.0)],
                         ids=["nan", "overflow"])
def test_residual_gate_rejects_non_finite_samples(f4, center):
    """A sample that is not a point (NaN, or inf from an overflowing
    centre) fails the gate; `max` alone would keep 0.0 past its NaN."""
    circle = WallCircle("uhs", center, math.sqrt(2.0), f4.sections[0])
    samples = sample_wall_circle(f4, circle)
    assert not all(map(math.isfinite, samples[0]))
    with pytest.raises(InputError, match="not a finite point"):
        max_residual(f4.form, circle, samples)


def ref_ball_circle_points(circle, k):
    """Per point and per coordinate, as `ball_circle_points` once was."""
    basis = walls._plane_frame(list(circle.normal))
    e1 = basis[0]
    e2 = basis[1] if len(basis) > 1 else [0.0] * len(e1)
    thetas = (2.0 * math.pi * idx / k for idx in range(k))
    return [[c + circle.radius * (math.cos(t) * a + math.sin(t) * b)
             for c, a, b in zip(circle.center, e1, e2)] for t in thetas]


def ref_fmt(v):
    s = f"{v:.6f}"
    return "0.000000" if s == "-0.000000" else s


def ref_path_elem(options, points):
    parts = []
    for i, (x, y) in enumerate(points):
        cx = svg.WIDTH / 2.0 + options.scale * x
        cy = svg.HEIGHT / 2.0 - options.scale * y
        parts.append(f"{'M' if i == 0 else 'L'} {ref_fmt(cx)} {ref_fmt(cy)}")
    parts.append("Z")
    return f'<path d="{" ".join(parts)}" fill="none"{svg._STROKE_ATTRS}/>'


def ref_svg_ball_points(circle):
    if len(circle.center) == 2:
        normal = circle.normal
        e1 = (-normal[1], normal[0])
        return [(circle.center[0] + s * circle.radius * e1[0],
                 circle.center[1] + s * circle.radius * e1[1])
                for s in (1.0, -1.0)]
    return [(p[0], p[1]) for p in ref_ball_circle_points(circle, svg.SAMPLES)]


def ref_render(scene, options):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svg, "_path_elem", ref_path_elem)
        mp.setattr(svg, "_ball_circle_points", ref_svg_ball_points)
        return render_svg(scene, options)


def ref_orbit_walls(frame, n):
    """One `Fraction` per entry of every kept wall."""
    image, den = frame.section_map
    out, seen = [], set()
    for ms in itertools.product(range(-n, n + 1), repeat=frame.rank):
        d = image(ms)
        if d not in seen:
            seen.add(d)
            out.append(tuple(Fraction(x, den) for x in d))
    return out


def ref_max_residual(form, circle, samples):
    worst = 0.0
    for a in samples:
        worst = max(worst, abs(inner_f(form, a, a)),
                    abs(inner_f(form, a, circle.source_class)))
    return worst


@pytest.mark.parametrize("seed", range(12))
def test_wall_scenes_match_per_point_forms(seed):
    """On every dim 3-8 frame of the seed, plain and moved by a unimodular
    change of basis: the ball render, the circle points, the orbit and the
    residuals equal their per-point forms exactly (dim 3 draws the
    two-point traces of the 2-dimensional ball).  The rendered scene is
    that of `orbit_walls(frame, 1)`, cut at 81 walls (all of them up to
    dim 6) to bound the per-point reference's time."""
    for dim in range(3, 9):
        for scrambled in (False, True):
            frame = random_valid_frame(seed, dim, scrambled)
            classes = orbit_walls(frame, 1)
            assert classes == ref_orbit_walls(frame, 1)
            ball = BallModel(frame.form, frame.ample)
            scene = [wall_circle_ball(frame.form, d, ball)
                     for d in classes[:81]]
            options = RenderOptions(scale=280.0)
            assert render_svg(scene, options) == ref_render(scene, options)
            for circle in scene[:4]:
                for k in (1, 3, 16, 64):
                    assert (walls.ball_circle_points(circle, k)
                            == ref_ball_circle_points(circle, k))
                samples = sample_wall_circle(frame.form, circle, 16, ball=ball)
                assert (max_residual(frame.form, circle, samples)
                        == ref_max_residual(frame.form, circle, samples))
                uhs = wall_circle_uhs(frame, circle.source_class)
                samples = sample_wall_circle(frame, uhs, 16)
                assert (max_residual(frame.form, uhs, samples)
                        == ref_max_residual(frame.form, uhs, samples))


def test_path_keeps_the_negative_zero_rule():
    """A pixel coordinate in (-5e-7, 0] prints as 0.000000, as `_fmt` does;
    other negative coordinates keep their sign."""
    options = RenderOptions(scale=1.0)
    points = [(-320.0000001, 320.0000001), (-320.5, 320.25), (-0.0, 0.0)]
    doc = svg._path_elem(options, points)
    assert doc == ref_path_elem(options, points)
    assert "-0.000000" not in doc and "L -0.500000 -0.250000 L" in doc
