"""Acceptance gate: one pass/fail line per criterion, pinned tolerances.

Each test exercises one headline property end to end and reports a single
line on the real terminal (bypassing capture) so the gate is auditable from
any pytest invocation.
"""

import math
import pathlib
import random
import time
from fractions import Fraction

from conftest import (class_p, group_translation, identity,
                      random_boundary_class, random_orthogonal_to_fiber,
                      random_valid_frame)
from k3cone import f4_frame, linalg
from k3cone.curves import (CurveQ, canonical_height as curve_hhat,
                           default_pencil, naive_limit_height,
                           specialization_scan)
from k3cone.heights import FiberPoint, SyntheticFibration, limit_experiment
from k3cone.involutions import (sigma0_pullback, sigma_i_pullback,
                                tau_pushforward)
from k3cone.models import (BallModel, BoundaryChart, ball_distance,
                           boundary_distance_sq, hyperbolic_distance, inner_f,
                           phi, to_upper_half_space, uhs_distance)
from k3cone.svg import RenderOptions, render_svg
from k3cone.translations import compose, power, translation
from k3cone.walls import (max_residual, orbit_walls, sample_wall_circle,
                          wall_circle_ball, wall_circle_uhs)

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_uhs.svg"


def _report(capsys, num, name, ok, budget, elapsed):
    line = (f"acceptance {num:02d} {name}: "
            f"{'PASS' if ok else 'FAIL'} ({elapsed:.2f}s / {budget:.0f}s)")
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line
    assert elapsed < budget, f"over time budget: {line}"


def test_01_isometry_exactness(capsys):
    start = time.process_time()
    ok = True
    f4 = f4_frame()
    rng = random.Random(101)
    for _ in range(1000):
        v = random_orthogonal_to_fiber(f4, rng)
        t = translation(f4, v)
        ok = ok and t.preserves_form() and t(f4.classE) == f4.classE
    for seed in range(10):
        frame = random_valid_frame(seed, dim=4 + seed % 3)
        for _ in range(20):
            v = random_orthogonal_to_fiber(frame, rng)
            t = translation(frame, v)
            ok = ok and t.preserves_form() and t(frame.classE) == frame.classE
    _report(capsys, 1, "isometry exactness", ok, 10.0, time.process_time() - start)


def test_02_power_and_commutation_identities(capsys):
    start = time.process_time()
    ok = True
    f4 = f4_frame()
    rng = random.Random(202)
    for _ in range(10):
        v = random_orthogonal_to_fiber(f4, rng)
        w = random_orthogonal_to_fiber(f4, rng)
        tv, tw = translation(f4, v), translation(f4, w)
        for m in range(-3, 6):
            scaled = translation(f4, linalg.vec_scale(m, v))
            ok = ok and power(tv, m).matrix == scaled.matrix
        ok = ok and compose(tv, tw).matrix == compose(tw, tv).matrix
        ok = ok and compose(tv, tw).matrix == translation(
            f4, linalg.vec_add(v, w)).matrix
    _report(capsys, 2, "translation power/commutation identities", ok, 5.0,
            time.process_time() - start)


def test_03_involution_product_is_translation(capsys):
    start = time.process_time()
    ok = True
    frames = [f4_frame()] + [random_valid_frame(s, dim=4 + s % 3)
                             for s in range(6)]
    for frame in frames:
        for i in range(frame.rank):
            tau = tau_pushforward(frame, i)  # raises on mismatch
            expected = translation(frame, frame.translations[i])
            ok = ok and tau.matrix == expected.matrix
    _report(capsys, 3, "involution product equals translation", ok, 5.0,
            time.process_time() - start)


def test_04_involution_eigenstructure(capsys):
    start = time.process_time()
    ok = True
    frames = [f4_frame()] + [random_valid_frame(s, dim=4 + s % 3)
                             for s in range(4)]
    for frame in frames:
        n = frame.form.dim
        refls = [sigma0_pullback(frame)]
        refls += [sigma_i_pullback(frame, d) for d in frame.sections]
        for refl in refls:
            m = refl.matrix
            ok = ok and linalg.mat_mul(m, m) == identity(n)
            ok = ok and refl.preserves_form()
            ident = identity(n)
            minus = linalg.matrix([[m[i][j] - ident[i][j] for j in range(n)]
                                   for i in range(n)])
            plus = linalg.matrix([[m[i][j] + ident[i][j] for j in range(n)]
                                  for i in range(n)])
            ok = ok and (n - linalg.rank(minus), n - linalg.rank(plus)) \
                == (2, n - 2)
    _report(capsys, 4, "involution eigenstructure (2, dim-2)", ok, 5.0,
            time.process_time() - start)


def test_05_boundary_metric_exact(capsys):
    start = time.process_time()
    ok = True
    f4 = f4_frame()
    rng = random.Random(505)
    for _ in range(1000):
        a = random_boundary_class(f4, rng)
        b = random_boundary_class(f4, rng)
        diff = linalg.vec_sub(phi(f4, a), phi(f4, b))
        ok = ok and boundary_distance_sq(f4, a, b) == -f4.form.norm2(diff)
    # reference example: P and its translate by f1 are at distance 2
    t = translation(f4, f4.translations[0])
    ok = ok and boundary_distance_sq(f4, class_p(f4), t(class_p(f4))) == 4
    _report(capsys, 5, "boundary metric exactness", ok, 5.0,
            time.process_time() - start)


def _fd_metric_error(frame, rng, h):
    form = frame.form
    amp = [float(c) for c in frame.ample]
    while True:
        x = [rng.uniform(-1.0, 1.0) for _ in range(form.dim)]
        x[0] += 2.0
        x[1] += 2.0
        q = inner_f(form, x, x)
        if q > 0.1 and inner_f(form, x, amp) > 0:
            u = [xi / math.sqrt(q) for xi in x]
            break
    d = [rng.uniform(-1.0, 1.0) for _ in range(form.dim)]
    du = inner_f(form, d, u)
    d = [di - du * ui for di, ui in zip(d, u)]
    nd = math.sqrt(-inner_f(form, d, d))
    d = [di / nd for di in d]
    u2 = [ui + h * di for ui, di in zip(u, d)]
    q2 = inner_f(form, u2, u2)
    u2 = [xi / math.sqrt(q2) for xi in u2]
    diff = [a - b for a, b in zip(u2, u)]
    chord_lorentz = math.sqrt(-inner_f(form, diff, diff))
    p1 = to_upper_half_space(frame, u)
    p2 = to_upper_half_space(frame, u2)
    chord_uhs = math.sqrt(sum((a - b) ** 2 for a, b in zip(p1.x, p2.x))
                          + (p1.z - p2.z) ** 2)
    arc_uhs = chord_uhs / ((p1.z + p2.z) / 2.0)
    return abs(chord_lorentz - arc_uhs) / chord_lorentz


def test_06_upper_half_space_isometry(capsys):
    start = time.process_time()
    ok = True
    f4 = f4_frame()
    rng = random.Random(606)
    for _ in range(50):
        ok = ok and _fd_metric_error(f4, rng, 1e-3) < 1e-4
        ok = ok and _fd_metric_error(f4, rng, 1e-4) < 1e-6
    ball = BallModel(f4.form, f4.ample)
    for _ in range(50):
        def interior():
            while True:
                x = [rng.uniform(-1.0, 1.0) for _ in range(4)]
                x[0] += 2.0
                x[1] += 2.0
                q = inner_f(f4.form, x, x)
                if q > 0.1:
                    return [xi / math.sqrt(q) for xi in x]
        x, y = interior(), interior()
        d0 = hyperbolic_distance(f4.form, x, y)
        d1 = uhs_distance(f4, to_upper_half_space(f4, x),
                          to_upper_half_space(f4, y))
        d2 = ball_distance(ball.ball_point(x), ball.ball_point(y))
        ok = ok and abs(d0 - d1) < 1e-9 and abs(d0 - d2) < 1e-9
    _report(capsys, 6, "upper-half-space metric agreement", ok, 10.0,
            time.process_time() - start)


def test_07_synthetic_pairing_limit(capsys):
    start = time.process_time()
    ok = True
    f4 = f4_frame()
    heights = [10.0 ** k for k in range(1, 5)]
    # noiseless: normalized pairing equals the Euclidean Gram entry exactly
    clean = SyntheticFibration(f4, heights, 0.0, seed=0)
    for i in range(2):
        for j in range(2):
            target = 4.0 if i == j else 0.0
            for row in limit_experiment(clean, i, j, f4.ample):
                ok = ok and row.normalized == target and row.deviation == 0.0
    # noise M = 1: deviation within 3 M |v| ([E].D) / h(E) on every fiber
    vnorm = 2.0
    ed = float(f4.form.inner(f4.ample, f4.classE))
    noisy = SyntheticFibration(f4, heights, 1.0, seed=0)
    for i in range(2):
        for j in range(2):
            for row in limit_experiment(noisy, i, j, f4.ample):
                bound = 3.0 * 1.0 * vnorm * ed / row.fiber_height
                ok = ok and abs(row.deviation) <= bound
    _report(capsys, 7, "synthetic normalized pairing limit", ok, 10.0,
            time.process_time() - start)


def test_08_error_growth_contract(capsys):
    start = time.process_time()
    ok = True
    f4 = f4_frame()
    m = 1.0
    for seed in range(5):
        fib = SyntheticFibration(f4, (10.0,), m, seed)
        for gv in ((1, 0), (0, 1), (1, 1), (2, -1)):
            point = FiberPoint(0, gv)
            v = group_translation(fib.frame, point)
            vnorm = math.sqrt(-float(f4.form.norm2(v)))
            for n, perp, scalar in fib.error_trace(point, 100):
                ok = ok and perp <= m * n * (1.0 + 1e-9)
                ok = ok and scalar <= m * vnorm * n * n * (1.0 + 1e-9)
    _report(capsys, 8, "iterated-noise growth contract", ok, 10.0,
            time.process_time() - start)


def test_09_elliptic_heights(capsys):
    start = time.process_time()
    ok = True
    tol = 1e-6
    # order-6 torsion on y^2 = x^3 + 1
    torsion_curve = CurveQ(Fraction(0), Fraction(1))
    ok = ok and torsion_curve.multiply(6, (Fraction(2), Fraction(3))) is None
    ok = ok and abs(curve_hhat(torsion_curve, (Fraction(2), Fraction(3)),
                               tol)) < 1e-3
    # quadraticity and parallelogram law on y^2 = x^3 - 2, P = (3, 5)
    curve = CurveQ(Fraction(0), Fraction(-2))
    p = (Fraction(3), Fraction(5))
    q = curve.multiply(2, p)
    h_p = curve_hhat(curve, p, tol)
    h_q = curve_hhat(curve, q, tol)
    ok = ok and abs(h_q - 4.0 * h_p) < 4e-3
    h_sum = curve_hhat(curve, curve.add(p, q), tol)
    h_diff = curve_hhat(curve, curve.add(p, curve.negate(q)), tol)
    ok = ok and abs(h_sum + h_diff - 2.0 * h_p - 2.0 * h_q) < 1e-2
    # doubling-limit vs n^2-limit oracle
    limit, _ = naive_limit_height(curve, p, n_max=12)
    ok = ok and abs(h_p - limit) < 2e-2
    _report(capsys, 9, "elliptic canonical heights", ok, 60.0,
            time.process_time() - start)


def test_10_specialization_scan(capsys):
    start = time.process_time()
    ok = True
    pencil = default_pencil()
    ts = [Fraction(2) ** k for k in range(3, 9)]
    result = specialization_scan(pencil, ts, tolerance=1e-4)
    diffs = result.max_entry_diffs
    ok = ok and len(result.rows) == len(ts) and not result.skipped
    ok = ok and all(b <= a + 1e-9 for a, b in zip(diffs[1:], diffs[2:]))
    ok = ok and diffs[-1] < 1e-1
    for row in result.rows:
        r = len(row.pairings)
        for i in range(r):
            ok = ok and row.normalized[i][i] > 0.0
            for j in range(r):
                ok = ok and abs(row.pairings[i][j]
                                - row.pairings[j][i]) < 1e-3
    _report(capsys, 10, "specialization scan stabilizes", ok, 300.0,
            time.process_time() - start)


def test_11_renderer(capsys):
    start = time.process_time()
    ok = True
    f4 = f4_frame()
    chart = BoundaryChart(f4)
    ball = BallModel(f4.form, f4.ample)
    classes = orbit_walls(f4, 2)
    circles = []
    for d in classes:
        c = wall_circle_uhs(f4, d, chart)
        circles.append(c)
        samples = sample_wall_circle(f4, c, 16)
        ok = ok and max_residual(f4.form, c, samples) < 1e-9
        if f4.form.inner(d, f4.classE) == 1:
            ok = ok and abs(c.radius - math.sqrt(2.0)) < 1e-9
    for d in classes[:9]:
        b = wall_circle_ball(f4.form, d, ball)
        samples = sample_wall_circle(f4.form, b, 16, ball=ball)
        ok = ok and max_residual(f4.form, b, samples) < 1e-9
    # translation equivariance of the circles
    t = translation(f4, f4.translations[0])
    shift = chart.euclid(f4.translations[0])
    for d in classes[:9]:
        c0 = wall_circle_uhs(f4, d, chart)
        c1 = wall_circle_uhs(f4, t(d), chart)
        ok = ok and abs(c0.radius - c1.radius) < 1e-9
        moved = [a + s for a, s in zip(c0.center, shift)]
        ok = ok and max(abs(a - b) for a, b in zip(moved, c1.center)) < 1e-9
    # byte-identical golden document
    labels = ["O" if d == f4.classO else "" for d in classes]
    doc = render_svg(circles, RenderOptions(labels=labels, mark_infinity=True))
    ok = ok and doc.encode() == GOLDEN.read_bytes()
    _report(capsys, 11, "renderer residuals and golden SVG", ok, 10.0,
            time.process_time() - start)
