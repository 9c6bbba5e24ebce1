import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (class_p, random_boundary_class, random_valid_frame,
                      solve, zero_vector)
from k3cone import linalg
from k3cone.errors import CuspError, DomainError, InputError
from k3cone.frame import FibrationFrame
from k3cone.lattice import IntersectionForm
from k3cone.models import (BallModel, BoundaryChart, UpperHalfSpacePoint,
                           ball_distance, boundary_distance,
                           boundary_distance_sq, check_boundary_class,
                           cusp_inner, from_upper_half_space,
                           hyperbolic_distance, inner_f, phi,
                           to_upper_half_space, uhs_distance)
from k3cone.svg import RenderOptions
from k3cone.translations import translation


def _random_interior(frame, rng):
    """Float point on the hyperboloid x.x = 1, ample side (any basis)."""
    form = frame.form
    amp = [float(c) for c in frame.ample]
    while True:
        r = [rng.uniform(-1.0, 1.0) for _ in range(form.dim)]
        t = 0.5
        for _ in range(40):
            x = [a + t * ri for a, ri in zip(amp, r)]
            q = inner_f(form, x, x)
            if q > 0.1 and inner_f(form, x, amp) > 0:
                s = math.sqrt(q)
                return [xi / s for xi in x]
            t /= 2.0


def test_hyperbolic_distance_domain(f4):
    with pytest.raises(DomainError):
        hyperbolic_distance(f4.form, f4.classE, f4.ample)
    neg = linalg.vec_scale(-1, f4.ample)
    with pytest.raises(DomainError):
        hyperbolic_distance(f4.form, f4.ample, neg)
    assert hyperbolic_distance(f4.form, f4.ample, f4.ample) == 0.0


def test_check_boundary_class(f4):
    a = linalg.vec_add(linalg.vec_add(class_p(f4),
                                      linalg.vec_scale(2, f4.classE)),
                       (0, 0, 1, 0))
    assert f4.form.norm2(a) == 0
    check_boundary_class(f4, a)
    with pytest.raises(CuspError):
        check_boundary_class(f4, f4.classE)
    with pytest.raises(DomainError):
        check_boundary_class(f4, f4.ample)
    # with the ample class flipped, [E] lies on the wrong side: -P is null
    # and ample-positive but pairs negatively with [E]
    flipped = FibrationFrame(f4.form, f4.classE, f4.classO,
                             linalg.vec_scale(-1, f4.ample))
    with pytest.raises(DomainError, match="negatively"):
        check_boundary_class(flipped, linalg.vec_scale(-1, class_p(f4)))


def test_inner_f_matches_exact_inner(f4):
    rng = random.Random(5)
    for _ in range(200):
        u = [rng.randint(-3, 3) for _ in range(f4.form.dim)]
        v = [Fraction(rng.randint(-3, 3)) for _ in range(f4.form.dim)]
        assert inner_f(f4.form, u, v) == float(f4.form.inner(u, v))


def test_cusp_inner_adds_left_to_right():
    """<y, y'> is 0 + 1e16 + 1.0 - 1e16 added in order, which is 0.0; a
    compensated sum (`sum()` from Python 3.12 on) gives 1.0 there, and
    cusp_inner would be -1.0."""
    x, y = (0.0, 0.0, 1e16, 1.0, -1e16), (0.0, 0.0, 1.0, 1.0, 1.0)
    assert linalg.left_sum([1e16, 1.0, -1e16]) == 0.0
    assert cusp_inner(x, y) == 0.0


def test_phi_example_and_invariance(f4):
    a = (2, 1, 1, 0)  # 2E + P + f1, null
    assert f4.form.norm2(a) == 0
    assert phi(f4, a) == (0, 0, 1, 0)
    doubled = linalg.vec_scale(Fraction(7, 2), a)
    assert phi(f4, doubled) == phi(f4, a)
    with pytest.raises(CuspError):
        phi(f4, f4.classE)


def test_boundary_distance_f4_example(f4):
    # A = [O]'s null companion P; B = T_{f1} P: squared distance = -f1.f1 = 4
    t = translation(f4, f4.translations[0])
    b = t(class_p(f4))
    assert boundary_distance_sq(f4, class_p(f4), b) == 4
    assert boundary_distance(f4, class_p(f4), b) == 2.0


def test_boundary_metric_equals_chart_norm(f4):
    rng = random.Random(3)
    for _ in range(50):
        a = random_boundary_class(f4, rng)
        b = random_boundary_class(f4, rng)
        diff = linalg.vec_sub(phi(f4, a), phi(f4, b))
        assert boundary_distance_sq(f4, a, b) == -f4.form.norm2(diff)


def test_uhs_round_trip(f4):
    rng = random.Random(4)
    for _ in range(20):
        x = _random_interior(f4, rng)
        p = to_upper_half_space(f4, x)
        back = from_upper_half_space(f4, p)
        assert max(abs(a - b) for a, b in zip(back, x)) < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_uhs_rejects_non_finite_input(f4, bad):
    with pytest.raises(InputError):
        to_upper_half_space(f4, [bad, 1, 0, 0])
    with pytest.raises(InputError):
        UpperHalfSpacePoint((0.0, 0.0), bad)
    with pytest.raises(InputError):
        UpperHalfSpacePoint((bad, 0.0), 1.0)


def test_uhs_maps_check_the_chart_dimension(f4):
    """UHS points have `chart.dim` coordinates; no map truncates others.
    What is not an `UpperHalfSpacePoint` is an `InputError`, not a bare
    `AttributeError`."""
    p = to_upper_half_space(f4, f4.ample)
    assert len(p.x) == f4.chart.dim == 2
    for bad in (UpperHalfSpacePoint(p.x[:1], p.z),
                UpperHalfSpacePoint(p.x + (0.0,), p.z),
                (0, 0), (p.x, p.z), None):
        with pytest.raises(InputError):
            uhs_distance(f4, p, bad)
        with pytest.raises(InputError):
            uhs_distance(f4, bad, p)
        with pytest.raises(InputError):
            from_upper_half_space(f4, bad)


def test_cross_model_distances_agree():
    for seed in range(4):
        frame = random_valid_frame(seed, dim=4 + seed % 2)
        ball = BallModel(frame.form, frame.ample)
        rng = random.Random(40 + seed)
        for _ in range(10):
            x, y = _random_interior(frame, rng), _random_interior(frame, rng)
            d0 = hyperbolic_distance(frame.form, x, y)
            d1 = uhs_distance(frame, to_upper_half_space(frame, x),
                              to_upper_half_space(frame, y))
            d2 = ball_distance(ball.ball_point(x), ball.ball_point(y))
            assert abs(d0 - d1) < 1e-9
            assert abs(d0 - d2) < 1e-9


def test_ball_model_basics(f4):
    ball = BallModel(f4.form, f4.ample)
    w = ball.signature_coords(f4.ample)
    assert w[0] > 0
    assert abs(inner_f(f4.form, f4.ample, f4.ample)
               - (w[0] ** 2 - sum(t * t for t in w[1:]))) < 1e-9
    center = ball.ball_point(f4.ample)
    assert sum(t * t for t in center) < 1.0
    # null class lands on the sphere
    on_sphere = ball.ball_point((2, 1, 1, 0))
    assert abs(sum(t * t for t in on_sphere) - 1.0) < 1e-15
    with pytest.raises(DomainError):
        ball.ball_point((0, 0, 1, 0))


@pytest.mark.parametrize("call, message", [
    (lambda f: UpperHalfSpacePoint((0.0, 0.0), -1.0), "height"),
    (lambda f: to_upper_half_space(f, linalg.vec_scale(-1, f.ample)),
     "fiber class"),
    (lambda f: BoundaryChart(FibrationFrame(
        IntersectionForm(((0, 1, 0), (1, 0, 0), (0, 0, 2))),
        (1, 0, 0), (-1, 1, 0), (2, 1, 0))), "not positive definite"),
], ids=["uhs-point-below", "uhs-of-minus-ample", "chart-of-U+<2>"])
def test_points_outside_a_model_are_domain_errors(f4, call, message):
    """A UHS point below the boundary, a class on the far sheet of the
    cone, and a boundary on which the form is not negative definite."""
    with pytest.raises(DomainError, match=message):
        call(f4)


def test_hyperbolic_distance_beyond_a_double(f4):
    """sinh d past 1e308 still gives d, from logs of the exact integers."""
    a, b = (1e200, 1e-200, 0, 0), (1e-200, 1e200, 0, 0)
    # A.A = B.B = 2, A.B = 1e400 + 1e-400: d = log(2 sinh d) = log(A.B)
    want = math.log(a[0]) + math.log(b[1])
    assert math.isclose(hyperbolic_distance(f4.form, a, b), want,
                        rel_tol=1e-15)


def test_hyperbolic_distance_needs_a_lorentzian_plane():
    """On a definite form two vectors can pass the cone tests and still
    have (A.B)^2 < (A.A)(B.B): a `DomainError`, not a square-root error."""
    form = IntersectionForm(((1, 0), (0, 1)))
    with pytest.raises(DomainError, match="not Lorentzian"):
        hyperbolic_distance(form, (1, 0), (1, 1))


def test_ball_distance_rejects_points_off_the_open_ball(f4):
    ball = BallModel(f4.form, f4.ample)
    center = ball.ball_point(f4.ample)
    assert ball_distance(center, center) == 0.0
    with pytest.raises(InputError, match="dimension"):
        ball_distance((0.1, 0.2), (0.1,))
    for bad in (math.nan, math.inf):
        with pytest.raises(InputError, match="finite"):
            ball_distance((0.1, bad), (0.0, 0.0))
        with pytest.raises(InputError, match="finite"):
            ball.ball_point((2, 1, bad, 0))
    # E is null: its ball point lies on the sphere, at infinite distance
    on_sphere = ball.ball_point(f4.classE)
    assert sum(t * t for t in on_sphere) == 1.0
    for p, q in (((2, 0), (0, 0)), ((0, 0), (1.0, 0.0)),
                 (on_sphere, center)):
        with pytest.raises(DomainError, match="strictly inside"):
            ball_distance(p, q)


def test_null_classes_land_on_the_sphere():
    """x.x is exact, so a null class has x.x = 0 and its ball point is
    wvec / w0: on the unit sphere to rounding."""
    for seed in range(6):
        for dim in range(3, 9):
            frame = random_valid_frame(seed, dim)
            ball = BallModel(frame.form, frame.ample)
            rng = random.Random(seed)
            for _ in range(10):
                p = ball.ball_point(random_boundary_class(frame, rng))
                assert abs(sum(t * t for t in p) - 1.0) <= 1e-15


@pytest.mark.parametrize("s", [1.0, 1e-3, 1e-5, 1e-8, 2.0 ** -450])
def test_small_spacelike_vectors_are_outside_the_cone(f4, s):
    """x.x = -0.6 s^2 < 0 at every scale s: the cone check's slack is
    relative to the point, so a small spacelike vector is no ball point."""
    ball = BallModel(f4.form, f4.ample)
    with pytest.raises(DomainError, match="closed light cone"):
        ball.ball_point(tuple(t * s for t in (2.0, 0.1, 0.5, 0.0)))


def test_null_lifts_project_back_to_the_ball():
    """A float null lift rounds off the cone by a few ulps either way; the
    slack in `ball_point` keeps it from being a `DomainError`."""
    rng = random.Random(11)
    for dim in range(3, 9):
        frame = random_valid_frame(dim, dim)
        ball = BallModel(frame.form, frame.ample)
        for _ in range(200):
            u = [rng.gauss(0.0, 1.0) for _ in range(dim - 1)]
            norm = math.sqrt(sum(t * t for t in u))
            ball.ball_point(ball.null_lift([t / norm for t in u]))


def test_ball_round_trip(f4):
    ball = BallModel(f4.form, f4.ample)
    rng = random.Random(6)
    x = _random_interior(f4, rng)
    w = ball.signature_coords(x)
    back = ball.from_signature_coords(w)
    assert max(abs(a - b) for a, b in zip(back, x)) < 1e-12


def test_null_lift_is_null(f4):
    ball = BallModel(f4.form, f4.ample)
    u = [0.6, 0.0, 0.8]
    lifted = ball.null_lift(u)
    assert abs(inner_f(f4.form, lifted, lifted)) < 1e-9


def _ball(f):
    return BallModel(f.form, f.ample)


# entries that `linalg.to_double` rejects, each in place of one coordinate:
# the first four are not `linalg.to_real`s, and 10**400 is past a double,
# which the scale-invariant maps take exactly
NOT_REAL = {"bool": True, "decimal": Decimal(2), "str": "a", "nan": math.nan,
            "huge": 10 ** 400}
# name: (call on a point (t, 0, 0, 0), the NOT_REAL entries t it takes).
# Where a string or a NaN was an `InputError` before `to_real` too, only
# the bool and the Decimal are new here.
REAL_ENTRY_POINTS = {
    "distance": (lambda f, p: hyperbolic_distance(f.form, p, f.ample),
                 ("bool", "decimal")),
    "uhs": (to_upper_half_space, ("bool", "decimal")),
    "ball-point": (lambda f, p: _ball(f).ball_point(p), ("bool", "decimal")),
    "signature": (lambda f, p: _ball(f).signature_coords(p),
                  ("bool", "decimal")),
    "from-signature": (lambda f, p: _ball(f).from_signature_coords(p),
                       NOT_REAL),
    "null-lift": (lambda f, p: _ball(f).null_lift(p[:3]), NOT_REAL),
    "from-cusp": (lambda f, p: f.from_cusp(p), NOT_REAL),
    "uhs-point-x": (lambda f, p: UpperHalfSpacePoint(p[:2], 1.0),
                    ("bool", "decimal")),
    "uhs-point-z": (lambda f, p: UpperHalfSpacePoint((0.0, 0.0), p[0]),
                    ("bool", "decimal")),
    "ball-distance": (lambda f, p: ball_distance(p[:2], (0.0, 0.0)),
                      ("bool", "decimal", "huge")),
}
NOT_REAL_CALLS = {
    f"{name}-{bad}": lambda f, call=call, t=NOT_REAL[bad]: call(f, (t, 0, 0, 0))
    for name, (call, bads) in REAL_ENTRY_POINTS.items() for bad in bads}


@pytest.mark.parametrize("call", [
    lambda f: hyperbolic_distance(f.form, 5, f.ample),
    lambda f: hyperbolic_distance(f.form, None, f.ample),
    lambda f: to_upper_half_space(f, 5),
    lambda f: BallModel(f.form, f.ample).ball_point(5),
    lambda f: BallModel(f.form, f.ample).signature_coords(None),
    lambda f: ball_distance(5, (0, 0, 0)),
    lambda f: ball_distance("ab", (0, 0)),
    lambda f: UpperHalfSpacePoint(5, 1.0),
    lambda f: UpperHalfSpacePoint(("a",), 1.0),
    lambda f: _ball(f).null_lift(5),
    *NOT_REAL_CALLS.values(),
    *(lambda f, s=s: RenderOptions(scale=s)
      for s in (-1.0, 0.0, math.nan, True, 10**400)),
    lambda f: UpperHalfSpacePoint((10**400, 0), 1.0),
    lambda f: UpperHalfSpacePoint((0, Fraction(-10**400, 3)), 1.0),
    lambda f: UpperHalfSpacePoint((0, 0), 10**400),
    lambda f: UpperHalfSpacePoint((0, 0), Fraction(1, 10**400)),
    lambda f: inner_f(f.form, f.ample[:3], f.ample),
    lambda f: cusp_inner((1.0, 2.0, 0.0), (1.0, 2.0)),
], ids=["distance-int", "distance-None", "uhs-int", "ball-point-int",
        "signature-None", "ball-distance-int", "ball-distance-str",
        "uhs-point-int", "uhs-point-str", "null-lift-int", *NOT_REAL_CALLS,
        "scale-negative", "scale-zero", "scale-nan", "scale-bool",
        "scale-huge", "uhs-point-x-huge", "uhs-point-x-huge-fraction",
        "uhs-point-z-huge", "uhs-point-z-tiny", "inner-short",
        "cusp-inner-short"])
def test_float_entry_points_reject_non_sequences(f4, call):
    """A non-sequence or a non-number is an `InputError`, not a bare
    `TypeError`, and so is every real-valued entry that `linalg.to_real`
    rejects (a `bool`, a `Decimal`, a string, a NaN), and a render scale
    that is not positive.  So are a render scale or a UHS coordinate past
    a double's range, and a UHS height that is 0 as a double, which the
    distances and maps would meet as a bare `OverflowError` or
    `ZeroDivisionError`, and a vector of another length than the form's or
    than the other cusp vector."""
    with pytest.raises(InputError):
        call(f4)


def test_ball_model_rejects_wrong_length(f4):
    ball = BallModel(f4.form, f4.ample)
    with pytest.raises(InputError):
        ball.signature_coords((2, 1, 0, 0, 99))
    with pytest.raises(InputError):
        ball.signature_coords((2, 1, 0))
    with pytest.raises(InputError):
        ball.from_signature_coords([1.0, 0.0])
    with pytest.raises(InputError):
        ball.null_lift([0.6, 0.8, 0.0, 5.0])


def test_boundary_chart_isometry(f4):
    chart = BoundaryChart(f4)
    rng = random.Random(8)
    for _ in range(20):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for _ in range(chart.dim)]
        u = zero_vector(4)
        for c, b in zip(coeffs, chart.basis):
            u = linalg.vec_add(u, linalg.vec_scale(c, b))
        e = chart.euclid(u)
        assert abs(sum(x * x for x in e)
                   + inner_f(f4.form, u, u)) < 1e-9
        back = chart.lattice(e)
        assert max(abs(float(a) - b) for a, b in zip(u, back)) < 1e-9


def test_chart_inverse_built_once(monkeypatch):
    """The chart is built from an exact diagonalization: neither building
    it nor using it inverts or multiplies a `Fraction` matrix."""
    frame = random_valid_frame(3, 6)
    calls = []
    for name in ("inverse", "mat_mul"):
        fn = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *m, fn=fn: calls.append(m)
                            or fn(*m))
    chart = BoundaryChart(frame)
    coeffs = (Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(5, 7))
    u = zero_vector(frame.form.dim)
    for c, b in zip(coeffs, chart.basis):
        u = linalg.vec_add(u, linalg.vec_scale(c, b))
    assert chart.euclid(u) == chart.euclid(linalg.vec_add(u, frame.classE))
    for v in frame.translations:
        chart.lattice(chart.euclid(v))
    assert calls == []


@given(st.integers(0, 10 ** 6), st.integers(3, 8), st.booleans(),
       st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_chart_coefficients_solve_the_gram_system(seed, dim, scrambled,
                                                  vec_seed):
    """euclid reads u's perp, and its lattice vector solves the chart's
    Gram system -b.x = -b.u for every basis vector b, to rounding."""
    frame = random_valid_frame(seed, dim, scrambled)
    chart = frame.chart
    rng = random.Random(vec_seed)
    u = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 12))
              for _ in range(dim))
    y = chart.euclid(u)
    assert y == chart.euclid(frame.decompose(u).perp)
    x = chart.lattice(y)
    for b in chart.basis:
        want = float(-frame.form.inner(b, u))
        scale = math.sqrt(-float(frame.form.norm2(b))) * math.hypot(*y)
        assert abs(-inner_f(frame.form, b, x) - want) <= 1e-12 * scale


def _exact_ldl(frame):
    """(L, D) of an exact LDL^T of the chart Gram G = -B J B^T (B the
    basis rows, J the lattice Gram), L unit lower triangular."""
    basis, inner = frame.boundary_basis, frame.form.inner
    g = [[-inner(bi, bj) for bj in basis] for bi in basis]
    r = len(g)
    low = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
    d = []
    for j in range(r):
        d.append(g[j][j] - sum(low[j][k] ** 2 * d[k] for k in range(j)))
        for i in range(j + 1, r):
            low[i][j] = (g[i][j] - sum(low[i][k] * low[j][k] * d[k]
                                       for k in range(j))) / d[j]
    return low, d


def _dec(q):
    return Decimal(q.numerator) / Decimal(q.denominator)


def test_chart_is_accurate_to_a_60_digit_reference():
    """On scrambled frames of dims 5 and 8, `euclid` and `lattice` are
    within 1e-15 (of the largest entry) of Cholesky's map D^(1/2) L^T c
    and its inverse taken to 60 digits, c the exact solution of
    G c = -B J u."""
    for seed in range(6):
        for dim in (5, 8):
            frame = random_valid_frame(seed, dim)
            basis, inner = frame.boundary_basis, frame.form.inner
            low, d = _exact_ldl(frame)
            r = len(d)
            rng = random.Random(seed)
            for _ in range(10):
                u = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 12))
                          for _ in range(dim))
                c = solve([[-inner(bi, bj) for bj in basis] for bi in basis],
                          [-inner(b, u) for b in basis])
                y = frame.chart.euclid(u)
                x = frame.chart.lattice(y)
                with localcontext() as ctx:
                    ctx.prec = 60
                    want = [_dec(dk).sqrt() * _dec(sum(
                        low[i][k] * c[i] for i in range(k, r)))
                        for k, dk in enumerate(d)]
                    # back-substitute L^T c' = D^(-1/2) y for y's lattice vector
                    z = [Decimal(t) / _dec(dk).sqrt() for t, dk in zip(y, d)]
                    back = [Decimal(0)] * r
                    for i in reversed(range(r)):
                        back[i] = z[i] - sum(_dec(low[j][i]) * back[j]
                                             for j in range(i + 1, r))
                    lat = [sum(back[i] * _dec(basis[i][j]) for i in range(r))
                           for j in range(dim)]
                    for got, ref in ((y, want), (x, lat)):
                        scale = max(map(abs, ref))
                        err = max(abs(Decimal(a) - b) for a, b in zip(got, ref))
                        assert err <= Decimal("1e-15") * scale


# -- distances of close and far pairs ----------------------------------------

def _exact_quad(form, u, v):
    return sum(Fraction(ui) * g * Fraction(vj)
               for ui, row in zip(u, form.gram) for g, vj in zip(row, v))


def _distance_from_cosh_excess(excess):
    """d from the exact value of cosh(d) - 1, via 2 asinh(sqrt(excess / 2))."""
    return 2.0 * math.asinh(math.sqrt(float(excess) / 2.0))


def _exact_hyperbolic_distance(form, x, y):
    """Distance of float points x, y, from exact products and 60 digits."""
    aa, bb, ab = (_exact_quad(form, x, x), _exact_quad(form, y, y),
                  _exact_quad(form, x, y))
    with localcontext() as ctx:
        ctx.prec = 60
        dec = [Decimal(q.numerator) / Decimal(q.denominator)
               for q in (aa, bb, ab)]
        root = (dec[0] * dec[1]).sqrt()
        excess = (dec[2] - root) / root
    return _distance_from_cosh_excess(excess)


def _unit_tangent(form, x, rng):
    """Random t with x.t = 0 and t.t = -1, for x on the unit hyperboloid."""
    r = [rng.uniform(-1.0, 1.0) for _ in range(form.dim)]
    rx = inner_f(form, r, x)
    t = [ri - rx * xi for ri, xi in zip(r, x)]
    s = math.sqrt(-inner_f(form, t, t))
    return [ti / s for ti in t]


frames = st.builds(random_valid_frame, st.integers(0, 10 ** 6),
                   dim=st.integers(3, 8))


@given(frames, st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_distances_accurate_for_close_points(frame, seed):
    """At distance ~1e-8 every model distance has relative error < 1e-6.

    arccosh(1 + x) returns 0 or about 2.1e-8 here.  Each reference is the
    exact distance of the float inputs the function was given.
    """
    rng = random.Random(seed)
    x = _random_interior(frame, rng)
    y = [xi + 1e-8 * ti
         for xi, ti in zip(x, _unit_tangent(frame.form, x, rng))]
    exact = _exact_hyperbolic_distance(frame.form, x, y)
    assert abs(hyperbolic_distance(frame.form, x, y) - exact) < 1e-6 * exact

    p1 = to_upper_half_space(frame, x)
    step = [1e-8 * rng.uniform(-1.0, 1.0) for _ in range(frame.chart.dim)]
    p2 = UpperHalfSpacePoint(tuple(a + b for a, b in zip(p1.x, step)),
                             p1.z * (1.0 + 1e-8 * rng.uniform(-1.0, 1.0)))
    dx = [Fraction(a) - Fraction(b) for a, b in zip(p1.x, p2.x)]
    z1, z2 = Fraction(p1.z), Fraction(p2.z)
    exact = _distance_from_cosh_excess(
        (sum(t * t for t in dx) + (z1 - z2) ** 2) / (2 * z1 * z2))
    assert abs(uhs_distance(frame, p1, p2) - exact) < 1e-6 * exact

    b1 = BallModel(frame.form, frame.ample).ball_point(x)
    b2 = tuple(a + 1e-8 * rng.uniform(-1.0, 1.0) for a in b1)
    e1, e2 = [Fraction(a) for a in b1], [Fraction(a) for a in b2]
    exact = _distance_from_cosh_excess(
        2 * sum((a - b) ** 2 for a, b in zip(e1, e2))
        / ((1 - sum(a * a for a in e1)) * (1 - sum(b * b for b in e2))))
    assert abs(ball_distance(b1, b2) - exact) < 1e-6 * exact


@lru_cache(maxsize=None)
def _ill_conditioned_pairs():
    """(frame, x, y, 60-digit distance) over scrambled dim 7-8 frames, at
    distance >= 0.5."""
    out = []
    for seed in range(12):
        frame = random_valid_frame(seed, dim=7 + seed % 2)
        rng = random.Random(seed)
        for _ in range(60):
            x, y = _random_interior(frame, rng), _random_interior(frame, rng)
            exact = _exact_hyperbolic_distance(frame.form, x, y)
            if exact >= 0.5:
                out.append((frame, x, y, exact))
    return tuple(out)


def test_uhs_distance_of_far_points_is_accurate():
    """On ill-conditioned frames the UHS distance of far-apart points is
    within 1e-13 relative of the 60-digit distance of the same float
    inputs.  Each input enters `cusp` exactly and is rounded once, and the
    map normalizes it by its exact U.U, so the inputs need not lie on the
    hyperboloid (they do only to rounding, up to 2.2e-10 here).  The
    measured worst is 4.2e-15."""
    pairs = _ill_conditioned_pairs()
    assert len(pairs) > 400
    for frame, x, y, exact in pairs:
        d = uhs_distance(frame, to_upper_half_space(frame, x),
                         to_upper_half_space(frame, y))
        assert abs(d - exact) < 1e-13 * exact


def test_uhs_distance_stays_within_a_double(f4):
    """Points 1e300 apart at height 1, and two points 1 apart at height
    1e-200, are 2 asinh(1e300 / 2) and 2 asinh(1e200 / 2) apart, which is
    2 log 1e300 and 2 log 1e200 to rounding: neither chord^2 nor 4 z1 z2
    is formed, so nothing overflows or underflows to 0."""
    far = uhs_distance(f4, UpperHalfSpacePoint((1e300, 0), 1.0),
                       UpperHalfSpacePoint((0, 0), 1.0))
    assert abs(far - 2.0 * math.log(1e300)) < 1e-13 * far
    low = uhs_distance(f4, UpperHalfSpacePoint((0, 0), 1e-200),
                       UpperHalfSpacePoint((1, 0), 1e-200))
    assert abs(low - 2.0 * math.log(1e200)) < 1e-13 * low


def test_hyperbolic_distance_of_far_points_is_accurate():
    """On the same pairs the lattice-coordinate distance is within 1e-13
    relative of the 60-digit distance: sinh^2 d comes from exact integer
    products, rounded once."""
    for frame, x, y, exact in _ill_conditioned_pairs():
        d = hyperbolic_distance(frame.form, x, y)
        assert abs(d - exact) < 1e-13 * exact


def test_ball_distance_of_far_points_is_accurate():
    """On the same pairs the ball distance is within 1e-13 relative of the
    60-digit distance: each entry enters `ball_point` exactly, and x.x is
    an exact integer dot rounded once."""
    for frame, x, y, exact in _ill_conditioned_pairs():
        ball = BallModel(frame.form, frame.ample)
        d = ball_distance(ball.ball_point(x), ball.ball_point(y))
        assert abs(d - exact) < 1e-13 * exact


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hyperbolic_distance_rejects_non_finite_entries(f4, bad):
    x = [float(t) for t in f4.ample]
    y = [bad] + x[1:]
    for args in ((x, y), (y, x)):
        with pytest.raises(InputError, match="finite"):
            hyperbolic_distance(f4.form, *args)
    with pytest.raises(InputError, match="dimension"):
        hyperbolic_distance(f4.form, x, x[1:])


def test_uhs_map_is_scale_invariant(f4):
    """U and cU (c > 0) map to the same point, as for U / ||U||."""
    for u in (f4.ample, (3, 2, 1, 0), _random_interior(f4, random.Random(5))):
        p = to_upper_half_space(f4, u)
        q = to_upper_half_space(f4, [4 * Fraction(t) for t in u])
        assert q.x == p.x
        assert abs(q.z - p.z) <= 1e-15 * p.z


def _close(p, q):
    scale = max(map(abs, q))
    return all(abs(a - b) <= 1e-15 * scale for a, b in zip(p, q))


def test_scale_invariant_maps_take_any_finite_input(f4):
    """x.x of (2e154, 1e154, 0, 0) and of (3e300, 1e300, 0, 0) is past the
    double range, and that of (2e-200, 1e-200, 0, 0) below it, yet they lie
    on the rays of (2, 1, 0, 0) and (3, 1, 0, 0); power-of-two multiples of
    one point give the same doubles."""
    ball = BallModel(f4.form, f4.ample)

    def uhs(x):
        p = to_upper_half_space(f4, x)
        return (*p.x, p.z)

    for far, near in (((2e154, 1e154, 0, 0), (2, 1, 0, 0)),
                      ((3e300, 1e300, 0, 0), (3, 1, 0, 0)),
                      ((2e-200, 1e-200, 0, 0), (2, 1, 0, 0))):
        assert _close(ball.ball_point(far), ball.ball_point(near))
        assert _close(uhs(far), uhs(near))
    x = (5.0, 2.0, 0.5, 0.25)
    for k in (-1000, -600, 600, 900, 1000):
        y = tuple(t * 2.0 ** k for t in x)
        assert ball.ball_point(y) == ball.ball_point(x)
        assert uhs(y) == uhs(x)


def test_uhs_rejects_points_outside_the_light_cone(f4):
    """A null class or a spacelike one with U.E > 0 has no UHS point."""
    null = random_boundary_class(f4, random.Random(6))
    assert f4.form.norm2(null) == 0
    assert f4.form.inner(null, f4.classE) > 0
    assert f4.form.norm2(f4.classO) == -2 and f4.form.inner(
        f4.classO, f4.classE) > 0
    for u in (null, f4.classO, [float(t) for t in f4.classO]):
        with pytest.raises(DomainError, match="light cone"):
            to_upper_half_space(f4, u)


def test_from_cusp_inverts_cusp():
    """from_cusp(cusp(x)) returns x to 1e-12 of its largest entry, on the
    frames and points of the accuracy test above."""
    for frame, x, _, _ in _ill_conditioned_pairs():
        back = frame.from_cusp(frame.cusp([Fraction(t) for t in x]))
        scale = max(map(abs, x))
        assert max(abs(a - b) for a, b in zip(back, x)) < 1e-12 * scale


@given(frames, st.integers(0, 10 ** 6))
@example(random_valid_frame(19, dim=7), 2)  # an inner_f oracle lost 1.1e-9
@settings(max_examples=30, deadline=None)
def test_distances_of_far_points_match_arccosh(frame, seed):
    """Away from 0 the chord forms agree with the arccosh forms to 1e-9.
    The arccosh oracle takes exact products of the float points, so that
    it does not inherit the cancellation of float products."""
    rng = random.Random(seed)
    x, y = _random_interior(frame, rng), _random_interior(frame, rng)
    form = frame.form
    fx, fy = [Fraction(t) for t in x], [Fraction(t) for t in y]
    ab = form.inner(fx, fy)
    d = math.acosh(math.sqrt(float(ab * ab / (form.norm2(fx) * form.norm2(fy)))))
    if d < 0.1:
        return
    assert abs(hyperbolic_distance(form, x, y) - d) < 1e-9

    p1, p2 = to_upper_half_space(frame, x), to_upper_half_space(frame, y)
    chord2 = (sum((a - b) ** 2 for a, b in zip(p1.x, p2.x))
              + (p1.z - p2.z) ** 2)
    assert abs(uhs_distance(frame, p1, p2)
               - math.acosh(1.0 + chord2 / (2.0 * p1.z * p2.z))) < 1e-9

    ball = BallModel(form, frame.ample)
    b1, b2 = ball.ball_point(x), ball.ball_point(y)
    d2 = sum((a - b) ** 2 for a, b in zip(b1, b2))
    n1, n2 = sum(a * a for a in b1), sum(b * b for b in b2)
    assert abs(ball_distance(b1, b2)
               - math.acosh(1.0 + 2.0 * d2 / ((1.0 - n1) * (1.0 - n2)))) < 1e-9
