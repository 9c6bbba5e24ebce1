import math
import random
from fractions import Fraction

import pytest

from k3cone import curves
from k3cone.curves import (CurveQ, Pencil, canonical_height, default_pencil,
                           naive_height, naive_limit_height, nt_pairing,
                           parameter_height, specialization_scan)
from k3cone.errors import (InputError, ResourceError, SingularFiberError)


CURVE = CurveQ(Fraction(0), Fraction(-2))  # y^2 = x^3 - 2
P = (Fraction(3), Fraction(5))


def test_singular_curve_rejected():
    with pytest.raises(InputError):
        CurveQ(Fraction(-3), Fraction(2))  # 4a^3 + 27b^2 = 0


def test_point_membership():
    assert CURVE.contains(P)
    assert CURVE.contains(None)
    with pytest.raises(InputError):
        CURVE.add(P, (Fraction(1), Fraction(1)))


@pytest.mark.parametrize("make", [
    lambda: Pencil(a=5, b=(0,), sections=()),
    lambda: Pencil(a=(0,), b=(1,), sections=(((0,), 5),)),
    lambda: Pencil(a=(0,), b=(1,), sections=(((1,),),)),
    lambda: CurveQ(0, 1).add((1,), None),
    lambda: naive_height(5),
    lambda: specialization_scan(default_pencil(), 5),
    lambda: specialization_scan(Pencil(a=(0,), b=(1,), sections=()), [2, 4]),
    lambda: CURVE.contains((3.0, 5.0)),
    lambda: CURVE.contains((True, 1)),
    lambda: CURVE.contains((1,)),
    lambda: CURVE.contains("ab"),
], ids=["pencil-a", "section-y", "section-not-a-pair", "short-point",
        "point-not-a-pair", "scan-t-values", "scan-no-sections",
        "contains-float", "contains-bool", "contains-short",
        "contains-string"])
def test_malformed_points_and_pencils_are_input_errors(make):
    """The constructors and the point check are the boundary for curve
    input: a malformed shape is an `InputError`, not a bare `TypeError`,
    `ValueError` or `IndexError`, and `contains` takes no float or
    `bool` entry."""
    with pytest.raises(InputError):
        make()


def test_group_law_basics():
    assert CURVE.add(P, None) == P
    assert CURVE.add(None, P) == P
    assert CURVE.add(P, CURVE.negate(P)) is None
    assert CURVE.multiply(0, P) is None
    assert CURVE.multiply(-1, P) == CURVE.negate(P)


def test_group_law_checks_a_point_once(monkeypatch):
    """multiply and naive_limit_height check P on entry, then run the
    group law unchecked: one `contains` call each."""
    want, acc = [], None
    for _ in range(13):
        acc = CURVE.add(acc, P)
        want.append(acc)
    calls = []
    contains = CurveQ.contains

    def counting(self, p):
        calls.append(p)
        return contains(self, p)

    monkeypatch.setattr(CurveQ, "contains", counting)
    assert CURVE.multiply(13, P) == want[-1]
    assert calls == [P]
    assert CURVE.multiply(-13, P) == (want[-1][0], -want[-1][1])
    assert CURVE.multiply(-3, None) is None
    _, values = naive_limit_height(CURVE, P, 13)
    assert values == [naive_height(q) / (n * n)
                      for n, q in enumerate(want, start=1)]
    assert calls == [P, P, P]


def test_doubling_example():
    two_p = CURVE.multiply(2, P)
    assert two_p == (Fraction(129, 100), Fraction(-383, 1000))
    assert CURVE.multiply(3, P) == CURVE.add(two_p, P)


def test_naive_height():
    assert naive_height(None) == 0.0
    assert naive_height(P) == math.log(3)
    assert naive_height((Fraction(129, 100), Fraction(-383, 1000))) == \
        math.log(129)


def test_canonical_height_converges():
    h1 = canonical_height(CURVE, P, 1e-4)
    h2 = canonical_height(CURVE, P, 1e-6)
    assert abs(h1 - h2) < 5e-3
    assert h2 > 0


def test_canonical_height_quadraticity():
    tol = 1e-6
    h1 = canonical_height(CURVE, P, tol)
    h2 = canonical_height(CURVE, CURVE.multiply(2, P), tol)
    assert abs(h2 - 4.0 * h1) < 4e-3


def test_torsion_height_is_zero():
    curve = CurveQ(Fraction(0), Fraction(1))  # (2, 3) has order 6
    pt = (Fraction(2), Fraction(3))
    assert curve.multiply(6, pt) is None
    assert canonical_height(curve, pt, 1e-6) == 0.0
    assert canonical_height(curve, None, 1e-6) == 0.0


def test_two_torsion_height_is_zero():
    curve = CurveQ(Fraction(-1), Fraction(0))  # (1, 0) is 2-torsion
    assert canonical_height(curve, (Fraction(1), Fraction(0)), 1e-6) == 0.0


def test_oracle_agreement():
    tol = 1e-6
    h = canonical_height(CURVE, P, tol)
    limit, values = naive_limit_height(CURVE, P, n_max=12)
    assert abs(h - limit) < 2e-2
    assert len(values) == 12


def test_resource_error_carries_partial(monkeypatch):
    monkeypatch.setattr(curves, "DIGIT_BUDGET", 100)
    with pytest.raises(ResourceError) as exc:
        canonical_height(CURVE, P, 1e-12)
    assert exc.value.partial > 0


@pytest.mark.parametrize("tol", [0.0, -1e-4, math.nan, math.inf, "1e-3", True,
                                 pytest.param(10**400, id="10**400")])
def test_tolerance_must_be_positive_and_finite(tol):
    """A NaN tolerance never stops the loop and an infinite one stops it
    after one doubling; both, like tol <= 0, are an `InputError`, and so
    is a tolerance that is not a number ("1e-3", or a `bool`) or is past
    the largest double (10**400, which tol / 2.0 cannot convert)."""
    with pytest.raises(InputError, match="tolerance"):
        canonical_height(CURVE, P, tol)
    with pytest.raises(InputError, match="tolerance"):
        nt_pairing(CURVE, P, P, tol)
    with pytest.raises(InputError, match="tolerance"):
        specialization_scan(default_pencil(), [8], tolerance=tol)


def test_nt_pairing_symmetric_bilinear():
    tol = 1e-6
    q = CURVE.multiply(2, P)
    assert abs(nt_pairing(CURVE, P, q, tol)
               - nt_pairing(CURVE, q, P, tol)) < 1e-9
    # <P, P> = hhat(2P) - 2 hhat(P); it matches 2 hhat(P) only up to the
    # quadraticity defect of the estimator
    assert abs(nt_pairing(CURVE, P, P, tol)
               - 2.0 * canonical_height(CURVE, P, tol)) < 4e-3


# -- pencils -----------------------------------------------------------------

def test_pencil_section_identity_checked():
    with pytest.raises(InputError):
        Pencil(a=(0, 0, -1), b=(0, 0, 1), sections=(((1,), (0, 1)),))


def test_default_pencil_specializes():
    pencil = default_pencil()
    curve, pts = pencil.specialize(8)
    assert pts == [(Fraction(0), Fraction(8)), (Fraction(8), Fraction(8))]
    assert curve.a == -64 and curve.b == 64


def test_singular_fiber_detected():
    with pytest.raises(SingularFiberError):
        default_pencil().specialize(0)


def test_parameter_height():
    assert parameter_height(8) == math.log(8)
    assert parameter_height(Fraction(1, 3)) == math.log(3)


def test_specialization_scan_shape():
    pencil = default_pencil()
    result = specialization_scan(pencil, [8, 16], tolerance=1e-3)
    assert len(result.rows) == 2
    row = result.rows[0]
    assert len(row.pairings) == 2
    assert row.pairings[0][1] == row.pairings[1][0]
    assert len(result.max_entry_diffs) == 1


def test_specialization_scan_skips_zero_parameter_height():
    """t = 1 is a smooth fiber of parameter height log 1 = 0: it is skipped
    with a reason, not divided by; so are t = -1 and t = 0 where smooth."""
    result = specialization_scan(default_pencil(), [1, 2, 4])
    assert result.skipped == ((1, "parameter height 0 at t = 1"),)
    assert [row.t for row in result.rows] == [2, 4]
    with pytest.raises(InputError, match="no fiber could be scanned"):
        specialization_scan(default_pencil(), [-1], tolerance=1e-2)
    smooth = Pencil(a=(-1,), b=(1,), sections=(((1,), (1,)),))
    result = specialization_scan(smooth, [0, 2], tolerance=1e-2)
    assert result.skipped == ((0, "parameter height 0 at t = 0"),)
    assert [row.t for row in result.rows] == [2]


def test_specialization_scan_skips_singular():
    result = specialization_scan(default_pencil(), [0, 8], tolerance=1e-3)
    assert len(result.skipped) == 1
    assert len(result.rows) == 1
    with pytest.raises(InputError):
        specialization_scan(default_pencil(), [0], tolerance=1e-3)


# -- the cached integers against the forms they replace ----------------------

DENOMINATORS = (1, 2, 3, 4, 6, 9, 16, 27)


def _ref_x_double(num, den, a, b):
    """The duplication step with the coefficient integers rebuilt from a
    and b at every call, as it was written before `CurveQ._doubling`."""
    an, ad = a.numerator, a.denominator
    bn, bd = b.numerator, b.denominator
    p, q = num, den
    p2 = p * p
    q2 = q * q
    num4 = (p2 * p2 * ad * ad * bd - 2 * an * ad * bd * p2 * q2
            - 8 * bn * ad * ad * p * q * q2 + an * an * bd * q2 * q2)
    den4 = 4 * q * (p * p2 * ad * ad * bd + an * ad * bd * p * q2
                    + bn * ad * ad * q * q2)
    if den4 == 0:
        return None
    g = math.gcd(num4, den4)
    num4 //= g
    den4 //= g
    if den4 < 0:
        num4, den4 = -num4, -den4
    return num4, den4


def _random_rational(rng, size, dens=DENOMINATORS):
    return Fraction(rng.randint(-size, size), rng.choice(dens))


def test_x_double_matches_the_reference():
    """Reduced x and the 2-torsion None agree with the reference on random
    a, b with denominators, x of every size, and 2-torsion x = r, a root
    of x^3 + a x + b (b := -r^3 - a r)."""
    rng = random.Random(22)
    torsion = 0
    for k in range(2400):
        a = _random_rational(rng, 40)
        if k % 4 == 0:
            r = _random_rational(rng, 12)
            b = -r ** 3 - a * r
        else:
            b = _random_rational(rng, 40)
        if 4 * a ** 3 + 27 * b ** 2 == 0:
            continue
        curve = CurveQ(a, b)
        size, den = 10 ** rng.randint(1, 30), 10 ** rng.randint(0, 30)
        x = r if k % 4 == 0 else Fraction(rng.randint(-size, size),
                                          rng.randint(1, den))
        want = _ref_x_double(x.numerator, x.denominator, a, b)
        torsion += want is None
        assert curves._x_double(x.numerator, x.denominator,
                                curve._doubling) == want
    assert torsion >= 500


def _ref_contains(curve, p):
    """y^2 == x^3 + a x + b in `Fraction` arithmetic, as `contains` was
    written before it ran on integers."""
    if p is None:
        return True
    x, y = p
    return y * y == x ** 3 + curve.a * x + curve.b


def _ref_add(curve, p, q):
    """The chord-and-tangent sum in `Fraction` arithmetic, as `_add` was
    written before it ran on integers."""
    if p is None:
        return q
    if q is None:
        return p
    x1, y1 = p
    x2, y2 = q
    if x1 == x2:
        if y1 == -y2:
            return None
        lam = (3 * x1 * x1 + curve.a) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    y3 = lam * (x1 - x3) - y1
    return (x3, y3)


def test_group_law_matches_the_reference():
    """Sums and on-curve verdicts agree with the `Fraction` reference on
    random a with denominators and b := y0^2 - x0^3 - a x0, which puts
    P = (x0, y0) on the curve.  The sums of None, P, -P, 2P and 3P cover
    chords, tangents, P + (-P), the tangent at a point with y = 0
    (2-torsion) and None operands; `contains` also sees each point with y
    bumped off the curve."""
    rng = random.Random(30)
    kinds = {"none": 0, "chord": 0, "tangent": 0, "inverse": 0, "torsion": 0}
    verdicts = []
    for k in range(2000):
        a = _random_rational(rng, 40)
        x0 = _random_rational(rng, 12)
        y0 = Fraction(0) if k % 5 == 0 else _random_rational(rng, 12)
        b = y0 * y0 - x0 ** 3 - a * x0
        if 4 * a ** 3 + 27 * b ** 2 == 0:
            continue
        curve = CurveQ(a, b)
        p = (x0, y0)
        p2 = _ref_add(curve, p, p)
        points = [None, p, (x0, -y0), p2, _ref_add(curve, p, p2)]
        for s in points:
            for t in points:
                if s is None or t is None:
                    kind = "none"
                elif s[0] != t[0]:
                    kind = "chord"
                elif s[1] != -t[1]:
                    kind = "tangent"
                else:
                    kind = "torsion" if s[1] == 0 else "inverse"
                kinds[kind] += 1
                assert curve.add(s, t) == _ref_add(curve, s, t)
        for s in points[1:]:
            if s is None:
                continue
            bump = _random_rational(rng, 3) or Fraction(1, 7)
            for cand in (s, (s[0], s[1] + bump), (s[0] + bump, s[1])):
                want = _ref_contains(curve, cand)
                assert curve.contains(cand) == want
                verdicts.append(want)
    assert min(kinds.values()) >= 1000
    assert 0 < sum(verdicts) < len(verdicts)


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_add(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
            for i in range(n)]


def _ref_section_ok(a, b, x, y):
    """y^2 - x^3 - a x - b == 0 by polynomial multiplication, as `Pencil`
    checked it before it evaluated."""
    rhs = _poly_add(_poly_add(_poly_mul(_poly_mul(x, x), x), _poly_mul(a, x)),
                    b)
    return not any(_poly_add(_poly_mul(y, y), [-c for c in rhs]))


def _accepts(a, b, x, y):
    try:
        Pencil(a=a, b=b, sections=((x, y),))
    except InputError:
        return False
    return True


def test_pencil_check_by_evaluation_matches_the_reference():
    """Planted sections (b := y^2 - x^3 - a x) are accepted, perturbed ones
    rejected, exactly as the multiplication check decides.  One perturbation
    is c t (t - 1) ... (t - D + 1), which vanishes at D of the points
    t = 0..D: a check one point short would accept it."""
    rng = random.Random(5)
    verdicts = []
    for _ in range(300):
        a = [_random_rational(rng, 6) for _ in range(rng.randint(0, 3))]
        x = [_random_rational(rng, 6) for _ in range(rng.randint(1, 3))]
        y = [_random_rational(rng, 6) for _ in range(rng.randint(1, 3))]
        b = _poly_add(_poly_mul(y, y), [-c for c in _poly_add(
            _poly_mul(_poly_mul(x, x), x), _poly_mul(a, x))])
        deg = max(2 * len(y) - 2, 3 * len(x) - 3, len(a) + len(x) - 2,
                  len(b) - 1)
        falling = [Fraction(1)]
        for root in range(deg):
            falling = _poly_mul(falling, [Fraction(-root), Fraction(1)])
        c = _random_rational(rng, 5) or Fraction(1)
        k = rng.randint(0, deg)
        bumped_y = list(y)
        bumped_y[rng.randrange(len(y))] += c
        cases = [(a, b, x, y),
                 (a, _poly_add(b, [0] * k + [c]), x, y),
                 (a, _poly_add(b, [c * f for f in falling]), x, y),
                 (a, b, x, bumped_y)]
        for case in cases:
            want = _ref_section_ok(*case)
            assert _accepts(*map(tuple, case)) == want
            verdicts.append(want)
        assert not _ref_section_ok(*cases[2])
    assert 0 < sum(verdicts) < len(verdicts)
