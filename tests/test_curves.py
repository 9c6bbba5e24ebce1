import math
from fractions import Fraction

import pytest

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


def test_resource_error_carries_partial():
    with pytest.raises(ResourceError) as exc:
        canonical_height(CURVE, P, 1e-12, digit_budget=100)
    assert exc.value.partial > 0


@pytest.mark.parametrize("tol", [0.0, -1e-4, math.nan, math.inf])
def test_tolerance_must_be_positive_and_finite(tol):
    """A NaN tolerance never stops the loop and an infinite one stops it
    after one doubling; both, like tol <= 0, are an `InputError`."""
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
