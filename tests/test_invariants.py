"""Internal invariants raise K3ConeError subclasses, not AssertionError.

The exact computations behind these checks cannot fail on consistent
input, so each case breaks one helper on purpose and confirms that the
check still fires.  Plain `assert` would vanish under `python -O`.
"""

import pytest

from conftest import identity
from k3cone import f4_frame, involutions, lattice, linalg
from k3cone.errors import DegenerateFormError, FrameError, K3ConeError
from k3cone.translations import Isometry


def _wrong_inverse(m):
    return identity(len(m))


_int_mat_mul = linalg.int_mat_mul


def _wrong_square_product(a, b):
    # zero for N N (the involution check), right for N S (the span check)
    if len(b[0]) == len(b):
        return [[0] * len(b[0]) for _ in a]
    return _int_mat_mul(a, b)


def _wrong_thin_product(a, b):
    # right for N N, zero for N S (the fixed-span check)
    if len(b[0]) == len(b):
        return _int_mat_mul(a, b)
    return [[0] * len(b[0]) for _ in a]


def _patch(owner, attr, broken):
    return lambda monkeypatch, f: monkeypatch.setattr(owner, attr, broken)


def _wrong_det(monkeypatch, f):
    # the splitting's Cramer determinant no longer matches E.E, P.P, E.P
    c = f.fixed
    monkeypatch.setitem(f.__dict__, "fixed", c._replace(det=c.det + 1))


CASES = [
    ("dual_basis", _patch(linalg, "inverse", _wrong_inverse),
     lambda f: lattice.dual_basis(f.form), DegenerateFormError),
    ("decompose", _wrong_det, lambda f: f.decompose(f.ample), FrameError),
    ("reflection_through", _patch(linalg, "int_mat_mul", _wrong_square_product),
     involutions.sigma0_pullback, FrameError),
    ("reflection_fixed_span",
     _patch(linalg, "int_mat_mul", _wrong_thin_product),
     involutions.sigma0_pullback, FrameError),
]


@pytest.mark.parametrize("corrupt, call, error",
                         [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_broken_invariant_raises(monkeypatch, corrupt, call, error):
    frame = f4_frame()
    corrupt(monkeypatch, frame)
    with pytest.raises(error):
        call(frame)


def test_corrupt_sigma0_numerators_raise(monkeypatch):
    """tau_pushforward multiplies by the frame's cached sigma_0 numerators;
    one wrong entry there must fail the comparison with the translation."""
    frame = f4_frame()
    s0 = frame.sigma0
    rows, den = s0.numerators
    bad = [list(row) for row in rows]
    bad[0][0] += den
    corrupt = Isometry(frame.form, (bad, den))
    monkeypatch.setitem(frame.__dict__, "sigma0", corrupt)
    for i in range(frame.rank):
        with pytest.raises(K3ConeError, match="differs from translation"):
            involutions.tau_pushforward(frame, i)
