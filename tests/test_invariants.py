"""Internal invariants raise K3ConeError subclasses, not AssertionError.

The exact computations behind these checks cannot fail on consistent
input, so each case breaks one helper on purpose and confirms that the
check still fires.  Plain `assert` would vanish under `python -O`.
"""

import pytest

from k3cone import curves, f4_frame, frame, involutions, lattice, linalg
from k3cone.errors import DegenerateFormError, FrameError, InputError
from k3cone.translations import Isometry


def _wrong_inverse(m):
    return linalg.identity(len(m))


def _wrong_splitting(inner, classE, classP):
    return lambda x: (0, 0, x)


def _negate(self, v):
    return tuple(-x for x in v)


def _never_contains(self, p):
    return False


CASES = [
    ("dual_basis", linalg, "inverse", _wrong_inverse,
     lambda f: lattice.dual_basis(f.form), DegenerateFormError),
    ("decompose", frame, "plane_splitting", _wrong_splitting,
     lambda f: f.decompose(f.ample), FrameError),
    ("reflection_through", Isometry, "__call__", _negate,
     involutions.sigma0_pullback, FrameError),
    ("specialize", curves.CurveQ, "contains", _never_contains,
     lambda f: curves.default_pencil().specialize(2), InputError),
]


@pytest.mark.parametrize("owner, attr, broken, call, error",
                         [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_broken_invariant_raises(monkeypatch, owner, attr, broken, call,
                                 error):
    frame = f4_frame()
    monkeypatch.setattr(owner, attr, broken)
    with pytest.raises(error):
        call(frame)
