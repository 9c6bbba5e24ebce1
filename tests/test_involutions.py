import pytest

from conftest import identity, random_valid_frame
from k3cone import f4_frame, linalg
from k3cone.errors import FrameError
from k3cone.frame import FibrationFrame
from k3cone.lattice import IntersectionForm
from k3cone.involutions import (sigma0_pullback, sigma_i_pullback,
                                tau_pushforward)
from k3cone.translations import translation


def _eigenspace_ranks(form, m):
    n = form.dim
    ident = identity(n)
    minus = linalg.matrix([[m[i][j] - ident[i][j] for j in range(n)]
                           for i in range(n)])
    plus = linalg.matrix([[m[i][j] + ident[i][j] for j in range(n)]
                          for i in range(n)])
    # dim(+1 eigenspace) = n - rank(M - I), dim(-1) = n - rank(M + I)
    return n - linalg.rank(minus), n - linalg.rank(plus)


def test_sigma0_f4():
    frame = f4_frame()
    s0 = sigma0_pullback(frame)
    assert s0(frame.classE) == frame.classE
    assert s0(frame.classO) == frame.classO
    assert s0((0, 0, 1, 0)) == (0, 0, -1, 0)
    assert s0.preserves_form()
    assert linalg.mat_mul(s0.matrix, s0.matrix) == identity(4)


def test_sigma_i_fixes_its_span():
    frame = f4_frame()
    for d in frame.sections:
        si = sigma_i_pullback(frame, d)
        fixed = linalg.vec_add(frame.classO, d)
        assert si(fixed) == fixed
        assert si(frame.classE) == frame.classE
        assert si.preserves_form()


def test_sigma_i_rejects_non_section():
    frame = f4_frame()
    with pytest.raises(FrameError):
        sigma_i_pullback(frame, frame.classE)


@pytest.mark.parametrize("seed", range(4))
def test_sigma_i_rejects_corrupted_section(seed):
    """tau_pushforward trusts the frame's checked sections; an outside
    caller's section is still checked: D.D = -2 and D.E = 1."""
    frame = random_valid_frame(seed, dim=4 + seed)
    d = frame.sections[0]
    for bad in (linalg.vec_add(d, frame.classE),  # D.D = 0
                linalg.vec_scale(2, d),  # D.E = 2
                linalg.vec_add(d, frame.translations[0])):
        with pytest.raises(FrameError, match="not a section class"):
            sigma_i_pullback(frame, bad)


def test_tau_makes_no_exact_product(monkeypatch):
    """tau_pushforward builds sigma_i from the checked section without
    re-checking D.D and D.E: no `IntersectionForm.inner` call."""
    frame = random_valid_frame(2, dim=6)
    frame.sections, frame.sigma0
    calls = []
    inner = IntersectionForm.inner

    def counting(form, u, v):
        calls.append((u, v))
        return inner(form, u, v)

    monkeypatch.setattr(IntersectionForm, "inner", counting)
    for i in range(frame.rank):
        assert tau_pushforward(frame, i) == translation(
            frame, frame.translations[i])
    assert calls == []


def test_eigenspace_ranks():
    frame = f4_frame()
    refls = [sigma0_pullback(frame)]
    refls += [sigma_i_pullback(frame, d) for d in frame.sections]
    for refl in refls:
        plus, minus = _eigenspace_ranks(frame.form, refl.matrix)
        assert (plus, minus) == (2, frame.form.dim - 2)


def test_tau_equals_translation_f4():
    frame = f4_frame()
    for i in range(frame.rank):
        tau = tau_pushforward(frame, i)
        assert tau.matrix == translation(frame, frame.translations[i]).matrix


def test_tau_on_constructor_frame():
    """A frame built by the constructor derives its sections like one built
    by `create`, so tau_pushforward needs no stored sections."""
    f4 = f4_frame()
    raw = FibrationFrame(f4.form, f4.classE, f4.classO, f4.ample,
                         f4.translations)
    for i, v in enumerate(f4.translations):
        assert tau_pushforward(raw, i) == translation(f4, v)


def test_tau_equals_translation_random_frames():
    for seed in range(6):
        frame = random_valid_frame(seed, dim=4 + seed % 3)
        for i in range(frame.rank):
            tau = tau_pushforward(frame, i)
            expected = translation(frame, frame.translations[i])
            assert tau.matrix == expected.matrix
            assert tau.preserves_form()
