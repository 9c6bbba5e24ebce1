import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (identity, mat_vec, parabolic_translation,
                      random_orthogonal_to_fiber, random_valid_frame)
from k3cone import f4_frame, linalg
from k3cone.errors import InputError
from k3cone.models import inner_f
from k3cone.involutions import (sigma0_pullback, sigma_i_pullback,
                                tau_pushforward)
from k3cone.translations import (Isometry, compose, power, section_translate,
                                 translation)


def test_f4_translation_matrix():
    frame = f4_frame()
    t = translation(frame, frame.translations[0])
    # columns: images of E, P, f1, f2 under x -> x - (x.v + (x.E) v.v/2) E + (x.E) v
    assert t.matrix == linalg.matrix([
        [1, 2, 4, 0],
        [0, 1, 0, 0],
        [0, 1, 1, 0],
        [0, 0, 0, 1],
    ])
    assert t.preserves_form()
    assert t.numerators[1] == 1  # integral
    assert t(frame.classE) == frame.classE


def test_translation_requires_orthogonal_vector():
    frame = f4_frame()
    with pytest.raises(InputError):
        translation(frame, frame.classO)  # O.E = 1 != 0


def test_isometry_rejects_bad_numerators():
    frame = f4_frame()
    rows, den = translation(frame, frame.translations[0]).numerators
    with pytest.raises(InputError, match="dimension"):
        Isometry(frame.form, (rows[:3], den))
    with pytest.raises(InputError, match="denominator"):
        Isometry(frame.form, (rows, 0))


def test_e_shift_invariance():
    frame = f4_frame()
    v = frame.translations[0]
    shifted = linalg.vec_add(v, linalg.vec_scale(Fraction(7, 3), frame.classE))
    assert translation(frame, v).matrix == translation(frame, shifted).matrix


def test_additivity_and_commutativity():
    frame = f4_frame()
    v, w = frame.translations
    tv, tw = translation(frame, v), translation(frame, w)
    tvw = translation(frame, linalg.vec_add(v, w))
    assert compose(tv, tw).matrix == tvw.matrix
    assert compose(tw, tv).matrix == tvw.matrix


def test_power_matches_scaled_vector():
    frame = f4_frame()
    v = frame.translations[1]
    tv = translation(frame, v)
    for m in range(-3, 6):
        assert power(tv, m).matrix == translation(
            frame, linalg.vec_scale(m, v)).matrix


def test_section_translate_f4():
    frame = f4_frame()
    d1 = section_translate(frame, frame.translations[0])
    assert d1 == (1, 1, 1, 0)
    assert frame.form.norm2(d1) == -2
    assert frame.form.inner(d1, frame.classE) == 1


def test_translation_exactness_random_frames():
    for seed in range(5):
        frame = random_valid_frame(seed, dim=4 + seed % 3)
        rng = random.Random(1000 + seed)
        for _ in range(10):
            v = random_orthogonal_to_fiber(frame, rng)
            t = translation(frame, v)
            assert t.preserves_form()
            assert t(frame.classE) == frame.classE


def test_translation_image_matches_matrix():
    frame = f4_frame()
    rng = random.Random(5)
    v = random_orthogonal_to_fiber(frame, rng)
    t = translation(frame, v)
    x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7))
              for _ in range(4))
    assert t(x) == parabolic_translation(frame.form.inner, frame.classE, v)(x)


@given(st.integers(0, 10 ** 6), st.integers(3, 8))
@settings(max_examples=40, deadline=None)
def test_exact_and_float_translations_agree(seed, dim):
    """One formula serves both scalar types: with `form.inner` it is the
    exact matrix action, with `inner_f` it is that image rounded."""
    frame = random_valid_frame(seed, dim)
    rng = random.Random(seed)
    v = random_orthogonal_to_fiber(frame, rng)
    x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7))
              for _ in range(dim))
    exact = parabolic_translation(frame.form.inner, frame.classE, v)(x)
    assert all(isinstance(c, Fraction) for c in exact)
    assert exact == translation(frame, v)(x)

    def floats(u):
        return [float(c) for c in u]

    approx = parabolic_translation(partial(inner_f, frame.form),
                                   floats(frame.classE), floats(v))(floats(x))
    scale = max(abs(c) for c in floats(exact))
    assert max(abs(a - float(b)) for a, b in zip(approx, exact)) <= 1e-9 * scale


def test_boundary_action_is_euclidean_translation():
    # phi(T_v A) = phi(A) + v for boundary classes A
    from conftest import random_boundary_class
    from k3cone.models import phi
    frame = f4_frame()
    rng = random.Random(11)
    for _ in range(10):
        a = random_boundary_class(frame, rng)
        v = frame.translations[0]
        t = translation(frame, v)
        assert phi(frame, t(a)) == linalg.vec_add(phi(frame, a), v)


def test_compose_rejects_mismatched_forms():
    f1, f2 = f4_frame(), random_valid_frame(0, dim=4)
    t1 = translation(f1, f1.translations[0])
    t2 = translation(f2, f2.translations[0])
    with pytest.raises(InputError):
        compose(t1, t2)


def _ref_power(m, k):
    """m^k as k products onto the identity; k < 0 powers the inverse."""
    if k < 0:
        return _ref_power(linalg.inverse(m), -k)
    result = identity(len(m))
    for _ in range(k):
        result = linalg.mat_mul(result, m)
    return result


def _ref_preserves(form, m):
    return linalg.mat_mul(linalg.transpose(m),
                          linalg.mat_mul(form.gram, m)) == form.gram


@given(st.integers(0, 10 ** 6), st.integers(3, 8), st.integers(-4, 5))
@settings(max_examples=40, deadline=None)
def test_isometry_algebra_matches_fraction_reference(seed, dim, k):
    """The integer-numerator algebra of `Isometry` against `linalg` on the
    `Fraction` matrices, on scrambled frames."""
    frame = random_valid_frame(seed, dim)
    form = frame.form
    rng = random.Random(seed)
    tv = translation(frame, random_orthogonal_to_fiber(frame, rng))
    tw = translation(frame, random_orthogonal_to_fiber(frame, rng))
    x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7))
              for _ in range(dim))
    d = frame.sections[rng.randrange(frame.rank)]
    isometries = [tv, tw, sigma0_pullback(frame),
                  sigma_i_pullback(frame, d)]
    for s in isometries:
        assert s(x) == mat_vec(s.matrix, x)
        assert s.preserves_form() and _ref_preserves(form, s.matrix)
        assert power(s, k).matrix == _ref_power(s.matrix, k)
        for t in isometries:
            assert compose(s, t).matrix == linalg.mat_mul(s.matrix, t.matrix)
    stretched = Isometry(form, linalg.matrix_numerators(
        tuple(linalg.vec_scale(2, r) for r in tv.matrix)))
    assert not stretched.preserves_form()
    assert not _ref_preserves(form, stretched.matrix)
    for i in range(frame.rank):
        sigma_i = sigma_i_pullback(frame, frame.sections[i])
        tau = tau_pushforward(frame, i)
        assert tau.matrix == linalg.mat_mul(sigma_i.matrix,
                                            sigma0_pullback(frame).matrix)
        assert tau.matrix == translation(frame, frame.translations[i]).matrix
    for iso in isometries + [compose(tv, tw), power(tv, k)]:
        rows, den = iso.numerators
        assert den > 0 and linalg.lowest_terms(rows, den) == (rows, den)
        assert iso.matrix == tuple(tuple(Fraction(c, den) for c in row)
                                   for row in rows)
