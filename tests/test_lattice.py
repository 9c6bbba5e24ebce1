import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import identity, random_valid_frame
from k3cone import f4_frame, linalg
from k3cone.errors import DegenerateFormError, InputError
from k3cone.lattice import (IntersectionForm, congruent_diagonalization,
                            dual_basis, form_from_dict, in_light_cone,
                            signature)

F4_GRAM = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -4, 0], [0, 0, 0, -4]]


def test_symmetry_enforced():
    with pytest.raises(InputError):
        IntersectionForm(linalg.matrix([[0, 1], [2, 0]]))
    with pytest.raises(InputError, match="square"):
        IntersectionForm(linalg.matrix([[0, 1, 0], [1, 0, 0]]))


def test_inner_is_exact_and_symmetric():
    form = IntersectionForm(linalg.matrix(F4_GRAM))
    u = (Fraction(1, 3), 2, 0, Fraction(-1, 2))
    v = (5, Fraction(1, 7), 1, 1)
    assert form.inner(u, v) == form.inner(v, u)
    # u.v = u0 v1 + u1 v0 - 4 u2 v2 - 4 u3 v3
    assert form.inner(u, v) == (Fraction(1, 3) * Fraction(1, 7) + 2 * 5
                                - 4 * 0 * 1 - 4 * Fraction(-1, 2) * 1)


def test_signature_f4():
    form = IntersectionForm(linalg.matrix(F4_GRAM))
    assert signature(form) == (1, 3, 0)
    assert form.require_lorentzian() is form


def test_signature_degenerate_and_euclidean():
    assert signature(IntersectionForm(identity(3))) == (3, 0, 0)
    assert signature(IntersectionForm(
        linalg.matrix([[1, 1], [1, 1]]))) == (1, 0, 1)


def test_congruent_diagonalization_identity():
    for gram in (F4_GRAM, [[0, 1], [1, 0]], [[0, 2, 1], [2, 0, 0], [1, 0, 0]]):
        form = IntersectionForm(linalg.matrix(gram))
        s, diag = congruent_diagonalization(form)
        lhs = linalg.mat_mul(linalg.transpose(s),
                             linalg.mat_mul(form.gram, s))
        assert lhs == tuple(
            tuple(diag[i] if i == j else Fraction(0)
                  for j in range(form.dim)) for i in range(form.dim))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_signature_invariant_under_congruence(seed):
    frame = random_valid_frame(seed, dim=4 + seed % 3, scrambled=True)
    assert signature(frame.form) == (1, frame.form.dim - 1, 0)


def test_dual_basis_f4_values():
    form = IntersectionForm(linalg.matrix(F4_GRAM))
    duals = dual_basis(form)
    assert duals[0] == (0, 1, 0, 0)
    assert duals[1] == (1, 0, 0, 0)
    assert duals[2] == (0, 0, Fraction(-1, 4), 0)
    for i in range(4):
        e_i = tuple(int(i == k) for k in range(4))
        for j in range(4):
            assert form.inner(e_i, duals[j]) == (1 if i == j else 0)


def test_dual_basis_singular_raises():
    with pytest.raises(DegenerateFormError):
        dual_basis(IntersectionForm(linalg.matrix([[1, 1], [1, 1]])))


def test_in_light_cone():
    frame = f4_frame()
    assert in_light_cone(frame.form, frame.ample, frame.ample)
    assert not in_light_cone(frame.form, frame.classE, frame.ample)
    neg = linalg.vec_scale(-1, frame.ample)
    assert not in_light_cone(frame.form, neg, frame.ample)
    # the reference must lie inside the cone it picks a half of
    with pytest.raises(InputError, match="positive self-product"):
        in_light_cone(frame.form, frame.ample, frame.classE)


def test_form_from_dict_rejects_non_lorentzian():
    with pytest.raises(InputError):
        form_from_dict({"gram": [[1, 0], [0, 1]]})
    with pytest.raises(InputError):
        form_from_dict({"gram": [[0, 1], [1, 0]], "labels": ["E"]})
    form = form_from_dict({"gram": [[0, 1], [1, 0]], "labels": ["E", "P"]})
    assert form.dim == 2


def test_rational_string_entries():
    form = form_from_dict({"gram": [["0", "1/1"], ["1/1", "0"]]})
    assert form.inner((1, 0), (0, 1)) == 1


def test_bilinearity_random():
    rng = random.Random(7)
    frame = random_valid_frame(3, dim=5)
    form = frame.form
    for _ in range(20):
        u = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for _ in range(5))
        v = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for _ in range(5))
        w = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for _ in range(5))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        lhs = form.inner(linalg.vec_add(u, linalg.vec_scale(c, v)), w)
        assert lhs == form.inner(u, w) + c * form.inner(v, w)
