"""Shared fixtures and frame generators for the test suite.

Hypothesis runs under the profile named by HYPOTHESIS_PROFILE.  The "ci"
profile is derandomized and prints the reproduction blob of a failing
example, so a failure in a CI log can be replayed locally with
`@reproduce_failure`; without the variable the default profile is used.
"""

import os
import random
from fractions import Fraction

import pytest
from hypothesis import settings

from k3cone import f4_frame, linalg
from k3cone.frame import FibrationFrame
from k3cone.lattice import IntersectionForm

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def f4():
    return f4_frame()


def zero_vector(n: int):
    return tuple(Fraction(0) for _ in range(n))


def identity(n: int):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n))
                 for i in range(n))


def mat_vec(m, v):
    """m v as `Fraction`s, one row dot at a time."""
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0))
                 for row in m)


def solve(m, b):
    """Exact solution x of m x = b for an invertible m: the reference
    solver of the tests, over `linalg.inverse` and `mat_vec`."""
    return mat_vec(linalg.inverse(linalg.matrix(m)), b)


def mat_pow(m, k: int):
    """m^k as a `Fraction` matrix, through `linalg.int_mat_pow`."""
    rows, den = linalg.int_mat_pow(*linalg.matrix_numerators(m), k)
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


def parabolic_translation(inner, classE, v):
    """Reference x -> x - (x.v + (x.E)(v.v)/2) E + (x.E) v, for v.E = 0.

    Written once over any bilinear product `inner`: `IntersectionForm.inner`
    on rational vectors gives the exact map, `models.inner_f` on float
    vectors a float one, and `models.cusp_inner` on cusp coordinates, with
    E = (0, 1, 0...) and v = (0, 0, u), the Euclidean translation
    (w, v, y) -> (w, v + <y, u> + w|u|^2/2, y + w u) seen from the cusp.
    """
    half_vv = inner(v, v) / 2

    def apply(x):
        xe = inner(x, classE)
        coeff = inner(x, v) + xe * half_vv
        return tuple(xi - coeff * ei + xe * vi
                     for xi, ei, vi in zip(x, classE, v))

    return apply


def class_p(frame: FibrationFrame):
    """P = O + E, the null class that meets E once."""
    return linalg.vec_add(frame.classO, frame.classE)


def group_translation(frame: FibrationFrame, point):
    """w = sum m_i v_i over the frame's translations, for the group vector
    m of a `heights.FiberPoint`."""
    w = [Fraction(0)] * frame.form.dim
    for m, v in zip(point.group_vector, frame.translations):
        w = [a + m * b for a, b in zip(w, v)]
    return tuple(w)


def change_basis(frame: FibrationFrame, u) -> FibrationFrame:
    """Transport the frame through the basis change with matrix u.

    Columns of u are the old coordinates of the new basis vectors; the
    gram matrix becomes u^T J u and vectors pick up coordinates u^-1 x.
    """
    u = linalg.matrix(u)
    u_inv = linalg.inverse(u)
    new_form = IntersectionForm(
        linalg.mat_mul(linalg.transpose(u), linalg.mat_mul(frame.form.gram, u)))
    mv = lambda x: mat_vec(u_inv, x)
    return FibrationFrame(new_form, mv(frame.classE), mv(frame.classO),
                          mv(frame.ample),
                          tuple(mv(v) for v in frame.translations))


def reassemble(frame: FibrationFrame, d):
    """aP P + aE E + perp: the class a `Decomposition` splits."""
    return linalg.vec_add(
        linalg.vec_add(linalg.vec_scale(d.aP, class_p(frame)),
                       linalg.vec_scale(d.aE, frame.classE)),
        d.perp)


def random_unimodular(rng: random.Random, n: int):
    """Random integer matrix of determinant +-1 (elementary column ops)."""
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        op = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if op == 0:
            c = rng.choice([-2, -1, 1, 2])
            for r in range(n):
                m[r][j] += c * m[r][i]
        elif op == 1:
            for r in range(n):
                m[r][i], m[r][j] = m[r][j], m[r][i]
        else:
            for r in range(n):
                m[r][i] = -m[r][i]
    return tuple(tuple(row) for row in m)


def random_valid_frame(seed: int, dim: int = 4,
                       scrambled: bool = True) -> FibrationFrame:
    """A valid frame on a random Lorentzian lattice of the given dimension.

    Construction: hyperbolic plane (E, P) plus a random negative definite
    block -(A^T A + I), with the standard section/ample classes and a full
    set of translations; optionally transported through a random unimodular
    change of basis so that nothing is axis-aligned.
    """
    rng = random.Random(seed)
    r = dim - 2
    a = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
    neg = [[-(sum(a[k][i] * a[k][j] for k in range(r)) + (i == j))
            for j in range(r)] for i in range(r)]
    gram = [[Fraction(0)] * dim for _ in range(dim)]
    gram[0][1] = gram[1][0] = Fraction(1)
    for i in range(r):
        for j in range(r):
            gram[2 + i][2 + j] = Fraction(neg[i][j])
    form = IntersectionForm(linalg.matrix(gram))
    frame = FibrationFrame.create(
        form,
        classE=(1,) + (0,) * (dim - 1),
        classO=(-1, 1) + (0,) * r,
        ample=(2, 1) + (0,) * r,
        translations=[(0, 0) + tuple(int(k == i) for k in range(r))
                      for i in range(r)],
    )
    if scrambled:
        frame = change_basis(frame, random_unimodular(rng, dim))
    return frame


def random_orthogonal_to_fiber(frame: FibrationFrame, rng: random.Random):
    """Random rational v with v.E = 0 (boundary combination plus a*E)."""
    basis = frame.perp_basis()
    v = linalg.vec_scale(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                         frame.classE)
    for b in basis:
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        v = linalg.vec_add(v, linalg.vec_scale(c, b))
    return v


def random_boundary_class(frame: FibrationFrame, rng: random.Random):
    """Random rational null class A = P + aE*E + u on the ample side."""
    basis = frame.perp_basis()
    u = zero_vector(frame.form.dim)
    for b in basis:
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        u = linalg.vec_add(u, linalg.vec_scale(c, b))
    ae = -frame.form.norm2(u) / 2
    return linalg.vec_add(
        linalg.vec_add(class_p(frame), linalg.vec_scale(ae, frame.classE)), u)
