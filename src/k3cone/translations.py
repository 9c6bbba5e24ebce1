"""Parabolic isometries fixing the fiber class: construction and algebra.

The core map sends x to

    x - (x.v + (x.E)(v.v)/2) E + (x.E) v

for v with v.E = 0.  It preserves the form, fixes E, and acts on the
Euclidean boundary at the cusp E as translation by (the boundary component
of) v: (w, e, y) -> (w, e + <y, u> + w|u|^2/2, y + w u) in cusp
coordinates, u the chart coordinates of v, as `heights` writes it out.

Every exact map here, and every reflection of `involutions`, is an
`Isometry` held as integer rows over one denominator; its `Fraction`
matrix is built only when read.  `translation` and `section_translate`
run on the frame's cached integer classes (`FibrationFrame.fixed`).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg
from .errors import InputError
from .lattice import IntersectionForm
from .linalg import Matrix, Vector


@dataclass(frozen=True)
class Isometry:
    """An exact matrix preserving an intersection form.

    `numerators` is the matrix as (integer rows, denominator), reduced to
    lowest terms with a positive denominator when the isometry is built, so
    equal matrices compare equal; the form check, the action on vectors,
    `compose` and `power` run on it.  `matrix` is the same matrix in
    `Fraction`s, built on first read.
    """

    form: IntersectionForm
    numerators: tuple

    def __post_init__(self):
        rows, den = self.numerators
        n = self.form.dim
        if len(rows) != n or any(len(r) != n for r in rows):
            raise InputError("matrix dimension does not match the form")
        if den == 0:
            raise InputError("isometry denominator must be nonzero")
        object.__setattr__(self, "numerators", linalg.lowest_terms(rows, den))

    @cached_property
    def matrix(self) -> Matrix:
        rows, den = self.numerators
        return tuple(tuple(Fraction(x, den) for x in row) for row in rows)

    def __call__(self, v: Vector) -> Vector:
        rows, den = self.numerators
        b, db = self.form.numerators(v)
        return tuple(Fraction(linalg.dot(row, b), den * db) for row in rows)

    def preserves_form(self) -> bool:
        """M^T G M == G, checked on integers as N^T g N == d^2 g for
        M = N / d and G = g / dg."""
        rows, den = self.numerators
        g, _ = self.form.gram_numerators
        lhs = linalg.int_mat_mul(list(zip(*rows)), linalg.int_mat_mul(g, rows))
        return lhs == [[den * den * x for x in row] for row in g]


def translation(frame, v: Vector) -> Isometry:
    """The parabolic translation attached to v (v.E = 0; T_v = T_{v+aE})
    as an exact matrix: with G the Gram matrix, column j the image of e_j,

        M = I - E (Gv)^T - (v.v/2) E (GE)^T + v (GE)^T.

    With E = e/q, GE = gE/(dg q) from `fixed` and v = b/dv, Gv = gv/(dg dv),
    every entry is an integer over D = 2 dg^2 dv^2 q^2.
    """
    c = frame.fixed
    b, dv = frame.fiber_orthogonal(v)
    gv = frame.form.images([b])[0]
    vv = linalg.dot(b, gv)  # v.v = vv / (dg dv^2)
    t = 2 * dv * c.den  # c.den = dg q
    den = t * dv * c.den
    rows = [[(den if i == j else 0) - t * (ei * gvj - bi * gej) - vv * ei * gej
             for j, (gvj, gej) in enumerate(zip(gv, c.gE))]
            for i, (ei, bi) in enumerate(zip(c.E, b))]
    return Isometry(frame.form, (rows, den))


def section_translate(frame, v: Vector) -> Vector:
    """The section translate T_v([O]); a -2 class meeting the fiber once.

    T_v([O]) = O + k v - (O.v + k v.v/2) E with k = O.E, on the integer
    numerators b / db of v (`FibrationFrame.fiber_orthogonal`: `InputError`
    unless v.E = 0) and the frame's cached `fixed` classes: one integer
    Gram image of v, and three dots.  With Gram denominator dg and class
    denominator q, every term is an integer over T = 2 dg^2 q^3 db^2.
    D is not checked again: T_v fixes E and preserves the form when
    E.E = 0 and v.E = 0, so D is a section class because O is, which
    `FibrationFrame.section_map` proves once per frame (`FrameError`).
    """
    frame.section_map  # the proof for every translate; FrameError otherwise
    c = frame.fixed
    b, db = frame.fiber_orthogonal(v)
    gb = frame.form.images([b])[0]
    k = linalg.dot(c.O, c.gE)  # O.E = k / (dg q^2)
    # T D = s o + 2 k db dg q b - (2 db dg q (b.gO) + k (b.gb)) e
    t = 2 * db * c.den  # c.den = dg q
    s = t * t // 2  # 2 (db dg q)^2
    cs = t * linalg.dot(b, c.gO) + k * linalg.dot(b, gb)
    d = [s * x + t * k * y - cs * z for x, y, z in zip(c.O, b, c.E)]
    den = c.q * s
    return tuple(Fraction(x, den) for x in d)


def compose(s: Isometry, t: Isometry) -> Isometry:
    """Matrix product s . t (apply t first)."""
    if s.form is not t.form and s.form != t.form:
        raise InputError("isometries act on different forms")
    (a, da), (b, db) = s.numerators, t.numerators
    return Isometry(s.form, (linalg.int_mat_mul(a, b), da * db))


def power(t: Isometry, m: int) -> Isometry:
    """t^m on integer numerators; m < 0 inverts t first.  m must be an int."""
    m = linalg.to_integer(m, "exponent")
    return Isometry(t.form, linalg.int_mat_pow(*t.numerators, m))
