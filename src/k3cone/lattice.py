"""Intersection forms on Picard lattices: the Lorentz product and friends.

All arithmetic is exact rational.  Values stay `Fraction` at the API, but
the work is on integers: an exact vector x is held as its integer
numerators over one common denominator, (a, da) with x = a / da, the same
(integers, denominator) shape as an `Isometry`'s matrix, and the form as
its integer Gram matrix g over dg (`gram_numerators`), cached once per
form.  Exact vector arguments enter by one door, `numerators` (one
`linalg.vector`, one length check), and `inner` is the product: both
arguments' numerators, one integer sum, one `Fraction`.  Callers that
pair many vectors with a few fixed classes C, such as `FibrationFrame`,
cache the integer Gram images g c of those classes once (`images`): then
x.C = (a . g c) / (da dc dg) is one integer dot of length dim.
`congruent_diagonalization` also runs on the integer Gram: it keeps the
basis as integer columns B_c with one nonzero integer scale s_c each
(basis column c is B_c / s_c) and the reduced form as the integer matrix
B^T g B, and builds the `Fraction` basis and diagonal once, at the end.
The form is held once, as these integers: there is no float copy, and
real-valued geometry lives in `models`, whose `inner_f` reads the same
integer Gram rows.  The same diagonalization gives the orthogonal axes of
both float charts there: `models.BallModel` takes the form's own,
`models.BoundaryChart` that of its Gram on the boundary subspace.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from . import linalg
from .errors import DegenerateFormError, InputError
from .linalg import Matrix, Vector, matrix


@dataclass(frozen=True)
class IntersectionForm:
    """A symmetric rational bilinear form (the intersection pairing).

    Symmetry is enforced at construction.  Lorentzian signature (1, dim-1)
    is a property of geometric inputs: the config loader (`form_from_dict`)
    and `models.BallModel` require it, and `FibrationFrame.validate`
    reports it, but this constructor does not: utility code (dual bases,
    inertia counts) is useful on arbitrary symmetric forms.
    """

    gram: Matrix

    def __post_init__(self):
        g = matrix(self.gram)
        if any(len(r) != len(g) for r in g):
            raise InputError("gram matrix must be square")
        if g != linalg.transpose(g):
            raise InputError("gram matrix must be symmetric")
        object.__setattr__(self, "gram", g)

    @property
    def dim(self) -> int:
        return len(self.gram)

    @cached_property
    def gram_numerators(self) -> tuple:
        """(integer Gram rows, common denominator), computed once per form."""
        return linalg.matrix_numerators(self.gram)

    @cached_property
    def diagonalization(self) -> tuple:
        """`congruent_diagonalization(self)`, computed once per form."""
        return congruent_diagonalization(self)

    def images(self, rows) -> list:
        """The integer Gram images g c of integer vectors c, one list each.

        For x = a / da and C = c / dc, x.C = (a . g c) / (da dc dg) with dg
        the denominator of `gram_numerators`: callers cache the images of
        their fixed classes, and each product is then one integer dot.
        """
        gram, _ = self.gram_numerators
        return [[linalg.dot(row, c) for row in gram] for c in rows]

    def numerators(self, x) -> tuple:
        """(integer numerators, common denominator) of x, the one door for
        exact vectors: coerced once by `linalg.vector`, checked against dim."""
        x = linalg.vector(x)
        if len(x) != self.dim:
            raise InputError("vector dimension does not match the form")
        return linalg.numerators(x)

    def inner(self, u: Vector, v: Vector) -> Fraction:
        """The Lorentz (intersection) product u . v, exact.

        One integer dot of u's `numerators` with the `images` of v's.
        """
        a, da = self.numerators(u)
        b, db = self.numerators(v)
        return Fraction(linalg.dot(a, self.images([b])[0]),
                        da * db * self.gram_numerators[1])

    def norm2(self, v: Vector) -> Fraction:
        return self.inner(v, v)

    def require_lorentzian(self):
        if (sig := signature(self)) != (1, self.dim - 1, 0):
            raise InputError(
                f"form has signature {sig}, expected (1, {self.dim - 1}, 0)")
        return self


def congruent_diagonalization(form: IntersectionForm):
    """Symmetric congruence diagonalization over the rationals.

    Returns (basis, diag) with basis^T . gram . basis = diag(diag), computed
    with exact pivoting in input-basis order (deterministic).  A zero diagonal
    pivot is repaired by preferring a later nonzero diagonal entry, falling
    back to the row/column addition trick when the whole diagonal vanishes.

    The work is on integers.  With gram = g / den, basis column c is B_c / s_c
    for an integer column B_c and a nonzero integer scale s_c, and the
    reduced form is A = B^T g B, so a_ij = A_ij / (s_i s_j den).  Clearing
    a_ij against the pivot p = A_ii is column j <- (p col_j - q col_i) / h
    with q = A_ij, h = gcd(p, q), and s_j <- p s_j / h; each column is then
    divided by the gcd of B_c and s_c.  The `Fraction` pair is built once,
    at the end.
    """
    a, den = form.gram_numerators
    n = len(a)
    a = [list(r) for r in a]
    basis = [[int(r == c) for r in range(n)] for c in range(n)]  # columns B_c
    scale = [1] * n

    def combine(i, j, x, y):
        # column i <- x * column i + y * column j, the same row op on a
        for row in a:
            row[i] = x * row[i] + y * row[j]
        a[i] = [x * u + y * v for u, v in zip(a[i], a[j])]
        basis[i] = [x * u + y * v for u, v in zip(basis[i], basis[j])]
        g = gcd(scale[i], *basis[i])
        if g > 1:
            basis[i] = [u // g for u in basis[i]]
            scale[i] //= g
            for row in a:
                row[i] //= g
            a[i] = [u // g for u in a[i]]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        a[i], a[j] = a[j], a[i]
        basis[i], basis[j] = basis[j], basis[i]
        scale[i], scale[j] = scale[j], scale[i]

    for i in range(n):
        if a[i][i] == 0:
            j = next((k for k in range(i + 1, n) if a[k][k] != 0), None)
            if j is not None:
                swap_cols(i, j)
            else:
                j = next((k for k in range(i + 1, n) if a[i][k] != 0), None)
                if j is None:
                    continue  # whole trailing row is zero: radical direction
                # column i += column j, i.e. B_i/s_i + B_j/s_j
                h = gcd(scale[i], scale[j])
                x, y = scale[j] // h, scale[i] // h
                scale[i] *= x
                combine(i, j, x, y)
        p = a[i][i]
        for j in range(i + 1, n):
            q = a[i][j]
            if q:
                h = gcd(p, q)
                scale[j] *= p // h
                combine(j, i, p // h, -q // h)

    basis = tuple(tuple(Fraction(col[r], s) for col, s in zip(basis, scale))
                  for r in range(n))
    diag = tuple(Fraction(a[c][c], s * s * den) for c, s in enumerate(scale))
    return basis, diag


def signature(form: IntersectionForm):
    """Exact inertia (pos, neg, zero) by rational congruence diagonalization."""
    _, diag = form.diagonalization
    pos = sum(1 for d in diag if d > 0)
    neg = sum(1 for d in diag if d < 0)
    return pos, neg, len(diag) - pos - neg


def dual_basis(form: IntersectionForm):
    """Vectors D_j* with e_i . D_j* = delta_ij, i.e. columns of gram^-1."""
    try:
        inv = linalg.inverse(form.gram)
    except DegenerateFormError:
        raise DegenerateFormError("gram matrix is singular; no dual basis")
    duals = tuple(tuple(inv[i][j] for i in range(form.dim)) for j in range(form.dim))
    for i in range(form.dim):
        for j in range(form.dim):
            e_i = tuple(Fraction(int(i == k)) for k in range(form.dim))
            if form.inner(e_i, duals[j]) != (1 if i == j else 0):
                raise DegenerateFormError(
                    f"dual basis check failed: e_{i} . D_{j}* != delta_{i}{j}")
    return duals


def in_light_cone(form: IntersectionForm, x: Vector, ample: Vector) -> bool:
    """Membership in the open light cone on the ample side."""
    if form.norm2(ample) <= 0:
        raise InputError("reference vector must have positive self-product")
    return form.norm2(x) > 0 and form.inner(x, ample) > 0


def form_from_dict(doc: dict) -> IntersectionForm:
    """Ingest {"gram": [[...]], "labels": [...]} with ints or 'p/q' strings.

    Rejects non-Lorentzian forms: every accepted lattice has signature
    (1, dim-1).
    """
    if not isinstance(doc, dict):
        raise InputError("lattice config is not a JSON object")
    if "gram" not in doc:
        raise InputError("lattice config is missing 'gram'")
    form = IntersectionForm(doc["gram"])
    labels = doc.get("labels")
    if labels is not None and (not isinstance(labels, list)
                               or len(labels) != form.dim):
        raise InputError("labels must be a list, one per gram row")
    return form.require_lorentzian()
