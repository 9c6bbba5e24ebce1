"""Exact linear algebra over the rationals.

Matrices are tuples of tuples of `fractions.Fraction`; vectors are tuples.
Exact values stay `Fraction` at the API, but the kernels (`mat_mul`,
`inverse`, `rank`, `nullspace`) compute on integer numerators over one
common denominator per operand and build one canonical `Fraction` per
output entry.  Inversion and row reduction are fraction-free Gauss-Jordan
elimination in Bareiss form (Bareiss, Math. Comp. 22, 1968): every
intermediate entry is a minor of the input, so each division is exact.
Callers that keep a matrix as (integer rows, denominator) themselves, such
as `translations.Isometry` and `frame.FibrationFrame`, use the integer
pieces directly: `dot`, `int_mat_mul`, `int_mat_pow`, `int_inverse` and
`lowest_terms`.

Kernel operands may mix ints and Fractions (anything with `.numerator`
and `.denominator`).  Outside input is coerced once, by `vector`,
`vectors` and `matrix` in constructors and by `IntersectionForm.numerators`
(malformed: `InputError`).  A real-valued argument of the float layer is
checked once, on entry, by one of two rules: `to_double` (a `to_real`
within a double's range; `to_doubles` for a list-like of them) or
`to_positive_real` (a `to_double` that is positive as a double).  Each
rule is written here only.  Dimensions are the Picard number, i.e. tiny.
"""

import sys
from collections.abc import Mapping
from fractions import Fraction
from functools import reduce
from math import gcd, isfinite, lcm
from operator import add, index, mul

from .errors import DegenerateFormError, InputError

Matrix = tuple
Vector = tuple


def to_fraction(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact rational; a
    `bool` is not a number here."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"not an exact rational: {x!r}")


def to_real(x, what: str):
    """x itself if it is a finite int, float or `Fraction`, so exact input
    stays exact; `InputError` otherwise (a `bool` is not a number here).
    Range checks are `to_double`'s and `to_positive_real`'s."""
    if isinstance(x, float):
        if isfinite(x):
            return x
    elif isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x
    raise InputError(f"{what} must be a finite number, not {x!r}")


def to_double(x, what: str):
    """x itself if it is a `to_real` with |x| <= the largest double, so that
    `float(x)` cannot overflow and exact input stays exact; `InputError`
    otherwise."""
    if not abs(to_real(x, what)) <= sys.float_info.max:
        raise InputError(f"{what} is outside a double's range")
    return x


def to_doubles(x, what: str, n=None) -> list:
    """`to_double` of each entry of a list-like x, as a list; `InputError`
    for anything else, and if n is given and x has not n entries."""
    xs = [to_double(t, what) for t in _items(x, f"list of {what}s")]
    if n is not None and len(xs) != n:
        raise InputError(f"{what}s: the dimension needs {n}, not {len(xs)}")
    return xs


def to_positive_real(x, what: str):
    """x itself if it is a `to_double` that is positive as a double,
    float(x) > 0 (so a tiny `Fraction` that rounds to 0.0 is not);
    `InputError` otherwise."""
    return _positive(to_double(x, what), what)


def _positive(x, what: str):
    """x if float(x) > 0, for an x that `to_double` has checked; the one
    home of "positive as a double"."""
    if not float(x) > 0:
        raise InputError(f"{what} must be positive and within a double")
    return x


def to_integer(n, name: str, least=None) -> int:
    """n as an int, validated once on entry: `InputError` unless it has an
    integer type (1.0 and `bool`s have not) and, if `least` is given,
    n >= least."""
    try:
        if isinstance(n, bool):
            raise TypeError
        n = index(n)
    except TypeError:
        raise InputError(f"{name} must be an integer, not {n!r}") from None
    if least is not None and n < least:
        raise InputError(f"{name} must be at least {least}")
    return n


def _items(x, what):
    """x if it is list-like; `InputError` for anything else."""
    if isinstance(x, (tuple, list)) or not isinstance(
            x, (str, bytes, Mapping)) and hasattr(x, "__iter__"):
        return x
    raise InputError(f"not a {what}: {x!r}")


def vector(entries) -> Vector:
    return tuple(map(to_fraction, _items(entries, "vector")))


def vectors(rows) -> tuple:
    """`vector` of each of a list-like of rows, of any lengths."""
    return tuple(map(vector, _items(rows, "list of vectors")))


def matrix(rows) -> Matrix:
    rows = vectors(rows)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise InputError("ragged matrix")
    return rows


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def dot(u, v):
    """sum u_i v_i, for the integer vectors of the kernels."""
    return sum(map(mul, u, v))


def left_sum(xs):
    """0 + x_1 + ... + x_n, added left to right: the one summation order of
    the float pairing experiments, so their digits do not depend on the
    interpreter.  `sum()` of floats is this fold up to Python 3.11 and
    compensated from 3.12 on."""
    return reduce(add, xs, 0)


def numerators(v):
    """(integer numerators, common denominator) of a rational vector."""
    den = lcm(*[x.denominator for x in v])
    return [x.numerator * (den // x.denominator) for x in v], den


def matrix_numerators(m):
    """(integer rows, common denominator) of a rational matrix."""
    den = lcm(*[x.denominator for row in m for x in row])
    return [[x.numerator * (den // x.denominator) for x in row]
            for row in m], den


def int_mat_mul(a, b):
    """Product of integer matrices, as a list of integer rows."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def lowest_terms(rows, den):
    """(rows, den) of the rational matrix rows / den, divided by the gcd of
    all its integers and signed so that den > 0: equal matrices give equal
    numerators.  rows is returned as a tuple of tuples."""
    g = gcd(den, *[x for row in rows for x in row])
    if den < 0:
        g = -g
    if g == 1:
        return tuple(map(tuple, rows)), den
    return tuple(tuple(x // g for x in row) for row in rows), den // g


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and len(a[0]) != len(b):
        raise InputError("dimension mismatch in mat_mul")
    ia, da = matrix_numerators(a)
    ib, db = matrix_numerators(b)
    den = da * db
    return tuple(tuple(Fraction(x, den) for x in row)
                 for row in int_mat_mul(ia, ib))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v: Vector) -> Vector:
    c = to_fraction(c)
    return tuple(c * a for a in v)


def _gauss_jordan(a, n_cols: int):
    """Fraction-free Gauss-Jordan on the integer rows `a`, in place.

    Pivots are taken in columns < n_cols, in order, from the first row
    with a nonzero entry.  Each step replaces every other row r by
    (p * r - f * pivot_row) / p_prev, an exact division by Sylvester's
    identity.  On return each pivot row holds the last pivot p at its own
    pivot column and zeros at the others, rows past the rank are zero, and
    dividing by p gives the reduced row echelon form.  Returns
    (pivot columns, p); p is 1 when there is no pivot.
    """
    n_rows = len(a)
    pivots = []
    prev = 1
    for col in range(n_cols):
        row = len(pivots)
        piv = next((r for r in range(row, n_rows) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        pivot_row = a[row]
        p = pivot_row[col]
        for r in range(n_rows):
            if r != row:
                f = a[r][col]
                a[r] = [(p * x - f * y) // prev for x, y in zip(a[r], pivot_row)]
        pivots.append(col)
        prev = p
        if row + 1 == n_rows:
            break
    return pivots, prev


def int_inverse(a):
    """Inverse of a square integer matrix as (B, d): a^-1 = B / d, B integral.

    Raises DegenerateFormError on singular input.
    """
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    pivots, det = _gauss_jordan(aug, n)
    if len(pivots) < n:
        raise DegenerateFormError("matrix is singular")
    # aug is now [det * I | det * a^-1]
    return [row[n:] for row in aug], det


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises DegenerateFormError on singular input."""
    a, den = matrix_numerators(m)
    b, det = int_inverse(a)
    # m = a / den, so m^-1 = den * b / det
    return tuple(tuple(Fraction(den * x, det) for x in row) for row in b)


def rank(m: Matrix) -> int:
    a, _ = matrix_numerators(m)  # the pivots of the integer Gauss-Jordan
    return len(_gauss_jordan(a, len(a[0]) if a else 0)[0])


def nullspace(m: Matrix):
    """Basis of the right null space, deterministic (free columns in order):
    row r of the reduced row echelon form is `_gauss_jordan`'s row r over p."""
    a, _ = matrix_numerators(m)
    n_cols = len(m[0])
    pivots, p = _gauss_jordan(a, n_cols)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-a[r][fc], p)
        basis.append(tuple(v))
    return tuple(basis)


def int_mat_pow(a, den, k: int):
    """(a / den)^k for integer rows a, as (integer rows, denominator), by
    repeated squaring; k < 0 inverts first (DegenerateFormError if a is
    singular).  The result is not reduced to lowest terms."""
    if k < 0:
        inv, det = int_inverse(a)  # (a / den)^-1 = den inv / det
        a, den, k = [[den * x for x in row] for row in inv], det, -k
    n = len(a)
    result, result_den = [[int(i == j) for j in range(n)] for i in range(n)], 1
    while k:
        if k & 1:
            result, result_den = int_mat_mul(result, a), result_den * den
        k >>= 1
        if k:
            a, den = int_mat_mul(a, a), den * den
    return result, result_den
