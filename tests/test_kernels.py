"""The integer kernels of the exact layer against plain Fraction references.

The kernels scale their operands to integer numerators over a common
denominator and eliminate fraction-free; the references below are the
textbook `Fraction` loops, and `ref_congruent_diagonalization` is the
`Fraction` routine that `lattice.congruent_diagonalization` replaced.  Results must be equal with `==`, and every
entry must be a `Fraction`.  Operands mix ints and Fractions, Gram
matrices are integral or not, and dimensions run from 1 to 8.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mat_pow
from k3cone import linalg
from k3cone.errors import DegenerateFormError, FrameError
from k3cone.frame import FibrationFrame
from k3cone.involutions import reflection_through
from k3cone.lattice import IntersectionForm, congruent_diagonalization
from k3cone.translations import translation

ints = st.integers(-9, 9)
entries = st.one_of(ints, st.builds(Fraction, st.integers(-9, 9),
                                    st.integers(1, 6)))
dims = st.integers(1, 8)
SETTINGS = settings(max_examples=60, deadline=None)


def vectors(n, elements=entries):
    return st.lists(elements, min_size=n, max_size=n).map(tuple)


def matrices(rows, cols, elements=entries):
    return st.lists(vectors(cols, elements), min_size=rows,
                    max_size=rows).map(tuple)


@st.composite
def grams(draw, n):
    """A symmetric matrix, integral or not, as a Fraction matrix."""
    elements = draw(st.sampled_from([ints, entries]))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(elements)
    return linalg.matrix(g)


@st.composite
def symmetric_forms(draw, n):
    """A symmetric rational matrix of one of four kinds: any, with an
    all-zero diagonal, hyperbolic planes congruent-scrambled, or singular."""
    kind = draw(st.sampled_from(["any", "zero-diagonal", "hyperbolic",
                                 "singular"]))
    if kind == "hyperbolic":
        g = [[0] * n for _ in range(n)]
        for i in range(0, n - 1, 2):
            g[i][i + 1] = g[i + 1][i] = draw(entries.filter(bool))
        if n % 2:
            g[-1][-1] = draw(entries)
        u = draw(matrices(n, n, st.integers(-2, 2)))
        return linalg.mat_mul(linalg.transpose(u), linalg.mat_mul(g, u))
    if kind == "singular":  # x c x^T with x of rank k < n
        k = draw(st.integers(0, n - 1))
        if not k:
            return linalg.matrix([[0] * n for _ in range(n)])
        x = draw(matrices(n, k))
        return linalg.mat_mul(x, linalg.mat_mul(draw(grams(k)),
                                                linalg.transpose(x)))
    g = [list(row) for row in draw(grams(n))]
    if kind == "zero-diagonal":
        for i in range(n):
            g[i][i] = Fraction(0)
    return linalg.matrix(g)


@st.composite
def maybe_singular(draw, rows, cols):
    """A matrix whose last row is, half of the time, a combination of others."""
    m = list(draw(matrices(rows, cols)))
    if draw(st.booleans()):
        c = draw(entries)
        m[-1] = tuple(c * x + y for x, y in zip(m[0], m[min(1, rows - 1)]))
        if rows == 1:
            m[-1] = (0,) * cols
    return tuple(m)


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


# -- references ----------------------------------------------------------------

def ref_dot(u, v):
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def ref_inner(gram, u, v):
    return sum((Fraction(a) * g * b for a, row in zip(u, gram)
                for g, b in zip(row, v)), Fraction(0))


def ref_mat_vec(m, v):
    return tuple(ref_dot(row, v) for row in m)


def ref_mat_mul(a, b):
    return tuple(tuple(ref_dot(row, col) for col in zip(*b)) for row in a)


def ref_rref(m):
    a = [[Fraction(x) for x in row] for row in m]
    pivots = []
    for col in range(len(a[0])):
        row = len(pivots)
        piv = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        a[row] = [x / a[row][col] for x in a[row]]
        for r in range(len(a)):
            if r != row:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        if len(pivots) == len(a):
            break
    return tuple(tuple(row) for row in a), tuple(pivots)


def ref_inverse(m):
    """The inverse, or None when m is singular."""
    n = len(m)
    rows, pivots = ref_rref([tuple(row) + tuple(int(i == j) for j in range(n))
                             for i, row in enumerate(m)])
    if pivots[:n] != tuple(range(n)):
        return None
    return tuple(row[n:] for row in rows)


def ref_nullspace(m):
    rows, pivots = ref_rref(m)
    basis = []
    for free in (c for c in range(len(m[0])) if c not in pivots):
        v = [Fraction(int(c == free)) for c in range(len(m[0]))]
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][free]
        basis.append(tuple(v))
    return tuple(basis)


def ref_translation(gram, e, v):
    """Columns x -> x - (x.v + (x.E)(v.v)/2) E + (x.E) v on the basis."""
    n = len(gram)
    vv = ref_inner(gram, v, v)
    cols = []
    for j in range(n):
        x = [Fraction(int(i == j)) for i in range(n)]
        xv, xe = ref_inner(gram, x, v), ref_inner(gram, x, e)
        coeff = xv + xe * vv / 2
        cols.append([a - coeff * b + xe * c for a, b, c in zip(x, e, v)])
    return tuple(zip(*cols))


def ref_reflection(gram, span):
    """2 * (orthogonal projection onto span) - 1, column by column."""
    n = len(gram)
    inv = ref_inverse([[ref_inner(gram, s, t) for t in span] for s in span])
    if inv is None:
        return None
    cols = []
    for j in range(n):
        e_j = [Fraction(int(i == j)) for i in range(n)]
        coeffs = ref_mat_vec(inv, [ref_inner(gram, s, e_j) for s in span])
        proj = [sum((c * s[i] for c, s in zip(coeffs, span)), Fraction(0))
                for i in range(n)]
        cols.append([2 * p - x for p, x in zip(proj, e_j)])
    return tuple(zip(*cols))


def ref_congruent_diagonalization(gram):
    """Symmetric congruence diagonalization on `Fraction`s: the same pivot
    order, swaps and column-addition repair as the integer routine."""
    n = len(gram)
    a = [[Fraction(x) for x in r] for r in gram]
    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def add_col(i, j, f):
        # column i += f * column j (and the symmetric row op on a)
        for r in range(n):
            a[r][i] += f * a[r][j]
        for r in range(n):
            a[i][r] += f * a[j][r]
        for r in range(n):
            basis[r][i] += f * basis[r][j]

    def swap_cols(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]
        for r in range(n):
            basis[r][i], basis[r][j] = basis[r][j], basis[r][i]

    for i in range(n):
        if a[i][i] == 0:
            j = next((k for k in range(i + 1, n) if a[k][k] != 0), None)
            if j is not None:
                swap_cols(i, j)
            else:
                j = next((k for k in range(i + 1, n) if a[i][k] != 0), None)
                if j is None:
                    continue  # whole trailing row is zero: radical direction
                add_col(i, j, Fraction(1))
        for j in range(i + 1, n):
            if a[i][j] != 0:
                add_col(j, i, -a[i][j] / a[i][i])

    diag = tuple(a[i][i] for i in range(n))
    return tuple(tuple(r) for r in basis), diag


# -- kernels -------------------------------------------------------------------

@given(st.data(), dims)
@SETTINGS
def test_inner(data, n):
    gram = data.draw(grams(n))
    u, v = data.draw(vectors(n)), data.draw(vectors(n))
    got = IntersectionForm(gram).inner(u, v)
    assert got == ref_inner(gram, u, v)
    assert type(got) is Fraction


@given(st.data(), dims, dims, dims)
@SETTINGS
def test_mat_mul(data, rows, inner, cols):
    a, b = data.draw(matrices(rows, inner)), data.draw(matrices(inner, cols))
    got = linalg.mat_mul(a, b)
    assert got == ref_mat_mul(a, b)
    assert all_fractions(got)


@given(st.data(), dims, st.integers(-3, 4))
@SETTINGS
def test_mat_pow(data, n, k):
    m = data.draw(maybe_singular(n, n))
    base = ref_inverse(m) if k < 0 else m
    if base is None:
        with pytest.raises(DegenerateFormError):
            mat_pow(m, k)
        return
    expected = tuple(tuple(Fraction(int(i == j)) for j in range(n))
                     for i in range(n))
    for _ in range(abs(k)):
        expected = ref_mat_mul(expected, base)
    got = mat_pow(m, k)
    assert got == expected
    assert all_fractions(got)


@given(st.data(), dims)
@SETTINGS
def test_inverse(data, n):
    m = data.draw(maybe_singular(n, n))
    expected = ref_inverse(m)
    if expected is None:
        with pytest.raises(DegenerateFormError):
            linalg.inverse(m)
        return
    got = linalg.inverse(m)
    assert got == expected
    assert all_fractions(got)


@given(st.data(), dims, dims)
@SETTINGS
def test_rref_and_nullspace(data, rows, cols):
    m = data.draw(maybe_singular(rows, cols))
    null = linalg.nullspace(m)
    assert null == ref_nullspace(m)
    assert all_fractions(null)
    assert linalg.rank(m) == len(ref_rref(m)[1])


@given(st.data(), dims)
@SETTINGS
def test_translation_matrix(data, n):
    gram = data.draw(grams(n))
    e = data.draw(vectors(n))
    v = list(data.draw(vectors(n)))
    h = ref_mat_vec(gram, e)
    k = next((i for i, x in enumerate(h) if x), None)
    if k is not None:  # solve for v_k so that v.E = 0
        v[k] = 0
        v[k] = -ref_dot(h, v) / h[k]
    got = translation(FibrationFrame(IntersectionForm(gram), e, e, e),
                      tuple(v)).matrix
    assert got == ref_translation(gram, e, v)
    assert all_fractions(got)


@given(st.data(), dims, st.integers(1, 3))
@SETTINGS
def test_reflection_through(data, n, k):
    gram = data.draw(grams(n))
    span = tuple(data.draw(vectors(n)) for _ in range(min(k, n)))
    if len(span) > 1 and data.draw(st.booleans()):
        span = span[:-1] + (span[0],)  # a repeated vector: degenerate span
    expected = ref_reflection(gram, span)
    if expected is None:
        with pytest.raises(FrameError):
            reflection_through(IntersectionForm(gram), span, "test")
        return
    got = reflection_through(IntersectionForm(gram), span, "test").matrix
    assert got == expected
    assert all_fractions(got)


@given(st.data(), dims)
@settings(max_examples=200, deadline=None)
def test_congruent_diagonalization(data, n):
    gram = data.draw(symmetric_forms(n))
    basis, diag = congruent_diagonalization(IntersectionForm(gram))
    assert (basis, diag) == ref_congruent_diagonalization(gram)
    assert all_fractions(basis) and all_fractions([diag])
    assert linalg.mat_mul(linalg.transpose(basis),
                          linalg.mat_mul(gram, basis)) == tuple(
        tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n))
