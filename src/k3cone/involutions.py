"""Pullbacks of the fiberwise involutions, built from their eigenspaces.

The negation involution fixes span{[E], [O]} and is -1 on its orthogonal
complement; the i-th reflection fixes span{[E], [O] + D_i}.  Their product
is the parabolic translation attached to v_i, and that equality is verified
entrywise whenever it is constructed.

Each reflection is built as integer rows N over one denominator d and
returned as the plain `translations.Isometry` R = N / d, like a
translation, so `compose` and `power` take it directly.  Every check runs
on those integers: N N == d^2 I (an involution), N s == d s on the fixed
span, and the product of two reflections against the translation's
numerators by cross-multiplying.  The negation pullback does not depend
on i, so a frame builds it once (`FibrationFrame.sigma0`).
"""

from . import linalg, translations
from .errors import DegenerateFormError, FrameError, InputError, K3ConeError
from .lattice import IntersectionForm
from .linalg import Vector, vector
from .translations import Isometry


def reflection_through(form: IntersectionForm, span, description) -> Isometry:
    """Involution fixing `span` and equal to -1 on its orthogonal complement.

    Requires the form restricted to the span to be nondegenerate, so that
    the orthogonal projection is defined.  With S the matrix whose columns
    span the eigenspace and G the Gram matrix,

        R = 2 S (S^T G S)^-1 S^T G - I,

    which is unchanged when G or any column of S is rescaled, so it is
    computed on integer numerators: with (S^T G S)^-1 = B / d,
    R = N / d for N = 2 S B (GS)^T - d I.  Both checks run on N: the
    involution check N N == d^2 I and the fixed-span check N S == d S.
    `description` names the reflection in their errors.
    """
    n = form.dim
    cols = [form.numerators(s)[0] for s in linalg._items(span, "list of vectors")]
    gs = form.images(cols)  # rows (G s)^T
    try:
        inv, d = linalg.int_inverse([[linalg.dot(c, g) for g in gs] for c in cols])
    except DegenerateFormError:
        raise FrameError("degenerate eigenspace: form restricted to span is singular")
    span_rows = list(zip(*cols))  # S
    rows = [[2 * x - (d if i == j else 0) for j, x in enumerate(row)]
            for i, row in enumerate(linalg.int_mat_mul(
                span_rows, linalg.int_mat_mul(inv, gs)))]
    if linalg.int_mat_mul(rows, rows) != [[d * d if i == j else 0
                                           for j in range(n)] for i in range(n)]:
        raise FrameError(f"{description}: reflection is not an involution")
    if linalg.int_mat_mul(rows, span_rows) != [[d * x for x in row]
                                               for row in span_rows]:
        raise FrameError(f"{description}: reflection moves its fixed span")
    return Isometry(form, (rows, d))


def sigma0_pullback(frame) -> Isometry:
    """Pullback of fiberwise negation: +1 on span{[E], [O]}, -1 across it.

    Built fresh on every call; `FibrationFrame.sigma0` keeps one per frame.
    """
    return reflection_through(frame.form, (frame.classE, frame.classO),
                              "fiberwise negation")


def sigma_i_pullback(frame, di: Vector) -> Isometry:
    """Pullback of P -> Q_i - P: +1 on span{[E], [O] + D_i}, -1 across it.

    D_i is checked first, by `FibrationFrame.check_section`.
    """
    di = vector(di)
    frame.check_section(*frame.form.numerators(di))
    return _reflection_through_section(frame, di)


def _reflection_through_section(frame, di: Vector) -> Isometry:
    return reflection_through(
        frame.form, (frame.classE, linalg.vec_add(frame.classO, di)),
        "reflection through [O] + D_i")


def tau_pushforward(frame, i: int) -> Isometry:
    """Pushforward of translation-by-Q_i: the product sigma_i* . sigma_0*.

    The product N_i N_0 / (d_i d_0) of the two reflections' numerators is
    compared entrywise with the parabolic translation T = M / D attached to
    v_i by cross-multiplying, N_i N_0 D == M d_i d_0, before returning; a
    mismatch on a valid frame would indicate an internal inconsistency and
    is surfaced loudly.  The two are then equal, and T is returned.
    sigma_0* is the frame's cached `FibrationFrame.sigma0`, and sigma_i* is
    built from `frame.sections[i]`, which the frame proved section classes;
    i must be an int in range(rank).
    """
    if linalg.to_integer(i, "translation index", least=0) >= frame.rank:
        raise InputError(f"translation indices must lie in range({frame.rank})")
    sigma_i = _reflection_through_section(frame, frame.sections[i])
    a, da = sigma_i.numerators
    b, db = frame.sigma0.numerators
    expected = translations.translation(frame, frame.translations[i])
    m, den = expected.numerators
    if [[den * x for x in row] for row in linalg.int_mat_mul(a, b)] != [
            [da * db * x for x in row] for row in m]:
        raise K3ConeError(
            f"pushforward of involution pair differs from translation {i}; "
            "frame data is internally inconsistent")
    return expected
