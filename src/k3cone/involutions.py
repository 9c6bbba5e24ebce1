"""Pullbacks of the fiberwise involutions, built from their eigenspaces.

The negation involution fixes span{[E], [O]} and is -1 on its orthogonal
complement; the i-th reflection fixes span{[E], [O] + D_i}.  Their product
is the parabolic translation attached to v_i, and that equality is verified
entrywise whenever it is constructed.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import linalg, translations
from .errors import DegenerateFormError, FrameError, InputError, K3ConeError
from .lattice import IntersectionForm
from .linalg import Vector, vector
from .translations import Isometry


@dataclass(frozen=True)
class EigenReflection:
    """An involutive isometry determined by its (+1)-eigenspace."""

    isometry: Isometry
    plus_space: tuple
    description: str

    @property
    def matrix(self):
        return self.isometry.matrix

    def __call__(self, v: Vector) -> Vector:
        return self.isometry(v)


def reflection_through(form: IntersectionForm, span, description) -> EigenReflection:
    """Involution fixing `span` and equal to -1 on its orthogonal complement.

    Requires the form restricted to the span to be nondegenerate, so that
    the orthogonal projection is defined.  With S the matrix whose columns
    span the eigenspace and G the Gram matrix,

        R = 2 S (S^T G S)^-1 S^T G - I,

    which is unchanged when G or any column of S is rescaled, so it is
    computed on integer numerators: with (S^T G S)^-1 = B / d,
    R = (2 S B (GS)^T - d I) / d.
    """
    n = form.dim
    span = tuple(vector(s) for s in span)
    if any(len(s) != n for s in span):
        raise InputError("vector dimension does not match the form")
    gram, _ = form.gram_numerators
    cols = [linalg.numerators(s)[0] for s in span]
    gs = [[sum(map(mul, row, c)) for row in gram] for c in cols]  # rows (G s)^T
    try:
        inv, d = linalg.int_inverse(
            [[sum(map(mul, c, g)) for g in gs] for c in cols])
    except DegenerateFormError:
        raise FrameError("degenerate eigenspace: form restricted to span is singular")
    right = [[sum(map(mul, row, col)) for col in zip(*gs)] for row in inv]
    m = tuple(tuple(Fraction(2 * sum(map(mul, si, rj)) - (d if i == j else 0), d)
                    for j, rj in enumerate(zip(*right)))
              for i, si in enumerate(zip(*cols)))
    refl = EigenReflection(Isometry(form, m), span, description)
    if linalg.mat_mul(m, m) != linalg.identity(n):
        raise FrameError(f"{description}: reflection is not an involution")
    if any(refl(s) != s for s in span):
        raise FrameError(f"{description}: reflection moves its fixed span")
    return refl


def sigma0_pullback(frame) -> EigenReflection:
    """Pullback of fiberwise negation: +1 on span{[E], [O]}, -1 across it."""
    return reflection_through(frame.form, (frame.classE, frame.classO),
                              "fiberwise negation")


def sigma_i_pullback(frame, di: Vector) -> EigenReflection:
    """Pullback of P -> Q_i - P: +1 on span{[E], [O] + D_i}, -1 across it."""
    di = vector(di)
    if frame.form.norm2(di) != -2 or frame.form.inner(di, frame.classE) != 1:
        raise FrameError("not a section class (need D.D = -2, D.E = 1)")
    return reflection_through(
        frame.form, (frame.classE, linalg.vec_add(frame.classO, di)),
        "reflection through [O] + D_i")


def tau_pushforward(frame, i: int) -> Isometry:
    """Pushforward of translation-by-Q_i: the product sigma_i* . sigma_0*.

    Verified entrywise against the parabolic translation attached to v_i
    before returning; a mismatch on a valid frame would indicate an internal
    inconsistency and is surfaced loudly.
    """
    di = frame.sections[i]
    sigma_i = sigma_i_pullback(frame, di)
    sigma_0 = sigma0_pullback(frame)
    tau = translations.compose(sigma_i.isometry, sigma_0.isometry)
    expected = translations.translation(frame, frame.translations[i])
    if tau.matrix != expected.matrix:
        raise K3ConeError(
            f"pushforward of involution pair differs from translation {i}; "
            "frame data is internally inconsistent")
    return tau
