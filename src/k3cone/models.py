"""Models of the hyperbolic cross-section: hyperboloid, boundary, ball, UHS.

Exact rational identities (boundary metric, phi) stay exact, and run on
the frame's cached integers (`FibrationFrame.fixed`): one `numerators`
per argument, integer dots, one `Fraction` per returned value.  Anything
involving square roots or hyperbolic functions is done in double
precision.  Distances are asinh forms (`hyperbolic_distance` on exact
integer products, UHS and ball on chords), not arccosh(1 + x), which
loses half the digits for close points.  The UHS model and the synthetic
height oracle work in cusp coordinates, free of a scrambled basis's
cancellation; `inner_f` is the lattice-coordinate oracle.  `BoundaryChart`
and `BallModel` share one map (`_Axes`) on the integer numerators of an
orthogonal basis from an exact `congruent_diagonalization`.
Stated tolerances: 1e-12 for identities that are exact underneath, 1e-9
for cross-model agreement.

Input policy: every real-valued coordinate a public entry point reads is
checked once, on entry, by `linalg.to_real` (a finite int, float or
`Fraction`, not a `bool`; otherwise `InputError`), and exact entries stay
exact.  `inner_f` and `cusp_inner` (the synthetic heights' product) are
hot and unchecked: plain arithmetic on what they are handed, with a
length check only.  The Gram row sums of `inner_f` are one kernel,
`_image_f`, which `walls.max_residual` shares: it maps a wall's class D
through it once per circle, so its residuals are `inner_f`'s to the bit.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import linalg
from .errors import CuspError, DomainError, InputError
from .lattice import IntersectionForm, congruent_diagonalization
from .linalg import Vector, vector


def _image_f(g, vf) -> list:
    """g vf on floats vf, g a form's integer Gram rows: one `sum()` per row,
    the kernel of `inner_f` and of `walls.max_residual`."""
    return [sum(map(mul, row, vf)) for row in g]


def inner_f(form: IntersectionForm, u, v) -> float:
    """Lorentz product in double precision; accepts float or rational entries.

    Sums u_i (g v)_i over the form's integer Gram rows g / dg
    (`gram_numerators`), each vector entry converted once; one division.
    """
    g, dg = form.gram_numerators
    if len(u) != len(g) or len(v) != len(g):
        raise InputError("vector dimension does not match the form")
    return sum(map(mul, map(float, u), _image_f(g, [float(x) for x in v]))) / dg


def cusp_inner(x, y) -> float:
    """wv' + vw' - <y, y'>: the product of cusp coordinates (w, v, y) from
    `FibrationFrame.cusp`, on a frame with E.E = P.P = 0 and E.P = 1;
    <y, y'> is a `linalg.left_sum`."""
    if len(x) != len(y):
        raise InputError("cusp coordinate vectors differ in length")
    return x[0] * y[1] + x[1] * y[0] - linalg.left_sum(map(mul, x[2:], y[2:]))


def _exact_numerators(u, dim) -> tuple:
    """(integer numerators, denominator) of u, each entry a `linalg.to_real`
    taken exactly by `as_integer_ratio`; `InputError` unless u is dim
    finite numbers."""
    ratios = [linalg.to_real(t, "point coordinate").as_integer_ratio()
              for t in linalg._items(u, "point")]
    if len(ratios) != dim:
        raise InputError("vector dimension does not match the form")
    den = math.lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def _scaled_numerators(u, dim) -> tuple:
    """`_exact_numerators` of u, its largest entry brought near 1 by a power
    of two when past 2^400 or below 2^-400: a scale-invariant map's value is
    unchanged, and its quotients stay in a double's range."""
    a, da = _exact_numerators(u, dim)
    shift = max(map(abs, a)).bit_length() - da.bit_length()
    if shift > 400:
        da <<= shift
    elif shift < -400:
        a = [x << -shift for x in a]
    return a, da


def hyperbolic_distance(form: IntersectionForm, a, b) -> float:
    """arccosh(A.B / (||A|| ||B||)); scale-invariant in each argument.

    On exact integer numerators (their denominators cancel), sinh^2 d =
    ((A.B)^2 - (A.A)(B.B)) / ((A.A)(B.B)) is one quotient rounded once,
    and d = asinh(sqrt(sinh^2 d)) is accurate near and far; past a double's
    range it is log(2 sinh d), on logs of the integers.
    """
    (x, _), (y, _) = (_exact_numerators(p, form.dim) for p in (a, b))
    gx, gy = form.images([x, y])
    aa, bb, ab = linalg.dot(x, gx), linalg.dot(y, gy), linalg.dot(x, gy)
    if aa <= 0 or bb <= 0:
        raise DomainError("arguments must lie inside the light cone")
    if ab <= 0:
        raise DomainError("arguments lie in opposite cone components")
    num, den = ab * ab - aa * bb, aa * bb  # sinh^2 d = num / den
    if num < 0:
        raise DomainError("the form is not Lorentzian on these arguments")
    try:
        return math.asinh(math.sqrt(num / den))
    except OverflowError:
        return 0.5 * (math.log(num) - math.log(den)) + math.log(2)


# -- boundary classes and the Euclidean metric at the cusp ------------------

def _boundary_numerators(frame, a: Vector):
    """(A, numerators x / dx, their Gram image g x, A.E numerator) of a
    checked boundary class: see `check_boundary_class`.  Every product is
    taken on the integers of x and of the frame's `fixed` classes."""
    a = vector(a)
    x, dx = frame.form.numerators(a)
    c = frame.fixed
    gx = frame.form.images([x])[0]
    if linalg.dot(x, gx):
        raise DomainError("boundary class must be null")
    if linalg.dot(x, c.gA) <= 0:
        raise DomainError("boundary class must lie on the ample side")
    ae = linalg.dot(x, c.gE)
    if ae == 0:
        raise CuspError("class is proportional to the cusp [E]")
    if ae < 0:
        raise DomainError("null class pairs negatively with the cusp [E]; "
                          "[E] is not on the ample side of this frame")
    return a, x, gx, ae


def check_boundary_class(frame, a: Vector) -> Vector:
    """Validate a rational boundary-class representative.

    Requires A.A = 0 (exact) and A.ample > 0; rejects multiples of the cusp
    class [E].  Cusp positivity A.E > 0 is checked too: it is forced for
    every non-cusp boundary ray when [E] lies on the ample side, so a
    failure means the frame itself is inconsistent.
    """
    return _boundary_numerators(frame, a)[0]


def boundary_distance_sq(frame, a: Vector, b: Vector) -> Fraction:
    """Exact squared boundary distance 2 A.B / ((A.E)(B.E)).

    On numerators x / dx and y / dy the denominators cancel to
    2 (y . g x) den^2 / (dg (x . gE)(y . gE)), den that of `frame.fixed`.
    """
    _, x, gx, ae = _boundary_numerators(frame, a)
    _, y, _, be = _boundary_numerators(frame, b)
    den = frame.fixed.den
    return Fraction(2 * linalg.dot(y, gx) * den * den,
                    frame.form.gram_numerators[1] * ae * be)


def boundary_distance(frame, a: Vector, b: Vector) -> float:
    return math.sqrt(boundary_distance_sq(frame, a, b))


def phi(frame, a: Vector) -> Vector:
    """Boundary chart: A maps to (perp component of A) / (A.E), exact.

    Representative-invariant, and an isometry onto V with the Euclidean
    norm sqrt(-u.u).  On numerators x / dx with A.E = (x . gE) / (dx den)
    and perp = p / (dx det) from `FibrationFrame.split_numerators`, it is
    p den / (det (x . gE)).
    """
    x, _ = frame.form.numerators(a)
    c = frame.fixed
    ae = linalg.dot(x, c.gE)
    if ae == 0:
        raise CuspError("phi is undefined at the cusp")
    _, _, perp = frame.split_numerators(x)
    return tuple(Fraction(z * c.den, c.det * ae) for z in perp)


# -- upper half space --------------------------------------------------------

@dataclass(frozen=True)
class UpperHalfSpacePoint:
    """(x, z): x in chart coordinates, like wall circle centres; z > 0.
    Each entry is a `linalg.to_real` within a double's range, and z is
    positive as a double too: the maps and distances divide by it."""

    x: tuple
    z: float

    def __post_init__(self):
        for t in (*linalg._items(self.x, "chart point"), self.z):
            if not abs(linalg.to_real(t, "upper-half-space coordinate")
                       ) <= sys.float_info.max:
                raise InputError("upper-half-space coordinate is outside "
                                 "a double's range")
        if self.z <= 0:
            raise DomainError("upper-half-space height must be positive")
        if not float(self.z) > 0:
            raise InputError("upper-half-space height is below a double's "
                             "range")


def _uhs_point(point) -> UpperHalfSpacePoint:
    """point itself if it is an `UpperHalfSpacePoint`; `InputError` otherwise."""
    if not isinstance(point, UpperHalfSpacePoint):
        raise InputError(f"not an upper-half-space point: {point!r}")
    return point


def to_upper_half_space(frame, u) -> UpperHalfSpacePoint:
    """Point U = (w, v, y) in cusp coordinates, each entry taken exactly,
    maps to (y/w, sqrt(U.U)/w): the image of U / ||U||, so the map is
    scale-invariant and U need not lie on the hyperboloid.  U.U is one
    integer dot on the numerators `cusp_of` reads, rounded once; any finite
    U is in range (`_scaled_numerators`).  Needs U.E > 0 and U.U > 0
    (`DomainError`)."""
    a, da = _scaled_numerators(u, frame.form.dim)
    w, _, *y = frame.cusp_of(a, da)
    if w <= 0:
        raise DomainError("point does not pair positively with the fiber class")
    uu = linalg.dot(a, frame.form.images([a])[0])  # U.U = uu / (dg da^2)
    if uu <= 0:
        raise DomainError("point must lie inside the light cone")
    norm = math.sqrt(uu / (frame.form.gram_numerators[1] * da * da))
    return UpperHalfSpacePoint(tuple(t / w for t in y), norm / w)


def from_upper_half_space(frame, point: UpperHalfSpacePoint):
    """Inverse of `to_upper_half_space`, landing back on the hyperboloid:
    w = 1/z, y = w x and v = (1 + |y|^2) / (2w), so U.U = 2wv - |y|^2 = 1."""
    w = 1.0 / _uhs_point(point).z
    y = [t * w for t in point.x]
    return frame.from_cusp((w, (1.0 + sum(t * t for t in y)) / (2.0 * w), *y))


def uhs_distance(frame, p1: UpperHalfSpacePoint, p2: UpperHalfSpacePoint) -> float:
    """Distance from the Euclidean chord |(x1, z1) - (x2, z2)|, taken by
    `math.dist` and divided by 2 sqrt(z1) sqrt(z2): no square or product
    of coordinates leaves a double's range."""
    p1, p2 = _uhs_point(p1), _uhs_point(p2)
    r = frame.chart.dim
    if len(p1.x) != r or len(p2.x) != r:
        raise InputError("point does not match the chart dimension")
    chord = math.dist((*p1.x, p1.z), (*p2.x, p2.z))
    # cosh d = 1 + chord^2 / (2 z1 z2), so sinh(d/2) = chord / (2 sqrt(z1 z2))
    return 2.0 * math.asinh(chord / (2.0 * math.sqrt(p1.z) * math.sqrt(p2.z)))


# -- orthogonal axes and the Poincare ball ----------------------------------

class _Axes:
    """Coordinates on an orthogonal basis b_k, b_k.b_k = n_k != 0, of a
    form's space: t_k = (x.b_k) / (sign(n_k) sqrt|n_k|), and back
    sum_k (t_k / sqrt|n_k|) b_k.  The b_k are kept as integer rows over one
    denominator q with their integer Gram images, and sqrt|n_k| as doubles.
    """

    def __init__(self, form: IntersectionForm, basis, norms):
        rows, self._q = linalg.matrix_numerators(basis)
        # x.b_k = (a . g rows_k) / (da dg q) for x = a / da
        self._images = form.images(rows)
        self._den = form.gram_numerators[1] * self._q
        self._roots = [math.sqrt(abs(n)) for n in norms]
        self._signed = [r if n > 0 else -r for r, n in zip(self._roots, norms)]
        self._cols = [[row[j] for row in rows] for j in range(form.dim)]

    def coords(self, a, da) -> tuple:
        """t of x = a / da (integer numerators): per coordinate one integer
        dot, one integer quotient rounded once, and one division by a double,
        so a rescaled a gives the same doubles."""
        den = self._den * da
        return tuple(linalg.dot(a, h) / den / r
                     for h, r in zip(self._images, self._signed))

    def vector(self, t) -> tuple:
        """The float vector sum_k (t_k / sqrt|n_k|) b_k."""
        c = [tk / r for tk, r in zip(t, self._roots)]
        return tuple(sum(map(mul, c, col)) / self._q for col in self._cols)


class BallModel(_Axes):
    """Signature coordinates and Poincare-ball projection for a form.

    The axes are the columns of the form's exact `diagonalization`, the
    positive one first, the first negated when the ample class pairs
    negatively with it: x.x = w0^2 - |wvec|^2, and the ample class has
    positive time coordinate.  Renderings are therefore deterministic.
    """

    def __init__(self, form: IntersectionForm, ample: Vector):
        form.require_lorentzian()
        self.form = form
        self.ample = vector(ample)
        s, diag = form.diagonalization
        order = sorted(range(form.dim), key=lambda k: diag[k] < 0)
        basis = [[row[k] for row in s] for k in order]
        a, b = form.numerators(self.ample)[0], linalg.numerators(basis[0])[0]
        if linalg.dot(a, form.images([b])[0]) < 0:
            basis[0] = [-t for t in basis[0]]
        super().__init__(form, basis, [diag[k] for k in order])

    def signature_coords(self, x) -> tuple:
        """Real coordinates w with x.x = w0^2 - w1^2 - ... - w_{n-1}^2; each
        entry of x is taken exactly.  Linear, not scale-invariant: a w_k
        past the double range raises `OverflowError`."""
        return self.coords(*_exact_numerators(x, self.form.dim))

    def from_signature_coords(self, w):
        """Inverse of `signature_coords` (float lattice vector); each w_k is a
        `linalg.to_real`."""
        w = [linalg.to_real(t, "signature coordinate")
             for t in linalg._items(w, "signature coordinates")]
        if len(w) != self.form.dim:
            raise InputError("vector dimension does not match the form")
        return self.vector(w)

    def ball_point(self, x):
        """Project a closed-light-cone vector to the ball (interior) or sphere
        (null rays): w maps to wvec / (w0 + sqrt(x.x)), x.x one integer dot
        on x's exact numerators, rounded once; any finite x is in range
        (`_scaled_numerators`).  The cone check is relative: x.x may fall
        1e-9 max(w0^2, |wvec|^2) below 0, at any scale of x."""
        a, da = _scaled_numerators(x, self.form.dim)
        w0, *wvec = self.coords(a, da)
        dg = self.form.gram_numerators[1]
        q = linalg.dot(a, self.form.images([a])[0]) / (dg * da * da)
        scale2 = max(w0 * w0, sum(t * t for t in wvec))
        if w0 <= 0 or q < -1e-9 * scale2:
            raise DomainError("vector is outside the closed light cone")
        return tuple(t / (w0 + math.sqrt(max(q, 0.0))) for t in wvec)

    def null_lift(self, u):
        """Lift a unit-sphere point to a null lattice vector (float coords)."""
        return self.from_signature_coords((1.0, *linalg._items(u, "point")))


def ball_distance(b1, b2) -> float:
    """Distance in the open unit ball; `InputError`, `DomainError` off it."""
    b1, b2 = ([linalg.to_real(t, "ball point coordinate")
               for t in linalg._items(p, "ball point")] for p in (b1, b2))
    if len(b1) != len(b2):
        raise InputError("ball points must have one dimension")
    n1, n2 = (sum(t * t for t in p) for p in (b1, b2))
    if n1 >= 1.0 or n2 >= 1.0:
        raise DomainError("ball points must lie strictly inside the unit ball")
    d2 = sum((a - b) ** 2 for a, b in zip(b1, b2))
    # cosh d = 1 + 2 d2 / ((1 - n1)(1 - n2)), so sinh(d/2) = sqrt(d2 / ...)
    return 2.0 * math.asinh(math.sqrt(d2 / ((1.0 - n1) * (1.0 - n2))))


# -- Euclidean chart of the boundary subspace -------------------------------

class BoundaryChart(_Axes):
    """Orthonormal Euclidean coordinates on V = {x : x.E = x.P = 0}.

    Built from a deterministic exact basis of V and the exact
    `congruent_diagonalization` of its (negated, positive definite) Gram
    G.  With pivots in basis order that is G = L D L^T, so the map is
    Cholesky's: the columns of L^-T give orthogonal vectors b'_k in V with
    b'_k.b'_k = -d_k, and y_k = -(u.b'_k) / sqrt(d_k), so that the 2-norm
    of y equals sqrt(-u.u).  Built once, at construction.
    """

    def __init__(self, frame):
        self.form = form = frame.form
        self.basis = frame.boundary_basis
        s, diag = congruent_diagonalization(IntersectionForm(
            [[-form.inner(bi, bj) for bj in self.basis] for bi in self.basis]))
        if not all(d > 0 for d in diag):
            raise DomainError("boundary Gram is not positive definite")
        # b'_k = sum_i s_ik b_i, column k of s read in the basis of V
        ortho = [[sum(row[k] * b[j] for row, b in zip(s, self.basis))
                  for j in range(form.dim)] for k in range(len(diag))]
        super().__init__(form, ortho, [-d for d in diag])
        self.dim = len(diag)

    euclid_of = _Axes.coords  # on integer numerators a / da
    lattice = _Axes.vector  # sum_k e_k b'_k / sqrt(d_k), a float vector in V

    def euclid(self, u):
        """Euclidean coordinates; ||euclid(u)||_2 = sqrt(-u.u) for u in V.
        Linear: a coordinate past the double range raises `OverflowError`."""
        return self.coords(*self.form.numerators(u))
