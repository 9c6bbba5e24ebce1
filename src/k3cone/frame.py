"""Fibration frames: the distinguished classes of an elliptic-fibered lattice.

A frame bundles the fiber class [E], the zero section [O], an ample class,
and a set of boundary translation vectors v_1..v_r.  P denotes [O] + [E]
throughout: it is null, meets [E] once, and anchors the boundary
coordinate subspace

    V = { x : x.E = x.P = 0 },

on which the form is negative definite.

The exact work runs on integers the frame computes once (`fixed`): the
numerators of E, O, P and the ample class over one denominator, their
integer Gram images g C, and E.E, P.P, E.P.  A product x.C with one of
these classes is then one `form.numerators` of x (the form's one door for
exact vectors) and one integer dot, taken once per argument of a public
call; `Fraction`s are built only for what a call returns.  `decompose`
splits a class exactly as aP*P + aE*E + perp, perp in V, by Cramer's rule
on those products.  `cusp` gives the float cusp coordinates (w, v, y) of
an exact class, y its chart coordinates; `from_cusp` maps them back.
`section_map` gives the section translates D_m = T_w([O]) on integer
numerators, and the section classes D_i = T_{v_i}([O]) are its images of
the unit vectors (`sections`), derived on first read and cached; they are
not a constructor argument.  `check_section` is the one section check,
and `section_map` runs it once, on O, to prove every translate;
`fiber_orthogonal` is the one check of v.E = 0.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import NamedTuple

from . import involutions, linalg
from .errors import FrameError, InputError
from .lattice import IntersectionForm, signature
from .linalg import Vector, dot, vector
from .models import BoundaryChart


@dataclass(frozen=True)
class Decomposition:
    """Coordinates of A in the splitting A = aP*P + aE*E + perp."""

    aP: Fraction
    aE: Fraction
    perp: Vector


class FixedClasses(NamedTuple):
    """E, O, P and the ample class as integer numerators over one
    denominator q, with their integer Gram images g C.

    For x = a / da, x.C = (a . gC) / (da den) with den = dg q, and the
    product of two of these classes is (c . gC') / (den q): ee, pp and ep
    are those numerators of E.E, P.P and E.P, and det = ep^2 - ee pp that
    of (E.P)^2 - (E.E)(P.P) over (den q)^2.
    """

    E: tuple
    O: tuple
    P: tuple
    ample: tuple
    gE: tuple
    gO: tuple
    gP: tuple
    gA: tuple
    q: int
    den: int
    ee: int
    pp: int
    ep: int
    det: int


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    status: str  # "pass" | "fail" | "warn" | "assumed"
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def lines(self):
        return [f"{c.status:8s} {c.name}" + (f": {c.detail}" if c.detail else "")
                for c in self.checks]


@dataclass(frozen=True)
class FibrationFrame:
    """Distinguished data of an elliptic fibration on a Lorentzian lattice.

    The constructor coerces its vectors and checks their dimensions;
    `validate` reports on the geometric constraints so that broken frames
    can be diagnosed rather than rejected blindly.  Use
    `FibrationFrame.create` to build a frame with canonicalized
    translations whose section translates are checked when it is built.
    """

    form: IntersectionForm
    classE: Vector
    classO: Vector
    ample: Vector
    translations: tuple = ()

    def __post_init__(self):
        n = self.form.dim
        for name in ("classE", "classO", "ample"):
            v = vector(getattr(self, name))
            if len(v) != n:
                raise InputError(f"{name} has wrong dimension")
            object.__setattr__(self, name, v)
        translations = linalg.vectors(self.translations)
        for i, v in enumerate(translations):
            if len(v) != n:
                raise InputError(f"translation {i} has wrong dimension")
        object.__setattr__(self, "translations", translations)

    @classmethod
    def create(cls, form, classE, classO, ample, translations):
        """Canonicalize translations into V and derive the sections, so that
        a translate that is not a section class raises `FrameError` here.

        Every input is coerced once, by the constructor.  The translations
        are then replaced by their representatives in V; nothing that reads
        them has been built yet (`boundary_rep` reads only `fixed`).
        """
        frame = cls(form, classE, classO, ample, translations)
        object.__setattr__(frame, "translations", tuple(
            map(frame.boundary_rep, frame.translations)))
        frame.sections
        return frame

    @cached_property
    def fixed(self) -> FixedClasses:
        """E, O, P and the ample class on integers, built once per frame."""
        (e, o, amp), q = linalg.matrix_numerators(
            (self.classE, self.classO, self.ample))
        p = [x + y for x, y in zip(o, e)]
        classes = tuple(map(tuple, (e, o, p, amp)))
        images = tuple(map(tuple, self.form.images(classes)))
        ee, pp, ep = dot(e, images[0]), dot(p, images[2]), dot(e, images[2])
        return FixedClasses(*classes, *images, q,
                            self.form.gram_numerators[1] * q,
                            ee, pp, ep, ep * ep - ee * pp)

    @cached_property
    def sections(self) -> tuple:
        """The section translates D_i = T_{v_i}([O]), one per translation:
        the `section_map` images of the unit vectors, built once per frame;
        `FrameError` if `section_map` cannot prove them section classes."""
        image, den = self.section_map
        units = [tuple(int(i == j) for j in range(self.rank))
                 for i in range(self.rank)]
        return tuple(tuple(Fraction(x, den) for x in image(m)) for m in units)

    @property
    def rank(self) -> int:
        return len(self.translations)

    @cached_property
    def translation_numerators(self) -> tuple:
        """(numerators of v_1..v_r over one denominator qv, their integer
        Gram images, qv), built once per frame, like `fixed`."""
        vs, qv = linalg.matrix_numerators(self.translations)
        return vs, self.form.images(vs), qv

    @cached_property
    def _translates(self):
        """(m -> integer numerators of D_m = T_w([O]), unchecked; their
        denominator), for w = sum m_i v_i, built once per frame.

        At x = O the translation is D_m = O + k w - (a.m + k m^T h m) E with
        k = O.E (1 on a valid frame), a_i = O.v_i and h_ij = v_i.v_j/2.
        k and a come from `fixed`, h from one integer Gram product of the
        v_i; all three are put over one denominator s and reduced, so every
        D_m is an integer vector over the fixed q qv s: equal classes have
        equal numerators.
        """
        c = self.fixed
        dg = self.form.gram_numerators[1]
        vs, gv, qv = self.translation_numerators
        k = dot(c.O, c.gE)  # O.E = k / (dg q^2)
        # k, a_i and k h_ij over s = 2 qv^2 dg^2 q^2
        s = 2 * qv * qv * dg * dg * c.q * c.q
        ks = 2 * qv * qv * dg * k
        lin = [2 * qv * dg * c.q * dot(v, c.gO) for v in vs]
        quad = [[k * dot(vi, gj) for gj in gv] for vi in vs]
        g = gcd(s, ks, *lin, *[x for row in quad for x in row])
        s, ks = s // g, ks // g
        lin = [x // g for x in lin]
        quad = [[x // g for x in row] for row in quad]
        base = [qv * s * x for x in c.O]
        steps = [[ks * c.q * x for x in v] for v in vs]
        ev = [qv * x for x in c.E]

        def translate(ms):
            cs = sum(m * (a + dot(row, ms)) for m, a, row in zip(ms, lin, quad))
            d = [x - cs * y for x, y in zip(base, ev)]
            for m, step in zip(ms, steps):
                if m:
                    d = [x + m * y for x, y in zip(d, step)]
            return tuple(d)

        return translate, c.q * qv * s

    def check_section(self, x, dx):
        """`FrameError` unless D = x / dx has D.D = -2 and D.E = 1."""
        dg, c = self.form.gram_numerators[1], self.fixed
        if (dot(x, self.form.images([x])[0]) != -2 * dg * dx * dx
                or dot(x, c.gE) != dx * c.den):
            raise FrameError("not a section class (need D.D = -2, D.E = 1)")

    @cached_property
    def section_map(self):
        """(m -> integer numerators of D_m = T_w([O]), their denominator),
        for w = sum m_i v_i: `_translates`, proved once per frame.

        T_w fixes E and preserves the form whenever E.E = 0 and w.E = 0, so
        then D_w.D_w = O.O and D_w.E = O.E: every D_m is a section class if
        O is.  `FrameError` unless these three hold, on integers.
        """
        c = self.fixed
        if c.ee or any(dot(v, c.gE) for v in self.translation_numerators[0]):
            raise FrameError("translations need E.E = 0 and v_i.E = 0")
        self.check_section(c.O, c.q)
        return self._translates

    @cached_property
    def sigma0(self):
        """`involutions.sigma0_pullback(self)`, built once per frame: every
        `involutions.tau_pushforward` multiplies by its numerators."""
        return involutions.sigma0_pullback(self)

    # -- splitting ---------------------------------------------------------

    def split_numerators(self, a) -> tuple:
        """det (w, v, perp) for integer numerators a = w P + v E + perp:
        Cramer's rule on the products in `fixed`, with no division.
        `FrameError` on a degenerate (E, P) pair or unless perp is in V."""
        c = self.fixed
        if not c.det:
            raise FrameError("degenerate (E, P) pair: determinant 0")
        xe, xp = dot(a, c.gE), dot(a, c.gP)
        w = xe * c.ep - xp * c.ee
        v = xp * c.ep - xe * c.pp
        perp = tuple(c.det * x - w * p - v * e for x, p, e in zip(a, c.P, c.E))
        if dot(perp, c.gE) or dot(perp, c.gP):
            raise FrameError("perp component is not orthogonal to E and P")
        return w, v, perp

    def cusp(self, x) -> tuple:
        """`cusp_of` one `numerators` of an exact vector x."""
        return self.cusp_of(*self.form.numerators(x))

    def cusp_of(self, a, da) -> tuple:
        """Cusp coordinates (w, v, y) of x = a / da = wP + vE + sum y_k b_k in
        doubles, each an integer quotient rounded once; y is the chart of x."""
        w, v, _ = self.split_numerators(a)
        c = self.fixed
        den = da * c.det
        return (w * c.q / den, v * c.q / den, *self.chart.euclid_of(a, da))

    def from_cusp(self, cusp) -> tuple:
        """The float lattice vector wP + vE + `chart.lattice(y)` of cusp
        coordinates (w, v, y), read by `linalg.to_doubles` (`chart.dim` + 2
        entries): the inverse of `cusp`, in doubles."""
        w, v, *y = linalg.to_doubles(cusp, "cusp coordinate", self.chart.dim + 2)
        return self._from_cusp(w, v, y)

    def _from_cusp(self, w, v, y) -> tuple:
        """`from_cusp` without the entry checks, for points the package
        builds itself (the wall samples), y of length `chart.dim`."""
        c = self.fixed
        return tuple((w * p + v * e) / c.q + t
                     for p, e, t in zip(c.P, c.E, self.chart.lattice(y)))

    def decompose(self, x: Vector) -> Decomposition:
        """Split x = aP*P + aE*E + perp with perp.E = perp.P = 0, exactly:
        `split_numerators` of x = a / da, divided once by da det (and q)."""
        a, da = self.form.numerators(x)
        w, v, perp = self.split_numerators(a)
        c = self.fixed
        den = da * c.det
        return Decomposition(Fraction(w * c.q, den), Fraction(v * c.q, den),
                             tuple(Fraction(z, den) for z in perp))

    def fiber_orthogonal(self, v) -> tuple:
        """`form.numerators` (a, da) of v, the one check of v.E = 0 that
        translations need; `InputError` unless a . gE = 0."""
        a, da = self.form.numerators(v)
        if dot(a, self.fixed.gE):
            raise InputError("vector is not orthogonal to the fiber class")
        return a, da

    def boundary_rep(self, v: Vector) -> Vector:
        """The V-component of v = a / da, dropping the E-direction: the perp
        of `split_numerators` of `fiber_orthogonal(v)`, over da det."""
        a, da = self.fiber_orthogonal(v)
        den = da * self.fixed.det
        return tuple(Fraction(t, den) for t in self.split_numerators(a)[2])

    # -- boundary subspace -------------------------------------------------

    def perp_basis(self):
        """Deterministic exact basis of V = {x : x.E = x.P = 0}: the null
        space of the integer Gram images of E and P."""
        return linalg.nullspace((self.fixed.gE, self.fixed.gP))

    @cached_property
    def boundary_basis(self):
        """`perp_basis()`, computed once per frame."""
        return self.perp_basis()

    @cached_property
    def chart(self):
        """The default `BoundaryChart` on V, built once per frame."""
        return BoundaryChart(self)

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Report every frame constraint; computes each exact product once,
        on the integers of `fixed` and of the unchecked section translates."""
        checks = []
        c = self.fixed
        dg = self.form.gram_numerators[1]

        def check(name, ok, detail=""):
            checks.append(ValidationCheck(name, "pass" if ok else "fail", detail))

        def product(x, gy):
            return Fraction(dot(x, gy), c.den * c.q)

        pos, neg, zero = signature(self.form)
        check("lorentzian signature", (pos, neg, zero) == (1, self.form.dim - 1, 0),
              f"signature {(pos, neg, zero)}")
        ee, pp, pe = (Fraction(x, c.den * c.q) for x in (c.ee, c.pp, c.ep))
        ea, oo, oe = product(c.E, c.gA), product(c.O, c.gO), product(c.O, c.gE)
        aa, ao = product(c.ample, c.gA), product(c.ample, c.gO)
        check("fiber class null", ee == 0, f"E.E = {ee}")
        check("fiber meets ample", ea > 0, f"E.ample = {ea}")
        check("section self-intersection", oo == -2, f"O.O = {oo}")
        check("section meets fiber once", oe == 1, f"O.E = {oe}")
        check("P null", pp == 0, f"P.P = {pp}")
        check("P meets fiber once", pe == 1, f"P.E = {pe}")
        check("ample positivity", aa > 0, f"ample.ample = {aa}")
        check("ample vs zero section", ao > 0, f"ample.O = {ao}")

        for i, v in enumerate(self.translation_numerators[0]):
            ok = dot(v, c.gE) == 0 and dot(v, c.gP) == 0
            check(f"translation {i} in boundary subspace", ok)
        if self.translations:
            check("rank deficiency",
                  linalg.rank(self.translation_numerators[0]) == self.rank,
                  f"{self.rank} translation(s)")
            status = "pass" if self.rank == self.form.dim - 2 else "warn"
            checks.append(ValidationCheck(
                "maximal translation rank", status,
                f"rank {self.rank} of maximal {self.form.dim - 2}"))

        # the translates unchecked, so that each is reported, not raised
        translate, den = self._translates
        for i in range(self.rank):
            d = translate([int(i == j) for j in range(self.rank)])
            gd = self.form.images([d])[0]
            dd = Fraction(dot(d, gd), dg * den * den)
            ad = Fraction(dot(d, c.gA), c.den * den)
            do = Fraction(dot(d, c.gO), c.den * den)
            check(f"section class {i} self-intersection", dd == -2,
                  f"D.D = {dd}")
            check(f"section class {i} meets fiber once",
                  Fraction(dot(gd, c.E), c.den * den) == 1)
            check(f"ample vs section class {i}", ad > 0, f"ample.D = {ad}")
            if do < 0:
                checks.append(ValidationCheck(
                    f"section class {i} admissibility", "warn",
                    f"D.O = {do} < 0"))

        checks.append(ValidationCheck(
            "automorphism-group realization", "assumed",
            "whether the translations come from automorphisms is not "
            "decidable from lattice data"))
        return ValidationReport(tuple(checks))


def f4_frame() -> FibrationFrame:
    """The built-in rank-2 reference frame on basis (E, P, f1, f2).

    Gram [[0,1,0,0],[1,0,0,0],[0,0,-4,0],[0,0,0,-4]], zero section P - E,
    translations f1 and f2, ample 2E + P.  All frame invariants hold with
    disjoint section translates (D_i.O = 0).
    """
    form = IntersectionForm(linalg.matrix(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -4, 0], [0, 0, 0, -4]]))
    return FibrationFrame.create(
        form,
        classE=(1, 0, 0, 0),
        classO=(-1, 1, 0, 0),
        ample=(2, 1, 0, 0),
        translations=((0, 0, 1, 0), (0, 0, 0, 1)),
    )
