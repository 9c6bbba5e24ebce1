"""Fibration frames: the distinguished classes of an elliptic-fibered lattice.

A frame bundles the fiber class [E], the zero section [O], an ample class,
and a set of boundary translation vectors v_1..v_r.  The section translates
D_i = T_{v_i}([O]) are derived from the v_i on first read and cached
(`sections`); they are not a constructor argument.  P denotes [O] + [E]
throughout: it is null, meets [E] once, and anchors the boundary
coordinate subspace

    V = { x : x.E = x.P = 0 },

on which the form is negative definite.  A class splits as aP*P + aE*E +
perp with perp in V by `split` (exact) or `split_f` (float), built once.
`cusp` gives the float cusp coordinates (w, v, y) of an exact class, with
y the chart coordinates of perp.  `section_map`, also built once, gives
the section translates D_m = T_w([O]) on integer numerators.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from operator import mul

from . import involutions, linalg
from .errors import FrameError, InputError
from .lattice import IntersectionForm, plane_splitting, signature
from .linalg import Matrix, Vector, vector
from .models import BoundaryChart, inner_f
from .translations import section_translate, translation_image


@dataclass(frozen=True)
class Decomposition:
    """Coordinates of A in the splitting A = aP*P + aE*E + perp."""

    aP: Fraction
    aE: Fraction
    perp: Vector


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

    def failures(self):
        return [c for c in self.checks if c.status == "fail"]

    def lines(self):
        return [f"{c.status:8s} {c.name}" + (f": {c.detail}" if c.detail else "")
                for c in self.checks]


@dataclass(frozen=True)
class FibrationFrame:
    """Distinguished data of an elliptic fibration on a Lorentzian lattice.

    The constructor only checks dimensions; `validate` reports on the
    geometric constraints so that broken frames can be diagnosed rather
    than rejected blindly.  Use `FibrationFrame.create` to build a frame
    with canonicalized translations whose section translates are checked
    when it is built.
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
        object.__setattr__(self, "translations",
                           tuple(vector(v) for v in self.translations))

    @classmethod
    def create(cls, form, classE, classO, ample, translations):
        """Canonicalize translations into V and derive the sections, so that
        a translate that is not a section class raises `FrameError` here."""
        proto = cls(form, classE, classO, ample)
        frame = cls(form, classE, classO, ample,
                    tuple(proto.boundary_rep(v) for v in translations))
        frame.sections
        return frame

    @cached_property
    def sections(self) -> tuple:
        """The section translates D_i = T_{v_i}([O]), one per translation,
        built once per frame; `FrameError` if one is not a section class."""
        return tuple(section_translate(self, v) for v in self.translations)

    @cached_property
    def classP(self) -> Vector:
        return linalg.vec_add(self.classO, self.classE)

    @cached_property
    def classE_f(self) -> tuple:
        return tuple(float(c) for c in self.classE)

    @cached_property
    def classP_f(self) -> tuple:
        return tuple(float(c) for c in self.classP)

    @property
    def rank(self) -> int:
        return len(self.translations)

    def translation_sum(self, ms) -> Vector:
        """w = sum m_i v_i over the frame's translation vectors."""
        w = linalg.zero_vector(self.form.dim)
        for m, v in zip(ms, self.translations):
            w = linalg.vec_add(w, linalg.vec_scale(m, v))
        return w

    @cached_property
    def section_map(self):
        """(m -> integer numerators of D_m = T_w([O]), their denominator),
        for w = sum m_i v_i, built once per frame.

        At x = O the translation is D_m = O + k w - (a.m + k m^T h m) E with
        k = O.E (1 on a valid frame), a_i = O.v_i and h_ij = v_i.v_j/2.
        O, E and the v_i are numerators over one denominator q, the
        scalars k, a and k h over a second s, so every D_m is an integer
        vector over the fixed q s: equal classes have equal numerators.
        Each image is checked on the integer Gram, D.D = -2 and D.E = 1,
        and raises the `FrameError` of `translations.section_translate`.
        """
        inner = self.form.inner
        gram, dg = self.form.gram_numerators
        vs = self.translations
        k = inner(self.classO, self.classE)
        (o, e, *v_num), q = linalg.matrix_numerators(
            (self.classO, self.classE) + vs)
        # rows of different lengths: (k, a_1..a_r), then the rows of k h
        ((k_num, *lin), *quad), s = linalg.matrix_numerators(
            [[k] + [inner(self.classO, v) for v in vs]]
            + [[k * inner(vi, vj) / 2 for vj in vs] for vi in vs])
        base = [s * x for x in o]
        steps = [[k_num * x for x in v] for v in v_num]
        den = q * s
        dd, de = -2 * dg * den * den, dg * den * q

        def image(ms):
            c = sum(m * (a + sum(map(mul, row, ms)))
                    for m, a, row in zip(ms, lin, quad))
            d = [x - c * y for x, y in zip(base, e)]
            for m, step in zip(ms, steps):
                if m:
                    d = [x + m * y for x, y in zip(d, step)]
            gd = [sum(map(mul, row, d)) for row in gram]
            if sum(map(mul, d, gd)) != dd or sum(map(mul, gd, e)) != de:
                raise FrameError(
                    "translated section is not a section class; frame invalid")
            return tuple(d)

        return image, den

    @cached_property
    def sigma0(self):
        """`involutions.sigma0_pullback(self)`, built once per frame: every
        `involutions.tau_pushforward` multiplies by its numerators."""
        return involutions.sigma0_pullback(self)

    # -- splitting ---------------------------------------------------------

    @cached_property
    def split(self):
        """x -> (aP, aE, perp), exact: `plane_splitting` over the form."""
        return plane_splitting(self.form.inner, self.classE, self.classP)

    @cached_property
    def split_f(self):
        """x -> (w, v, perp) in double precision, over `models.inner_f`."""
        return plane_splitting(partial(inner_f, self.form),
                               self.classE_f, self.classP_f)

    def cusp(self, x) -> tuple:
        """Cusp coordinates (w, v, y) of x = wP + vE + sum y_k b_k in doubles:
        the exact `split`, then `chart.euclid` of perp, rounded once."""
        w, v, perp = self.split(vector(x))
        return (float(w), float(v)) + self.chart.euclid(perp)

    def decompose(self, a: Vector) -> Decomposition:
        """Split A = aP*P + aE*E + perp with perp.E = perp.P = 0, exactly."""
        aP, aE, perp = self.split(vector(a))
        if (self.form.inner(perp, self.classE) != 0
                or self.form.inner(perp, self.classP) != 0):
            raise FrameError("perp component is not orthogonal to E and P")
        return Decomposition(aP, aE, perp)

    def reassemble(self, d: Decomposition) -> Vector:
        return linalg.vec_add(
            linalg.vec_add(linalg.vec_scale(d.aP, self.classP),
                           linalg.vec_scale(d.aE, self.classE)),
            d.perp)

    def boundary_rep(self, v: Vector) -> Vector:
        """The V-component of v (requires v.E = 0); drops the E-direction."""
        v = vector(v)
        if self.form.inner(v, self.classE) != 0:
            raise InputError("vector is not orthogonal to the fiber class")
        ep = self.form.inner(self.classE, self.classP)
        if ep == 0:
            raise FrameError("fiber class is orthogonal to P = O + E")
        shift = self.form.inner(v, self.classP) / ep
        return linalg.vec_sub(v, linalg.vec_scale(shift, self.classE))

    def vperp_rep(self, di: Vector) -> Vector:
        """Translation vector recovered from a section class:

            v = D_i - [O] - (2 + D_i.[O]) E.
        """
        di = vector(di)
        if self.form.norm2(di) != -2 or self.form.inner(di, self.classE) != 1:
            raise FrameError("not a section class (need D.D = -2, D.E = 1)")
        c = 2 + self.form.inner(di, self.classO)
        v = linalg.vec_sub(linalg.vec_sub(di, self.classO),
                           linalg.vec_scale(c, self.classE))
        if (self.form.inner(v, self.classE) != 0
                or self.form.inner(v, self.classP) != 0):
            raise FrameError("recovered vector is not in the boundary subspace")
        return v

    # -- boundary subspace -------------------------------------------------

    def perp_basis(self):
        """Deterministic exact basis of V = {x : x.E = x.P = 0}."""
        constraints = linalg.matrix([
            linalg.mat_vec(self.form.gram, self.classE),
            linalg.mat_vec(self.form.gram, self.classP),
        ])
        return linalg.nullspace(constraints)

    @cached_property
    def boundary_basis(self):
        """`perp_basis()`, computed once per frame."""
        return self.perp_basis()

    @cached_property
    def chart(self):
        """The default `BoundaryChart` on V, built once per frame."""
        return BoundaryChart(self)

    def change_basis(self, u: Matrix) -> "FibrationFrame":
        """Transport the frame through the basis change with matrix u.

        Columns of u are the old coordinates of the new basis vectors; the
        gram matrix becomes u^T J u and vectors pick up coordinates u^-1 x.
        """
        u = linalg.matrix(u)
        u_inv = linalg.inverse(u)
        new_form = IntersectionForm(
            linalg.mat_mul(linalg.transpose(u), linalg.mat_mul(self.form.gram, u)))
        mv = lambda x: linalg.mat_vec(u_inv, x)
        return FibrationFrame(new_form, mv(self.classE), mv(self.classO),
                              mv(self.ample),
                              tuple(mv(v) for v in self.translations))

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidationReport:
        checks = []
        inner, norm2 = self.form.inner, self.form.norm2
        e, o, amp, p = self.classE, self.classO, self.ample, self.classP

        def check(name, ok, detail=""):
            checks.append(ValidationCheck(name, "pass" if ok else "fail", detail))

        pos, neg, zero = signature(self.form)
        check("lorentzian signature", (pos, neg, zero) == (1, self.form.dim - 1, 0),
              f"signature {(pos, neg, zero)}")
        ee, ea, oo, oe = norm2(e), inner(e, amp), norm2(o), inner(o, e)
        pp, pe, aa, ao = norm2(p), inner(p, e), norm2(amp), inner(amp, o)
        check("fiber class null", ee == 0, f"E.E = {ee}")
        check("fiber meets ample", ea > 0, f"E.ample = {ea}")
        check("section self-intersection", oo == -2, f"O.O = {oo}")
        check("section meets fiber once", oe == 1, f"O.E = {oe}")
        check("P null", pp == 0, f"P.P = {pp}")
        check("P meets fiber once", pe == 1, f"P.E = {pe}")
        check("ample positivity", aa > 0, f"ample.ample = {aa}")
        check("ample vs zero section", ao > 0, f"ample.O = {ao}")

        for i, v in enumerate(self.translations):
            ok = inner(v, e) == 0 and inner(v, p) == 0
            check(f"translation {i} in boundary subspace", ok)
        if self.translations:
            check("rank deficiency",
                  linalg.rank(linalg.matrix(self.translations)) == self.rank,
                  f"{self.rank} translation(s)")
            status = "pass" if self.rank == self.form.dim - 2 else "warn"
            checks.append(ValidationCheck(
                "maximal translation rank", status,
                f"rank {self.rank} of maximal {self.form.dim - 2}"))

        try:
            sections = self.sections
        except FrameError:
            # report each translate below instead of raising
            sections = tuple(translation_image(self.form, e, v, o)
                             for v in self.translations)
        for i, d in enumerate(sections):
            dd, ad, do = norm2(d), inner(amp, d), inner(d, o)
            check(f"section class {i} self-intersection", dd == -2,
                  f"D.D = {dd}")
            check(f"section class {i} meets fiber once", inner(d, e) == 1)
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
