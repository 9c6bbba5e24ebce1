"""The frame's integer paths against a reference in `Fraction`s.

`FibrationFrame` computes its exact products on cached integer numerators
(`fixed`, `translation_numerators`, `section_map`); `models` and
`translations` read the same integers.  Every function here is compared
with a test-local reference built only from `IntersectionForm.inner` and
`Fraction` arithmetic, with `==`, on `configs/f4_frame.json`, on
`random_valid_frame` seeds 0-11 (dims 3-8), and on two `change_basis`
images of each random frame: a unimodular one, and one with rational
entries so that the Gram matrix and the classes have denominators.
"""

import gc
import itertools
import math
import pathlib
import random
import weakref
from fractions import Fraction
from functools import lru_cache

import pytest

from conftest import (change_basis, class_p, random_unimodular,
                      random_valid_frame)
from k3cone import (configio, heights, involutions, lattice, linalg, models,
                    translations)
from k3cone.errors import CuspError, DomainError, FrameError, InputError
from k3cone.frame import Decomposition, FibrationFrame
from k3cone.heights import SyntheticFibration, limit_experiment

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = range(12)


@lru_cache(maxsize=None)
def frames():
    out = {"f4": configio.load_frame(ROOT / "configs" / "f4_frame.json")}
    for seed in SEEDS:
        frame = random_valid_frame(seed, dim=3 + seed % 6)
        rng = random.Random(100 + seed)
        u = random_unimodular(rng, frame.form.dim)
        scale = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 5),
                          rng.randint(1, 4)) for _ in range(frame.form.dim)]
        rational = tuple(tuple(x * s for x, s in zip(row, scale)) for row in u)
        out[f"seed{seed}"] = frame
        out[f"seed{seed}-unimodular"] = change_basis(frame, u)
        out[f"seed{seed}-rational"] = change_basis(frame, rational)
    return out


FRAME_IDS = ["f4"] + [f"seed{s}{kind}" for s in SEEDS
                      for kind in ("", "-unimodular", "-rational")]


# -- the reference: IntersectionForm.inner and Fraction arithmetic only -----

def ref_split(frame, x):
    inner, e, p = frame.form.inner, frame.classE, class_p(frame)
    ee, pp, ep = inner(e, e), inner(p, p), inner(e, p)
    det = ep * ep - ee * pp
    xe, xp = inner(x, e), inner(x, p)
    w = (xe * ep - xp * ee) / det
    v = (xp * ep - xe * pp) / det
    return w, v, tuple(xi - w * pi - v * ei for xi, pi, ei in zip(x, p, e))


def ref_cusp(frame, x):
    """(w, v) rounded once, then the chart's Euclidean map of perp."""
    w, v, perp = ref_split(frame, x)
    return (float(w), float(v)) + frame.chart.euclid(perp)


def ref_boundary_rep(frame, v):
    inner, e = frame.form.inner, frame.classE
    shift = inner(v, class_p(frame)) / inner(e, class_p(frame))
    return tuple(x - shift * y for x, y in zip(v, e))


def ref_translate(frame, v):
    """T_v([O]) = O - (O.v + (O.E)(v.v)/2) E + (O.E) v, unchecked."""
    inner, o, e = frame.form.inner, frame.classO, frame.classE
    k = inner(o, e)
    c = inner(o, v) + k * inner(v, v) / 2
    return tuple(x - c * y + k * z for x, y, z in zip(o, e, v))


def ref_translation_sum(frame, ms):
    """w = sum m_i v_i over the frame's translations, in `Fraction`s."""
    return tuple(sum(m * v[j] for m, v in zip(ms, frame.translations))
                 for j in range(frame.form.dim))


def ref_vperp_rep(frame, d):
    inner, o, e = frame.form.inner, frame.classO, frame.classE
    c = 2 + inner(d, o)
    return tuple(x - y - c * z for x, y, z in zip(d, o, e))


def ref_validate_lines(frame):
    """The report `FibrationFrame.validate` prints, product by product."""
    inner = frame.form.inner
    e, o, amp, p = frame.classE, frame.classO, frame.ample, class_p(frame)
    dim, r = frame.form.dim, frame.rank
    lines = []

    def line(name, ok, detail="", status=None):
        status = status or ("pass" if ok else "fail")
        lines.append(f"{status:8s} {name}" + (f": {detail}" if detail else ""))

    sig = lattice.signature(frame.form)
    line("lorentzian signature", sig == (1, dim - 1, 0), f"signature {sig}")
    ee, ea, oo, oe = inner(e, e), inner(e, amp), inner(o, o), inner(o, e)
    pp, pe, aa, ao = inner(p, p), inner(p, e), inner(amp, amp), inner(amp, o)
    line("fiber class null", ee == 0, f"E.E = {ee}")
    line("fiber meets ample", ea > 0, f"E.ample = {ea}")
    line("section self-intersection", oo == -2, f"O.O = {oo}")
    line("section meets fiber once", oe == 1, f"O.E = {oe}")
    line("P null", pp == 0, f"P.P = {pp}")
    line("P meets fiber once", pe == 1, f"P.E = {pe}")
    line("ample positivity", aa > 0, f"ample.ample = {aa}")
    line("ample vs zero section", ao > 0, f"ample.O = {ao}")
    for i, v in enumerate(frame.translations):
        line(f"translation {i} in boundary subspace",
             inner(v, e) == 0 and inner(v, p) == 0)
    if r:
        line("rank deficiency",
             linalg.rank(linalg.matrix(frame.translations)) == r,
             f"{r} translation(s)")
        line("maximal translation rank", None,
             f"rank {r} of maximal {dim - 2}",
             status="pass" if r == dim - 2 else "warn")
    for i, v in enumerate(frame.translations):
        d = ref_translate(frame, v)
        dd, ad, do = inner(d, d), inner(amp, d), inner(d, o)
        line(f"section class {i} self-intersection", dd == -2, f"D.D = {dd}")
        line(f"section class {i} meets fiber once", inner(d, e) == 1)
        line(f"ample vs section class {i}", ad > 0, f"ample.D = {ad}")
        if do < 0:
            line(f"section class {i} admissibility", None, f"D.O = {do} < 0",
                 status="warn")
    line("automorphism-group realization", None,
         "whether the translations come from automorphisms is not "
         "decidable from lattice data", status="assumed")
    return lines


# -- inputs ----------------------------------------------------------------

def random_rational(rng, n, size=9):
    return tuple(Fraction(rng.randint(-size, size), rng.randint(1, 7))
                 for _ in range(n))


def in_boundary(frame, rng):
    """A random rational combination of the basis of V."""
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
              for _ in frame.boundary_basis]
    return tuple(sum(c * b[i] for c, b in zip(coeffs, frame.boundary_basis))
                 for i in range(frame.form.dim))


def orthogonal_to_fiber(frame, rng):
    shift = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return linalg.vec_add(in_boundary(frame, rng),
                          linalg.vec_scale(shift, frame.classE))


def boundary_class(frame, rng):
    """A rational null class t (P + aE E + u), u in V and t > 0, on the
    ample side, as the benchmark draws them; aE = -u.u/2 makes it null."""
    u = in_boundary(frame, rng)
    a_e = -frame.form.norm2(u) / 2
    a = linalg.vec_add(linalg.vec_add(class_p(frame),
                                      linalg.vec_scale(a_e, frame.classE)), u)
    return linalg.vec_scale(Fraction(rng.randint(1, 7), rng.randint(1, 5)), a)


# -- the comparisons ---------------------------------------------------------

@pytest.mark.parametrize("name", FRAME_IDS)
def test_splitting_matches_reference(name):
    frame = frames()[name]
    rng = random.Random(name)
    xs = [random_rational(rng, frame.form.dim) for _ in range(8)]
    for x in xs + [frame.ample, frame.classO, frame.classE, class_p(frame)]:
        assert frame.decompose(x) == Decomposition(*ref_split(frame, x))
    for _ in range(4):
        v = orthogonal_to_fiber(frame, rng)
        assert frame.boundary_rep(v) == ref_boundary_rep(frame, v)


@pytest.mark.parametrize("name", FRAME_IDS)
def test_chart_of_a_class_is_that_of_its_perp(name):
    """The chart kills E and P, so `cusp` reads y off the class itself."""
    frame = frames()[name]
    chart = frame.chart
    rng = random.Random(name)
    xs = [random_rational(rng, frame.form.dim) for _ in range(8)]
    for x in xs + [frame.ample, frame.classO, frame.classE, class_p(frame)]:
        perp = ref_split(frame, x)[2]
        assert chart.euclid(x) == chart.euclid(perp)
        assert frame.cusp(x) == ref_cusp(frame, x)
    assert not any(chart.euclid(frame.classE))
    assert not any(chart.euclid(class_p(frame)))


@pytest.mark.parametrize("name", FRAME_IDS)
def test_section_classes_match_reference(name):
    frame = frames()[name]
    rng = random.Random(name)
    want = tuple(ref_translate(frame, v) for v in frame.translations)
    assert frame.sections == want
    for v, d in zip(frame.translations, want):
        assert ref_vperp_rep(frame, d) == v
    for _ in range(4):
        w = orthogonal_to_fiber(frame, rng)
        assert translations.section_translate(frame, w) == ref_translate(frame, w)
    image, den = frame.section_map
    seen = {}
    box = range(-2, 3) if frame.rank <= 3 else range(-1, 2)
    for ms in itertools.product(box, repeat=frame.rank):
        d = image(ms)
        d_ref = ref_translate(frame, ref_translation_sum(frame, ms))
        assert tuple(Fraction(x, den) for x in d) == d_ref
        # one fixed denominator: equal classes have equal numerators
        assert seen.setdefault(d_ref, d) == d


@pytest.mark.parametrize("name", FRAME_IDS)
def test_validate_matches_reference(name):
    frame = frames()[name]
    assert frame.validate().lines() == ref_validate_lines(frame)


@pytest.mark.parametrize("classO", [(0, 1, 0, 0), (-1, 2, 0, 0), (1, 0, 0, 0)])
def test_validate_matches_reference_on_broken_frames(classO):
    f4 = frames()["f4"]
    broken = FibrationFrame(f4.form, f4.classE, classO, f4.ample,
                            f4.translations)
    lines = broken.validate().lines()
    assert lines == ref_validate_lines(broken)
    assert any(line.startswith("fail") for line in lines)


@pytest.mark.parametrize("name", FRAME_IDS)
def test_limit_target_matches_reference(name):
    """`limit_experiment`'s target -v_i.v_j, one integer dot rounded once,
    is the float of the exact `Fraction` product, and never -0.0."""
    frame = frames()[name]
    fib = SyntheticFibration(frame, (10.0,))
    vs = frame.translations
    for i, j in itertools.product(range(frame.rank), repeat=2):
        want = float(-frame.form.inner(vs[i], vs[j]))
        [row] = limit_experiment(fib, i, j, frame.ample, 1)
        assert row.target == want
        assert math.copysign(1.0, row.target) == math.copysign(1.0, want)


@pytest.mark.parametrize("name", FRAME_IDS)
def test_boundary_metric_matches_reference(name):
    frame = frames()[name]
    rng = random.Random(name)
    inner, e = frame.form.inner, frame.classE
    classes = [boundary_class(frame, rng) for _ in range(4)]
    with pytest.raises(CuspError):
        models.check_boundary_class(frame, linalg.vec_scale(3, e))
    for a in classes:
        assert models.check_boundary_class(frame, a) == a
        with pytest.raises(DomainError, match="must lie on the ample side"):
            models.check_boundary_class(frame, linalg.vec_scale(-1, a))
        with pytest.raises(DomainError, match="must be null"):
            models.check_boundary_class(frame, linalg.vec_add(a, e))
        want = tuple(x / inner(a, e) for x in ref_split(frame, a)[2])
        assert models.phi(frame, a) == want
        for b in classes:
            assert models.boundary_distance_sq(frame, a, b) == (
                2 * inner(a, b) / (inner(a, e) * inner(b, e)))


@pytest.mark.parametrize("name", FRAME_IDS)
def test_cauchy_schwarz_matches_reference(name):
    """The verdict equals (u.v)^2 <= (u'.u')(v'.v') on the perps of
    `ref_split`, on random pairs and on the equality cases v = c u + t E."""
    from k3cone import cauchy_schwarz_check
    frame = frames()[name]
    rng = random.Random(name)
    inner, e = frame.form.inner, frame.classE
    for k in range(8):
        u = orthogonal_to_fiber(frame, rng)
        v = (orthogonal_to_fiber(frame, rng) if k % 2 else linalg.vec_add(
            linalg.vec_scale(Fraction(rng.randint(-5, 5), 3), u),
            linalg.vec_scale(rng.randint(-3, 3), e)))
        pu, pv = ref_split(frame, u)[2], ref_split(frame, v)[2]
        want = inner(u, v) ** 2 <= inner(pu, pu) * inner(pv, pv)
        assert cauchy_schwarz_check(frame, u, v) is want


SECTION_ERROR = r"not a section class \(need D\.D = -2, D\.E = 1\)"


@pytest.mark.parametrize("name", ["f4", "seed3", "seed5-rational"])
def test_every_section_check_rejects_a_corrupted_section(name):
    """`check_section` is the one section-class check: each caller rejects
    a corrupted section with its message.  D + E has D.D = 0; O + E makes
    every translate of O fail too."""
    frame = frames()[name]
    bad = linalg.vec_add(frame.sections[0], frame.classE)
    with pytest.raises(FrameError, match=SECTION_ERROR):
        involutions.sigma_i_pullback(frame, bad)
    shifted = FibrationFrame(frame.form, frame.classE, class_p(frame),
                             frame.ample, frame.translations)
    with pytest.raises(FrameError, match=SECTION_ERROR):
        shifted.section_map[0]((1,) + (0,) * (frame.rank - 1))
    with pytest.raises(FrameError, match=SECTION_ERROR):
        translations.section_translate(shifted, frame.translations[0])


@pytest.mark.parametrize("call", [
    translations.translation,
    translations.section_translate,
    FibrationFrame.boundary_rep,
    lambda frame, v: heights.cauchy_schwarz_check(
        frame, frame.translations[0], v),
], ids=["translation", "section_translate", "boundary_rep",
        "cauchy_schwarz_check"])
def test_fiber_orthogonality_has_one_check(call):
    """`fiber_orthogonal` is the one check of v.E = 0: every caller
    rejects v = O, which has O.E = 1, with its `InputError`."""
    frame = frames()["f4"]
    with pytest.raises(InputError) as exc:
        call(frame, frame.classO)
    assert str(exc.value) == "vector is not orthogonal to the fiber class"


@pytest.mark.parametrize("name", ["f4", "seed3", "seed5-rational"])
def test_section_translate_reads_the_frame_proof(monkeypatch, name):
    """Once `section_map` is read, `section_translate` checks no section
    class again, and still gives the reference translate."""
    frame = frames()[name]
    frame.section_map
    calls = []
    check = FibrationFrame.check_section

    def counting(self, x, dx):
        calls.append(dx)
        return check(self, x, dx)

    monkeypatch.setattr(FibrationFrame, "check_section", counting)
    rng = random.Random(name)
    for _ in range(4):
        w = orthogonal_to_fiber(frame, rng)
        assert translations.section_translate(frame, w) == ref_translate(frame, w)
    assert calls == []


def test_frame_caches_hold_no_reference_cycle():
    """The cached closures hold integers and the form, never the frame,
    so a frame is freed by reference counting alone."""
    frame = random_valid_frame(5, dim=6)
    x = frame.ample
    frame.decompose(x)
    frame.from_cusp(frame.cusp(x))
    frame.section_map[0]((1,) * frame.rank)
    assert frame.sections and frame.validate().passed
    models.phi(frame, class_p(frame))
    ref = weakref.ref(frame)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del frame
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
