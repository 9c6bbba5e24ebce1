import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (change_basis, class_p, mat_vec,
                      random_orthogonal_to_fiber, random_unimodular,
                      random_valid_frame, reassemble, solve)
from k3cone import configio, involutions, lattice, linalg, walls
from k3cone.errors import FrameError, InputError
from k3cone.frame import FibrationFrame
from k3cone.lattice import IntersectionForm
from k3cone.models import BallModel

F4_DOC = {
    "gram": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -4, 0], [0, 0, 0, -4]],
    "E": [1, 0, 0, 0],
    "O": [-1, 1, 0, 0],
    "ample": [2, 1, 0, 0],
    "translations": [[0, 0, 1, 0], [0, 0, 0, 1]],
}


def test_f4_frame_invariants(f4):
    form = f4.form
    assert form.norm2(f4.classE) == 0
    assert form.norm2(f4.classO) == -2
    assert form.inner(f4.classO, f4.classE) == 1
    assert form.norm2(class_p(f4)) == 0
    assert form.inner(class_p(f4), f4.classE) == 1
    assert f4.sections == ((1, 1, 1, 0), (1, 1, 0, 1))
    assert f4.validate().passed


def test_decompose_reassemble_round_trip(f4):
    rng = random.Random(2)
    for _ in range(25):
        a = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                  for _ in range(4))
        dec = f4.decompose(a)
        assert reassemble(f4, dec) == a
        assert f4.form.inner(dec.perp, f4.classE) == 0
        assert f4.form.inner(dec.perp, class_p(f4)) == 0


@given(st.integers(0, 10 ** 6), st.integers(3, 8), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_splitting_round_trips(seed, dim, vec_seed):
    """Exact decompose round-trips on valid frames and on a nondegenerate
    frame whose E is not null."""
    frame = random_valid_frame(seed, dim=dim)
    rng = random.Random(vec_seed)
    a = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7))
              for _ in range(dim))
    # E' = E + b with b in V: E'.E' = b.b < 0 and the plane has
    # determinant 1 + 2 b.b, nonzero once b.b != -1/2
    b = frame.boundary_basis[0]
    if frame.form.norm2(b) == Fraction(-1, 2):
        b = linalg.vec_scale(2, b)
    skew = FibrationFrame(frame.form, linalg.vec_add(frame.classE, b),
                          frame.classO, frame.ample)
    assert skew.form.norm2(skew.classE) < 0
    for fr in (frame, skew):
        inner, e, p = fr.form.inner, fr.classE, class_p(fr)
        dec = fr.decompose(a)
        assert reassemble(fr, dec) == a
        assert inner(dec.perp, e) == 0 and inner(dec.perp, p) == 0
        # the 2x2 system the splitting solves, by an independent solver
        assert (dec.aP, dec.aE) == solve(
            [[inner(p, e), inner(e, e)], [inner(p, p), inner(e, p)]],
            (inner(a, e), inner(a, p)))


def test_decompose_example(f4):
    # 2E + P + f1 splits as 1*P + 2*E + f1
    dec = f4.decompose((2, 1, 1, 0))
    assert (dec.aP, dec.aE) == (1, 2)
    assert dec.perp == (0, 0, 1, 0)


def test_boundary_rep_drops_fiber_direction(f4):
    v = (5, 0, 1, 0)  # f1 + 5E, orthogonal to E
    assert f4.boundary_rep(v) == (0, 0, 1, 0)
    with pytest.raises(InputError):
        f4.boundary_rep(f4.classO)


def test_perp_basis_orthogonality():
    for seed in range(4):
        frame = random_valid_frame(seed, dim=4 + seed % 3)
        basis = frame.perp_basis()
        assert len(basis) == frame.form.dim - 2
        for b in basis:
            assert frame.form.inner(b, frame.classE) == 0
            assert frame.form.inner(b, class_p(frame)) == 0
        assert linalg.rank(linalg.matrix(basis)) == len(basis)


def test_change_basis_preserves_products(f4):
    rng = random.Random(9)
    u = random_unimodular(rng, 4)
    moved = change_basis(f4, u)
    assert moved.form.norm2(moved.classO) == -2
    assert moved.form.inner(moved.classO, moved.classE) == 1
    for v, mv in zip(f4.translations, moved.translations):
        assert f4.form.norm2(v) == moved.form.norm2(mv)
    u_inv = linalg.inverse(u)
    assert moved.sections == tuple(mat_vec(u_inv, d)
                                   for d in f4.sections)
    assert moved.validate().passed


def test_validate_reports_broken_frame(f4):
    broken = FibrationFrame(f4.form, f4.classE, f4.classE, f4.ample)
    report = broken.validate()
    assert not report.passed
    names = {c.name for c in report.checks if c.status == "fail"}
    assert "section self-intersection" in names
    # O = P is null, so no translate of it is a section class: the report
    # names each translate instead of raising
    translated = FibrationFrame(f4.form, f4.classE, (0, 1, 0, 0), f4.ample,
                                f4.translations)
    report = translated.validate()
    assert not report.passed
    names = {c.name for c in report.checks if c.status == "fail"}
    assert {"section class 0 self-intersection",
            "section class 1 self-intersection"} <= names


def test_constructor_checks_translation_dimension(f4):
    # a short translation fails at construction, like a short E, O or ample
    with pytest.raises(InputError, match="translation 0 has wrong dimension"):
        FibrationFrame(f4.form, f4.classE, f4.classO, f4.ample, [(0, 0, 1)])
    with pytest.raises(InputError, match="translation 1 has wrong dimension"):
        FibrationFrame.create(f4.form, f4.classE, f4.classO, f4.ample,
                              [(0, 0, 1, 0), (0, 0, 0, 1, 0)])


def test_validate_warns_on_partial_rank():
    form = IntersectionForm(linalg.matrix(F4_DOC["gram"]))
    frame = FibrationFrame.create(form, (1, 0, 0, 0), (-1, 1, 0, 0),
                                  (2, 1, 0, 0), [(0, 0, 1, 0)])
    report = frame.validate()
    assert report.passed
    warn = [c for c in report.checks if c.name == "maximal translation rank"]
    assert warn and warn[0].status == "warn"


def test_random_frames_validate():
    for seed in range(8):
        frame = random_valid_frame(seed, dim=4 + seed % 3)
        assert frame.validate().passed


def test_cauchy_schwarz_exact(f4):
    from k3cone import cauchy_schwarz_check
    rng = random.Random(13)
    for _ in range(30):
        u = random_orthogonal_to_fiber(f4, rng)
        v = random_orthogonal_to_fiber(f4, rng)
        assert cauchy_schwarz_check(f4, u, v)
        # invariance under E-shifts of either argument
        shifted = linalg.vec_add(u, linalg.vec_scale(3, f4.classE))
        assert cauchy_schwarz_check(f4, shifted, v)


def _indefinite_frame():
    """U + <1> + <-1>: V = {x : x.E = x.P = 0} is indefinite, so the
    Cauchy-Schwarz verdict can be False there."""
    form = IntersectionForm([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0],
                             [0, 0, 0, -1]])
    return FibrationFrame(form, (1, 0, 0, 0), (-1, 1, 0, 0), (1, 2, 0, 0))


# (u, v, verdict) on `_indefinite_frame`: two null vectors with u.v = 2;
# u.u = 3, v.v = 1 and u.v = 2; u = v
INDEFINITE_CASES = [((0, 0, 1, 1), (0, 0, 1, -1), False),
                    ((0, 0, 2, 1), (0, 0, 1, 0), False),
                    ((0, 0, 1, 1), (0, 0, 1, 1), True)]


def test_cauchy_schwarz_can_fail_on_an_indefinite_boundary():
    from k3cone import cauchy_schwarz_check
    frame = _indefinite_frame()
    for u, v, verdict in INDEFINITE_CASES:
        assert cauchy_schwarz_check(frame, u, v) is verdict
    # the same vectors in a rational basis: the frame's classes then have a
    # denominator q > 1 and det = (E.P)^2 - (E.E)(P.P) has numerator != +-1
    m = [[Fraction(3, 2), 1, 0, 0], [0, Fraction(5, 3), 0, 1],
         [1, 0, Fraction(7, 4), 0], [0, 2, 1, Fraction(1, 2)]]
    scrambled = change_basis(frame, m)
    assert scrambled.fixed.q > 1 and abs(scrambled.fixed.det) != 1
    m_inv = linalg.inverse(linalg.matrix(m))
    for u, v, verdict in INDEFINITE_CASES:
        assert cauchy_schwarz_check(scrambled, mat_vec(m_inv, u),
                                    mat_vec(m_inv, v)) is verdict


def test_cauchy_schwarz_rejects_arguments_not_orthogonal_to_the_fiber(f4):
    from k3cone import cauchy_schwarz_check
    v = random_orthogonal_to_fiber(f4, random.Random(5))
    for args in ((f4.classO, v), (v, f4.classO)):
        with pytest.raises(InputError, match="orthogonal to the fiber"):
            cauchy_schwarz_check(f4, *args)


# -- config ingestion --------------------------------------------------------

def test_frame_from_dict_round_trip(f4):
    frame = configio.frame_from_dict(dict(F4_DOC))
    assert frame == f4


def test_form_is_diagonalized_once_per_frame(monkeypatch):
    calls = []
    diagonalize = lattice.congruent_diagonalization

    def counting(form):
        calls.append(form)
        return diagonalize(form)

    monkeypatch.setattr(lattice, "congruent_diagonalization", counting)
    frame = configio.frame_from_dict(dict(F4_DOC))
    assert frame.validate().passed
    BallModel(frame.form, frame.ample)
    assert calls == [frame.form]


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_sigma0_is_built_once_per_frame(monkeypatch, dim):
    calls = []
    build = involutions.sigma0_pullback

    def counting(frame):
        calls.append(frame)
        return build(frame)

    monkeypatch.setattr(involutions, "sigma0_pullback", counting)
    frame = random_valid_frame(dim, dim)
    for _ in range(2):
        for i in range(frame.rank):
            involutions.tau_pushforward(frame, i)
    assert calls == [frame]


def test_frame_from_dict_checks_sections():
    doc = dict(F4_DOC)
    doc["sections"] = [[1, 1, 1, 0], [1, 1, 0, 1]]
    assert configio.frame_from_dict(doc).validate().passed
    doc["sections"] = [[1, 1, 1, 0], [1, 1, 1, 0]]
    with pytest.raises(InputError):
        configio.frame_from_dict(doc)
    # translates that are not section classes fail at load
    with pytest.raises(FrameError, match="not a section class"):
        configio.frame_from_dict(dict(F4_DOC, O=[0, 1, 0, 0]))


def test_orbit_walls_check_the_section_class_once(monkeypatch):
    """`section_map` proves every translate a section class once per frame;
    no wall is checked again."""
    calls = []
    check = FibrationFrame.check_section

    def counting(self, x, dx):
        calls.append(dx)
        return check(self, x, dx)

    monkeypatch.setattr(FibrationFrame, "check_section", counting)
    f4 = configio.frame_from_dict(dict(F4_DOC))
    plain = FibrationFrame(f4.form, f4.classE, f4.classO, f4.ample,
                           f4.translations)  # nothing derived yet
    for frame in (f4, random_valid_frame(3, dim=5), plain):
        calls.clear()
        assert len(walls.orbit_walls(frame, 3)) > 1
        assert len(calls) <= 1
    assert len(calls) == 1  # the plain frame proved its sections here


@pytest.mark.parametrize("change, message", [
    ({"classE": (1, 0, 1, 0)}, r"need E\.E = 0 and v_i\.E = 0"),
    ({"translations": ((0, 0, 1, 0), (0, 1, 0, 0))},
     r"need E\.E = 0 and v_i\.E = 0"),
    ({"classO": (0, 1, 0, 0)}, "not a section class"),
], ids=["E.E", "v.E", "O"])
def test_section_map_proves_section_classes(f4, change, message):
    args = dict(form=f4.form, classE=f4.classE, classO=f4.classO,
                ample=f4.ample, translations=f4.translations)
    frame = FibrationFrame(**dict(args, **change))
    with pytest.raises(FrameError, match=message):
        frame.section_map
    with pytest.raises(FrameError, match=message):
        frame.sections
    assert not frame.validate().passed


def test_create_checks_the_zero_section_at_rank_zero():
    form = IntersectionForm(((0, 1), (1, 0)))
    assert FibrationFrame.create(form, (1, 0), (-1, 1), (2, 1), ()).sections == ()
    with pytest.raises(FrameError, match="not a section class"):
        FibrationFrame.create(form, (1, 0), (0, 1), (2, 1), ())


def test_frame_from_dict_missing_field():
    doc = dict(F4_DOC)
    del doc["ample"]
    with pytest.raises(InputError, match="ample"):
        configio.frame_from_dict(doc)


def test_load_frame_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(InputError, match="invalid JSON"):
        configio.load_frame(p)


def test_shipped_configs_load(f4):
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent
    frame = configio.load_frame(root / "configs" / "f4_frame.json")
    assert frame == f4
    pencil = configio.load_pencil(root / "configs" / "default_pencil.json")
    assert pencil.specialize(8)


def test_pencil_from_dict_rejects_bad_section():
    with pytest.raises(InputError):
        configio.pencil_from_dict(
            {"a": [0, 0, -1], "b": [0, 0, 1],
             "sections": [{"x": [1], "y": [0, 1]}]})


def test_decompose_wraps_only_a_degenerate_pair(f4, monkeypatch):
    # E = 0 makes the (E, P) plane degenerate: that is a frame error
    flat = FibrationFrame(f4.form, (0, 0, 0, 0), f4.classO, f4.ample)
    with pytest.raises(FrameError, match="degenerate"):
        flat.decompose(f4.ample)
    # a determinant that does not match the cached products fails the
    # orthogonality check of the split, not the degeneracy check
    fresh = FibrationFrame(f4.form, f4.classE, f4.classO, f4.ample)
    c = fresh.fixed
    monkeypatch.setitem(fresh.__dict__, "fixed", c._replace(det=c.det + 1))
    with pytest.raises(FrameError, match="not orthogonal"):
        fresh.decompose(f4.ample)
