"""Every exact entry point takes its vector arguments through one door,
`IntersectionForm.numerators`: a vector of the wrong dimension, a float
entry or a `bool` entry is an `InputError`, and 'p/q' strings read as the
`Fraction`s they spell."""

from fractions import Fraction

import pytest

from k3cone import f4_frame, heights, involutions, lattice, models, walls
from k3cone import translations as tr
from k3cone.errors import InputError
from k3cone.heights import FiberPoint, SyntheticFibration

F4 = f4_frame()
BALL = models.BallModel(F4.form, F4.ample)
FIB = SyntheticFibration(F4, (10.0, 100.0), 1.0, 7)
H = Fraction(1, 2)
T = Fraction(1, 3)
IN_V = (0, 0, H, T)  # x.E = x.P = 0
ORTHO_E = (T, 0, H, Fraction(-2, 5))  # x.E = 0
NULL = (H, 1, H, 0)  # x.x = 0, x.E > 0, x.ample > 0
NULL_2 = (H, 1, 0, H)
AMPLE = (3, 1, H, 0)
GENERIC = (H, T, Fraction(1, 5), -2)
SECTION = (-H, 1, H, 0)  # D.D = -2, D.E = 1

# name: (call on the frame and the vector argument x, a valid x)
ENTRY_POINTS = {
    "inner": (lambda f, x: f.form.inner(x, (1, 2, 3, 4)), GENERIC),
    "inner-right": (lambda f, x: f.form.inner((1, 2, 3, 4), x), GENERIC),
    "norm2": (lambda f, x: f.form.norm2(x), GENERIC),
    "in_light_cone": (lambda f, x: lattice.in_light_cone(f.form, x, f.ample),
                      (2, H, T, 0)),
    "in_light_cone-ample": (
        lambda f, x: lattice.in_light_cone(f.form, (2, H, T, 0), x), AMPLE),
    "translation": (tr.translation, ORTHO_E),
    "Isometry.__call__": (
        lambda f, x: tr.translation(f, f.translations[0])(x), GENERIC),
    "section_translate": (tr.section_translate, ORTHO_E),
    "sigma_i_pullback": (involutions.sigma_i_pullback, SECTION),
    "reflection_through": (lambda f, x: involutions.reflection_through(
        f.form, (f.classE, x), "test reflection"), (-H, H, 0, 0)),
    "wall_circle_uhs": (walls.wall_circle_uhs, SECTION),
    "wall_circle_ball": (
        lambda f, x: walls.wall_circle_ball(f.form, x, BALL), SECTION),
    "phi": (models.phi, AMPLE),
    "check_boundary_class": (models.check_boundary_class, NULL),
    "boundary_distance_sq": (
        lambda f, x: models.boundary_distance_sq(f, x, NULL_2), NULL),
    "BoundaryChart.euclid": (lambda f, x: f.chart.euclid(x), IN_V),
    "cusp": (lambda f, x: f.cusp(x), GENERIC),
    "decompose": (lambda f, x: f.decompose(x), GENERIC),
    "boundary_rep": (lambda f, x: f.boundary_rep(x), ORTHO_E),
    "heights.canonical_height": (lambda f, x: heights.canonical_height(
        FIB, FiberPoint(0, (1, -1)), x, 5), AMPLE),
    "cauchy_schwarz_check": (lambda f, x: heights.cauchy_schwarz_check(
        f, x, f.translations[1]), ORTHO_E),
    "BallModel": (lambda f, x: models.BallModel(f.form, x).signature_coords(
        f.ample), AMPLE),
}


def _malformed(x):
    """A 3-entry, a 5-entry, a float-entry and a bool-entry copy of x."""
    x = tuple(x)
    return {"short": x[:3], "long": x + (0,), "float": (0.5,) + x[1:],
            "bool": (True,) + x[1:]}


@pytest.mark.parametrize("kind", ["short", "long", "float", "bool"])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_malformed_vectors_are_input_errors(name, kind):
    call, x = ENTRY_POINTS[name]
    call(F4, x)  # the valid argument is accepted
    with pytest.raises(InputError):
        call(F4, _malformed(x)[kind])


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_rational_strings_read_as_fractions(name):
    call, x = ENTRY_POINTS[name]
    strings = tuple(str(Fraction(t)) for t in x)
    assert any("/" in s for s in strings)
    assert call(F4, strings) == call(F4, tuple(map(Fraction, x)))
