from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import identity, mat_pow, mat_vec, zero_vector
from k3cone import linalg
from k3cone.errors import DegenerateFormError, InputError

fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 7))


def test_to_fraction_accepts_ints_and_strings():
    assert linalg.to_fraction(3) == 3
    assert linalg.to_fraction("2/5") == Fraction(2, 5)
    assert linalg.to_fraction(Fraction(1, 3)) == Fraction(1, 3)


def test_to_fraction_rejects_floats():
    with pytest.raises(InputError):
        linalg.to_fraction(0.5)


def test_inverse_round_trip():
    m = linalg.matrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    inv = linalg.inverse(m)
    assert linalg.mat_mul(m, inv) == identity(3)


def test_shape_mismatches_are_input_errors():
    with pytest.raises(InputError, match="ragged"):
        linalg.matrix([[1, 2], [3]])
    with pytest.raises(InputError, match="mat_mul"):
        linalg.mat_mul(identity(2), identity(3))


def test_inverse_singular_raises():
    with pytest.raises(DegenerateFormError):
        linalg.inverse(linalg.matrix([[1, 2], [2, 4]]))


def test_solve_exact():
    m = linalg.matrix([[0, 1], [1, 0]])
    b = (Fraction(3), Fraction(5, 2))
    assert mat_vec(linalg.inverse(m), b) == (Fraction(5, 2), Fraction(3))


def test_nullspace_deterministic_and_correct():
    m = linalg.matrix([[1, 1, 0, 0], [0, 0, 1, 1]])
    ns = linalg.nullspace(m)
    assert len(ns) == 2
    for v in ns:
        assert all(x == 0 for x in mat_vec(m, v))
    assert ns == linalg.nullspace(m)


def test_rank():
    assert linalg.rank(linalg.matrix([[1, 2], [2, 4]])) == 1
    assert linalg.rank(identity(3)) == 3


def test_mat_pow_negative_exponent():
    m = linalg.matrix([[1, 1], [0, 1]])
    assert mat_pow(m, -2) == linalg.matrix([[1, -2], [0, 1]])
    assert mat_pow(m, 0) == identity(2)


@given(st.lists(fractions, min_size=2, max_size=2),
       st.lists(fractions, min_size=2, max_size=2), fractions)
@settings(max_examples=50, deadline=None)
def test_vector_ops_are_linear(u, v, c):
    u, v = linalg.vector(u), linalg.vector(v)
    left = linalg.vec_scale(c, linalg.vec_add(u, v))
    right = linalg.vec_add(linalg.vec_scale(c, u), linalg.vec_scale(c, v))
    assert left == right
    assert linalg.vec_sub(u, u) == zero_vector(2)


def _count_calls():
    """Every count and index argument of the library, each given a value
    that is not an admissible count: `linalg.to_integer` rejects all of
    them, and an index past the rank is out of range."""
    from k3cone import f4_frame, power, tau_pushforward, translation, walls
    from k3cone.curves import CurveQ, naive_limit_height
    from k3cone.heights import SyntheticFibration
    f4 = f4_frame()
    t = translation(f4, f4.translations[0])
    circle = walls.wall_circle_uhs(f4, f4.sections[0])
    curve, p = CurveQ(0, -2), (Fraction(3), Fraction(5))
    return {
        "orbit-float": lambda: walls.orbit_walls(f4, 1.5),
        "orbit-bool": lambda: walls.orbit_walls(f4, True),
        "orbit-negative": lambda: walls.orbit_walls(f4, -1),
        "samples-float": lambda: walls.sample_wall_circle(f4, circle, 2.5),
        "samples-bool": lambda: walls.sample_wall_circle(f4, circle, True),
        "samples-zero": lambda: walls.sample_wall_circle(f4, circle, 0),
        "multiply-float": lambda: curve.multiply(1.5, p),
        "multiply-str": lambda: curve.multiply("2", p),
        "multiply-bool": lambda: curve.multiply(True, p),
        "naive-limit-float": lambda: naive_limit_height(curve, p, 2.5),
        "naive-limit-zero": lambda: naive_limit_height(curve, p, 0),
        "naive-limit-bool": lambda: naive_limit_height(curve, p, True),
        "seed-bool": lambda: SyntheticFibration(f4, [10.0], 1.0, True),
        "power-float": lambda: power(t, 1.5),
        "power-str": lambda: power(t, "2"),
        "power-bool": lambda: power(t, True),
        "tau-negative": lambda: tau_pushforward(f4, -1),
        "tau-past-rank": lambda: tau_pushforward(f4, 5),
        "tau-bool": lambda: tau_pushforward(f4, True),
        "tau-float": lambda: tau_pushforward(f4, 1.0),
    }


@pytest.mark.parametrize("case", sorted(_count_calls()))
def test_count_arguments_are_input_errors(case):
    with pytest.raises(InputError):
        _count_calls()[case]()


def test_to_integer():
    assert linalg.to_integer(3, "n") == 3
    assert linalg.to_integer(-3, "n") == -3
    assert linalg.to_integer(0, "n", least=0) == 0
    for bad in (1.0, "1", Fraction(1), None, False):
        with pytest.raises(InputError, match="n must be an integer"):
            linalg.to_integer(bad, "n")
    with pytest.raises(InputError, match="n must be at least 1"):
        linalg.to_integer(0, "n", least=1)


def test_real_input_rules():
    """`to_double` keeps a real within a double's range as it is, exact
    input exact; `to_doubles` does so entrywise, with an optional length;
    `to_positive_real` also needs float(x) > 0."""
    huge, tiny = 10 ** 400, Fraction(1, 10 ** 400)
    for x in (0, -3, 2.5, Fraction(-7, 3), tiny, 10 ** 308, -1.7e308):
        assert linalg.to_double(x, "x") is x
    for bad in (huge, Fraction(-huge, 3), True, "1", None, float("nan"),
                float("inf")):
        with pytest.raises(InputError, match="x"):
            linalg.to_double(bad, "x")
    assert linalg.to_doubles((1, Fraction(1, 2), 0.5), "x") == [
        1, Fraction(1, 2), 0.5]
    assert linalg.to_doubles(iter([2]), "x", 1) == [2]
    assert linalg.to_doubles([], "x", 0) == []
    with pytest.raises(InputError, match="dimension"):
        linalg.to_doubles((1, 2), "x", 3)
    for bad in (5, "12", {"a": 1}, (1, huge), (1, True)):
        with pytest.raises(InputError):
            linalg.to_doubles(bad, "x")
    for x in (1, 1e-300, Fraction(1, 10 ** 300), 1.7e308):
        assert linalg.to_positive_real(x, "x") is x
    for bad in (0, -1, 0.0, -1e-300, tiny, huge, True, float("nan")):
        with pytest.raises(InputError, match="x"):
            linalg.to_positive_real(bad, "x")
