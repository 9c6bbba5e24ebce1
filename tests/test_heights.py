import math
import random
from functools import partial

import pytest

from conftest import random_valid_frame
from k3cone import f4_frame
from k3cone.errors import InputError
from k3cone.heights import (FiberPoint, SyntheticFibration, canonical_height,
                            limit_experiment, nt_pairing)
from k3cone.models import inner_f
from k3cone.translations import parabolic_translation


def _fib(noise=0.0, seed=0, heights=(10.0, 100.0)):
    return SyntheticFibration(f4_frame(), heights, noise, seed)


def _translate_f(frame, v, x):
    """Float T_v x from the shared translation formula."""
    def floats(u):
        return [float(c) for c in u]

    return parabolic_translation(partial(inner_f, frame.form),
                                 floats(frame.classE), floats(v))(floats(x))


def test_fiber_point_addition():
    p = FiberPoint(0, (1, 0)) + FiberPoint(0, (0, 2))
    assert p.group_vector == (1, 2)
    with pytest.raises(InputError):
        FiberPoint(0, (1, 0)) + FiberPoint(1, (1, 0))


def test_input_validation():
    with pytest.raises(InputError):
        SyntheticFibration(f4_frame(), [10.0], noise_bound=-1.0)
    with pytest.raises(InputError):
        SyntheticFibration(f4_frame(), [0.0])
    fib = _fib()
    with pytest.raises(InputError):
        fib.base_height(5)
    with pytest.raises(InputError):
        fib.group_translation(FiberPoint(0, (1,)))


def test_base_height_pairs_to_fiber_height():
    fib = _fib()
    frame = fib.frame
    for fiber, h in enumerate(fib.fiber_heights):
        base = fib.base_height(fiber)
        assert inner_f(frame.form, base,
                       [float(c) for c in frame.classE]) == h


def test_vector_height_noiseless_is_exact_translate():
    fib = _fib()
    frame = fib.frame
    point = FiberPoint(0, (1, 0))
    h = fib.vector_height(point)
    v = fib.group_translation(point)
    expected = _translate_f(frame, v, fib.base_height(0))
    assert h == expected


def test_vector_height_noise_is_reproducible_and_bounded():
    fib1 = _fib(noise=1.0, seed=42)
    fib2 = _fib(noise=1.0, seed=42)
    fib3 = _fib(noise=1.0, seed=43)
    point = FiberPoint(0, (1, 1))
    assert fib1.vector_height(point) == fib2.vector_height(point)
    assert fib1.vector_height(point) != fib3.vector_height(point)
    noise, scalar = fib1._noise(point, "point")
    assert abs(scalar) <= 1.0
    perp = tuple(n - scalar * float(e)
                 for n, e in zip(noise, fib1.frame.classE))
    assert -inner_f(fib1.frame.form, perp, perp) <= 1.0 + 1e-12


def test_canonical_height_noiseless_closed_form():
    # hhat = -h(E) (v.v) ([E].D) / 2; F4 diagonal: v.v = -4, [E].ample = 1
    fib = _fib()
    frame = fib.frame
    for n_max in (1, 7, 50, 200):
        value, bound = canonical_height(fib, FiberPoint(0, (1, 0)),
                                        frame.ample, n_max)
        assert value == 20.0
        assert bound == 0.0
    value, _ = canonical_height(fib, FiberPoint(1, (0, 1)), frame.ample)
    assert value == 200.0


def test_canonical_height_quadratic_in_group_vector():
    fib = _fib()
    h1, _ = canonical_height(fib, FiberPoint(0, (1, 0)), fib.frame.ample)
    h2, _ = canonical_height(fib, FiberPoint(0, (2, 0)), fib.frame.ample)
    h3, _ = canonical_height(fib, FiberPoint(0, (3, 0)), fib.frame.ample)
    assert h2 == 4.0 * h1
    assert h3 == 9.0 * h1


def test_canonical_height_requires_ample_reference():
    fib = _fib()
    with pytest.raises(InputError):
        canonical_height(fib, FiberPoint(0, (1, 0)), fib.frame.classE)
    with pytest.raises(InputError):
        canonical_height(fib, FiberPoint(0, (1, 0)), fib.frame.ample, n_max=0)


def test_nt_pairing_noiseless_gram():
    fib = _fib()
    amp = fib.frame.ample
    p1, p2 = FiberPoint(0, (1, 0)), FiberPoint(0, (0, 1))
    assert nt_pairing(fib, p1, p1, amp) == 40.0
    assert nt_pairing(fib, p1, p2, amp) == 0.0
    assert nt_pairing(fib, p1, p2, amp) == nt_pairing(fib, p2, p1, amp)


def test_noisy_canonical_height_within_bound():
    for seed in range(5):
        fib = _fib(noise=1.0, seed=seed, heights=(10.0,))
        point = FiberPoint(0, (1, 0))
        value, bound = canonical_height(fib, point, fib.frame.ample)
        assert bound == 6.0  # 3 M |v| ([E].ample) = 3 * 1 * 2 * 1
        assert abs(value - 20.0) <= bound


def test_limit_experiment_deviation_shrinks():
    heights = [10.0 ** k for k in range(1, 5)]
    fib = SyntheticFibration(f4_frame(), heights, 1.0, seed=3)
    rows = limit_experiment(fib, 0, 0, fib.frame.ample)
    assert [r.target for r in rows] == [4.0] * 4
    for row, h in zip(rows, heights):
        assert abs(row.deviation) <= 6.0 / h


def _replayed_iterated_height(fib, point, n):
    """Reference: exact translate plus the error replayed step by step."""
    v = fib.group_translation(point)
    err = (0.0,) * fib.frame.form.dim
    for k in range(n):
        err = _translate_f(fib.frame, v, err)
        err = tuple(a + b for a, b in zip(err, fib._noise(point, k)[0]))
    exact = _translate_f(fib.frame, tuple(n * c for c in v),
                         fib.base_height(point.fiber))
    return tuple(a + b for a, b in zip(exact, err))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_pass_heights_match_replays(seed):
    frame = random_valid_frame(seed, dim=4 + seed)
    fib = SyntheticFibration(frame, (10.0, 1000.0), 1.0, seed)
    df = [float(c) for c in frame.ample]
    rng = random.Random(seed)
    for fiber in (0, 1):
        point = FiberPoint(fiber, [rng.randint(-2, 2)
                                   for _ in range(frame.rank)])
        for n in (1, 4, 9):
            for k in (0, n, 2 * n):
                assert (fib.iterated_height(point, k)
                        == _replayed_iterated_height(fib, point, k))
            s0, s1, s2 = (inner_f(frame.form, fib.iterated_height(point, k),
                                  df) for k in (0, n, 2 * n))
            value, _ = canonical_height(fib, point, frame.ample, n)
            assert value == (s2 - 2.0 * s1 + s0) / (2.0 * n * n)


def test_error_trace_growth_contract():
    m = 0.5
    for seed in range(3):
        fib = SyntheticFibration(f4_frame(), (10.0,), m, seed)
        v = fib.group_translation(FiberPoint(0, (1, 1)))
        vnorm = math.sqrt(-float(fib.frame.form.norm2(v)))
        rows = fib.error_trace(FiberPoint(0, (1, 1)), 100)
        for n, perp, scalar in rows:
            assert perp <= m * n * (1.0 + 1e-9)
            assert scalar <= m * vnorm * n * n * (1.0 + 1e-9)


def test_error_trace_noiseless_is_zero():
    fib = _fib()
    rows = fib.error_trace(FiberPoint(0, (1, 0)), 10)
    assert all(perp == 0.0 and scalar == 0.0 for _, perp, scalar in rows)


def test_random_frame_synthetic_consistency():
    frame = random_valid_frame(2, dim=5)
    fib = SyntheticFibration(frame, (100.0,), 0.0, 0)
    point = FiberPoint(0, tuple(1 for _ in range(frame.rank)))
    v = fib.group_translation(point)
    expected = -100.0 * float(frame.form.norm2(v)) * float(
        frame.form.inner(frame.ample, frame.classE)) / 2.0
    value, _ = canonical_height(fib, point, frame.ample)
    assert abs(value - expected) < 1e-6 * max(1.0, abs(expected))
