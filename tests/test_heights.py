import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from operator import add, mul

import pytest

from conftest import (class_p, group_translation, parabolic_translation,
                      random_valid_frame)
from k3cone import f4_frame, linalg
from k3cone.errors import FrameError, InputError
from k3cone.frame import FibrationFrame
from k3cone.heights import (_BLOCK, FiberPoint, SyntheticFibration,
                            canonical_height, limit_experiment, nt_pairing)
from k3cone.lattice import IntersectionForm
from k3cone.linalg import vector
from k3cone.models import cusp_inner


def _fib(noise=0.0, seed=0, heights=(10.0, 100.0)):
    return SyntheticFibration(f4_frame(), heights, noise, seed)


def _translate_cusp(fib, u, x):
    """Float T_u x on cusp coordinates from the reference translation
    formula, with the fiber class (0, 1, 0...) in cusp coordinates."""
    classE = (0.0, 1.0) + (0.0,) * (len(u) - 2)
    return parabolic_translation(cusp_inner, classE, u)(x)


def _replayed_noise(fib, point):
    """Reference: the noise (0, scalar, perp) of a point's stream, in
    order, from an independent random.Random keyed
    "seed|fiber|group vector|steps": per draw r boundary values of
    uniform(-M/sqrt(r), M/sqrt(r)), then the scalar uniform(-M, M)."""
    m, r = fib.noise_bound, fib.frame.form.dim - 2
    cap = m / math.sqrt(max(r, 1))
    rng = random.Random(
        f"{fib.seed}|{point.fiber}|{point.group_vector}|steps")
    while True:
        perp = tuple(rng.uniform(-cap, cap) for _ in range(r))
        yield (0.0, rng.uniform(-m, m)) + perp


def _served_errors(fib, point, u, n):
    """(e, y) of the error (0, e, y) after steps 0..n, read off the rows of
    the recurrence's blocks as `error_trace` reads them."""
    rows = itertools.chain.from_iterable(
        itertools.starmap(zip, fib._error_blocks(point, u, n)))
    return [(e, tuple(y)) for e, *y in rows]


def test_fiber_point_addition():
    p = FiberPoint(0, (1, 0)) + FiberPoint(0, (0, 2))
    assert p.group_vector == (1, 2)
    with pytest.raises(InputError):
        FiberPoint(0, (1, 0)) + FiberPoint(1, (1, 0))


def test_fiber_point_addition_rejects_length_mismatch():
    with pytest.raises(InputError):
        FiberPoint(0, (1, 0, 5)) + FiberPoint(0, (1, 0))
    with pytest.raises(InputError):
        canonical_height(_fib(), FiberPoint(0, (1, 0)) + FiberPoint(0, (1,)),
                         f4_frame().ample)


@pytest.mark.parametrize("fiber, group", [
    (0, (1.5, 0)), (0, (Fraction(5, 2), 0)), (0, (float("nan"), 0)),
    (0, (math.inf, 0)), (0, ("1", 0)), (0, (None, 0)), (0, (True, 0)),
    (0, 5), (1.0, (1, 0)), ("0", (1, 0)), (None, (1, 0))],
    ids=["entry-1.5", "entry-5/2", "entry-nan", "entry-inf", "entry-str",
         "entry-None", "entry-bool", "group-int", "fiber-1.0", "fiber-str",
         "fiber-None"])
def test_fiber_point_rejects_non_integers(fiber, group):
    # a fractional entry is not truncated, a float fiber is not an index
    with pytest.raises(InputError):
        FiberPoint(fiber, group)


def test_fiber_point_normalizes_integral_entries():
    point = FiberPoint(0, (2.0, Fraction(-4, 2)))
    assert point.group_vector == (2, -2)
    assert all(type(m) is int for m in point.group_vector)
    fib = _fib(noise=1.0, seed=3)
    plain = FiberPoint(0, (2, -2))
    # both points key their noise streams as "3|0|(2, -2)|..."
    u = fib.frame.cusp(group_translation(fib.frame, point))
    _, (e, y) = _served_errors(fib, point, u[2:], 1)
    assert (0.0, e) + y == next(_replayed_noise(fib, plain))
    assert (canonical_height(fib, point, fib.frame.ample, 5)
            == canonical_height(_fib(noise=1.0, seed=3), plain,
                                fib.frame.ample, 5))


@pytest.mark.parametrize("call", [
    lambda fib, p, d: fib.iterated_height(p, -1),
    lambda fib, p, d: fib.iterated_height(p, 2.5),
    lambda fib, p, d: fib.error_trace(p, -3),
    lambda fib, p, d: fib.error_trace(p, 2.5),
    lambda fib, p, d: canonical_height(fib, p, d, n_max=2.5),
    lambda fib, p, d: nt_pairing(fib, p, p, d, n_max=2.5),
    lambda fib, p, d: limit_experiment(fib, 0, 0, d, n_max=2.5),
], ids=["iterated-neg", "iterated-float", "trace-neg", "trace-float",
        "canonical", "pairing", "limit"])
def test_step_counts_validated_on_entry(call):
    fib = _fib(noise=1.0)
    with pytest.raises(InputError):
        call(fib, FiberPoint(0, (1, 0)), fib.frame.ample)


@pytest.mark.parametrize("seed", [7.9, 7.0, "7", None, Fraction(7)],
                         ids=["float", "integral-float", "str", "None",
                              "Fraction"])
def test_seed_must_be_an_integer(seed):
    # 7.9 used to run as seed 7, and "7" was accepted as 7
    with pytest.raises(InputError):
        _fib(noise=1.0, seed=seed)


def test_integer_seed_is_kept():
    assert _fib(noise=1.0, seed=7).seed == 7
    assert _fib(noise=1.0, seed=-3).seed == -3


def test_input_validation():
    with pytest.raises(InputError):
        SyntheticFibration(f4_frame(), [10.0], noise_bound=-1.0)
    with pytest.raises(InputError):
        SyntheticFibration(f4_frame(), [0.0])
    with pytest.raises(InputError):
        SyntheticFibration(f4_frame(), [])
    fib = _fib()
    with pytest.raises(InputError):
        fib.base_height(5)
    with pytest.raises(InputError):
        fib.iterated_height(FiberPoint(0, (1,)), 1)


@pytest.mark.parametrize("heights, noise", [
    ((float("nan"),), 0.0), ((math.inf,), 0.0), ((10.0, -math.inf), 0.0),
    ((10.0,), float("nan")), ((10.0,), math.inf), (10.0, 0.0),
    ("123", 0.0), ((True, 10.0), 0.0), ((10.0,), "1"), ((10.0,), True),
    pytest.param((10 ** 400,), 0.0, id="height-overflow"),
    pytest.param((10.0,), 10 ** 400, id="noise-overflow"),
    pytest.param((10.0,), Fraction(10 ** 400), id="noise-Fraction-overflow"),
    pytest.param((Fraction(1, 10 ** 400),), 0.0, id="height-zero-as-double")])
def test_non_finite_inputs_rejected(heights, noise):
    with pytest.raises(InputError):
        SyntheticFibration(f4_frame(), heights, noise)


@pytest.mark.parametrize("classE, classO", [
    ((1, 0, 1, 0), (-1, 1, 0, 0)),  # E.E = -4
    ((2, 0, 0, 0), (-1, 1, 0, 0)),  # E null, but E.P = 2 and P.P = 2
])
def test_invalid_frame_rejected(classE, classO):
    f4 = f4_frame()
    frame = FibrationFrame(f4.form, classE, classO, f4.ample, f4.translations)
    with pytest.raises(FrameError):
        SyntheticFibration(frame, (10.0,))


def test_reference_divisor_must_meet_the_fiber_positively():
    """With the ample class flipped to (-2, -1, 0, 0), that class is ample
    for the frame but pairs negatively with E."""
    f4 = f4_frame()
    flipped = FibrationFrame(f4.form, f4.classE, f4.classO, (-2, -1, 0, 0),
                             f4.translations)
    fib = SyntheticFibration(flipped, (10.0,))
    with pytest.raises(InputError, match="pair positively with the fiber"):
        canonical_height(fib, FiberPoint(0, (1, 0)), flipped.ample, 5)


def _rank_zero_frame():
    form = IntersectionForm(((0, 1), (1, 0)))
    return FibrationFrame.create(form, (1, 0), (-1, 1), (2, 1), ())


def test_rank_zero_frame():
    frame = _rank_zero_frame()
    point = FiberPoint(0, ())
    assert frame.cusp(frame.ample) == (1.0, 2.0)
    for noise in (0.0, 1.0):
        fib = SyntheticFibration(frame, (10.0,), noise, seed=1)
        value, bound = canonical_height(fib, point, frame.ample, 5)
        # 2 M ([E].ample + |y_D|) / n_max with [E].ample = 1 and y_D = ()
        assert bound == 2.0 * noise / 5
        assert value == 0.0 if noise == 0.0 else abs(value) <= bound
        assert all(perp == 0.0 for _, perp, _ in fib.error_trace(point, 3))


def test_base_height_pairs_to_fiber_height():
    fib = _fib()
    frame = fib.frame
    classE = frame.cusp(frame.classE)
    assert classE == (0.0, 1.0, 0.0, 0.0)
    for fiber, h in enumerate(fib.fiber_heights):
        base = fib.base_height(fiber)
        assert base == frame.cusp(linalg.vec_scale(int(h), class_p(frame)))
        assert cusp_inner(base, classE) == h


def test_vector_height_noiseless_is_exact_translate():
    fib = _fib()
    frame = fib.frame
    point = FiberPoint(0, (1, 0))
    h = fib.iterated_height(point, 1)
    v = group_translation(fib.frame, point)
    u = frame.cusp(v)
    assert h == _translate_cusp(fib, u, fib.base_height(0))
    # T_u (w, v, y) = (w, v + <y, u> + w |u|^2 / 2, y + w u) with |u| = 2
    assert h == (10.0, 20.0, 20.0, 0.0)
    exact = parabolic_translation(frame.form.inner, frame.classE, v)(
        linalg.vec_scale(10, class_p(frame)))
    assert h == frame.cusp(exact)


def test_vector_height_noise_is_reproducible_and_bounded():
    fib1 = _fib(noise=1.0, seed=42)
    fib2 = _fib(noise=1.0, seed=42)
    fib3 = _fib(noise=1.0, seed=43)
    point = FiberPoint(0, (1, 1))
    assert fib1.iterated_height(point, 1) == fib2.iterated_height(point, 1)
    assert fib1.iterated_height(point, 1) != fib3.iterated_height(point, 1)
    noise = next(_replayed_noise(fib1, point))
    assert fib1.iterated_height(point, 1) == tuple(
        a + b for a, b in zip(_fib().iterated_height(point, 1), noise))
    assert noise[0] == 0.0
    assert abs(noise[1]) <= 1.0
    assert math.hypot(*noise[2:]) <= 1.0 + 1e-12


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
        # 3 M |v| ([E].ample) + 2 M ([E].ample + |y_D|) / n_max
        assert bound == 6.0 + 2 / 200
        assert abs(value - 20.0) <= 6.0


def test_noisy_zero_vector_height_has_a_bound():
    fib = _fib(noise=1.0, seed=0, heights=(10.0,))
    value, bound = canonical_height(fib, FiberPoint(0, (0, 0)),
                                    fib.frame.ample, 5)
    assert value != 0.0
    assert bound == 2.0 / 5
    assert abs(value) <= bound


def test_noisy_canonical_height_deviation_within_bound():
    exact = _fib(heights=(10.0, 1000.0))
    refs = ((2, 1, 0, 0), (3, 1, 1, 0), (5, 2, 1, -1))
    points = [FiberPoint(f, gv) for f in (0, 1)
              for gv in ((0, 0), (1, 0), (1, -2), (3, 1))]
    for seed in range(8):
        fib = _fib(noise=1.0, seed=seed, heights=(10.0, 1000.0))
        for d in refs:
            for point in points:
                for n_max in (1, 2, 5, 40):
                    value, bound = canonical_height(fib, point, d, n_max)
                    target, _ = canonical_height(exact, point, d, n_max)
                    assert abs(value - target) <= bound


def test_limit_experiment_deviation_shrinks():
    heights = [10.0 ** k for k in range(1, 5)]
    fib = SyntheticFibration(f4_frame(), heights, 1.0, seed=3)
    rows = limit_experiment(fib, 0, 0, fib.frame.ample)
    assert [r.target for r in rows] == [4.0] * 4
    for row, h in zip(rows, heights):
        assert abs(row.deviation) <= 6.0 / h


@pytest.mark.parametrize("i, j", [(-1, -1), (-1, 0), (0, -1), (2, 0), (0, 2),
                                  (True, 0), (0, 1.0), (Fraction(1), 0)])
def test_limit_experiment_rejects_out_of_range_indices(i, j):
    fib = _fib()
    with pytest.raises(InputError):
        limit_experiment(fib, i, j, fib.frame.ample)


# -- the per-fibration height memo --------------------------------------------

@pytest.mark.parametrize("noise", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("dim", [None, 3, 4, 5, 6, 7, 8])
def test_memoized_tables_equal_fresh_tables(dim, noise):
    frame = f4_frame() if dim is None else random_valid_frame(dim, dim)
    heights, seed, n_max = (10.0, 1000.0), 5, 20
    fib = SyntheticFibration(frame, heights, noise, seed)
    pairs = [(i, j) for i in range(frame.rank) for j in range(frame.rank)] * 2
    random.Random(dim).shuffle(pairs)
    for i, j in pairs:
        fresh = SyntheticFibration(frame, heights, noise, seed)
        assert (limit_experiment(fib, i, j, frame.ample, n_max)
                == limit_experiment(fresh, i, j, frame.ample, n_max))


def _count_errors(monkeypatch):
    """Record the fiber of every run of the error recurrence."""
    fibers = []
    blocks = SyntheticFibration._error_blocks

    def counted(self, point, u, n):
        fibers.append(point.fiber)
        return blocks(self, point, u, n)

    monkeypatch.setattr(SyntheticFibration, "_error_blocks", counted)
    return fibers


def test_pairing_tables_run_each_height_once(monkeypatch):
    fibers = _count_errors(monkeypatch)
    fib = _fib(noise=1.0, seed=7)
    for i in range(2):
        for j in range(2):
            limit_experiment(fib, i, j, fib.frame.ample, 20)
    # 2e0, e0, e0 + e1, e1, 2e1 on each fiber
    assert sorted(fibers) == [0] * 5 + [1] * 5


def test_memo_keys_on_reference_and_n_max(monkeypatch):
    point, ample = FiberPoint(0, (1, 0)), f4_frame().ample
    cases = [(ample, 20), (ample, 20), (ample, 21), ((3, 1, 1, 0), 20),
             ((3, 1, 1, 0), 20)]
    fresh = [canonical_height(_fib(noise=1.0, seed=7), point, d, n_max)
             for d, n_max in cases]
    fibers = _count_errors(monkeypatch)
    fib = _fib(noise=1.0, seed=7)
    assert [canonical_height(fib, point, d, n_max)
            for d, n_max in cases] == fresh
    # a different D or n_max is a new height; a repeat is served from the memo
    assert len(fibers) == 3


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_noise_is_one_fresh_generator_per_key(dim):
    """The noise contract: the steps of a point draw in order from one
    fresh random.Random keyed "seed|fiber|group vector|steps", r boundary
    draws of uniform(-M/sqrt(r), M/sqrt(r)) and then the scalar
    uniform(-M, M) per step."""
    frame = _rank_zero_frame() if dim == 2 else random_valid_frame(dim, dim)
    m, r = 0.37, dim - 2
    cap = m / math.sqrt(max(r, 1))
    fib = SyntheticFibration(frame, (10.0, 1000.0), m, seed=11)
    rng = random.Random(dim)
    for fiber in (0, 1):
        point = FiberPoint(fiber, [rng.randint(-2, 2) for _ in range(r)])
        u = frame.cusp(group_translation(fib.frame, point))
        errors = _served_errors(fib, point, u[2:], 400)
        want = random.Random(f"11|{fiber}|{point.group_vector}|steps")
        draws = []
        for _ in range(400):
            perp = tuple(want.uniform(-cap, cap) for _ in range(r))
            draws.append((want.uniform(-m, m), perp))
        for step in (0, 1, 7, 399):
            # err_{k+1} = (e_k + <y_k, u> + s_k, y_k + c_k), noise_k = (s, c)
            (e, y), (s, c) = errors[step], draws[step]
            assert errors[step + 1] == (
                e + linalg.left_sum(map(mul, y, u[2:])) + s,
                tuple(map(add, y, c)))
        assert errors[1] == draws[0]


def _replayed_errors(fib, point, n):
    """Reference: the errors after steps 0..n, replayed step by step with
    the shared translation formula, err_{k+1} = T_u err_k + noise_k, the
    noise drawn in order from the point's independently replayed stream."""
    u = fib.frame.cusp(group_translation(fib.frame, point))
    noise = _replayed_noise(fib, point)
    errors = [(0.0,) * len(u)]
    for _ in range(n):
        err = _translate_cusp(fib, u, errors[-1])
        errors.append(tuple(a + b for a, b in zip(err, next(noise))))
    return errors


@pytest.mark.parametrize("dim", [None, 3, 4, 5, 6, 7, 8])
def test_noise_streams_are_prefix_consistent(dim):
    """The first n steps of a height do not depend on how many steps the
    fibration ran for that height before."""
    frame = f4_frame() if dim is None else random_valid_frame(dim, dim)
    heights, seed, dc = (10.0, 1000.0), 9, frame.cusp(frame.ample)

    def fresh():
        return SyntheticFibration(frame, heights, 1.0, seed)

    rng = random.Random(dim)
    for fiber in (0, 1):
        point = FiberPoint(fiber, [rng.randint(-2, 2)
                                   for _ in range(frame.rank)])
        served = fresh()
        value, _ = canonical_height(served, point, frame.ample, 50)
        for n in (0, 1, 7, 99):
            assert (served.iterated_height(point, n)
                    == fresh().iterated_height(point, n))
        # the memo's one pass over steps 0..100 agrees with separate runs
        s0, s1, s2 = (cusp_inner(fresh().iterated_height(point, k), dc)
                      for k in (0, 50, 100))
        assert value == (s2 - 2.0 * s1 + s0) / (2.0 * 50 * 50)
        long_trace = served.error_trace(point, 120)
        for k in (0, 1, 13, 119):
            assert fresh().error_trace(point, k) == long_trace[:k]


def _replayed_iterated_height(fib, point, n, errors):
    """Reference: exact translate plus the replayed error after n steps."""
    u = fib.frame.cusp(group_translation(fib.frame, point))
    exact = _translate_cusp(fib, tuple(n * c for c in u),
                            fib.base_height(point.fiber))
    return tuple(a + b for a, b in zip(exact, errors[n]))


# (frame seed, dimension, noise); dimension 2 is the rank-0 frame
_REPLAY_CASES = (
    [pytest.param(seed, 4 + seed, 1.0, id=str(seed)) for seed in (0, 1, 2)]
    + [pytest.param(dim, dim, noise, id=f"dim{dim}-{noise}")
       for dim in range(2, 9) for noise in (0.37, 1.0)])


@pytest.mark.parametrize("seed, dim, noise", _REPLAY_CASES)
def test_one_pass_heights_match_replays(seed, dim, noise):
    frame = _rank_zero_frame() if dim == 2 else random_valid_frame(seed, dim)
    fib = SyntheticFibration(frame, (10.0, 1000.0), noise, seed)
    dc = frame.cusp(frame.ample)
    rng = random.Random(seed)
    n_last = 200  # the synthetic_pairing workload's n_max
    for fiber in (0, 1):
        point = FiberPoint(fiber, [rng.randint(-2, 2)
                                   for _ in range(frame.rank)])
        errors = _replayed_errors(fib, point, 2 * n_last)
        for n in (1, 4, 9, n_last):
            for k in (0, n, 2 * n):
                assert (fib.iterated_height(point, k)
                        == _replayed_iterated_height(fib, point, k, errors))
            s0, s1, s2 = (cusp_inner(fib.iterated_height(point, k), dc)
                          for k in (0, n, 2 * n))
            value, _ = canonical_height(fib, point, frame.ample, n)
            assert value == (s2 - 2.0 * s1 + s0) / (2.0 * n * n)
        assert fib.error_trace(point, 2 * n_last) == [
            (k, math.hypot(*err[2:]), abs(err[1]))
            for k, err in enumerate(errors[1:], start=1)]


@pytest.mark.parametrize("noise", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("dim", range(2, 9))
def test_block_boundaries_match_replays(dim, noise):
    """The recurrence runs _BLOCK steps per block; the steps on either side
    of a block boundary are those of the step-by-step replay."""
    frame = _rank_zero_frame() if dim == 2 else random_valid_frame(dim, dim)
    fib = SyntheticFibration(frame, (10.0, 1000.0), noise, seed=3)
    point = FiberPoint(1, [random.Random(dim).randint(-2, 2)
                           for _ in range(frame.rank)])
    steps = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5)
    errors = _replayed_errors(fib, point, steps[-1])
    u = fib._chart_translation(point)
    served = _served_errors(fib, point, u, steps[-1])
    trace = fib.error_trace(point, steps[-1])
    for k in steps:
        assert served[k] == (errors[k][1], errors[k][2:])
        assert fib.iterated_height(point, k) == _replayed_iterated_height(
            fib, point, k, errors)
        assert trace[k - 1] == (k, math.hypot(*errors[k][2:]),
                                abs(errors[k][1]))


def test_iterated_height_memory_is_one_block():
    """A run of 50 000 steps holds one block of the recurrence at a time,
    O(r _BLOCK) floats, not O(n)."""
    fib = _fib(noise=1.0, seed=7)
    point = FiberPoint(0, (1, 1))
    fib.iterated_height(point, 10)  # build the frame's cached chart first
    tracemalloc.start()
    try:
        fib.iterated_height(point, 50_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_error_trace_growth_contract():
    m = 0.5
    for seed in range(3):
        fib = SyntheticFibration(f4_frame(), (10.0,), m, seed)
        v = group_translation(fib.frame, FiberPoint(0, (1, 1)))
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
    v = group_translation(fib.frame, point)
    expected = -100.0 * float(frame.form.norm2(v)) * float(
        frame.form.inner(frame.ample, frame.classE)) / 2.0
    value, _ = canonical_height(fib, point, frame.ample)
    assert abs(value - expected) < 1e-6 * max(1.0, abs(expected))


# -- exact reference for the noisy oracle -------------------------------------

def _exact_cusp(frame, x):
    """Cusp coordinates (w, v, y): w, v exact, y the chart's doubles."""
    dec = frame.decompose(vector(x))
    return (dec.aP, dec.aE) + tuple(
        Fraction(c) for c in frame.chart.euclid(dec.perp))


def _exact_dot(x, y):
    return x[0] * y[1] + x[1] * y[0] - sum(a * b for a, b in zip(x[2:], y[2:]))


def _exact_noise(fib, point):
    """The oracle's step noise draws, (0, scalar, perp), as Fractions.

    Replays the documented keying: one `random.Random` per (seed, fiber,
    group vector), drawn in order, with per step r boundary draws in
    [-M/sqrt(r), M/sqrt(r)] and then the scalar in [-M, M].
    """
    m, r = fib.noise_bound, fib.frame.form.dim - 2
    rng = random.Random(
        f"{fib.seed}|{point.fiber}|{point.group_vector}|steps")
    cap = m / math.sqrt(r)
    while True:
        perp = tuple(Fraction(rng.uniform(-cap, cap)) for _ in range(r))
        yield (Fraction(0), Fraction(rng.uniform(-m, m))) + perp


def _exact_model(fib, point, n_max):
    """Exact iterated heights h_0..h_{2 n_max} of the oracle's own model.

    Same inputs as the float oracle (the converted translation and the
    noise draws), evaluated in `Fraction`s with the cusp product.
    """
    u = _exact_cusp(fib.frame, group_translation(fib.frame, point))
    e = (0, 1) + (0,) * (len(u) - 2)
    base = (Fraction(fib.fiber_heights[point.fiber]),) + (0,) * (len(u) - 1)
    step = parabolic_translation(_exact_dot, e, u)
    noise = _exact_noise(fib, point)
    errors = [(Fraction(0),) * len(u)]
    for _ in range(2 * n_max):
        errors.append(tuple(a + b for a, b in zip(
            step(errors[-1]), next(noise))))
    heights = []
    for n, err in enumerate(errors):
        exact = parabolic_translation(_exact_dot, e,
                                      tuple(n * c for c in u))(base)
        heights.append(tuple(a + b for a, b in zip(exact, err)))
    return heights, errors


@pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8])
def test_noisy_oracle_matches_exact_reference(dim):
    n_max, tol = 40, 1e-12
    frame = random_valid_frame(dim, dim=dim)
    fib = SyntheticFibration(frame, (10.0, 1000.0), 1.0, seed=dim)
    dc = _exact_cusp(frame, frame.ample)
    rng = random.Random(dim)
    for fiber in (0, 1):
        group = [rng.choice((-2, -1, 1, 2)) for _ in range(frame.rank)]
        point = FiberPoint(fiber, group)
        heights, errors = _exact_model(fib, point, n_max)
        s0, s1, s2 = (_exact_dot(heights[k], dc)
                      for k in (0, n_max, 2 * n_max))
        want = (s2 - 2 * s1 + s0) / (2 * n_max * n_max)
        value, _ = canonical_height(fib, point, frame.ample, n_max)
        assert abs(value - want) <= tol * abs(want)
        for n, perp, scalar in fib.error_trace(point, 2 * n_max):
            err = errors[n]
            want_perp = math.sqrt(sum(c * c for c in err[2:]))
            assert abs(perp - want_perp) <= tol * want_perp
            assert abs(scalar - abs(err[1])) <= tol * abs(err[1])


def test_canonical_height_makes_no_exact_product(monkeypatch):
    """On a warm fibration the reference divisor is checked on integer dots
    and the group translation is charted from the frame's integers: no
    `IntersectionForm.inner` call, for a memoized height or a new one."""
    fib = _fib(noise=1.0, seed=3)
    d = fib.frame.ample
    canonical_height(fib, FiberPoint(0, (1, -1)), d, 20)
    calls = []
    inner = IntersectionForm.inner
    monkeypatch.setattr(IntersectionForm, "inner",
                        lambda *args: calls.append(args) or inner(*args))
    canonical_height(fib, FiberPoint(0, (1, -1)), d, 20)
    canonical_height(fib, FiberPoint(1, (2, 3)), d, 20)
    assert calls == []
