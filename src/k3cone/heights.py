"""Vector heights, the canonical-height limit, and the pairing estimator.

The synthetic fibration oracle models a family of fibers with prescribed
base heights h(E) and a vector height that transforms under the fiberwise
translation automorphisms up to bounded, seeded noise:

    h(Q_{v,E}) = T_v h(O_E) + noise,       |noise_perp| <= M, |noise_E| <= M

iterated noise obeys the growth contract |perp| <= M n, |scalar| <= M |v| n^2.

Heights live in cusp coordinates (w, v, y) = wP + vE + sum y_k b_k
(`FibrationFrame.cusp_of`, product `models.cusp_inner`): the base height
is (h(E), 0, 0...), noise is (0, scalar, perp), and exact classes are
converted once each from integer numerators: the reference divisor D to
cusp coordinates, the group translation v (`translation_numerators`) to
its chart coordinates u, so that T_v (h, 0, 0) = (h, h (|u|^2 / 2), h u).

Canonical heights are memoized per fibration, keyed by (point, D in cusp
coordinates, n_max): `canonical_height`, `nt_pairing` and
`limit_experiment` run the error recurrence once per distinct height.
This is safe because every other input of a height (frame, seed, noise
bound, fiber heights) is fixed when the fibration is built.

Noise comes in one stream per point: a generator keyed (seed, fiber,
group vector), drawn in order by the steps, so iterated heights are
prefix-consistent (the first n steps do not depend on how many are run).
The vector height h(Q_{v,E}) is the one-step `iterated_height(Q, 1)`.

Cost model: a height at n_max runs 2 n_max steps of the error recurrence,
each r + 1 draws from the height's one generator plus O(r) float work,
and three exact translates.  The error (0, e, y) is advanced as
e += <y, u> + s and y += c: its w is 0, so that is T_u err + noise.  The
steps run a block of up to 1024 at a time, with the block's draws taken
at once and each of e, y_1..y_r advanced by one C-level `accumulate`, so
no Python code runs per step; the floats are those of stepping one at a
time, memory is O(r) floats per block step whatever n is, and only the
errors at steps 0, n_max and 2 n_max are read.

Sign convention: the Lorentz product is negative definite on the boundary
subspace, so the canonical height comes out as -h(E) (v.v) ([E].D) / 2 >= 0
and the normalized pairing matrix converges to the positive semidefinite
Euclidean Gram matrix [-v_i.v_j].
"""

import math
import random
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat, starmap
from operator import add, mul

from .errors import FrameError, InputError
from .linalg import (_items, dot, left_sum, to_double, to_integer,
                     to_positive_real)
from .models import cusp_inner

_BLOCK = 1024  # steps of the error recurrence run per block


def _group_entry(m) -> int:
    """A group-vector entry as an int; InputError unless its value is an
    integer (2, 2.0 and Fraction(4, 2) pass; 2.5 is not truncated, and a
    `bool` is not a number here)."""
    try:
        k = int(m)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"group vector entry {m!r} is not an integer") from None
    if k != m or isinstance(m, bool):
        raise InputError(f"group vector entry {m!r} is not an integer")
    return k


@dataclass(frozen=True)
class FiberPoint:
    """A point Q_{v,E} encoded by its fiber and group vector m_1..m_r."""

    fiber: int
    group_vector: tuple

    def __post_init__(self):
        object.__setattr__(self, "fiber",
                           to_integer(self.fiber, "fiber index"))
        object.__setattr__(self, "group_vector", tuple(map(
            _group_entry, _items(self.group_vector, "group vector"))))

    def __add__(self, other: "FiberPoint") -> "FiberPoint":
        if self.fiber != other.fiber:
            raise InputError("points lie on different fibers")
        if len(self.group_vector) != len(other.group_vector):
            raise InputError("group vectors have different lengths")
        return FiberPoint(self.fiber,
                          tuple(a + b for a, b in zip(self.group_vector,
                                                      other.group_vector)))


class SyntheticFibration:
    """Deterministic height oracle over a list of fibers.

    fiber_heights are the base heights h(E), each a
    `linalg.to_positive_real`; noise_bound M, a `linalg.to_double` >= 0,
    caps both the boundary and scalar noise components; all draws are
    reproducible from the seed.  The frame must have E.E = P.P = 0 and
    E.P = 1, the hypothesis of the cusp product.

    Canonical heights are memoized on the fibration, keyed by (point, D in
    cusp coordinates, n_max) and holding (value, bound).  The memo is exact
    because the frame, seed, noise bound and fiber heights are fixed at
    construction and the step noise of a height is one stream keyed to
    (seed, fiber, group vector), so the same height always draws the same
    noise; none of them may be reassigned afterwards.
    """

    def __init__(self, frame, fiber_heights, noise_bound=0.0, seed=0):
        self.noise_bound = float(to_double(noise_bound, "noise bound"))
        if self.noise_bound < 0.0:
            raise InputError("noise bound must be nonnegative")
        self.fiber_heights = tuple(
            float(to_positive_real(h, "fiber height"))
            for h in _items(fiber_heights, "list of fiber heights"))
        if not self.fiber_heights:
            raise InputError("at least one fiber height is needed")
        c = frame.fixed
        if (c.ee, c.pp, c.ep) != (0, 0, c.den * c.q):
            raise FrameError("synthetic oracle needs E.E = P.P = 0, E.P = 1")
        self.frame = frame
        self.seed = to_integer(seed, "seed")
        self._perp_cap = self.noise_bound / math.sqrt(max(frame.form.dim - 2, 1))
        self._heights = {}

    def base_height(self, fiber: int):
        """h(O_E) = h(E) P = (h(E), 0, 0...), so h(O_E).[E] = h(E) exactly."""
        if not 0 <= fiber < len(self.fiber_heights):
            raise InputError(f"no fiber with index {fiber}")
        return (self.fiber_heights[fiber],) + (0.0,) * (self.frame.form.dim - 1)

    def _chart_translation(self, point: FiberPoint):
        """The chart coordinates u of w = sum m_i v_i (T_w depends on u),
        from sum m_i times the rows of `translation_numerators` over qv."""
        ms = point.group_vector
        if len(ms) != self.frame.rank:
            raise InputError("group vector length does not match the frame rank")
        vs, _, qv = self.frame.translation_numerators
        return self.frame.chart.euclid_of(
            [sum(m * v[j] for m, v in zip(ms, vs))
             for j in range(self.frame.form.dim)], qv)

    def _translated_base(self, fiber: int, u):
        """T_v h(O_E) for v with chart coordinates u.  In cusp coordinates
        T_v (w, e, y) = (w, e + <y, u> + w |u|^2 / 2, y + w u), so at
        h(O_E) = (h, 0, 0) it is (h, h (|u|^2 / 2), h u)."""
        h = self.base_height(fiber)[0]
        return (h, h * (left_sum(map(mul, u, u)) / 2), *(h * t for t in u))

    def _stream(self, point: FiberPoint):
        """The point's one noise generator, drawn in order by its steps:
        random.Random(f"{seed}|{fiber}|{group vector}|steps")."""
        return random.Random(
            f"{self.seed}|{point.fiber}|{point.group_vector}|steps")

    def iterated_height(self, point: FiberPoint, n: int):
        """h(tau_v^n O_E): exact translate plus per-step accumulated noise."""
        n = to_integer(n, "step count", least=0)
        return self._iterated_heights(point, self._chart_translation(point),
                                      (n,))[0]

    def _iterated_heights(self, point: FiberPoint, u, steps):
        """`iterated_height` at each of the distinct ascending step counts,
        from one run of the error recurrence up to the last of them; u is
        the chart translation.  Only the errors at those steps are read."""
        rows = chain.from_iterable(
            starmap(zip, self._error_blocks(point, u, steps[-1])))
        at, kept = 0, []
        for k in steps:
            kept.append((0.0,) + next(islice(rows, k - at, None)))
            at = k + 1
        exact = (self._translated_base(point.fiber, tuple(n * t for t in u))
                 for n in steps)
        return [tuple(a + b for a, b in zip(h, err))
                for h, err in zip(exact, kept)]

    def _error_blocks(self, point: FiberPoint, u, n: int):
        """The error recurrence of one height, a block of at most _BLOCK
        steps at a time, up to step n.

        err_0 = 0 and err_{k+1} = T_u err_k + noise_k, noise_k = (0, s, c),
        u the chart translation.  Every error has w = 0, and T_u (0, e, y)
        = (0, e + <y, u>, y), so the recurrence is e += <y, u> + s,
        y += c.  Yields the errors (0, e, y) as columns (es, y_1s, ...,
        y_rs): first the zero error of step 0, then one block after another.

        The noise is the point's one generator (`_stream`), drawn in
        order: at each step r draws of uniform(-M/sqrt(r), M/sqrt(r)) for
        c, so |c| <= M, then uniform(-M, M) for s, each
        spelled as the stdlib's own a + (b - a) random().  So the first n
        steps are the same whatever n is asked for.  A block takes its
        (r + 1) k draws at once and runs on C-level maps: c and s as
        lo + width x, each y_j one `accumulate`, <y_t, u> as the left fold
        0 + y_1 u_1 + ... + y_r u_r of `linalg.left_sum` in r passes, and
        e one `accumulate` over the interleaved <y_t, u>, s_t, so
        e_{t+1} = (e_t + <y_t, u>) + s_t.  The floats are those of stepping
        one at a time, and a block holds O(r _BLOCK) of them.  Without noise
        each draw maps to 0.0, so every error is 0.0.
        """
        r = len(u)
        yield ([0.0],) * (r + 1)
        m, cap = self.noise_bound, self._perp_cap
        lo, width = -cap, cap - -cap
        lo_s, width_s = -m, m - -m
        draw = self._stream(point).random
        e, y = 0.0, (0.0,) * r
        for k in (min(_BLOCK, n - t) for t in range(0, n, _BLOCK)):
            draws = list(starmap(draw, repeat((), (r + 1) * k)))
            # y_j at the block's k + 1 states, its first the last block's
            ys = [list(accumulate(map(add, repeat(lo), map(
                mul, repeat(width), draws[j::r + 1])), initial=y0))
                  for j, y0 in enumerate(y)]
            dots = repeat(0, k)
            for yj, uj in zip(ys, u):
                dots = map(add, dots, map(mul, yj, repeat(uj, k)))
            terms = [0.0] * (2 * k)  # <y_t, u>, s_t, <y_t+1, u>, ...
            terms[0::2] = dots
            terms[1::2] = map(add, repeat(lo_s),
                              map(mul, repeat(width_s), draws[r::r + 1]))
            es = list(accumulate(terms, initial=e))[2::2]
            e, y = es[-1], [yj[-1] for yj in ys]
            yield (es, *(yj[1:] for yj in ys))

    def error_trace(self, point: FiberPoint, n_steps: int):
        """(n, |y|, |v|) of the error (0, v, y) for n = 1..n_steps: its
        boundary norm and E-component, for the growth-contract checks."""
        n_steps = to_integer(n_steps, "n_steps", least=0)
        u = self._chart_translation(point)
        rows = chain.from_iterable(
            starmap(zip, self._error_blocks(point, u, n_steps)))
        return [(n, math.hypot(*y), abs(e))
                for n, (e, *y) in enumerate(islice(rows, 1, None), start=1)]


def _reference(fib: SyntheticFibration, d, n_max: int):
    """Validate D and n_max once per public call; return D in cusp
    coordinates, whose w is [E].D.  The checks are integer dots on one
    `numerators` of D (positive denominators)."""
    to_integer(n_max, "n_max", least=1)
    frame, c = fib.frame, fib.frame.fixed
    x, dx = frame.form.numerators(d)
    if dot(x, frame.form.images([x])[0]) <= 0 or dot(x, c.gA) <= 0:
        raise InputError("height reference divisor must be ample")
    if dot(x, c.gE) <= 0:
        raise InputError("reference divisor must pair positively with the fiber")
    return frame.cusp_of(x, dx)


def _height(fib: SyntheticFibration, point: FiberPoint, dc, n_max: int):
    """(value, bound) of `canonical_height`, from the fibration's memo."""
    key = (point, dc, n_max)
    if key not in fib._heights:
        u = fib._chart_translation(point)
        s0, s1, s2 = (cusp_inner(h, dc) for h in
                      fib._iterated_heights(point, u, (0, n_max, 2 * n_max)))
        value = (s2 - 2.0 * s1 + s0) / (2.0 * n_max * n_max)
        m = fib.noise_bound
        fib._heights[key] = (
            value, 3.0 * m * math.hypot(*u) * dc[0]
            + 2.0 * m * (dc[0] + math.hypot(*dc[2:])) / n_max)
    return fib._heights[key]


def canonical_height(fib: SyntheticFibration, point: FiberPoint, d,
                     n_max: int = 200):
    """Canonical height of Q_{v,E} with respect to an ample divisor.

    The quadratic growth coefficient of n -> h_D(tau_v^n O_E) is extracted
    with the exact-for-quadratics second difference over steps {0, n, 2n},
    so with zero noise the result equals -h(E) (v.v) ([E].D) / 2 for every
    n_max.  Returns (value, error_bound), the bound on the noise's share
    of the value.

    In cusp coordinates let v be (0, 0, u) and D be (w_D, v_D, y_D), with
    w_D = [E].D and n = n_max.  With noise (0, s_k, c_k), |s_k| <= M and
    |c_k| <= M, the error (0, e_k, y_k) after k steps obeys
    y_{k+1} = y_k + c_k and e_{k+1} = e_k + <y_k, u> + s_k from zero, so
    |y_k| <= kM and |e_k| <= M|u| k^2/2 + kM.  Its share of the value,
    ((e_2n - 2 e_n) w_D - <y_2n - 2 y_n, y_D>) / (2 n^2), is therefore at
    most w_D (1.5 M|u| + 2M/n) + 2M|y_D|/n.  The returned bound
    3 M|u| w_D + 2M (w_D + |y_D|) / n covers it; it is nonzero with noise
    even for a zero group vector.
    """
    return _height(fib, point, _reference(fib, d, n_max), n_max)


def _pairing(fib, p1, p2, dc, n_max):
    return (_height(fib, p1 + p2, dc, n_max)[0]
            - _height(fib, p1, dc, n_max)[0] - _height(fib, p2, dc, n_max)[0])


def nt_pairing(fib: SyntheticFibration, p1: FiberPoint, p2: FiberPoint, d,
               n_max: int = 200) -> float:
    """hhat(p1 + p2) - hhat(p1) - hhat(p2); symmetric in its arguments."""
    return _pairing(fib, p1, p2, _reference(fib, d, n_max), n_max)


@dataclass(frozen=True)
class LimitRow:
    fiber_height: float
    pairing: float
    normalized: float
    target: float
    deviation: float


def limit_experiment(fib: SyntheticFibration, i: int, j: int, d,
                     n_max: int = 200):
    """Normalized pairing per fiber against the Euclidean Gram target.

    Emits pairing / (h(E) ([E].D)) for every fiber; the target is the
    Euclidean value -v_i.v_j, approached as h(E) grows: one integer dot
    on `translation_numerators` over qv^2 times the Gram denominator,
    rounded once.  Both indices must lie in range(rank).
    """
    frame = fib.frame
    if any(to_integer(k, "translation index", least=0) >= frame.rank
           for k in (i, j)):
        raise InputError(
            f"translation indices must lie in range({frame.rank})")
    dc = _reference(fib, d, n_max)
    vs, gv, qv = frame.translation_numerators
    # the negated integer is 0, never -0.0, when v_i.v_j = 0
    target = -dot(vs[i], gv[j]) / (qv * qv * frame.form.gram_numerators[1])
    rows = []
    for fiber, h_e in enumerate(fib.fiber_heights):
        p1 = FiberPoint(fiber, tuple(int(k == i) for k in range(frame.rank)))
        p2 = FiberPoint(fiber, tuple(int(k == j) for k in range(frame.rank)))
        pairing = _pairing(fib, p1, p2, dc, n_max)
        normalized = pairing / (h_e * dc[0])
        rows.append(LimitRow(h_e, pairing, normalized, target,
                             normalized - target))
    return rows


def cauchy_schwarz_check(frame, u, v) -> bool:
    """|u.v| <= ||u'|| ||v'|| for u, v with u.E = v.E = 0, exactly.

    Primes take the component in V = {x : x.E = x.P = 0}; on a frame with
    E.E = 0 the products u.v and u'.v' agree, and the form is negative
    definite on V, so this is the exact rational Cauchy-Schwarz verdict.
    It is decided on integers: one `FibrationFrame.fiber_orthogonal` per
    argument, the perp numerators of `split_numerators`, and three integer
    dots.
    """
    c = frame.fixed
    (a, da), (b, db) = map(frame.fiber_orthogonal, (u, v))
    x, y = frame.split_numerators(a)[2], frame.split_numerators(b)[2]
    gb, gx, gy = frame.form.images([b, x, y])
    # u.v = a.gb / (da db dg) and u'.u' = x.gx / ((da det)^2 dg): da, db cancel
    return (dot(a, gb) * c.det ** 2) ** 2 <= dot(x, gx) * dot(y, gy)
