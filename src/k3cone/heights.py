"""Vector heights, the canonical-height limit, and the pairing estimator.

The synthetic fibration oracle models a family of fibers with prescribed
base heights h(E) and a vector height that transforms under the fiberwise
translation automorphisms up to bounded, seeded noise:

    h(Q_{v,E}) = T_v h(O_E) + noise,       |noise_perp| <= M, |noise_E| <= M

iterated noise obeys the growth contract |perp| <= M n, |scalar| <= M |v| n^2.

Sign convention: the Lorentz product is negative definite on the boundary
subspace, so the canonical height comes out as -h(E) (v.v) ([E].D) / 2 >= 0
and the normalized pairing matrix converges to the positive semidefinite
Euclidean Gram matrix [-v_i.v_j].
"""

import itertools
import math
import random
from dataclasses import dataclass
from functools import partial

from . import linalg
from .errors import InputError
from .linalg import Vector, vector
from .models import inner_f
from .translations import parabolic_translation


@dataclass(frozen=True)
class FiberPoint:
    """A point Q_{v,E} encoded by its fiber and group vector m_1..m_r."""

    fiber: int
    group_vector: tuple

    def __post_init__(self):
        object.__setattr__(self, "group_vector",
                           tuple(int(m) for m in self.group_vector))

    def __add__(self, other: "FiberPoint") -> "FiberPoint":
        if self.fiber != other.fiber:
            raise InputError("points lie on different fibers")
        return FiberPoint(self.fiber,
                          tuple(a + b for a, b in zip(self.group_vector,
                                                      other.group_vector)))


class SyntheticFibration:
    """Deterministic height oracle over a list of fibers.

    fiber_heights are the base heights h(E); noise_bound M caps both the
    boundary and scalar noise components; all draws are reproducible from
    the seed.
    """

    def __init__(self, frame, fiber_heights, noise_bound=0.0, seed=0):
        if noise_bound < 0:
            raise InputError("noise bound must be nonnegative")
        if any(h <= 0 for h in fiber_heights):
            raise InputError("fiber heights must be positive")
        self.frame = frame
        self.fiber_heights = tuple(float(h) for h in fiber_heights)
        self.noise_bound = float(noise_bound)
        self.seed = int(seed)

    def base_height(self, fiber: int):
        """h(O_E) = h(E) * P, so that h(O_E).[E] = h(E) exactly."""
        if not 0 <= fiber < len(self.fiber_heights):
            raise InputError(f"no fiber with index {fiber}")
        h = self.fiber_heights[fiber]
        return tuple(h * c for c in self.frame.classP_f)

    def group_translation(self, point: FiberPoint) -> Vector:
        if len(point.group_vector) != self.frame.rank:
            raise InputError("group vector length does not match the frame rank")
        return self.frame.translation_sum(point.group_vector)

    def _translation_f(self, v):
        """The float parabolic translation x -> T_v x on float vectors x."""
        return parabolic_translation(partial(inner_f, self.frame.form),
                                     self.frame.classE_f,
                                     [float(c) for c in v])

    def _noise(self, point: FiberPoint, step):
        """One bounded noise vector: boundary part (norm <= M) plus scalar*E."""
        m = self.noise_bound
        if m == 0.0:
            return None
        rng = random.Random(
            f"{self.seed}|{point.fiber}|{point.group_vector}|{step}")
        chart = self.frame.chart
        r = chart.dim
        cap = m / math.sqrt(r)
        perp = chart.lattice([rng.uniform(-cap, cap) for _ in range(r)])
        scalar = rng.uniform(-m, m)
        return (tuple(p + scalar * ei
                      for p, ei in zip(perp, self.frame.classE_f)),
                scalar)

    def vector_height(self, point: FiberPoint):
        """h(Q_{v,E}) = T_v h(O_E) + noise (noise keyed to the point)."""
        v = self.group_translation(point)
        base = self.base_height(point.fiber)
        h = self._translation_f(v)(base)
        noise = self._noise(point, "point")
        if noise is not None:
            h = tuple(a + b for a, b in zip(h, noise[0]))
        return h

    def iterated_height(self, point: FiberPoint, n: int):
        """h(tau_v^n O_E): exact translate plus per-step accumulated noise."""
        return self._iterated_heights(point, (n,))[0]

    def _iterated_heights(self, point: FiberPoint, steps):
        """`iterated_height` at each of the ascending step counts, from one
        pass over the error recurrence."""
        v = self.group_translation(point)
        base = self.base_height(point.fiber)
        errors = self._errors(point, v)
        err, done = next(errors), 0
        heights = []
        for n in steps:
            for _ in range(n - done):
                err = next(errors)
            done = n
            exact = self._translation_f(linalg.vec_scale(n, v))(base)
            heights.append(tuple(a + b for a, b in zip(exact, err)))
        return heights

    def _errors(self, point: FiberPoint, v):
        """Accumulated iterated error after steps 0, 1, 2, ... (one pass).

        err_0 = 0 and err_{k+1} = T_v err_k + noise_k.  Without noise, T_v
        maps the zero vector to itself, so the error stays zero.
        """
        zero = (0.0,) * self.frame.form.dim
        if self.noise_bound == 0.0:
            return itertools.repeat(zero)
        step = self._translation_f(v)

        def advance(err, k):
            return tuple(a + b for a, b in zip(step(err),
                                               self._noise(point, k)[0]))

        return itertools.accumulate(itertools.count(), advance, initial=zero)

    def error_trace(self, point: FiberPoint, n_steps: int):
        """Per-step error decomposition for the growth-contract checks.

        Yields (n, boundary_error_norm, |scalar_error|) for n = 1..n_steps.
        """
        form = self.frame.form
        ep = float(form.inner(self.frame.classE, self.frame.classP))
        errors = itertools.islice(
            self._errors(point, self.group_translation(point)), 1, n_steps + 1)
        rows = []
        for n, err in enumerate(errors, start=1):
            scalar = inner_f(form, err, self.frame.classP_f) / ep
            perp = tuple(a - scalar * e
                         for a, e in zip(err, self.frame.classE_f))
            perp_norm = math.sqrt(max(-inner_f(form, perp, perp), 0.0))
            rows.append((n, perp_norm, abs(scalar)))
        return rows


def _require_ample(frame, d):
    d = vector(d)
    if frame.form.norm2(d) <= 0 or frame.form.inner(d, frame.ample) <= 0:
        raise InputError("height reference divisor must be ample")
    if frame.form.inner(d, frame.classE) <= 0:
        raise InputError("reference divisor must pair positively with the fiber")
    return d


def canonical_height(fib: SyntheticFibration, point: FiberPoint, d,
                     n_max: int = 200):
    """Canonical height of Q_{v,E} with respect to an ample divisor.

    The quadratic growth coefficient of n -> h_D(tau_v^n O_E) is extracted
    with the exact-for-quadratics second difference over steps {0, n, 2n},
    so with zero noise the result equals -h(E) (v.v) ([E].D) / 2 for every
    n_max.  Returns (value, error_bound); the bound is the worst-case noise
    contribution 3 M |v| ([E].D).
    """
    if n_max < 1:
        raise InputError("n_max must be at least 1")
    d = _require_ample(fib.frame, d)
    df = [float(c) for c in d]
    form = fib.frame.form
    s0, s1, s2 = (inner_f(form, h, df) for h in
                  fib._iterated_heights(point, (0, n_max, 2 * n_max)))
    value = (s2 - 2.0 * s1 + s0) / (2.0 * n_max * n_max)
    v = fib.group_translation(point)
    vnorm = math.sqrt(max(-inner_f(form, v, v), 0.0))
    ed = float(form.inner(d, fib.frame.classE))
    bound = 3.0 * fib.noise_bound * vnorm * ed
    return value, bound


def nt_pairing(fib: SyntheticFibration, p1: FiberPoint, p2: FiberPoint, d,
               n_max: int = 200) -> float:
    """hhat(p1 + p2) - hhat(p1) - hhat(p2); symmetric in its arguments."""
    if p1.fiber != p2.fiber:
        raise InputError("points lie on different fibers")
    h12, _ = canonical_height(fib, p1 + p2, d, n_max)
    h1, _ = canonical_height(fib, p1, d, n_max)
    h2 = h1 if p1 == p2 else canonical_height(fib, p2, d, n_max)[0]
    return h12 - h1 - h2


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
    Euclidean value -v_i.v_j, approached as h(E) grows.
    """
    d = _require_ample(fib.frame, d)
    frame = fib.frame
    vi, vj = frame.translations[i], frame.translations[j]
    target = float(-frame.form.inner(vi, vj))  # exact negation avoids -0.0
    ed = float(frame.form.inner(d, frame.classE))
    rows = []
    r = frame.rank
    for fiber, h_e in enumerate(fib.fiber_heights):
        p1 = FiberPoint(fiber, tuple(int(k == i) for k in range(r)))
        p2 = FiberPoint(fiber, tuple(int(k == j) for k in range(r)))
        pairing = nt_pairing(fib, p1, p2, d, n_max)
        normalized = pairing / (h_e * ed)
        rows.append(LimitRow(h_e, pairing, normalized, target,
                             normalized - target))
    return rows


def cauchy_schwarz_check(frame, u, v) -> bool:
    """|u.v| <= ||u'|| ||v'|| for u, v with u.E = v.E = 0, exactly.

    Primes drop the E-component; the products u.v and u'.v' agree, and the
    form is negative definite on the primed subspace, so this is the exact
    rational Cauchy-Schwarz verdict.
    """
    u, v = vector(u), vector(v)
    form = frame.form
    if form.inner(u, frame.classE) != 0 or form.inner(v, frame.classE) != 0:
        raise InputError("arguments must be orthogonal to the fiber class")
    up = frame.boundary_rep(u)
    vp = frame.boundary_rep(v)
    return form.inner(u, v) ** 2 <= form.norm2(up) * form.norm2(vp)
