"""Elliptic curves over Q: exact group law, heights, and pencil scans.

Curves are in short Weierstrass form y^2 = x^3 + a x + b with rational
coefficients.  The naive height of a point is log max(|p|, |q|) for
x = p/q in lowest terms (h(infinity) = 0); the canonical height is the
doubling limit h([2^m]P) / 4^m.  With this choice of naive height the
canonical height is twice the classically normalized one, which cancels in
every normalized diagnostic this package reports.

A `CurveQ` caches its duplication coefficients, a `Pencil` proves its
sections by evaluation, and doubling stops past `DIGIT_BUDGET` digits.
The group law and the on-curve check run on the integer numerators and
denominators of the coordinates, with the cubic of `_doubling`; a sum
builds one reduced `Fraction` per coordinate and no other.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Tuple

from .errors import InputError, ResourceError, SingularFiberError
from .linalg import (_items, left_sum, to_fraction, to_integer, to_real,
                     vector, vectors)

Point = Optional[Tuple[Fraction, Fraction]]  # None encodes the point at infinity

MAX_DOUBLINGS = 9  # doubling cap of `canonical_height`
DIGIT_BUDGET = 10 ** 6  # x-coordinate digits past which it gives up


@dataclass(frozen=True)
class CurveQ:
    """y^2 = x^3 + a x + b over Q; nonsingular."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        a, b = to_fraction(self.a), to_fraction(self.b)
        if 4 * a ** 3 + 27 * b ** 2 == 0:
            raise InputError("singular curve: discriminant vanishes")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @cached_property
    def _doubling(self) -> tuple:
        """x = p/q doubles to F(p, q) / (q G(p, q)): F's coefficients on p^4,
        p^2 q^2, p q^3, q^4, then G's on p^3, p q^2, q^3; built once."""
        an, ad = self.a.numerator, self.a.denominator
        bn, bd = self.b.numerator, self.b.denominator
        s, m, k = ad * ad * bd, an * ad * bd, bn * ad * ad
        return s, -2 * m, -8 * k, an * an * bd, 4 * s, 4 * m, 4 * k

    def contains(self, p) -> bool:
        """p checked by `_point`, then y^2 = x^3 + a x + b on integers: for
        x = n/d and y = u/v, the equation times g3 d^3 v^2 is
        g3 u^2 d^3 == v^2 (g3 n^3 + g1 n d^2 + g0 d^3), on the cubic of
        `_doubling`."""
        p = _point(p)
        if p is None:
            return True
        (x, y), (*_, g3, g1, g0) = p, self._doubling
        n, d, u, v = x.numerator, x.denominator, y.numerator, y.denominator
        dd = d * d
        return g3 * u * u * d * dd == v * v * (g3 * n * n * n + g1 * n * dd
                                               + g0 * d * dd)

    def _require(self, p: Point) -> Point:
        p = _point(p)
        if p is not None and not self.contains(p):
            raise InputError(f"point {p} is not on the curve")
        return p

    def negate(self, p: Point) -> Point:
        p = self._require(p)
        return None if p is None else (p[0], -p[1])

    def add(self, p: Point, q: Point) -> Point:
        return self._add(self._require(p), self._require(q))

    def _add(self, p: Point, q: Point) -> Point:
        """The chord or tangent sum of two points on the curve, on
        integers: the slope as a pair num / den, then x3 and y3 as one
        reduced `Fraction` each."""
        if p is None:
            return q
        if q is None:
            return p
        (x1, y1), (x2, y2) = p, q
        n1, d1 = x1.numerator, x1.denominator
        n2, d2 = x2.numerator, x2.denominator
        u1, v1 = y1.numerator, y1.denominator
        u2, v2 = y2.numerator, y2.denominator
        if n1 == n2 and d1 == d2:
            if u1 == -u2 and v1 == v2:
                return None
            # 3 x1^2 + a = (3 g3 n1^2 + g1 d1^2) / (g3 d1^2), from the cubic
            *_, g3, g1, _ = self._doubling
            dd = d1 * d1
            num, den = (3 * g3 * n1 * n1 + g1 * dd) * v1, 2 * g3 * u1 * dd
        else:
            num = (u2 * v1 - u1 * v2) * d1 * d2
            den = v1 * v2 * (n2 * d1 - n1 * d2)
        x3 = Fraction(num * num * d1 * d2 - den * den * (n1 * d2 + n2 * d1),
                      den * den * d1 * d2)
        n3, d3 = x3.numerator, x3.denominator
        y3 = Fraction(num * (n1 * d3 - n3 * d1) * v1 - u1 * den * d1 * d3,
                      den * d1 * d3 * v1)
        return x3, y3

    def multiply(self, n: int, p: Point) -> Point:
        n, p = to_integer(n, "multiplier"), self._require(p)
        if n < 0:
            n, p = -n, None if p is None else (p[0], -p[1])
        result: Point = None
        base = p
        while n:
            if n & 1:
                result = self._add(result, base)
            base = self._add(base, base)
            n >>= 1
        return result


def _point(p) -> Point:
    """p as an exact pair (x, y), None as it is; `InputError` otherwise."""
    if p is not None and len(p := vector(p)) != 2:
        raise InputError(f"a point is a pair (x, y), not {len(p)} numbers")
    return p


def _log_height(num: int, den: int) -> float:
    """log max(|num|, den, 1): the height of num/den in lowest terms."""
    return math.log(max(abs(num), den, 1))


def naive_height(p: Point) -> float:
    """log max(|num|, |den|) of the x-coordinate in lowest terms."""
    p = _point(p)
    return 0.0 if p is None else _log_height(p[0].numerator, p[0].denominator)


def _x_double(p: int, q: int, coeffs: tuple):
    """One step of the x-only duplication map on x = p/q (lowest terms),
    on `CurveQ._doubling`; None when the doubled point is at infinity.

    den4 = 4 ad^2 bd q^4 (x^3 + a x + b), so on the curve it is
    4 ad^2 bd q^4 y^2 > 0 past the 2-torsion exit; the sign fix acts only
    on x off the curve, where the result is still the reduced quotient."""
    f4, f2, f1, f0, g3, g1, g0 = coeffs
    p2, q2 = p * p, q * q
    num4 = f4 * p2 * p2 + f2 * p2 * q2 + f1 * p * q * q2 + f0 * q2 * q2
    den4 = q * (g3 * p * p2 + g1 * p * q2 + g0 * q * q2)
    if den4 == 0:
        return None
    g = math.gcd(num4, den4)
    num4 //= g
    den4 //= g
    if den4 < 0:
        num4, den4 = -num4, -den4
    return num4, den4


def canonical_height(curve: CurveQ, p: Point,
                     tolerance: float = 1e-4) -> float:
    """Doubling-limit canonical height: h([2^m]P) / 4^m until stable.

    Stops once successive estimates differ by less than tolerance / 2, at
    the doubling cap, or cleanly at 0.0 when a doubling hits infinity
    (torsion).  Raises ResourceError with the partial estimate if the
    x-coordinate outgrows `DIGIT_BUDGET` digits.  The tolerance is a
    `linalg.to_real`, positive and at most the largest double.
    """
    if not 0 < to_real(tolerance, "tolerance") <= sys.float_info.max:
        raise InputError("tolerance must be positive and within a double")
    p = curve._require(p)
    if p is None:
        return 0.0
    num, den = p[0].numerator, p[0].denominator
    est = _log_height(num, den)
    for m in range(1, MAX_DOUBLINGS + 1):
        step = _x_double(num, den, curve._doubling)
        if step is None:
            return 0.0  # reached infinity: P is torsion
        num, den = step
        digits = max(abs(num).bit_length(), den.bit_length()) * 0.30103
        if digits > DIGIT_BUDGET:
            raise ResourceError(
                f"x-coordinate exceeded {DIGIT_BUDGET} digits at doubling {m}",
                partial=est)
        new_est = _log_height(num, den) / 4.0 ** m
        done = abs(new_est - est) < tolerance / 2.0
        est = new_est
        if done:
            break
    return est


def naive_limit_height(curve: CurveQ, p: Point, n_max: int = 12):
    """Independent estimator h([n]P) / n^2, n = 1..n_max (full group law):
    (final estimate, list of per-n values); `InputError` unless n_max >= 1."""
    p = curve._require(p)
    values = []
    acc: Point = None
    for n in range(1, to_integer(n_max, "n_max", least=1) + 1):
        acc = curve._add(acc, p)
        values.append(naive_height(acc) / (n * n))
    return values[-1], values


def nt_pairing(curve: CurveQ, p: Point, q: Point,
               tolerance: float = 1e-4) -> float:
    """Neron-Tate pairing hhat(P+Q) - hhat(P) - hhat(Q)."""
    s = curve.add(p, q)
    return (canonical_height(curve, s, tolerance)
            - canonical_height(curve, p, tolerance)
            - canonical_height(curve, q, tolerance))


# -- pencils -----------------------------------------------------------------

def _poly_eval(coeffs: tuple, t) -> Fraction:
    """Horner's rule on coefficients coerced by `Pencil`."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


@dataclass(frozen=True)
class Pencil:
    """A family y^2 = x^3 + a(t) x + b(t) with polynomial sections.

    Coefficient lists are ascending-degree.  Each section (x(t), y(t)) must
    satisfy the curve equation identically in t.  With l the list lengths,
    y^2 - x^3 - a x - b has degree <= D = max(2(ly - 1), 3(lx - 1),
    (la - 1) + (lx - 1), lb - 1), and a nonzero polynomial of degree <= D
    has at most D roots: the check is exact at t = 0, 1, ..., D."""

    a: tuple
    b: tuple
    sections: tuple  # of (x_coeffs, y_coeffs)

    def __post_init__(self):
        a, b = vector(self.a), vector(self.b)
        secs = tuple(map(vectors, _items(self.sections, "list of sections")))
        if any(len(sec) != 2 for sec in secs):
            raise InputError("a section is a pair (x, y) of coefficient lists")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "sections", secs)
        for idx, (x, y) in enumerate(secs):
            deg = max(2 * len(y) - 2, 3 * len(x) - 3, len(a) + len(x) - 2,
                      len(b) - 1)
            for xt, yt, at, bt in ([_poly_eval(c, t) for c in (x, y, a, b)]
                                   for t in range(deg + 1)):
                if yt * yt != xt ** 3 + at * xt + bt:
                    raise InputError(f"section {idx} does not satisfy the "
                                     "pencil equation identically")

    def specialize(self, t0) -> tuple:
        """Exact substitution; raises SingularFiberError when disc(t0) = 0.
        The points need no check: `__post_init__` proved every section."""
        t0 = to_fraction(t0)
        a, b = _poly_eval(self.a, t0), _poly_eval(self.b, t0)
        if 4 * a ** 3 + 27 * b ** 2 == 0:
            raise SingularFiberError(f"singular fiber at t = {t0}")
        return CurveQ(a, b), [(_poly_eval(x, t0), _poly_eval(y, t0))
                              for x, y in self.sections]


def default_pencil() -> Pencil:
    """y^2 = x^3 - t^2 x + t^2 with sections (0, t) and (t, t)."""
    return Pencil(a=(0, 0, -1), b=(0, 0, 1),
                  sections=(((0,), (0, 1)), ((0, 1), (0, 1))))


def parameter_height(t0) -> float:
    t0 = to_fraction(t0)
    return _log_height(t0.numerator, t0.denominator)


@dataclass(frozen=True)
class ScanRow:
    t: Fraction
    height: float
    pairings: tuple  # r x r matrix of floats
    normalized: tuple


@dataclass(frozen=True)
class ScanResult:
    rows: tuple
    skipped: tuple  # (t, reason)
    max_entry_diffs: tuple  # successive differences of normalized matrices
    slopes: tuple  # per-entry linear-fit slope of pairing vs height


def _scan_height(curve: CurveQ, p: Point, tolerance: float) -> float:
    """`canonical_height`, or its partial estimate past `DIGIT_BUDGET`."""
    try:
        return canonical_height(curve, p, tolerance)
    except ResourceError as exc:
        return float(exc.partial)


def specialization_scan(pencil: Pencil, t_values,
                        tolerance: float = 1e-4) -> ScanResult:
    """Pairing matrices of the specialized sections along a parameter sweep.

    Singular fibers, and fibers of parameter height 0 (t = 0, 1 or -1),
    which leave nothing to normalize by, are skipped with a recorded
    reason; a pencil without sections is an `InputError`.  Diagnostics:
    successive max-entry differences of the normalized matrices, and a
    per-entry least-squares slope of pairing against parameter height.
    """
    if not pencil.sections:
        raise InputError("a pencil without sections has no pairing to scan")
    rows = []
    skipped = []
    for t0 in map(to_fraction, _items(t_values, "list of t values")):
        try:
            curve, points = pencil.specialize(t0)
        except SingularFiberError as exc:
            skipped.append((t0, str(exc)))
            continue
        h_t = parameter_height(t0)
        if not h_t:
            skipped.append((t0, f"parameter height 0 at t = {t0}"))
            continue
        r = len(points)
        h_pts = [_scan_height(curve, pt, tolerance) for pt in points]
        matrix = [[0.0] * r for _ in range(r)]
        for i in range(r):
            matrix[i][i] = 2.0 * h_pts[i]
            for j in range(i + 1, r):
                s = curve._add(points[i], points[j])
                matrix[i][j] = matrix[j][i] = (
                    _scan_height(curve, s, tolerance) - h_pts[i]) - h_pts[j]
        norm = tuple(tuple(x / h_t for x in row) for row in matrix)
        rows.append(ScanRow(t0, h_t, tuple(map(tuple, matrix)), norm))
    if not rows:
        raise InputError("no fiber could be scanned: each was singular "
                         "or had parameter height 0")

    diffs = []
    for prev, cur in zip(rows, rows[1:]):
        diffs.append(max(abs(a - b)
                         for ra, rb in zip(prev.normalized, cur.normalized)
                         for a, b in zip(ra, rb)))
    r = len(rows[0].pairings)
    slopes = []
    hs = [row.height for row in rows]
    h_mean = left_sum(hs) / len(hs)
    denom = left_sum((h - h_mean) ** 2 for h in hs)
    for i in range(r):
        srow = []
        for j in range(r):
            ys = [row.pairings[i][j] for row in rows]
            y_mean = left_sum(ys) / len(ys)
            num = left_sum((h - h_mean) * (y - y_mean) for h, y in zip(hs, ys))
            srow.append(num / denom if denom else 0.0)
        slopes.append(tuple(srow))
    return ScanResult(tuple(rows), tuple(skipped), tuple(diffs), tuple(slopes))
