"""Elliptic curves over Q: exact group law, heights, and pencil scans.

Curves are in short Weierstrass form y^2 = x^3 + a x + b with rational
coefficients.  The naive height of a point is log max(|p|, |q|) for
x = p/q in lowest terms (h(infinity) = 0); the canonical height is the
doubling limit h([2^m]P) / 4^m.  With this choice of naive height the
canonical height is twice the classically normalized one, which cancels in
every normalized diagnostic this package reports.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import InputError, ResourceError, SingularFiberError
from .linalg import to_fraction

Point = Optional[Tuple[Fraction, Fraction]]  # None encodes the point at infinity

INFINITY: Point = None
MAX_DOUBLINGS = 9  # doubling cap of `canonical_height`


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

    def contains(self, p: Point) -> bool:
        if p is None:
            return True
        x, y = p
        return y * y == x ** 3 + self.a * x + self.b

    def _require(self, p: Point) -> Point:
        if p is not None:
            p = (to_fraction(p[0]), to_fraction(p[1]))
            if not self.contains(p):
                raise InputError(f"point {p} is not on the curve")
        return p

    def negate(self, p: Point) -> Point:
        p = self._require(p)
        return None if p is None else (p[0], -p[1])

    def add(self, p: Point, q: Point) -> Point:
        return self._add(self._require(p), self._require(q))

    def _add(self, p: Point, q: Point) -> Point:
        if p is None:
            return q
        if q is None:
            return p
        x1, y1 = p
        x2, y2 = q
        if x1 == x2:
            if y1 == -y2:
                return None
            lam = (3 * x1 * x1 + self.a) / (2 * y1)
        else:
            lam = (y2 - y1) / (x2 - x1)
        x3 = lam * lam - x1 - x2
        y3 = lam * (x1 - x3) - y1
        return (x3, y3)

    def multiply(self, n: int, p: Point) -> Point:
        p = self._require(p)
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


def _log_height(num: int, den: int) -> float:
    """log max(|num|, den, 1): the height of num/den in lowest terms."""
    return math.log(max(abs(num), den, 1))


def naive_height(p: Point) -> float:
    """log max(|num|, |den|) of the x-coordinate in lowest terms."""
    if p is None:
        return 0.0
    x = to_fraction(p[0])
    return _log_height(x.numerator, x.denominator)


def _x_double(num: int, den: int, a: Fraction, b: Fraction):
    """One step of the x-only duplication map on x = num/den (lowest terms).

    Returns None when the doubled point is at infinity (2-torsion).
    """
    an, ad = a.numerator, a.denominator
    bn, bd = b.numerator, b.denominator
    # clear coefficient denominators: work with A = an/ad, B = bn/bd
    # x' = (x^4 - 2Ax^2 - 8Bx + A^2) / (4(x^3 + Ax + B))
    p, q = num, den
    p2 = p * p
    q2 = q * q
    num4 = (p2 * p2 * ad * ad * bd - 2 * an * ad * bd * p2 * q2
            - 8 * bn * ad * ad * p * q * q2 + an * an * bd * q2 * q2)
    den4 = 4 * q * (p * p2 * ad * ad * bd + an * ad * bd * p * q2
                    + bn * ad * ad * q * q2)
    if den4 == 0:
        return None
    g = math.gcd(num4, den4)
    num4 //= g
    den4 //= g
    if den4 < 0:
        num4, den4 = -num4, -den4
    return num4, den4


def canonical_height(curve: CurveQ, p: Point, tolerance: float = 1e-4,
                     digit_budget: int = 10 ** 6) -> float:
    """Doubling-limit canonical height: h([2^m]P) / 4^m until stable.

    Stops once successive estimates differ by less than tolerance / 2, at
    the doubling cap, or cleanly at 0.0 when a doubling hits infinity
    (torsion).  Raises ResourceError with the partial estimate if the
    x-coordinate outgrows the digit budget.
    """
    if not 0 < tolerance < math.inf:
        raise InputError("tolerance must be positive and finite")
    p = curve._require(p)
    if p is None:
        return 0.0
    num, den = p[0].numerator, p[0].denominator
    est = _log_height(num, den)
    for m in range(1, MAX_DOUBLINGS + 1):
        step = _x_double(num, den, curve.a, curve.b)
        if step is None:
            return 0.0  # reached infinity: P is torsion
        num, den = step
        digits = max(abs(num).bit_length(), den.bit_length()) * 0.30103
        if digits > digit_budget:
            raise ResourceError(
                f"x-coordinate exceeded {digit_budget} digits at doubling {m}",
                partial=est)
        new_est = _log_height(num, den) / 4.0 ** m
        done = abs(new_est - est) < tolerance / 2.0
        est = new_est
        if done:
            break
    return est


def naive_limit_height(curve: CurveQ, p: Point, n_max: int = 12):
    """Independent estimator h([n]P) / n^2, n = 1..n_max (full group law).

    Returns (final estimate, list of per-n values).
    """
    p = curve._require(p)
    values = []
    acc: Point = None
    for n in range(1, n_max + 1):
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

def _poly_eval(coeffs, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(list(coeffs)):
        acc = acc * t + to_fraction(c)
    return acc


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_add(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
            for i in range(n)]


@dataclass(frozen=True)
class Pencil:
    """A family y^2 = x^3 + a(t) x + b(t) with polynomial sections.

    Coefficient lists are ascending-degree.  Each section (x(t), y(t)) must
    satisfy the curve equation identically in t; this is checked exactly.
    """

    a: tuple
    b: tuple
    sections: tuple  # of (x_coeffs, y_coeffs)

    def __post_init__(self):
        a = tuple(to_fraction(c) for c in self.a)
        b = tuple(to_fraction(c) for c in self.b)
        secs = tuple((tuple(to_fraction(c) for c in x),
                      tuple(to_fraction(c) for c in y))
                     for x, y in self.sections)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "sections", secs)
        for idx, (x, y) in enumerate(secs):
            lhs = _poly_mul(list(y), list(y))
            rhs = _poly_mul(_poly_mul(list(x), list(x)), list(x))
            rhs = _poly_add(rhs, _poly_mul(list(a), list(x)))
            rhs = _poly_add(rhs, list(b))
            if any(_poly_add(lhs, [-c for c in rhs])):
                raise InputError(f"section {idx} does not satisfy the pencil "
                                 "equation identically")

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


def specialization_scan(pencil: Pencil, t_values,
                        tolerance: float = 1e-4) -> ScanResult:
    """Pairing matrices of the specialized sections along a parameter sweep.

    Singular fibers, and fibers of parameter height 0 (t = 0, 1 or -1),
    which leave nothing to normalize by, are skipped with a recorded
    reason.  Diagnostics: successive max-entry differences of the
    normalized matrices, and a per-entry least-squares slope of pairing
    against parameter height.
    """
    rows = []
    skipped = []
    for t0 in map(to_fraction, t_values):
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
        heights = {}

        def hhat(key, pt):
            if key not in heights:
                try:
                    heights[key] = canonical_height(curve, pt, tolerance)
                except ResourceError as exc:
                    heights[key] = float(exc.partial)
            return heights[key]

        matrix = [[0.0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                if i == j:
                    val = 2.0 * hhat((i,), points[i])
                else:
                    s = curve._add(points[i], points[j])
                    val = (hhat((i, j), s) - hhat((i,), points[i])
                           - hhat((j,), points[j]))
                matrix[i][j] = matrix[j][i] = val
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
    h_mean = sum(hs) / len(hs)
    denom = sum((h - h_mean) ** 2 for h in hs)
    for i in range(r):
        srow = []
        for j in range(r):
            ys = [row.pairings[i][j] for row in rows]
            y_mean = sum(ys) / len(ys)
            num = sum((h - h_mean) * (y - y_mean) for h, y in zip(hs, ys))
            srow.append(num / denom if denom else 0.0)
        slopes.append(tuple(srow))
    return ScanResult(tuple(rows), tuple(skipped), tuple(diffs), tuple(slopes))
