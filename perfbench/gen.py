"""Seeded input generators for the four workloads.

Everything here is plain Python (ints, Fractions, floats) and imports
nothing from k3cone: the program under test only ever sees the generated
inputs.  The same seed always gives the same inputs.

Frames are built on the basis (E, P, f_1..f_r) with Gram matrix
[[0, 1], [1, 0]] + N, N = -(A^T A + I) negative definite, zero section
O = P - E, ample class 2E + P and translations f_i, and are then moved
through a random unimodular change of basis U.  Vectors are generated in
the old basis, where orthogonality to E and nullity are easy to write down,
and handed out in the new one (x' = U^-1 x).
"""

import math
import random
from fractions import Fraction


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _mat_vec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def _unimodular_pair(rng, n):
    """A random integer matrix U of determinant +-1 and its inverse."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        op = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if op == 0:
            # column j += c * column i; the inverse gets row i -= c * row j
            c = rng.choice([-2, -1, 1, 2])
            for r in range(n):
                u[r][j] += c * u[r][i]
            u_inv[i] = [a - c * b for a, b in zip(u_inv[i], u_inv[j])]
        elif op == 1:
            for r in range(n):
                u[r][i], u[r][j] = u[r][j], u[r][i]
            u_inv[i], u_inv[j] = u_inv[j], u_inv[i]
        else:
            for r in range(n):
                u[r][i] = -u[r][i]
            u_inv[i] = [-a for a in u_inv[i]]
    return u, u_inv


class FrameInput:
    """A scrambled random frame as a config dict, plus vector generators."""

    def __init__(self, rng, dim):
        self.dim = dim
        r = dim - 2
        a = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
        self.neg = [[-(sum(a[k][i] * a[k][j] for k in range(r)) + (i == j))
                     for j in range(r)] for i in range(r)]
        gram = [[0] * dim for _ in range(dim)]
        gram[0][1] = gram[1][0] = 1
        for i in range(r):
            for j in range(r):
                gram[2 + i][2 + j] = self.neg[i][j]
        u, self.u_inv = _unimodular_pair(rng, dim)
        ut = [list(col) for col in zip(*u)]
        e = (1,) + (0,) * (dim - 1)
        o = (-1, 1) + (0,) * r
        ample = (2, 1) + (0,) * r
        fs = [(0, 0) + tuple(int(k == i) for k in range(r)) for i in range(r)]
        self.doc = {
            "gram": _mat_mul(ut, _mat_mul(gram, u)),
            "E": list(self.new(e)),
            "O": list(self.new(o)),
            "ample": list(self.new(ample)),
            "translations": [list(self.new(f)) for f in fs],
        }

    def new(self, x):
        """Coordinates in the scrambled basis of an old-basis vector."""
        return _mat_vec(self.u_inv, x)

    def _neg_norm(self, c):
        return sum(ci * n * cj for ci, row in zip(c, self.neg)
                   for n, cj in zip(row, c))

    def orthogonal_to_fiber(self, rng):
        """Random rational v with v.E = 0: a*E plus a boundary combination."""
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(self.dim - 1)]
        return self.new((coeffs[0], Fraction(0)) + tuple(coeffs[1:]))

    def boundary_class(self, rng):
        """Random rational null class A = P + aE*E + u on the ample side."""
        c = [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
             for _ in range(self.dim - 2)]
        a_e = -self._neg_norm(c) / 2
        return self.new((a_e, Fraction(1)) + tuple(c))


def exact_frame_inputs(rng, dim, n_vectors=3, n_boundary=3):
    """One frame with its seeded translation, identity and boundary inputs."""
    f = FrameInput(rng, dim)
    vs = [f.orthogonal_to_fiber(rng) for _ in range(n_vectors)]
    pair = (f.orthogonal_to_fiber(rng), f.orthogonal_to_fiber(rng),
            rng.randint(-3, 5))
    boundary = [(f.boundary_class(rng), f.boundary_class(rng))
                for _ in range(n_boundary)]
    return f.doc, vs, pair, boundary


def interior_point(rng, gram, ample):
    """A float point of the unit hyperboloid on the ample side (f4-style)."""
    n = len(gram)

    def q(x, y):
        return sum(x[i] * gram[i][j] * y[j] for i in range(n) for j in range(n))

    while True:
        x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        x[0] += 2.0
        x[1] += 2.0
        norm = q(x, x)
        if norm > 0.1 and q(x, ample) > 0:
            return [xi / math.sqrt(norm) for xi in x]


def group_vector(rng, rank, n):
    """A translation group vector with entries in [-n, n]."""
    return tuple(rng.randint(-n, n) for _ in range(rank))


def _integral_points(b, x_max):
    """Points (x, y), y > 0, with integer x <= x_max on y^2 = x^3 + b."""
    out = []
    x = -math.isqrt(abs(b)) if b > 0 else 1
    while x ** 3 + b <= 0:
        x += 1
    for x in range(x, x_max + 1):
        rhs = x ** 3 + b
        y = math.isqrt(rhs)
        if y * y == rhs:
            out.append((x, y))
    return out


def curve_pool(b_max=3000, x_max=60):
    """Every curve y^2 = x^3 + b, 0 < |b| <= b_max, with two or more
    integral points of x <= x_max, as (b, points)."""
    pool = []
    for b in range(-b_max, b_max + 1):
        if b:
            pts = _integral_points(b, x_max)
            if len(pts) >= 2:
                pool.append((b, pts))
    return pool


def curve_groups(rng, pool, count):
    """Seeded (b, P, Q) with P != +-Q integral points on y^2 = x^3 + b.

    The task built from each evaluates heights of P, Q, P+Q and P-Q.  Point
    sizes range from a few units up to the pool's x_max, and the sums and
    differences grow from there.
    """
    groups = []
    for _ in range(count):
        b, pts = rng.choice(pool)
        p, q = rng.sample(pts, 2)
        groups.append((b, p, q))
    return groups


def stream(seed, workload):
    """The random stream for one workload; distinct workloads never share."""
    return random.Random(f"perfbench|{workload}|{seed}")
