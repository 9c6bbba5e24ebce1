"""The four workloads: set-up, seeded rounds of tasks, and output checks.

A workload is a `setup` that imports k3cone, loads the configs through
`configio` and builds the objects every task reuses, and a `rounds`
generator that yields lists of tasks.  A task is (kind, run, check): `run`
is the timed call into k3cone and `check` verifies its output outside the
timer.  Every round has the same composition (the first round of
`elliptic_heights` adds one group), so a run that stops on a round
boundary always measures the same mix of tasks.

Task code reaches k3cone through module attributes at call time
(`walls.orbit_walls(...)`), so the traced run's wrappers see every call.
"""

import importlib
import math
from fractions import Fraction

import gen

F4_CONFIG = "configs/f4_frame.json"
PENCIL_CONFIG = "configs/default_pencil.json"
GOLDEN_SVG = "tests/data/golden_uhs.svg"

MODULES = ("configio", "curves", "errors", "heights", "involutions", "linalg",
           "models", "svg", "translations", "walls")


class Context:
    """Imported modules and the objects built once per run."""

    def __init__(self, root):
        self.root = root
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"k3cone.{name}"))
        self.f4 = self.configio.load_frame(root / F4_CONFIG)
        self.pencil = self.configio.load_pencil(root / PENCIL_CONFIG)
        self.f4_gram = [[int(x) for x in row] for row in self.f4.form.gram]
        # per-run bookkeeping filled in by checks
        self.heights_attempted = 0
        self.heights_tol_met = 0
        self.scan_rows = {}
        self.first_output = {}

    def same_as_first(self, key, value):
        """True if value equals the first value seen under key (determinism)."""
        return self.first_output.setdefault(key, value) == value


def _quad(gram, x, y):
    return sum(xi * g * yj for xi, row in zip(x, gram) for g, yj in zip(row, y))


# -- exact_frames -------------------------------------------------------------

EXACT_DIMS = (4, 5, 6, 7, 8)


def exact_setup(ctx):
    pass


def exact_rounds(ctx, rng):
    """One fresh scrambled frame per dimension 4..8 per round."""
    configio, translations, involutions = (ctx.configio, ctx.translations,
                                           ctx.involutions)
    linalg, models = ctx.linalg, ctx.models
    while True:
        tasks = []
        for dim in EXACT_DIMS:
            doc, vs, (v, w, m), boundary = gen.exact_frame_inputs(rng, dim)
            box = {}
            gram = doc["gram"]
            e = tuple(doc["E"])

            def build(doc=doc, box=box):
                frame = configio.frame_from_dict(doc)
                box["frame"] = frame
                return frame, frame.validate()

            def check_build(out, dim=dim):
                frame, report = out
                return report.passed and frame.rank == dim - 2

            tasks.append(("frame", build, check_build))

            for vec in vs:
                def run(vec=vec, box=box):
                    frame = box["frame"]
                    t = translations.translation(frame, vec)
                    return t.preserves_form(), t(frame.classE), t.matrix

                def check(out, gram=gram, e=e):
                    ok, image, mat = out
                    cols = list(zip(*mat))
                    return (ok and image == e and all(
                        _quad(gram, ci, cj) == gram[i][j]
                        for i, ci in enumerate(cols)
                        for j, cj in enumerate(cols)))

                tasks.append(("translation", run, check))

            def identities(v=v, w=w, m=m, box=box):
                frame = box["frame"]
                tv = translations.translation(frame, v)
                tw = translations.translation(frame, w)
                scaled = translations.translation(frame, linalg.vec_scale(m, v))
                vw = translations.translation(frame, linalg.vec_add(v, w))
                return (translations.power(tv, m).matrix == scaled.matrix,
                        translations.compose(tv, tw).matrix
                        == translations.compose(tw, tv).matrix,
                        translations.compose(tv, tw).matrix == vw.matrix)

            tasks.append(("identities", identities, all))

            for i in range(dim - 2):
                def tau(i=i, box=box):
                    frame = box["frame"]
                    pushed = involutions.tau_pushforward(frame, i)
                    expected = translations.translation(
                        frame, frame.translations[i])
                    return pushed.matrix == expected.matrix

                tasks.append(("tau", tau, bool))

            for a, b in boundary:
                def metric(a=a, b=b, box=box):
                    frame = box["frame"]
                    diff = linalg.vec_sub(models.phi(frame, a),
                                          models.phi(frame, b))
                    return (models.boundary_distance_sq(frame, a, b),
                            frame.form.norm2(diff))

                def check_metric(out, a=a, b=b, gram=gram, e=e):
                    dist, norm = out
                    # 2 A.B / ((A.E)(B.E)), evaluated independently
                    exact = (2 * _quad(gram, a, b)
                             / (_quad(gram, a, e) * _quad(gram, b, e)))
                    return dist == -norm == exact

                tasks.append(("boundary", metric, check_metric))
        yield tasks


# -- cusp_render --------------------------------------------------------------

ORBIT_N = 8  # orbit_walls box half-width; (2N + 1)^2 section walls on f4
GOLDEN_N = 2
CIRCLES_PER_ROUND = 8
PAIRS_PER_ROUND = 11  # puts the median task among the ball circles
RESIDUAL_GATE = 1e-9
AGREEMENT_GATE = 1e-9


def cusp_setup(ctx):
    ctx.ball = ctx.models.BallModel(ctx.f4.form, ctx.f4.ample)
    ctx.golden = (ctx.root / GOLDEN_SVG).read_bytes()


def _translate_vector(frame, gv):
    """w = sum m_i v_i, built in the benchmark from the frame's translations."""
    w = [Fraction(0)] * frame.form.dim
    for m, v in zip(gv, frame.translations):
        w = [a + m * b for a, b in zip(w, v)]
    return tuple(w)


def cusp_rounds(ctx, rng):
    frame, ball = ctx.f4, ctx.ball
    models, walls, translations, svg = (ctx.models, ctx.walls,
                                        ctx.translations, ctx.svg)
    gram, e = ctx.f4_gram, tuple(int(x) for x in frame.classE)
    amp = [float(x) for x in frame.ample]
    side = 2 * ORBIT_N + 1

    def orbit():
        return walls.orbit_walls(frame, ORBIT_N)

    def check_orbit(classes):
        return (len(classes) == side * side == len(set(classes))
                and all(_quad(gram, d, d) == -2 and _quad(gram, d, e) == 1
                        for d in classes))

    def golden():
        classes = walls.orbit_walls(frame, GOLDEN_N)
        chart = models.BoundaryChart(frame)
        scene = [walls.wall_circle_uhs(frame, d, chart) for d in classes]
        labels = ["O" if d == frame.classO else "" for d in classes]
        return svg.render_svg(scene, svg.RenderOptions(labels=labels,
                                                       mark_infinity=True))

    def ball_scene():
        classes = walls.orbit_walls(frame, GOLDEN_N)
        scene = [walls.wall_circle_ball(frame.form, d, ball) for d in classes]
        return len(classes), svg.render_svg(
            scene, svg.RenderOptions(scale=280.0))

    def check_ball_scene(out):
        count, doc = out
        return (doc.count("<path ") == count
                and ctx.same_as_first("ball_scene", doc))

    while True:
        tasks = [("orbit", orbit, check_orbit),
                 ("golden_svg", golden,
                  lambda doc: doc.encode() == ctx.golden),
                 ("ball_svg", ball_scene, check_ball_scene)]
        for _ in range(CIRCLES_PER_ROUND):
            w = _translate_vector(frame, gen.group_vector(rng, frame.rank,
                                                          ORBIT_N))

            def uhs(w=w):
                # library defaults: no chart passed, as a one-off caller would
                d = translations.section_translate(frame, w)
                circle = walls.wall_circle_uhs(frame, d)
                samples = walls.sample_wall_circle(frame, circle, 16)
                return circle, walls.max_residual(frame.form, circle, samples)

            def check_uhs(out):
                circle, residual = out
                return (residual < RESIDUAL_GATE
                        and abs(circle.radius - math.sqrt(2.0)) < 1e-9)

            def on_sphere(w=w):
                d = translations.section_translate(frame, w)
                circle = walls.wall_circle_ball(frame.form, d, ball)
                samples = walls.sample_wall_circle(frame.form, circle, 16,
                                                   ball=ball)
                return walls.max_residual(frame.form, circle, samples)

            tasks.append(("uhs_circle", uhs, check_uhs))
            tasks.append(("ball_circle", on_sphere,
                          lambda r: r < RESIDUAL_GATE))
        for _ in range(PAIRS_PER_ROUND):
            x = gen.interior_point(rng, gram, amp)
            y = gen.interior_point(rng, gram, amp)

            def distances(x=x, y=y):
                d0 = models.hyperbolic_distance(frame.form, x, y)
                d1 = models.uhs_distance(frame,
                                         models.to_upper_half_space(frame, x),
                                         models.to_upper_half_space(frame, y))
                d2 = models.ball_distance(ball.ball_point(x),
                                          ball.ball_point(y))
                return d0, d1, d2

            def check_distances(out):
                d0, d1, d2 = out
                return (abs(d0 - d1) < AGREEMENT_GATE
                        and abs(d0 - d2) < AGREEMENT_GATE)

            tasks.append(("distances", distances, check_distances))
        yield tasks


# -- synthetic_pairing --------------------------------------------------------

FIBER_HEIGHTS = (10.0, 100.0, 1000.0, 10000.0)
NOISE_BOUND = 1.0


def synthetic_setup(ctx):
    pass


def synthetic_rounds(ctx, rng):
    """One noisy pairing table (every (i, j)) per round, fresh noise seed."""
    frame, heights = ctx.f4, ctx.heights
    gram = ctx.f4_gram
    rank = frame.rank
    e = tuple(int(x) for x in frame.classE)
    ed = float(_quad(gram, frame.ample, e))
    vnorm = [math.sqrt(-_quad(gram, v, v)) for v in frame.translations]
    while True:
        fib = heights.SyntheticFibration(frame, FIBER_HEIGHTS, NOISE_BOUND,
                                         seed=rng.randrange(2 ** 31))
        tasks = []
        for i in range(rank):
            for j in range(rank):
                def table(i=i, j=j, fib=fib):
                    return heights.limit_experiment(fib, i, j, frame.ample)

                def check(rows, i=i, j=j):
                    # acceptance 07: |deviation| <= 3 M |v| ([E].D) / h(E)
                    target = float(-_quad(gram, frame.translations[i],
                                          frame.translations[j]))
                    v = max(vnorm[i], vnorm[j])
                    return (len(rows) == len(FIBER_HEIGHTS) and all(
                        row.target == target and abs(row.deviation)
                        <= 3.0 * NOISE_BOUND * v * ed / row.fiber_height
                        for row in rows))

                tasks.append(("pairing_table", table, check))
        yield tasks


# -- elliptic_heights ---------------------------------------------------------

SCAN_TS = tuple(Fraction(2) ** k for k in range(3, 9))
SCAN_TOLERANCE = 1e-4
PINNED = (-2, (3, 5), 1e-5)  # acceptance 09's curve and point, at 1e-5
PARALLELOGRAM_GATE = 1e-2  # acceptance 09
SMALL_TOLERANCE = 1e-2
SMALL_GROUPS_PER_ROUND = 1000


def elliptic_setup(ctx):
    curves = ctx.curves
    b, (x, y), _ = PINNED
    ctx.pinned_curve = curves.CurveQ(Fraction(0), Fraction(b))
    ctx.pinned_point = (Fraction(x), Fraction(y))


def _collinear(p, q, r):
    """True if the three affine points lie on one line (or two coincide)."""
    (x1, y1), (x2, y2), (x3, y3) = p, q, r
    return (y2 - y1) * (x3 - x1) == (y3 - y1) * (x2 - x1)


def _height_tasks(ctx, curve, b, points, tol, kind, gate=None):
    """Heights of (P, Q, P+Q, P-Q); the last check scores the group."""
    curves, errors = ctx.curves, ctx.errors
    values = {}

    def on_curve(pt):
        return pt is None or pt[1] ** 2 == pt[0] ** 3 + b

    def group_law():
        p, q = points["P"], points["Q"]
        points["P+Q"] = curve.add(p, q)
        points["P-Q"] = curve.add(p, curve.negate(q))
        return points["P+Q"], points["P-Q"]

    def check_group(out):
        s, d = out
        p, q = points["P"], points["Q"]
        return (on_curve(s) and on_curve(d)
                and (s is None or _collinear(p, q, (s[0], -s[1])))
                and (d is None or _collinear(p, (q[0], -q[1]), (d[0], -d[1]))))

    tasks = [("group_law", group_law, check_group)]
    for key in ("P", "Q", "P+Q", "P-Q"):
        def run(key=key):
            try:
                return curves.canonical_height(curve, points[key], tol)
            except errors.ResourceError as exc:
                return float(exc.partial)

        def check(h, key=key):
            values[key] = h
            if not (math.isfinite(h) and h >= 0.0):
                return False
            if key != "P-Q":
                return True
            residual = abs(values["P+Q"] + values["P-Q"]
                           - 2.0 * values["P"] - 2.0 * values["Q"])
            ctx.heights_attempted += 4
            if residual <= 6.0 * tol:  # each of six height units within tol
                ctx.heights_tol_met += 4
            return gate is None or residual < gate

        tasks.append((kind, run, check))
    return tasks


def elliptic_rounds(ctx, rng):
    """Every round: the scan fiber by fiber, then the seeded small groups.
    The first round also runs the pinned acceptance-09 group."""
    curves = ctx.curves
    pool = gen.curve_pool()
    first = True
    while True:
        tasks = []
        for t in SCAN_TS:
            def scan(t=t):
                return curves.specialization_scan(ctx.pencil, [t],
                                                  SCAN_TOLERANCE)

            def check_scan(result, t=t):
                if len(result.rows) != 1 or result.skipped:
                    return False
                row = result.rows[0]
                r = len(row.pairings)
                ok = all(row.normalized[i][i] > 0.0 and
                         abs(row.pairings[i][j] - row.pairings[j][i]) < 1e-3
                         for i in range(r) for j in range(r))
                ctx.scan_rows[t] = row
                if t == SCAN_TS[-1]:
                    ok = ok and _scan_stabilizes(ctx.scan_rows)
                return ok and ctx.same_as_first(("scan", t), row)

            tasks.append(("scan_fiber", scan, check_scan))

        if first:
            curve, p = ctx.pinned_curve, ctx.pinned_point
            points = {"P": p, "Q": curve.multiply(2, p)}
            tasks += _height_tasks(ctx, curve, PINNED[0], points, PINNED[2],
                                   "large_height", gate=PARALLELOGRAM_GATE)
            first = False

        for b, p, q in gen.curve_groups(rng, pool, SMALL_GROUPS_PER_ROUND):
            curve = curves.CurveQ(Fraction(0), Fraction(b))
            points = {"P": tuple(map(Fraction, p)),
                      "Q": tuple(map(Fraction, q))}
            tasks += _height_tasks(ctx, curve, b, points, SMALL_TOLERANCE,
                                   "height")
        yield tasks


def _scan_stabilizes(rows_by_t):
    """Acceptance 10 on the assembled rows: the successive max-entry
    differences of the normalized matrices shrink and end below 0.1."""
    rows = [rows_by_t[t] for t in SCAN_TS]
    diffs = [max(abs(a - b) for ra, rb in zip(prev.normalized, cur.normalized)
                 for a, b in zip(ra, rb))
             for prev, cur in zip(rows, rows[1:])]
    return (all(b <= a + 1e-9 for a, b in zip(diffs[1:], diffs[2:]))
            and diffs[-1] < 1e-1)


# task kinds whose time goes to bigint gcd rather than the interpreter;
# speed.py scales them by its bigint kernel
BIGINT_KINDS = frozenset({"scan_fiber", "large_height"})

WORKLOADS = {
    "exact_frames": (exact_setup, exact_rounds, 1, 10),
    "cusp_render": (cusp_setup, cusp_rounds, 1, 30),
    "synthetic_pairing": (synthetic_setup, synthetic_rounds, 1, 1),
    # at least two rounds, so that the first round's acceptance-09 group is
    # the same share of every run even when the machine is slow
    "elliptic_heights": (elliptic_setup, elliptic_rounds, 2, 1),
}
"""name -> (setup, rounds, fewest rounds in a timed run, rounds traced)."""
