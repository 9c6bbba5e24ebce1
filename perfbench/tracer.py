"""Per-layer tracing by wrapping k3cone's public functions at run time.

The program's source is never edited.  `Tracer.install` replaces each
target function (and every alias other k3cone modules imported, such as
`heights.inner_f` or `walls.inner_f`) with a timing wrapper.  Each wrapper
keeps, per target, a call count and the self time (span time minus the
time of traced calls made inside it).  Exceptions raised
through a wrapper are counted by type.

Hot leaf functions are aggregated as counters only; every other call is
also kept as a span (id, parent id, name, start, end) in memory and
written out once by `write_spans`.  Nothing is installed unless `install`
is called, and `installed_wrappers` lets the timed run prove that.
"""

import json
import sys
import time

_MARK = "_perfbench_wrapper"

# (metric prefix, module, attribute path, leaf).  Leaves call no other
# target, so they need no span stack of their own.
TARGETS = (
    ("lattice.inner", "lattice", "IntersectionForm.inner", True),
    ("linalg.mat_mul", "linalg", "mat_mul", False),
    ("linalg.inverse", "linalg", "inverse", False),
    ("translations.translation", "translations", "translation", False),
    ("translations.preserves_form", "translations", "Isometry.preserves_form",
     False),
    ("translations.section_translate", "translations", "section_translate",
     False),
    ("involutions.tau_pushforward", "involutions", "tau_pushforward", False),
    ("frame.validate", "frame", "FibrationFrame.validate", False),
    ("frame.create", "frame", "FibrationFrame.create", False),
    ("frame.decompose", "frame", "FibrationFrame.decompose", False),
    ("frame.perp_basis", "frame", "FibrationFrame.perp_basis", False),
    ("configio.load_frame", "configio", "load_frame", False),
    ("configio.frame_from_dict", "configio", "frame_from_dict", False),
    ("walls.orbit_walls", "walls", "orbit_walls", False),
    ("walls.wall_circle_uhs", "walls", "wall_circle_uhs", False),
    ("walls.wall_circle_ball", "walls", "wall_circle_ball", False),
    ("walls.sample_wall_circle", "walls", "sample_wall_circle", False),
    ("walls.max_residual", "walls", "max_residual", False),
    ("svg.render_svg", "svg", "render_svg", False),
    ("models.inner_f", "models", "inner_f", True),
    ("models.BoundaryChart.__init__", "models", "BoundaryChart.__init__",
     False),
    ("models.BoundaryChart.euclid", "models", "BoundaryChart.euclid", False),
    ("models.hyperbolic_distance", "models", "hyperbolic_distance", False),
    ("models.uhs_distance", "models", "uhs_distance", False),
    ("models.ball_distance", "models", "ball_distance", False),
    ("heights.canonical_height", "heights", "canonical_height", False),
    ("heights.iterated_height", "heights",
     "SyntheticFibration.iterated_height", False),
    ("curves.canonical_height", "curves", "canonical_height", False),
    ("curves.CurveQ.add", "curves", "CurveQ.add", False),
    ("curves.Pencil.specialize", "curves", "Pencil.specialize", False),
    ("curves.specialization_scan", "curves", "specialization_scan", False),
)

SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0] for name, *_ in TARGETS}  # calls, self_s
        self.errors = {}
        self.spans = []
        self.dropped_spans = 0
        self._child_time = []  # one accumulator per open non-leaf span
        self._open_ids = []
        self._next_id = 0
        self._restore = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, leaf):
        stats, child_time = self.stats[name], self._child_time
        clock = time.perf_counter

        if leaf:
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                except Exception as exc:
                    self._count_error(name, exc)
                    raise
                finally:
                    dt = clock() - t0
                    stats[0] += 1
                    stats[1] += dt
                    if child_time:
                        child_time[-1] += dt
        else:
            def wrapper(*args, **kwargs):
                span_id = self._next_id
                self._next_id += 1
                parent = self._open_ids[-1] if self._open_ids else None
                self._open_ids.append(span_id)
                child_time.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                except Exception as exc:
                    self._count_error(name, exc)
                    raise
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    inner = child_time.pop()
                    self._open_ids.pop()
                    stats[0] += 1
                    stats[1] += dt - inner
                    if child_time:
                        child_time[-1] += dt
                    if len(self.spans) < SPAN_CAP:
                        self.spans.append((span_id, parent, name, t0, t1))
                    else:
                        self.dropped_spans += 1

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        setattr(wrapper, _MARK, name)
        return wrapper

    def _count_error(self, name, exc):
        key = (name, type(exc).__name__)
        self.errors[key] = self.errors.get(key, 0) + 1

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target, including aliases in other k3cone modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None
                   and (n == "k3cone" or n.startswith("k3cone."))]
        for name, mod_name, path, leaf in TARGETS:
            module = sys.modules[f"k3cone.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, leaf))
                else:
                    new = self._wrap(name, raw, leaf)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(module, path)
            wrapped = self._wrap(name, original, leaf)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def metrics(self):
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        return out

    def error_count(self, name, exc_name):
        return self.errors.get((name, exc_name), 0)

    def write_spans(self, path):
        """Write the kept spans as JSON lines, once, at the end of the run."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": t0, "end": t1})
                         + "\n")


def installed_wrappers():
    """Names of targets currently replaced by a wrapper (should be none)."""
    found = set()
    for n, mod in list(sys.modules.items()):
        if mod is None or not (n == "k3cone" or n.startswith("k3cone.")):
            continue
        for value in list(vars(mod).values()):
            candidates = [value]
            if isinstance(value, type):
                candidates = [getattr(v, "__func__", v)
                              for v in vars(value).values()]
            for c in candidates:
                mark = getattr(c, _MARK, None)
                if mark is not None:
                    found.add(mark)
    return sorted(found)
