"""k3cone benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload exact_frames --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, timed and traced

Run from the root of a checkout; the program is imported from its `src/`.
With `--trace 0` the workload runs untraced, in rounds, until `--seconds`
have passed, and the last line of output is a JSON object with the
end-to-end metrics, with task and set-up times scaled to a reference
machine speed (see speed.py).  With `--trace 1` a fixed number of rounds
runs twice, untraced and then with every layer's public functions wrapped,
and the JSON carries the per-layer metrics and the tracing overhead.  See
README.md.
"""

import time

_START = time.perf_counter()  # "process start" for setup_s

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedLog  # noqa: E402

SETUP_SAMPLES = 5  # this process plus SETUP_SAMPLES - 1 fresh probe processes
TAIL_BEYOND = 10  # the tail percentile has at least this many tasks beyond it
PROBE_TIMEOUT_S = 60


def import_program():
    """Put the checkout's src/ first on the path and import k3cone from it."""
    src = ROOT / "src"
    if not (src / "k3cone" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no k3cone sources under {src}")
    sys.path.insert(0, str(src))
    import k3cone
    if Path(k3cone.__file__).resolve().parent != (src / "k3cone").resolve():
        raise SystemExit("perfbench: imported k3cone from outside the checkout")


def setup(name):
    """Import, config load and object construction; returns the context."""
    import_program()
    ctx = workloads.Context(ROOT)
    workloads.WORKLOADS[name][0](ctx)
    return ctx


def run_tasks(tasks, results, speed=None):
    """Time each task's call, then check its output outside the timer.

    Appends (kind, start, seconds, ok).  With a SpeedLog, the reference
    kernel is timed between tasks as it falls due.
    """
    clock = time.perf_counter
    for kind, run, check in tasks:
        if speed is not None:
            speed.maybe_sample()
        t0 = clock()
        try:
            out = run()
        except Exception as exc:  # a raising task is a failed task
            results.append((kind, t0, clock() - t0, False))
            print(f"task {kind} raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            continue
        dt = clock() - t0
        try:
            ok = bool(check(out))
        except Exception as exc:
            ok = False
            print(f"check of {kind} raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
        if not ok:
            print(f"task {kind} failed its check", file=sys.stderr)
        results.append((kind, t0, dt, ok))


def scaled_times(results, speed):
    """Each task's seconds, scaled to the reference machine speed."""
    speed.sample()  # so that the last task has a sample after it
    return [dt * speed.scale(t0, t0 + dt, kind in workloads.BIGINT_KINDS)
            for kind, t0, dt, _ in results]


def tail(values):
    """(value, p): the highest whole percentile p with at least TAIL_BEYOND
    values beyond it, and the value there (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    return ordered[max(math.ceil(pct * n / 100), 1) - 1], pct


def setup_probe(name, speed):
    """Set-up time of one fresh process, scaled by kernels around it."""
    speed.sample(3)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", name],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        check=True)
    t1 = time.perf_counter()
    speed.sample(3)
    raw = float(proc.stdout.strip().splitlines()[-1])
    return raw, raw * speed.scale(t0, t1)


def timed_run(name, seed, seconds):
    """Rounds until `seconds` have passed; end-to-end metrics.

    The set-up probes run between rounds, spread over the run, so that the
    median set-up time does not hang on one moment of the machine's load.
    """
    ctx = setup(name)
    own_setup = time.perf_counter() - _START
    speed = SpeedLog()
    speed.sample(3)
    setups = [(own_setup, own_setup * speed.median_scale())]
    if tracer.installed_wrappers():
        raise SystemExit("perfbench: wrappers installed in the timed run")
    _, make_rounds, min_rounds, _ = workloads.WORKLOADS[name]
    rounds = make_rounds(ctx, gen.stream(seed, name))
    probes = SETUP_SAMPLES - 1
    results = []
    started = time.perf_counter()
    n_rounds = 0
    while n_rounds < min_rounds or time.perf_counter() - started < seconds:
        if len(setups) <= probes * (time.perf_counter() - started) / seconds:
            setups.append(setup_probe(name, speed))
        run_tasks(next(rounds), results, speed)
        n_rounds += 1
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_probe(name, speed))
    wall = time.perf_counter() - started
    wrapped = tracer.installed_wrappers()

    raw = [dt for _, _, dt, _ in results]
    scaled = scaled_times(results, speed)
    failed = sum(1 for *_, ok in results if not ok)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail_s, tail_pct = tail(scaled)
    print(f"{name} seed={seed}: {len(results)} tasks in {n_rounds} rounds, "
          f"{wall:.2f} s wall, {sum(raw):.2f} s in tasks; "
          f"task_tail_ms is p{tail_pct} of {len(results)} tasks; "
          f"fail_ratio {failed / len(results):.4g}")
    print(f"  speed scale: median {speed.median_scale():.3f} (interpreter), "
          f"{speed.median_scale(bigint=True):.3f} (bigint) over "
          f"{len(speed.times)} kernel samples; raw tasks_per_s "
          f"{len(raw) / sum(raw):.6g}, task_p50_ms "
          f"{statistics.median(raw) * 1e3:.6g}, task_tail_ms "
          f"{tail(raw)[0] * 1e3:.6g}, setup_s "
          f"{statistics.median(r for r, _ in setups):.6g}")
    by_kind = {}
    for kind, _, dt, _ in results:
        count, total = by_kind.get(kind, (0, 0.0))
        by_kind[kind] = (count + 1, total + dt)
    print("  raw busy by task kind: " + ", ".join(
        f"{kind} {count} x {total / count * 1e3:.3g} ms = {total:.2f} s"
        for kind, (count, total) in by_kind.items()))
    if ctx.heights_attempted:
        print(f"  curves.canonical_height.tol_met_ratio "
              f"{ctx.heights_tol_met / ctx.heights_attempted:.4f} "
              f"of {ctx.heights_attempted} heights")
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "tasks_per_s": (len(scaled) / sum(scaled), "1/s"),
        "task_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "task_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return results, not wrapped, metrics


def traced_run(name, seed):
    """Fixed rounds untraced, then the same rounds traced; per-layer metrics."""
    _, make_rounds, _, n_rounds = workloads.WORKLOADS[name]
    busy = []
    tr = tracer.Tracer()
    all_results = []
    for traced in (False, True):
        speed = SpeedLog()
        if traced:
            tr.install()
        try:
            ctx = setup(name)
            rounds = make_rounds(ctx, gen.stream(seed, name))
            results = []
            for _ in range(n_rounds):
                run_tasks(next(rounds), results, speed)
        finally:
            tr.uninstall()
        busy.append(sum(scaled_times(results, speed)))
        all_results += results

    metrics = tr.metrics()
    heights_calls = tr.stats["heights.canonical_height"][0]
    iterated = tr.stats["heights.iterated_height"][0]
    metrics["heights.iterated_height.per_canonical_height"] = (
        iterated / heights_calls if heights_calls else 0.0, "ratio")
    metrics["curves.canonical_height.errors"] = (
        tr.error_count("curves.canonical_height", "ResourceError"), "count")
    metrics["curves.canonical_height.tol_met_ratio"] = (
        ctx.heights_tol_met / ctx.heights_attempted
        if ctx.heights_attempted else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (busy[1] / busy[0] - 1.0, "ratio")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{name}-seed{seed}.jsonl"
    tr.write_spans(spans_path)
    print(f"{name} seed={seed}: {n_rounds} round(s), speed-scaled busy time "
          f"untraced {busy[0]:.3f} s, traced {busy[1]:.3f} s; "
          f"{len(tr.spans)} spans ({tr.dropped_spans} dropped) in "
          f"{spans_path.relative_to(ROOT)}")
    return all_results, True, metrics


def result_line(results, clean, metrics):
    failed = sum(1 for *_, ok in results if not ok)
    return json.dumps({
        "correct": clean and failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    })


def run_all(seed, seconds):
    """Every workload in its own process, timed then traced; a summary table."""
    rows = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            doc = json.loads(lines[-1])
            rows.append((name, trace, doc))
    for name, trace, doc in rows:
        fail_ratio = doc["failed"] / doc["attempted"]
        print(f"\n== {name} ({'traced' if trace else 'timed'}) correct="
              f"{doc['correct']} attempted={doc['attempted']} "
              f"fail_ratio={fail_ratio:.4g}")
        for key, m in doc["metrics"].items():
            if not trace or m["value"]:
                print(f"  {key:52s} {m['value']:>14.6g} {m['unit']}")
    return all(doc["correct"] for _, _, doc in rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="run one workload (default: all, as a table)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload is None:
        return 0 if run_all(args.seed, args.seconds) else 1
    if args.setup_probe:
        setup(args.workload)
        print(time.perf_counter() - _START)
        return 0
    if args.trace:
        results, clean, metrics = traced_run(args.workload, args.seed)
    else:
        results, clean, metrics = timed_run(args.workload, args.seed,
                                            args.seconds)
    print(result_line(results, clean, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
