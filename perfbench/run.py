"""bandforge benchmark: one seeded, closed-loop, single-client workload per run.

    python3 perfbench/run.py --workload filling-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from `src/`.  The
workloads are `filling-sweep`, `solve-perturbed` and `cli-cold` (see
README.md).  With `--trace 0` the run measures the end-to-end metrics;
with `--trace 1` it measures the per-layer metrics in a separate pass.

The second-to-last line of stdout is a record of the run (environment,
sample counts, failures); the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib.metadata
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# fixed in every process of a run, this one included (it re-executes)
PINNED = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
          "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}

SETUP_PROBES = 7       # fresh processes timed for setup_s; the median counts
SPEED_PERIOD = 0.005   # s between CPU-speed samples
SPEED_LOOPS = 400      # loop length of one sample, ~30 us on an idle 2 GHz core
EDGE_SAMPLES = 8       # samples taken before and after a child process
REFERENCE_NS = 30_000  # one sample at the reference CPU speed
COUNT_OPS = 4          # ops in the RealInterval counting pass
STAGE_RADIUS = 1e-8    # the radius of the ROADMAP stage table
STAGE_MIN_REPS, STAGE_MIN_NS = 5, 50_000_000

END_TO_END = {"setup_s": "s", "op_ms.p50": "ms", "op_ms.p90": "ms",
              "ops_per_s": "1/s", "positive_share": "ratio",
              "rss_peak_mb": "MB"}

# per-layer self time per op, from the span of the same name
SELF_TIME = {"cli.interp_ms": "cli.interp", "cli.import_ms": "cli.import",
             "cli.main_ms": "cli.main", "tri.parse_ms": "tri.parse",
             "tri.serialize_ms": "tri.serialize",
             "tri.validate_ms": "tri.validate",
             "fixtures.load_ms": "fixtures.load",
             "gluing.build_ms": "gluing.build",
             "gluing.select_rows_ms": "gluing.select_rows",
             "gluing.newton_ms": "gluing.newton",
             "krawczyk.test_ms": "krawczyk.test",
             "krawczyk.interval_volume_ms": "krawczyk.interval_volume",
             "dilog.volume_ms": "dilog.volume",
             "tangle.call_us": "tangle.call",
             "surgery.call_us": "surgery.call"}
STAGES = ("parse_validate", "build", "select_rows", "newton", "krawczyk",
          "interval_volume", "float_volume")
# per-layer counts and ratios, and the span each is read from
FROM_SPAN = {"gluing.select_rows_calls": "gluing.select_rows",
             "gluing.newton_iters": "gluing.newton",
             "gluing.newton_fail_share": "gluing.newton",
             "krawczyk.tests_per_op": "krawczyk.test",
             "krawczyk.valid_share": "krawczyk.test",
             "krawczyk.volume_width_max": "krawczyk.test"}
PER_LAYER = {**{m: m.rsplit("_", 1)[1] for m in SELF_TIME},
             "gluing.select_rows_calls": "count",
             "gluing.newton_iters": "count",
             "gluing.newton_fail_share": "ratio",
             "krawczyk.tests_per_op": "count",
             "krawczyk.valid_share": "ratio",
             "krawczyk.volume_width_max": "width",
             "intervals.objects_per_op": "count",
             "trace.overhead_share": "ratio",
             **{f"stage.{s}_ms.{fx}": "ms" for s in STAGES for fx in "AB"}}


def pinned_env():
    env = dict(os.environ, **PINNED)
    path = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    if path[:1] != [str(SRC)]:
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), *path])
    return env


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("filling-sweep", "solve-perturbed", "cli-cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="internal: set up, run the warm-up op, print "
                         "'ready' and exit (one setup_s sample)")
    return ap.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if not (SRC / "bandforge" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    env = pinned_env()
    if any(os.environ.get(k) != env[k] for k in (*PINNED, "PYTHONPATH")):
        os.execve(sys.executable, [sys.executable, str(HERE / "run.py"), *argv],
                  env)
    # one CPU for this process and every child, so that the speed
    # samples measure the CPU the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    warm = wl.op(wl.warmup_input())
    if args.probe:
        print("ready", flush=True)
        return 0

    setup_problems = wl.check(warm) + wl.check_reference()
    with SpeedSampler() as speed:
        if args.trace:
            record, result = traced_run(wl, args, speed)
        else:
            record, result = untraced_run(wl, args, speed)
    failures = setup_problems + record.pop("problems")
    result["correct"] = not failures
    record.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  env=environment(), failures=failures[:20],
                  error_share=result["failed"] / result["attempted"])
    print(json.dumps({"record": record}))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


# ------------------------------------------------------------------ timing

class SpeedSampler:
    """Samples the CPU's speed while the run measures.

    On a shared machine the CPU runs anywhere between full speed and
    about half speed as neighbours come and go, in stretches from tens of
    milliseconds to seconds.  A sample times a short fixed loop on the
    CPU that the ops, and the child processes, which inherit this
    process's affinity, run on.  Every SPEED_PERIOD a SIGALRM handler
    takes one.  Around a child process the timer stops, since the
    handler would compete with the child for the CPU; EDGE_SAMPLES are
    taken right before and right after it instead.
    `slowdown(start, end)` is the mean time of the samples in and next to
    that interval over REFERENCE_NS, a fixed constant, so that a run that
    never sees the CPU at full speed is rescaled as much as the others.
    """

    def __init__(self):
        self.times, self.durations = [], []
        self._ordered = None

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter_ns()
        acc = 0
        for i in range(SPEED_LOOPS):
            acc += i * i % 7
        self.times.append(t0)
        self.durations.append(time.perf_counter_ns() - t0)

    def _timer(self, on):
        period = SPEED_PERIOD if on else 0
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        self._timer(True)
        return self

    def __exit__(self, *exc):
        self._timer(False)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def around_child(self):
        self._timer(False)
        for _ in range(EDGE_SAMPLES):
            self._sample()
        try:
            yield
        finally:
            for _ in range(EDGE_SAMPLES):
                self._sample()
            self._timer(self._ordered is None)

    def slowdown(self, start, end):
        """Mean slowdown over [start, end]; the samples next to it count too.

        The first call ends the sampling, so call it once all timing is
        done.  It sorts the samples: a handler can interrupt a direct
        sample, so they may be out of order.
        """
        if self._ordered is None:
            self._timer(False)
            pairs = sorted(zip(self.times, self.durations))
            self._ordered = ([t for t, _ in pairs], [d for _, d in pairs])
        times, durations = self._ordered
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        window = durations[max(lo - EDGE_SAMPLES, 0):hi + EDGE_SAMPLES]
        return statistics.fmean(window) / REFERENCE_NS

    def summary(self):
        ordered = sorted(self.durations)
        return {"samples": len(ordered),
                "slowdown_quartiles": [ordered[len(ordered) * k // 4]
                                       / REFERENCE_NS for k in (1, 2, 3)]}


class Tally:
    """Checks each outcome as it arrives and keeps only the verdicts.

    Latencies are kept raw with the op's start and end; `normalized()`
    rescales each to the reference CPU speed, so that the figures
    describe the program rather than the neighbours.
    """

    def __init__(self, wl):
        self.wl = wl
        self.latencies, self.windows = [], []     # ns per op; (start, end)
        self.failed = self.positive = 0
        self.problems, self.notes = [], []

    def add(self, out):
        found = self.wl.check(out)
        self.failed += bool(found)
        self.problems += found
        self.positive += bool(self.wl.positive(out))
        self.notes.append(self.wl.note(out))

    def normalized(self, speed):
        return [lat / speed.slowdown(*win)
                for lat, win in zip(self.latencies, self.windows)]


def run_ops(wl, tally, speed, seconds=None, count=None, tracer=None):
    """Closed loop, one client: op i starts when op i-1 has been checked.

    Runs until the ops have taken `seconds` (at least one op), or for
    exactly `count` ops.  Outputs are checked between ops, off the clock.
    """
    busy = i = 0
    while (i < count) if count is not None else (
            i == 0 or busy < seconds * 1e9):
        inp = wl.prepare(i)
        if tracer is not None:
            tracer.begin_op(i)
            root = tracer.open("op")
        with (speed.around_child() if wl.child_process
              else contextlib.nullcontext()):
            t0 = time.perf_counter_ns()
            out = wl.op(inp, tracer)
            t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.close(root)
            tracer.end_op()
            if getattr(out, "spans", None):
                adopt_child_spans(tracer, i, root, out.spans)
        tally.latencies.append(t1 - t0)
        tally.windows.append((t0, t1))
        busy += t1 - t0
        tally.add(out)
        i += 1


def untraced_run(wl, args, speed):
    tally = Tally(wl)
    run_ops(wl, tally, speed, seconds=args.seconds)
    who = (resource.RUSAGE_CHILDREN if args.workload == "cli-cold"
           else resource.RUSAGE_SELF)
    rss_mb = resource.getrusage(who).ru_maxrss / 1024     # KiB on Linux
    setup_raw, setup_windows = setup_samples(args, speed)
    setup = [t / speed.slowdown(*w) for t, w in zip(setup_raw, setup_windows)]
    n = len(tally.latencies)
    ns = tally.normalized(speed)
    p50, p90 = percentiles([t / 1e6 for t in ns])
    metrics = {"setup_s": statistics.median(setup),
               "op_ms.p50": p50, "op_ms.p90": p90,
               "ops_per_s": n / (sum(ns) / 1e9),
               "positive_share": tally.positive / n, "rss_peak_mb": rss_mb}
    raw_p50, raw_p90 = percentiles([t / 1e6 for t in tally.latencies])
    record = {"samples": n,
              "raw": {"op_ms.p50": raw_p50, "op_ms.p90": raw_p90,
                      "ops_per_s": n / (sum(tally.latencies) / 1e9),
                      "setup_s": statistics.median(setup_raw)},
              "cpu_speed": speed.summary(),
              "setup_samples_s": {"raw": setup_raw, "normalized": setup},
              "problems": tally.problems, **wl.summary(tally.notes)}
    return record, {"attempted": n, "failed": tally.failed,
                    "metrics": {k: {"value": v, "unit": END_TO_END[k]}
                                for k, v in metrics.items()}}


def percentiles(values):
    if len(values) < 2:
        return values[0], values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]


def setup_samples(args, speed):
    """Seconds from spawning a fresh process to its first op being ready.

    Returns the samples and their (start, end) in perf_counter ns.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--probe"]
    samples, windows = [], []
    for _ in range(SETUP_PROBES):
        with speed.around_child():
            t0 = time.perf_counter_ns()
            with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True) as proc:
                line = proc.stdout.readline()
                t1 = time.perf_counter_ns()
                proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        samples.append((t1 - t0) / 1e9)
        windows.append((t0, t1))
    return samples, windows


# ------------------------------------------------------------------ tracing

def traced_run(wl, args, speed):
    """Per-layer metrics; the same ops run untraced, then traced."""
    from spans import Tracer, self_times

    plain = Tally(wl)
    run_ops(wl, plain, speed, seconds=args.seconds / 2)
    n = len(plain.latencies)
    tracer = Tracer()
    tracer.install()
    traced = Tally(wl)
    run_ops(wl, traced, speed, count=n, tracer=tracer)
    failed = plain.failed + traced.failed
    problems = plain.problems + traced.problems

    selfs = self_times(tracer.spans)
    roots, covered = {}, {}
    for k, span in enumerate(tracer.spans):
        if span[1] == "op":
            roots[span[0]] = span[3] - span[2]
        else:
            covered[span[0]] = covered.get(span[0], 0) + selfs[k]
    for i, duration in roots.items():
        if covered.get(i, 0) > duration:
            failed += 1
            problems.append(f"op {i}: span self times {covered[i]} ns exceed "
                            f"the op's {duration} ns")

    objects = count_objects(wl, min(n, COUNT_OPS))
    stages, stage_absent = stage_table()

    # timing is over: from here on, rescale to the reference CPU speed
    metrics = layer_metrics(tracer, selfs, n, speed)
    metrics["trace.overhead_share"] = (sum(traced.normalized(speed))
                                       / sum(plain.normalized(speed)) - 1)
    metrics["intervals.objects_per_op"] = objects
    for name, windows in stages.items():
        metrics[name] = statistics.median(
            (t1 - t0) / speed.slowdown(t0, t1) for t0, t1 in windows) / 1e6
    absent = sorted(m for m, span in {**SELF_TIME, **FROM_SPAN}.items()
                    if span not in tracer.present)
    absent += stage_absent
    if metrics["intervals.objects_per_op"] is None:
        absent.append("intervals.objects_per_op")
    for name in absent:
        metrics[name] = 0.0
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps(
        {"fields": ["op", "name", "start_ns", "end_ns", "parent", "attrs"],
         "spans": tracer.spans}))
    record = {"samples": n, "absent": absent, "problems": problems,
              "spans_file": str(spans_file.relative_to(ROOT))}
    return record, {"attempted": 2 * n, "failed": failed,
                    "metrics": {k: {"value": metrics[k], "unit": u}
                                for k, u in PER_LAYER.items()}}


def adopt_child_spans(tracer, op, root, child):
    """Attach a traced child process's spans under the op's root span."""
    base = len(tracer.spans)
    tracer.add(op, "cli.interp", child["spawn"], child["started"], root)
    for name, start, end, parent, attrs in (s[1:] for s in child["spans"]):
        tracer.add(op, name, start, end,
                   root if parent is None else base + 1 + parent, attrs)
    tracer.present.update(child["present"], ("cli.interp", "cli.import",
                                             "cli.main"))


def layer_metrics(tracer, selfs, n, speed):
    total, calls = {}, {}
    iters = newton_failed = valid = 0
    width = 0.0
    for span, own in zip(tracer.spans, selfs):
        name, attrs = span[1], span[5]
        total[name] = total.get(name, 0) + own / speed.slowdown(*span[2:4])
        calls[name] = calls.get(name, 0) + 1
        if name == "gluing.newton":
            iters += attrs.get("iters", 0)
            newton_failed += "error" in attrs
        elif name == "krawczyk.test":
            valid += attrs.get("valid", False)
            width = max(width, attrs.get("width", 0.0))
    out = {}
    for metric, name in SELF_TIME.items():
        scale = 1e3 if metric.endswith("_us") else 1e6
        out[metric] = total.get(name, 0) / scale / n
    newton, tests = calls.get("gluing.newton", 0), calls.get("krawczyk.test", 0)
    out.update({
        "gluing.select_rows_calls": calls.get("gluing.select_rows", 0) / n,
        "gluing.newton_iters": iters / n,
        "gluing.newton_fail_share": newton_failed / newton if newton else 0.0,
        "krawczyk.tests_per_op": tests / n,
        "krawczyk.valid_share": valid / tests if tests else 0.0,
        "krawczyk.volume_width_max": width})
    return out


def count_objects(wl, ops):
    """RealInterval constructions per op, in a pass of its own."""
    from spans import count_constructions
    try:
        from bandforge.intervals import RealInterval
    except ImportError:
        return None
    inputs = [wl.prepare(i) for i in range(ops)]
    run_op = getattr(wl, "inprocess", wl.op)
    made = count_constructions(
        RealInterval, lambda: [run_op(inp) for inp in inputs])
    return made / ops


def stage_table():
    """(start, end) of repeated calls of each pipeline stage on A and B."""
    from bandforge import dilog, fixtures, gluing, krawczyk, tri
    out, absent = {}, []
    for label in "AB":
        text = fixtures.fixture_text(label)
        state = {}
        steps = [
            ("parse_validate", lambda: tri.parse_triangulation(text), "tri"),
            ("build", lambda: gluing.build_equations(state["tri"]), "sys"),
            ("select_rows", lambda: gluing.select_square_rows(
                state["sys"], [t.shape_hint for t in state["tri"].tets]), None),
            ("newton", lambda: gluing.newton_solve(
                state["sys"], [t.shape_hint for t in state["tri"].tets]),
             "newton"),
            ("krawczyk", lambda: krawczyk.krawczyk_test(
                state["sys"], state["newton"].shapes, STAGE_RADIUS), "cert"),
            ("interval_volume", lambda: krawczyk.interval_volume(
                state["cert"].enclosures), None),
            ("float_volume", lambda: dilog.volume(state["newton"].shapes),
             None),
        ]
        for stage, fn, keep in steps:
            name = f"stage.{stage}_ms.{label}"
            try:
                out[name], value = time_stage(fn)
            except Exception:
                absent.append(name)
                continue
            if keep:
                state[keep] = value
    return out, absent


def time_stage(fn):
    windows, spent = [], 0
    while len(windows) < STAGE_MIN_REPS or spent < STAGE_MIN_NS:
        t0 = time.perf_counter_ns()
        value = fn()
        windows.append((t0, time.perf_counter_ns()))
        spent += windows[-1][1] - t0
    return windows, value


# ------------------------------------------------------------------ record

def environment():
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": git_commit(), "threads": {k: os.environ.get(k)
                                                for k in PINNED}}


def git_commit():
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
