"""hlx benchmark: one seeded workload per run, every answer checked.

    python3 perfbench/run.py --workload grid5 --seed 1 --seconds 28 --trace 0

Run it from the root of a source checkout; hlx is imported from ./src.  The
workload runs in this process, single-threaded, as a closed loop: one caller,
each instance starting when the previous one has finished.  A pass is one
sweep over the workload's seeded instances; the run makes as many whole
passes as are predicted to end within --seconds (at least MIN_PASSES).

Every time is host-normalized: before each instance, a fixed piece of
pure-Python work (reference()) runs on each CPU, the instance runs on the
CPU where it ran fastest, and the instance's time is scaled by how much
slower than usual that reference ran.  An instance's time is the median of
its scaled times over the passes; the metrics are statistics of those.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every instance
twice, untraced and traced, and prints the per-layer metrics of the
traced runs (see tracer.py).  The last line of stdout is the result as JSON; the
line before it records the environment.  A wrong answer, or an error raised
by the library, ends the run with exit code 1 and no result line.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# a set-up is repeated this many times and its median reported
SETUPS = 9
# a timed run makes at least this many passes, however long they take
MIN_PASSES = 3
# the time of reference() on the host the benchmark was tuned on (a 2-vCPU
# x86-64 VM, Python 3.11): host-normalized times are in its seconds
REFERENCE_S = 0.0007
# tail percentile: the highest one with at least this many instances beyond it
TAIL_BEYOND = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--instances",
        type=int,
        default=None,
        help="run only the first N instances of each pass (smoke tests)",
    )
    ap.add_argument(
        "--negative-control",
        action="store_true",
        help="give one instance a wrong expected answer; the run must fail",
    )
    return ap.parse_args(argv)


def fail(msg, code=2):
    print("perfbench: %s" % msg, file=sys.stderr)
    sys.exit(code)


def import_hlx():
    """Import hlx afresh from ./src; numpy stays loaded after the first."""
    for key in [k for k in sys.modules if k == "hlx" or k.startswith("hlx.")]:
        del sys.modules[key]
    import hlx.cli  # noqa: F401  (imports every hlx module)

    return sys.modules["hlx"]


def setup(workloads, name, seed, cpus):
    """Import hlx and generate the inputs, SETUPS times; returns the median
    host-normalized time and the last inputs (generated against the hlx now
    loaded)."""
    times = []
    before = fastest_cpu(cpus)
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        hlx = import_hlx()
        instances = workloads.generate(name, seed)
        t = time.perf_counter() - t0
        after = fastest_cpu(cpus)
        times.append(normalized(t, before, after))
        before = after
    if os.path.dirname(os.path.abspath(hlx.__file__)) != os.path.join(SRC, "hlx"):
        fail("hlx was imported from %s, not from %s" % (hlx.__file__, SRC))
    return statistics.median(times), instances


def reference():
    """A fixed piece of pure-Python work, about 1 ms: integer matrix powers
    mod 101.  Nothing in it depends on hlx."""
    n = 12
    a = [[(i * j + 1) % 7 for j in range(n)] for i in range(n)]
    for _ in range(4):
        a = [[sum(a[i][k] * a[k][j] for k in range(n)) % 101 for j in range(n)] for i in range(n)]
    return a


def fastest_cpu(cpus):
    """Run reference() once on each CPU the process may use, pin the process
    to the CPU where it ran fastest, and return that time.  On a shared host
    one vCPU is often slowed for seconds at a time by other tenants while
    the other is not.  `cpus` is [None] where affinity cannot be set."""
    tried = []
    for cpu in cpus:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        t0 = time.perf_counter()
        reference()
        tried.append((time.perf_counter() - t0, cpu))
    ref, cpu = min(tried, key=lambda tc: tc[0])
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    return ref


def normalized(seconds, before, after):
    """A time measured between two runs of reference() that took `before`
    and `after` seconds, scaled to the speed of the host where reference()
    takes REFERENCE_S.  Host load slows the reference and the work alike,
    so the ratio keeps little of it; the geometric mean of the runs on
    either side follows the load through a long instance better than
    either run alone."""
    return seconds * REFERENCE_S / math.sqrt(before * after)


def run_pass(workloads, name, instances, cpus):
    """One closed-loop sweep.  fastest_cpu() runs before the first instance
    and after each one, and each instance runs on the CPU it picked just
    before.  Returns the pass wall time, the number of undecided instances
    and, per instance, (seconds, reference seconds before, after)."""
    undecided = 0
    out = []
    t0 = time.perf_counter()
    before = fastest_cpu(cpus)
    for inst in instances:
        ti = time.perf_counter()
        decided = workloads.run_instance(name, inst)
        t = time.perf_counter() - ti
        after = fastest_cpu(cpus)
        out.append((t, before, after))
        before = after
        undecided += not decided
    return time.perf_counter() - t0, undecided, out


def percentile(sorted_vals, q):
    """The q-th percentile as the Harrell-Davis estimate: the mean of all
    the order statistics, the i-th (of n) weighted by the probability that
    a Beta((n+1)p, (n+1)(1-p)) variable, p = q/100, falls in ((i-1)/n, i/n].
    A single order statistic jumps with whichever instance lands at its
    rank; this weights the instances around it smoothly."""
    n = len(sorted_vals)
    if n == 1:
        return sorted_vals[0]
    p = q / 100
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 200  # midpoint rule on each interval
    weights = []
    for i in range(n):
        xs = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(math.fsum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta) for x in xs))
    return math.fsum(w * v for w, v in zip(weights, sorted_vals)) / math.fsum(weights)


def tail_percentile(n):
    """Highest whole percentile with at least TAIL_BEYOND of n beyond it."""
    q = math.floor(100 * (1 - TAIL_BEYOND / n))
    while q > 0 and n - math.ceil(q / 100 * n) < TAIL_BEYOND:
        q -= 1
    return q


def git_sha():
    """HEAD of the checkout, or None when it is not a git working tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args, n_pass):
    import numpy
    from hlx import meataxe

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "brute_bound": meataxe.brute_bound(),
        "instances_per_pass": n_pass,
    }


def main(argv=None):
    args = parse_args(argv)
    if "HLX_MAX_BRUTE" in os.environ:
        fail("HLX_MAX_BRUTE is set; it changes verdicts, so unset it")
    if not os.path.isfile(os.path.join(SRC, "hlx", "__init__.py")):
        fail("no hlx sources under %s" % SRC)
    # single-threaded: no BLAS or OpenMP worker threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail("unknown workload %r; choose from %s" % (args.workload, ", ".join(workloads.WORKLOADS)))

    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
    else:
        cpus = [None]
    setup_s, instances = setup(workloads, args.workload, args.seed, cpus)
    if args.instances is not None:
        instances = instances[: args.instances]
    if args.negative_control:
        for i, inst in enumerate(instances):
            bad = workloads.corrupt(args.workload, inst)
            if bad is not None:
                instances[i] = bad
                break
    env = environment(args, len(instances))

    try:
        if args.trace:
            result = traced_run(workloads, args, instances)
        else:
            result = timed_run(workloads, args, instances, setup_s, cpus, env)
    except workloads.WrongAnswer as exc:
        fail("wrong answer: %s" % exc, code=1)
    except Exception as exc:  # the library raised: a failed instance
        traceback.print_exc()
        fail("error: %s: %s" % (type(exc).__name__, exc), code=1)

    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def timed_run(workloads, args, instances, setup_s, cpus, env):
    """Whole passes until --seconds would be overrun, at least MIN_PASSES.
    Each pass starts from a freshly imported hlx, so every pass repeats the
    same computation from the same module-level caches.  An instance's time
    is the median of its host-normalized times over the passes."""
    runs = [[] for _ in instances]  # per instance: run_pass() triples
    passes = undecided = 0
    longest = 0.0
    start = time.perf_counter()
    while True:
        import_hlx()
        gc.collect()
        wall, und, out = run_pass(workloads, args.workload, instances, cpus)
        for r, o in zip(runs, out):
            r.append(o)
        passes += 1
        undecided += und
        longest = max(longest, wall)
        if passes >= MIN_PASSES and time.perf_counter() - start + longest > args.seconds:
            break

    attempted = len(instances) * passes
    per_instance = [statistics.median(normalized(*o) for o in r) for r in runs]
    ts = sorted(per_instance)
    metrics = {
        "pass_s": (math.fsum(per_instance), "s"),
        "instance_s.p50": (percentile(ts, 50), "s"),
    }
    if len(instances) >= 2 * TAIL_BEYOND:
        q = tail_percentile(len(instances))
        metrics["instance_s.tail"] = (percentile(ts, q), "s")
        env["tail_percentile"] = q
    metrics["decided_frac"] = (1 - undecided / attempted, "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    metrics["setup_s"] = (setup_s, "s")
    env["passes"] = passes
    env["undecided_frac"] = undecided / attempted
    # the same pass time in plain seconds, and the host speed it was scaled by
    env["pass_s_unscaled"] = math.fsum(statistics.median(o[0] for o in r) for r in runs)
    env["reference_s"] = statistics.median(o[1] for r in runs for o in r)
    return result_line(attempted, metrics)


def traced_run(workloads, args, instances):
    """Each instance runs untraced and traced, back to back, so host drift
    falls on both sides of the overhead ratio alike; the order alternates,
    so the first run's warm-up does too."""
    from tracer import Tracer

    tracer = Tracer()
    spent = {False: 0.0, True: 0.0}  # keyed by traced or not
    for i, inst in enumerate(instances):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                t0 = time.perf_counter()
                workloads.run_instance(args.workload, inst)
                spent[traced] += time.perf_counter() - t0
            finally:
                tracer.remove()
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (spent[True] / spent[False] - 1, "ratio")
    return result_line(2 * len(instances), metrics)


def result_line(attempted, metrics):
    return {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
