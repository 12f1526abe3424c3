"""volrig benchmark: times real CLI jobs and checks every verdict.

Usage (from the repository root):

    python3 bench/run.py --workload rank-ladder --seed 1 --seconds 20 --trace 0

One client runs the workload's job list in a closed loop, one
`python -m volrig.cli ...` subprocess at a time, for the whole passes that
fit into --seconds (at least one).  --trace 0 prints the end-to-end
metrics; --trace 1 adds traced passes (bench/tracer.py) to untraced ones
and prints the per-layer metrics.  The last stdout line is one JSON
object; see bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "volrig")
TRACER = os.path.join(ROOT, "bench", "tracer.py")

ROUNDS = 4             # seeded copies of each workload's job list per pass
TRACE_ROUNDS = 2       # the same in a traced run, which takes three passes
TRACED_PASSES = 2      # least traced passes of a traced run, to compare counts
SETUP_REPEATS = 7      # set-ups per run; setup_s is their median
JOB_TIMEOUT = 30.0     # seconds; a job past it is killed and counts as failed
RUN_LIMIT = 160.0      # seconds; no job starts or runs past this

# The host's speed drifts by a third and more over tens of seconds (other
# tenants of the machine), and a pass lasts about that long, so raw wall
# times of one code spread past any useful bound from run to run.  Before
# every job (and every set-up) the client times a fixed pure-Python loop on
# the CPU the job will run on; each time is reported at reference host
# speed: multiplied by CAL_REF_S over the mean of the calibrations of its
# own job and the CAL_WINDOW jobs on each side.  Raw times are printed
# beside them.
CAL_LOOPS = 100_000
CAL_REF_S = 0.013      # the loop's time on the reference host
CAL_WINDOW = 2

# Per-layer metrics of the traced run, besides `<span>.calls` for every span
# in tracer.py.  Times are summed over one pass of the job list; `.s` is
# the inclusive time of the outermost spans of a name, `.self_s` excludes
# child spans.  Only times that are nonzero on every workload go into the
# result line (a layer a workload never reaches would read 0.0 on every
# run); the run prints every span's `.s` and `.self_s` above it.
LAYER_EXTRAS = [
    "linalg.rank.cells", "linalg.span.cells", "linalg.kernel.cells",
    "cycles.contraction.steps", "shifting.basis.distinct_ratio",
    "linalg.self_s", "fileio.read.s", "cli.startup_s", "cli.self_s",
    "trace.overhead_s",
]

# Which layers each workload must reach (nonzero calls) and must not reach
# (zero calls), by span-name prefix.  A wrapper that misses a call path
# breaks this pattern, so the traced run fails instead of reading low.
COVERAGE = {
    "rank-ladder": (
        ["linalg.rank", "linalg.det", "rigidity.placement",
         "rigidity.assembly", "fileio.read"],
        ["sparsity.", "shifting.", "cycles.", "complexes.contract_edge",
         "linalg.span", "linalg.kernel", "fileio.load_dataset"]),
    "shift-membership": (
        ["linalg.rank", "linalg.span", "linalg.det", "shifting.basis",
         "shifting.compound", "shifting.membership", "shifting.level",
         "shifting.wedge"],
        ["sparsity.", "cycles.", "rigidity.", "complexes.contract_edge",
         "linalg.kernel", "fileio.load_dataset"]),
    "combinatorics": (
        ["sparsity.check", "sparsity.complete", "linalg.kernel",
         "cycles.boundary", "cycles.cycle_space", "cycles.contraction",
         "cycles.admissible", "complexes.contract_edge", "complexes.k_faces"],
        ["rigidity.", "shifting.", "linalg.rank", "linalg.span",
         "cycles.verify", "fileio.load_dataset"]),
    "surfaces": (
        ["fileio.load_dataset", "fileio.read", "cycles.verify",
         "cycles.admissible", "rigidity.placement", "rigidity.assembly",
         "shifting.basis", "shifting.membership", "linalg.rank",
         "linalg.span", "linalg.det"],
        ["sparsity.", "cycles.contraction", "linalg.kernel",
         "complexes.contract_edge", "shifting.level", "shifting.wedge"]),
}


class BenchError(Exception):
    """The benchmark cannot measure this checkout; no result is printed."""


def say(*parts):
    print(*parts, flush=True)


def import_checkout():
    """Import volrig from this checkout's src, and nowhere else."""
    if not os.path.isfile(os.path.join(PKG, "__init__.py")):
        raise BenchError("no volrig sources at %s" % PKG)
    sys.path.insert(0, SRC)
    import volrig
    here = os.path.realpath(volrig.__file__)
    if os.path.dirname(here) != os.path.realpath(PKG):
        raise BenchError("volrig resolves to %s, not this checkout" % here)
    return volrig


def revision():
    """Git revision when there is one, and a digest of the package sources."""
    rev = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if p.returncode == 0:
            rev = p.stdout.strip()
    h = hashlib.sha256()
    for name in sorted(os.listdir(PKG)):
        if name.endswith(".py"):
            with open(os.path.join(PKG, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return rev, h.hexdigest()[:16]


def job_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("VOLRIG_DATA", None)
    return env


def warm_up(env, cwd):
    """One process start; also proves the children import this checkout."""
    p = subprocess.run([sys.executable, "-c",
                        "import volrig.cli; print(volrig.cli.__file__)"],
                       env=env, cwd=cwd, capture_output=True, text=True,
                       timeout=JOB_TIMEOUT)
    where = os.path.realpath(p.stdout.strip())
    if p.returncode != 0 or os.path.dirname(where) != os.path.realpath(PKG):
        raise BenchError("job processes import volrig from %r: %s"
                         % (where, p.stderr.strip()))


def set_up(gen, workload, seed, workdir, env, rounds):
    """Write the seeded inputs for every round, then start one process."""
    shutil.rmtree(workdir, ignore_errors=True)
    rng = random.Random(seed)
    jobs = []
    for r in range(rounds):
        rdir = os.path.join(workdir, "r%d" % r)
        os.makedirs(rdir)
        jobs.extend(replace(j, name="r%d/%s" % (r, j.name))
                    for j in gen.WORKLOADS[workload](rdir, rng))
    warm_up(env, workdir)
    return jobs


def calibrate():
    """Seconds the fixed calibration loop takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_LOOPS):
        s = (s + i * i) % 1000003
    return time.perf_counter() - t0


def host_scale(cals, i):
    """Factor taking a time measured beside calibration i to reference
    host speed."""
    near = cals[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1]
    return CAL_REF_S / statistics.mean(near)


def check(job, code, out):
    """None when the output matches the job's construction, else why not."""
    lines = out.splitlines()
    if code != job.code:
        return "exit %d, expected %d" % (code, job.code)
    for want in job.lines:
        if want not in lines:
            return "missing line %r" % want
    for want in job.prefixes:
        if not any(line.startswith(want) for line in lines):
            return "no line starting %r" % want
    return None


NEGATIONS = ((" NOT-RIGID ", " RIGID "), (" RIGID ", " NOT-RIGID "),
             (" yes ", " no "), (" no ", " yes "), (" ok ", " FAIL "))


def negate(text):
    """The opposite verdict of an expected line, or the line unchanged."""
    padded = " %s " % text
    for old, new in NEGATIONS:
        if old in padded:
            return padded.replace(old, new, 1).strip()
    return text


def checker_misses_wrong_verdict(job, code, out):
    """Whether check() would accept this output under a deliberately wrong
    expectation: the other exit code, or every verdict negated."""
    negated = replace(job, lines=[negate(x) for x in job.lines],
                      prefixes=[negate(x) for x in job.prefixes])
    return (check(replace(job, code=job.code ^ 1), code, out) is None or
            (negated != job and check(negated, code, out) is None))


class Runner:
    def __init__(self, jobs, env, workdir, deadline):
        self.jobs = jobs
        self.env = env
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failures = []
        self.checker_missed = 0
        self.cals = []

    def run_job(self, job, trace_out=None):
        """Wall time of one job subprocess, or None if it failed."""
        self.attempted += 1
        self.cals.append(calibrate())
        timeout = min(JOB_TIMEOUT, self.deadline - time.monotonic())
        if timeout <= 0:
            self.failures.append((job.name, "not started: run time limit"))
            return None
        if trace_out is None:
            argv = [sys.executable, "-m", "volrig.cli"] + job.argv
            env = self.env
        else:
            argv = [sys.executable, TRACER, trace_out, job.name] + job.argv
            env = dict(self.env, BENCH_SPAWN_AT=repr(time.monotonic()))
        t0 = time.perf_counter()
        try:
            p = subprocess.run(argv, env=env, cwd=self.workdir,
                               capture_output=True, text=True,
                               timeout=timeout)
        except subprocess.TimeoutExpired:
            self.failures.append((job.name, "timed out after %.1f s"
                                  % timeout))
            return None
        elapsed = time.perf_counter() - t0
        why = check(job, p.returncode, p.stdout)
        if why is None and p.stderr:
            why = "stderr: " + p.stderr.strip()[-300:]
        if why is not None:
            self.failures.append((job.name, why))
            return None
        self.checker_missed += checker_misses_wrong_verdict(
            job, p.returncode, p.stdout)
        return elapsed

    def run_pass(self, trace_dir=None):
        """(raw time of each job, None if it failed; its calibration index;
        trace files) for one pass."""
        times, cal_at, traces = [], [], []
        for i, job in enumerate(self.jobs):
            out = None
            if trace_dir is not None:
                out = os.path.join(trace_dir, "%03d.json" % i)
                traces.append(out)
            times.append(self.run_job(job, out))
            cal_at.append(len(self.cals) - 1)
        return times, cal_at, traces

    def at_reference(self, times, cal_at):
        """Job times of a pass at reference host speed.  Call after the
        last pass, so that every job has calibrations on both sides."""
        return [None if t is None else t * host_scale(self.cals, i)
                for t, i in zip(times, cal_at)]


def tail(samples):
    """(value, percentile, samples beyond) for the highest whole percentile
    that leaves at least ten samples above it (nearest-rank)."""
    n = len(samples)
    if n < 11:
        return max(samples, default=0.0), 100, 0
    p = 100 * (n - 10) // n
    k = math.ceil(p * n / 100)
    return sorted(samples)[k - 1], p, n - k


def layer_stats(trace_files):
    """Counts and times of one traced pass, summed over its jobs."""
    calls, incl, self_t, counts = {}, {}, {}, {}
    startup = basis_distinct = 0.0
    for path in trace_files:
        with open(path, encoding="ascii") as fh:
            rec = json.load(fh)
        spans = rec["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_t[name] = self_t.get(name, 0.0) + (end - start) - child[i]
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:
                incl[name] = incl.get(name, 0.0) + (end - start)
        startup += next(s[1] for s in spans if s[0] == "cli") - rec["spawn"]
        for key, value in rec["counts"].items():
            counts[key] = counts.get(key, 0) + value
        basis_distinct += rec["basis_distinct"]
    nbasis = calls.get("shifting.basis", 0)
    counts["shifting.basis.distinct_ratio"] = (
        basis_distinct / nbasis if nbasis else 0.0)
    for name, c in calls.items():
        counts[name + ".calls"] = c
    times = {"cli.startup_s": startup}
    for name in calls:
        times[name + ".s"] = incl[name]
        times[name + ".self_s"] = self_t[name]
        module = name.split(".")[0] + ".self_s"
        if module != name + ".self_s":
            times[module] = times.get(module, 0.0) + self_t[name]
    return counts, times


def coverage_errors(workload, counts):
    must, must_not = COVERAGE[workload]
    calls = {k[:-len(".calls")]: v for k, v in counts.items()
             if k.endswith(".calls")}
    errs = ["%s never called" % n for n in must if not calls.get(n)]
    errs += ["%s called %d times" % (n, c) for n, c in sorted(calls.items())
             for prefix in must_not if n.startswith(prefix) and c]
    return errs


def metric(value, unit):
    return {"value": value, "unit": unit}


def unit_of(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def another_fits(start, seconds, done):
    """Whether one more pass, as long as the mean pass so far, would end
    within --seconds of start."""
    elapsed = time.monotonic() - start
    return elapsed + elapsed / done <= seconds


def ok_times(*passes):
    """The times of the jobs that did not fail."""
    return [t for p in passes for t in p if t is not None]


def measure(runner, seconds):
    """End-to-end metrics from the whole passes that fit into --seconds,
    at least one.  wall_s is the time of one pass with each job taking the
    median time of its rung (its copies in every round and pass), so that
    a stall of the host during one job does not move it."""
    start = time.monotonic()
    measured = [runner.run_pass()[:2]]
    while another_fits(start, seconds, len(measured)):
        measured.append(runner.run_pass()[:2])
    passes = [runner.at_reference(*p) for p in measured]
    raw = [p for p, _ in measured]
    rungs = {}
    for p in passes:
        for job, t in zip(runner.jobs, p):
            if t is not None:
                rungs.setdefault(job.rung, []).append(t)
    rung_s = {name: statistics.median(ts) for name, ts in rungs.items()}
    wall = sum(rung_s.get(job.rung, 0.0) for job in runner.jobs)
    times = ok_times(*passes)
    value, pct, beyond = tail(times)
    say("raw: passes %s s, job p50 %.6f s, job tail %.6f s; calibration "
        "median %.6f s, reference %.6f s"
        % (["%.3f" % sum(ok_times(p)) for p in raw],
           statistics.median(ok_times(*raw) or [0.0]), tail(ok_times(*raw))[0],
           statistics.median(runner.cals), CAL_REF_S))
    say("at reference speed: passes %s s; job samples %d; job_s.tail is p%d "
        "with %d samples beyond it"
        % (["%.3f" % sum(ok_times(p)) for p in passes], len(times), pct,
           beyond))
    for name, t in sorted(rung_s.items(), key=lambda item: item[1]):
        say("  rung %-24s %3d jobs, median %.6f s"
            % (name, len(rungs[name]), t))
    return {
        "wall_s": metric(wall, "s"),
        "job_s.p50": metric(statistics.median(times or [0.0]), "s"),
        "job_s.tail": metric(value, "s"),
        "peak_rss_mb": metric(resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB"),
    }, []


def measure_traced(runner, seconds, trace_root, workload, spans):
    """Per-layer metrics from traced passes, and untraced ones for the
    overhead: one untraced pass and two traced ones, whose counts must
    agree, then alternating passes while they fit into --seconds."""
    start = time.monotonic()
    plain, traced, files = [runner.run_pass()[:2]], [], []
    while (len(traced) < TRACED_PASSES or
           another_fits(start, seconds, len(plain) + len(traced))):
        if len(traced) >= TRACED_PASSES and len(plain) < len(traced):
            plain.append(runner.run_pass()[:2])
            continue
        tdir = os.path.join(trace_root, "pass%d" % len(traced))
        os.makedirs(tdir)
        times, cal_at, pass_files = runner.run_pass(tdir)
        traced.append((times, cal_at))
        files.append(pass_files)
    # Layer times of a pass are scaled to reference speed like its jobs.
    stats = []
    for (times, cal_at), pass_files in zip(traced, files):
        if all(os.path.isfile(f) for f in pass_files) and ok_times(times):
            counts, layer_t = layer_stats(pass_files)
            k = (sum(ok_times(runner.at_reference(times, cal_at)))
                 / sum(ok_times(times)))
            stats.append((counts, {n: v * k for n, v in layer_t.items()}))
    plain = [sum(ok_times(runner.at_reference(*p))) for p in plain]
    traced = [sum(ok_times(runner.at_reference(*p))) for p in traced]
    overhead = statistics.median(traced) - statistics.median(plain)
    say("untraced passes %s s, traced passes %s s, overhead %.4f s"
        % (["%.3f" % w for w in plain], ["%.3f" % w for w in traced],
           overhead))
    if len(stats) < 2:
        return {}, ["a traced pass lost the trace of a failed job"]
    counts = stats[0][0]
    problems = ["counts differ between traced passes of one seed"
                for c, _ in stats[1:] if c != counts]
    problems += coverage_errors(workload, counts)
    times = {k: statistics.median(t.get(k, 0.0) for _, t in stats)
             for k in sorted(set().union(*(t for _, t in stats)))}
    times["trace.overhead_s"] = overhead
    say("per-layer times, median over %d traced passes:" % len(stats))
    for name, value in times.items():
        say("  %-32s %12.6f s" % (name, value))
    results = {}
    for name in [s + ".calls" for s in spans] + LAYER_EXTRAS:
        unit = unit_of(name)
        value = times[name] if unit == "s" else counts.get(name, 0)
        results[name] = metric(value, unit)
    return results, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(COVERAGE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.monotonic()

    # One CPU for the client, its calibrations and every job it starts.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    volrig = import_checkout()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import gen
    import tracer

    rev, digest = revision()
    with open("/proc/loadavg", encoding="ascii") as fh:
        loadavg = fh.read().strip()
    say("workload %s seed %d seconds %d trace %d"
        % (args.workload, args.seed, args.seconds, args.trace))
    say("python %s nproc %d loadavg %s; jobs pinned to cpu %d"
        % (platform.python_version(), os.cpu_count(), loadavg, cpu))
    say("volrig %s revision %s sources %s" % (volrig.__file__, rev, digest))

    env = job_env()
    work_root = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(work_root, "%s-%d" % (args.workload, os.getpid()))
    try:
        rounds = TRACE_ROUNDS if args.trace else ROUNDS
        setups, setup_cals = [], []
        for _ in range(SETUP_REPEATS):
            setup_cals.append(calibrate())
            t0 = time.perf_counter()
            jobs = set_up(gen, args.workload, args.seed, workdir, env, rounds)
            setups.append(time.perf_counter() - t0)
        setup_s = statistics.median(t * host_scale(setup_cals, i)
                                    for i, t in enumerate(setups))
        say("raw setup_s %.6f s, at reference speed %.6f s"
            % (statistics.median(setups), setup_s))
        gen.self_check(random.Random(args.seed))
        say("jobs per pass %d (%d rounds), one client, closed loop"
            % (len(jobs), rounds))

        runner = Runner(jobs, env, workdir, t_start + RUN_LIMIT)
        if args.trace:
            results, problems = measure_traced(
                runner, args.seconds, os.path.join(workdir, "trace"),
                args.workload, tracer.SPANS)
        else:
            results, problems = measure(runner, args.seconds)
            results["setup_s"] = metric(setup_s, "s")
        if runner.checker_missed:
            problems.append("the checker accepted a wrong expected verdict "
                            "(%d times)" % runner.checker_missed)
        failed = len(runner.failures)
        for name, why in runner.failures:
            say("FAILED %s: %s" % (name, why))
        for p in problems:
            say("CHECK FAILED: %s" % p)
        say("failed_frac %.4f (%d of %d jobs)"
            % (failed / runner.attempted, failed, runner.attempted))
        for name, m in results.items():
            say("%-32s %16.6f %s" % (name, m["value"], m["unit"]))
        print(json.dumps({"correct": failed == 0 and not problems,
                          "attempted": runner.attempted, "failed": failed,
                          "metrics": results}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(work_root) and not os.listdir(work_root):
            os.rmdir(work_root)
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind so that subprocess.run kills the running job and
    # the inputs are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except BenchError as e:
        print("bench: %s" % e, file=sys.stderr)
        sys.exit(2)
