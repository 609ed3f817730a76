"""qvr benchmark: load generator, correctness checks and traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload rep-small --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): rep-small, rep-large, estimate-boot,
external-sim.  The run is a single-process closed loop: one operation (a
public qvr call) at a time, ``workers=1``, BLAS/OpenMP pinned to one thread
and the process (with its children) pinned to one CPU.
It repeats rounds (one operation per config, plus ``emit_report`` per
preset group) until ``--seconds`` have passed and two rounds are done,
finishing the last round.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics (per traced
round) and the tracing overhead.  Human-readable lines come first; the last
line of stdout is the JSON result.  The exit code is 1 when a correctness
check fails (a failed, raising or timed-out call counts as one) and 2 when
the run cannot start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "VECLIB_MAXIMUM_THREADS": "1"}
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
OP_TIMEOUT_S = 30
DIGEST_SEED = 0
# A job's mean estimate may sit off its expected mean by this many standard
# errors of the difference (the run's and the reference run's).
SEM_ALLOWANCE = 6.0

END_TO_END = ("estimates_per_s", "ms_per_estimate.ee", "setup_s",
              "peak_rss_mb")
ESTIMATORS = ("ee", "cv", "ps", "cs", "acs", "cis")


class OpTimeout(BaseException):
    """Raised by the watchdog; a BaseException so that the per-replication
    ``except Exception`` in run_replications does not swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment record


def git_commit(root: str) -> str:
    """HEAD of the git checkout at ``root``; ``none`` outside one (git does
    not look above ``root``)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "qvr")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(root: str, src: str, cpu: int) -> dict:
    import scipy
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": ",".join(f"{k}={os.environ[k]}" for k in sorted(THREAD_ENV)),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(src),
    }


# ---------------------------------------------------------------------------
# Set-up time


def measure_setup(root: str, workload: str, seed: int,
                  cal) -> list[tuple[float, float]]:
    """(raw, normalized) wall seconds of each fresh-interpreter set-up probe;
    each probe is normalized by the calibration points that bracket it."""
    env = dict(os.environ)
    env.pop("QVR_SIM_STATS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    times = []
    for i in range(SETUP_PROBES):
        before = cal.point()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload,
             str(seed * 1000 + i)],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S)
        factor = cal.factor(before, cal.point())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        raw = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        times.append((raw, raw / factor))
    return times


# ---------------------------------------------------------------------------
# Load


class Calibration:
    """Fixed CPU kernel that measures how fast the host runs right now.

    The host's speed swings by up to ~1.8x within a second and shifts for
    minutes at a time (a bootstrap call reads 26 ms fast and 43 ms slow; the
    median set-up of ten runs moved by 37% between two sets of runs), so
    raw wall times of two runs differ by the phases they hit.  Every timed
    operation and every set-up probe is bracketed by two calibration points
    (each the median of three kernel passes) and its time is divided by the
    speed factor ``kernel time / REFERENCE_S``: the result is its time on
    the host at its fast-phase speed.  The kernel does what qvr's calls do
    most (draw normals, evaluate a cosine model, select an order statistic)
    and uses no qvr code.  Of four kernels tried over four minutes of ee,
    cs and external calls, this one tracked them best (it cut the spread of
    fig2 cs calls from 11% raw to 8%; a sort-and-index kernel left it at
    12%).
    """

    REFERENCE_S = 2.1e-3

    def one_pass(self) -> float:
        t0 = time.perf_counter()
        x = np.random.default_rng(5).normal(size=50_000)
        np.cos(10 * x).sum()
        np.partition(x, 100)
        return time.perf_counter() - t0

    def point(self) -> float:
        """Kernel time now: the median of three passes."""
        return statistics.median(self.one_pass() for _ in range(3))

    def factor(self, before: float, after: float) -> float:
        """Slowdown of the host over an interval bracketed by two points."""
        return (before + after) / (2 * self.REFERENCE_S)


class Load:
    """Accumulates timings, estimates and checks over the measured rounds.

    Every call is timed, whether it returned, raised or hit the watchdog
    (then it is charged the ``OP_TIMEOUT_S`` it took), and the figures
    divide time by the estimates actually delivered, so a change that makes
    calls fail or time out reads as slower, not faster.
    """

    def __init__(self, workload, sims, cal):
        self.workload = workload
        self.sims = sims
        self.cal = cal
        # Normalized and raw seconds of each operation, keyed by job label
        # or by "emit:<group>" for emit_report.
        keys = [j.label for j in workload.jobs]
        keys += ["emit:" + g.name for g in workload.groups if g.emit]
        self.op_s: dict[str, list[float]] = {k: [] for k in keys}
        self.raw_s: dict[str, list[float]] = {k: [] for k in keys}
        self.estimates: dict[str, list] = {j.label: [] for j in workload.jobs}
        self.attempted = 0
        self.failed = 0
        self.timeouts = 0
        self.errors: list[str] = []
        self.check_failures: list[str] = []
        self.sim = {"requests": 0, "batches": 0}

    def round(self, seed: int, tracer=None):
        results = {}
        for group in self.workload.groups:
            ok = True
            for job in group.jobs:
                res = self.op(job, seed, tracer)
                ok = ok and res is not None
                results[job.label] = res
            if group.emit and ok:
                from workloads import group_text
                before = self.cal.point()
                t0 = time.perf_counter()
                group_text(group, results)
                raw = time.perf_counter() - t0
                self.record("emit:" + group.name, raw,
                            self.cal.factor(before, self.cal.point()))

    def op(self, job, seed: int, tracer):
        """One timed public call; returns its result, or None if it raised
        or timed out."""
        import workloads
        mark = ((tracer.points["model.f"], tracer.points["model.subprocess"],
                 tracer.counts["model.subprocess.repeats"])
                if tracer is not None else None)
        self.attempted += job.reps
        result, estimates, failed = None, [], job.reps
        config = job.make(seed, job.reps)
        before = self.cal.point()
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            result, estimates, failed = workloads.run_job(job, config)
        except OpTimeout:
            self.timeouts += 1
            self.errors.append(f"{job.label} seed {seed}: watchdog timeout")
        except Exception as e:  # noqa: BLE001 - counted as a failed operation
            self.errors.append(f"{job.label} seed {seed}: {type(e).__name__}: {e}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            raw = time.perf_counter() - t0
            sim = self.sims.close()
            if tracer is not None:
                tracer.sim_seen.clear()
        self.record(job.label, raw, self.cal.factor(before, self.cal.point()))
        self.failed += failed
        self.estimates[job.label].extend(estimates)
        self.sim["requests"] += sim["requests"]
        self.sim["batches"] += sim["batches"]
        if result is not None and failed:
            self.errors.append(f"{job.label} seed {seed}: {failed} failed replications")
        elif result is not None:
            self._check_counts(job, seed, len(estimates), sim, tracer, mark)
        return result

    def record(self, key: str, raw: float, factor: float):
        self.op_s[key].append(raw / factor)
        self.raw_s[key].append(raw)

    def _check_counts(self, job, seed, count, sim, tracer, mark):
        where = f"{job.label} seed {seed}"
        if tracer is not None:
            f_points = tracer.points["model.f"] - mark[0]
            if f_points != job.n * count:
                self.check_failures.append(
                    f"{where}: model.f.points {f_points} != n*estimates "
                    f"{job.n * count}")
        if job.label.startswith("external/"):
            if tracer is not None:
                expected = (tracer.points["model.subprocess"] - mark[1]
                            - (tracer.counts["model.subprocess.repeats"] - mark[2]))
            else:
                # Continuous draws never repeat, so every point is a request.
                expected = job.n * count
            if sim["requests"] != expected:
                self.check_failures.append(
                    f"{where}: simulator served {sim['requests']} requests, "
                    f"expected points - cache hits = {expected}")

    # -- end-to-end figures ------------------------------------------------

    @staticmethod
    def busy_seconds(values: list[float]) -> float:
        """Time of a key's calls: their median times their count, so that a
        transient stall of the host does not count but every call does."""
        return statistics.median(values) * len(values)

    def estimates_per_s(self, times=None) -> float:
        """Estimates delivered per second of every call of the load."""
        times = self.op_s if times is None else times
        busy = sum(self.busy_seconds(v) for v in times.values() if v)
        return sum(len(v) for v in self.estimates.values()) / busy

    def ms_per_estimate(self, estimator: str, times=None) -> tuple[float, int]:
        """Time of the estimator's calls per estimate they delivered, and the
        count delivered (a job that delivered none fails check_references)."""
        times = self.op_s if times is None else times
        jobs = [j for j in self.workload.jobs if j.estimator == estimator]
        busy = sum(self.busy_seconds(times[j.label]) for j in jobs)
        count = sum(len(self.estimates[j.label]) for j in jobs)
        return 1000.0 * busy / max(count, 1), count


def check_references(workload, estimates: dict, reference: dict) -> list[str]:
    """Each job's mean estimate against its expected mean: the 10^7-sample
    true quantile plus the estimator's bias at its n, both from
    reference.json.  The tolerance is SEM_ALLOWANCE standard errors of the
    difference (the run's and the reference run's)."""
    failures = []
    for job in workload.jobs:
        values = estimates[job.label]
        truth = reference["quantiles"][job.model]
        expected = reference["expected"][job.label]
        # A bootstrap call carries its own std; replications need two.
        if len(values) < (1 if job.kind == "boot" else 2):
            failures.append(f"{job.label}: only {len(values)} estimates")
            continue
        xs = [v for v, _ in values]
        mean = statistics.fmean(xs)
        if job.kind == "boot":
            sem = math.sqrt(statistics.fmean(s * s for _, s in values) / len(xs))
        else:
            sem = statistics.stdev(xs) / math.sqrt(len(xs))
        ref = expected["mean"]
        tol = SEM_ALLOWANCE * math.hypot(sem, expected["sem"])
        status = "ok" if abs(mean - ref) <= tol else "FAIL"
        print(f"check {job.label}: mean {mean:.4f} of {len(xs)} estimates vs "
              f"expected {ref:.4f} (truth {truth:.4f}, bias {ref - truth:+.4f}), "
              f"|diff| {abs(mean - ref):.4f} <= tol {tol:.4f} "
              f"({tol / abs(ref):.2%}): {status}")
        if status == "FAIL":
            failures.append(f"{job.label}: mean {mean} off expected {ref} "
                            f"by more than {tol}")
    return failures


def digest(workload, sims) -> str:
    """sha256 of the fixed-seed report bytes of one round."""
    import workloads
    results = {}
    for job in workload.jobs:
        config = job.make(DIGEST_SEED, workload.digest_reps)
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            results[job.label], _, _ = workloads.run_job(job, config)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            sims.close()
    text = "".join(workloads.group_text(g, results) for g in workload.groups)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Reported figures


def end_to_end_metrics(load: Load, setup: list[tuple[float, float]]) -> dict:
    """Prints every end-to-end figure; returns the ones BENCHMARK.json
    declares (those defined on every workload)."""
    print("times are normalized to the host's fast-phase speed; raw wall "
          "times in parentheses")
    eps = load.estimates_per_s()
    print(f"metric estimates_per_s = {eps:.6g} 1/s "
          f"(raw {load.estimates_per_s(load.raw_s):.6g})")
    metrics = {"estimates_per_s": (eps, "1/s")}
    for est in ESTIMATORS:
        if any(j.estimator == est for j in load.workload.jobs):
            ms, count = load.ms_per_estimate(est)
            raw, _ = load.ms_per_estimate(est, load.raw_s)
            metrics[f"ms_per_estimate.{est}"] = (ms, "ms")
            print(f"metric ms_per_estimate.{est} = {ms:.6g} ms "
                  f"(raw {raw:.6g}; {count} estimates)")
    raw = [r for r, _ in setup]
    metrics["setup_s"] = (statistics.median(t for _, t in setup), "s")
    print("metric setup_s = %.6g s (raw %.6g; median of %d fresh "
          "interpreters, each normalized by its own bracket; raw %s)"
          % (metrics["setup_s"][0], statistics.median(raw), len(setup),
             ", ".join(f"{t:.3f}" for t in raw)))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (rss, "MB")
    print(f"metric peak_rss_mb = {rss:.6g} MB")
    return {k: metrics[k] for k in END_TO_END}


def layer_metrics(tracer, load: Load, rounds: int, overhead: float) -> dict:
    s = tracer.summary()
    c = tracer.counts
    per = 1.0 / rounds

    def stat(name, key):
        return s[name][key] * per if name in s else 0.0

    fr_points = tracer.points_under("model.fr", "sampling.sample_strata")
    sub_points = stat("model.subprocess", "points")
    requests = load.sim["requests"] * per
    call_ms = tracer.durations_ms("model.subprocess") or [0.0]
    return {
        "model.f.points": (stat("model.f", "points"), "count"),
        "model.f.calls": (stat("model.f", "calls"), "count"),
        "model.f.busy_s": (stat("model.f", "busy_s"), "s"),
        "model.fr.points": (stat("model.fr", "points"), "count"),
        "model.fr.calls": (stat("model.fr", "calls"), "count"),
        "model.fr.busy_s": (stat("model.fr", "busy_s"), "s"),
        "model.input.points": (stat("model.input", "points"), "count"),
        "model.input.busy_s": (stat("model.input", "busy_s"), "s"),
        "model.subprocess.points": (sub_points, "count"),
        "model.subprocess.busy_s": (stat("model.subprocess", "busy_s"), "s"),
        "model.subprocess.requests_served": (requests, "count"),
        "model.subprocess.batches_served": (load.sim["batches"] * per, "count"),
        "model.subprocess.cache_hits": (sub_points - requests, "count"),
        "model.subprocess.call_ms_p50": (float(np.percentile(call_ms, 50)), "ms"),
        "model.subprocess.call_ms_p90": (float(np.percentile(call_ms, 90)), "ms"),
        "sampling.rng.generators": (stat("sampling.rng", "calls"), "count"),
        "sampling.rng.busy_s": (stat("sampling.rng", "busy_s"), "s"),
        "sampling.sample_strata.calls": (stat("sampling.sample_strata", "calls"), "count"),
        "sampling.sample_strata.busy_s": (stat("sampling.sample_strata", "busy_s"), "s"),
        "sampling.sample_strata.self_s": (stat("sampling.sample_strata", "self_s"), "s"),
        "sampling.n_r": (c["sampling.n_r"] * per, "count"),
        "sampling.fr_points": (fr_points * per, "count"),
        "sampling.accept_ratio": (c["sampling.accepted"] / fr_points
                                  if fr_points else 0.0, "share"),
        "estimators.weighted_cdf.busy_s": (stat("estimators.weighted_cdf", "busy_s"), "s"),
        "estimators.quantile.busy_s": (stat("estimators.quantile", "busy_s"), "s"),
        "estimators.cv_weights.busy_s": (stat("estimators.cv_weights", "busy_s"), "s"),
        "estimators.cv_uniform_fallbacks": (c["estimators.cv_uniform_fallbacks"] * per, "count"),
        "strata.acs_quantile.self_s": (stat("strata.acs_quantile", "self_s"), "s"),
        "strata.cs_quantile.busy_s": (stat("strata.cs_quantile", "busy_s"), "s"),
        "strata.proportional_fallbacks": (c["strata.proportional_fallbacks"] * per, "count"),
        "strata.floored_strata": (c["strata.floored_strata"] * per, "count"),
        "importance.fit.calls": (stat("importance.fit", "calls"), "count"),
        "importance.fit.busy_s": (stat("importance.fit", "busy_s"), "s"),
        "importance.draw.busy_s": (stat("importance.draw", "busy_s"), "s"),
        "importance.tail_quantile.busy_s": (stat("importance.tail_quantile", "busy_s"), "s"),
        "bench.run_replications.self_s": (stat("bench.run_replications", "self_s"), "s"),
        "bench.bootstrap_std.busy_s": (stat("bench.bootstrap_std", "busy_s"), "s"),
        "bench.bootstrap_std.self_s": (stat("bench.bootstrap_std", "self_s"), "s"),
        "bench.emit_report.busy_s": (stat("bench.emit_report", "busy_s"), "s"),
        "sampling.metamodel_quantiles.busy_s": (stat("sampling.metamodel_quantiles", "busy_s"), "s"),
        "trace.overhead": (overhead, "share"),
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qvr", "__init__.py")):
        print(f"error: no qvr sources at {src}; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    os.environ.update(THREAD_ENV)
    # One CPU for the benchmark, its set-up probes and the simulator: the
    # host's two vCPUs slow down independently, and a probe or a call that
    # migrates leaves the calibration measuring the other one (pinned, the
    # set-up spread over runs fell from 24% to 13%).
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    os.environ["QVR_SIM_PYTHON"] = sys.executable
    out_dir = os.path.join(HERE, ".out")
    stats_dir = os.path.join(out_dir, f"sim-{os.getpid()}")
    os.makedirs(stats_dir, exist_ok=True)
    os.environ["QVR_SIM_STATS"] = stats_dir
    sys.path[:0] = [src, HERE]

    import workloads
    import qvr
    if os.path.dirname(os.path.abspath(qvr.__file__)) != os.path.join(src, "qvr"):
        print(f"error: imported qvr from {qvr.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _alarm)
    cal = Calibration()

    print(f"qvr benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    env = environment(root, src, cpu)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if workload.note:
        print(f"note: {workload.note}")

    if args.trace == 0:
        setup = measure_setup(root, args.workload, args.seed, cal)

    sims = workloads.SimChildren(stats_dir)
    tracer = None
    try:
        digest_plain = digest(workload, sims)
        print(f"report sha256 ({args.workload}, seed {DIGEST_SEED}, "
              f"{workload.digest_reps} reps): {digest_plain}")
        load = Load(workload, sims, cal)
        traced = Load(workload, sims, cal)
        checks: list[str] = []
        if args.trace:
            from tracing import Tracer
            with Tracer().installed() as t:
                digest_traced = digest(workload, sims)
            if digest_traced != digest_plain:
                checks.append(f"traced report sha256 {digest_traced} differs")
            tracer = Tracer()
        start = time.perf_counter()
        rounds = traced_rounds = 0
        # Two rounds at least, so that every config's time is a median of
        # two calls or more even when the host is slow (a rep-small round
        # can take 15 s), and the traced run has a traced round.
        while time.perf_counter() - start < args.seconds or rounds < 2:
            seed = args.seed * 10**6 + rounds
            if args.trace and rounds % 2 == 1:
                with tracer.installed():
                    traced.round(seed, tracer)
                traced_rounds += 1
            else:
                load.round(seed)
            rounds += 1
        elapsed = time.perf_counter() - start
    finally:
        sims.uninstall()
        os.rmdir(stats_dir)

    both = {j.label: load.estimates[j.label] + traced.estimates[j.label]
            for j in workload.jobs}
    checks += check_references(workload, both, reference)
    checks += load.check_failures + traced.check_failures
    attempted = load.attempted + traced.attempted
    failed = load.failed + traced.failed
    timeouts = load.timeouts + traced.timeouts
    for e in (load.errors + traced.errors)[:20]:
        print(f"error: {e}")
    print(f"load: {rounds} rounds in {elapsed:.2f} s, {attempted} estimates "
          f"attempted, {failed} failed, {timeouts} watchdog timeouts")
    print(f"metric error_rate = {failed / attempted:.6g} share "
          f"({failed} of {attempted})")
    if failed:
        # The workloads are chosen so that no call fails: a failure is a
        # defect, not noise.
        checks.append(f"{failed} of {attempted} estimates failed "
                      f"({timeouts} watchdog timeouts)")

    if args.trace == 0:
        reported = end_to_end_metrics(load, setup)
    else:
        overhead = 1.0 - traced.estimates_per_s() / load.estimates_per_s()
        reported = layer_metrics(tracer, traced, traced_rounds, overhead)
        print(f"per-layer metrics: counts and seconds per traced round "
              f"({traced_rounds} traced rounds)")
        for k, (v, unit) in reported.items():
            print(f"metric {k} = {v:.6g} {unit}")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}.jsonl.gz"))

    for c in checks:
        print(f"check failed: {c}")
    correct = not checks
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
