"""The measured process of the barrier1d benchmark (started by run.py).

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                --workdir DIR [--spans FILE] [--setup-only]

Set-up is the import of barrier1d, input generation and one warm-up call of
each task kind (JIT compilation included where numba exists).  When it is
done the process prints ``READY <time.monotonic()>``, so the parent can time
set-up from the moment it started the process, and then ``SPEED <factor>``,
the calibration factor measured right after set-up.  Then it runs the
workload in a closed loop with one client -- each task starts after the
previous one returned -- and prints its result as one JSON line.

The workload runs in rounds.  Each round is a fresh task list generated
from (seed, round number) with the same sizes and task mix, so no timed
call sees inputs it has seen before (round 0 is the warm-up of set-up).
Untimed, between rounds, the worker builds the next round and keeps the
outputs; it stops once the tasks have taken ``--seconds`` in all, after at
least MIN_ROUNDS rounds.  Times are calibrated: between tasks the worker
times a fixed piece of the kind of work barrier1d does (see _reference_time
and MIXED_REFERENCE), and each latency is scaled by REF_SECONDS / (mean of
the reference times just before and just after the task), because on a
shared VM the speed of a core switches by up to 2x within seconds.
``wall_s`` is the median calibrated round time; the latency percentiles
pool the calibrated latencies of all rounds.  Traced runs run each round
twice, traced and untraced, in alternating order; work counts come from
the first round and self times are medians over the rounds.

After the loop every output is checked against its independent route, and
round 1 is generated again and rerun untimed: it must reproduce its outputs
bit for bit.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

MIN_ROUNDS = 3
HARD_LIMIT_S = 60.0     # wall time of the loop, whatever --seconds says
REF_REPEATS = 2         # a reference time is the best of this many loops
REF_SECONDS = 0.001     # nominal reference time that calibrated times refer to
# Workloads calibrated with the mixed reference; spectra, where the scalar
# shooting loop does most of the work, uses the scalar loop alone.  Over
# 25 s windows of 175-240 s runs this choice gave the steadiest times.
MIXED_REFERENCE = ("profile_scan", "chain_scan")
SETUP_REFS = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "NUMBA_NUM_THREADS")


def digest(output) -> str:
    return hashlib.sha256(repr(output).encode()).hexdigest()


def run_tasks(tasks, mixed, tracer=None):
    """Runs each task once, in order, as one client.

    Returns the latencies in seconds, the results as (output, error) pairs
    and each task's calibration factor, REF_SECONDS / (mean of the reference
    times taken just before and just after it).
    """
    gc.collect()
    latencies, results, refs = [], [], [_reference_time(mixed)]
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task_id = i
        t0 = time.perf_counter()
        try:
            out, err = task.run(), None
        except Exception as exc:  # a raising task is a failed task
            out, err = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        results.append((out, err))
        refs.append(_reference_time(mixed))
    factors = [2.0 * REF_SECONDS / (a + b) for a, b in zip(refs, refs[1:])]
    return latencies, results, factors


class Runner:
    """Builds and runs the rounds of one workload and keeps their outputs
    for :meth:`finish`, so checks never interrupt the timed loop."""

    def __init__(self, name, seed, workdir):
        self.name, self.seed, self.workdir = name, seed, Path(workdir)
        self.mixed = name in MIXED_REFERENCE
        self.rounds = []      # (workload, results) of every measured round
        self.factors = []     # median calibration factor of every measured round

    def build(self, round_):
        import workloads

        return workloads.build(self.name, self.seed, self.workdir / f"round{round_}", round_)

    def _run_round(self, workload, tracer=None):
        latencies, results, factors = run_tasks(workload.tasks, self.mixed, tracer)
        self.rounds.append((workload, results))
        self.factors.append(statistics.median(factors))
        return [x * f for x, f in zip(latencies, factors)], latencies

    def timed(self, seconds: float) -> dict:
        """Rounds until the tasks have taken ``seconds`` (at least MIN_ROUNDS)."""
        start = time.monotonic()
        measured, walls, raw_walls, pooled = 0.0, [], [], []
        while True:
            calibrated, latencies = self._run_round(self.build(len(self.rounds) + 1))
            walls.append(sum(calibrated))
            raw_walls.append(sum(latencies))
            pooled += calibrated
            measured += sum(latencies)
            if ((measured >= seconds and len(walls) >= MIN_ROUNDS)
                    or time.monotonic() - start >= HARD_LIMIT_S):
                break
        wall = statistics.median(walls)
        p50, p90 = _percentiles(pooled)
        return {"metrics": {"wall_s": wall,
                            "tasks_per_s": len(self.rounds[0][0].tasks) / wall,
                            "task_p50_ms": 1e3 * p50,
                            "task_p90_ms": 1e3 * p90},
                "raw_wall_s": statistics.median(raw_walls),
                "speed_factor": statistics.median(self.factors),
                "rounds": len(walls), "task_samples": len(pooled),
                "beyond_p90": sum(x > p90 for x in pooled)}

    def traced(self, seconds: float, tracer) -> dict:
        """Runs each round traced and untraced, in alternating order, until
        ``seconds`` have passed (at least one round)."""
        from tracer import combine

        start = time.monotonic()
        snapshots, traced, plain = [], [], []
        while True:
            workload = self.build(len(self.rounds) + 1)
            traced_first = len(snapshots) % 2 == 0
            if not traced_first:
                plain.append(_calibrated_sum(workload, self.mixed))
            tracer.reset()
            tracer.keep_spans = not snapshots
            with tracer:
                traced.append(sum(self._run_round(workload, tracer)[0]))
            tracer.keep_spans = False
            snapshots.append(tracer.snapshot())
            if traced_first:
                plain.append(_calibrated_sum(workload, self.mixed))
            if time.monotonic() - start >= min(seconds, HARD_LIMIT_S):
                break
        metrics = combine(snapshots)
        # each round is timed both ways
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        metrics["trace.absent_spans"] = len(tracer.absent)
        return {"metrics": metrics, "rounds": len(snapshots), "absent": tracer.absent,
                "speed_factor": statistics.median(self.factors)}

    def finish(self) -> dict:
        """Checks every kept output against its independent route, then
        generates round 1 again and reruns it, untimed; returns the tally."""
        attempted, failed, reasons = 0, 0, []

        def tally(round_, i, task, reason):
            nonlocal attempted, failed
            attempted += 1
            if reason:
                failed += 1
                reasons.append(f"round {round_} task {i} {task.kind}: {reason}")

        for round_, (workload, results) in enumerate(self.rounds, 1):
            for i, (task, (out, err)) in enumerate(zip(workload.tasks, results)):
                reason = err
                if err is None:
                    try:
                        reason = task.check(out)
                    except Exception as exc:  # the independent route rejected the output
                        reason = f"check raised {type(exc).__name__}: {exc}"
                tally(round_, i, task, reason)
        workload, first = self.rounds[0]
        again = self.build(1)
        _, rerun, _ = run_tasks(again.tasks, self.mixed)
        for i, (task, (a, a_err), (b, b_err)) in enumerate(zip(again.tasks, first, rerun)):
            same = (digest(a), a_err) == (digest(b), b_err)
            tally(1, i, task, None if same else "rerun differs from the first run")
        return {"attempted": attempted, "failed": failed, "failures": reasons}


def _calibrated_sum(workload, mixed) -> float:
    """Calibrated time of one untraced run of the workload's tasks."""
    latencies, _, factors = run_tasks(workload.tasks, mixed)
    return sum(x * f for x, f in zip(latencies, factors))


def _reference_time(mixed: bool) -> float:
    """Best of REF_REPEATS timings of a fixed piece of the kind of work
    barrier1d does, written without calling it: a scalar float loop like the
    numba-less kernels and, when ``mixed``, also small numpy arrays and
    ufuncs (slab lists) and complex numbers in small containers (scattering
    data).  One loop takes about a millisecond."""
    best = math.inf
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        x, acc = 0.1, 0.0
        for _ in range(1200 if mixed else 4000):
            x = math.cos(x) * 0.5 + 0.3
            acc += max(abs(x), 0.1) * x
        if mixed:
            for i in range(30):
                a = np.asarray([0.5, 1.0, 1.5, 2.0, 2.5]) * (1.0 + 1e-3 * i)
                acc += float(np.sum(np.cos(a) * np.sinh(a)))
            for i in range(300):
                z = complex(acc % 1.0, 0.5) * cmath.exp(1j * i * 1e-3)
                d = {"T": z, "R": z.conjugate(), "k": abs(z)}
                acc += abs(d["T"] * d["R"]) / (1.0 + d["k"])
        best = min(best, time.perf_counter() - t0)
    return best


def _percentiles(xs):
    s = sorted(xs)

    def q(p):   # linear interpolation between closest ranks
        pos = p * (len(s) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)
    return q(0.5), q(0.9)


def warm_up(workload):
    """One call of the first task of each kind; outputs are discarded."""
    seen = set()
    for task in workload.tasks:
        if task.kind in seen:
            continue
        seen.add(task.kind)
        try:
            task.run()
        except Exception:  # a failing kind fails again, and is counted, in the timed rounds
            pass


def run_probes(workload) -> dict:
    reasons = []
    for probe in workload.probes:
        try:
            reason = probe.run()
        except Exception as exc:  # the known defects raise
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            reasons.append(f"{probe.spec}: {reason}")
    return {"attempted": len(workload.probes), "failed": len(reasons), "reasons": reasons}


def environment() -> dict:
    """Backend and platform, read inside the measured process."""
    import scipy
    from barrier1d import _kernels

    numba = bool(getattr(_kernels, "NUMBA_ENABLED", False))
    return {"backend": "numba" if numba else "numpy", "numba_enabled": numba,
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}}


def write_spans(path, spans):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        for span_id, name, t0, t1, parent, task in spans:
            fh.write(json.dumps({"id": span_id, "name": name, "start": t0, "end": t1,
                                 "parent": parent, "task": task}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    # level_scan and friends warn per call; the benchmark does not count them
    warnings.simplefilter("ignore")

    import barrier1d

    expected = (Path.cwd() / "src" / "barrier1d").resolve()
    if Path(barrier1d.__file__).resolve().parent != expected:
        print(f"barrier1d imported from {barrier1d.__file__}, expected {expected}",
              file=sys.stderr)
        return 2
    from tracer import Tracer

    runner = Runner(args.workload, args.seed, args.workdir)
    warm_up(runner.build(0))
    print(f"READY {time.monotonic()!r}", flush=True)
    # speed of the machine right after set-up, to calibrate the set-up time
    best_ref = min(_reference_time(runner.mixed) for _ in range(SETUP_REFS))
    print(f"SPEED {REF_SECONDS / best_ref!r}", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        tracer = Tracer()
        result = runner.traced(args.seconds, tracer)
        if args.spans:
            write_spans(args.spans, tracer.spans)
    else:
        result = runner.timed(args.seconds)
    # peak memory of set-up and the timed loop, before the checks allocate
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = runner.rounds[0][0]
    result.update(runner.finish(), tasks_per_round=len(first.tasks),
                  kinds=sorted(set(first.kinds())), probes=run_probes(first),
                  env=environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
