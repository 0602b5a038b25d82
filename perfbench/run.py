#!/usr/bin/env python3
"""Benchmark of barrier1d: seeded workloads through the public API and CLI.

    python3 perfbench/run.py --workload profile_scan|chain_scan|spectra|all
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout; barrier1d is imported from ./src.
Each run starts fresh worker processes one after another (never more than
one at a time), with BLAS/OpenMP threads pinned to 1:

* SETUP_SAMPLES - 1 set-up-only workers, plus the measuring worker, give
  ``setup_s``, the median time from process start to the end of set-up,
  each calibrated by the speed its worker measured right after set-up (see
  worker.py);
* the measuring worker runs the workload for ``--seconds`` (see worker.py).

The run prints every metric BENCHMARK.json declares, by name and unit, the
environment the worker read (backend, nproc, versions, thread settings) and
the correctness tally, then as its last line one JSON object with the keys
correct, attempted, failed and metrics.  Without tracing the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones.  The full
result is also written to ``.perfbench/results/`` (spans of traced runs to
``.perfbench/spans/``) for perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from worker import THREAD_VARS  # noqa: E402

# workloads.WORKLOADS; the parent never imports barrier1d, so it keeps a copy
WORKLOADS = ("profile_scan", "chain_scan", "spectra")
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _spawn(cmd, env, root):
    """Run one worker to completion; returns (calibrated set-up seconds,
    raw set-up seconds, output lines)."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    lines = proc.stdout.splitlines()
    marks = dict(ln.split(" ", 1) for ln in lines if ln.startswith(("READY ", "SPEED ")))
    if len(marks) != 2:
        raise BenchError("worker never finished set-up")
    raw = float(marks["READY"]) - t0
    return raw * float(marks["SPEED"]), raw, lines


def run_workload(name, seed, seconds, trace, root) -> dict:
    out_dir = root / ".perfbench"
    workdir = out_dir / "work" / f"{name}-{seed}-{os.getpid()}"
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir)]
    if trace:
        cmd += ["--spans", str(out_dir / "spans" / f"{name}-seed{seed}.jsonl.gz")]
    try:
        samples = [_spawn(cmd + ["--setup-only"], env, root)
                   for _ in range(SETUP_SAMPLES - 1)]
        samples.append(_spawn(cmd, env, root))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup = [s[0] for s in samples]
    result = json.loads(samples[-1][2][-1])
    result.update(workload=name, seed=seed, trace=trace, setup_samples=setup,
                  raw_setup_samples=[s[1] for s in samples])
    metrics = result["metrics"]
    if trace:
        attempted = max(result["attempted"], 1)
        metrics["gate.fail_ratio"] = result["failed"] / attempted
        metrics["gate.known_defect.failed"] = result["probes"]["failed"]
    else:
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
    declared = json.loads((root / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    result["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                         for m in declared}
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    return result


def print_summary(r):
    env = r["env"]
    print(f"== {r['workload']} seed={r['seed']} trace={r['trace']} "
          f"backend={env['backend']} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} "
          f"threads={','.join(f'{k}={v}' for k, v in env['thread_env'].items())}")
    for name, m in r["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    att, fail = r["attempted"], r["failed"]
    print(f"  {'fail_ratio':48s} {fail / max(att, 1):.6g} ratio ({fail} of {att} tasks)")
    if not r["trace"]:
        print(f"  samples: {r['task_samples']} tasks in {r['rounds']} rounds, "
              f"{r['beyond_p90']} beyond p90; raw wall {r['raw_wall_s']:.4g} s; "
              f"speed factor {r['speed_factor']:.4g}; calibrated setup samples "
              f"{', '.join(f'{s:.3f}' for s in r['setup_samples'])} s")
    else:
        print(f"  traced rounds: {r['rounds']}; speed factor {r['speed_factor']:.4g}; "
              f"absent spans: {r['absent'] or 'none'}")
    p = r["probes"]
    print(f"  known-defect probes: {p['failed']} of {p['attempted']} fail")
    for line in p["reasons"] + r["failures"]:
        print(f"    {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "barrier1d" / "__init__.py").is_file():
        print(f"error: no barrier1d sources under {root / 'src'}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, args.trace, root) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in results:
        print_summary(r)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
