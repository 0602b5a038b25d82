#!/usr/bin/env python3
"""Compare two sets of barrier1d benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py
(``.perfbench/results/<workload>-seed<n>-trace<t>.json``); copy them aside
between the two sets.  For every workload, mode and metric the script prints
each side's median and quartiles and the change of the medians.  It refuses,
with exit code 2, to compare sets whose kernel backends differ: a numba run
and a numpy run measure different programs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory):
    results = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    if not results:
        raise SystemExit(f"no result files in {directory}")
    return results


def table(results):
    values = defaultdict(list)
    for r in results:
        for name, m in r["metrics"].items():
            values[(r["workload"], r["trace"], name)].append(m["value"])
    return values


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    backends = {side: sorted({r["env"]["backend"] for r in rs})
                for side, rs in (("base", base), ("new", new))}
    if len(set(backends["base"] + backends["new"])) != 1:
        print(f"refusing to compare: backends differ ({backends})", file=sys.stderr)
        return 2
    print(f"backend {backends['base'][0]}; base {len(base)} results, new {len(new)} results")
    tb, tn = table(base), table(new)
    for key in sorted(tb.keys() & tn.keys()):
        workload, trace, name = key
        b1, bm, b3 = quartiles(tb[key])
        n1, nm, n3 = quartiles(tn[key])
        change = f"{100.0 * (nm - bm) / bm:+.1f}%" if bm else "n/a"
        print(f"{workload:13s} trace={trace} {name:48s} base {bm:.6g} [{b1:.6g}, {b3:.6g}] "
              f"(n={len(tb[key])})  new {nm:.6g} [{n1:.6g}, {n3:.6g}] (n={len(tn[key])})  "
              f"{change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
