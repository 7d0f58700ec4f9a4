"""Gibbs sampler cost, before and after a change, written as BENCH_<pr>.json.

    python3 bench/gibbs_update.py --before OLD/src --after src --out BENCH_2.json

Each source tree is measured in fresh interpreters, alternating the two trees
so that both see the same machine drift.  One measurement records

- the wall time per coordinate update of one chain on two intervals
  [-2, -1], [1, 2] with Lebesgue base measures and 400 cells, refined 8x
  (G = 3200 conditional nodes), at n = 2, 6, 16, 32, 64 points split evenly;
- the wall time and the verdict of acceptance criterion_6.

The file keeps every repeat and the median per tree.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SIZES = (2, 6, 16, 32, 64)
UPDATES = 4000  # coordinate updates timed per size


def measure(src):
    sys.path.insert(0, os.path.abspath(src))
    import numpy as np

    from angelesco import acceptance
    from angelesco.core import IntervalSystem, MultiIndex, MultiIndexSequence
    from angelesco.ensemble import BaseMeasure, EnsembleSpec, _GibbsChain

    system = IntervalSystem(((-2.0, -1.0), (1.0, 2.0)), (0.5, 0.5))
    base = tuple(BaseMeasure.lebesgue(system, i, 400) for i in range(2))
    seq = MultiIndexSequence.proportional(system.r, start=2, step=2)
    spec = EnsembleSpec(system, None, base, seq)
    update_us = {}
    for n in SIZES:
        chain = _GibbsChain(spec, MultiIndex((n // 2, n // 2)), 8, np.random.default_rng(0))
        chain.sweep()  # warm-up
        sweeps = max(UPDATES // n, 2)
        t0 = time.perf_counter()
        for _ in range(sweeps):
            chain.sweep()
        update_us[str(n)] = 1e6 * (time.perf_counter() - t0) / (sweeps * n)
    crit = acceptance.criterion_6()
    return {"update_us": update_us, "criterion_6_s": crit.seconds,
            "criterion_6_passed": crit.passed}


def child(src):
    out = subprocess.run([sys.executable, __file__, "--measure", src],
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def summarize(runs):
    return {
        "update_us": {str(n): statistics.median(r["update_us"][str(n)] for r in runs)
                      for n in SIZES},
        "criterion_6_s": statistics.median(r["criterion_6_s"] for r in runs),
        "criterion_6_passed": all(r["criterion_6_passed"] for r in runs),
    }


def git_sha(path):
    out = subprocess.run(["git", "-C", path, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--measure", help=argparse.SUPPRESS)
    ap.add_argument("--before")
    ap.add_argument("--after")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", default="BENCH.json")
    args = ap.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return
    if not (args.before and args.after):
        ap.error("--before and --after are required")
    trees = {"before": args.before, "after": args.after}
    runs = {label: [] for label in trees}
    for rep in range(args.repeats):
        order = list(trees) if rep % 2 == 0 else list(trees)[::-1]
        for label in order:
            runs[label].append(child(trees[label]))
            print(label, rep, json.dumps(runs[label][-1]), flush=True)
    report = {
        "what": "Gibbs coordinate update (p = 2, G = 3200) and criterion_6",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "repeats": args.repeats,
        "head_sha": git_sha(os.path.dirname(os.path.abspath(__file__))),
        "median": {label: summarize(r) for label, r in runs.items()},
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
