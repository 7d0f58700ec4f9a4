"""Fekete solver cost, before and after a change, written as BENCH_<pr>.json.

    python3 bench/fekete_points.py --before OLD/src --after src --out BENCH_4.json

Each source tree is measured in fresh interpreters, alternating the two trees
so that both see the same machine drift.  One measurement records

- ``fekete_points`` on two intervals [-2, -1], [1, 2] with zero field, one
  start, seed 0, at n = 20, 40, 80, 640 points split evenly: wall time, log
  weight and certificate (sizes above ``--before-max-n`` are skipped for the
  ``before`` tree, whose cost grows too fast to time them);
- the same on the one interval [-1, 1] at n = 40 with two starts;
- acceptance criterion_3: wall time, the three gaps and the verdict;
- two sampled, non-convex fields on the two intervals (two bumps per
  interval) at 3 + 3 and 6 + 6 points, four starts, seed 0.

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

SIZES = (20, 40, 80, 640)
NONCONVEX = ((3, 3), (6, 6))


def measure(src, max_n):
    sys.path.insert(0, os.path.abspath(src))
    from angelesco import acceptance
    from angelesco.core import IntervalSystem, MultiIndex
    from angelesco.energy import ExternalField
    from angelesco.fekete import fekete_points

    out = {}

    def timed(key, system, counts, field=None, n_starts=1):
        t0 = time.perf_counter()
        res = fekete_points(system, MultiIndex(counts), field, n_starts=n_starts, seed=0)
        out[key] = {"s": time.perf_counter() - t0, "log_weight": res.log_boltzmann,
                    "certified": res.coordinatewise_optimal}

    two = IntervalSystem(((-2.0, -1.0), (1.0, 2.0)), (0.5, 0.5))
    fekete_points(two, MultiIndex((2, 2)), n_starts=1, seed=0)  # first-call costs
    for n in SIZES:
        if n <= max_n:
            timed("two_intervals_n%d" % n, two, (n // 2, n - n // 2))
    timed("one_interval_n40", IntervalSystem(((-1.0, 1.0),), (1.0,)), (40,), n_starts=2)
    bumps = ExternalField.from_samples(
        [[-2.0, -1.5, -1.0], [1.0, 1.3, 1.6, 2.0]],
        [[0.0, 0.8, 0.0], [0.5, 0.0, 0.9, 0.2]],
    )
    for counts in NONCONVEX:
        timed("bumps_%d_%d" % counts, two, counts, bumps, n_starts=4)
    crit = acceptance.criterion_3()
    out["criterion_3"] = {"s": crit.seconds, "passed": crit.passed,
                          "gaps": [crit.metrics["gap_%d" % n] for n in (20, 40, 80)]}
    return out


def child(src, max_n):
    out = subprocess.run([sys.executable, __file__, "--measure", src, "--max-n", str(max_n)],
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def summarize(runs):
    """Median time per case; the other fields are deterministic."""
    return {key: dict(runs[0][key], s=statistics.median(r[key]["s"] for r in runs))
            for key in runs[0]}


def git_sha(path):
    out = subprocess.run(["git", "-C", path, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--measure", help=argparse.SUPPRESS)
    ap.add_argument("--max-n", type=int, default=max(SIZES), help=argparse.SUPPRESS)
    ap.add_argument("--before")
    ap.add_argument("--after")
    ap.add_argument("--before-max-n", type=int, default=80)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default="BENCH.json")
    args = ap.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure, args.max_n)))
        return
    if not (args.before and args.after):
        ap.error("--before and --after are required")
    trees = {"before": (args.before, args.before_max_n), "after": (args.after, max(SIZES))}
    runs = {label: [] for label in trees}
    for rep in range(args.repeats):
        order = list(trees) if rep % 2 == 0 else list(trees)[::-1]
        for label in order:
            runs[label].append(child(*trees[label]))
            print(label, rep, json.dumps(runs[label][-1]), flush=True)
    report = {
        "what": "fekete_points wall time, log weight and certificate; criterion_3",
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
