"""Gibbs sampler cost, before and after a change, written as BENCH_<pr>.json.

    python3 bench/gibbs_update.py --before OLD/src --after src --out BENCH_14.json

Each source tree is measured in fresh interpreters, alternating the two trees
so that both see the same machine drift.  One measurement records

- the wall time per coordinate update of one seeded chain with Lebesgue base
  measures, refined 8x, on each shape of ``SHAPES``: one interval [0, 1] at
  G = 1600 conditional nodes with n = 8 and 48 points, two intervals
  [-2, -1], [1, 2] at G = 3200 with n = 2, 6, 16, 32, 64 and at G = 6400
  with n = 10, points split evenly;
- a hash of each chain's final state, which must be the same for both trees
  and every repeat (the script exits 1 otherwise);
- the wall time and the verdict of acceptance criterion_6.

The file keeps every repeat and the median per tree.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

TWO = ((-2.0, -1.0), (1.0, 2.0))
# label: (intervals, cells per interval, points per interval)
SHAPES = {
    "p1_G1600_n8": (((0.0, 1.0),), 200, (8,)),
    "p1_G1600_n48": (((0.0, 1.0),), 200, (48,)),
    **{"p2_G3200_n%d" % n: (TWO, 400, (n // 2, n // 2)) for n in (2, 6, 16, 32, 64)},
    "p2_G6400_n10": (TWO, 800, (5, 5)),
}
UPDATES = 4000  # coordinate updates timed per shape


def measure(src):
    sys.path.insert(0, os.path.abspath(src))
    import numpy as np

    from angelesco import acceptance, ensemble
    from angelesco.core import IntervalSystem, MultiIndex, MultiIndexSequence
    from angelesco.ensemble import BaseMeasure, EnsembleSpec, _GibbsChain

    # Trees without ensemble.REFINE take the refinement factor as an argument.
    refine = () if hasattr(ensemble, "REFINE") else (8,)

    update_us, state_sha = {}, {}
    for label, (intervals, cells, counts) in SHAPES.items():
        p = len(intervals)
        system = IntervalSystem(intervals, (1.0 / p,) * p)
        base = tuple(BaseMeasure.lebesgue(system, i, cells) for i in range(p))
        seq = MultiIndexSequence.proportional(system.r, start=p, step=p)
        spec = EnsembleSpec(system, None, base, seq)
        chain = _GibbsChain(spec, MultiIndex(counts), *refine, np.random.default_rng(0))
        chain.sweep()  # warm-up
        n = sum(counts)
        sweeps = max(UPDATES // n, 2)
        t0 = time.perf_counter()
        for _ in range(sweeps):
            chain.sweep()
        update_us[label] = 1e6 * (time.perf_counter() - t0) / (sweeps * n)
        state_sha[label] = hashlib.sha256(
            b"".join(block.tobytes() for block in chain.state)
        ).hexdigest()
    crit = acceptance.criterion_6()
    return {"update_us": update_us, "state_sha256": state_sha,
            "criterion_6_s": crit.seconds, "criterion_6_passed": crit.passed}


def child(src):
    out = subprocess.run([sys.executable, __file__, "--measure", src],
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def summarize(runs):
    return {
        "update_us": {label: statistics.median(r["update_us"][label] for r in runs)
                      for label in SHAPES},
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
            print(label, rep, json.dumps(runs[label][-1]["update_us"]), flush=True)
    hashes = {json.dumps(r["state_sha256"], sort_keys=True)
              for tree_runs in runs.values() for r in tree_runs}
    report = {
        "what": "Gibbs coordinate update (p = 1, G = 1600; p = 2, G = 3200 "
                "and 6400) and criterion_6",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "repeats": args.repeats,
        "head_sha": git_sha(os.path.dirname(os.path.abspath(__file__))),
        "states_identical": len(hashes) == 1,
        "median": {label: summarize(r) for label, r in runs.items()},
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    if len(hashes) != 1:
        print("error: the chains' final states differ between trees or repeats",
              file=sys.stderr)
        raise SystemExit(1)


if __name__ == "__main__":
    main()
