"""Equilibrium kernel cost, before and after a change, written as BENCH_<pr>.json.

    python3 bench/eqm_operator.py --before OLD/src --after src --out BENCH_6.json

Each source tree is measured in fresh interpreters, alternating the two trees
so that both see the same machine drift.  One measurement records, for the
zero-field problem on [-2, -1] u [1, 2] and on a three-interval layout with
gaps 0.01, at M = 400, 800, 1600, 3200 cells per interval:

- ``assembly_s``: ``energy.system_kernel`` on an empty cache;
- ``apply_s``: one kernel apply (partial potentials at all pM nodes), the
  median of 21 after a warm-up; for a tree whose ``system_kernel`` returns
  the dense (pM)^2 matrix this is (1/2)(K w + blockdiag(K) w);
- ``solve_s``: ``solve_equilibrium`` on an empty cache, assembly included,
  with its iteration count and energy;
- ``certificates``: rank, largest entry error and sketch size of each
  low-rank cross block, where the tree has them.

Three-interval sizes above ``--before-max-cells`` are skipped for the
``before`` tree, whose dense kernel there needs 8 (3M)^2 bytes.

It also times three grid-400 solves on three two-interval systems, first on
a quiet machine and then beside one busy process (a pure-Python loop) that
competes for the cores.

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

SIZES = (400, 800, 1600, 3200)
LAYOUTS = {
    "two": (((-2.0, -1.0), (1.0, 2.0)), (0.5, 0.5)),
    "three_gap0.01": (((-2.0, -1.0), (-0.99, 0.0), (0.01, 1.0)), (0.3, 0.3, 0.4)),
}
CONTENTION = (
    (((-2.0, -1.0), (1.0, 2.0)), (0.5, 0.5)),
    (((-1.0, 0.0), (0.3, 2.0)), (0.3, 0.7)),
    (((-3.0, -1.0), (0.5, 1.0)), (0.6, 0.4)),
)


def measure(src, max_p3):
    sys.path.insert(0, os.path.abspath(src))
    import numpy as np

    from angelesco import IntervalSystem, solve_equilibrium
    from angelesco.energy import system_kernel

    def applier(kernel, p, m):
        if hasattr(kernel, "apply"):
            return kernel.apply

        def dense(w):
            kw = kernel @ w
            for i in range(p):
                b = slice(i * m, (i + 1) * m)
                kw[b] += kernel[b, b] @ w[b]
            return 0.5 * kw

        return dense

    out = {}
    solve_equilibrium(IntervalSystem(*LAYOUTS["two"]), cells=50)  # first-call costs
    for name, (intervals, masses) in LAYOUTS.items():
        system = IntervalSystem(intervals, masses)
        for m in SIZES:
            if system.p > 2 and m > max_p3:
                continue
            system_kernel.cache_clear()
            t0 = time.perf_counter()
            kernel = system_kernel(system, m)
            assembly = time.perf_counter() - t0
            apply = applier(kernel, system.p, m)
            w = np.random.default_rng(0).random(system.p * m)
            apply(w)
            ticks = []
            for _ in range(21):
                t0 = time.perf_counter()
                apply(w)
                ticks.append(time.perf_counter() - t0)
            certificates = {
                "%d,%d" % key: {"rank": rank, "error": err, "sketch": sketch}
                for key, (rank, err, sketch) in getattr(kernel, "certificates", {}).items()
            }
            del kernel, apply
            system_kernel.cache_clear()
            t0 = time.perf_counter()
            sol = solve_equilibrium(system, cells=m)
            solve = time.perf_counter() - t0
            system_kernel.cache_clear()
            out["%s_M%d" % (name, m)] = {
                "assembly_s": assembly, "apply_s": statistics.median(ticks),
                "solve_s": solve, "iterations": sol.iterations,
                "energy": sol.energy.total, "certificates": certificates,
            }

    def three_solves():
        system_kernel.cache_clear()
        t0 = time.perf_counter()
        for intervals, masses in CONTENTION:
            solve_equilibrium(IntervalSystem(intervals, masses), cells=400)
        return time.perf_counter() - t0

    out["three_grid400_quiet"] = {"s": three_solves()}
    busy = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        time.sleep(0.5)
        out["three_grid400_beside_busy"] = {"s": three_solves()}
    finally:
        busy.kill()
        busy.wait()
    return out


def child(src, max_p3):
    out = subprocess.run([sys.executable, __file__, "--measure", src, "--max-p3", str(max_p3)],
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def summarize(runs):
    """Median of every timing per case; the other fields are deterministic."""
    return {key: {field: (statistics.median(r[key][field] for r in runs)
                          if field.endswith("_s") or field == "s" else value)
                  for field, value in runs[0][key].items()}
            for key in runs[0]}


def git_sha(path):
    out = subprocess.run(["git", "-C", path, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--measure", help=argparse.SUPPRESS)
    ap.add_argument("--max-p3", type=int, default=max(SIZES), help=argparse.SUPPRESS)
    ap.add_argument("--before")
    ap.add_argument("--after")
    ap.add_argument("--before-max-cells", type=int, default=1600)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default="BENCH.json")
    args = ap.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure, args.max_p3)))
        return
    if not (args.before and args.after):
        ap.error("--before and --after are required")
    trees = {"before": (args.before, args.before_max_cells), "after": (args.after, max(SIZES))}
    runs = {label: [] for label in trees}
    for rep in range(args.repeats):
        order = list(trees) if rep % 2 == 0 else list(trees)[::-1]
        for label in order:
            runs[label].append(child(*trees[label]))
            print(label, rep, json.dumps(runs[label][-1]), flush=True)
    report = {
        "what": "equilibrium kernel assembly, one apply, solve time and iterations; "
                "cross-block certificates; three grid-400 solves quiet and beside a busy process",
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
