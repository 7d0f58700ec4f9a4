"""Equilibrium kernel and solver cost, before and after a change, as a BENCH_*.json file.

    python3 bench/eqm_operator.py --before OLD/src --after src --out BENCH_16.json

Each source tree is measured in fresh interpreters, alternating the two trees
so that both see the same machine drift.  One measurement records, for the
zero-field problem on [-2, -1] u [1, 2] and on a three-interval layout with
gaps 0.01, at M = 400, 800, 1600, 3200 cells per interval:

- ``assembly_s``: ``energy.system_kernel`` on an empty cache; for a tree that
  builds its cross blocks by adaptive cross approximation
  (``energy._cross_factors``), split into ``aca_s`` (the steps and the
  recompression) and ``certificate_s`` (``energy._entry_error``, the
  streamed entrywise check), summed over the cross blocks and also given per
  block; null for a tree without them;
- ``apply_s``: one kernel apply (partial potentials at all pM nodes), the
  median of 21 after a warm-up; for a tree whose ``system_kernel`` returns
  the dense (pM)^2 matrix this is (1/2)(K w + blockdiag(K) w);
- ``solve_s``: ``solve_equilibrium`` on an empty cache, assembly included,
  with its iteration count, energy, kernel applies (``KernelOperator.apply``
  counted; null for a tree without that class) and line-search trials per
  iteration, (applies - 1) / iterations;
- ``certificates``: rank, largest entry error and ACA ``steps`` of each
  low-rank cross block (``sketch`` size for a tree with the randomized
  sketch), where the tree has them.

Three-interval sizes above ``--before-max-cells`` are skipped for the
``before`` tree, whose dense kernel there needs 8 (3M)^2 bytes.

At M = 400 it also solves to ``tol`` 1e-6 and 1e-8 with ``max_iter`` 2000
on [-2, -1] u [1, 2] and on [-1, -0.01] u [0.01, 3] with masses (0.3, 0.7)
(``tol<tol>_<layout>`` rows, with the same fields).  A solve that hits the
cap is kept with ``capped`` true, its best residual and its cost.

It also times three grid-400 solves on three two-interval systems, first on
a quiet machine and then beside one busy process (a pure-Python loop) that
competes for the cores: wall time ``s`` and process CPU time ``cpu_s``.  CPU
time well above wall time means a second BLAS thread is spinning.

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
TIGHT = {
    "two": LAYOUTS["two"],
    "uneven": (((-1.0, -0.01), (0.01, 3.0)), (0.3, 0.7)),
}
TIGHT_TOLS = (1e-6, 1e-8)
TIGHT_CELLS = 400
TIGHT_MAX_ITER = 2000
CONTENTION = (
    (((-2.0, -1.0), (1.0, 2.0)), (0.5, 0.5)),
    (((-1.0, 0.0), (0.3, 2.0)), (0.3, 0.7)),
    (((-3.0, -1.0), (0.5, 1.0)), (0.6, 0.4)),
)


def measure(src, max_p3):
    sys.path.insert(0, os.path.abspath(src))
    import numpy as np

    from angelesco import IntervalSystem, solve_equilibrium
    from angelesco import energy
    from angelesco.energy import system_kernel
    from angelesco.errors import MaxIterationsExceeded

    applies = [0]
    operator = getattr(energy, "KernelOperator", None)
    if operator is not None:
        plain_apply = operator.apply

        def counted_apply(self, w):
            applies[0] += 1
            return plain_apply(self, w)

    def solve(system, cells, **kwargs):
        """A solve on an empty cache: its row, with the applies it made."""
        system_kernel.cache_clear()
        applies[0] = 0
        if operator is not None:
            operator.apply = counted_apply
        t0 = time.perf_counter()
        try:
            sol, capped = solve_equilibrium(system, cells=cells, **kwargs), False
        except MaxIterationsExceeded as exc:
            sol, capped = exc.solution, True
        finally:
            seconds = time.perf_counter() - t0
            if operator is not None:
                operator.apply = plain_apply
        system_kernel.cache_clear()
        n = applies[0] if operator is not None else None
        return {
            "solve_s": seconds, "iterations": sol.iterations, "capped": capped,
            "kkt_residual": sol.kkt_residual, "energy": sol.energy.total,
            "applies": n,
            "trials_per_iteration": (n - 1) / sol.iterations if n and sol.iterations else None,
        }

    factors = getattr(energy, "_cross_factors", None)

    def assemble(system, m):
        """system_kernel on an empty cache, with (aca_s, certificate_s) per
        cross block where the tree has ``_cross_factors``."""
        system_kernel.cache_clear()
        blocks = []
        if factors is None:
            t0 = time.perf_counter()
            return system_kernel(system, m), time.perf_counter() - t0, None
        plain_error = energy._entry_error
        checked = [0.0]

        def timed_error(*args):
            t0 = time.perf_counter()
            try:
                return plain_error(*args)
            finally:
                checked[0] += time.perf_counter() - t0

        def timed_factors(*args):
            checked[0] = 0.0
            t0 = time.perf_counter()
            out = factors(*args)
            blocks.append((time.perf_counter() - t0 - checked[0], checked[0]))
            return out

        energy._cross_factors, energy._entry_error = timed_factors, timed_error
        try:
            t0 = time.perf_counter()
            kernel = system_kernel(system, m)
            return kernel, time.perf_counter() - t0, blocks
        finally:
            energy._cross_factors, energy._entry_error = factors, plain_error

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
            kernel, assembly, blocks = assemble(system, m)
            apply = applier(kernel, system.p, m)
            w = np.random.default_rng(0).random(system.p * m)
            apply(w)
            ticks = []
            for _ in range(21):
                t0 = time.perf_counter()
                apply(w)
                ticks.append(time.perf_counter() - t0)
            certificates = {
                "%d,%d" % key: {"rank": rank, "error": err,
                                ("sketch" if blocks is None else "steps"): third}
                for key, (rank, err, third) in getattr(kernel, "certificates", {}).items()
            }
            split = {"aca_s": None, "certificate_s": None}
            if blocks is not None:
                for cert, (aca, check) in zip(certificates.values(), blocks):
                    cert.update(aca_s=aca, certificate_s=check)
                split = {"aca_s": sum(b[0] for b in blocks),
                         "certificate_s": sum(b[1] for b in blocks)}
            del kernel, apply
            out["%s_M%d" % (name, m)] = {
                "assembly_s": assembly, **split, "apply_s": statistics.median(ticks),
                **solve(system, m), "certificates": certificates,
            }
    for tol in TIGHT_TOLS:
        for name, (intervals, masses) in TIGHT.items():
            out["tol%g_%s" % (tol, name)] = solve(
                IntervalSystem(intervals, masses), TIGHT_CELLS,
                tol=tol, max_iter=TIGHT_MAX_ITER,
            )

    def three_solves():
        system_kernel.cache_clear()
        t0, c0 = time.perf_counter(), time.process_time()
        for intervals, masses in CONTENTION:
            solve_equilibrium(IntervalSystem(intervals, masses), cells=400)
        return {"s": time.perf_counter() - t0, "cpu_s": time.process_time() - c0}

    out["three_grid400_quiet"] = three_solves()
    busy = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        time.sleep(0.5)
        out["three_grid400_beside_busy"] = three_solves()
    finally:
        busy.kill()
        busy.wait()
    return out


def child(src, max_p3):
    out = subprocess.run([sys.executable, __file__, "--measure", src, "--max-p3", str(max_p3)],
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def summarize(runs, field=""):
    """Median of every timing (a field ending in _s, or s), in nested dicts
    too; the other fields are deterministic."""
    first = runs[0]
    if isinstance(first, dict):
        return {key: summarize([r[key] for r in runs], key) for key in first}
    if first is not None and (field.endswith("_s") or field == "s"):
        return statistics.median(runs)
    return first


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
        "what": "equilibrium kernel assembly, one apply, solve time, iterations, applies and "
                "trials per iteration; tight-tolerance solves; cross-block certificates; "
                "three grid-400 solves quiet and beside a busy process",
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
