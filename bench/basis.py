"""log Z, MOP and Christoffel-kernel cost and accuracy, before and after a change.

    python3 bench/basis.py --before OLD/src --after src --out BENCH_8.json

Each source tree is measured in fresh interpreters, alternating the two trees
so that both see the same machine drift.  One measurement records:

- ``log_z``: the number ``zconst`` writes as ``log_z`` and its time, for n
  points on [0, 1] with Lebesgue base measure (closed form: the Selberg
  integral) at n = 2..5 and, where the tree computes it, n = 8..160, each on
  grids of 200 and 400 cells (the refined measure has 8x the cells, so
  doubling the grid shows the discretization error); and for (k, k) points
  on [-2, -1] u [1, 2] at n = 8..160 on 400 cells (no closed form).  A tree
  whose ``zconst`` has no value at some n (NaN from the tensor cut-off) or
  raises records that instead of a number;
- ``mop``: ``solve_mop`` time and coefficients for n points on [-1, 1]
  (n = 2..64, 400 cells) and (k, k) points on [-2, -1] u [1, 2]
  (n = 2..64, 100 cells);
- ``bm``: ``bm_constant`` time and beta for Lebesgue measure on [-1, 1],
  400 cells, degrees 4..64.

The errors are computed in the parent process against references that do not
depend on the tree: the Selberg closed form; the monic orthogonal
polynomials of the refined grid measure (the three-term recurrence of the
uniform measure on N midpoints for one interval; the monomial moment system
in 200-digit decimals for two); and the Christoffel sum of those
polynomials.  The continuous Legendre polynomials are recorded too, to show
the discretization error that the grid keeps.

The file keeps every repeat and the median time per tree.
"""

import argparse
import decimal
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

SELBERG_N = (2, 3, 4, 5, 8, 16, 32, 64, 128, 160)
SELBERG_CELLS = (200, 400)
PAIR_K = (4, 8, 16, 32, 64, 80)
MOP_ONE_N = (2, 4, 8, 12, 16, 18, 24, 32, 48, 64)
MOP_PAIR_K = (1, 2, 4, 8, 16, 32)
BM_DEGREES = (4, 8, 16, 24, 32, 48, 64)
PAIR = ((-2.0, -1.0), (1.0, 2.0))


def measure(src):
    sys.path.insert(0, os.path.abspath(src))
    import numpy as np

    from angelesco import (
        BaseMeasure,
        EnsembleSpec,
        IntervalSystem,
        MultiIndex,
        MultiIndexSequence,
        bm_constant,
        partition_function_quadrature,
        solve_mop,
    )
    from angelesco import ensemble

    determinant = getattr(ensemble, "_log_partition", None)

    def spec(intervals, counts, cells):
        n = sum(counts)
        system = IntervalSystem(intervals, tuple(c / n for c in counts))
        base = tuple(BaseMeasure.lebesgue(system, i, cells) for i in range(system.p))
        return EnsembleSpec(system, None, base, MultiIndexSequence.explicit([counts]))

    def timed(fn):
        t0 = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # a tree's limit, recorded as such
            return {"s": time.perf_counter() - t0, "error": type(exc).__name__}
        return {"s": time.perf_counter() - t0, "value": value}

    def zconst_log_z(s):
        # What cmd_zconst writes: the determinant, or the tensor up to its cut-off.
        if determinant is not None:
            return determinant(s, 1)
        if s.index(1).total <= ensemble.TENSOR_MAX_POINTS:
            return partition_function_quadrature(s, 1)
        return float("nan")

    # The references assume the refined grid is 8 midpoints per cell.
    t, h, _ = spec(PAIR, (1, 1), 100).base[1].refined(8)
    assert np.allclose(t, 1.0 + (np.arange(800) + 0.5) * h, rtol=0, atol=1e-15)
    out = {"log_z": {}, "mop": {}, "bm": {}}
    zconst_log_z(spec(((0.0, 1.0),), (2,), 20))  # first-call costs
    for cells in SELBERG_CELLS:
        for n in SELBERG_N:
            if n > 5 and determinant is None:
                continue
            out["log_z"]["selberg_n%d_cells%d" % (n, cells)] = timed(
                lambda: zconst_log_z(spec(((0.0, 1.0),), (n,), cells)))
    if determinant is not None:
        for k in PAIR_K:
            out["log_z"]["pair_n%d_cells400" % (2 * k)] = timed(
                lambda: zconst_log_z(spec(PAIR, (k, k), 400)))
    for n in MOP_ONE_N:
        s = spec(((-1.0, 1.0),), (n,), 400)
        r = timed(lambda: list(solve_mop(s, MultiIndex((n,))).coefficients))
        out["mop"]["one_n%d" % n] = r
    for k in MOP_PAIR_K:
        s = spec(PAIR, (k, k), 100)
        r = timed(lambda: list(solve_mop(s, MultiIndex((k, k))).coefficients))
        out["mop"]["pair_n%d" % (2 * k)] = r
    system = IntervalSystem(((-1.0, 1.0),), (1.0,))
    tau = BaseMeasure.lebesgue(system, 0, 400)
    for degree in BM_DEGREES:
        out["bm"]["degree%d" % degree] = timed(lambda: bm_constant(tau, degree).beta)
    return out


# ------------------------------------------------------------- references


def log_selberg(n):
    """log of int_[0,1]^n Delta(t)^2 dt = prod_j j!^2 (j+1)! / (n+j)!."""
    return sum(2 * math.lgamma(1 + j) + math.lgamma(2 + j) - math.lgamma(1 + n + j)
               for j in range(n))


def monic_legendre(n_max, nodes=None):
    """Monic Legendre polynomials, constant first; with ``nodes``, those of the
    uniform measure on that many midpoints of [-1, 1]."""
    import numpy as np

    polys = [np.array([1.0]), np.array([0.0, 1.0])]
    for k in range(1, n_max):
        beta = k * k / (4.0 * k * k - 1.0) * (1.0 - k * k / nodes ** 2 if nodes else 1.0)
        nxt = np.concatenate(([0.0], polys[k]))
        nxt[:k] -= beta * polys[k - 1]
        polys.append(nxt)
    return polys


def grid_christoffel_sup(degree, nodes):
    """Sup over the N midpoints of sum_k p_k^2 for their uniform probability."""
    import numpy as np

    t = -1.0 + (2.0 * np.arange(nodes) + 1.0) / nodes
    prev, cur, b = np.zeros_like(t), np.ones_like(t), 0.0
    kernel = cur * cur
    for k in range(1, degree + 1):
        b_next = math.sqrt(k * k * (1.0 - k * k / nodes ** 2) / (4.0 * k * k - 1.0))
        prev, cur, b = cur, (t * cur - b * prev) / b_next, b_next
        kernel += cur * cur
    return float(kernel.max())


def pair_grid_mop(k, cells, digits=200):
    """Monic MOP of the refined Lebesgue grid measure on PAIR, (k, k) points,
    from the monomial moment system in ``digits``-digit decimals."""
    import numpy as np

    n = 2 * k
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        rows = []
        for a, b in PAIR:
            m = 8 * cells
            h = (b - a) / m
            ts = [decimal.Decimal(float(x)) for x in a + (np.arange(m) + 0.5) * h]
            powers = [decimal.Decimal(h)] * m
            moments = []
            for _ in range(2 * n + 1):
                moments.append(sum(powers))
                powers = [p * t for p, t in zip(powers, ts)]
            rows += [moments[j : j + n] + [-moments[j + n]] for j in range(k)]
        for col in range(n):
            piv = max(range(col, n), key=lambda r: abs(rows[r][col]))
            rows[col], rows[piv] = rows[piv], rows[col]
            for r in range(n):
                if r != col:
                    f = rows[r][col] / rows[col][col]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
        return [float(rows[r][n] / rows[r][r]) for r in range(n)]


def errors(run, pair_mops):
    """Per case: error against the reference, or the tree's failure."""
    import numpy as np

    out = {"log_z": {}, "mop": {}, "bm": {}}
    for key, r in run["log_z"].items():
        if "value" not in r or not math.isfinite(r["value"]):
            out["log_z"][key] = r.get("error", "nan")
        elif key.startswith("selberg"):
            n = int(key.split("_")[1][1:])
            out["log_z"][key] = r["value"] - log_selberg(n)
        else:
            out["log_z"][key] = None
    one_grid = monic_legendre(max(MOP_ONE_N), nodes=3200)
    one_cont = monic_legendre(max(MOP_ONE_N))
    for key, r in run["mop"].items():
        if "value" not in r:
            out["mop"][key] = r["error"]
            continue
        n = int(key.split("_n")[1])
        got = np.asarray(r["value"])
        if key.startswith("one"):
            grid, cont = one_grid[n][:-1], one_cont[n][:-1]
        else:
            grid, cont = np.asarray(pair_mops[n // 2]), None
        scale = np.abs(grid).max()
        out["mop"][key] = {
            "grid_rel": float(np.abs(got - grid).max() / scale),
            "continuous_rel": None if cont is None
            else float(np.abs(got - cont).max() / np.abs(cont).max()),
        }
    for key, r in run["bm"].items():
        degree = int(key[len("degree"):])
        out["bm"][key] = (r["value"] / grid_christoffel_sup(degree, 3200) - 1.0
                          if "value" in r else r["error"])
    return out


def child(src):
    out = subprocess.run([sys.executable, __file__, "--measure", src],
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def median_times(runs):
    return {part: {key: statistics.median(r[part][key]["s"] for r in runs)
                   for key in runs[0][part]}
            for part in runs[0]}


def git_sha(path):
    out = subprocess.run(["git", "-C", path, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--measure", help=argparse.SUPPRESS)
    ap.add_argument("--before")
    ap.add_argument("--after")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default="BENCH.json")
    args = ap.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return
    if not (args.before and args.after):
        ap.error("--before and --after are required")
    trees = {"before": args.before, "after": args.after}
    pair_mops = {k: pair_grid_mop(k, 100) for k in MOP_PAIR_K}
    runs = {label: [] for label in trees}
    for rep in range(args.repeats):
        order = list(trees) if rep % 2 == 0 else list(trees)[::-1]
        for label in order:
            runs[label].append(child(trees[label]))
            print(label, rep, flush=True)
    report = {
        "what": "zconst log Z (value, time, Selberg error, doubling cells), solve_mop time "
                "and error against the grid measure's MOP, bm_constant time and beta "
                "against the grid Legendre Christoffel sum",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "repeats": args.repeats,
        "head_sha": git_sha(os.path.dirname(os.path.abspath(__file__))),
        "median_s": {label: median_times(r) for label, r in runs.items()},
        "errors": {label: errors(r[0], pair_mops) for label, r in runs.items()},
        "beta_after_vs_before_rel": {
            key: runs["after"][0]["bm"][key]["value"] / r["value"] - 1.0
            for key, r in runs["before"][0]["bm"].items() if "value" in r
        },
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
