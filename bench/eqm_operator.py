"""Equilibrium kernel and solver cost, before and after a change, as a BENCH_*.json file.

    python3 bench/eqm_operator.py --before OLD/src --after src --out BENCH_16.json

One measurement records, for the zero-field problem on [-2, -1] u [1, 2] and
on a three-interval layout with gaps 0.01, at M = 400, 800, 1600, 3200 cells
per interval:

- ``assembly_s``: ``energy.system_kernel`` on an empty cache, with
  ``cross_s`` (``energy._cross_factors``), and within it ``aca_s`` (the
  adaptive cross approximation steps and the recompression, ``energy._aca``
  on the node block, or the whole ``_cross_factors`` on a tree that factors
  all M rows) and ``certificate_s`` (``energy._entry_error``, the entrywise
  check of the rows ACA factored), summed over the cross blocks and also
  given per block;
- ``apply_s``: one kernel apply (partial potentials at all pM nodes), the
  median of 21 after a warm-up;
- ``solve_s``: ``solve_equilibrium`` on an empty cache, assembly included,
  with its iteration count, energy, kernel applies (``KernelOperator.apply``
  counted), ``trials_per_iteration`` = (applies - 1) / iterations (the
  line-search trials per iteration of a tree that solves by projected
  gradient), and, on a tree with the active-set solver, its outer
  ``rounds`` and its ``pcg_steps`` (``equilibrium._pcg`` counted; null on
  a tree without it);
- ``certificates``: per low-rank cross block, its rank, the ``bound`` its
  certificate reports, ACA ``steps``, ``node_rows`` (the N rows ACA factored;
  M on a tree that factors all rows), the bound's four ``terms`` (null on
  such a tree), the ``budget`` LOW_RANK_TOL * max(1, max|C|), the
  ``realized`` largest entry error of U V' against the whole block (computed
  after assembly by ``_entry_error`` on all M rows; here only), and
  ``bound_of_budget`` and ``realized_of_budget``.

``perfbench_blocks`` assembles, with the same records, the kernel of every
system with two or more intervals that seeds 1-5 of perfbench's
``eqm_sweep`` and ``fekete_extremal`` solve on (read through
``perfbench/workloads.runs``), and keeps the block count, the summed
``cross_s``, the largest N and the largest two ratios; ``worst_block`` is the
largest ratio over every block of a tree.

The same solve row is recorded at every M for two problems with a partial
support: the pushing case [-1, -0.01] u [0.01, 3] with masses (0.3, 0.7),
and [-2, -1] u [1, 2] under the field ``quadratic`` with scale 1
(``pushing_M<m>`` and ``two_quadratic_M<m>`` rows).  Two more problems under
a ``quadratic`` field, where the Newton edge steps of the active-set solver
overshoot and a support repeats, get one row each at the M where that
happens: the eqm_sweep seed-9 system at M = 800 (``eqm_sweep_seed9_M800``)
and a three-interval system at M = 200 (``three_quadratic_M200``).

At M = 400 it also solves to ``tol`` 1e-6 and 1e-8 with ``max_iter`` 2000
on [-2, -1] u [1, 2] and on [-1, -0.01] u [0.01, 3] with masses (0.3, 0.7)
(``tol<tol>_<layout>`` rows, with the same fields).  A solve that hits the
cap is kept with ``capped`` true, its best residual and its cost.

It also times three grid-400 solves on three two-interval systems, first on
a quiet machine (after a one-second pause) and then beside one busy process
(a pure-Python loop) that competes for the cores: wall time ``s`` and
process CPU time ``cpu_s``.  CPU time well above wall time means a second
BLAS thread is spinning.

The driver and the report layout are described in ``_driver.py``.
"""

import os
import statistics
import subprocess
import sys
import time

import _driver

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import workloads  # noqa: E402

SIZES = (400, 800, 1600, 3200)
LAYOUTS = {
    "two": (((-2.0, -1.0), (1.0, 2.0)), (0.5, 0.5)),
    "three_gap0.01": (((-2.0, -1.0), (-0.99, 0.0), (0.01, 1.0)), (0.3, 0.3, 0.4)),
}
# name: (intervals, masses, quadratic field (centre, scale) or None, cells)
PARTIAL = {
    "pushing": (((-1.0, -0.01), (0.01, 3.0)), (0.3, 0.7), None, SIZES),
    "two_quadratic": (((-2.0, -1.0), (1.0, 2.0)), (0.5, 0.5), (0.0, 1.0), SIZES),
    "eqm_sweep_seed9": (
        ((-0.287125, 0.946077), (0.958755, 2.299244)), (0.626451, 0.373549),
        (0.593498, 0.342835), (800,),
    ),
    "three_quadratic": (
        ((-1.61044, -1.159444), (-1.147925, -0.072257), (-0.050128, 0.541181)),
        (0.255072, 0.367968, 0.37696), (0.009826, 0.193146), (200,),
    ),
}
TIGHT = {
    "two": LAYOUTS["two"],
    "uneven": (((-1.0, -0.01), (0.01, 3.0)), (0.3, 0.7)),
}
TIGHT_TOLS = (1e-6, 1e-8)
TIGHT_CELLS = 400
TIGHT_MAX_ITER = 2000
# The four terms of a cross block's bound, in the order _cross_factors
# returns them.
TERMS = ("interpolation", "node_block", "basis_roundoff", "product_roundoff")
# Every kernel that these perfbench measurements build (read only).
PERFBENCH_WORKLOADS = ("eqm_sweep", "fekete_extremal")
PERFBENCH_SEEDS = (1, 2, 3, 4, 5)
CONTENTION = (
    (((-2.0, -1.0), (1.0, 2.0)), (0.5, 0.5)),
    (((-1.0, 0.0), (0.3, 2.0)), (0.3, 0.7)),
    (((-3.0, -1.0), (0.5, 1.0)), (0.6, 0.4)),
)


def measure(src):
    import numpy as np

    from angelesco import ExternalField, IntervalSystem, solve_equilibrium
    from angelesco import energy, equilibrium
    from angelesco.energy import system_kernel
    from angelesco.errors import MaxIterationsExceeded

    applies = [0]
    plain_apply = energy.KernelOperator.apply

    def counted_apply(self, w):
        applies[0] += 1
        return plain_apply(self, w)

    pcg_steps = [0]
    plain_pcg = getattr(equilibrium, "_pcg", None)

    def counted_pcg(*args):
        out = plain_pcg(*args)
        pcg_steps[0] += out[-1]
        return out

    def solve(system, cells, **kwargs):
        """A solve on an empty cache: its row, with the applies it made."""
        system_kernel.cache_clear()
        applies[0] = pcg_steps[0] = 0
        energy.KernelOperator.apply = counted_apply
        if plain_pcg:
            equilibrium._pcg = counted_pcg
        t0 = time.perf_counter()
        try:
            sol, capped = solve_equilibrium(system, cells=cells, **kwargs), False
        except MaxIterationsExceeded as exc:
            sol, capped = exc.solution, True
        finally:
            seconds = time.perf_counter() - t0
            energy.KernelOperator.apply = plain_apply
            if plain_pcg:
                equilibrium._pcg = plain_pcg
        system_kernel.cache_clear()
        n = applies[0]
        return {
            "solve_s": seconds, "iterations": sol.iterations, "capped": capped,
            "kkt_residual": sol.kkt_residual, "energy": sol.energy.total,
            "applies": n,
            "trials_per_iteration": (n - 1) / sol.iterations if n and sol.iterations else None,
            "rounds": getattr(sol, "rounds", None),
            "pcg_steps": pcg_steps[0] if plain_pcg else None,
        }

    factors = energy._cross_factors
    node_aca = getattr(energy, "_aca", None)  # None on a tree that factors all M rows

    def assemble(system, m):
        """system_kernel on an empty cache, with one record per cross block:
        its times, node rows N, bound, the bound's four terms and, computed
        after assembly, the realized dense error and the budget."""
        system_kernel.cache_clear()
        blocks = []
        plain_error = energy._entry_error
        plain_aca = node_aca or factors
        clock = {"check": 0.0, "aca": 0.0, "n": 0}

        def timed_error(*args):
            t0 = time.perf_counter()
            try:
                return plain_error(*args)
            finally:
                clock["check"] += time.perf_counter() - t0

        def timed_aca(x, *args):
            t0 = time.perf_counter()
            try:
                return plain_aca(x, *args)
            finally:
                clock["aca"] += time.perf_counter() - t0
                clock["n"] = x.size

        def timed_factors(x, y):
            clock.update(check=0.0, aca=0.0)
            t0 = time.perf_counter()
            out = factors(x, y) if node_aca else timed_aca(x, y)
            blocks.append({
                "cross_s": time.perf_counter() - t0,
                "aca_s": clock["aca"] - clock["check"], "certificate_s": clock["check"],
                "node_rows": clock["n"], "grids": (x, y),
                "terms": list(out[2]) if isinstance(out[2], tuple) else None,
            })
            return out

        energy._entry_error, energy._cross_factors = timed_error, timed_factors
        if node_aca:
            energy._aca = timed_aca
        try:
            t0 = time.perf_counter()
            kernel = system_kernel(system, m)
            seconds = time.perf_counter() - t0
        finally:
            energy._cross_factors, energy._entry_error = factors, plain_error
            if node_aca:
                energy._aca = node_aca
        for block, (u, v) in zip(blocks, kernel._factors.values()):
            x, y = block.pop("grids")
            corners = energy._log_kernel(y[[0, -1]] - x[[0, -1], None])
            block["budget"] = energy.LOW_RANK_TOL * max(1.0, float(np.abs(corners).max()))
            block["realized"] = plain_error(x, y, u, v)
        return kernel, seconds, blocks

    def certificate(rank, bound, steps, block):
        terms = block.pop("terms")
        return {
            "rank": rank, "bound": bound, "steps": steps,
            "terms": terms and dict(zip(TERMS, terms)), **block,
            "bound_of_budget": bound / block["budget"],
            "realized_of_budget": block["realized"] / block["budget"],
        }

    out = {}
    solve_equilibrium(IntervalSystem(*LAYOUTS["two"]), cells=50)  # first-call costs
    for name, (intervals, masses) in LAYOUTS.items():
        system = IntervalSystem(intervals, masses)
        for m in SIZES:
            kernel, assembly, blocks = assemble(system, m)
            w = np.random.default_rng(0).random(system.p * m)
            kernel.apply(w)
            ticks = []
            for _ in range(21):
                t0 = time.perf_counter()
                kernel.apply(w)
                ticks.append(time.perf_counter() - t0)
            certificates = {
                "%d,%d" % key: certificate(rank, bound, steps, block)
                for (key, (rank, bound, steps)), block
                in zip(kernel.certificates.items(), blocks)
            }
            del kernel
            out["%s_M%d" % (name, m)] = {
                "assembly_s": assembly,
                **{key: sum(b[key] for b in blocks)
                   for key in ("cross_s", "aca_s", "certificate_s")},
                "apply_s": statistics.median(ticks),
                **solve(system, m), "certificates": certificates,
            }
    for name, (intervals, masses, quadratic, sizes) in PARTIAL.items():
        system = IntervalSystem(intervals, masses)
        field = None if quadratic is None else ExternalField.quadratic(system.p, *quadratic)
        for m in sizes:
            out["%s_M%d" % (name, m)] = solve(system, m, field=field)
    for tol in TIGHT_TOLS:
        for name, (intervals, masses) in TIGHT.items():
            out["tol%g_%s" % (tol, name)] = solve(
                IntervalSystem(intervals, masses), TIGHT_CELLS,
                tol=tol, max_iter=TIGHT_MAX_ITER,
            )

    kernels, blocks = set(), []
    for workload in PERFBENCH_WORKLOADS:
        for seed in PERFBENCH_SEEDS:
            stream = workloads.runs(workload, seed)
            spec = workloads.WORKLOADS[workload]
            for run in (next(stream) for _ in range(spec.cycles * spec.slots)):
                if run.solves_equilibrium and run.p > 1 and run.kernel_key not in kernels:
                    kernels.add(run.kernel_key)
                    system = IntervalSystem(run.intervals, run.config["masses"])
                    kernel, _, found = assemble(system, run.grid)
                    blocks += [certificate(*cert, block)
                               for cert, block in zip(kernel.certificates.values(), found)]
    system_kernel.cache_clear()
    out["perfbench_blocks"] = {
        "kernels": len(kernels), "blocks": len(blocks),
        "cross_s": sum(b["cross_s"] for b in blocks),
        "max_node_rows": max(b["node_rows"] for b in blocks),
        "max_bound_of_budget": max(b["bound_of_budget"] for b in blocks),
        "max_realized_of_budget": max(b["realized_of_budget"] for b in blocks),
    }

    def three_solves():
        system_kernel.cache_clear()
        t0, c0 = time.perf_counter(), time.process_time()
        for intervals, masses in CONTENTION:
            solve_equilibrium(IntervalSystem(intervals, masses), cells=400)
        return {"s": time.perf_counter() - t0, "cpu_s": time.process_time() - c0}

    # OpenBLAS workers spin for a while after their last call; the pause lets
    # the ones that earlier rows woke go to sleep, so cpu_s counts only what
    # the three solves wake.
    time.sleep(1.0)
    out["three_grid400_quiet"] = three_solves()
    busy = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        time.sleep(0.5)
        out["three_grid400_beside_busy"] = three_solves()
    finally:
        busy.kill()
        busy.wait()
    return out


def derive(runs):
    """The largest bound / budget and realized error / budget over every
    cross block a tree built, per tree."""
    worst = {}
    for label, records in runs.items():
        rows = [row for row in records[0].values() if "certificates" in row]
        certs = [c for row in rows for c in row["certificates"].values()]
        blocks = records[0]["perfbench_blocks"]
        worst[label] = {
            "max_bound_of_budget": max([c["bound_of_budget"] for c in certs]
                                       + [blocks["max_bound_of_budget"]]),
            "max_realized_of_budget": max([c["realized_of_budget"] for c in certs]
                                          + [blocks["max_realized_of_budget"]]),
        }
    return {"worst_block": worst}


if __name__ == "__main__":
    _driver.main(
        measure,
        "equilibrium kernel assembly, one apply, solve time, iterations, applies, "
        "trials per iteration, active-set rounds and PCG steps; partial-support "
        "and tight-tolerance solves; cross-block certificates; "
        "three grid-400 solves quiet and beside a busy process; bound and "
        "realized error of every cross block, here and in perfbench kernels",
        derive,
    )
