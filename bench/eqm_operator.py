"""Equilibrium kernel and solver cost, before and after a change, as a BENCH_*.json file.

    python3 bench/eqm_operator.py --before OLD/src --after src --out BENCH_16.json

One measurement records, for the zero-field problem on [-2, -1] u [1, 2] and
on a three-interval layout with gaps 0.01, at M = 400, 800, 1600, 3200 cells
per interval:

- ``assembly_s``: ``energy.system_kernel`` on an empty cache, with
  ``cross_s`` (``energy._cross_factors``) summed over the cross blocks and
  also given per block;
- ``apply_s``: one kernel apply (partial potentials at all pM nodes), the
  median of 21 after a warm-up;
- ``solve_s``: ``solve_equilibrium`` on an empty cache, assembly included,
  with its iteration count, energy, kernel applies (``KernelOperator.apply``
  counted), its outer active-set ``rounds`` and its ``pcg_steps``
  (``equilibrium._pcg`` counted);
- ``certificates``: per low-rank cross block, read from its certificate
  (rank, bound, N, N'): its rank, the ``bound``, ``node_rows`` (the core's
  N rows, the rows of the node block) and ``core_columns`` (the core's N'
  columns), the bound's four ``terms``, the ``budget`` LOW_RANK_TOL *
  max(1, max|C|), the ``realized`` largest entry error of U V' against the
  whole block (computed after assembly on all M rows, 64 at a time, with
  entries -log(y - x) taken here, not from the program), and
  ``bound_of_budget`` and ``realized_of_budget``.

``perfbench_blocks`` assembles, with the same records, the kernel of every
system with two or more intervals that seeds 1-5 of perfbench's
``eqm_sweep`` and ``fekete_extremal`` solve on (read through
``perfbench/workloads.runs``), and keeps the block count, the summed
``cross_s``, the largest N, the largest rank, the count of ``node_blocks``
(blocks kept as their node block, node-block term 0) and the largest two
ratios; ``worst_block`` is the largest ratio over every block of a tree.

``census_kernels`` assembles, each on an empty cache, the 18 kernels of
perfbench ``eqm_sweep`` seeds 1-130 on which a cross block once raised
because the adaptive cross approximation that factored node blocks before
the Chebyshev core used every node row and its check still failed.  Per
kernel it records ``assembles`` (true, or the error text), and per cross
block the ``ranks``, ``node_rows`` (rank < N: the block is compressed),
``bound_of_budget`` and ``realized_of_budget`` (null where it does not
assemble); ``census_assembled`` counts the kernels that assemble, per tree.

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

``repeat_two_M400`` makes two identical solves on [-2, -1] u [1, 2] at
M = 400 from an empty cache and records the kernel applies of the first
(``first_applies``) and the wall time and applies of the second
(``repeat_s``, ``repeat_applies``): a repeat that is solved again makes as
many applies as the first, one that returns the stored solution none.

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
# name: (intervals, masses, cells) of each census kernel.
CENSUS = {
    "seed25_M1600": (((-0.404648, 0.935929), (0.96137, 2.763458)), (0.617301, 0.382699), 1600),
    "seed31_M800": (((-1.13635, 0.481255), (1.955538, 3.393416), (3.413503, 4.223382)),
                    (0.199555, 0.537919, 0.262526), 800),
    "seed39_M800": (((-1.44146, -0.397582), (-0.173937, 1.769097), (1.968611, 2.474944)),
                    (0.402898, 0.37395, 0.223152), 800),
    "seed41_M400": (((-1.169631, -0.059535), (0.191153, 1.96488), (3.122894, 4.604347)),
                    (0.38373, 0.271001, 0.345269), 400),
    "seed44_M800": (((-0.091456, 1.469098), (2.786432, 4.778071), (5.088719, 6.650014)),
                    (0.288524, 0.516617, 0.194859), 800),
    "seed46_M1600": (((-0.112273, 1.329128), (1.354634, 2.381663)), (0.428803, 0.571197), 1600),
    "seed49_M1600": (((-0.006835, 1.490199), (1.733774, 3.371948)), (0.56748, 0.43252), 1600),
    "seed52_M400": (((-0.680376, 0.755637), (0.96828, 2.439266), (2.560374, 3.969171)),
                    (0.424727, 0.294384, 0.280889), 400),
    "seed58_M800": (((-1.337235, 0.143046), (1.377055, 3.306375), (3.640358, 5.609593)),
                    (0.403587, 0.384587, 0.211826), 800),
    "seed62_M800": (((-1.096583, 0.640308), (0.752223, 2.117728), (2.142441, 3.794746)),
                    (0.503153, 0.234046, 0.262801), 800),
    "seed87_M800": (((-0.159077, 1.411454), (2.595504, 4.024913), (5.162501, 6.877116)),
                    (0.429868, 0.230855, 0.339277), 800),
    "seed90_M800": (((-1.05701, 0.495709), (0.742676, 2.223417), (2.460591, 3.767658)),
                    (0.33176, 0.326071, 0.342169), 800),
    "seed94_M800": (((-0.309126, 1.214369), (1.280388, 3.264809)), (0.476278, 0.523722), 800),
    "seed116_M800": (((-0.673427, 1.310107), (1.324208, 2.794188), (3.077775, 4.852149)),
                     (0.206981, 0.427538, 0.365481), 800),
    "seed122_M400": (((-1.416891, 0.125948), (0.429767, 2.422185), (2.686577, 4.352697)),
                     (0.28381, 0.35792, 0.35827), 400),
    "seed124_M800": (((-1.185414, 0.366771), (0.38018, 1.693842), (3.467568, 4.465024)),
                     (0.271345, 0.336094, 0.392561), 800),
    "seed129_M800": (((-0.459677, 1.491282), (1.8207, 2.360962), (2.440595, 3.442446)),
                     (0.536618, 0.197626, 0.265756), 800),
    "seed130_M1600": (((-0.567652, 1.285259), (1.584102, 2.755967)), (0.539707, 0.460293), 1600),
}
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
    from angelesco.errors import AngelescoError, MaxIterationsExceeded

    applies = [0]
    plain_apply = energy.KernelOperator.apply

    def counted_apply(self, w):
        applies[0] += 1
        return plain_apply(self, w)

    pcg_steps = [0]
    plain_pcg = equilibrium._pcg

    def counted_pcg(*args):
        out = plain_pcg(*args)
        pcg_steps[0] += out[-1]
        return out

    def solve(system, cells, **kwargs):
        """A solve on an empty cache: its row, with the applies it made."""
        system_kernel.cache_clear()
        applies[0] = pcg_steps[0] = 0
        energy.KernelOperator.apply = counted_apply
        equilibrium._pcg = counted_pcg
        t0 = time.perf_counter()
        try:
            sol, capped = solve_equilibrium(system, cells=cells, **kwargs), False
        except MaxIterationsExceeded as exc:
            sol, capped = exc.solution, True
        finally:
            seconds = time.perf_counter() - t0
            energy.KernelOperator.apply = plain_apply
            equilibrium._pcg = plain_pcg
        system_kernel.cache_clear()
        return {
            "solve_s": seconds, "iterations": sol.iterations, "capped": capped,
            "kkt_residual": sol.kkt_residual, "energy": sol.energy.total,
            "applies": applies[0], "rounds": sol.rounds, "pcg_steps": pcg_steps[0],
        }

    def repeat(system, cells):
        """Two identical solves from an empty cache: the first's applies, and
        the second's wall time and applies."""
        system_kernel.cache_clear()
        energy.KernelOperator.apply = counted_apply
        try:
            applies[0] = 0
            solve_equilibrium(system, cells=cells)
            first, applies[0] = applies[0], 0
            t0 = time.perf_counter()
            solve_equilibrium(system, cells=cells)
            seconds = time.perf_counter() - t0
        finally:
            energy.KernelOperator.apply = plain_apply
        system_kernel.cache_clear()
        return {"first_applies": first, "repeat_s": seconds, "repeat_applies": applies[0]}

    factors = energy._cross_factors

    def dense_error(x, y, u, v):
        """max |U V' - C| over the cross block C = -log(y - x), 64 rows at a time."""
        err = 0.0
        for a in range(0, x.size, 64):
            c = -np.log(y - x[a : a + 64, None])
            err = max(err, float(np.abs(u[a : a + 64] @ v.T - c).max()))
        return err

    def assemble(system, m):
        """system_kernel on an empty cache, with one record per cross block:
        its time, the bound's four terms and, computed after assembly, the
        realized dense error and the budget."""
        system_kernel.cache_clear()
        blocks = []

        def timed_factors(x, y):
            t0 = time.perf_counter()
            out = factors(x, y)
            blocks.append({"cross_s": time.perf_counter() - t0, "grids": (x, y),
                           "terms": list(out[2])})
            return out

        energy._cross_factors = timed_factors
        try:
            t0 = time.perf_counter()
            kernel = system_kernel(system, m)
            seconds = time.perf_counter() - t0
        finally:
            energy._cross_factors = factors
        for block, (u, v) in zip(blocks, kernel._factors.values()):
            x, y = block.pop("grids")
            corners = energy._log_kernel(y[[0, -1]] - x[[0, -1], None])
            block["budget"] = energy.LOW_RANK_TOL * max(1.0, float(np.abs(corners).max()))
            block["realized"] = dense_error(x, y, u, v)
        return kernel, seconds, blocks

    def certificate(cert, block):
        """One block's record from its certificate (rank, bound, N, N')."""
        rank, bound, node_rows, core_columns = cert
        return {
            "rank": rank, "bound": bound, "node_rows": node_rows,
            "core_columns": core_columns,
            "terms": dict(zip(TERMS, block.pop("terms"))), **block,
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
                "%d,%d" % key: certificate(cert, block)
                for (key, cert), block in zip(kernel.certificates.items(), blocks)
            }
            del kernel
            out["%s_M%d" % (name, m)] = {
                "assembly_s": assembly,
                "cross_s": sum(b["cross_s"] for b in blocks),
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

    out["repeat_two_M400"] = repeat(IntervalSystem(*LAYOUTS["two"]), 400)

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
                    blocks += [certificate(cert, block)
                               for cert, block in zip(kernel.certificates.values(), found)]
    system_kernel.cache_clear()
    out["perfbench_blocks"] = {
        "kernels": len(kernels), "blocks": len(blocks),
        "cross_s": sum(b["cross_s"] for b in blocks),
        "max_node_rows": max(b["node_rows"] for b in blocks),
        "max_rank": max(b["rank"] for b in blocks),
        "node_blocks": sum(b["terms"]["node_block"] == 0.0 for b in blocks),
        "max_bound_of_budget": max(b["bound_of_budget"] for b in blocks),
        "max_realized_of_budget": max(b["realized_of_budget"] for b in blocks),
    }

    census = {}
    for name, (intervals, masses, m) in CENSUS.items():
        try:
            kernel, _, found = assemble(IntervalSystem(intervals, masses), m)
        except AngelescoError as exc:
            census[name] = {"assembles": str(exc), "ranks": None, "node_rows": None,
                            "bound_of_budget": None, "realized_of_budget": None}
            continue
        certs = [certificate(cert, block)
                 for cert, block in zip(kernel.certificates.values(), found)]
        census[name] = {"assembles": True, "ranks": [c["rank"] for c in certs],
                        "node_rows": [c["node_rows"] for c in certs],
                        "bound_of_budget": [c["bound_of_budget"] for c in certs],
                        "realized_of_budget": [c["realized_of_budget"] for c in certs]}
    system_kernel.cache_clear()
    out["census_kernels"] = census

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
    return {"worst_block": worst, "census_assembled": {
        label: sum(k["assembles"] is True for k in records[0]["census_kernels"].values())
        for label, records in runs.items()}}


if __name__ == "__main__":
    _driver.main(
        measure,
        "equilibrium kernel assembly, one apply, solve time, iterations, applies, "
        "active-set rounds and PCG steps; partial-support "
        "and tight-tolerance solves; a repeated solve; cross-block certificates; "
        "three grid-400 solves quiet and beside a busy process; bound and "
        "realized error of every cross block, here, in perfbench kernels and "
        "in the 18 census kernels",
        derive,
    )
