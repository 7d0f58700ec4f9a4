"""Constrained minimization of the vector energy on products of simplices.

The discrete problem: minimize

    E(w) = sum_i w_i' K_ii w_i + sum_{i<j} w_i' K_ij w_j + 2 sum_i q_i' w_i

over weight vectors with w_i >= 0 and sum(w_i) = r_i.  The gradient is
2 * (partial potential + field) at the nodes, so the first-order conditions
are the equilibrium conditions: the quantity 2(U_i + Q_i) equals a constant
F_i on the support of component i and is >= F_i off it.  Projected gradient
descent with Barzilai-Borwein steps and an Armijo backtracking line search;
the projection is the Euclidean projection onto each scaled simplex.

Every kernel product goes through the cached ``energy.system_kernel``
operator: FFT-applied Toeplitz self blocks and certified low-rank cross
blocks, O(pM log M + p^2 M r) per apply, with no (pM)^2 array.  The final
energy report is taken from the same operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_CELLS, GridMeasure, VectorMeasure
from .energy import (
    EnergyReport,
    as_field,
    partial_potentials,
    system_kernel,
)
from .errors import GridMismatch, InfeasibleMasses, MaxIterationsExceeded

SUPPORT_THRESHOLD = 1e-14  # of the max weight, per component


@dataclass(frozen=True, eq=False)
class EquilibriumSolution:
    measure: VectorMeasure
    energy: EnergyReport
    kkt_residual: float
    modified_robin_constants: tuple
    iterations: int
    energy_history: tuple = ()


def project_simplex(v, total):
    """Euclidean projection of v onto {w >= 0, sum w = total}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, v.size + 1)
    lam = (css - total) / k
    rho = np.nonzero(u > lam)[0][-1]
    return np.maximum(v - lam[rho], 0.0)


def _support_residual(w_blocks, g_blocks):
    """KKT residual and per-component constants from weights and gradient."""
    consts = []
    worst = 0.0
    for w, g in zip(w_blocks, g_blocks):
        if w.max(initial=0.0) <= 0.0:
            consts.append(float("nan"))
            continue
        on = w > SUPPORT_THRESHOLD * w.max()
        f_i = float(w[on] @ g[on] / w[on].sum())
        consts.append(f_i)
        res_on = np.max(np.abs(g[on] - f_i))
        res_off = np.max(f_i - g[~on], initial=0.0)
        worst = max(worst, float(res_on), float(max(res_off, 0.0)))
    return worst, tuple(consts)


def kkt_residual(mu, field=None):
    """Equilibrium-condition residual of an arbitrary vector measure.

    Returns (residual, modified Robin constants).  On-support deviation of
    2(U_i + Q_i) from its support mean, plus any off-support shortfall.
    """
    field = as_field(field, mu.system.p)
    w_blocks, g_blocks = [], []
    for i, g in enumerate(mu):
        u = partial_potentials(mu, i, g.nodes)
        w_blocks.append(g.weights)
        g_blocks.append(2.0 * (u + field(i, g.nodes)))
    return _support_residual(w_blocks, g_blocks)


def solve_equilibrium(
    system,
    field=None,
    cells=DEFAULT_CELLS,
    tol=1e-4,
    max_iter=20000,
    initial=None,
):
    """Minimize the weighted energy over the product of scaled simplices.

    Starts from the uniform vector measure (or ``initial``, which must live
    on ``system``'s ``cells``-cell grids, else GridMismatch), takes
    Barzilai-Borwein trial steps safeguarded by Armijo backtracking along
    the projection arc, and stops when the KKT residual drops below ``tol``.
    Raises MaxIterationsExceeded (carrying the best iterate) otherwise.
    """
    field = as_field(field, system.p)
    p = system.p
    r = np.asarray(system.r)
    if np.any(r <= 0) or abs(r.sum() - 1.0) > 1e-12:
        raise InfeasibleMasses(f"bad mass vector {system.r}")
    if cells < 1:
        raise ValueError(f"cells must be at least 1, got {cells}")
    if initial is not None:
        _check_initial(initial, system, cells)

    kernel = system_kernel(system, cells)
    n = cells
    blocks = [slice(i * n, (i + 1) * n) for i in range(p)]
    q = np.concatenate(
        [field(i, system.grid_nodes(i, cells)) for i in range(p)]
    )

    def energy_of(w, u):
        return float(w @ u + 2.0 * (q @ w))

    def report(measure):
        w = np.concatenate([g.weights for g in measure])
        selfs, crosses = kernel.energy_terms(w)
        fields = [2.0 * float(w[b] @ q[b]) for b in blocks]
        return EnergyReport.build(selfs, crosses, fields)

    def project(v):
        return np.concatenate(
            [project_simplex(v[blocks[i]], r[i]) for i in range(p)]
        )

    if initial is None:
        w = np.concatenate([np.full(n, r[i] / n) for i in range(p)])
    else:
        w = project(np.concatenate([g.weights for g in initial]))

    u = kernel.apply(w)
    g = 2.0 * (u + q)
    e = energy_of(w, u)
    history = [e]
    w_prev = g_prev = None
    step = 1.0 / max(np.max(np.abs(g)), 1.0)
    best = (np.inf, None)

    for it in range(1, max_iter + 1):
        res, consts = _support_residual(
            [w[b] for b in blocks], [g[b] for b in blocks]
        )
        if res < best[0]:
            best = (res, (w.copy(), e, consts, it))
        if res <= tol:
            measure = _as_measure(system, cells, w)
            return EquilibriumSolution(
                measure=measure,
                energy=report(measure),
                kkt_residual=res,
                modified_robin_constants=consts,
                iterations=it - 1,
                energy_history=tuple(history),
            )

        if w_prev is not None:
            s = w - w_prev
            y = g - g_prev
            sy = float(s @ y)
            if sy > 1e-30:
                step = float(s @ s) / sy
        step = float(np.clip(step, 1e-14, 1e14))

        w_prev, g_prev = w, g
        t = step
        for _ in range(60):
            w_new = project(w - t * g)
            u_new = kernel.apply(w_new)
            e_new = energy_of(w_new, u_new)
            if e_new <= e + 1e-4 * float(g @ (w_new - w)) or t < 1e-18:
                break
            t *= 0.5
        w, u = w_new, u_new
        e = e_new
        g = 2.0 * (u + q)
        history.append(e)

    res, payload = best
    w_best, e_best, consts, it_best = payload
    measure = _as_measure(system, cells, w_best)
    raise MaxIterationsExceeded(
        f"no convergence to {tol} in {max_iter} iterations "
        f"(best residual {res:.3e})",
        solution=EquilibriumSolution(
            measure=measure,
            energy=report(measure),
            kkt_residual=res,
            modified_robin_constants=consts,
            iterations=max_iter,
            energy_history=tuple(history),
        ),
    )


def _check_initial(initial, system, cells):
    if initial.system != system:
        raise GridMismatch("initial measure lives on another interval system")
    for i, g in enumerate(initial):
        if g.cells != cells or not np.array_equal(
            g.nodes, system.grid_nodes(i, cells)
        ):
            raise GridMismatch(
                f"initial component {i} is not on the {cells}-cell grid"
            )


def _as_measure(system, cells, w):
    comps = []
    for i in range(system.p):
        wi = np.maximum(w[i * cells : (i + 1) * cells], 0.0)
        comps.append(
            GridMeasure(
                system,
                i,
                system.grid_nodes(i, cells),
                system.cell_width(i, cells),
                wi,
                float(wi.sum()),
            )
        )
    return VectorMeasure(tuple(comps))


def export_csv(solution, path):
    """Write (interval_index, node, weight, density) rows, 17 significant digits."""
    rows = ["interval_index,node,weight,density"]
    for i, g in enumerate(solution.measure):
        dens = g.density()
        for x, w, d in zip(g.nodes, g.weights, dens):
            rows.append(f"{i},{x:.17g},{w:.17g},{d:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
