"""Constrained minimization of the vector energy on products of simplices.

The discrete problem: minimize

    E(w) = sum_i w_i' K_ii w_i + sum_{i<j} w_i' K_ij w_j + 2 sum_i q_i' w_i

over weight vectors with w_i >= 0 and sum(w_i) = r_i.  The gradient is
2 * (partial potential + field) at the nodes, so the first-order conditions
are the equilibrium conditions: the quantity 2(U_i + Q_i) equals a constant
F_i on the support of component i and is >= F_i off it.

The solver is spectral projected gradient (Birgin, Martinez & Raydan, SIAM
J. Optim. 10, 2000) with the adaptive ABBmin step of Frassoldati, Zanni &
Zanghirati (J. Ind. Manag. Optim. 4, 2008): of the two Barzilai-Borwein
steps BB1 = s's / s'y and BB2 = s'y / y'y, take the smallest of the last
ABBMIN_MEMORY = 3 BB2 values when BB2 < ABBMIN_TAU (0.5) BB1, else BB1.
The step is backtracked along the projection arc until the nonmonotone
Armijo rule of Grippo, Lampariello & Lucidi (SIAM J. Numer. Anal. 23, 1986)
holds,

    E(w_new) <= max(last NONMONOTONE_MEMORY = 10 energies) + 1e-4 g'(w_new - w).

A rejected step length t is multiplied by the minimizer of the energy's
exact quadratic on the segment from w to the rejected point, kept in
[0.1, 0.5] (safeguarded quadratic interpolation, as in SPG).

Comparing with the recent maximum instead of the current energy lets a
spectral step raise the energy for a while, so fewer trials are
rejected, and near the optimum, where energy differences are round-off, the
search still moves.  The projection onto the product of scaled simplices
and the KKT residual are each computed for all components at once, the
residual in one pass of segment minima and maxima.

Every kernel product goes through the cached ``energy.system_kernel``
operator: FFT-applied Toeplitz self blocks and low-rank cross blocks built
by adaptive cross approximation and certified entry by entry, O(pM log M +
p^2 M r) per apply, with no M x M array in assembly or apply.  Both exits,
success and MaxIterationsExceeded, take the energy report from the same
operator, with the field terms of ``energy.weighted_energy``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_CELLS, GridMeasure, VectorMeasure
from .energy import (
    EnergyReport,
    _field_integrals,
    as_field,
    partial_potentials,
    system_kernel,
)
from .errors import GridMismatch, InfeasibleMasses, MaxIterationsExceeded

SUPPORT_THRESHOLD = 1e-14  # of the max weight, per component
NONMONOTONE_MEMORY = 10  # energies the line search's reference looks back on
ABBMIN_MEMORY = 3  # BB2 steps the ABBmin rule takes the smallest of
ABBMIN_TAU = 0.5  # BB2 / BB1 below which the ABBmin rule takes BB2 steps


@dataclass(frozen=True, eq=False)
class EquilibriumSolution:
    measure: VectorMeasure
    energy: EnergyReport
    kkt_residual: float
    modified_robin_constants: tuple
    iterations: int
    applies: int  # kernel applies, rejected line-search trials included
    energy_history: tuple = ()


def _project_rows(v, totals):
    """Euclidean projection of each row of v onto {w >= 0, sum w = totals[row]}.

    One sort, one cumulative sum and one argmax for all rows: the threshold
    of row i is lam_i[rho] with lam_i[k] = (sum of the k+1 largest - total_i)
    / (k+1) and rho the last k at which the (k+1)-th largest exceeds lam_i[k].
    """
    u = np.sort(v, axis=1)[:, ::-1]
    lam = np.cumsum(u, axis=1)
    lam -= totals[:, None]
    lam /= np.arange(1, v.shape[1] + 1)
    rho = v.shape[1] - 1 - np.argmax((u > lam)[:, ::-1], axis=1)
    return np.maximum(v - lam[np.arange(v.shape[0]), rho][:, None], 0.0)


def project_simplex(v, total):
    """Euclidean projection of v onto {w >= 0, sum w = total}."""
    return _project_rows(np.asarray(v)[None, :], np.array([float(total)]))[0]


def _support_residual(w, g, starts):
    """KKT residual and per-component constants from weights and gradient.

    Components are the segments of the stacked ``w`` and ``g`` that begin
    at ``starts``.  A component with no positive weight has constant nan
    and adds nothing to the residual.  Component i adds
    max(F_i - min g_i, max of g_i - F_i over its support, 0): the largest
    |g - F_i| on the support and shortfall F_i - g off it, in one pass of
    segment minima and maxima (rounding is monotone, so these are the
    elementwise deviations' maxima bit for bit).
    """
    sizes = np.concatenate((starts[1:], [w.size])) - starts
    top = np.maximum.reduceat(w, starts)
    on = w > np.repeat(SUPPORT_THRESHOLD * top, sizes)
    w_on = np.where(on, w, 0.0)
    live = top > 0.0
    consts = np.divide(
        np.add.reduceat(w_on * g, starts),
        np.add.reduceat(w_on, starts),
        out=np.full(starts.size, np.nan),
        where=live,
    )
    low = np.minimum.reduceat(g, starts)
    high = np.maximum.reduceat(np.where(on, g, -np.inf), starts)
    worst = np.maximum(np.maximum(consts - low, high - consts), 0.0)[live]
    return float(worst.max(initial=0.0)), tuple(consts.tolist())


def kkt_residual(mu, field=None):
    """Equilibrium-condition residual of an arbitrary vector measure.

    Returns (residual, modified Robin constants).  On-support deviation of
    2(U_i + Q_i) from its support mean, plus any off-support shortfall.
    """
    field = as_field(field, mu.system.p)
    w = np.concatenate([g.weights for g in mu])
    grad = np.concatenate(
        [2.0 * (partial_potentials(mu, i, g.nodes) + field(i, g.nodes))
         for i, g in enumerate(mu)]
    )
    starts = np.cumsum([0] + [g.weights.size for g in mu][:-1])
    return _support_residual(w, grad, starts)


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
    on ``system``'s ``cells``-cell grids, else GridMismatch), takes ABBmin
    trial steps, shortens each along the projection arc until its energy is
    at most the largest of the last NONMONOTONE_MEMORY (10) energies plus
    the Armijo term 1e-4 g'(w_new - w), and stops when the KKT residual
    drops below ``tol``.  ``energy_history`` can therefore rise between
    iterations; its running 10-term maximum does not.  ``applies`` counts
    every kernel apply, rejected trials included.  Raises
    MaxIterationsExceeded (carrying the best iterate) otherwise.
    """
    field = as_field(field, system.p)
    p = system.p
    r = np.asarray(system.r)
    if np.any(r <= 0) or abs(r.sum() - 1.0) > 1e-12:
        raise InfeasibleMasses(f"bad mass vector {system.r}")
    if cells < 1:
        raise ValueError(f"cells must be at least 1, got {cells}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if initial is not None:
        _check_initial(initial, system, cells)

    kernel = system_kernel(system, cells)
    n = cells
    q = np.concatenate(
        [field(i, system.grid_nodes(i, cells)) for i in range(p)]
    )
    if not np.all(np.isfinite(q)):
        raise ValueError("the field is not finite at every grid node")

    def energy_of(w, u):
        return float(w @ u + 2.0 * (q @ w))

    def solution(w, res, consts, iterations):
        measure = _as_measure(system, cells, w)
        weights = np.concatenate([g.weights for g in measure])
        fields = _field_integrals(measure, field)
        energy = EnergyReport.build(*kernel.energy_terms(weights), fields)
        return EquilibriumSolution(
            measure, energy, res, consts, iterations, applies, tuple(history)
        )

    starts = np.arange(0, p * n, n)

    def project(v):
        return _project_rows(v.reshape(p, n), r).ravel()

    if initial is None:
        w = np.concatenate([np.full(n, r[i] / n) for i in range(p)])
    else:
        w = project(np.concatenate([g.weights for g in initial]))

    u = kernel.apply(w)
    g = 2.0 * (u + q)
    e = energy_of(w, u)
    history = [e]
    applies = 1
    w_prev = g_prev = None
    bb2s = deque(maxlen=ABBMIN_MEMORY)
    step = 1.0 / max(np.max(np.abs(g)), 1.0)
    best = (np.inf, None, None)

    for it in range(1, max_iter + 1):
        res, consts = _support_residual(w, g, starts)
        if res < best[0]:
            best = (res, w.copy(), consts)
        if res <= tol:
            return solution(w, res, consts, it - 1)

        if w_prev is not None:
            s = w - w_prev
            y = g - g_prev
            sy = float(s @ y)
            if sy > 1e-30:
                bb1 = float(s @ s) / sy
                bb2s.append(sy / float(y @ y))
                step = min(bb2s) if bb2s[-1] < ABBMIN_TAU * bb1 else bb1
        step = min(max(step, 1e-14), 1e14)

        w_prev, g_prev = w, g
        reference = max(history[-NONMONOTONE_MEMORY:])
        t = step
        for _ in range(60):
            w_new = project(w - t * g)
            u_new = kernel.apply(w_new)
            applies += 1
            e_new = energy_of(w_new, u_new)
            gd = float(g @ (w_new - w))
            if e_new <= reference + 1e-4 * gd or t < 1e-18:
                break
            # The energy is quadratic on the segment w -> w_new; shrink t by
            # that quadratic's minimizer, safeguarded to [0.1, 0.5].
            curv = e_new - e - gd
            t *= min(max(-0.5 * gd / curv, 0.1), 0.5) if curv > 0 else 0.5
        w, u = w_new, u_new
        e = e_new
        g = 2.0 * (u + q)
        history.append(e)

    res, w_best, consts = best
    raise MaxIterationsExceeded(
        f"no convergence to {tol} in {max_iter} iterations "
        f"(best residual {res:.3e})",
        solution=solution(w_best, res, consts, max_iter),
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
