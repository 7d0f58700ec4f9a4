"""Constrained minimization of the vector energy on products of simplices.

The discrete problem: minimize

    E(w) = sum_i w_i' K_ii w_i + sum_{i<j} w_i' K_ij w_j + 2 sum_i q_i' w_i

over weight vectors with w_i >= 0 and sum(w_i) = r_i.  The gradient is
2 * (partial potential + field) at the nodes, so the first-order conditions
are the equilibrium conditions: the quantity 2(U_i + Q_i) equals a constant
F_i on the support of component i and is >= F_i off it.

The solver is a primal-dual active-set loop (Hintermuller, Ito & Kunisch,
SIAM J. Optim. 13, 2002).  On a fixed support the conditions are linear:
each round minimizes the energy there with the masses fixed and no sign
constraint, by projected CG preconditioned with the Strang circulant of each
Toeplitz self block, so the steps barely grow with M (Chan & Ng, SIAM Review
38, 1996).  The next support keeps the nodes of positive weight and adds
those where the gradient is below the component's constant.  Edge runs
move as Newton steps on a square-root edge; those steps overshoot, so the
first time a support repeats the loop switches to the plain steps above.

Every kernel product goes through the cached ``energy.system_kernel``
operator, with no M x M array; both exits report ``energy.weighted_energy``,
which reads the same operator on these grids.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_CELLS, GridMeasure, VectorMeasure
from .energy import (
    EnergyReport,
    _standard_cells,
    as_field,
    partial_potentials,
    system_kernel,
    weighted_energy,
)
from .errors import GridMismatch, InfeasibleMasses, MaxIterationsExceeded

SUPPORT_THRESHOLD = 1e-14  # of the max weight, per component
LOOSE = 1e-2  # residual reduction at which a round checks its support
MAX_ROUNDS = 30  # active-set rounds before MaxIterationsExceeded

# The last solution solved on each cached kernel, with its problem's key; an
# entry goes when its kernel leaves the ``system_kernel`` cache.
_SOLVED = weakref.WeakKeyDictionary()


@dataclass(frozen=True, eq=False)
class EquilibriumSolution:
    measure: VectorMeasure
    energy: EnergyReport
    kkt_residual: float
    modified_robin_constants: tuple
    iterations: int
    applies: int  # kernel applies: one per PCG step and one per round
    energy_history: tuple = ()  # at the start and after each round
    rounds: int = 0  # active-set rounds


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


def _centred(v, on):
    """Rows of v on the support ``on``, each moved to zero sum there."""
    v = np.where(on, v, 0.0)
    return np.where(on, v - (v.sum(axis=1) / on.sum(axis=1))[:, None], 0.0)


def _strang(columns, on):
    """The PCG preconditioner on the support ``on``: per row, the inverse of
    the Strang circulant of the self block (first column ``columns[i]``) on
    the hull of the row's support, by FFT.  The zero-frequency eigenvalue
    goes negative on long intervals; it acts only on the constant, which
    ``_centred`` removes, so the next eigenvalue takes its place."""
    hulls = []
    for col, row in zip(columns, on):
        a, b = np.flatnonzero(row)[[0, -1]]
        length, c = b + 1 - a, col[: b + 1 - a]
        circulant = np.r_[c[: length // 2 + 1], c[(length + 1) // 2 - 1 : 0 : -1]]
        eig = np.fft.rfft(circulant).real
        eig[0] = eig[1] if length > 1 else 1.0
        hulls.append((slice(a, a + length), length, eig))

    def solve(r):
        z = np.zeros_like(r)
        for zi, ri, (hull, length, eig) in zip(z, r, hulls):
            zi[hull] = np.fft.irfft(np.fft.rfft(ri[hull]) / eig, length)
        return _centred(z, on)

    return solve


def _runs(mask):
    """(start, stop) of each run of True in the 1-d boolean ``mask``."""
    flips = np.flatnonzero(np.diff(mask, prepend=False, append=False)).tolist()
    return zip(flips[::2], flips[1::2])


def _next_support(on, w, v, newton=True):
    """``on`` less its nodes of weight w <= 0, plus those off it where v
    (half the gradient) is below its mean on ``on``.  With ``newton``, edge
    runs move as Newton steps on a square-root edge: m negative weights at
    an edge are half the way to it, so m more nodes go; a run added beside
    the support is twice the way, so its ceil(m/2) nearest come, unless it
    reaches the interval's end.  A row keeps at least one node."""
    mean = np.where(on, v, 0.0).sum(axis=1) / on.sum(axis=1)
    drop, add = on & (w <= 0.0), ~on & (v < mean[:, None])
    new = (on & ~drop) | add
    if not newton:
        return new
    n = on.shape[1]
    for row, row_drop, row_add, row_on in zip(new, drop, add, on):
        step = row.copy()
        for a, b in _runs(row_drop):
            out_left, out_right = a == 0 or not row_on[a - 1], b == n or not row_on[b]
            if out_left and not out_right:
                step[b : 2 * b - a] = False
            elif out_right and not out_left:
                step[max(2 * a - b, 0) : a] = False
        for a, b in _runs(row_add):
            if 0 < a and b < n and (row_on[a - 1] or row_on[b]):
                half = (b - a + 1) // 2
                step[a:b] = False
                step[a : a + half] = row_on[a - 1]
                step[b - half : b] |= row_on[b]
        if step.any():
            row[:] = step
    return new


def _pcg(kernel, x, u, q, on, stop, budget):
    """Projected PCG for min x'Ax + 2q'x with the row sums of x fixed and x
    zero off ``on``, from x with u = Ax; returns x, u and the steps (one
    apply each).  r and each A d are re-centred every step (Gould, Hribar &
    Nocedal, SIAM J. Sci. Comput. 23, 2001), or CG diverges along the
    kernel's nearly null constant.  Stops at 2 max|r| <= ``stop``, after
    ``budget`` steps, at no curvature or r left, or at LOOSE times the first
    max|r| if the support is about to change."""
    shape, precondition = on.shape, _strang(kernel.columns, on)
    r = _centred((u + q).reshape(shape), on)
    z = precondition(r)
    d, rz = -z, float(np.vdot(r, z))
    steps, check = 0, LOOSE * np.abs(r).max()
    while steps < budget and rz > 0.0 and 2.0 * np.abs(r).max() > stop:
        if np.abs(r).max() <= check:
            ahead = _next_support(on, x.reshape(shape), (u + q).reshape(shape))
            if not np.array_equal(ahead, on):
                break
            check = -1.0
        ad = kernel.apply(d.ravel())
        steps += 1
        curv = float(d.ravel() @ ad)
        if not curv > 0.0:
            break
        x, u = x + (rz / curv) * d.ravel(), u + (rz / curv) * ad
        r = _centred(r + (rz / curv) * ad.reshape(shape), on)
        z = precondition(r)
        rz, rz_old = float(np.vdot(r, z)), rz
        d = (rz / rz_old) * d - z
    return x, u, steps


def solve_equilibrium(
    system,
    field=None,
    cells=DEFAULT_CELLS,
    tol=1e-4,
    max_iter=20000,
    initial=None,
):
    """Minimize the weighted energy over the product of scaled simplices.

    Active-set rounds from the uniform vector measure (or ``initial``
    projected onto the simplices; it must live on ``system``'s ``cells``-cell
    grids, else GridMismatch) and its support, until the weights are
    nonnegative with KKT residual at most ``tol``.  ``iterations`` counts PCG
    steps (``max_iter`` caps them); ``applies`` every kernel apply (one per
    PCG step and one per round, plus the first); ``rounds`` the rounds.
    ``energy_history`` has the energy of the start and of the iterate after
    each round.  Raises MaxIterationsExceeded, carrying the best feasible
    iterate, when ``max_iter`` PCG steps or MAX_ROUNDS rounds are spent.

    While ``system_kernel(system, cells)`` is cached, a repeat of the last
    problem solved on it (the same ``tol``, ``max_iter`` and field values
    at the grid nodes) returns the same frozen solution without a kernel
    apply; its counts describe the solve that produced it.  Calls with
    ``initial`` always solve and are not kept, nor is a solve that raises.
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
    key = (system, cells, tol, max_iter, q.tobytes())
    stored = _SOLVED.get(kernel)
    if initial is None and stored is not None and stored[0] == key:
        return stored[1]

    def energy_of(w, u):
        return float(w @ u + 2.0 * (q @ w))

    def solution(w, res, consts, iterations):
        measure = _as_measure(system, cells, w)
        return EquilibriumSolution(measure, weighted_energy(measure, field), res, consts,
                                   iterations, applies, tuple(history), rounds)

    starts = np.arange(0, p * n, n)
    if initial is None:
        w = np.concatenate([np.full(n, r[i] / n) for i in range(p)])
    else:
        w = _project_rows(np.stack([g.weights for g in initial]), r).ravel()

    history = []
    applies = iterations = rounds = 0
    plain = False
    best = (np.inf, None, None)
    on = (w > 0.0).reshape(p, n)
    seen = {on.tobytes()}

    while True:
        u = kernel.apply(w)
        applies += 1
        history.append(energy_of(w, u))
        if w.min() >= 0.0:
            res, consts = _support_residual(w, 2.0 * (u + q), starts)
            if res < best[0]:
                best = (res, w.copy(), consts)
            if res <= tol:
                solved = solution(w, res, consts, iterations)
                if initial is None:
                    _SOLVED[kernel] = (key, solved)
                return solved
        if rounds == MAX_ROUNDS or iterations == max_iter:
            break
        rounds += 1
        w, u, steps = _pcg(kernel, w, u, q, on, 0.1 * tol, max_iter - iterations)
        iterations += steps
        applies += steps
        new = _next_support(on, w.reshape(p, n), (u + q).reshape(p, n), not plain)
        if np.array_equal(new, on):
            continue
        # The edge steps overshoot; once they cycle, step plainly.
        plain = plain or new.tobytes() in seen
        seen.add(new.tobytes())
        # Warm start: the iterate on the new support, shifted to the masses.
        on = new
        w = (_centred(w.reshape(p, n), on) + on * (r / on.sum(axis=1))[:, None]).ravel()

    res, w, consts = best
    raise MaxIterationsExceeded(
        f"no convergence to {tol} (best residual {res:.3e}); CG steps "
        f"{iterations} of {max_iter}, rounds {rounds} of {MAX_ROUNDS}",
        solution=solution(w, res, consts, iterations),
    )


def _check_initial(initial, system, cells):
    if initial.system != system or _standard_cells(initial) != cells:
        raise GridMismatch(f"initial measure is not on this system's {cells}-cell grids")


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
