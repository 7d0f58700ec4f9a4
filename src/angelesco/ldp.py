"""Rate function, quantile probes, and Bernstein-Markov growth constants.

The large-deviation rate of a vector measure is its weighted energy minus
the weighted energy of the equilibrium measure (speed n^2).  The family of
configuration functionals that certify the rate all collapse onto the same
energy value in the desk-scale regime, so they are probed through a single
deterministic device: quantile configurations of a target measure, whose
normalized log interaction weight approaches minus the weighted energy.

Bernstein-Markov growth is estimated through the Christoffel kernel of the
orthonormal polynomials that also build the MOPs and log Z: beta_n is the
sup of the degree-n kernel of the (probability-normalized) measure, and
beta_n^(1/2n) -> 1 exactly when sup norms grow subexponentially.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Configuration, apportion, quantile_configuration
from .energy import as_field, weighted_energy
from .equilibrium import solve_equilibrium
from .errors import IllConditionedGram
from .fekete import _log_weight, log_boltzmann

STACK_ENTRIES = 1 << 16  # point pairs per stacked chunk of field_shift_worst


@dataclass(frozen=True, eq=False)
class RateReport:
    rate: float
    measure_energy: float
    equilibrium_energy: float


@dataclass(frozen=True)
class BMEstimate:
    degree: int
    beta: float
    root: float  # beta ** (1 / (2 degree))
    saturated: bool = False  # beta within 1 % of the grid's discrete cap


def rate_function(mu, field=None, equilibrium=None):
    """Weighted-energy excess of ``mu`` over the equilibrium measure, which
    is solved on ``mu``'s grid (``mu[0].cells``) unless given."""
    field = as_field(field, mu.system.p)
    if equilibrium is None:
        equilibrium = solve_equilibrium(mu.system, field, cells=mu[0].cells)
    e_mu = weighted_energy(mu, field).total
    e_eq = equilibrium.energy.total
    return RateReport(
        rate=float(e_mu - e_eq),
        measure_energy=float(e_mu),
        equilibrium_energy=float(e_eq),
    )


def quantile_energy_probe(mu, n_list, field=None):
    """Normalized log weight of quantile configurations of ``mu``.

    Block sizes follow largest-remainder apportionment of the component
    masses; the values approach minus the weighted energy of ``mu``.
    Returns rows (n, value).
    """
    field = as_field(field, mu.system.p)
    rows = []
    for n in n_list:
        m = apportion(int(n), mu.masses)
        X = quantile_configuration(mu, m)
        val = log_boltzmann(X, field, m)
        rows.append((int(n), float(val / m.total ** 2)))
    return rows


def field_shift_identity(X, field, index=None):
    """Exact relation between unweighted and weighted log interaction weight.

    Returns (lhs, rhs) with lhs the difference of log weights and rhs twice
    the total point count times the summed field values.
    """
    index = X.index if index is None else index
    if tuple(index.counts) != tuple(X.index.counts):
        raise ValueError("multi-index does not match the configuration")
    interaction, fld = _log_weight(X.blocks, as_field(field, X.system.p))
    rhs = 2.0 * index.total * float(fld)
    interaction = float(interaction)
    return interaction - (interaction - rhs), rhs


def field_shift_worst(system, indices, field, n_configs, rng):
    """Largest |lhs - rhs| of ``field_shift_identity`` over ``n_configs``
    configurations, the j-th drawn by ``random_configuration`` at index
    ``indices[j % len(indices)]``.

    The same bits as that loop, from the same stream: each chunk of whole
    cycles through ``indices`` takes one ``rng.random`` call, mapped onto
    each block as a + (b - a) U (which is ``Generator.uniform``) and sorted,
    and the configurations of one index are evaluated as one stack.  A
    collision gives NaN, which is skipped as ``max`` skips it.
    """
    field = as_field(field, system.p)
    starts = np.cumsum([0] + [m.total for m in indices])  # within one cycle
    cycle = len(indices)
    chunk = cycle * max(1, STACK_ENTRIES // sum(m.total ** 2 for m in indices))
    worst = 0.0
    for first in range(0, n_configs, chunk):
        count = min(chunk, n_configs - first)
        full, extra = divmod(count, cycle)
        u = np.zeros((full + 1, starts[-1]))
        rng.random(out=u.reshape(-1)[: full * starts[-1] + starts[extra]])
        for g, m in enumerate(indices[:count]):
            rows = u[: full + (g < extra), starts[g]: starts[g + 1]]
            ends = np.cumsum((0,) + tuple(m.counts))
            blocks = [
                np.sort(a + (b - a) * rows[:, s:e], axis=-1)
                for (a, b), s, e in zip(system.intervals, ends[:-1], ends[1:])
            ]
            interaction, fld = _log_weight(blocks, field)
            rhs = 2.0 * m.total * fld
            with np.errstate(invalid="ignore"):  # -inf - -inf on a collision
                gap = np.abs(interaction - (interaction - rhs) - rhs)
            worst = float(np.fmax.reduce(gap, initial=worst))
    return worst


def _orthonormal(t, w, degree, center, scale):
    """Orthonormal polynomials p_0..p_degree of the measure sum w delta_t.

    Discretized Stieltjes in s = (x - center)/scale: s p_{k-1} minus its
    projections on p_0..p_{k-1}, taken twice, then normalized.  Returns the
    p_k at every node (zero weights included), their log leading coefficients
    in x and their recurrence s p_k = b_{k+1} p_{k+1} + a_k p_k + b_k p_{k-1}
    as (a, b): a_k = sum w s p_k^2, b_k = sum w s p_k p_{k-1}, b_0 = 0.  A
    vanishing norm (too few support nodes) raises IllConditionedGram.
    """
    s = (t - center) / scale
    vals = np.empty((degree + 1, s.size))
    log_norm = np.empty(degree + 1)
    v = np.ones_like(s)
    for k in range(degree + 1):
        size = np.sqrt(w @ (v * v))
        for _ in range(2):
            v = v - (vals[:k] @ (w * v)) @ vals[:k]
        norm = np.sqrt(w @ (v * v))
        if not norm > 1e-12 * size:
            raise IllConditionedGram(f"no norm left at degree {k}", degree=k)
        vals[k], log_norm[k] = v / norm, np.log(norm)
        v = s * vals[k]
    log_lead = -np.cumsum(log_norm) - np.arange(degree + 1) * np.log(scale)
    wsp = vals * (w * s)
    a = np.einsum("kt,kt->k", wsp, vals)
    b = np.append(0.0, np.einsum("kt,kt->k", wsp[1:], vals[:-1]))
    return vals, log_lead, (a, b)


def _kernel_profile(tau, degree, field=None, weight_scale=0):
    """Cumulative Christoffel kernel sups for degrees 0..degree.

    Running sums of squared orthonormal polynomials of the refined,
    probability-normalized measure, maximized over the whole interval, so a
    measure that ignores part of it shows a large sup.  Weighting multiplies
    the measure and the kernel diagonal by exp(-2 scale Q).  Also returns
    their discrete cap max(factor / nu) over the nodes of weight nu > 0.
    """
    i = tau.interval_index
    t, h, w = tau.refined()
    factor = np.exp(-2.0 * weight_scale * as_field(field, tau.system.p)(i, t))
    w = w * h * factor
    nu = w / w.sum()
    a, b = tau.system.intervals[i]
    vals, _, _ = _orthonormal(t, nu, degree, 0.5 * (a + b), 0.5 * (b - a))
    cap = float(np.max(factor[nu > 0.0] / nu[nu > 0.0]))
    return np.max(np.cumsum(vals * vals, axis=0) * factor, axis=1), cap


def bm_constant(tau, degree, field=None, weight_scale=0):
    """Christoffel-kernel growth estimate for one base measure.

    ``beta`` is the sup over the interval of the degree-``degree`` kernel
    diagonal of the probability-normalized measure; ``root`` its
    (2 degree)-th root.  Roots tending to 1 certify subexponential sup
    growth; roots bounded away from 1 expose a support defect.

    The measure is discrete (the refined grid's nodes and weights), so at a
    node of positive weight the diagonal is at most 1 / (that node's
    normalized weight): 8 x cells for a Lebesgue base.  Once the degree
    nears the grid, ``beta`` reads that cap instead of the continuous sup:
    on [-2, -1] u [1, 2], degree 50 gives 399.4 at 50 cells, 1780.7 at 400.
    ``saturated`` flags a ``beta`` within 1 % of that cap.
    """
    sups, cap = _kernel_profile(tau, degree, field, weight_scale)
    beta = float(sups[degree])
    root = float(beta ** (1.0 / (2 * degree))) if degree > 0 else 1.0
    return BMEstimate(degree, beta, root, beta >= 0.99 * cap)


def growth_constant(base_measures, max_degree, epsilon, field=None, weight_scale=0):
    """L1 growth constant C: sup |p| <= C (1+eps)^deg int |p| d tau.

    Derived from the L2 kernel sups (beta of the normalized measure bounds
    sup|p| by beta * int |p| d tau-hat), maximized over intervals and
    degrees up to ``max_degree``.
    """
    c = 0.0
    for tau in base_measures:
        sups, _ = _kernel_profile(tau, max_degree, field, weight_scale)
        ks = np.arange(max_degree + 1)
        c = max(
            c, float(np.max(sups / tau.total_mass / (1.0 + epsilon) ** ks))
        )
    return c


def random_configuration(system, index, rng):
    """Uniformly random sorted configuration; test utility."""
    blocks = tuple(
        np.sort(rng.uniform(*system.intervals[i], size=n_i))
        for i, n_i in enumerate(index.counts)
    )
    return Configuration(system, blocks)
