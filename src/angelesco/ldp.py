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
from .fekete import log_boltzmann


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


def rate_function(mu, field=None, equilibrium=None, cells=None, tol=1e-4):
    """Weighted-energy excess of ``mu`` over the equilibrium measure."""
    field = as_field(field, mu.system.p)
    if equilibrium is None:
        equilibrium = solve_equilibrium(
            mu.system, field, cells=cells or mu[0].cells, tol=tol
        )
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
    field = as_field(field, X.system.p)
    lhs = log_boltzmann(X, None, index) - log_boltzmann(X, field, index)
    n = index.total
    rhs = 2.0 * n * sum(
        float(np.sum(field(i, b))) for i, b in enumerate(X.blocks)
    )
    return float(lhs), float(rhs)


def _orthonormal(t, w, degree, center, scale):
    """Orthonormal polynomials p_0..p_degree of the measure sum w delta_t.

    Discretized Stieltjes in s = (x - center)/scale: s p_{k-1} minus its
    projections on p_0..p_{k-1}, taken twice, then normalized.  Returns the
    p_k at every node (zero weights included), their log leading coefficients
    in x and their coefficients in s.  A vanishing norm (too few support
    nodes) raises IllConditionedGram.
    """
    s = (t - center) / scale
    vals = np.empty((degree + 1, s.size))
    coef = np.zeros((degree + 1, degree + 1))
    log_norm = np.empty(degree + 1)
    v, c = np.ones_like(s), np.eye(1, degree + 1)[0]
    for k in range(degree + 1):
        size = np.sqrt(w @ (v * v))
        for _ in range(2):
            proj = vals[:k] @ (w * v)
            v, c = v - proj @ vals[:k], c - proj @ coef[:k]
        norm = np.sqrt(w @ (v * v))
        if not norm > 1e-12 * size:
            raise IllConditionedGram(f"no norm left at degree {k}", degree=k)
        vals[k], coef[k], log_norm[k] = v / norm, c / norm, np.log(norm)
        v, c = s * vals[k], np.roll(coef[k], 1)
    log_lead = -np.cumsum(log_norm) - np.arange(degree + 1) * np.log(scale)
    return vals, log_lead, coef


def _kernel_profile(tau, degree, field=None, weight_scale=0, refine=8):
    """Cumulative Christoffel kernel sups for degrees 0..degree.

    Running sums of squared orthonormal polynomials of the refined,
    probability-normalized measure, maximized over the whole interval, so a
    measure that ignores part of it shows a large sup.  Weighting multiplies
    the measure and the kernel diagonal by exp(-2 scale Q).
    """
    i = tau.interval_index
    t, h, w = tau.refined(refine)
    factor = np.exp(-2.0 * weight_scale * as_field(field, tau.system.p)(i, t))
    w = w * h * factor
    a, b = tau.system.intervals[i]
    vals, _, _ = _orthonormal(t, w / w.sum(), degree, 0.5 * (a + b), 0.5 * (b - a))
    return np.max(np.cumsum(vals * vals, axis=0) * factor, axis=1)


def bm_constant(tau, degree, field=None, weight_scale=0, refine=8):
    """Christoffel-kernel growth estimate for one base measure.

    ``beta`` is the sup over the interval of the degree-``degree`` kernel
    diagonal of the probability-normalized measure; ``root`` its
    (2 degree)-th root.  Roots tending to 1 certify subexponential sup
    growth; roots bounded away from 1 expose a support defect.
    """
    sups = _kernel_profile(tau, degree, field, weight_scale, refine)
    beta = float(sups[degree])
    root = float(beta ** (1.0 / (2 * degree))) if degree > 0 else 1.0
    return BMEstimate(degree=degree, beta=beta, root=root)


def growth_constant(base_measures, max_degree, epsilon, field=None, weight_scale=0):
    """L1 growth constant C: sup |p| <= C (1+eps)^deg int |p| d tau.

    Derived from the L2 kernel sups (beta of the normalized measure bounds
    sup|p| by beta * int |p| d tau-hat), maximized over intervals and
    degrees up to ``max_degree``.
    """
    c = 0.0
    for tau in base_measures:
        sups = _kernel_profile(tau, max_degree, field, weight_scale)
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
