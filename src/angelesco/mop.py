"""Multiple orthogonal polynomials of type II for the base-measure vector.

The monic polynomial of degree n = sum(n_i) satisfying, for every interval j
and every k < n_j,

    int P(x) x^k w_j(x) dx = 0

is expanded in orthonormal polynomials of the union of the refined base
measures and tested against each interval's own; no moment matrix is formed.
Heine's identity: the mean of prod_k (z - x_k) over the unweighted ensemble
equals P(z).  Its check takes the mean exactly over the refined grids P is
solved on, as a ratio of two Andreief determinants in Legendre bases (not the
basis that built P), at any n where the pairing matrix is well conditioned;
beyond that, by default, over Gibbs samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .ensemble import _projection_matrix, gibbs_sample
from .errors import IllConditionedSystem


@dataclass(frozen=True, eq=False)
class MonicPolynomial:
    """x^degree + sum_k coefficients[k] x^k."""

    degree: int
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.coefficients, dtype=float))
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)
        if c.size != self.degree:
            raise ValueError("need exactly `degree` lower coefficients")

    def __call__(self, x):
        full = np.concatenate((self.coefficients, [1.0]))
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), full)

    def real_roots(self, system):
        """Sign-change bisection on a 4,000-node scan per interval; diagnostics only."""
        roots = []
        for i in range(system.p):
            xs = np.linspace(*system.intervals[i], 4000)
            vals = self(xs)
            sign = np.sign(vals)
            for k in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
                lo, hi = xs[k], xs[k + 1]
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if self(lo) * self(mid) <= 0:
                        hi = mid
                    else:
                        lo = mid
                roots.append(0.5 * (lo + hi))
        return np.array(roots)


def moments(tau, k_max, center=0.0, scale=1.0):
    """Moments int ((x - center)/scale)^k w(x) dx, k = 0..k_max, refined grid."""
    t, h, w = tau.refined()
    s = (t - center) / scale
    out = np.empty(k_max + 1)
    powers = np.ones_like(s)
    for k in range(k_max + 1):
        out[k] = np.sum(powers * w) * h
        powers = powers * s
    return out


def solve_mop(spec, index):
    """Solve the type II orthogonality system for the monic polynomial.

    P = sum_l c_l p_l with c_n = 1 / lead(p_n) and M[:, :n] c = -c_n M[:, n]
    (``_projection_matrix``).  Raises IllConditionedSystem, carrying cond M,
    when a residual exceeds 1e-8 relative to the largest moment magnitude.
    """
    n = index.total
    mat, p_coef, _, center, scale = _projection_matrix(spec, index)
    c_n = 1.0 / p_coef[n, n]
    c = np.linalg.solve(mat[:, :n], -c_n * mat[:, n])
    b = np.concatenate((c, [c_n])) @ p_coef

    # Map t^n + sum b_l t^l back through t = (x - center)/scale, monic in x.
    tpoly = np.polynomial.Polynomial(np.concatenate((b[:n], [1.0])))
    xpoly = tpoly(np.polynomial.Polynomial([-center / scale, 1.0 / scale]))
    coef = xpoly.coef * scale ** n
    coef = coef / coef[-1]
    poly = MonicPolynomial(n, coef[:-1])

    worst = 0.0
    scale_ref = 1.0
    for j, n_j in enumerate(index.counts):
        t, h, w = spec.base[j].refined()
        pv = poly(t)
        scale_ref = max(scale_ref, float(np.max(np.abs(moments(spec.base[j], 2 * n)))))
        for k in range(n_j):
            res = abs(float(np.sum(pv * t ** k * w) * h))
            worst = max(worst, res)
    if worst > 1e-8 * scale_ref:
        raise IllConditionedSystem(
            f"orthogonality residual {worst:.3e} too large",
            condition=float(np.linalg.cond(mat[:, :n])),
        )
    return poly


def _pairing_slogdet(system, axes, z=None):
    """Sign, log |det| and condition number of the pairing matrix

        A[(j, k), l] = sum over axis j of R_k(t) L_l(t) w_j ff_j (z - t).

    Row k < n_j of block j is Legendre in interval j's own affine variable,
    column l < n is Legendre in that of the whole system; without z the
    factor (z - t) is left out.  By Andreief's identity det A is, up to a
    constant of the two bases, the sum over the product of ``axes`` (laid out
    as by _tensor_axes) of the joint density, times prod_k (z - x_k) with z.
    Any row basis of degree < n_j per block changes det A by one block
    triangular factor that cancels in det B(z) / det A; interval j's own
    Legendre keeps A well conditioned where the system's would not.
    """
    (lo, _), (_, hi) = system.intervals[0], system.intervals[-1]
    center, scale = 0.5 * (lo + hi), 0.5 * (hi - lo)
    n = len(axes)
    rows = []
    for j, block in groupby(axes, key=lambda a: a[0]):
        block = list(block)
        _, t, w, ff = block[0]
        n_j = len(block)
        a, b = system.intervals[j]
        own = np.polynomial.legendre.legvander((2.0 * t - a - b) / (b - a), n_j - 1)
        hull = np.polynomial.legendre.legvander((t - center) / scale, n - 1)
        wt = w * ff if z is None else w * ff * (z - t)
        rows.append((own * wt[:, None]).T @ hull)
    mat = np.vstack(rows)
    sign, log_det = np.linalg.slogdet(mat)
    return sign, log_det, float(np.linalg.cond(mat))


def expectation_identity_check(
    spec, d, z_points, mode="auto", samples=400, burn_in=50, thin=5, seed=0,
):
    """Compare E prod_k (z - x_k) under the unweighted ensemble against P(z).

    Returns rows (z, P(z), estimate, stderr).  In quadrature mode the mean
    is taken exactly over the refined grids that P is solved on, as
    det B(z) / det A (``_pairing_slogdet``), and stderr is 0; it raises
    IllConditionedSystem when cond(A) * eps reaches 1e-6.  In Monte Carlo
    mode ("mc") it is a mean over Gibbs samples.  "auto" takes the
    determinant while it is well conditioned and Gibbs samples otherwise;
    any other mode raises ValueError.  The identity concerns the unweighted
    ensemble, so any external field on the spec is ignored.
    """
    return _identity_rows(
        spec, d, solve_mop(spec, spec.index(d)), z_points, mode,
        samples, burn_in, thin, seed,
    )


def _identity_rows(spec, d, poly, z_points, mode="auto", samples=400,
                   burn_in=50, thin=5, seed=0):
    """``expectation_identity_check`` for an already solved P (``solve_mop``
    ignores the field, so P of the spec is P of the unweighted ensemble)."""
    if mode not in ("auto", "quadrature", "mc"):
        raise ValueError(f"mop mode must be auto, quadrature or mc, got {mode!r}")
    zs = tuple(float(z) for z in z_points)
    rows = []
    if mode != "mc":
        # _tensor_axes's layout on P's own grids; the field factor is 1.
        axes = []
        for i, n_i in enumerate(spec.index(d).counts):
            t, h, w = spec.base[i].refined()
            axes += [(i, t, w * h, 1.0)] * n_i
        sign, log_a, cond = _pairing_slogdet(spec.system, axes)
        if cond * np.finfo(float).eps < 1e-6:
            for z in zs:
                sign_z, log_b, _ = _pairing_slogdet(spec.system, axes, z)
                ratio = sign * sign_z * np.exp(log_b - log_a)
                rows.append((z, float(poly(z)), float(ratio), 0.0))
            return rows
        if mode == "quadrature":
            raise IllConditionedSystem(
                f"Heine pairing matrix: condition {cond:.3e}", condition=cond
            )
    batch = gibbs_sample(spec.unweighted(), d, samples, burn_in, thin, seed)
    for z in zs:
        vals = np.array(
            [float(np.prod(z - X.flatten())) for X in batch]
        )
        stderr = float(vals.std(ddof=1) / np.sqrt(vals.size))
        rows.append((z, float(poly(z)), float(vals.mean()), stderr))
    return rows
