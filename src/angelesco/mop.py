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
        """Real zeros of P that lie in an interval (``system.locate``), in
        increasing order: eigenvalues of P's companion matrix.

        LAPACK gives a real eigenvalue of a real matrix an imaginary part of
        exactly 0, so no tolerance decides which are real; a double zero that
        round-off splits into a complex pair is not listed.  Diagnostics only.
        """
        zeros = np.polynomial.polynomial.polyroots(np.append(self.coefficients, 1.0))
        return np.sort([x.real for x in zeros
                        if x.imag == 0 and system.locate(x.real) >= 0])


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


def _heine_ratios(system, grids, counts, zs):
    """cond A, and det B(z) / det A for each z (None unless cond A * eps <
    1e-6), for the pairing matrices

        A[(j, k), l] = sum over (t, w) in grids[j] of R_k(t) L_l(t) w

    and B(z), the same with w (z - t).  Row k < counts[j] of block j is
    Legendre in interval j's own affine variable, column l < n in that of the
    whole system.  By Andreief's identity det A is, up to a constant of the
    two bases, the sum of the joint density over the product of counts[j]
    copies of each grid j, and det B(z) that sum weighted by prod_k (z - x_k).
    Any row basis of degree < n_j per block scales det A and det B(z) alike;
    interval j's own Legendre keeps A well conditioned where the system's
    would not.
    """
    vander = np.polynomial.legendre.legvander
    (lo, _), (_, hi) = system.intervals[0], system.intervals[-1]
    center, scale = 0.5 * (lo + hi), 0.5 * (hi - lo)
    n = sum(counts)
    bases = [(t, w, vander((2.0 * t - a - b) / (b - a), n_j - 1),
              vander((t - center) / scale, n - 1))
             for (a, b), (t, w), n_j in zip(system.intervals, grids, counts)]

    def pairing(z=None):
        return np.vstack([(own * (w if z is None else w * (z - t))[:, None]).T @ hull
                          for t, w, own, hull in bases])

    mat = pairing()
    cond = float(np.linalg.cond(mat))
    if not cond * np.finfo(float).eps < 1e-6:
        return cond, None
    sign, log_a = np.linalg.slogdet(mat)
    return cond, [float(sign * sign_z * np.exp(log_b - log_a))
                  for sign_z, log_b in (np.linalg.slogdet(pairing(z)) for z in zs)]


def expectation_identity_check(
    spec, d, z_points, mode="auto", samples=400, burn_in=50, thin=5, seed=0,
):
    """Compare E prod_k (z - x_k) under the unweighted ensemble against P(z).

    Returns rows (z, P(z), estimate, stderr).  In quadrature mode the mean
    is taken exactly over the refined grids that P is solved on, as
    det B(z) / det A (``_heine_ratios``), and stderr is 0; it raises
    IllConditionedSystem when cond(A) * eps reaches 1e-6.  In Monte Carlo
    mode ("mc") it is a mean over Gibbs samples.  "auto" takes the
    determinant while it is well conditioned and Gibbs samples otherwise;
    any other mode raises ValueError.  The identity concerns the unweighted
    ensemble, so any external field on the spec is ignored.
    """
    return list(zip(*_identity_rows(
        spec, d, solve_mop(spec, spec.index(d)), z_points, mode,
        samples, burn_in, thin, seed,
    )))


def _identity_rows(spec, d, poly, z_points, mode="auto", samples=400,
                   burn_in=50, thin=5, seed=0):
    """``expectation_identity_check`` for an already solved P (``solve_mop``
    ignores the field, so P of the spec is P of the unweighted ensemble), as
    its four columns."""
    if mode not in ("auto", "quadrature", "mc"):
        raise ValueError(f"mop mode must be auto, quadrature or mc, got {mode!r}")
    zs = [float(z) for z in z_points]
    p_z = poly(zs).tolist()
    if mode != "mc":
        grids = [(t, w * h) for t, h, w in (tau.refined() for tau in spec.base)]
        cond, ratios = _heine_ratios(spec.system, grids, spec.index(d).counts, zs)
        if ratios is not None:
            return zs, p_z, ratios, [0.0] * len(zs)
        if mode == "quadrature":
            raise IllConditionedSystem(
                f"Heine pairing matrix: condition {cond:.3e}", condition=cond
            )
    batch = gibbs_sample(spec.unweighted(), d, samples, burn_in, thin, seed)
    stack = np.array([X.flatten() for X in batch])
    vals = [np.prod(z - stack, axis=1) for z in zs]
    return (zs, p_z, [float(v.mean()) for v in vals],
            [float(v.std(ddof=1) / np.sqrt(v.size)) for v in vals])
