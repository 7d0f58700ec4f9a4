"""Multiple orthogonal polynomials of type II for the base-measure vector.

The monic polynomial of degree n = sum(n_i) satisfying, for every interval j
and every k < n_j,

    int P(x) x^k w_j(x) dx = 0

is kept in orthonormal polynomials of the union of the refined base measures
and tested against each interval's own; no moment matrix is formed.
Heine's identity: the mean of prod_k (z - x_k) over the unweighted ensemble
equals P(z).  Its check takes the mean exactly over the refined grids P is
solved on, as a ratio of two Andreief determinants in Legendre bases (not the
basis that built P), at any n where the pairing matrix is well conditioned;
beyond that, by default, over Gibbs samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import MAX_COND_EPS, _projection_matrix, gibbs_sample
from .errors import IllConditionedSystem


@dataclass(frozen=True, eq=False)
class MonicPolynomial:
    """x^degree + sum_k coefficients[k] x^k, held as coordinates c_0..c_n in
    a basis of s = (x - center)/scale: p_0 = 1, s p_k = g[k] p_{k+1} + a[k] p_k
    + b[k] p_{k-1}, evaluated by Clenshaw's sum.  Built from coefficients, the
    basis is the monomials (a = b = 0, g = 1): the sum is Horner's rule and the
    comrade matrix the companion matrix."""

    degree: int
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.coefficients, dtype=float))
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)
        if c.size != self.degree:
            raise ValueError("need exactly `degree` lower coefficients")
        zero = np.zeros(self.degree)
        object.__setattr__(self, "_basis", (0.0, 1.0, zero, zero, zero + 1, np.append(c, 1)))

    def __call__(self, x):
        center, scale, a, b, g, c = self._basis
        s = (np.asarray(x, dtype=float) - center) / scale
        y, y1, beta = c[-1] + s * 0, s * 0, 0.0
        for k in range(self.degree - 1, -1, -1):
            y, y1, beta = c[k] + (s - a[k]) / g[k] * y + beta * y1, y, -b[k] / g[k]
        return y

    def real_roots(self, system):
        """Real zeros of P that lie in an interval (``system.locate``), in
        increasing order: eigenvalues of P's comrade matrix.

        LAPACK gives a real eigenvalue of a real matrix an imaginary part of
        exactly 0, so no tolerance decides which are real; a double zero that
        round-off splits into a complex pair is not listed.  Diagnostics only.
        """
        return np.sort([x.real for x in _comrade_zeros(*self._basis)
                        if x.imag == 0 and system.locate(x.real) >= 0])


def _comrade_zeros(center, scale, a, b, g, c):
    """The n zeros of sum_k c_k p_k in x: eigenvalues of the comrade matrix
    (Barnett, Linear Algebra Appl. 12, 1975), the basis's tridiagonal
    recurrence with P's coordinates folded into its last row."""
    mat = np.diag(a) + np.diag(b[1:], -1) + np.diag(g[:-1], 1)
    mat[-1:] -= g[-1:, None] * c[:-1] / c[-1]
    return center + scale * np.linalg.eigvals(mat)


def _monomial_coefficients(center, scale, a, b, g, c):
    """Coefficients in x, lowest degree first, of sum_k c_k p_k: Clenshaw's
    sum run on coefficient vectors, with s - a_k = (x - center - scale a_k) /
    scale applied in x at each step (x y is y shifted up one degree)."""
    y, y1, beta = np.zeros(c.size), np.zeros(c.size), 0.0
    y[0] = c[-1]
    for k in range(c.size - 2, -1, -1):
        z = (np.roll(y, 1) - (center + scale * a[k]) * y) / (scale * g[k]) + beta * y1
        z[0] += c[k]
        y, y1, beta = z, y, -b[k] / g[k]
    return y


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

    P is kept in the orthonormal basis of the union of the refined base
    measures (``_projection_matrix``) as c, c_n = 1 and M[:, :n] c = -M[:, n],
    scaled to be monic; IllConditionedSystem, carrying cond M[:, :n], when
    ``_projection_matrix`` refuses M (cond * eps at MAX_COND_EPS) or |M c|
    exceeds 1e-8 (M's entries are at most 1).  ``coefficients`` come from
    the same recurrence (``_monomial_coefficients``); P(x) and its zeros do
    not use them.
    """
    n = index.total
    mat, (a, b), _, center, scale, cond = _projection_matrix(spec, index)
    c = np.append(np.linalg.solve(mat[:, :n], -mat[:, n]), 1.0)
    worst = float(np.max(np.abs(mat @ c)))
    if not worst <= 1e-8:
        raise IllConditionedSystem(f"orthogonality residual {worst:.3e} too large",
                                   condition=cond)
    # p_n has x^n coefficient 1 / prod(scale g): these coordinates are monic.
    basis = (center, scale, a[:n], b[:n], b[1:], c * np.prod(scale * b[1:]))
    poly = MonicPolynomial(n, _monomial_coefficients(*basis)[:n])
    object.__setattr__(poly, "_basis", basis)
    return poly


def _heine_ratios(system, grids, counts, zs):
    """cond A, and det B(z) / det A for each z (None unless cond A * eps <
    MAX_COND_EPS), for the pairing matrices

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
    if not cond * np.finfo(float).eps < MAX_COND_EPS:
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
    IllConditionedSystem when cond(A) * eps reaches MAX_COND_EPS.  In Monte
    Carlo mode ("mc") it is a mean over Gibbs samples.  "auto" takes the
    determinant while it is well conditioned and Gibbs samples otherwise;
    any other mode, or sampling with fewer than 2 samples, raises
    ValueError.  The identity concerns the unweighted ensemble, so any
    external field on the spec is ignored.
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
    if samples < 2:
        raise ValueError(f"samples must be at least 2 for a standard error, got {samples}")
    batch = gibbs_sample(spec.unweighted(), d, samples, burn_in, thin, seed)
    stack = np.array([X.flatten() for X in batch])
    vals = [np.prod(z - stack, axis=1) for z in zs]
    return (zs, p_z, [float(v.mean()) for v in vals],
            [float(v.std(ddof=1) / np.sqrt(v.size)) for v in vals])
