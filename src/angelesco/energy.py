"""Discrete logarithmic energy: kernels, potentials, quadratic forms.

Every kernel entry, dense or structured, comes from ``_log_kernel``: the
one place that turns a distance between cell midpoints into an entry.  The
total energy of a vector measure is

    sum_i I(mu_i, mu_i) + sum_{i<j} I(mu_i, mu_j)   (+ 2 sum_i int Q_i dmu_i),

with I the mutual energy; the partial potential of component s is
(1/2) sum_j p_{mu_j} + (1/2) p_{mu_s}, so the gradient of the energy in the
component-s weights is exactly 2 (partial potential + field) at the nodes.

``kernel_matrix``, ``mutual_energy``, ``difference_energy`` and the potentials
are dense, on any grids: the oracle for what follows.  On the standard midpoint
grids of a system, ``system_kernel`` gives the same kernel as an operator,
which ``weighted_energy`` reads there.  Its self blocks are Toeplitz, applied
by FFT.  Its cross blocks, analytic in both variables as the intervals are
disjoint, are kept as low-rank factors: both hulls are cut geometrically
toward the gap and get Chebyshev points, the SVD of the small core of
entries at node pairs gives the column space of the N << M rows of the
block at x's points, that node block is formed once and checked against its
projection entry by entry (a block that fails is kept as the node block
itself, exact), and Lagrange interpolation carries the factor to the grid.
Each block has a bound on every entry, the sum of four terms
(interpolation, node-block error, round-off of basis and product), within
LOW_RANK_TOL * max(1, max|C|).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DEFAULT_CELLS, GridMeasure, VectorMeasure
from .errors import AngelescoError, CoincidentNodesAcrossIntervals

# (1/h^2) * int int over one cell squared of -log|x-y| minus the -log h part.
CELL_SELF_ENERGY = 1.5

# Low-rank cross blocks: the entry budget (relative to max(1, max|C|)), the
# shares of it left to the a priori interpolation bound and to the node
# block's entry check (the latter divided by the Lebesgue constant), and the
# singular-value cut-off of the Chebyshev core (relative to the largest).
LOW_RANK_TOL = 1e-13
INTERPOLATION_SHARE = 0.02
NODE_BLOCK_SHARE = 0.5
SINGULAR_CUTOFF = 1e-15


def interpolant(xs, ys):
    """x -> np.interp(x, xs, ys), with its kinks xs as ``knots``; ValueError
    unless xs increases strictly and xs, ys are finite, 1-d, of one length >= 2."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError("samples need matching 1-d x and y, at least 2 long")
    if not np.all(np.diff(xs) > 0):
        raise ValueError("sample x values must be strictly increasing")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("samples must be finite")

    def f(x):
        return np.interp(np.asarray(x, dtype=float), xs, ys)

    f.knots = xs
    return f


def _quadratic(center, scale):
    """x -> scale * (x - center)^2, marked ``convex`` when scale >= 0."""
    c, s = float(center), float(scale)

    def f(x):
        return s * (np.asarray(x, dtype=float) - c) ** 2

    f.convex = s >= 0
    return f


class ExternalField:
    """Per-interval external fields Q_i, evaluated vectorized.

    Built from callables or from sample arrays (linear interpolation).
    ``None`` entries and the ``zero`` constructor mean Q_i == 0, in which
    case field integrals are exactly 0.0.
    """

    def __init__(self, funcs):
        self._funcs = tuple(funcs)

    @classmethod
    def zero(cls, p):
        return cls((None,) * p)

    @classmethod
    def quadratic(cls, p, center=0.0, scale=1.0):
        """Q_i(x) = scale * (x - center)^2 on every interval."""
        return cls((_quadratic(center, scale),) * p)

    @classmethod
    def from_samples(cls, xs_list, ys_list):
        """Q_i = interpolant(xs_i, ys_i); an ``xs_i`` of None means Q_i == 0."""
        return cls(tuple(
            None if xs is None else interpolant(xs, ys)
            for xs, ys in zip(xs_list, ys_list)
        ))

    @property
    def p(self):
        return len(self._funcs)

    @property
    def is_zero(self):
        return all(f is None for f in self._funcs)

    def __call__(self, i, x):
        f = self._funcs[i]
        if f is None:
            return np.zeros_like(np.asarray(x, dtype=float))
        return np.asarray(f(x), dtype=float)


def as_field(field, p):
    if field is None:
        return ExternalField.zero(p)
    if field.p != p:
        raise ValueError(f"field has {field.p} components, system has {p}")
    return field


@dataclass(frozen=True)
class EnergyReport:
    """Energy split into self, cross (i<j lexicographic), and field terms."""

    total: float
    self_terms: tuple
    cross_terms: tuple
    field_terms: tuple

    def __post_init__(self):
        parts = (
            sum(self.self_terms) + sum(self.cross_terms) + sum(self.field_terms)
        )
        if abs(parts - self.total) > 1e-10 * max(1.0, abs(self.total)):
            raise ValueError("energy report terms do not sum to the total")

    @classmethod
    def build(cls, self_terms, cross_terms, field_terms):
        self_terms = tuple(float(x) for x in self_terms)
        cross_terms = tuple(float(x) for x in cross_terms)
        field_terms = tuple(float(x) for x in field_terms)
        total = sum(self_terms) + sum(cross_terms) + sum(field_terms)
        return cls(total, self_terms, cross_terms, field_terms)


def _same_grid(g1, g2):
    return (
        g1.interval_index == g2.interval_index
        and g1.cells == g2.cells
        and np.array_equal(g1.nodes, g2.nodes)
    )


def _log_kernel(d, h=None, zero=None):
    """Kernel entries at distances d between cell midpoints, in place on d.

    -log d, except at the index ``zero``, where a node of an h-wide grid
    meets itself (d == 0) and the entry is the exact cell average
    (1/h^2) int int_{cell^2} -log|x - y| dx dy = CELL_SELF_ENERGY - log h,
    which keeps self-energies finite and the form conditionally positive.
    """
    if zero is not None:
        d[zero] = 1.0
    np.negative(np.log(d, out=d), out=d)
    if zero is not None:
        d[zero] = CELL_SELF_ENERGY - np.log(h)
    return d


def kernel_matrix(g1, g2):
    """The kernel (``_log_kernel``) between two grids.

    Distinct grids with coinciding nodes raise CoincidentNodesAcrossIntervals:
    disjoint intervals cannot produce them, so the input is corrupt.
    """
    if g1.system != g2.system:
        raise ValueError("grids belong to different interval systems")
    # One len(g1) x len(g2) array, transformed in place: no second one.
    k = g1.nodes[:, None] - g2.nodes[None, :]
    np.abs(k, out=k)
    if _same_grid(g1, g2):
        return _log_kernel(k, g1.cell_width, np.diag_indices_from(k))
    if k.min() == 0.0:
        raise CoincidentNodesAcrossIntervals(
            f"grids on intervals {g1.interval_index} and {g2.interval_index} "
            "share a node"
        )
    return _log_kernel(k)


def mutual_energy(alpha, beta):
    """I(alpha, beta) = - int int log|x - y| d alpha d beta on the grids."""
    return float(alpha.weights @ kernel_matrix(alpha, beta) @ beta.weights)


def potential(alpha, y):
    """p_alpha(y) = - int log|x - y| d alpha(x); scalar or vectorized in y.

    A y that collides with a grid node uses the cell-averaged kernel value
    there, matching the diagonal convention.
    """
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    d = np.abs(y_arr[:, None] - alpha.nodes[None, :])
    h = alpha.cell_width
    out = _log_kernel(d, h, d < 1e-9 * h) @ alpha.weights
    return float(out[0]) if np.isscalar(y) or np.asarray(y).ndim == 0 else out


def partial_potentials(mu, s, y):
    """(1/2) sum_j p_{mu_j}(y) + (1/2) p_{mu_s}(y)."""
    acc = 0.5 * potential(mu[s], y)
    for g in mu:
        acc = acc + 0.5 * potential(g, y)
    return acc


def _field_integrals(mu, field):
    return tuple(
        2.0 * float(g.weights @ field(i, g.nodes)) for i, g in enumerate(mu)
    )


def total_energy(mu):
    """Unweighted energy report of a vector measure."""
    return weighted_energy(mu, None)


def _standard_cells(mu):
    """The cells count if every grid of ``mu`` is standard (nodes and cell
    width), else None."""
    n, s = mu[0].cells, mu.system
    grids = [(s.cell_width(i, n), s.grid_nodes(i, n)) for i in range(s.p)]
    return n if all(g.cell_width == h and np.array_equal(g.nodes, x)
                    for g, (h, x) in zip(mu, grids)) else None


def weighted_energy(mu, field=None):
    """Energy report including 2 sum_i int Q_i dmu_i.  The kernel terms come
    from ``system_kernel`` on standard grids (``_standard_cells``), else from
    dense ``mutual_energy`` sums."""
    field, p, cells = as_field(field, mu.system.p), mu.system.p, _standard_cells(mu)
    if cells is None:
        selfs = [mutual_energy(g, g) for g in mu]
        crosses = [mutual_energy(mu[i], mu[j]) for i in range(p) for j in range(i + 1, p)]
    else:
        w = np.concatenate([g.weights for g in mu])
        selfs, crosses = system_kernel(mu.system, cells).energy_terms(w)
    return EnergyReport.build(selfs, crosses, _field_integrals(mu, field))


def difference_energy(nu, mu):
    """E(nu - mu): the energy quadratic form on the signed difference.

    Conditionally positive: nonnegative whenever the component masses match,
    zero only for equal measures.  Grids must coincide.
    """
    p = nu.system.p
    if mu.system != nu.system:
        raise ValueError("measures live on different systems")
    diffs = []
    for gn, gm in zip(nu, mu):
        if gn.cells != gm.cells or not np.array_equal(gn.nodes, gm.nodes):
            raise ValueError("difference energy needs identical grids")
        diffs.append(gn.weights - gm.weights)
    total = 0.0
    for i in range(p):
        k = kernel_matrix(nu[i], nu[i])
        total += diffs[i] @ k @ diffs[i]
        for j in range(i + 1, p):
            k = kernel_matrix(nu[i], nu[j])
            total += diffs[i] @ k @ diffs[j]
    return float(total)


def _pieces(a, b, y0):
    """Cut points of [a, b] toward y0 > b: each piece is as long as its
    distance to y0, so the lengths double away from the gap."""
    cuts = [b]
    while cuts[-1] > a:
        cuts.append(max(a, 2.0 * cuts[-1] - y0))
    return np.array(cuts[::-1])


def _degree(a, b, y0, y1, tol):
    """(n, bound) for each piece [a_p, b_p] (arrays): the smallest degree n
    whose a priori bound 4 B rho^-n / (rho - 1) on the Chebyshev interpolant
    over the piece of x -> -log(y - x), for every y in [y0, y1] with y0 > b_p,
    is at most tol (Trefethen, Approximation Theory and Approximation
    Practice, Thm 8.2), and that bound.  rho runs over Bernstein ellipses of
    the piece short of y0; on each, B is the larger |log| of the extreme
    distances to y0 and y1, plus pi/2 for the argument.
    """
    c, r = 0.5 * (a + b)[:, None], 0.5 * (b - a)[:, None]
    axis = 1.0 + ((y0 - c) / r - 1.0) * np.linspace(0.05, 0.95, 19)
    rho = axis + np.sqrt(axis * axis - 1.0)
    big = 0.5 * np.pi + np.maximum(
        np.abs(np.log(y0 - c - r * axis)), np.abs(np.log(y1 - c + r * axis))
    )
    n = np.maximum(np.ceil(np.log(4.0 * big / ((rho - 1.0) * tol)) / np.log(rho)), 1.0)
    bound = 4.0 * big * rho**-n / (rho - 1.0)
    best = np.arange(len(n)), np.argmin(n + 0.5 * bound / tol, axis=1)
    return n[best].astype(int), bound[best]


def _lagrange(t, nodes):
    """The Lagrange basis of ``nodes`` at the points t, in modified Lagrange
    form ell(t) w_k / (t - nodes_k) (Higham, IMA J. Numer. Anal. 24, 2004),
    with exact identity rows where t is a node.  ell(t) takes 2n + 1
    roundings, w_k 2n, and the quotient 3 more.  Differences are scaled by a
    power of two, which is exact and keeps the products in range.
    """
    s = 2.0 ** -np.round(np.log2(nodes[-1] - nodes[0]))
    d = (t[:, None] - nodes) * s
    g = (nodes[:, None] - nodes) * s
    np.fill_diagonal(g, 1.0)
    hit = d == 0.0
    d[hit] = 1.0
    basis = d.prod(axis=1)[:, None] * (1.0 / g.prod(axis=1)) / d
    rows = hit.any(axis=1)
    basis[rows] = hit[rows]
    return basis


def _chebyshev_pieces(t, t0, t1, tol):
    """The pieces of the hull of the grid t cut toward t0 > t[-1]
    (``_pieces``), as (a, b, nodes, bound): t[a:b] are the grid points in the
    piece, and nodes are the Chebyshev points of the degree n that
    ``_degree`` gives at tol for every point of [t0, t1], with its bound, or
    t[a:b] itself with bound 0 if that is no more than n + 1 points.  A grid
    of one point is one piece of its own.
    """
    if t.size == 1:
        return [(0, 1, t, 0.0)]
    cuts = _pieces(t[0], t[-1], t0)
    ends = np.searchsorted(t, cuts, side="right")
    ends[0] = 0
    degrees = _degree(cuts[:-1], cuts[1:], t0, t1, tol)
    pieces = []
    for lo, hi, a, b, n, bound in zip(cuts, cuts[1:], ends, ends[1:], *degrees):
        if b - a <= n + 1:
            pieces.append((a, b, t[a:b], 0.0))
            continue
        nodes = 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(np.pi * np.arange(n + 1) / n)
        nodes[[0, -1]] = lo, hi
        pieces.append((a, b, nodes, bound))
    return pieces


def _cross_factors(x, y):
    """Factors U, V of the cross block C between the grid x and the
    disjoint grid y to its right (entries ``_log_kernel(y - x)``), and a
    bound on every entry of U V' - C within the budget
    LOW_RANK_TOL * max(1, max|C|).

    The kernel is analytic in both variables, so both hulls are cut toward
    the gap (``_chebyshev_pieces`` at INTERPOLATION_SHARE of the budget, y's
    mirrored by t -> -t): N points of x and N' of y.  The left singular
    vectors W of the N x N' core of kernel entries at node pairs, those above
    SINGULAR_CUTOFF times the largest singular value, stand for the column
    space of the N x M node block C_N of the x points against the grid y:
    the node factor is W and V = C_N' W, so W V' = W W' C_N and y needs no
    basis.  W V' is checked against C_N entry by entry to NODE_BLOCK_SHARE
    of the budget over Lambda, the largest Lebesgue constant of the x pieces
    measured on the grid; a block that fails is kept as C_N itself (W = I,
    exact).  U is the Lagrange interpolant (``_lagrange``) of W, built piece
    by piece.  The bound is the sum of four terms, each the largest over the
    pieces, with u the unit round-off:

    - interpolation: (1 + Lambda) / 2 times the bound of ``_degree``
      (Lebesgue's inequality against the Chebyshev truncation, whose bound is
      half of it, so it holds for the rounded nodes);
    - node block: Lambda times the checked entry error of W V';
    - basis round-off: ((2n + 3) + (2n + 5) Lambda) u max(1, max|C|): the
      2n + 1 roundings of ell(t) scale a whole row, so they cost once, not
      Lambda times; the 2n + 3 of each weight and quotient, and 2u in each
      kernel entry, cost Lambda times;
    - product round-off: (n + 1) u max (|L| |A|) |V|' for U = L A, with L
      the piece's basis and A its rows of W.

    Returns U, V, the four terms and the core's shape (N, N'); raises
    AngelescoError if the terms sum above the budget.
    """
    # y - x is monotone in each node, so the extremes of |C| sit at corner
    # pairs.
    scale = max(1.0, float(np.abs(_log_kernel(y[[0, -1]] - x[[0, -1], None])).max()))
    budget, unit = LOW_RANK_TOL * scale, 0.5 * np.finfo(float).eps
    tol = INTERPOLATION_SHARE * budget
    ynodes = -np.concatenate([p[2] for p in _chebyshev_pieces(-y[::-1], -x[-1], -x[0], tol)])
    pieces, interp, basis, lam = [], 0.0, 0.0, 1.0
    for a, b, piece, bound in _chebyshev_pieces(x, y[0], y[-1], tol):
        if bound == 0.0:  # the piece's own grid points: exact rows
            pieces.append((a, b, piece, None))
            continue
        lag = _lagrange(x[a:b], piece)
        lam_p = float(np.abs(lag).sum(axis=1).max())
        pieces.append((a, b, piece, lag))
        interp = max(interp, 0.5 * (1.0 + lam_p) * bound)
        basis = max(basis, (2 * piece.size + 1) + (2 * piece.size + 3) * lam_p)
        lam = max(lam, lam_p)
    nodes = np.concatenate([piece[2] for piece in pieces])
    c = _log_kernel(y - nodes[:, None])
    w, s, _ = np.linalg.svd(_log_kernel(ynodes - nodes[:, None]), full_matrices=False)
    w = w[:, : np.count_nonzero(s > SINGULAR_CUTOFF * s[0])]
    v = (w.T @ c).T
    diff = w @ v.T
    diff -= c
    err = max(float(diff.max()), -float(diff.min()))
    if err > NODE_BLOCK_SHARE * budget / lam:
        w, v, err = np.eye(nodes.size), c.T, 0.0
    vmax = np.abs(v).max(axis=0)
    u = np.empty((x.size, v.shape[1]))
    product, k = 0.0, 0
    for a, b, piece, lag in pieces:
        rows, k = w[k : k + piece.size], k + piece.size
        if lag is None:
            u[a:b] = rows
            continue
        np.matmul(lag, rows, out=u[a:b])
        reach = float((np.abs(lag) @ np.abs(rows) @ vmax).max())
        product = max(product, piece.size * unit * reach)
    terms = (interp, lam * err, basis * unit * scale, product)
    if sum(terms) > budget:
        raise AngelescoError(
            f"cross block not certified: bound {sum(terms):.3e} above {budget:.3e}"
        )
    return u, v, terms, (nodes.size, ynodes.size)


class KernelOperator:
    """The kernel of the standard grids of one system, applied without the
    dense (p*cells)^2 matrix.  Read-only.

    Entries come from ``_log_kernel``.  Self block i is the symmetric
    Toeplitz matrix with first column the entries at distances 0, h_i,
    2 h_i, ...; it is applied through the FFT of its 2M circulant embedding.
    Cross block i<j, between two disjoint intervals, is analytic in both
    variables and kept as low-rank factors U V': the SVD of its N x N' core
    at Chebyshev points of both intervals gives the node factor W, its N x M
    rows at the points of interval i are formed once and checked against
    their projection W W' entry by entry (a node block that fails is kept as
    itself), and U is the Lagrange interpolant of W (``_cross_factors``).
    No M x M array is formed and no M x M entry is computed.

    ``apply(w)`` gives the partial potentials at all nodes,
    u_i = T_i w_i + (1/2) sum_{j != i} C_ij w_j, for weights stacked by
    interval; ``energy_terms(w)`` gives w_i' T_i w_i and w_i' C_ij w_j.
    ``certificates`` maps (i, j) to (rank, bound, N, N'), the bound being the
    four-term bound on every entry of U V' - C_ij and N x N' the core's
    shape: rank < N says the core compressed the block, rank == N that it
    is kept at the size of its node block; ``columns[i]`` is the first
    column of self block i.
    """

    def __init__(self, system, cells):
        self.p = system.p
        self.cells = cells
        cols = np.empty((self.p, 2 * cells))
        for i in range(self.p):
            h = system.cell_width(i, cells)
            cols[i, :cells] = _log_kernel(h * np.arange(cells), h, 0)
            cols[i, cells] = 0.0
            cols[i, cells + 1 :] = cols[i, cells - 1 : 0 : -1]
        self._symbols = np.fft.rfft(cols)
        self._symbols.setflags(write=False)
        self.columns = cols[:, :cells]
        self.columns.setflags(write=False)
        uniform = VectorMeasure.uniform(system, cells)
        self._factors = {}
        self.certificates = {}
        for i in range(self.p):
            for j in range(i + 1, self.p):
                u, v, terms, core = _cross_factors(uniform[i].nodes, uniform[j].nodes)
                u.setflags(write=False)
                v.setflags(write=False)
                self._factors[i, j] = (u, v)
                self.certificates[i, j] = (u.shape[1], sum(terms), *core)

    def _toeplitz(self, wb):
        m = self.cells
        return np.fft.irfft(self._symbols * np.fft.rfft(wb, 2 * m), 2 * m)[:, :m]

    def apply(self, w):
        wb = w.reshape(self.p, self.cells)
        ub = self._toeplitz(wb)
        for (i, j), (u, v) in self._factors.items():
            ub[i] += 0.5 * (u @ (v.T @ wb[j]))
            ub[j] += 0.5 * (v @ (u.T @ wb[i]))
        return ub.ravel()

    def energy_terms(self, w):
        """(self terms, cross terms in i<j lexicographic order)."""
        wb = w.reshape(self.p, self.cells)
        selfs = [float(wi @ ti) for wi, ti in zip(wb, self._toeplitz(wb))]
        crosses = [
            float((wb[i] @ u) @ (v.T @ wb[j]))
            for (i, j), (u, v) in self._factors.items()
        ]
        return selfs, crosses


@lru_cache(maxsize=16)
def system_kernel(system, cells=DEFAULT_CELLS):
    """The kernel of the standard grids as a ``KernelOperator``, cached per
    (system, cells).
    """
    return KernelOperator(system, cells)
