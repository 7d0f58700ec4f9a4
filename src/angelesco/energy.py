"""Discrete logarithmic energy: kernels, potentials, quadratic forms.

Every kernel entry, dense or structured, comes from ``_log_kernel``: the
one place that turns a distance between cell midpoints into an entry.  The
total energy of a vector measure is

    sum_i I(mu_i, mu_i) + sum_{i<j} I(mu_i, mu_j)   (+ 2 sum_i int Q_i dmu_i),

with I the mutual energy; the partial potential of component s is
(1/2) sum_j p_{mu_j} + (1/2) p_{mu_s}, so the gradient of the energy in the
component-s weights is exactly 2 (partial potential + field) at the nodes.

The functions on general grids (``kernel_matrix``, ``weighted_energy``,
``difference_energy``) assemble dense blocks.  On the standard midpoint
grids of a system, ``system_kernel`` gives the same kernel as a structured
operator: each self block is Toeplitz and is applied by FFT, and each cross
block, analytic because the intervals are disjoint, is stored as low-rank
factors built by adaptive cross approximation from a few of its rows and
columns.  Every entry of the factors is certified against the exact block,
which is recomputed in row chunks and never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DEFAULT_CELLS, GridMeasure, VectorMeasure
from .errors import AngelescoError, CoincidentNodesAcrossIntervals

# (1/h^2) * int int over one cell squared of -log|x-y| minus the -log h part.
CELL_SELF_ENERGY = 1.5

# Low-rank cross blocks: the entry certificate (relative to max(1, max|C|)),
# the singular-value cut-off (relative to the largest), the ACA stop (|u| |v|
# relative to the running Frobenius estimate), and the rows of C that the
# certificate recomputes at a time (two buffers of that many rows, so the
# block is never held).
LOW_RANK_TOL = 1e-13
SINGULAR_CUTOFF = 1e-15
ACA_STOP = 1e-15
CERTIFY_ROWS = 64


def interpolant(xs, ys):
    """x -> np.interp(x, xs, ys); ValueError unless xs increases strictly
    and xs, ys are finite, 1-d, of one length, at least 2 long."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError("samples need matching 1-d x and y, at least 2 long")
    if not np.all(np.diff(xs) > 0):
        raise ValueError("sample x values must be strictly increasing")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("samples must be finite")
    return lambda x: np.interp(np.asarray(x, dtype=float), xs, ys)


def _quadratic(center, scale):
    """x -> scale * (x - center)^2."""
    c, s = float(center), float(scale)
    return lambda x: s * (np.asarray(x, dtype=float) - c) ** 2


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


def weighted_energy(mu, field=None):
    """Energy report including 2 sum_i int Q_i dmu_i."""
    field = as_field(field, mu.system.p)
    p = mu.system.p
    selfs = [mutual_energy(mu[i], mu[i]) for i in range(p)]
    crosses = [
        mutual_energy(mu[i], mu[j]) for i in range(p) for j in range(i + 1, p)
    ]
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


def _entry_error(x, y, u, v):
    """max |U V' - C| over the cross block C between grid x and grid y to
    its right.  C is recomputed CERTIFY_ROWS rows at a time into one buffer
    (y - x, then ``_log_kernel``), U V' of those rows goes into a second,
    and their difference is taken there; C itself is never stored.
    """
    chunk = min(x.size, CERTIFY_ROWS)
    block, diff = np.empty((chunk, y.size)), np.empty((chunk, y.size))
    err = 0.0
    for a in range(0, x.size, chunk):
        b = min(a + chunk, x.size)
        c = _log_kernel(np.subtract(y, x[a:b, None], out=block[: b - a]))
        df = np.matmul(u[a:b], v.T, out=diff[: b - a])
        df -= c
        err = max(err, float(df.max()), -float(df.min()))
    return err


def _cross_factors(x, y):
    """Certified factors U, V of the cross block C between the grid x and
    the disjoint grid y to its right (entries ``_log_kernel(y - x)``): every
    entry of U V' lies within LOW_RANK_TOL * max(1, max|C|) of C.

    Partially pivoted adaptive cross approximation (Bebendorf, Numer. Math.
    86, 2000): each step evaluates one row and one column of C minus the
    steps so far, so only O((M_i + M_j) k) entries are formed.  Steps stop
    once |u| |v| <= ACA_STOP times the running Frobenius estimate; they are
    then recompressed (QR of both thin factors, SVD of the k x k core) to the
    singular values above SINGULAR_CUTOFF times the largest, and every entry
    is certified (``_entry_error``).  If the certificate fails, ACA steps on
    until the step count doubles; at min(M_i, M_j) steps every row or column
    is interpolated.  Returns U, V, the largest entry error and the steps.
    """
    m, n = x.size, y.size
    last = min(m, n)
    # y - x is monotone in each node, so the extremes of |C| sit at corner
    # pairs.
    corners = _log_kernel(y[[0, -1]] - x[[0, -1], None])
    bound = LOW_RANK_TOL * max(1.0, float(np.abs(corners).max()))
    ut, vt = np.empty((min(16, last), m)), np.empty((min(16, last), n))
    free = np.ones(m, dtype=bool)
    i = steps = target = 0
    frob2 = 0.0
    while True:
        while steps < last and free.any():
            free[i] = False
            row = _log_kernel(y - x[i]) - ut[:steps, i] @ vt[:steps]
            j = int(np.argmax(np.abs(row)))
            if row[j] == 0.0:  # row i is already exact
                i = int(np.argmax(free))
                continue
            v = row / row[j]
            u = _log_kernel(y[j] - x) - vt[:steps, j] @ ut[:steps]
            uu, vv = float(u @ u), float(v @ v)
            frob2 += 2.0 * float((ut[:steps] @ u) @ (vt[:steps] @ v)) + uu * vv
            if steps == len(ut):
                grow = min(steps, last - steps)
                ut = np.concatenate((ut, np.empty((grow, m))))
                vt = np.concatenate((vt, np.empty((grow, n))))
            ut[steps], vt[steps] = u, v
            steps += 1
            i = int(np.argmax(np.where(free, np.abs(u), -1.0)))
            if steps >= target and uu * vv <= ACA_STOP**2 * frob2:
                break
        qu, ru = np.linalg.qr(ut[:steps].T)
        qv, rv = np.linalg.qr(vt[:steps].T)
        w, s, zt = np.linalg.svd(ru @ rv.T)
        r = int(np.count_nonzero(s > SINGULAR_CUTOFF * s[0]))
        u = qu @ (w[:, :r] * s[:r])
        v = qv @ zt[:r].T
        err = _entry_error(x, y, u, v)
        if err <= bound:
            return u, v, err, steps
        if steps == last or not free.any():
            raise AngelescoError(
                f"cross block not certified after {steps} ACA steps: error "
                f"{err:.3e} above {bound:.3e}"
            )
        target = min(2 * steps, last)


class KernelOperator:
    """The kernel of the standard grids of one system, applied without the
    dense (p*cells)^2 matrix.  Read-only.

    Entries come from ``_log_kernel``.  Self block i is the symmetric
    Toeplitz matrix with first column the entries at distances 0, h_i,
    2 h_i, ...; it is applied through the FFT of its 2M circulant embedding.
    Cross block i<j, between two disjoint intervals, is analytic and kept as
    low-rank factors U V' built by adaptive cross approximation from
    O(M k) of its entries; every entry of U V' is certified against the
    block, recomputed in row chunks and never stored (``_cross_factors``).
    No M x M array is formed.

    ``apply(w)`` gives the partial potentials at all nodes,
    u_i = T_i w_i + (1/2) sum_{j != i} C_ij w_j, for weights stacked by
    interval; ``energy_terms(w)`` gives w_i' T_i w_i and w_i' C_ij w_j.
    ``certificates`` maps (i, j) to (rank, entry error, ACA steps).
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
        uniform = VectorMeasure.uniform(system, cells)
        self._factors = {}
        self.certificates = {}
        for i in range(self.p):
            for j in range(i + 1, self.p):
                u, v, err, steps = _cross_factors(uniform[i].nodes, uniform[j].nodes)
                u.setflags(write=False)
                v.setflags(write=False)
                self._factors[i, j] = (u, v)
                self.certificates[i, j] = (u.shape[1], err, steps)

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
