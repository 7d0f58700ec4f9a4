"""Discrete logarithmic energy: kernels, potentials, quadratic forms.

The kernel is -log|x - y| evaluated at cell midpoints.  When both grids
coincide, the diagonal entry is the exact cell-averaged self-interaction

    (1/h^2) * int int_{cell^2} -log|x - y| dx dy = 3/2 - log h,

which keeps self-energies finite and the quadratic form conditionally
positive.  The total energy of a vector measure is

    sum_i I(mu_i, mu_i) + sum_{i<j} I(mu_i, mu_j)   (+ 2 sum_i int Q_i dmu_i),

with I the mutual energy; the partial potential of component s is
(1/2) sum_j p_{mu_j} + (1/2) p_{mu_s}, so the gradient of the energy in the
component-s weights is exactly 2 (partial potential + field) at the nodes.

The functions on general grids (``kernel_matrix``, ``weighted_energy``,
``difference_energy``) assemble dense blocks.  On the standard midpoint
grids of a system, ``system_kernel`` gives the same kernel as a structured
operator: each self block is Toeplitz and is applied by FFT, and each cross
block, smooth because the intervals are disjoint, is stored as low-rank
factors whose every entry is certified against the exact block.
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
# the singular-value cut-off (relative to the largest), the sketch columns
# required beyond the rank, the first sketch size, and the rows of U V' - C
# that the certificate forms at a time (so no second M x M array is held).
# Cross blocks of intervals a few gaps apart certify at ranks 6-22, so 32
# columns cover them with the spare columns in one sketch; closer intervals
# double it.
LOW_RANK_TOL = 1e-13
SINGULAR_CUTOFF = 1e-15
SPARE_COLUMNS = 8
FIRST_SKETCH = 32
CERTIFY_ROWS = 256


def interpolant(xs, ys):
    """x -> np.interp(x, xs, ys); ValueError unless xs increases strictly
    and xs, ys are 1-d, of one length, at least 2 long."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError("samples need matching 1-d x and y, at least 2 long")
    if not np.all(np.diff(xs) > 0):
        raise ValueError("sample x values must be strictly increasing")
    return lambda x: np.interp(np.asarray(x, dtype=float), xs, ys)


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
        c, s = float(center), float(scale)
        return cls(tuple((lambda x, c=c, s=s: s * (np.asarray(x) - c) ** 2)
                         for _ in range(p)))

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


def kernel_matrix(g1, g2):
    """-log|x - y| between two grids; exact cell average on a shared diagonal.

    Distinct grids with coinciding nodes raise CoincidentNodesAcrossIntervals:
    disjoint intervals cannot produce them, so the input is corrupt.
    """
    if g1.system != g2.system:
        raise ValueError("grids belong to different interval systems")
    # One len(g1) x len(g2) array, transformed in place: no second one.
    k = g1.nodes[:, None] - g2.nodes[None, :]
    np.abs(k, out=k)
    if _same_grid(g1, g2):
        np.fill_diagonal(k, 1.0)
        np.negative(np.log(k, out=k), out=k)
        np.fill_diagonal(k, CELL_SELF_ENERGY - np.log(g1.cell_width))
        return k
    if k.min() == 0.0:
        raise CoincidentNodesAcrossIntervals(
            f"grids on intervals {g1.interval_index} and {g2.interval_index} "
            "share a node"
        )
    return np.negative(np.log(k, out=k), out=k)


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
    hit = d < 1e-9 * alpha.cell_width
    d = np.where(hit, 1.0, d)
    k = -np.log(d)
    k = np.where(hit, CELL_SELF_ENERGY - np.log(alpha.cell_width), k)
    out = k @ alpha.weights
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


def _low_rank(c, k):
    """Certified factors U, V of a cross block: every entry of U V' lies
    within LOW_RANK_TOL * max(1, max|c|) of c.

    Randomized range finder with a fixed seed (Halko, Martinsson & Tropp,
    SIAM Review 53, 2011): sketch c with k Gaussian columns, orthonormalize,
    take the SVD of Q'c and keep singular values above SINGULAR_CUTOFF times
    the largest.  The sketch doubles until the certificate holds with at
    least SPARE_COLUMNS columns beyond the rank; at k = M it is exact to
    round-off.  Returns U, V, the largest entry error and the final k.
    """
    m = c.shape[1]
    bound = LOW_RANK_TOL * max(1.0, float(c.max()), -float(c.min()))
    rng = np.random.default_rng(0)
    while True:
        q, _ = np.linalg.qr(c @ rng.standard_normal((m, k)))
        ub, s, vt = np.linalg.svd(q.T @ c, full_matrices=False)
        r = int(np.count_nonzero(s > SINGULAR_CUTOFF * s[0]))
        u = q @ (ub[:, :r] * s[:r])
        v = vt[:r].T.copy()
        err = 0.0
        for i in range(0, c.shape[0], CERTIFY_ROWS):
            diff = u[i : i + CERTIFY_ROWS] @ v.T
            diff -= c[i : i + CERTIFY_ROWS]
            err = max(err, float(np.abs(diff, out=diff).max()))
        if err <= bound and (k - r >= SPARE_COLUMNS or k == m):
            return u, v, err, k
        if k == m:
            raise AngelescoError(
                f"cross block not certified at full sketch: error {err:.3e} "
                f"above {bound:.3e}"
            )
        k = min(2 * k, m)


class KernelOperator:
    """The kernel of the standard grids of one system, applied without the
    dense (p*cells)^2 matrix.  Read-only.

    Self block i is the symmetric Toeplitz matrix with first column
    CELL_SELF_ENERGY - log h_i, -log(h_i), -log(2 h_i), ...; it is applied
    through the FFT of its 2M circulant embedding.  Cross block i<j,
    -log|x - y| between two disjoint intervals, is smooth and kept as
    certified low-rank factors U V' (``_low_rank``).

    ``apply(w)`` gives the partial potentials at all nodes,
    u_i = T_i w_i + (1/2) sum_{j != i} C_ij w_j, for weights stacked by
    interval; ``energy_terms(w)`` gives w_i' T_i w_i and w_i' C_ij w_j.
    ``certificates`` maps (i, j) to (rank, entry error, sketch size).
    """

    def __init__(self, system, cells):
        self.p = system.p
        self.cells = cells
        cols = np.empty((self.p, 2 * cells))
        for i in range(self.p):
            h = system.cell_width(i, cells)
            col = cols[i, :cells]
            col[0] = CELL_SELF_ENERGY - np.log(h)
            col[1:] = -np.log(h * np.arange(1, cells))
            cols[i, cells] = 0.0
            cols[i, cells + 1 :] = col[:0:-1]
        self._symbols = np.fft.rfft(cols)
        self._symbols.setflags(write=False)
        uniform = VectorMeasure.uniform(system, cells)
        self._factors = {}
        self.certificates = {}
        for i in range(self.p):
            for j in range(i + 1, self.p):
                u, v, err, k = _low_rank(
                    kernel_matrix(uniform[i], uniform[j]), min(cells, FIRST_SKETCH)
                )
                u.setflags(write=False)
                v.setflags(write=False)
                self._factors[i, j] = (u, v)
                self.certificates[i, j] = (u.shape[1], err, k)

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
    (system, cells).  Self blocks carry the cell-averaged diagonal.
    """
    return KernelOperator(system, cells)
