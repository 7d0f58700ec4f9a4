"""Random configurations: joint density, Gibbs sampling, partition integrals.

The joint density of a configuration is proportional to the Boltzmann factor
of the log interaction weight times the product of base-measure densities.
Sampling is a systematic-scan Gibbs chain whose one-dimensional conditionals
are drawn exactly by inverse CDF on a refined grid of G nodes, 8x (``REFINE``)
the base grid.  The chain keeps one running repulsion table per interval and
each point's own column of it (one n_i x G array per interval), so a
coordinate update costs p grid-length logs, one ``exp`` and one ``cumsum``
on reused arrays, O(p G) whatever the number of points n.  Partition
integrals over the full product of blocks (prod(n_i!) times the ordered
sector's) are one determinant at any n.  Tensor quadrature at small n stays
as the determinant's oracle and for the deviation probability, an integral
restricted to {interaction weight <= threshold} with no determinant form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Configuration,
    DEFAULT_CELLS,
    _readonly,
    counting_measure,
    weak_star_distance,
)
from .energy import ExternalField, as_field
from .equilibrium import solve_equilibrium
from .errors import DegenerateConditional, DimensionTooLarge, IllConditionedSystem
from .fekete import _log_weight, log_boltzmann
from .ldp import _orthonormal, growth_constant

TENSOR_MAX_POINTS = 5
# Nodes of the whole tensor-quadrature grid, shared out per dimension.
TENSOR_BUDGET = 2 ** 25
# Cells of a base measure's refined grid per cell of its own: the one grid of
# the Gibbs conditionals, log Z, the MOP, Heine's check and the growth constants.
REFINE = 8


@dataclass(frozen=True, eq=False)
class BaseMeasure:
    """Density samples of one base measure on its interval's midpoint grid.

    Values are nonnegative, not identically zero, and are interpolated
    linearly between nodes when evaluated off-grid.
    """

    system: object
    interval_index: int
    nodes: np.ndarray
    cell_width: float
    values: np.ndarray
    total_mass: float

    def __post_init__(self):
        nodes = _readonly(self.nodes)
        values = _readonly(self.values)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "cell_width", float(self.cell_width))
        object.__setattr__(self, "total_mass", float(self.total_mass))
        if nodes.shape != values.shape or nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need matching 1-d node/value arrays")
        if not np.all(np.isfinite(values)):
            raise ValueError("density samples must be finite")
        if values.min() < 0:
            raise ValueError("density samples must be nonnegative")
        if values.max() == 0:
            raise ValueError("density must not be identically zero")
        if abs(values.sum() * self.cell_width - self.total_mass) > 1e-10 * max(
            1.0, self.total_mass
        ):
            raise ValueError("total mass inconsistent with samples")

    @property
    def cells(self):
        return self.nodes.size

    def density_at(self, x):
        return np.interp(x, self.nodes, self.values)

    def refined(self):
        """Midpoint grid with ``REFINE`` times the cells, values interpolated."""
        i = self.interval_index
        cells = self.cells * REFINE
        t = self.system.grid_nodes(i, cells)
        return t, self.system.cell_width(i, cells), self.density_at(t)

    @classmethod
    def lebesgue(cls, system, i, cells=DEFAULT_CELLS):
        nodes = system.grid_nodes(i, cells)
        h = system.cell_width(i, cells)
        return cls(system, i, nodes, h, np.ones(cells), system.length(i))

    @classmethod
    def from_callable(cls, system, i, fn, cells=DEFAULT_CELLS):
        nodes = system.grid_nodes(i, cells)
        h = system.cell_width(i, cells)
        vals = np.asarray(fn(nodes), dtype=float)
        return cls(system, i, nodes, h, vals, float(vals.sum() * h))

    @classmethod
    def power(cls, system, i, k, cells=DEFAULT_CELLS):
        """w(x) = x**k; the interval must keep it nonnegative."""
        return cls.from_callable(system, i, lambda x: x ** k, cells)


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """Interval system + external field + base measures + multi-index rule."""

    system: object
    field: ExternalField
    base: tuple
    seq: object

    def __post_init__(self):
        object.__setattr__(self, "field", as_field(self.field, self.system.p))
        base = tuple(self.base)
        object.__setattr__(self, "base", base)
        if len(base) != self.system.p:
            raise ValueError("need one base measure per interval")
        for i, b in enumerate(base):
            if b.interval_index != i or b.system != self.system:
                raise ValueError("base measures misaligned with the system")
        # The multi-index sequence must drift toward the mass vector.
        last = min(8, self.seq.length or 8)
        self.seq.check_limit(self.system.r, range(1, last + 1))

    def index(self, d):
        return self.seq(d)

    def unweighted(self):
        return EnsembleSpec(
            self.system, ExternalField.zero(self.system.p), self.base, self.seq
        )


@dataclass(frozen=True, eq=False)
class SampleBatch:
    spec: EnsembleSpec
    d: int
    index: object
    configurations: tuple
    seed: int
    burn_in: int
    thin: int

    def __len__(self):
        return len(self.configurations)

    def __iter__(self):
        return iter(self.configurations)


def log_density_unnormalized(spec, d, X):
    """Log joint density up to the partition constant; -inf off support."""
    m = spec.index(d)
    if tuple(m.counts) != tuple(X.index.counts):
        raise ValueError("configuration does not match the multi-index")
    val = log_boltzmann(X, spec.field, m)
    if not np.isfinite(val):
        return float("-inf")
    for i, b in enumerate(X.blocks):
        w = spec.base[i].density_at(b)
        if np.any(w <= 0):
            return float("-inf")
        val += float(np.sum(np.log(w)))
    return val


def _draw_from_log_density(static, rest, left_edge, h, rng, work):
    """Inverse-CDF draw from the piecewise-constant density exp(static + rest).

    ``work`` is a pair of grid-length arrays: the first takes the log density
    and then its exponential after max subtraction, the second the running
    sum.  ``argmax`` and ``np.add.accumulate`` give the values of ``max``
    (NaN included) and ``cumsum`` with less call overhead.
    """
    pr, cum = work
    np.add(static, rest, out=pr)
    m = pr.item(pr.argmax())
    if not math.isfinite(m):
        raise DegenerateConditional("conditional density vanishes everywhere")
    np.subtract(pr, m, out=pr)
    np.exp(pr, out=pr)
    np.add.accumulate(pr, out=cum)
    tot = cum.item(-1)
    if not math.isfinite(tot) or tot <= 0:
        raise DegenerateConditional("conditional density has no mass")
    u = rng.random() * tot
    idx = min(int(cum.searchsorted(u, "right")), pr.size - 1)
    prev = cum.item(idx - 1) if idx > 0 else 0.0
    frac = (u - prev) / pr.item(idx)
    return left_edge + (idx + frac) * h


class _GibbsChain:
    """Systematic-scan chain with one running repulsion table per interval.

    On interval i's refined grid t the table holds
    T_i(t) = sum_j c_ij sum_k log|t - x_k^(j)|, with c_ii = 2 and c_ij = 1,
    so the repulsion felt by point k of block i is T_i - 2 log|t - x_k|.
    Row k of ``columns[i]`` (one n_i x G array per interval) caches that
    column log (t - x_k)^2, so taking the old point out of T_i is one
    subtraction.  An update then costs p grid-length logs (the new point's
    column, written into its row, and one ratio column per other table), one
    ``exp`` and one ``cumsum``; ``work`` holds two grid-length arrays per
    interval that the draw and the ratio columns reuse.
    """

    def __init__(self, spec, index, rng):
        self.spec = spec
        self.index = index
        self.rng = rng
        self.n = index.total
        sys_ = spec.system
        self.grids = []
        with np.errstate(divide="ignore"):
            for i in range(sys_.p):
                t, h, w = spec.base[i].refined()
                static = np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), -np.inf)
                static = static - 2.0 * self.n * spec.field(i, t)
                self.grids.append(
                    (t, h, float(sys_.intervals[i][0]), static)
                )
        self.work = [(np.empty_like(g[0]), np.empty_like(g[0])) for g in self.grids]
        self.state = [
            np.array(
                [
                    _draw_from_log_density(g[3], 0.0, g[2], g[1], self.rng, work)
                    for _ in range(n_i)
                ]
            )
            for g, work, n_i in zip(self.grids, self.work, index.counts)
        ]
        self.columns = [
            np.empty((n_i, g[0].size)) for g, n_i in zip(self.grids, index.counts)
        ]
        self._rebuild()

    def _rebuild(self):
        """Every point column and table from scratch, from ``state``."""
        with np.errstate(divide="ignore"):
            for i, block in enumerate(self.state):
                for k, x in enumerate(block):
                    self._column(i, k, x)
            self.tables = [self._table(i) for i in range(len(self.grids))]

    def _column(self, i, k, x):
        """log (t - x)^2 = 2 log|t - x| into row k of ``columns[i]``."""
        col = self.columns[i][k]
        np.subtract(self.grids[i][0], x, out=col)
        np.square(col, out=col)
        np.log(col, out=col)
        return col

    def _table(self, i, skip=-1):
        """T_i from scratch, leaving out point ``skip`` of block i."""
        t = self.grids[i][0]
        table = np.zeros_like(t)
        with np.errstate(divide="ignore"):
            for j, block in enumerate(self.state):
                c = 2.0 if j == i else 1.0
                for k, x in enumerate(block):
                    if j != i or k != skip:
                        table += c * np.log(np.abs(t - x))
        return table

    def _update(self, i, k):
        """Redraw point k of block i; run under ``divide="ignore"``."""
        _, h, a, static = self.grids[i]
        block = self.state[i]
        x_old = block.item(k)
        col = self.columns[i][k]
        rest = self.tables[i]
        # Only the node of the cell holding x_old can coincide with it; there
        # -inf - (-inf) would poison the table, so rebuild it instead.
        if col.item(min(int((x_old - a) / h), col.size - 1)) == -math.inf:
            rest = self.tables[i] = self._table(i, skip=k)
        else:
            rest -= col
        x_new = _draw_from_log_density(static, rest, a, h, self.rng, self.work[i])
        block[k] = x_new
        rest += self._column(i, k, x_new)
        # The intervals are disjoint, so these ratios are positive and finite.
        for j, table in enumerate(self.tables):
            if j != i:
                tj = self.grids[j][0]
                ratio, old = self.work[j]
                np.subtract(tj, x_new, out=ratio)
                np.subtract(tj, x_old, out=old)
                ratio /= old
                table += np.log(ratio, out=ratio)

    def sweep(self):
        with np.errstate(divide="ignore"):
            for i, block in enumerate(self.state):
                for k in range(block.size):
                    self._update(i, k)

    def snapshot(self):
        return Configuration(
            self.spec.system, tuple(np.sort(b.copy()) for b in self.state)
        )


def gibbs_sample(spec, d, n_samples, burn_in=50, thin=5, seed=0):
    """Systematic-scan Gibbs samples of the ensemble at multi-index d.

    Each one-dimensional conditional is sampled exactly by inverse CDF on
    the refined grid, in the log domain with per-conditional max
    subtraction.  Deterministic for fixed (spec, d, seed).
    """
    m = spec.index(d)
    chain = _GibbsChain(spec, m, np.random.default_rng(seed))
    for _ in range(burn_in):
        chain.sweep()
    out = []
    for _ in range(n_samples):
        for _ in range(thin):
            chain.sweep()
        out.append(chain.snapshot())
    return SampleBatch(
        spec=spec,
        d=d,
        index=m,
        configurations=tuple(out),
        seed=seed,
        burn_in=burn_in,
        thin=thin,
    )


def _tensor_axes(spec, m):
    """Per-coordinate (interval, nodes, base weights, field factors).

    The field factor exp(-2 n Q_i) belongs to the interaction amplitude,
    not the base measure, so it is kept separate for threshold tests.
    """
    n = m.total
    if n > TENSOR_MAX_POINTS:
        raise DimensionTooLarge(
            f"tensor quadrature supports at most {TENSOR_MAX_POINTS} points, "
            f"got {n}"
        )
    per_dim = int(TENSOR_BUDGET ** (1.0 / n))
    axes = []
    for i, n_i in enumerate(m.counts):
        base = spec.base[i]
        g = min(REFINE * base.cells, per_dim)
        t = spec.system.grid_nodes(i, g)
        h = spec.system.cell_width(i, g)
        w = base.density_at(t) * h
        ff = np.exp(-2.0 * n * spec.field(i, t))
        for _ in range(n_i):
            axes.append((i, t, w, ff))
    return axes


def _tensor_reduce(spec, d, threshold=None):
    """Accumulate tensor-quadrature integrals of the joint density.

    Returns (z_full, below): the integral of the unnormalized density and
    its integral restricted to {interaction weight <= threshold}.
    """
    m = spec.index(d)
    axes = _tensor_axes(spec, m)
    n = len(axes)
    block_of = [a[0] for a in axes]
    # Axis 0 is the python loop; the others span an open mesh.
    (_, t0, w0, ff0), inner = axes[0], axes[1:]
    xs, ws, ffs = (np.ix_(*(a[k] for a in inner)) for k in (1, 2, 3))

    z_full = below = 0.0
    for i0 in range(t0.size):
        x = [np.asarray(t0[i0]), *xs]
        wgt = w0[i0]
        for w in ws:
            wgt = wgt * w
        amp = np.asarray(ff0[i0])
        for ff in ffs:
            amp = amp * ff
        for a_idx in range(n):
            for b_idx in range(a_idx + 1, n):
                diff = np.abs(x[b_idx] - x[a_idx])
                if block_of[a_idx] == block_of[b_idx]:
                    amp = amp * diff * diff
                else:
                    amp = amp * diff
        core = amp * wgt
        z_full += float(np.sum(core))
        if threshold is not None:
            below += float(np.sum(np.where(amp <= threshold, core, 0.0)))
    return z_full, below


def sector_factor(index):
    """prod(n_i!): full-product integral / ordered-sector integral."""
    out = 1.0
    for n_i in index.counts:
        out *= float(math.factorial(n_i))
    return out


def _log_sector_factor(index):
    """log prod(n_i!) without forming the product, which overflows at 171!."""
    return float(sum(math.lgamma(n_i + 1) for n_i in index.counts))


def partition_function_quadrature(spec, d):
    """log of the partition integral over the full product of blocks.

    Nodes per dimension, at most the refined grid's, shrink with the point
    count to keep the tensor under ``TENSOR_BUDGET`` points; more than
    ``TENSOR_MAX_POINTS`` points raises DimensionTooLarge.
    """
    z_full, _ = _tensor_reduce(spec, d)
    return float(np.log(z_full))


# cond * eps of a pairing matrix at which its solve, log determinant or
# determinant ratio is refused: their error grows with cond although the
# solve's residual does not.
MAX_COND_EPS = 1e-6


def _projection_matrix(spec, index, n_field=0):
    """M[(j, k), l] = sum over interval j of q_k^(j) p_l w_j, refined grids.

    w_j is the base measure times exp(-2 n_field Q_j - shift_j), shift_j the
    exponent's maximum; p_0..p_n are orthonormal for sum_j w_j, q^(j) for
    w_j.  Returns M, p's recurrence in s = (x - center)/scale, the log
    determinant of the monomial moment matrix [sum t^(k + l) w_j e^shift_j],
    center, scale and cond M[:, :n].  det M is positive for positive weights;
    IllConditionedSystem, carrying cond M[:, :n], when its sign is not 1 or
    cond * eps reaches MAX_COND_EPS.
    """
    (lo, _), (_, hi) = spec.system.intervals[0], spec.system.intervals[-1]
    center, scale = 0.5 * (lo + hi), 0.5 * (hi - lo)
    grids, log_det = [], 0.0
    for j, n_j in enumerate(index.counts):
        t, h, w = spec.base[j].refined()
        expo = -2.0 * n_field * spec.field(j, t)
        w = w * h * np.exp(expo - expo.max())
        grids.append((t[w > 0], w[w > 0]))
        log_det += n_j * float(expo.max())
    t_all, w_all = (np.concatenate(z) for z in zip(*grids))
    vals, log_lead, recurrence = _orthonormal(t_all, w_all, index.total, center, scale)
    rows, start = [], 0
    for (t, w), n_j in zip(grids, index.counts):
        q, q_lead, _ = _orthonormal(t, w, n_j - 1, center, scale)
        rows.append((q * w) @ vals[:, start : start + t.size].T)
        log_det -= float(q_lead.sum())
        start += t.size
    mat = np.vstack(rows)
    sign, log_det_m = np.linalg.slogdet(mat[:, :-1])
    cond = float(np.linalg.cond(mat[:, :-1]))
    # Unbalanced indices can make M singular to working precision.
    if sign != 1.0 or not cond * np.finfo(float).eps < MAX_COND_EPS:
        raise IllConditionedSystem(
            f"pairing matrix: determinant sign {sign:g}, condition {cond:.3e}",
            condition=cond,
        )
    log_det += log_det_m - float(log_lead[:-1].sum())
    return mat, recurrence, log_det, center, scale, cond


def _log_partition(spec, d):
    """log of the partition integral over the full product of blocks, any n.

    The weight is |V(x)| prod_j |V(x^(j))| (V Vandermonde), so by Andreief's
    identity Z = prod(n_j!) det[sum over interval j of t^(k + l) w_j].
    """
    m = spec.index(d)
    log_det = _projection_matrix(spec, m, m.total)[2]
    return _log_sector_factor(m) + log_det


def partition_function_bounds(spec, d, fekete_result, epsilon=0.05):
    """Sandwich for the log partition integral from a Fekete configuration.

    Upper: extremal log weight + n log(max base mass).  Lower: extremal log
    weight - n log(growth constant) - 2 n^2 log(1 + epsilon), with the
    growth constant estimated from Christoffel kernels up to degree 2n.
    """
    m = spec.index(d)
    n = m.total
    if tuple(m.counts) != tuple(fekete_result.configuration.index.counts):
        raise ValueError("fekete result does not match the multi-index")
    log_a = fekete_result.log_boltzmann
    c_mass = max(b.total_mass for b in spec.base)
    upper = log_a + n * float(np.log(c_mass))
    c_growth = growth_constant(
        spec.base, 2 * n, epsilon, field=spec.field, weight_scale=2 * n
    )
    lower = log_a - n * float(np.log(c_growth)) - 2.0 * n ** 2 * float(
        np.log1p(epsilon)
    )
    return lower, upper


@dataclass(frozen=True)
class DeviationReport:
    """Deviation probability versus its product bound, with the premise."""

    d: int
    index: tuple
    total: int
    delta: float
    eta: float
    probability: float
    bound: float
    premise_holds: bool | None
    partition_root: float
    mode: str


def johansson_probability(
    spec, d, eta, mode="auto", samples=400, burn_in=50, thin=5, seed=0,
    equilibrium=None,
):
    """Probability that the interaction weight per n^2 falls eta short.

    The deviation set is the event that the n^2-th root of the interaction
    weight is at most delta - eta, with delta the exponential of minus the
    equilibrium energy.  ``mode`` "auto" takes quadrature for totals <= 4
    and Monte Carlo over Gibbs samples otherwise; "quadrature" and "mc"
    force one; any other mode raises ValueError.  The report carries the
    probability, the product bound (1 - eta/2delta)^(n^2), and whether the
    n^2-th root of the sector partition integral clears delta - eta/4 (only
    checkable by quadrature; None under Monte Carlo).
    """
    if mode not in ("auto", "quadrature", "mc"):
        raise ValueError(f"mode must be auto, quadrature or mc, got {mode!r}")
    m = spec.index(d)
    n = m.total
    if equilibrium is None:
        equilibrium = solve_equilibrium(spec.system, spec.field)
    delta = float(np.exp(-equilibrium.energy.total))
    thr = delta - eta
    bound = max(1.0 - eta / (2.0 * delta), 0.0) ** (n * n)
    if mode == "auto":
        mode = "quadrature" if n <= TENSOR_MAX_POINTS - 1 else "mc"
    if mode == "quadrature":
        thr_lin = thr ** (n * n) if thr > 0 else -1.0
        z_full, below = _tensor_reduce(spec, d, threshold=thr_lin)
        z_sector = z_full / sector_factor(m)
        root = float(z_sector ** (1.0 / (n * n)))
        premise = root >= delta - eta / 4.0
        prob = float(below / z_full)
    else:
        batch = gibbs_sample(spec, d, samples, burn_in, thin, seed)
        if thr <= 0:
            prob = 0.0
        else:
            cut = n * n * float(np.log(thr))
            # log_boltzmann of each sample, all in one stacked pass
            blocks = [np.stack(b) for b in zip(*(X.blocks for X in batch))]
            interaction, fld = _log_weight(blocks, spec.field)
            hits = np.broadcast_to(interaction - 2.0 * n * fld <= cut, len(batch))
            prob = np.count_nonzero(hits) / len(batch)
        root = float("nan")
        premise = None
    return DeviationReport(
        d=d,
        index=tuple(m.counts),
        total=n,
        delta=delta,
        eta=float(eta),
        probability=prob,
        bound=float(bound),
        premise_holds=premise,
        partition_root=root,
        mode=mode,
    )


@dataclass(frozen=True)
class ConvergenceRow:
    d: int
    total: int
    mean_distance: float
    std_distance: float


def convergence_experiment(
    spec, d_list, samples_per_d=30, burn_in=50, thin=5, seed=0,
    equilibrium=None,
):
    """Mean/concentration of the counting-measure distance to equilibrium.

    One independently seeded chain per d; distances are measured on the
    equilibrium solution's grid.
    """
    if equilibrium is None:
        equilibrium = solve_equilibrium(spec.system, spec.field)
    cells = equilibrium.measure[0].cells
    seeds = np.random.SeedSequence(seed).spawn(len(d_list))
    rows = []
    for d, s in zip(d_list, seeds):
        seed_d = int(s.generate_state(1)[0])
        batch = gibbs_sample(spec, d, samples_per_d, burn_in, thin, seed_d)
        dists = np.array(
            [
                weak_star_distance(
                    counting_measure(X, cells), equilibrium.measure
                )
                for X in batch
            ]
        )
        rows.append(
            ConvergenceRow(
                d, spec.index(d).total,
                float(dists.mean()), float(dists.std()),
            )
        )
    return rows
