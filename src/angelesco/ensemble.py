"""Random configurations: joint density, Gibbs sampling, partition integrals.

The joint density of a configuration is proportional to the Boltzmann factor
of the log interaction weight times the product of base-measure densities.
Sampling is a systematic-scan Gibbs chain whose one-dimensional conditionals
are drawn exactly by inverse CDF on a refined grid of G nodes (default 8x the
base grid).  The chain keeps one running repulsion table per interval, so a
coordinate update costs O(p G) whatever the number of points n.  Partition
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
from .fekete import log_boltzmann
from .ldp import _orthonormal, growth_constant

TENSOR_MAX_POINTS = 5


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

    def refined(self, refine=8):
        """Midpoint grid with ``refine`` times the cells, values interpolated."""
        i = self.interval_index
        cells = self.cells * refine
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
        probe = []
        for d in range(1, 9):
            try:
                self.seq(d)
            except ValueError:
                break
            probe.append(d)
        self.seq.check_limit(self.system.r, probe)

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


def _draw_from_log_density(logp, left_edge, h, rng):
    """Inverse-CDF draw from a piecewise-constant density given in log form."""
    m = logp.max()
    if not np.isfinite(m):
        raise DegenerateConditional("conditional density vanishes everywhere")
    pr = np.exp(logp - m)
    cum = np.cumsum(pr)
    tot = cum[-1]
    if not np.isfinite(tot) or tot <= 0:
        raise DegenerateConditional("conditional density has no mass")
    u = rng.random() * tot
    idx = int(np.searchsorted(cum, u, side="right"))
    idx = min(idx, pr.size - 1)
    prev = cum[idx - 1] if idx > 0 else 0.0
    frac = (u - prev) / pr[idx]
    return left_edge + (idx + frac) * h


class _GibbsChain:
    """Systematic-scan chain with one running repulsion table per interval.

    On interval i's refined grid t the table holds
    T_i(t) = sum_j c_ij sum_k log|t - x_k^(j)|, with c_ii = 2 and c_ij = 1,
    so the repulsion felt by point k of block i is T_i - 2 log|t - x_k|.
    An update costs p + 1 grid-length logs: one to take the old point out of
    T_i, one to put the new one in, and one ratio column per other table.
    """

    def __init__(self, spec, index, refine, rng):
        self.spec = spec
        self.index = index
        self.rng = rng
        self.n = index.total
        sys_ = spec.system
        self.grids = []
        with np.errstate(divide="ignore"):
            for i in range(sys_.p):
                t, h, w = spec.base[i].refined(refine)
                static = np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), -np.inf)
                static = static - 2.0 * self.n * spec.field(i, t)
                self.grids.append(
                    (t, h, float(sys_.intervals[i][0]), static)
                )
        self.state = [
            np.array(
                [
                    _draw_from_log_density(g[3], g[2], g[1], self.rng)
                    for _ in range(n_i)
                ]
            )
            for g, n_i in zip(self.grids, index.counts)
        ]
        self.tables = [self._table(i) for i in range(sys_.p)]

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
        t, h, a, static = self.grids[i]
        block = self.state[i]
        x_old = block[k]
        rest = self.tables[i]
        col = np.subtract(t, x_old)  # 2 log|t - x| = log (t - x)^2
        np.square(col, out=col)
        np.log(col, out=col)
        # Only the node of the cell holding x_old can coincide with it; there
        # -inf - (-inf) would poison the table, so rebuild it instead.
        if col[min(int((x_old - a) / h), col.size - 1)] == -np.inf:
            rest = self._table(i, skip=k)
        else:
            rest -= col
        x_new = _draw_from_log_density(static + rest, a, h, self.rng)
        block[k] = x_new
        np.subtract(t, x_new, out=col)
        np.square(col, out=col)
        np.log(col, out=col)
        rest += col
        self.tables[i] = rest
        # The intervals are disjoint, so these ratios are positive and finite.
        for j, table in enumerate(self.tables):
            if j != i:
                tj = self.grids[j][0]
                ratio = tj - x_new
                ratio /= tj - x_old
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


def gibbs_sample(
    spec, d, n_samples, burn_in=50, thin=5, seed=0, refine=8
):
    """Systematic-scan Gibbs samples of the ensemble at multi-index d.

    Each one-dimensional conditional is sampled exactly by inverse CDF on
    the refined grid, in the log domain with per-conditional max
    subtraction.  Deterministic for fixed (spec, d, seed).
    """
    m = spec.index(d)
    chain = _GibbsChain(spec, m, refine, np.random.default_rng(seed))
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


def _tensor_axes(spec, m, budget, refine):
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
    per_dim = max(int(budget ** (1.0 / n)), 8)
    axes = []
    for i, n_i in enumerate(m.counts):
        base = spec.base[i]
        g = min(refine * base.cells, per_dim)
        t = spec.system.grid_nodes(i, g)
        h = spec.system.cell_width(i, g)
        w = base.density_at(t) * h
        ff = np.exp(-2.0 * n * spec.field(i, t))
        for _ in range(n_i):
            axes.append((i, t, w, ff))
    return axes


def _tensor_reduce(spec, d, budget=2 ** 25, refine=8, threshold=None):
    """Accumulate tensor-quadrature integrals of the joint density.

    Returns (z_full, below): the integral of the unnormalized density and
    its integral restricted to {interaction weight <= threshold}.
    """
    m = spec.index(d)
    axes = _tensor_axes(spec, m, budget, refine)
    n = len(axes)
    block_of = [a[0] for a in axes]

    def shaped(arr, axis):
        shape = [1] * (n - 1)
        if axis > 0:
            shape[axis - 1] = arr.size
            return arr.reshape(shape)
        return arr  # axis 0 is the python loop

    z_full = 0.0
    below = 0.0
    t0, w0, ff0 = axes[0][1], axes[0][2], axes[0][3]
    inner = axes[1:]
    for i0 in range(t0.size):
        x = [np.asarray(t0[i0])] + [shaped(a[1], ax + 1) for ax, a in enumerate(inner)]
        wgt = w0[i0]
        for ax, a in enumerate(inner):
            wgt = wgt * shaped(a[2], ax + 1)
        amp = np.asarray(ff0[i0])
        for ax, a in enumerate(inner):
            amp = amp * shaped(a[3], ax + 1)
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


def partition_function_quadrature(spec, d, budget=2 ** 25, refine=8):
    """log of the partition integral over the full product of blocks.

    Nodes per dimension shrink with the point count to keep the tensor under
    ``budget`` points; more than 5 points raises DimensionTooLarge.
    """
    z_full, _ = _tensor_reduce(spec, d, budget, refine)
    return float(np.log(z_full))


def _projection_matrix(spec, index, n_field=0):
    """M[(j, k), l] = sum over interval j of q_k^(j) p_l w_j, refined grids.

    w_j is the base measure times exp(-2 n_field Q_j - shift_j), shift_j the
    exponent's maximum; p_0..p_n are orthonormal for sum_j w_j, q^(j) for
    w_j.  Returns M, p's coefficients in s = (x - center)/scale, the log
    determinant of the monomial moment matrix [sum t^(k + l) w_j e^shift_j],
    center and scale.  det M is positive for positive weights.
    """
    (lo, _), (_, hi) = spec.system.intervals[0], spec.system.intervals[-1]
    center, scale = 0.5 * (lo + hi), 0.5 * (hi - lo)
    grids, log_det = [], 0.0
    for j, n_j in enumerate(index.counts):
        t, h, w = spec.base[j].refined(8)
        expo = -2.0 * n_field * spec.field(j, t)
        w = w * h * np.exp(expo - expo.max())
        grids.append((t[w > 0], w[w > 0]))
        log_det += n_j * float(expo.max())
    t_all, w_all = (np.concatenate(z) for z in zip(*grids))
    vals, log_lead, coef = _orthonormal(t_all, w_all, index.total, center, scale)
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
    if sign != 1.0 or not cond * np.finfo(float).eps < 1.0:
        raise IllConditionedSystem(
            f"pairing matrix: determinant sign {sign:g}, condition {cond:.3e}",
            condition=cond,
        )
    log_det += log_det_m - float(log_lead[:-1].sum())
    return mat, coef, log_det, center, scale


def _log_partition(spec, d):
    """log of the partition integral over the full product of blocks, any n.

    The weight is |V(x)| prod_j |V(x^(j))| (V Vandermonde), so by Andreief's
    identity Z = prod(n_j!) det[sum over interval j of t^(k + l) w_j].
    """
    m = spec.index(d)
    _, _, log_det, _, _ = _projection_matrix(spec, m, m.total)
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
    spec,
    d,
    eta,
    mode="auto",
    budget=2 ** 25,
    refine=8,
    samples=400,
    burn_in=50,
    thin=5,
    seed=0,
    equilibrium=None,
):
    """Probability that the interaction weight per n^2 falls eta short.

    The deviation set is the event that the n^2-th root of the interaction
    weight is at most delta - eta, with delta the exponential of minus the
    equilibrium energy.  Quadrature for totals <= 4, Monte Carlo over Gibbs
    samples otherwise (or on request).  The report carries the probability,
    the product bound (1 - eta/2delta)^(n^2), and whether the n^2-th root of
    the sector partition integral clears delta - eta/4 (only checkable by
    quadrature; None under Monte Carlo).
    """
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
        z_full, below = _tensor_reduce(
            spec, d, budget, refine, threshold=thr_lin
        )
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
            hits = sum(
                1
                for X in batch.configurations
                if log_boltzmann(X, spec.field, m) <= cut
            )
            prob = hits / len(batch.configurations)
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
    spec,
    d_list,
    samples_per_d=30,
    burn_in=50,
    thin=5,
    seed=0,
    refine=8,
    equilibrium=None,
    out_csv=None,
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
        batch = gibbs_sample(
            spec, d, samples_per_d, burn_in, thin,
            seed=int(s.generate_state(1)[0]), refine=refine,
        )
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
    if out_csv is not None:
        lines = ["d,total_points,mean_distance,std_distance"]
        for row in rows:
            lines.append(
                f"{row.d},{row.total},{row.mean_distance:.17g},"
                f"{row.std_distance:.17g}"
            )
        with open(out_csv, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return rows


def export_samples_csv(batch, path):
    rows = ["sample_id,block,index,value"]
    for s, X in enumerate(batch.configurations):
        for i, b in enumerate(X.blocks):
            for k, x in enumerate(b):
                rows.append(f"{s},{i},{k},{x:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
