"""Interval systems, grid measures, point configurations, and the sorting map.

Everything downstream (energies, solvers, samplers) works on the immutable
types defined here: a system of p pairwise disjoint closed intervals with a
mass vector summing to one, measures discretized as cell weights on midpoint
grids (M cells per interval, default 400), and point configurations stored as
sorted per-interval blocks.  ``write_csv`` and ``write_json`` are the one
writer of each output file kind.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CoordinateOutsideSystem,
    DegenerateComponent,
    GridMismatch,
)

# Absolute slack for interval-membership tests at endpoints.
ENDPOINT_SLACK = 1e-12

DEFAULT_CELLS = 400
CSV_ROWS = 4096  # rows formatted by one % in write_csv


def _readonly(a):
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class IntervalSystem:
    """p disjoint compact intervals in increasing order plus a mass vector r.

    ``intervals[i] = (a_i, b_i)`` with ``a_i < b_i`` and ``b_i < a_{i+1}``;
    ``r`` is strictly positive with ``sum(r) == 1`` within 1e-12.
    """

    intervals: tuple
    r: tuple

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        r = tuple(float(x) for x in self.r)
        if len(ivs) == 0:
            raise ValueError("need at least one interval")
        if len(r) != len(ivs):
            raise ValueError("mass vector length must match interval count")
        if not (np.all(np.isfinite(ivs)) and np.all(np.isfinite(r))):
            # NaN would pass every comparison below.
            raise ValueError("endpoints and masses must be finite")
        for a, b in ivs:
            if not a < b:
                raise ValueError(f"degenerate interval ({a}, {b})")
        for (_, b), (a2, _) in zip(ivs, ivs[1:]):
            if not b < a2:
                raise ValueError("intervals must be disjoint and increasing")
        if min(r) <= 0.0:
            raise ValueError("masses must be strictly positive")
        if abs(sum(r) - 1.0) > 1e-12:
            raise ValueError(f"masses must sum to 1, got {sum(r)!r}")
        object.__setattr__(self, "intervals", ivs)
        object.__setattr__(self, "r", r)

    @property
    def p(self):
        return len(self.intervals)

    def length(self, i):
        a, b = self.intervals[i]
        return b - a

    def cell_width(self, i, cells=DEFAULT_CELLS):
        return self.length(i) / cells

    def grid_nodes(self, i, cells=DEFAULT_CELLS):
        """Cell midpoints a_i + (k + 1/2) h, k = 0..cells-1."""
        a, _ = self.intervals[i]
        h = self.cell_width(i, cells)
        return a + h * (np.arange(cells) + 0.5)

    def cell_edges(self, i, cells=DEFAULT_CELLS):
        a, b = self.intervals[i]
        return np.linspace(a, b, cells + 1)

    def contains(self, i, x):
        a, b = self.intervals[i]
        x = np.asarray(x)
        return (x >= a - ENDPOINT_SLACK) & (x <= b + ENDPOINT_SLACK)

    def locate(self, x):
        """Index of the interval containing scalar x, or -1."""
        for i, (a, b) in enumerate(self.intervals):
            if a - ENDPOINT_SLACK <= x <= b + ENDPOINT_SLACK:
                return i
        return -1


@dataclass(frozen=True, eq=False)
class GridMeasure:
    """Nonnegative cell weights on the midpoint grid of one interval.

    ``weights[k]`` is the mass of cell k (not a density value); the density at
    a node is ``weights[k] / cell_width``.  ``sum(weights) == mass`` within
    1e-10.  Zero total mass is allowed (it shows up in partial-potential
    bookkeeping); quantiles of a zero-mass component are refused downstream.
    """

    system: IntervalSystem
    interval_index: int
    nodes: np.ndarray
    cell_width: float
    weights: np.ndarray
    mass: float

    def __post_init__(self):
        nodes = _readonly(self.nodes)
        weights = _readonly(self.weights)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "cell_width", float(self.cell_width))
        object.__setattr__(self, "mass", float(self.mass))
        i = self.interval_index
        if not 0 <= i < self.system.p:
            raise ValueError(f"interval_index {i} out of range")
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size == 0:
            raise ValueError("nodes and weights must be equal-length 1-d arrays")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if not np.all(self.system.contains(i, nodes)):
            raise ValueError("nodes must lie inside the interval")
        if self.mass < 0:
            raise ValueError("mass must be nonnegative")
        if weights.min(initial=0.0) < -1e-15:
            raise ValueError("weights must be nonnegative")
        if abs(weights.sum() - self.mass) > 1e-10 * max(1.0, self.mass):
            raise ValueError("weights must sum to the stated mass")

    @property
    def cells(self):
        return self.nodes.size

    def cdf(self):
        """Cumulative mass at the right edge of each cell."""
        return np.cumsum(self.weights)

    def density(self):
        return self.weights / self.cell_width

    @classmethod
    def uniform(cls, system, i, cells=DEFAULT_CELLS, mass=1.0):
        h = system.cell_width(i, cells)
        w = np.full(cells, mass / cells)
        return cls(system, i, system.grid_nodes(i, cells), h, w, mass)

    @classmethod
    def from_density(cls, system, i, fn, cells=DEFAULT_CELLS, mass=None):
        """Weights f(node) * h, rescaled to ``mass`` exactly when given."""
        nodes = system.grid_nodes(i, cells)
        h = system.cell_width(i, cells)
        w = np.asarray(fn(nodes), dtype=float) * h
        if w.min(initial=0.0) < 0:
            raise ValueError("density must be nonnegative")
        total = w.sum()
        if mass is not None:
            if total <= 0:
                raise ValueError("cannot rescale a zero-mass density")
            w = w * (mass / total)
            total = mass
        return cls(system, i, nodes, h, w, float(total))

    @classmethod
    def from_cdf(cls, system, i, cdf, cells=DEFAULT_CELLS, mass=None):
        """Exact cell masses from a cumulative distribution function."""
        edges = system.cell_edges(i, cells)
        vals = np.asarray(cdf(edges), dtype=float)
        w = np.diff(vals)
        w = np.maximum(w, 0.0)
        total = w.sum()
        if mass is not None:
            if total <= 0:
                raise ValueError("cannot rescale a zero-mass cdf")
            w = w * (mass / total)
            total = mass
        h = system.cell_width(i, cells)
        return cls(system, i, system.grid_nodes(i, cells), h, w, float(total))

    @classmethod
    def binned(cls, system, i, points, point_mass, cells=DEFAULT_CELLS):
        """Each point contributes ``point_mass`` to the cell containing it."""
        a, _ = system.intervals[i]
        h = system.cell_width(i, cells)
        pts = np.asarray(points, dtype=float)
        if not np.all(system.contains(i, pts)):
            raise CoordinateOutsideSystem(
                f"points outside interval {i} cannot be binned"
            )
        idx = np.clip(((pts - a) / h).astype(int), 0, cells - 1)
        w = np.bincount(idx, minlength=cells).astype(float) * point_mass
        mass = point_mass * pts.size
        return cls(system, i, system.grid_nodes(i, cells), h, w, mass)


@dataclass(frozen=True, eq=False)
class VectorMeasure:
    """One GridMeasure per interval, total mass 1 within 1e-10."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("need at least one component")
        sys0 = comps[0].system
        if len(comps) != sys0.p:
            raise ValueError("need exactly one component per interval")
        for i, g in enumerate(comps):
            if g.system != sys0:
                raise ValueError("components must share one interval system")
            if g.interval_index != i:
                raise ValueError("components must be ordered by interval")
        total = sum(g.mass for g in comps)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"component masses must sum to 1, got {total!r}")

    @property
    def system(self):
        return self.components[0].system

    @property
    def masses(self):
        return tuple(g.mass for g in self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    @classmethod
    def uniform(cls, system, cells=DEFAULT_CELLS, masses=None):
        masses = system.r if masses is None else masses
        return cls(
            tuple(
                GridMeasure.uniform(system, i, cells, m)
                for i, m in enumerate(masses)
            )
        )

    @classmethod
    def from_densities(cls, system, fns, cells=DEFAULT_CELLS, masses=None):
        masses = system.r if masses is None else masses
        return cls(
            tuple(
                GridMeasure.from_density(system, i, fn, cells, mass=m)
                for i, (fn, m) in enumerate(zip(fns, masses))
            )
        )


@dataclass(frozen=True)
class MultiIndex:
    """Number of points per interval; every entry >= 1."""

    counts: tuple

    def __post_init__(self):
        counts = tuple(int(n) for n in self.counts)
        if not counts or min(counts) < 1:
            raise ValueError("all block counts must be >= 1")
        object.__setattr__(self, "counts", counts)

    @property
    def p(self):
        return len(self.counts)

    @property
    def total(self):
        return sum(self.counts)


def apportion(total, shares):
    """Largest-remainder split of ``total`` points by ``shares``, each >= 1."""
    shares = [float(s) for s in shares]
    p = len(shares)
    if total < p:
        raise ValueError(f"cannot place {total} points on {p} intervals")
    whole = float(np.add.reduce(np.array(shares)))  # NumPy's pairwise order
    if not 0.0 < whole < math.inf:
        raise ValueError(f"shares {shares} do not have a positive finite sum")
    quota = [s / whole * total for s in shares]
    counts = [math.floor(q) for q in quota]
    rem = [q - c for q, c in zip(quota, counts)]
    # Ties broken by lower index: a stable sort on -remainder.
    for j in sorted(range(p), key=lambda j: -rem[j])[: total - sum(counts)]:
        counts[j] += 1
    while min(counts) < 1:
        counts[counts.index(min(counts))] += 1
        counts[counts.index(max(counts))] -= 1
    return MultiIndex(tuple(counts))


@dataclass(frozen=True, eq=False)
class MultiIndexSequence:
    """Deterministic map d = 1, 2, ... -> MultiIndex.

    ``slack`` declares the tolerance schedule for the limit check:
    |counts_i(d)/total(d) - r_i| <= slack / total(d) for every prefix entry.
    ``length`` is the number of steps, None for an unbounded sequence; only
    ``explicit`` sets it.
    """

    fn: object
    slack: float = None  # default p + 1, set in __post_init__
    length: int = field(default=None, init=False)

    def __post_init__(self):
        if self.slack is None:
            object.__setattr__(self, "slack", float(len(self(1).counts) + 1))

    def __call__(self, d):
        d = int(d)
        if d < 1:
            raise ValueError("d starts at 1")
        if self.length is not None and d > self.length:
            raise ValueError(f"sequence defined for d <= {self.length}")
        m = self.fn(d)
        if not isinstance(m, MultiIndex):
            m = MultiIndex(tuple(m))
        return m

    @classmethod
    def proportional(cls, r, start=None, step=None):
        """total(d) = start + step*(d-1), split by largest remainder."""
        r = tuple(float(x) for x in r)
        p = len(r)
        start = p if start is None else int(start)
        step = p if step is None else int(step)
        if start < p or step < 1:
            raise ValueError("need start >= p and step >= 1")
        return cls(
            fn=lambda d: apportion(start + step * (d - 1), r), slack=float(p + 1)
        )

    @classmethod
    def explicit(cls, indices, slack=None):
        ms = tuple(MultiIndex(tuple(m)) for m in indices)
        if slack is None:
            slack = float(max(m.total for m in ms) + 1)
        seq = cls(fn=lambda d: ms[d - 1], slack=slack)
        object.__setattr__(seq, "length", len(ms))
        return seq

    def check_limit(self, r, d_range):
        """Raise if any prefix entry drifts beyond the declared schedule."""
        for d in d_range:
            m = self(d)
            n = m.total
            for ni, ri in zip(m.counts, r):
                if abs(ni / n - ri) > self.slack / n:
                    raise ValueError(
                        f"counts {m.counts} at d={d} drift from masses {r}"
                    )


@dataclass(frozen=True, eq=False)
class Configuration:
    """Points grouped into per-interval blocks, each block sorted."""

    system: IntervalSystem
    blocks: tuple

    def __post_init__(self):
        blocks = tuple(_readonly(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if len(blocks) != self.system.p:
            raise ValueError("need one block per interval")
        for i, b in enumerate(blocks):
            if b.ndim != 1 or b.size < 1:
                raise ValueError("blocks must be nonempty 1-d arrays")
            if np.any(np.diff(b) < 0):
                raise ValueError(f"block {i} is not sorted")
            if not np.all(self.system.contains(i, b)):
                raise CoordinateOutsideSystem(
                    f"block {i} has coordinates outside its interval"
                )

    @property
    def index(self):
        return MultiIndex(tuple(b.size for b in self.blocks))

    @property
    def total(self):
        return sum(b.size for b in self.blocks)

    def flatten(self):
        return np.concatenate(self.blocks)


def sort_into_blocks(raw, system, index):
    """Sort raw coordinates into per-interval blocks of the given sizes.

    The flat input is sorted ascending and split so block i receives the
    next ``index.counts[i]`` coordinates; since the intervals are disjoint
    and increasing this is the unique assignment when one exists.  Raises
    CoordinateOutsideSystem if a coordinate lies in no interval or the
    per-interval counts do not match ``index``.
    """
    raw = np.asarray(raw, dtype=float).ravel()
    if raw.size != index.total:
        raise CoordinateOutsideSystem(
            f"got {raw.size} coordinates for multi-index of total {index.total}"
        )
    xs = np.sort(raw)
    located = [system.locate(x) for x in xs]
    if any(i < 0 for i in located):
        bad = xs[[i < 0 for i in located]]
        raise CoordinateOutsideSystem(f"coordinates outside every interval: {bad}")
    blocks = []
    pos = 0
    for i, n_i in enumerate(index.counts):
        chunk = xs[pos : pos + n_i]
        if not np.all(system.contains(i, chunk)):
            raise CoordinateOutsideSystem(
                f"interval counts do not match multi-index {index.counts}"
            )
        blocks.append(chunk)
        pos += n_i
    return Configuration(system, tuple(blocks))


def counting_measure(X, cells=DEFAULT_CELLS):
    """Bin a configuration into a VectorMeasure on the standard grids.

    Each point of block i carries mass r_i / n_i, so component masses
    reproduce the system's mass vector exactly.
    """
    sys_ = X.system
    return VectorMeasure(tuple(
        GridMeasure.binned(sys_, i, b, sys_.r[i] / b.size, cells)
        for i, b in enumerate(X.blocks)
    ))


def quantile_configuration(mu, index):
    """Place n_i points at the (k - 1/2)/n_i quantiles of component i.

    The inverse CDF is taken piecewise linearly within cells.  Raises
    DegenerateComponent when a requested component has zero mass.
    """
    sys_ = mu.system
    if index.p != sys_.p:
        raise ValueError("multi-index size must match the system")
    blocks = []
    for i, n_i in enumerate(index.counts):
        g = mu[i]
        if g.mass <= 0.0:
            raise DegenerateComponent(f"component {i} has zero mass")
        # Edges derived from the measure's own grid, whatever its resolution.
        edges = np.concatenate(([g.nodes[0] - g.cell_width / 2],
                                g.nodes + g.cell_width / 2))
        cum = np.concatenate(([0.0], np.cumsum(g.weights)))
        targets = (np.arange(n_i) + 0.5) / n_i * g.mass
        # side='left' lands in a positive-weight cell for every target in
        # (0, mass]: cum[j-1] < t <= cum[j] forces weights[j-1] > 0.
        j = np.searchsorted(cum, targets, side="left")
        j = np.clip(j, 1, g.cells)
        w = cum[j] - cum[j - 1]
        frac = np.where(w > 0, (targets - cum[j - 1]) / np.where(w > 0, w, 1.0), 0.0)
        xs = edges[j - 1] + frac * g.cell_width
        blocks.append(np.sort(xs))
    return Configuration(sys_, tuple(blocks))


def weak_star_distance(mu, nu):
    """Max over components of the sup |CDF difference| at cell boundaries.

    Both arguments must live on identical grids; otherwise GridMismatch.
    """
    if mu.system != nu.system:
        raise GridMismatch("measures live on different interval systems")
    worst = 0.0
    for gm, gn in zip(mu, nu):
        if gm.cells != gn.cells or not np.allclose(
            gm.nodes, gn.nodes, rtol=0.0, atol=1e-12
        ):
            raise GridMismatch(
                f"component {gm.interval_index} grids differ "
                f"({gm.cells} vs {gn.cells} cells)"
            )
        worst = max(worst, float(np.max(np.abs(gm.cdf() - gn.cdf()))))
    return worst


def write_csv(path, header, columns):
    """Header line, then one line per row of ``columns`` (arrays or
    sequences of one length): a column whose first entry is a float as
    %.17g, any other column as str.

    Lines are formatted ``CSV_ROWS`` at a time, by one ``%`` on the row
    format repeated.
    """
    cols = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    fmt = ",".join("%.17g" if c and isinstance(c[0], float) else "%s" for c in cols)
    width, step = len(cols), len(cols) * CSV_ROWS
    values = [None] * (width * len(cols[0]))  # row-major
    for j, c in enumerate(cols):
        values[j::width] = c
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, len(values), step):
            chunk = tuple(values[a : a + step])
            fh.write((fmt + "\n") * (len(chunk) // width) % chunk)
    return str(path)


def write_json(path, payload):
    """Indented, key-sorted JSON with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)
