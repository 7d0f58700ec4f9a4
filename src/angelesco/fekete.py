"""Extremal configurations of the ensemble interaction weight.

The log interaction weight of a configuration X with blocks X^(i) is

    sum_i sum_{r != s} log|x_r^(i) - x_s^(i)|
        + sum_{i<j} sum_{r,s} log|x_r^(j) - x_s^(i)|
        - 2 n sum_i sum_k Q_i(x_k^(i)),

i.e. squared repulsion within a block, plain repulsion across blocks, and an
external-field term scaled by the total point count n.  Fekete configurations
maximize it.

On the ordered sector the weight is a sum of logs of positive affine forms
minus the field term: concave for convex fields, with the boxes [a_i, b_i] as
the only constraints.  Each start runs a projected Newton ascent on it, holds
points pushed outward at a box end and backtracks every step on the exact
weight.  For a non-convex field that finds only a local maximum, so a scan of
every point's slice over a grid of its whole interval follows; a point that
can gain more than ``tol`` jumps to the best node and Newton runs again.
``coordinatewise_optimal`` says that the last scan found no such move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Configuration, DEFAULT_CELLS, counting_measure, weak_star_distance
from .energy import as_field
from .equilibrium import solve_equilibrium

SCAN_NODES = 2049  # grid nodes per interval for the single-coordinate scan
MAX_ROUNDS = 8  # Newton ascents and scans per start
MAX_NEWTON = 200
ARMIJO = 1e-4


@dataclass(frozen=True, eq=False)
class FeketeResult:
    configuration: Configuration
    log_boltzmann: float
    normalized: float  # log_boltzmann / n^2
    starts_used: int
    coordinatewise_optimal: bool


@dataclass(frozen=True)
class FeketeTrendRow:
    d: int
    total: int
    normalized: float
    distance_to_equilibrium: float


def log_boltzmann(X, field=None, index=None):
    """Log interaction weight of a configuration; -inf on any collision.

    ``index`` defaults to the configuration's own block sizes and is checked
    against them otherwise.
    """
    index = X.index if index is None else index
    if tuple(index.counts) != tuple(X.index.counts):
        raise ValueError("multi-index does not match the configuration")
    field = as_field(field, X.system.p)
    n = X.total
    interaction = 0.0
    for i, b in enumerate(X.blocks):
        if b.size > 1:
            d = np.abs(b[:, None] - b[None, :])
            iu = np.triu_indices(b.size, k=1)
            gaps = d[iu]
            if np.any(gaps == 0.0):
                return float("-inf")
            interaction += 2.0 * float(np.sum(np.log(gaps)))  # ordered pairs
        for j in range(i + 1, X.system.p):
            d = np.abs(X.blocks[j][:, None] - b[None, :])
            if np.any(d == 0.0):
                return float("-inf")
            interaction += float(np.sum(np.log(d)))
    fld = 0.0
    if not field.is_zero:
        fld = sum(float(np.sum(field(i, b))) for i, b in enumerate(X.blocks))
    return interaction - 2.0 * n * fld


class _Ascent:
    """The weight as a function of the flat vector of all coordinates.

    Blocks are contiguous in the vector; ``c`` holds the pair coefficients
    (2 within a block, 1 across blocks, 0 on the diagonal).
    """

    def __init__(self, system, field, index):
        self.system, self.field = system, field
        self.n = index.total
        ends = np.cumsum((0,) + tuple(index.counts))
        self.blocks = [slice(s, e) for s, e in zip(ends[:-1], ends[1:])]
        self.block_of = block = np.repeat(np.arange(system.p), index.counts)
        self.c = np.where(block[:, None] == block[None, :], 2.0, 1.0)
        np.fill_diagonal(self.c, 0.0)
        self.lo, self.hi = np.array([system.intervals[i] for i in block]).T
        self.grids = [np.linspace(a, b, SCAN_NODES) for a, b in system.intervals]

    def configuration(self, x):
        return Configuration(self.system, tuple(np.sort(x[s]) for s in self.blocks))

    def value(self, x):
        return log_boltzmann(self.configuration(x), self.field)

    def field_slopes(self, x):
        """Q_i' and max(Q_i'', 0) at every point, by central differences.

        The stencil is moved inside the interval near its ends and Q_i' is
        taken from the quadratic through the three values, so it is exact
        for quadratic fields and never samples outside [a_i, b_i].
        """
        slope = np.zeros_like(x)
        curvature = np.zeros_like(x)
        for i, s in enumerate(self.blocks):
            a, b = self.system.intervals[i]
            h = 1e-5 * (b - a)
            t = np.clip(x[s], a + h, b - h)
            qm, q0, qp = (self.field(i, t + e) for e in (-h, 0.0, h))
            second = (qp - 2.0 * q0 + qm) / h**2
            slope[s] = (qp - qm) / (2.0 * h) + second * (x[s] - t)
            curvature[s] = np.maximum(second, 0.0)
        return slope, curvature

    def newton(self, x, tol):
        """Projected Newton ascent from x; returns the final point."""
        value = self.value(x)
        for _ in range(MAX_NEWTON):
            diff = x[:, None] - x[None, :]
            np.fill_diagonal(diff, 1.0)
            pull = self.c / diff
            stiff = pull / diff
            slope, curvature = self.field_slopes(x)
            g = pull.sum(axis=1) - 2.0 * self.n * slope
            a = -stiff  # minus the Hessian, positive semidefinite
            np.fill_diagonal(a, stiff.sum(axis=1) + 2.0 * self.n * curvature)
            free = ~(((x <= self.lo) & (g < 0)) | ((x >= self.hi) & (g > 0)))
            g_f, a_f = g[free], a[np.ix_(free, free)]
            d_f = np.diag(a_f)
            # A zero diagonal means one point under a linear field: any
            # nonzero slope then drives it to the box end.
            gains = 0.5 * g_f**2 / np.maximum(d_f, np.finfo(float).tiny)
            if np.max(gains, initial=0.0) <= tol:
                break
            # The shift only settles the common translation of all points,
            # along which a zero field leaves the weight flat.
            a_f[np.diag_indices_from(a_f)] += 1e-10 * d_f + 1e-300
            step = np.linalg.solve(a_f, g_f)
            t = 1.0
            while t > 1e-15:
                y = x.copy()
                y[free] = np.clip(x[free] + t * step, self.lo[free], self.hi[free])
                trial = self.value(y)  # -inf on a collision
                if trial >= value + ARMIJO * float(g @ (y - x)):
                    break
                t *= 0.5
            else:
                break
            x, value, gained = y, trial, trial - value
            if gained <= tol:
                break
        return x

    def scan(self, x):
        """Best grid position and exact gain of every single-coordinate move.

        The slice of point k in block i is T_i(t) - 2 log|t - x_k| with the
        table T_i(t) = sum_l c_il log|t - x_l| - 2 n Q_i(t) over all points.
        """
        diff = np.abs(x[:, None] - x[None, :])
        np.fill_diagonal(diff, 1.0)
        current = (self.c * np.log(diff)).sum(axis=1)
        current -= 2.0 * self.n * np.concatenate(
            [self.field(i, x[s]) for i, s in enumerate(self.blocks)]
        )
        gains, targets = np.empty_like(x), np.empty_like(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            for i, (s, t) in enumerate(zip(self.blocks, self.grids)):
                logs = np.log(np.abs(t[None, :] - x[:, None]))
                table = np.where(self.block_of == i, 2.0, 1.0) @ logs
                slices = table - 2.0 * self.n * self.field(i, t) - 2.0 * logs[s]
                slices[np.isnan(slices)] = -np.inf  # the point's own node
                best = np.argmax(slices, axis=1)
                gains[s] = slices[np.arange(best.size), best] - current[s]
                targets[s] = t[best]
        return gains, targets

    def run(self, rng, tol):
        x = rng.uniform(self.lo, self.hi)
        for _ in range(MAX_ROUNDS):
            x = self.newton(x, tol)
            gains, targets = self.scan(x)
            k = int(np.argmax(gains))
            certified = bool(gains[k] <= tol)
            if certified:
                break
            x[k] = targets[k]
        X = self.configuration(x)
        return X, log_boltzmann(X, self.field), certified


def fekete_points(system, index, field=None, n_starts=4, tol=1e-10, seed=0):
    """Best of ``n_starts`` projected Newton ascents for the maximizer.

    Each start draws its initial configuration from an independently seeded
    stream.
    """
    ascent = _Ascent(system, as_field(field, system.p), index)
    starts = np.random.SeedSequence(seed).spawn(n_starts)
    # max keeps the first start among equal weights
    X, value, certified = max(
        (ascent.run(np.random.default_rng(s), tol) for s in starts),
        key=lambda r: r[1],
    )
    return FeketeResult(X, value, value / index.total**2, n_starts, certified)


def fekete_asymptotics(
    system,
    seq,
    d_max,
    field=None,
    equilibrium_measure=None,
    cells=DEFAULT_CELLS,
    n_starts=2,
    tol=1e-10,
    seed=0,
):
    """Normalized log weight and distance to equilibrium for d = 1..d_max.

    Returns (trend rows, the FeketeResult per d).  The distance column uses
    the block-normalized counting measure against the equilibrium measure,
    solved here when not supplied.
    """
    if equilibrium_measure is None:
        eq = solve_equilibrium(system, field=field, cells=cells)
        equilibrium_measure = eq.measure
    rows = []
    results = []
    for d in range(1, d_max + 1):
        m = seq(d)
        res = fekete_points(
            system, m, field, n_starts=n_starts, tol=tol, seed=seed + d
        )
        dist = weak_star_distance(
            counting_measure(res.configuration, cells),
            equilibrium_measure,
        )
        rows.append(FeketeTrendRow(d, m.total, res.normalized, dist))
        results.append(res)
    return rows, results


def export_csv(result, path):
    rows = ["block,index,coordinate"]
    for i, b in enumerate(result.configuration.blocks):
        for k, x in enumerate(b):
            rows.append(f"{i},{k},{x:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
