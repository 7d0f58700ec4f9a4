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
the only constraints.  Each start runs a projected Newton ascent on it
(Bertsekas, SIAM J. Control Optim. 20, 1982) with the points of each block
kept sorted.  A block's outermost point within eps of its end and pushed
outward is held: it goes onto the end along the step, and Newton solves for
the other points.  eps is the smaller of ``EPSILON`` of the interval and the
largest move of a projected gradient step, so it vanishes at a maximum.  The
Armijo backtracking on the exact weight starts at t = 1, or at ``CAP`` times
the first t at which two neighbours of a block meet on the clipped step
(crossing, or clipped onto one end) if that is earlier, so no trial collides.
The fields known to be convex are the zero field and ``quadratic`` with scale
>= 0, which ``energy`` marks ``convex``.  Under them an ascent that stops on
Newton's own test (no point can gain more than ``tol`` by its Newton or
end move) is at the maximum, so no further start runs.  Otherwise, and
whenever Newton stalls first, a scan of every point's slice over a grid of
its interval and a sampled field's kinks follows; a point that can gain more
than ``tol`` jumps to the best node and Newton runs again.
``coordinatewise_optimal`` says that Newton's test passed under a concave
weight, or that the last scan found no such move.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import Configuration, DEFAULT_CELLS, counting_measure, weak_star_distance
from .energy import as_field
from .equilibrium import solve_equilibrium

SCAN_NODES = 2049  # grid nodes per interval for the single-coordinate scan
MAX_ROUNDS = 8  # Newton ascents and scans per start
MAX_NEWTON = 200
ARMIJO = 1e-4
EPSILON = 3e-2  # widest active-set band, as a share of the interval
CAP = 0.8  # first trial as a share of the step to the first meeting


@dataclass(frozen=True, eq=False)
class FeketeResult:
    configuration: Configuration
    log_boltzmann: float
    normalized: float  # log_boltzmann / n^2
    starts_used: int  # starts run, at most n_starts
    coordinatewise_optimal: bool
    evaluations: int  # exact weight evaluations, summed over starts
    newton_steps: int  # Newton systems solved, summed over starts


@dataclass(frozen=True)
class FeketeTrendRow:
    d: int
    total: int
    normalized: float
    distance_to_equilibrium: float


@lru_cache(maxsize=8)
def _upper_pairs(size):
    """Read-only row and column indices of the strict upper triangle."""
    pairs = np.triu_indices(size, k=1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


def log_boltzmann(X, field=None, index=None):
    """Log interaction weight of a configuration; -inf on any collision.

    ``index`` defaults to the configuration's own block sizes and is checked
    against them otherwise.
    """
    index = X.index if index is None else index
    if tuple(index.counts) != tuple(X.index.counts):
        raise ValueError("multi-index does not match the configuration")
    interaction, fld = _log_weight(X.blocks, as_field(field, X.system.p))
    return float(interaction - 2.0 * X.total * fld)


def _log_weight(blocks, field):
    """Interaction and field sum of blocks given in any order within each.

    The interaction is -inf on a collision; the field sum is 0.0 for a zero
    field.  Blocks may carry leading axes, one configuration per entry, and
    each entry gets the bits of its own 1-d call: every sum runs along the
    last axis of a C-contiguous array, as the flat sum of one call does.
    """
    interaction = 0.0
    with np.errstate(divide="ignore"):  # log 0 = -inf marks a collision
        for i, b in enumerate(blocks):
            if b.shape[-1] > 1:
                r, c = _upper_pairs(b.shape[-1])
                gaps = np.ascontiguousarray(b[..., c] - b[..., r])
                interaction = interaction + 2.0 * _log_sum(gaps)  # ordered pairs
            for other in blocks[i + 1:]:
                d = other[..., :, None] - b[..., None, :]
                interaction = interaction + _log_sum(d.reshape(*b.shape[:-1], -1))
    fld = 0.0
    if not field.is_zero:
        for i, b in enumerate(blocks):
            fld = fld + field(i, b).sum(axis=-1)
    return interaction, fld


def _log_sum(d):
    """Sum of log|d| along the last axis, in place on d."""
    return np.log(np.abs(d, out=d), out=d).sum(axis=-1)


def _concave(field):
    """Whether every component is zero or marked ``convex``, which makes the
    weight concave on the ordered sector."""
    return all(f is None or getattr(f, "convex", False) for f in field._funcs)


class _Ascent:
    """The weight as a function of the flat vector of all coordinates.

    Blocks are contiguous in the vector and each is kept sorted, so block i
    has its outermost points at ``first[i]`` and ``last[i]`` and every
    neighbour pair at (k, k + 1) for k in ``pairs``.  ``c`` holds the pair
    coefficients (2 within a block, 1 across blocks, 0 on the diagonal).
    """

    def __init__(self, system, field, index):
        self.system, self.field = system, field
        self.n = index.total
        ends = np.cumsum((0,) + tuple(index.counts))
        self.blocks = [slice(s, e) for s, e in zip(ends[:-1], ends[1:])]
        self.first, self.last = ends[:-1], ends[1:] - 1
        self.pairs = np.setdiff1d(np.arange(self.n - 1), self.last)
        self.block_of = block = np.repeat(np.arange(system.p), index.counts)
        self.c = np.where(block[:, None] == block[None, :], 2.0, 1.0)
        np.fill_diagonal(self.c, 0.0)
        self.lo, self.hi = np.array([system.intervals[i] for i in block]).T
        self.band = EPSILON * (self.hi - self.lo)
        self.concave = _concave(field)
        self.evaluations = self.newton_steps = 0  # summed over starts

    @cached_property
    def grids(self):
        """The scan's nodes per interval: a uniform grid and the field's kinks."""
        knots = [getattr(f, "knots", np.empty(0)) for f in self.field._funcs]
        return [
            np.union1d(np.linspace(a, b, SCAN_NODES), k[(k >= a) & (k <= b)])
            for (a, b), k in zip(self.system.intervals, knots)
        ]

    def value(self, x):
        self.evaluations += 1
        interaction, fld = _log_weight([x[s] for s in self.blocks], self.field)
        return float(interaction - 2.0 * self.n * fld)

    def field_slopes(self, x):
        """Q_i' and max(Q_i'', 0) at every point, by central differences.

        The stencil is moved inside the interval near its ends and Q_i' is
        taken from the quadratic through the three values, so it is exact
        for quadratic fields and never samples outside [a_i, b_i].
        """
        slope = np.zeros_like(x)
        curvature = np.zeros_like(x)
        if self.field.is_zero:
            return slope, curvature
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
        """Projected Newton ascent from x, sorted within blocks; returns the
        final point, which stops short of every meeting and so stays sorted,
        and whether the ascent stopped on its test, every gain <= tol."""
        value = self.value(x)
        lo, hi, first, last = self.lo, self.hi, self.first, self.last
        for _ in range(MAX_NEWTON):
            diff = x[:, None] - x[None, :]
            np.fill_diagonal(diff, 1.0)
            pull = self.c / diff
            stiff = pull / diff
            slope, curvature = self.field_slopes(x)
            g = pull.sum(axis=1) - 2.0 * self.n * slope
            a = -stiff  # minus the Hessian, positive semidefinite
            diag = stiff.sum(axis=1) + 2.0 * self.n * curvature
            # A zero diagonal means one point under a linear field: any
            # nonzero slope then drives it to the box end.
            gains = 0.5 * g**2 / np.maximum(diag, np.finfo(float).tiny)
            # The epsilon-active set; a held point reaches its end at t = 1.
            eps = np.minimum(self.band, np.max(np.abs(x - np.clip(x + g, lo, hi))))
            low = first[(x[first] - lo[first] <= eps[first]) & (g[first] < 0)]
            high = last[(hi[last] - x[last] <= eps[last]) & (g[last] > 0)]
            held = np.concatenate((low, high))
            to_end = np.concatenate((lo[low], hi[high])) - x[held]
            gains[held] = g[held] * to_end
            if np.max(gains) <= tol:
                return x, True
            self.newton_steps += 1
            # The shift only settles the common translation of all points,
            # along which a zero field leaves the weight flat.
            np.fill_diagonal(a, diag * (1.0 + 1e-10) + 1e-300)
            a[held], a[:, held], a[held, held] = 0.0, 0.0, 1.0
            step = np.linalg.solve(a, g)
            step[held] = to_end
            t = min(1.0, CAP * self.first_meeting(x, step))
            while t > 1e-15:
                y = np.clip(x + t * step, lo, hi)
                trial = self.value(y)  # -inf on a collision
                if trial >= value + ARMIJO * float(g @ (y - x)):
                    break
                t *= 0.5
            else:
                break
            x, value, gained = y, trial, trial - value
            if gained <= tol:
                break
        return x, False

    def first_meeting(self, x, step):
        """First t at which two neighbours of a block meet on clip(x + t step).

        For neighbours k < l the unclipped paths cross at
        (x_l - x_k) / (step_k - step_l); before that both sit on one end once
        k reaches the upper end or l the lower one.
        """
        k = self.pairs
        l = k + 1
        sk, sl = step[k], step[l]
        with np.errstate(divide="ignore", invalid="ignore"):
            meet = np.minimum.reduce([
                np.where(sk > sl, (x[l] - x[k]) / (sk - sl), np.inf),
                np.where(sk > 0, (self.hi[k] - x[k]) / sk, np.inf),
                np.where(sl < 0, (self.lo[l] - x[l]) / sl, np.inf),
            ])
        return float(np.min(meet, initial=np.inf))

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
            for s in self.blocks:
                x[s].sort()
            x, certified = self.newton(x, tol)
            if certified and self.concave:
                break
            gains, targets = self.scan(x)
            k = int(np.argmax(gains))
            certified = bool(gains[k] <= tol)
            if certified:
                break
            x[k] = targets[k]  # may pass its neighbours: sorted again below
        X = Configuration(self.system, tuple(np.sort(x[s]) for s in self.blocks))
        return X, log_boltzmann(X, self.field), certified


def fekete_points(system, index, field=None, n_starts=4, tol=1e-10, seed=0):
    """Best of at most ``n_starts`` projected Newton ascents for the maximizer.

    Each start draws its initial configuration from an independently seeded
    stream.  Under a concave weight the first certified start is the
    maximum, and the starts after it are not run.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be at least 1, got {n_starts}")
    ascent = _Ascent(system, as_field(field, system.p), index)
    results = []
    for s in np.random.SeedSequence(seed).spawn(n_starts):
        results.append(ascent.run(np.random.default_rng(s), tol))
        if ascent.concave and results[-1][2]:
            break
    # max keeps the first start among equal weights
    X, value, certified = max(results, key=lambda r: r[1])
    return FeketeResult(
        X, value, value / index.total**2, len(results), certified,
        ascent.evaluations, ascent.newton_steps,
    )


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
