"""Seeded inputs for the four benchmark workloads.

Each workload is an endless, deterministic stream of CLI runs built from one
``random.Random`` seeded with the workload name and the seed argument; that
generator is the only source of randomness, so one seed always yields
byte-identical config files.  Configs use only the documented schema.

Every workload cycles through a fixed list of slots (command, size, oracle)
and draws the geometry of each slot from the seed, stratified over the
cycles of one measurement (``Draws``).  The slot list fixes the mix of cheap
and expensive runs, so the median and tail of a measurement depend on the
program rather than on which sizes the seed happened to draw.

Power base measures are placed only on intervals with a nonnegative left
end: the program builds ``power(k)`` as x**k, which is negative for odd k on
a negative interval, and such runs exit 1 today.  The benchmark records
that defect once per invocation (``run.known_defect_probe``) instead of
counting it in every timed window.
"""

import itertools
import json
import math
import random
from collections import OrderedDict
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Run:
    """One CLI run: the command, its config, and what the benchmark checks."""

    command: str
    config: dict
    oracle: str = ""  # name of the closed form checked, "" for none
    z_points: tuple = field(default=())

    def text(self):
        return json.dumps(self.config, sort_keys=True) + "\n"

    @property
    def intervals(self):
        return [tuple(iv) for iv in self.config["intervals"]]

    @property
    def p(self):
        return len(self.config["intervals"])

    @property
    def grid(self):
        return int(self.config["grid"])

    @property
    def counts(self):
        seq = self.config.get("sequence")
        if seq and seq.get("rule") == "explicit":
            return list(seq["indices"][0])
        return []

    @property
    def n(self):
        return sum(self.counts)

    @property
    def solves_equilibrium(self):
        return self.command in ("eqm", "ldp", "fekete")

    @property
    def kernel_key(self):
        """What the program's kernel cache is keyed on: system and grid."""
        return (
            tuple(tuple(iv) for iv in self.config["intervals"]),
            tuple(self.config["masses"]),
            self.grid,
        )

    @property
    def mode(self):
        """How the run integrates over configurations: quadrature, MC or none."""
        if self.command == "zconst":
            return "quadrature"
        if self.command == "mop":
            return "quadrature" if self.n <= 4 else "monte_carlo"
        return ""

    @property
    def tensor_nodes(self):
        """Tensor-quadrature nodes the run integrates over, computed.

        The program's defaults: a budget of 2^25 nodes shared out per
        dimension, at least 8 and at most 8 x grid nodes each.
        """
        if self.mode != "quadrature":
            return 0
        per_dim = min(8 * self.grid, max(int((2 ** 25) ** (1.0 / self.n)), 8))
        return per_dim ** self.n


class KernelCacheMirror:
    """The program's kernel cache replayed from its keys: ``size`` entries, LRU out first.

    ``size`` is the cache's own ``maxsize`` (``None`` holds every key, 0 none).
    ``touch`` says whether the key was held; ``resident`` sums the sizes of the
    entries held now.
    """

    def __init__(self, size):
        self.size = size
        self.held = OrderedDict()

    def touch(self, key, nbytes=0):
        hit = key in self.held
        self.held[key] = nbytes
        self.held.move_to_end(key)
        while self.size is not None and len(self.held) > self.size:
            self.held.popitem(last=False)
        return hit

    @property
    def resident(self):
        return sum(self.held.values())


def _r(x):
    return round(float(x), 6)


class Draws:
    """Stratified draws from the one seeded generator of a workload.

    Across each block of ``cycles`` consecutive cycles of a slot list, the
    k-th draw made for a slot lands once in each of the ``cycles`` equal
    strata of [0, 1) (a Latin hypercube over cycles).  Every measurement
    then sees the low, middle and high end of each parameter range, so its
    statistics vary less from seed to seed than with plain draws.
    """

    def __init__(self, rng, cycles):
        self.rng = rng
        self.cycles = cycles
        self._perms = {}
        self.at(0, 0)

    def at(self, cycle, slot):
        self._cycle, self._slot, self._k = cycle, slot, 0

    def random(self):
        key = (self._cycle // self.cycles, self._slot, self._k)
        if key not in self._perms:
            self._perms[key] = self.rng.sample(range(self.cycles), self.cycles)
        self._k += 1
        stratum = self._perms[key][self._cycle % self.cycles]
        return (stratum + self.rng.random()) / self.cycles

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.random()

    def loguniform(self, lo, hi):
        return math.exp(self.uniform(math.log(lo), math.log(hi)))

    def seed(self):
        """The program's own seed: fixed per cycle and slot, not drawn.

        Random starts and Markov chains then repeat from one measurement to
        the next, and the spread between measurements comes from the
        geometry and the machine, not from the program's random streams.
        """
        return 1000 * self._cycle + self._slot


def _layout(d, p, lengths=(0.5, 2.0), gaps=(0.01, 2.0), start=None):
    """p disjoint increasing intervals, gaps log-uniform in ``gaps``."""
    a = d.uniform(-2.0, 0.0) if start is None else start
    out = []
    for _ in range(p):
        b = a + d.uniform(*lengths)
        out.append([_r(a), _r(b)])
        a = b + d.loguniform(*gaps)
    return out


def _masses(d, p):
    if p == 1:
        return [1.0]
    w = [d.uniform(0.5, 1.5) for _ in range(p)]
    head = [_r(x / sum(w)) for x in w[:-1]]
    return head + [1.0 - sum(head)]


def _quadratic(d, intervals, scales=(0.1, 1.0)):
    lo, hi = intervals[0][0], intervals[-1][1]
    return "quadratic(%r,%r)" % (_r(d.uniform(lo, hi)), _r(d.loguniform(*scales)))


def _base(config, **extra):
    out = {"schema_version": 1, "base_measures": "lebesgue"}
    out.update(config)
    out.update(extra)
    return out


def _explicit(counts):
    return {"rule": "explicit", "indices": [list(counts)]}


def _slots(rng, cycles, slots):
    """(draws, cycle, slot index, slot) for cycle after cycle of ``slots``."""
    d = Draws(rng, cycles)
    for cycle in itertools.count():
        for i, slot in enumerate(slots):
            d.at(cycle, i)
            yield d, cycle, i, slot


# ------------------------------------------------------------- eqm_sweep

# (command, p, grid, closed form); 3 of 12 runs are ldp, 3 are one-interval
# closed-form cases, 2 use grid 1600, and p = 3 stays at grid <= 800.  The
# slots are ordered by cost here; three runs of similar cost (p = 2 at grid
# 800) sit in the middle of the cost order, so the median of whole cycles
# lands in one cluster instead of on a jump between two.
EQM_SLOTS = (
    ("eqm", 1, 400, "arcsine"),
    ("eqm", 1, 800, "semicircle"),
    ("eqm", 2, 400, ""),
    ("ldp", 2, 400, ""),
    ("eqm", 3, 400, ""),
    ("eqm", 2, 800, ""),
    ("ldp", 2, 800, ""),
    ("ldp", 2, 800, ""),
    ("eqm", 1, 1600, "arcsine"),
    ("eqm", 3, 800, ""),
    ("eqm", 3, 800, ""),
    ("eqm", 2, 1600, ""),
)


def _closed_form_interval(d, kind):
    if kind == "arcsine":
        return {"intervals": _layout(d, 1), "masses": [1.0], "fields": "zero"}
    # A wide enough interval holds the whole semicircle support.
    scale = _r(d.loguniform(0.3, 3.0))
    center = _r(d.uniform(-1.0, 1.0))
    half = 1.0 / math.sqrt(scale)
    a = _r(center - half * (1.0 + d.uniform(0.05, 0.5)))
    b = _r(center + half * (1.0 + d.uniform(0.05, 0.5)))
    return {"intervals": [[a, b]], "masses": [1.0],
            "fields": "quadratic(%r,%r)" % (center, scale)}


def eqm_sweep(rng, cycles):
    for d, cycle, i, (command, p, grid, kind) in _slots(rng, cycles, EQM_SLOTS):
        if kind:
            cfg = _base(_closed_form_interval(d, kind))
        else:
            intervals = _layout(d, p)
            quadratic = (cycle + i) % 2
            cfg = _base({
                "intervals": intervals, "masses": _masses(d, p),
                "fields": _quadratic(d, intervals) if quadratic else "zero",
            })
        cfg.update(grid=grid, seed=d.seed())
        if command == "ldp":
            cfg["ldp"] = {"n_list": [50, 100, 200], "n_configs": 100}
        yield Run(command, cfg, oracle=kind)


# The warm-ups are large enough for OpenBLAS to start its threads, a one-off
# cost that otherwise lands in a timed run of about one process in three.
def eqm_warmup():
    return Run("eqm", _base({
        "intervals": [[-1.0, 0.0], [0.5, 1.5]], "masses": [0.5, 0.5],
        "fields": "zero", "grid": 500, "seed": 0,
    }))


# ------------------------------------------------------- fekete_extremal

# (system, total points); systems 0 and 2 have one interval, 1 and 3 two
# intervals with equal masses; fields are zero on 0 and 1, quadratic on 2
# and 3.  Four fixed systems keep the grid-400 equilibrium solve behind the
# distance column in the kernel cache after its first run.  Three cheap
# slots, two alike and three dear ones: the median and the tail rank of
# three cycles both fall among the six runs of (0, 11), not on a jump
# between two slots of different cost.
FEKETE_SLOTS = ((1, 8), (1, 9), (0, 8), (0, 11), (0, 11), (1, 16), (3, 14), (2, 16))


def fekete_extremal(rng, cycles):
    fixed = Draws(rng, 1)
    systems = []
    for i in range(4):
        p = 1 + i % 2
        # Narrow ranges: the ascent's cost depends on the geometry, and four
        # systems per seed are too few to average a wide range out.
        intervals = _layout(fixed, p, lengths=(0.8, 1.2), gaps=(0.3, 0.8))
        field = "zero" if i < 2 else _quadratic(fixed, intervals, scales=(0.3, 0.6))
        systems.append({"intervals": intervals, "masses": [1.0 / p] * p, "fields": field})
    for d, _, _, (which, n) in _slots(rng, cycles, FEKETE_SLOTS):
        system = systems[which]
        counts = [n] if which % 2 == 0 else [n // 2, n - n // 2]
        cfg = _base(system, grid=400, seed=d.seed(), sequence=_explicit(counts),
                    fekete={"d_max": 1, "n_starts": 2, "tol": 1e-10})
        yield Run("fekete", cfg, oracle="fekete_interval" if which == 0 else "")


def fekete_warmup():
    return Run("fekete", _base({
        "intervals": [[-1.0, 0.0], [0.5, 1.5]], "masses": [0.5, 0.5],
        "fields": "zero", "grid": 500, "seed": 0, "sequence": _explicit([3, 3]),
        "fekete": {"d_max": 1, "n_starts": 2, "tol": 1e-10},
    }))


# -------------------------------------------------------- gibbs_sampling

# (n, grid, intervals, n_samples, closed form); the conditional grid is 8 x
# grid.  Closed-form slots are one-interval, zero-field and Lebesgue.
GIBBS_SLOTS = (
    (8, 200, 1, 20, True),
    (10, 800, 2, 10, False),
    (12, 400, 1, 10, True),
    (14, 200, 2, 10, False),
    (16, 200, 1, 10, True),
    (20, 200, 1, 5, False),
    (24, 200, 2, 5, False),
    (28, 200, 1, 5, True),
    (32, 200, 1, 5, False),
    (36, 200, 2, 5, False),
    (40, 200, 1, 5, True),
    (48, 200, 1, 5, False),
)


def gibbs_sampling(rng, cycles):
    for d, cycle, i, (n, grid, p, n_samples, closed) in _slots(rng, cycles, GIBBS_SLOTS):
        intervals = _layout(d, p, start=d.uniform(-1.0, 1.0))
        fields, bases = "zero", "lebesgue"
        if not closed:
            if (cycle + i) % 2:
                fields = _quadratic(d, intervals)
            # power(k) is built as x**k: only where that is a density.
            k = 1 + (cycle + i) % 3
            bases = ["power(%d)" % k if a >= 0.0 and j == (cycle + i) % p else "lebesgue"
                     for j, (a, _) in enumerate(intervals)]
        counts = [n] if p == 1 else [n // 2, n - n // 2]
        cfg = _base({
            "intervals": intervals, "masses": [1.0 / p] * p, "fields": fields,
            "base_measures": bases, "grid": grid, "seed": d.seed(),
            "sequence": _explicit(counts),
            "sample": {"d": 1, "n_samples": n_samples},
        })
        yield Run("sample", cfg, oracle="heine_legendre" if closed else "")


def gibbs_warmup():
    return Run("sample", _base({
        "intervals": [[-1.0, 1.0]], "masses": [1.0], "fields": "zero",
        "grid": 100, "seed": 0, "sequence": _explicit([6]),
        "sample": {"d": 1, "n_samples": 5},
    }))


# --------------------------------------------------------- exact_small_n

# (command, counts, kind); kinds: "pair" two intervals one point each,
# "selberg" one interval Lebesgue, "jacobi" one interval [0, b] with x**k,
# "angelesco" two intervals Lebesgue.  mop with more than 4 points runs by
# Monte Carlo in the program, the others by tensor quadrature.  Three
# near-free slots, two alike (three points by quadrature) and three dear
# ones: the median and the tail rank of three cycles fall in the middle two.
EXACT_SLOTS = (
    ("zconst", (1, 1), "pair"),
    ("zconst", (2,), "jacobi"),
    ("mop", (1, 1), "angelesco"),
    ("mop", (3,), "jacobi"),
    ("mop", (2, 1), "angelesco"),
    ("zconst", (4,), "jacobi"),
    ("mop", (3, 3), "angelesco"),
    ("zconst", (5,), "selberg"),
)


def exact_small_n(rng, cycles):
    for d, cycle, i, (command, counts, kind) in _slots(rng, cycles, EXACT_SLOTS):
        p = len(counts)
        bases = "lebesgue"
        if kind == "jacobi":
            intervals = [[0.0, _r(d.uniform(0.5, 2.0))]]
            bases = "power(%d)" % (1 + (cycle + i) % 3)
        else:
            intervals = _layout(d, p)
        cfg = _base({
            "intervals": intervals, "masses": [c / sum(counts) for c in counts],
            "fields": "zero", "base_measures": bases,
            "grid": (50, 100, 200)[(cycle + i) % 3], "seed": d.seed(),
            "sequence": _explicit(counts),
        })
        z_points = ()
        if command == "zconst":
            cfg["zconst"] = {"d_list": [1], "epsilon": 0.05}
        else:
            lo, hi = intervals[0][0], intervals[-1][1]
            z_points = (_r(lo - 0.5 * (hi - lo)), _r(hi + 0.5 * (hi - lo)))
            cfg["mop"] = {"d": 1, "z_points": list(z_points)}
        yield Run(command, cfg, oracle=kind, z_points=z_points)


def exact_warmup():
    return Run("zconst", _base({
        "intervals": [[0.0, 1.0]], "masses": [1.0], "fields": "zero",
        "grid": 40, "seed": 0, "sequence": _explicit([2]),
        "zconst": {"d_list": [1], "epsilon": 0.05},
    }))


@dataclass(frozen=True)
class Workload:
    name: str
    stream: object  # (rng, cycles) -> iterator of Run, one slot list after another
    warmup: object  # () -> Run, an input outside the timed set
    slots: int  # runs per cycle of the slot list
    cycles: int  # whole cycles one measurement runs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("eqm_sweep", eqm_sweep, eqm_warmup, len(EQM_SLOTS), 3),
        Workload("fekete_extremal", fekete_extremal, fekete_warmup, len(FEKETE_SLOTS), 3),
        Workload("gibbs_sampling", gibbs_sampling, gibbs_warmup, len(GIBBS_SLOTS), 2),
        Workload("exact_small_n", exact_small_n, exact_warmup, len(EXACT_SLOTS), 3),
    )
}


def runs(name, seed):
    """The endless run stream of workload ``name`` for ``seed``."""
    spec = WORKLOADS[name]
    return spec.stream(random.Random("%s/%d" % (name, seed)), spec.cycles)
