"""Gibbs sampler cost, before and after a change, written as BENCH_<pr>.json.

    python3 bench/gibbs_update.py --before OLD/src --after src --out BENCH_14.json

One measurement records

- the wall time per coordinate update of one seeded chain with Lebesgue base
  measures, refined 8x, on each shape of ``SHAPES``: one interval [0, 1] at
  G = 1600 conditional nodes with n = 8 and 48 points, two intervals
  [-2, -1], [1, 2] at G = 3200 with n = 2, 6, 16, 32, 64 and at G = 6400
  with n = 10, points split evenly;
- a hash of each chain's final state, which must be the same for both trees
  and every repeat (the script exits 1 otherwise);
- the wall time and the verdict of acceptance criterion_6.

The driver and the report layout are described in ``_driver.py``.
"""

import hashlib
import time

import _driver

TWO = ((-2.0, -1.0), (1.0, 2.0))
# label: (intervals, cells per interval, points per interval)
SHAPES = {
    "p1_G1600_n8": (((0.0, 1.0),), 200, (8,)),
    "p1_G1600_n48": (((0.0, 1.0),), 200, (48,)),
    **{"p2_G3200_n%d" % n: (TWO, 400, (n // 2, n // 2)) for n in (2, 6, 16, 32, 64)},
    "p2_G6400_n10": (TWO, 800, (5, 5)),
}
UPDATES = 4000  # coordinate updates timed per shape


def measure(src):
    import numpy as np

    from angelesco import acceptance
    from angelesco.core import IntervalSystem, MultiIndex, MultiIndexSequence
    from angelesco.ensemble import BaseMeasure, EnsembleSpec, _GibbsChain

    update_us, state_sha = {}, {}
    for label, (intervals, cells, counts) in SHAPES.items():
        p = len(intervals)
        system = IntervalSystem(intervals, (1.0 / p,) * p)
        base = tuple(BaseMeasure.lebesgue(system, i, cells) for i in range(p))
        seq = MultiIndexSequence.proportional(system.r, start=p, step=p)
        spec = EnsembleSpec(system, None, base, seq)
        chain = _GibbsChain(spec, MultiIndex(counts), np.random.default_rng(0))
        chain.sweep()  # warm-up
        n = sum(counts)
        sweeps = max(UPDATES // n, 2)
        t0 = time.perf_counter()
        for _ in range(sweeps):
            chain.sweep()
        update_us[label] = 1e6 * (time.perf_counter() - t0) / (sweeps * n)
        state_sha[label] = hashlib.sha256(
            b"".join(block.tobytes() for block in chain.state)
        ).hexdigest()
    crit = acceptance.criterion_6()
    return {"update_us": update_us, "state_sha256": state_sha,
            "criterion_6_s": crit.seconds, "criterion_6_passed": crit.passed}


def same_states(runs):
    """Whether both trees end in the same chain states (the driver compares
    the repeats of one tree)."""
    return runs["before"][0]["state_sha256"] == runs["after"][0]["state_sha256"]


if __name__ == "__main__":
    _driver.main(
        measure,
        "Gibbs coordinate update (p = 1, G = 1600; p = 2, G = 3200 and 6400) and criterion_6",
        derive=lambda runs: {"states_identical": same_states(runs)},
        check=lambda runs: None if same_states(runs)
        else "the chains' final states differ between trees",
    )
