"""Fekete solver cost, before and after a change, written as BENCH_<pr>.json.

    python3 bench/fekete_points.py --before OLD/src --after src --out BENCH_4.json

One measurement records

- ``fekete_points`` on two intervals [-2, -1], [1, 2] with zero field, one
  start, seed 0, at n = 20, 40, 80, 640 points split evenly: wall time, log
  weight and certificate;
- the same on the one interval [-1, 1] at n = 40 with two starts;
- acceptance criterion_3: wall time, the three gaps and the verdict;
- two sampled, non-convex fields on the two intervals (two bumps per
  interval) at 3 + 3 and 6 + 6 points, four starts, seed 0;
- ``quadratic(0, s)`` on the two intervals at 8 + 8 points, four starts,
  seed 0: s = 0.5, a convex field, and s = -0.25, a field not known to be
  convex;
- two calls on [-0.11058, 0.997892], [1.315631, 2.488015] with zero field
  and two starts where two points of a block once collided on a box end:
  4 + 4 points at seed 1 and 8 + 8 at seed 6.

Every ``fekete_points`` row also records ``evaluations``, the calls of the
ascent's exact weight (counted at ``_Ascent.value``, so both trees count
alike), and ``newton_steps`` and ``starts_used`` from the result.  All three
are deterministic, so the driver's repeat check pins them.

The driver and the report layout are described in ``_driver.py``.
"""

import time

import _driver

SIZES = (20, 40, 80, 640)
NONCONVEX = ((3, 3), (6, 6))
QUADRATIC = (("quadratic", 0.5), ("negative_quadratic", -0.25))
STALLS = (((4, 4), 1), ((8, 8), 6))


def measure(src):
    from angelesco import acceptance
    from angelesco.core import IntervalSystem, MultiIndex
    from angelesco.energy import ExternalField
    from angelesco.fekete import _Ascent, fekete_points

    out = {}
    calls = [0]
    value = _Ascent.value

    def counted(self, x):
        calls[0] += 1
        return value(self, x)

    _Ascent.value = counted

    def timed(key, system, counts, field=None, n_starts=1, seed=0):
        calls[0] = 0
        t0 = time.perf_counter()
        res = fekete_points(system, MultiIndex(counts), field, n_starts=n_starts, seed=seed)
        out[key] = {"s": time.perf_counter() - t0, "log_weight": res.log_boltzmann,
                    "certified": res.coordinatewise_optimal, "evaluations": calls[0],
                    "newton_steps": res.newton_steps, "starts_used": res.starts_used}

    two = IntervalSystem(((-2.0, -1.0), (1.0, 2.0)), (0.5, 0.5))
    fekete_points(two, MultiIndex((2, 2)), n_starts=1, seed=0)  # first-call costs
    for n in SIZES:
        timed("two_intervals_n%d" % n, two, (n // 2, n - n // 2))
    timed("one_interval_n40", IntervalSystem(((-1.0, 1.0),), (1.0,)), (40,), n_starts=2)
    bumps = ExternalField.from_samples(
        [[-2.0, -1.5, -1.0], [1.0, 1.3, 1.6, 2.0]],
        [[0.0, 0.8, 0.0], [0.5, 0.0, 0.9, 0.2]],
    )
    for counts in NONCONVEX:
        timed("bumps_%d_%d" % counts, two, counts, bumps, n_starts=4)
    for name, scale in QUADRATIC:
        timed(name + "_8_8", two, (8, 8), ExternalField.quadratic(2, scale=scale), n_starts=4)
    stall = IntervalSystem(((-0.11058, 0.997892), (1.315631, 2.488015)), (0.5, 0.5))
    for counts, seed in STALLS:
        timed("stall_%d_%d" % counts, stall, counts, n_starts=2, seed=seed)
    crit = acceptance.criterion_3()
    out["criterion_3"] = {"s": crit.seconds, "passed": crit.passed,
                          "gaps": [crit.metrics["gap_%d" % n] for n in (20, 40, 80)]}
    return out


if __name__ == "__main__":
    _driver.main(measure, "fekete_points wall time, log weight, certificate and weight "
                          "evaluations; criterion_3")
