"""Heine's identity check: cost and accuracy, before and after a change.

    python3 bench/heine.py --before OLD/src --after src --out BENCH_11.json

One measurement records:

- ``cases``: ``expectation_identity_check(..., mode="quadrature")`` with
  its default settings for six multi-indices: (1, 1), (2, 1)
  and (2, 2) on [-2, -1] u [1, 2]; (3,) with base measure x^2 and (4,) with
  x^3 on [0, 1]; (3, 1) on [-1, 0] u [0.05, 1].  Four z points each, one of
  them inside the first interval.  The time, P(z) and the estimate;
- ``auto``: ``expectation_identity_check(..., mode="auto")`` at its default
  Gibbs settings for (3, 3), (4, 4), (8, 8), (6, 10) and (20, 20) on
  [-2, -1] u [1, 2], at z = -3, -1.6, 0, 0.5 and 2.5.  The first four take
  the determinant; at (20, 20) cond A is 1.29e10, so the mean is over Gibbs
  samples with a nonzero stderr.  The time, P(z), the estimate and its stderr;
- ``mop``: the wall time of ``angelesco mop`` on configs/two_interval.json,
  cold (a fresh interpreter, imports included) and warm (a second call
  in-process), and warm at (3, 3) (the median of five calls after one);
- ``criterion_7``: the acceptance check's own elapsed time and identity
  error (absolute, at z = 0, 0.5 and 100 on the symmetric pair).

The parent process computes, per case and z, each tree's relative error
against P(z) (the discretization of the grid the check sums over, where it
is not P's own, or the Gibbs sampling error) and the relative difference
between the two trees' quadrature estimates.  The check fails unless both
trees give the same bits of P(z), of every estimate and of every stderr.
The driver and the report layout are described in ``_driver.py``.  A
measurement takes about 4.5 s on 2 cores, 4 s of it the (20, 20) Gibbs
samples, so two repeats of both trees take about 17 s.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

import _driver

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = os.path.join(ROOT, "configs", "two_interval.json")
PAIR = ((-2.0, -1.0), (1.0, 2.0))
UNIT = ((0.0, 1.0),)
# name: (intervals, counts, base power or None for Lebesgue, z points)
CASES = {
    "(1,1)": (PAIR, (1, 1), None, (-3.0, -1.7, 0.0, 100.0)),
    "(3,) power(2)": (UNIT, (3,), 2, (-0.5, 0.3, 2.5, 100.0)),
    "(2,1)": (PAIR, (2, 1), None, (-2.5, -1.3, 0.0, 100.0)),
    "(2,2)": (PAIR, (2, 2), None, (-3.0, -1.6, 0.5, 100.0)),
    "(3,1) gap 0.05": (((-1.0, 0.0), (0.05, 1.0)), (3, 1), None, (-1.5, -0.7, 0.025, 100.0)),
    "(4,) power(3)": (UNIT, (4,), 3, (-0.5, 0.3, 2.5, 100.0)),
}
AUTO_CASES = ((3, 3), (4, 4), (8, 8), (6, 10), (20, 20))
AUTO_Z = (-3.0, -1.6, 0.0, 0.5, 2.5)


def measure(src):
    from angelesco import (
        BaseMeasure,
        EnsembleSpec,
        IntervalSystem,
        MultiIndexSequence,
        acceptance,
        cli,
        expectation_identity_check,
    )

    def spec(intervals, counts, power):
        n = sum(counts)
        system = IntervalSystem(intervals, tuple(c / n for c in counts))
        if power is None:
            base = tuple(BaseMeasure.lebesgue(system, i) for i in range(system.p))
        else:
            base = tuple(BaseMeasure.power(system, i, power) for i in range(system.p))
        return EnsembleSpec(system, None, base, MultiIndexSequence.explicit([counts]))

    out = {"cases": {}, "auto": {}}
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["mop", "--config", CONFIG, "--out", tmp]
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "angelesco.cli"] + argv,
                       env=env, check=True, capture_output=True)
        cold = time.perf_counter() - t0
        for name, (intervals, counts, power, zs) in CASES.items():
            s = spec(intervals, counts, power)
            t0 = time.perf_counter()
            rows = expectation_identity_check(s, 1, zs, mode="quadrature")
            out["cases"][name] = {
                "s": time.perf_counter() - t0,
                "z": [r[0] for r in rows],
                "polynomial": [r[1] for r in rows],
                "estimate": [r[2] for r in rows],
            }
        for counts in AUTO_CASES:
            s = spec(PAIR, counts, None)
            t0 = time.perf_counter()
            rows = expectation_identity_check(s, 1, AUTO_Z, mode="auto")
            out["auto"][str(counts)] = {
                "s": time.perf_counter() - t0,
                "polynomial": [r[1] for r in rows],
                "estimate": [r[2] for r in rows],
                "stderr": [r[3] for r in rows],
            }
        t0 = time.perf_counter()
        assert cli.run(argv) == 0
        out["mop"] = {"cold_s": cold, "warm_s": time.perf_counter() - t0}
        with open(CONFIG) as fh:
            cfg = json.load(fh)
        cfg["sequence"] = {"rule": "explicit", "indices": [[3, 3]]}
        cfg_33 = os.path.join(tmp, "mop33.json")
        with open(cfg_33, "w") as fh:
            json.dump(cfg, fh)
        argv_33 = ["mop", "--config", cfg_33, "--out", os.path.join(tmp, "mop33")]
        times = []
        for _ in range(6):
            t0 = time.perf_counter()
            assert cli.run(argv_33) == 0
            times.append(time.perf_counter() - t0)
        out["mop"]["warm_33_s"] = statistics.median(times[1:])
    c7 = acceptance.criterion_7()
    out["criterion_7"] = {"s": c7.seconds, "passed": c7.passed,
                          "identity_err": c7.metrics["identity_err"]}
    return out


def rel(a, b):
    return [abs(x - y) / abs(y) for x, y in zip(a, b)]


def derive(runs):
    """Errors against P of each tree's first run, and the after/before
    difference of the quadrature estimates."""
    first = {label: r[0] for label, r in runs.items()}

    def per_tree(part, fn):
        return {label: {k: fn(c) for k, c in r[part].items()} for label, r in first.items()}

    return {
        "rel_err_vs_P": per_tree("cases", lambda c: rel(c["estimate"], c["polynomial"])),
        "auto_rel_err_vs_P": per_tree("auto", lambda c: rel(c["estimate"], c["polynomial"])),
        "auto_max_stderr": per_tree("auto", lambda c: max(c["stderr"])),
        "after_vs_before_rel": {
            k: rel(first["after"]["cases"][k]["estimate"],
                   first["before"]["cases"][k]["estimate"])
            for k in CASES
        },
    }


def check(runs):
    def bits(record):
        return json.dumps([[c["polynomial"], c["estimate"], c.get("stderr")]
                           for part in ("cases", "auto") for c in record[part].values()])

    if bits(runs["before"][0]) != bits(runs["after"][0]):
        return "the trees differ in a value of P, an estimate or a stderr"
    return None


if __name__ == "__main__":
    _driver.main(
        measure,
        "Heine's identity check: quadrature mode (n <= 4) and auto mode (n = 6..40) "
        "time and error against P per case, the before/after difference of the "
        "quadrature estimates, mop on configs/two_interval.json and at (3, 3), criterion_7",
        derive,
        check,
    )
