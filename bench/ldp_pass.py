"""The ``ldp`` field-shift check and the CSV writer, before and after a change.

    python3 bench/ldp_pass.py --before OLD/src --after src --out BENCH_25.json

One measurement records

- ``shift_p1`` .. ``shift_p3``: the field-shift check of ``angelesco ldp``
  (the largest |lhs - rhs| of ``field_shift_identity``) over 100 uniformly
  random configurations, seed 1, under quadratic(scale 0.25), on p = 1, 2, 3
  intervals, the index cycling over steps 1-4 of the default proportional
  sequence (p, 2p, 3p, 4p points), by ``ldp.field_shift_worst``.  The median
  time of 21 calls after one, and ``worst`` as a hex string;
- ``cmd_ldp``: the wall time of ``angelesco ldp`` on configs/two_interval.json
  (the median of five calls after one, in-process) and the md5 of each
  output file;
- ``write_csv``: ``core.write_csv`` on 3,200 rows shaped like ``eqm.csv``
  (an int column and three float columns), the median of 11 calls after one,
  and the md5 of the file.

The check fails unless both trees give the same ``worst`` bits and the same
file digests.  The driver and the report layout are described in
``_driver.py``.
"""

import hashlib
import io
import os
import statistics
import tempfile
import time
from contextlib import redirect_stdout

import numpy as np

import _driver

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = os.path.join(ROOT, "configs", "two_interval.json")
SYSTEMS = {
    1: ((-1.0, 1.0),),
    2: ((-2.0, -1.0), (1.0, 2.0)),
    3: ((-3.0, -2.0), (-0.5, 0.5), (1.0, 3.0)),
}


def median_time(fn, calls):
    fn()  # first-call costs
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.md5(fh.read()).hexdigest()


def measure(src):
    from angelesco import ExternalField, IntervalSystem, MultiIndexSequence, cli, ldp
    from angelesco.core import write_csv

    out = {}
    for p, intervals in SYSTEMS.items():
        system = IntervalSystem(intervals, (1.0 / p,) * p)
        seq = MultiIndexSequence.proportional(system.r)
        indices = [seq(d) for d in range(1, 5)]
        field = ExternalField.quadratic(p, scale=0.25)

        def check():
            return ldp.field_shift_worst(system, indices, field, 100, np.random.default_rng(1))

        out["shift_p%d" % p] = {"s": median_time(check, 21), "worst": check().hex()}

    with tempfile.TemporaryDirectory() as tmp:
        argv = ["ldp", "--config", CONFIG, "--out", tmp]
        with redirect_stdout(io.StringIO()):
            s = median_time(lambda: cli.run(argv), 5)
        out["cmd_ldp"] = {"s": s, "md5": {name: digest(os.path.join(tmp, name))
                                          for name in sorted(os.listdir(tmp))}}

        rng = np.random.default_rng(0)
        columns = (np.arange(3200) // 1600, *rng.random((3, 3200)))
        path = os.path.join(tmp, "eqm.csv")
        header = ("interval_index", "node", "weight", "density")
        s = median_time(lambda: write_csv(path, header, columns), 11)
        out["write_csv"] = {"s": s, "md5": digest(path)}
    return out


def check(runs):
    def bits(record):
        return {key: {k: v for k, v in row.items() if k != "s"} for key, row in record.items()}

    if bits(runs["before"][0]) != bits(runs["after"][0]):
        return "the trees differ in a worst value or an output digest"
    return None


if __name__ == "__main__":
    _driver.main(measure, "ldp field-shift check at 100 configurations (p = 1, 2, 3), "
                          "angelesco ldp wall time, write_csv at 3,200 rows", check=check)
