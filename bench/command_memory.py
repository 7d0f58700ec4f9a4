"""Peak memory and wall time of ``angelesco eqm`` and ``ldp``, before and
after a change.

    python3 bench/command_memory.py --before OLD/src --after src --out BENCH_27.json

One measurement runs ``eqm`` and ``ldp`` on configs/two_interval.json at
grids 1,600 and 3,200, each command in a fresh interpreter of its own, so
that a peak belongs to one command.  Per command and grid it records

- ``import_mb``: the interpreter's peak resident set (``ru_maxrss``) after
  ``angelesco.cli`` and the modules it needs are imported;
- ``peak_mb``: its peak resident set after the command;
- ``run_s``: the wall time of that one ``cli.run`` call, the first in its
  process;
- ``exit``: the command's exit status.

The report adds ``ldp_over_eqm_mb``: per tree and grid, the median peak of
``ldp`` minus that of ``eqm``.  The check fails if a command exits nonzero.
``ru_maxrss`` is read as KiB, as Linux reports it.  The driver and the report
layout are described in ``_driver.py``.
"""

import json
import os
import statistics
import subprocess
import sys

import _driver

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = os.path.join(ROOT, "configs", "two_interval.json")
COMMANDS = ("eqm", "ldp")
GRIDS = (1600, 3200)

# argv: source tree, command, config, grid.  Prints one JSON record.
CHILD = """
import contextlib, io, json, resource, sys, tempfile, time
sys.path.insert(0, sys.argv[1])
from angelesco import cli

def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

imported = peak_mb()
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    t0 = time.perf_counter()
    code = cli.run([sys.argv[2], "--config", sys.argv[3], "--out", out, "--grid", sys.argv[4]])
    seconds = time.perf_counter() - t0
print(json.dumps({"exit": code, "run_s": seconds, "import_mb": imported, "peak_mb": peak_mb()}))
"""


def measure(src):
    out = {}
    for grid in GRIDS:
        for command in COMMANDS:
            proc = subprocess.run(
                [sys.executable, "-c", CHILD, os.path.abspath(src), command, CONFIG, str(grid)],
                check=True, stdout=subprocess.PIPE, text=True)
            out["%s_%d" % (command, grid)] = json.loads(proc.stdout.splitlines()[-1])
    return out


def derive(runs):
    def peak(records, key):
        return statistics.median(record[key]["peak_mb"] for record in records)

    return {"ldp_over_eqm_mb": {
        label: {str(grid): peak(records, "ldp_%d" % grid) - peak(records, "eqm_%d" % grid)
                for grid in GRIDS}
        for label, records in runs.items()}}


def check(runs):
    failed = sorted({key for records in runs.values() for record in records
                     for key, row in record.items() if row["exit"]})
    return "nonzero exit: " + ", ".join(failed) if failed else None


if __name__ == "__main__":
    _driver.main(measure, "peak RSS and cold cli.run wall time of eqm and ldp on "
                          "configs/two_interval.json at grids 1,600 and 3,200, "
                          "one command per fresh interpreter", derive, check)
