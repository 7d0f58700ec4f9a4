"""Heine's identity check in quadrature mode: cost and accuracy, before and after a change.

    python3 bench/heine.py --before OLD/src --after src --out BENCH_10.json

Each source tree is measured in fresh interpreters, alternating the two trees
so that both see the same machine drift.  One measurement records:

- ``cases``: ``expectation_identity_check(..., mode="quadrature")`` at its
  default budget (2^25 tensor nodes) for six multi-indices: (1, 1), (2, 1)
  and (2, 2) on [-2, -1] u [1, 2]; (3,) with base measure x^2 and (4,) with
  x^3 on [0, 1]; (3, 1) on [-1, 0] u [0.05, 1].  Four z points each, one of
  them inside the first interval.  The time, P(z) and the estimate;
- ``mop``: the wall time of ``angelesco mop`` on configs/two_interval.json,
  cold (a fresh interpreter, imports included) and warm (a second call
  in-process);
- ``criterion_7``: the acceptance check's own elapsed time and identity
  error (absolute, at z = 0, 0.5 and 100 on the symmetric pair).

The parent process computes, per case and z, each tree's relative error
against P(z) (mostly the tensor grid's discretization, the same for both
trees) and the relative difference between the two trees' estimates (the
round-off of the new arithmetic).  The file keeps every repeat and the
median time per tree.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

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


def measure(src):
    sys.path.insert(0, os.path.abspath(src))
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

    out = {"cases": {}}
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
        t0 = time.perf_counter()
        assert cli.run(argv) == 0
        out["mop"] = {"cold_s": cold, "warm_s": time.perf_counter() - t0}
    c7 = acceptance.criterion_7()
    out["criterion_7"] = {"s": c7.seconds, "passed": c7.passed,
                          "identity_err": c7.metrics["identity_err"]}
    return out


def child(src):
    out = subprocess.run([sys.executable, __file__, "--measure", src],
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def rel(a, b):
    return [abs(x - y) / abs(y) for x, y in zip(a, b)]


def summary(runs):
    """Median times per tree, and the values of its first run."""
    first = runs[0]
    return {
        "case_s": {k: statistics.median(r["cases"][k]["s"] for r in runs) for k in CASES},
        "mop_cold_s": statistics.median(r["mop"]["cold_s"] for r in runs),
        "mop_warm_s": statistics.median(r["mop"]["warm_s"] for r in runs),
        "criterion_7_s": statistics.median(r["criterion_7"]["s"] for r in runs),
        "criterion_7_identity_err": first["criterion_7"]["identity_err"],
        "criterion_7_passed": first["criterion_7"]["passed"],
        "rel_err_vs_P": {k: rel(c["estimate"], c["polynomial"])
                         for k, c in first["cases"].items()},
    }


def git_sha(path):
    out = subprocess.run(["git", "-C", path, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--measure", help=argparse.SUPPRESS)
    ap.add_argument("--before")
    ap.add_argument("--after")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", default="BENCH.json")
    args = ap.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return
    if not (args.before and args.after):
        ap.error("--before and --after are required")
    trees = {"before": args.before, "after": args.after}
    runs = {label: [] for label in trees}
    for rep in range(args.repeats):
        order = list(trees) if rep % 2 == 0 else list(trees)[::-1]
        for label in order:
            runs[label].append(child(trees[label]))
            print(label, rep, flush=True)
    before, after = (summary(runs[label]) for label in trees)
    report = {
        "what": "Heine's identity check in quadrature mode (default budget 2^25): time "
                "and error against P per case, the before/after difference of the "
                "estimates, mop on configs/two_interval.json, criterion_7",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "repeats": args.repeats,
        "head_sha": git_sha(ROOT),
        "median_s": {
            "case": {k: {"before": before["case_s"][k], "after": after["case_s"][k]}
                     for k in CASES},
            "mop_cold": {"before": before["mop_cold_s"], "after": after["mop_cold_s"]},
            "mop_warm": {"before": before["mop_warm_s"], "after": after["mop_warm_s"]},
            "criterion_7": {"before": before["criterion_7_s"],
                            "after": after["criterion_7_s"]},
        },
        "criterion_7_identity_err": {"before": before["criterion_7_identity_err"],
                                     "after": after["criterion_7_identity_err"]},
        "criterion_7_passed": {"before": before["criterion_7_passed"],
                               "after": after["criterion_7_passed"]},
        "rel_err_vs_P": {"before": before["rel_err_vs_P"], "after": after["rel_err_vs_P"]},
        "after_vs_before_rel": {
            k: rel(runs["after"][0]["cases"][k]["estimate"],
                   runs["before"][0]["cases"][k]["estimate"])
            for k in CASES
        },
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
