"""The before/after driver shared by the ``bench/*.py`` scripts.

    python3 bench/<name>.py --before OLD/src --after src --out BENCH_<pr>.json

Each script supplies ``measure(src)``, which imports ``angelesco`` from the
source tree ``src`` (put first on ``sys.path``) and returns one JSON record.
Every measurement runs in a fresh interpreter, and the two trees alternate
(before, after; then after, before; ...) so that both see the same machine
drift.

The file holds ``what``, ``machine``, ``repeats``, ``head_sha``, then
``median`` per tree, then any fields the script derives from the records, then
``runs`` (every record of every repeat).  ``median`` is the first record with
every measured number replaced by its median over the repeats: a timing (a
number under a key ``s``, or under a key ending in ``_s`` or ``_us``) or a
memory size (under a key ending in ``_mb``), at any depth.  Every other field
must be the same in each repeat of one tree: if one is not, or if the
script's own check fails, the script exits 1 after writing the file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def is_measured(key):
    return key == "s" or key.endswith(("_s", "_us", "_mb"))


def summarize(runs, path, mismatches, measured=False):
    """The first of ``runs`` with the median of every measured number; the
    path of every other field that differs between runs goes to ``mismatches``."""
    first = runs[0]
    if isinstance(first, dict) and all(r.keys() == first.keys() for r in runs):
        return {key: summarize([r[key] for r in runs], path + "/" + key, mismatches,
                               measured or is_measured(key))
                for key in first}
    if measured and first is not None:  # a null timing must stay null
        return statistics.median(runs)
    if any(json.dumps(r) != json.dumps(first) for r in runs):
        mismatches.append(path)
    return first


def main(measure, what, derive=None, check=None):
    """Run ``measure`` on both trees and write the report.

    ``derive(runs)`` returns extra report fields, and ``check(runs)`` an
    error message or None; ``runs`` maps "before" and "after" to their records.
    """
    script = os.path.abspath(sys.argv[0])
    ap = argparse.ArgumentParser(description=what)
    ap.add_argument("--measure", help=argparse.SUPPRESS)
    ap.add_argument("--before")
    ap.add_argument("--after")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default="BENCH.json")
    args = ap.parse_args()
    if args.measure:
        sys.path.insert(0, os.path.abspath(args.measure))
        print(json.dumps(measure(args.measure)))
        return
    if not (args.before and args.after):
        ap.error("--before and --after are required")
    trees = {"before": args.before, "after": args.after}
    runs = {label: [] for label in trees}
    for rep in range(args.repeats):
        for label in (list(trees) if rep % 2 == 0 else list(trees)[::-1]):
            out = subprocess.run([sys.executable, script, "--measure", trees[label]],
                                 check=True, stdout=subprocess.PIPE, text=True)
            runs[label].append(json.loads(out.stdout.splitlines()[-1]))
            print(label, rep, flush=True)
    head = subprocess.run(["git", "-C", os.path.dirname(script), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    mismatches = []
    report = {
        "what": what,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "repeats": args.repeats,
        "head_sha": head.stdout.strip() or None,
        "median": {label: summarize(r, label, mismatches) for label, r in runs.items()},
        **(derive(runs) if derive else {}),
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    errors = ["%s differs between repeats" % path for path in mismatches]
    problem = check(runs) if check else None
    errors += [problem] if problem else []
    for error in errors:
        print("error:", error, file=sys.stderr)
    if errors:
        raise SystemExit(1)
