"""Output drift between two source trees, as a BENCH_*.json file.

    python3 bench/outputs.py --before OLD/src --after src --out BENCH_26_outputs.json

One measurement runs, in process through ``angelesco.cli.run``, the seven
commands (eqm, fekete, sample, ldp, mop, zconst, bm) on every
``configs/*.json``, and the runs of one perfbench measurement (its cycles
times its slots) for seeds 1-5 of each of the four workloads, read through
``perfbench/workloads.runs``.  Each run writes into its own directory under
a work directory in the system's temporary directory, named by a digest of
the tree's path (``outputs``).  The record holds the md5 of all outputs
(``md5``) and of each group (``group_md5``: a config name or a workload),
the file count and the md5 of the sorted file list (the file set), the count
of each file name, the CSV headers by file name, the runs that exited
nonzero and the time per group (``run_s``).

The report adds ``drift``: per group, the number of files whose bytes differ
between the trees, and per group, file name and column (CSV) or key path
(JSON; list items share one path, marked ``[]``), the largest absolute and
relative difference, the relative one against the larger magnitude of the
pair.  Text that differs is counted, not measured.  The work directories are
removed after that.  The script exits 1 when the file sets or the CSV
headers differ; drift alone never fails it.  The driver and the report
layout are described in ``_driver.py``.
"""

import contextlib
import csv
import glob
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
import time
from collections import Counter

import _driver

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402

COMMANDS = ("eqm", "fekete", "sample", "ldp", "mop", "zconst", "bm")
SEEDS = (1, 2, 3, 4, 5)


def inputs():
    """(group, run directory, command, config) of every run, in order."""
    for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        with open(path) as fh:
            config = json.load(fh)
        for command in COMMANDS:
            yield name, os.path.join(name, command), command, config
    for workload, spec in workloads.WORKLOADS.items():
        for seed in SEEDS:
            stream = workloads.runs(workload, seed)
            for k in range(spec.cycles * spec.slots):
                run = next(stream)
                yield (workload, os.path.join(workload, "seed%d" % seed, "%02d-%s" % (k, run.command)),
                       run.command, run.config)


def measure(src):
    from angelesco import cli

    name = "angelesco-outputs-" + hashlib.md5(os.path.abspath(src).encode()).hexdigest()[:12]
    work = os.path.join(tempfile.gettempdir(), name)
    shutil.rmtree(work, ignore_errors=True)
    out_root, config_path = os.path.join(work, "out"), os.path.join(work, "config.json")
    os.makedirs(out_root)
    seconds, failed = Counter(), []
    for group, run_dir, command, config in inputs():
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            code = cli.run([command, "--config", config_path, "--out", os.path.join(out_root, run_dir)])
            seconds[group] += time.perf_counter() - t0
        if code:
            failed.append("%s exited %d" % (run_dir, code))
    files = sorted(os.path.relpath(os.path.join(d, f), out_root)
                   for d, _, names in os.walk(out_root) for f in names)
    total, groups, headers = hashlib.md5(), {}, {}
    for rel in files:
        with open(os.path.join(out_root, rel), "rb") as fh:
            data = fh.read()
        for digest in (total, groups.setdefault(rel.split(os.sep)[0], hashlib.md5())):
            digest.update(rel.encode() + b"\0" + data)
        if rel.endswith(".csv"):
            headers.setdefault(os.path.basename(rel), set()).add(data.split(b"\n", 1)[0].decode())
    return {
        "outputs": name,
        "md5": total.hexdigest(),
        "group_md5": {group: digest.hexdigest() for group, digest in groups.items()},
        "files": len(files),
        "file_set_md5": hashlib.md5("\n".join(files).encode()).hexdigest(),
        "file_names": dict(sorted(Counter(os.path.basename(f) for f in files).items())),
        "csv_headers": {key: sorted(value) for key, value in sorted(headers.items())},
        "nonzero_exits": failed,
        "run_s": dict(seconds),
    }


def _number(value):
    """value (a JSON value or CSV text) as a float, or None if it is not a
    number; bools are not numbers."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _leaves(value, path=""):
    """(key path, value) of every leaf of a JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + "/" + key)
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item, path + "[]")
    else:
        yield path, value


def _cells(text, suffix):
    """(column or key path, value) of every cell of a CSV or JSON file."""
    if suffix == ".json":
        return list(_leaves(json.loads(text)))
    rows = list(csv.reader(io.StringIO(text)))
    return [(column, value) for row in rows[1:] for column, value in zip(rows[0], row)]


def derive(runs):
    """Per group, the files that differ; per group, file and column, the
    largest absolute and relative differences."""
    dirs = {label: os.path.join(tempfile.gettempdir(), records[0]["outputs"], "out")
            for label, records in runs.items()}
    differing = {group: 0 for group in runs["after"][0]["group_md5"]}
    columns = {}
    for d, _, names in os.walk(dirs["after"]):
        for f in names:
            rel = os.path.relpath(os.path.join(d, f), dirs["after"])
            texts = []
            for label in ("before", "after"):
                path = os.path.join(dirs[label], rel)
                if not os.path.exists(path):
                    break
                with open(path) as fh:
                    texts.append(fh.read())
            if len(texts) < 2 or texts[0] == texts[1]:
                continue
            group = rel.split(os.sep)[0]
            differing[group] += 1
            pairs = [_cells(text, os.path.splitext(f)[1]) for text in texts]
            if [k for k, _ in pairs[0]] != [k for k, _ in pairs[1]]:
                entry = columns.setdefault("%s/%s" % (group, f), {"layout_differs": 0})
                entry["layout_differs"] += 1
                continue
            for (key, old), (_, new) in zip(*pairs):
                entry = columns.setdefault("%s/%s:%s" % (group, f, key),
                                           {"abs": 0.0, "rel": 0.0, "text_differs": 0})
                a, b = _number(old), _number(new)
                if a is None or b is None:
                    entry["text_differs"] += old != new
                elif a != b:
                    entry["abs"] = max(entry["abs"], abs(a - b))
                    entry["rel"] = max(entry["rel"], abs(a - b) / max(abs(a), abs(b)))
    for d in set(dirs.values()):
        shutil.rmtree(os.path.dirname(d), ignore_errors=True)
    return {"drift": {"differing_files": differing,
                      "columns": {key: columns[key] for key in sorted(columns)
                                  if any(columns[key].values())}}}


def check(runs):
    before, after = runs["before"][0], runs["after"][0]
    if before["file_set_md5"] != after["file_set_md5"]:
        return "the output file sets differ (%d files before, %d after)" % (
            before["files"], after["files"])
    if before["csv_headers"] != after["csv_headers"]:
        return "the CSV headers differ"
    return None


if __name__ == "__main__":
    _driver.main(
        measure,
        "outputs of the seven commands on configs/*.json and of perfbench seeds 1-5 "
        "of every workload: md5, file set, CSV headers, and the drift between trees",
        derive,
        check,
    )
