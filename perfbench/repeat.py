"""Repeat the benchmark over seeds and summarise each metric.

    python3 perfbench/repeat.py --workloads all --seeds 1-10 [--trace 0|1]
                                [--seconds 30] [--out perfbench/baseline.json]

Runs ``run.py`` once per (workload, seed), one after the other, and prints
for every metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread: the distance between the quartiles as a share of the
median.  With ``--out`` the summary and every run's metadata are written
as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit("run.py failed on %s seed %d:\n%s" % (workload, seed, proc.stderr[-3000:]))
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(next(ln for ln in lines if ln.startswith("meta: "))[6:])
    return json.loads(lines[-1]), meta


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--seeds", default="1-10", help="a seed or a range lo-hi")
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    ap.add_argument("--seconds", type=int, default=run_seconds)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    names = sorted(workloads.WORKLOADS) if args.workloads == "all" else args.workloads.split(",")
    report = {}
    for name in names:
        metrics, metas = {}, []
        for seed in _seeds(args.seeds):
            result, meta = one(name, seed, args.seconds, args.trace)
            metas.append(meta)
            print("%s seed %d: correct=%s attempted=%d failed=%d" % (
                name, seed, result["correct"], result["attempted"], result["failed"]), flush=True)
            for key, m in result["metrics"].items():
                metrics.setdefault(key, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        report[name] = {"metrics": {k: dict(summary(v["values"]), unit=v["unit"])
                                    for k, v in metrics.items()}, "runs": metas}
        for key, s in report[name]["metrics"].items():
            print("  %-36s median %-12.6g q1 %-12.6g q3 %-12.6g spread %s %s" % (
                key, s["median"], s["q1"], s["q3"],
                "n/a" if s["spread"] is None else "%.3f" % s["spread"], s["unit"]), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
