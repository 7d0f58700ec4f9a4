"""Seeded end-to-end benchmark of the angelesco command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` and
driven in-process through ``angelesco.cli.run(argv)``: one client, a closed
loop, no think time, each run fed a config file generated from the seed.
Every run is checked (``checks.py``); the client's own checking time is not
part of any measured time.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs each input
twice, untraced and traced back to back, and prints the per-layer metrics
and the tracing overhead.  Human-readable lines come first, then one
``meta:`` line, then the result as one JSON object on the last line.
Work files go to ``perfbench/_work/``.
"""

import argparse
import contextlib
import ctypes
import functools
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10  # the tail is the highest percentile with this many runs beyond it

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s_p50": "s",
    "run_s_tail": "s",
    "runs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def load_cli():
    """Import the program from this checkout's src/, or exit 2."""
    if not (SRC / "angelesco" / "cli.py").is_file():
        print("error: no program at %s" % (SRC / "angelesco"), file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    from angelesco import cli

    if Path(cli.__file__).resolve().parent != (SRC / "angelesco").resolve():
        print("error: angelesco imported from %s" % cli.__file__, file=sys.stderr)
        raise SystemExit(2)
    return cli


def execute(call, run, work):
    """One closed-loop step: write the config, run the CLI, time it, check it."""
    out = work / "out"
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(run.text())
    argv = [run.command, "--config", str(config), "--out", str(out)]
    printed, errors = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(errors):
        t0 = time.perf_counter()
        try:
            code = call(argv)
        except Exception:  # a crash is a failed run, not a benchmark error
            code = None
            errors.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
    outcome = checks.check(run, out, code, printed.getvalue())
    if not outcome.ok and errors.getvalue():
        outcome.reason += " | " + errors.getvalue().strip().splitlines()[-1]
    return {
        "command": run.command,
        "elapsed": elapsed,
        "ok": outcome.ok,
        "reason": outcome.reason,
        "digits": outcome.digits,
        "ess": outcome.ess,
        "bytes": outcome.bytes_written,
        "run": run,
    }


def inputs(stream, spec, cycles):
    """The next ``cycles`` whole cycles of the workload's slot list.

    Whole cycles keep the mix of cheap and expensive runs fixed, and a fixed
    run count fixes the tail percentile, however long the runs take.
    """
    return [next(stream) for _ in range(cycles * spec.slots)]


def probe_command(warmup, work):
    """The command line of one set-up probe on the warm-up input."""
    config = work / "warmup.json"
    config.write_text(warmup.text())
    out = work / "warmup_out"
    out.mkdir(exist_ok=True)
    return [sys.executable, str(HERE / "probe.py"), warmup.command, str(config), str(out)]


def setup_sample(cmd):
    """Seconds from starting a fresh interpreter to the end of its warm-up call."""
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    result = json.loads(last)
    if proc.returncode != 0 or result.get("code") != 0:
        raise RuntimeError("warm-up probe failed: %s" % proc.stderr.strip()[-500:])
    return result["end"] - start


def known_defect_probe(cli, work):
    """Exit code of power(1) on a negative interval, documented as |x - left|."""
    config = work / "defect.json"
    config.write_text(json.dumps({
        "schema_version": 1, "intervals": [[-2.0, -1.0]], "masses": [1.0],
        "base_measures": "power(1)", "grid": 50, "bm": {"degrees": [4]},
    }))
    out = work / "defect_out"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(["bm", "--config", str(config), "--out", str(out)])
    return {"bm power(1) on [-2,-1]": code}


# ------------------------------------------------------------------ stats


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND runs beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / n


def _kernel_cache():
    """The program's cache of assembled kernels, while it is an lru_cache."""
    fn = getattr(sys.modules.get("angelesco.energy"), "system_kernel", None)
    return fn if hasattr(fn, "cache_info") else None


def input_shares(warmup, runs):
    """Share of runs with each input property a later change may target."""
    cache = _kernel_cache()
    mirror = workloads.KernelCacheMirror(cache.cache_info().maxsize if cache else 0)
    repeats = 0
    for run in [warmup] + runs:
        if run.solves_equilibrium and mirror.touch(run.kernel_key):
            repeats += run is not warmup
    n = max(len(runs), 1)
    return {
        "grid1600": sum(r.grid == 1600 for r in runs) / n,
        "kernel_repeat": repeats / n,
        "n_gt32": sum(r.n > 32 for r in runs) / n,
        "quadrature": sum(r.mode == "quadrature" for r in runs) / n,
        "monte_carlo": sum(r.mode == "monte_carlo" for r in runs) / n,
    }


def end_to_end(records, setup):
    times = [r["elapsed"] if r["ok"] else math.inf for r in records]
    tail_value, tail_pct = tail(times)
    ok = sum(r["ok"] for r in records)
    digits = [r["digits"] for r in records if r["ok"] and r["digits"] is not None]
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s_p50": statistics.median(times),
        "run_s_tail": tail_value,
        "runs_per_s": ok / sum(r["elapsed"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    summary = {
        "tail_percentile": tail_pct,
        "samples": len(records),
        "accuracy_digits": statistics.median(digits) if digits else None,
        "oracle_checked_runs": len(digits),
        "failed_frac": (len(records) - ok) / len(records),
    }
    return metrics, summary


# --------------------------------------------------------------- metadata


def blas_info():
    import numpy as np

    info = {"numpy_blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, "%s_get_num_threads%s" % (prefix, suffix), None)
                conf = getattr(lib, "%s_get_config%s" % (prefix, suffix), None)
                if get is not None and conf is not None:
                    get.restype, conf.restype = ctypes.c_int, ctypes.c_char_p
                    info.update(threads=get(), config=conf().decode())
                    return info
    info["threads"] = None
    return info


def metadata(args, extra):
    """What was run where: versions, BLAS threads, source digest, seed."""
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "angelesco").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "machine": platform.machine(),
    }
    meta.update(extra)
    return meta


# -------------------------------------------------------------------- main


def _fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = load_cli()
    spec = workloads.WORKLOADS[args.workload]
    work = WORK / ("%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace, os.getpid()))
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(cli, spec, args, work)
    finally:
        shutil.rmtree(work / "out", ignore_errors=True)
        shutil.rmtree(work / "warmup_out", ignore_errors=True)
        shutil.rmtree(work / "defect_out", ignore_errors=True)


def _measure(cli, spec, args, work):
    warmup = spec.warmup()
    first = execute(cli.run, warmup, work)
    if not first["ok"]:
        print("error: warm-up run failed: %s" % first["reason"], file=sys.stderr)
        return 2
    extra = {"known_defects": known_defect_probe(cli, work)}
    stream = workloads.runs(args.workload, args.seed)
    if args.trace:
        records, metrics, units = _traced(cli, spec, args, work, stream, warmup, extra)
    else:
        records, metrics, units = _untraced(cli, spec, args, work, stream, warmup, extra)

    failed = [r for r in records if not r["ok"]]
    for r in failed[:10]:
        print("FAILED %s: %s" % (r["command"], r["reason"]))
    meta = metadata(args, extra)
    with open(work / "result.json", "w") as fh:
        json.dump({"meta": meta, "metrics": metrics, "runs": [
            {k: (v.config if k == "run" else v) for k, v in r.items()} for r in records]}, fh, indent=1)
    print("meta: " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _untraced(cli, spec, args, work, stream, warmup, extra):
    """The timed loop, with the set-up probes spread evenly between its runs."""
    runs = inputs(stream, spec, spec.cycles)
    cmd = probe_command(warmup, work)
    records, setup = [], []
    for i, run in enumerate(runs):
        records.append(execute(cli.run, run, work))
        while len(setup) < SETUP_PROBES * (i + 1) // len(runs):
            setup.append(setup_sample(cmd))
    metrics, summary = end_to_end(records, setup)
    shares = input_shares(warmup, runs)
    timed = sum(r["elapsed"] for r in records)
    extra.update(summary, setup_samples_s=setup, inputs=shares, timed_s=timed)
    failed = len(records) - sum(r["ok"] for r in records)
    print("workload %s seed %d: %d runs, %d failed" % (args.workload, args.seed, len(records), failed))
    if timed > args.seconds:
        print("  note: the timed runs took %.1f s, over the %g s they are sized for" % (timed, args.seconds))
    for name, value in metrics.items():
        print("  %-16s %s %s" % (name, _fmt(value), END_TO_END_UNITS[name]))
    print("  %-16s p%.1f of %d runs" % ("tail_percentile", summary["tail_percentile"], len(records)))
    acc = summary["accuracy_digits"]
    print("  %-16s %s digits (%d oracle-checked runs)" % (
        "accuracy_digits", "n/a" if acc is None else _fmt(acc), summary["oracle_checked_runs"]))
    print("  %-16s %s (%d of %d runs)" % ("failed_frac", _fmt(summary["failed_frac"]), failed, len(records)))
    print("  inputs: " + ", ".join("%s %.3g" % (k, v) for k, v in shares.items()))
    return records, metrics, END_TO_END_UNITS


def _traced(cli, spec, args, work, stream, warmup, extra):
    """Each input untraced and traced back to back, which first alternating.

    The traced runs call a second kernel cache of the program's size, so
    both runs of a pair start from the same cache state: the one the inputs
    before them left.  Both caches start empty.
    """
    runs = inputs(stream, spec, max(spec.cycles // 2, 1))
    cache = _kernel_cache()
    twin = {}
    if cache:
        cache.cache_clear()
        twin["energy.system_kernel"] = functools.lru_cache(**cache.cache_parameters())(
            cache.__wrapped__)
    tracer = tracing.Tracer()

    def traced_run(run):
        tracer.install("angelesco", twin)
        try:
            return execute(lambda argv: tracer.root(cli.run, argv), run, work)
        finally:
            tracer.uninstall()

    plain, traced = [], []
    for i, run in enumerate(runs):
        if i % 2:
            traced.append(traced_run(run))
            plain.append(execute(cli.run, run, work))
        else:
            plain.append(execute(cli.run, run, work))
            traced.append(traced_run(run))
    calls = sum(1 for s in tracer.spans if s[2] == "energy.system_kernel")
    hits = twin["energy.system_kernel"].cache_info().hits if cache else 0
    layer = tracing.layer_metrics(tracer.spans, len(traced), calls, hits,
                                  cache.cache_info().maxsize if cache else 0)
    overhead = [t["elapsed"] / u["elapsed"] - 1.0 for u, t in zip(plain, traced)]
    # The mean of the two orders' medians: a second run's head start cancels.
    by_order = [statistics.median(overhead[first::2]) for first in (0, 1) if overhead[first::2]]
    layer["trace.overhead_frac"] = (statistics.fmean(by_order), "ratio")
    ess = sum(r["ess"] or 0.0 for r in traced)
    gibbs_s = layer["ensemble.gibbs_s"][0] * len(traced)
    layer["ensemble.ess"] = (ess, "count")
    layer["ensemble.ess_per_s"] = (ess / gibbs_s if gibbs_s else 0.0, "1/s")
    layer["ensemble.tensor_nodes"] = (sum(r.tensor_nodes for r in runs) / len(runs), "count")
    layer["cli.bytes_written"] = (sum(r["bytes"] for r in traced) / len(traced), "bytes")
    spans_path = work / "spans.jsonl"
    tracer.dump(spans_path)
    extra.update(untraced_run_s_p50=statistics.median(r["elapsed"] for r in plain),
                 traced_run_s_p50=statistics.median(r["elapsed"] for r in traced),
                 overhead_per_pair=overhead,
                 spans_file=str(spans_path.relative_to(ROOT)), not_traced=tracer.missing,
                 inputs=input_shares(warmup, runs))
    print("workload %s seed %d: %d inputs, each untraced and traced" % (
        args.workload, args.seed, len(runs)))
    metrics = {k: v for k, (v, _) in layer.items()}
    units = {k: u for k, (_, u) in layer.items()}
    for name in sorted(metrics):
        print("  %-40s %s %s" % (name, _fmt(metrics[name]), units[name]))
    return plain + traced, metrics, units


if __name__ == "__main__":
    sys.exit(main())
