"""Smoke test of the benchmark itself, on the cheapest workload.

Run from the repository root with ``python3 -m pytest perfbench/smoke_test.py``
(about half a minute).  Scratch files go to ``perfbench/_work/``.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _scratch(name):
    path = bench.WORK / ("smoke-" + name)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_same_seed_gives_byte_identical_configs():
    for name, spec in workloads.WORKLOADS.items():
        count = 2 * spec.slots
        first = [r.text() for r in islice(workloads.runs(name, 3), count)]
        again = [r.text() for r in islice(workloads.runs(name, 3), count)]
        other = [r.text() for r in islice(workloads.runs(name, 4), count)]
        assert first == again
        assert first != other
        for text in first:
            cfg = json.loads(text)
            assert cfg["schema_version"] == 1
            assert set(cfg) <= {
                "schema_version", "intervals", "masses", "fields", "base_measures",
                "sequence", "grid", "seed", "eqm", "fekete", "sample", "mop",
                "zconst", "ldp", "bm",
            }


def test_corrupted_outputs_count_as_failed():
    cli = bench.load_cli()
    work = _scratch("corrupt")
    run = workloads.Run("eqm", {
        "schema_version": 1, "intervals": [[-1.0, 1.0]], "masses": [1.0],
        "fields": "zero", "grid": 50, "seed": 0,
    }, oracle="arcsine")

    def once():
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        (work / "c.json").write_text(run.text())
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.run(["eqm", "--config", str(work / "c.json"), "--out", str(out)])
        return out, code, printed.getvalue()

    out, code, printed = once()
    good = checks.check(run, out, code, printed)
    assert good.ok, good.reason
    assert 2.0 < good.digits < 16.0

    csv_path = out / "eqm.csv"
    lines = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join(lines[:-1]) + "\n")
    assert not checks.check(run, out, code, printed).ok

    out, code, printed = once()
    lines = csv_path.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 2)[0] + ",oops,1.0"
    csv_path.write_text("\n".join(lines) + "\n")
    bad = checks.check(run, out, code, printed)
    assert not bad.ok and "malformed" in bad.reason

    out, code, printed = once()
    (out / "eqm.report.json").write_text("{\"energy\": ")
    assert not checks.check(run, out, code, printed).ok

    out, code, printed = once()
    (out / "eqm.report.json").unlink()
    assert not checks.check(run, out, code, printed).ok

    out, code, printed = once()
    assert not checks.check(run, out, 2, printed).ok

    wrong = workloads.Run("eqm", dict(run.config, intervals=[[-1.0, 1.5]]), oracle="arcsine")
    assert not checks.check(wrong, out, code, printed).ok


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def test_every_metric_is_printed_with_its_unit():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _result(_bench("--workload", "exact_small_n", "--seed", "0",
                                "--seconds", "1", "--trace", str(trace)))
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        for m in result["metrics"].values():
            assert isinstance(m["value"], float)


def test_fails_without_the_program():
    bare = _scratch("bare")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _bench("--workload", "exact_small_n", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
