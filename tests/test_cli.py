import csv
import json

import numpy as np
import pytest

from angelesco.cli import config_digest, run


def write_config(tmp_path, name="experiment.json", **overrides):
    cfg = {
        "schema_version": 1,
        "intervals": [[-2.0, -1.0], [1.0, 2.0]],
        "masses": [0.5, 0.5],
        "grid": 100,
        "seed": 0,
        "sequence": {"rule": "proportional", "start": 2, "step": 2},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestConfigValidation:
    def test_missing_config_flag(self, capsys):
        assert run(["eqm"]) == 1
        assert "required" in capsys.readouterr().err

    def test_unreadable_and_malformed(self, tmp_path, capsys):
        assert run(["eqm", "--config", str(tmp_path / "absent.json")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run(["eqm", "--config", str(bad)]) == 1

    def test_unknown_keys(self, tmp_path):
        path = write_config(tmp_path, bogus=1)
        assert run(["eqm", "--config", str(path)]) == 1
        path = write_config(tmp_path, name="s.json", eqm={"bogus": 1})
        assert run(["eqm", "--config", str(path)]) == 1

    def test_schema_version(self, tmp_path):
        path = write_config(tmp_path, schema_version=99)
        assert run(["eqm", "--config", str(path)]) == 1

    def test_bad_intervals(self, tmp_path):
        path = write_config(tmp_path, intervals=[[1.0, 0.5]], masses=[1.0])
        assert run(["eqm", "--config", str(path)]) == 1

    def test_grid_floor(self, tmp_path):
        path = write_config(tmp_path)
        assert run(["eqm", "--config", str(path), "--grid", "1"]) == 1

    def test_digest_is_order_insensitive(self):
        a = {"schema_version": 1, "intervals": [[0.0, 1.0]]}
        b = {"intervals": [[0.0, 1.0]], "schema_version": 1}
        assert config_digest(a) == config_digest(b)
        c = {"schema_version": 1, "intervals": [[0.0, 2.0]]}
        assert config_digest(a) != config_digest(c)


class TestCommands:
    def test_eqm(self, tmp_path, capsys):
        cfg = write_config(tmp_path, grid=200)
        out = tmp_path / "out"
        assert run(["eqm", "--config", str(cfg), "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 3
        report = json.loads((out / "eqm.report.json").read_text())
        assert report["energy"] == pytest.approx(0.42, abs=0.02)
        assert report["kkt_residual"] < 2e-4
        rows = read_csv(out / "eqm.csv")
        assert rows[0] == ["interval_index", "node", "weight", "density"]
        assert len(rows) == 1 + 2 * 200
        manifest = json.loads((out / "eqm.manifest.json").read_text())
        assert manifest["command"] == "eqm"
        assert manifest["seed"] == 0
        assert sorted(manifest["outputs"]) == ["eqm.csv", "eqm.report.json"]
        assert manifest["config_sha256"] == config_digest(manifest["config"])

    def test_fekete(self, tmp_path):
        cfg = write_config(tmp_path, fekete={"d_max": 2, "n_starts": 2})
        out = tmp_path / "out"
        assert run(["fekete", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "fekete.csv")
        assert rows[0] == ["d", "total", "log_weight", "normalized", "distance"]
        assert len(rows) == 3
        config_rows = read_csv(out / "fekete_config.csv")
        assert len(config_rows) == 1 + 4
        report = json.loads((out / "fekete.report.json").read_text())
        assert report["d_max"] == 2

    def test_threads_flag_is_accepted_and_ignored(self, tmp_path, capsys):
        cfg = write_config(tmp_path, fekete={"d_max": 2, "n_starts": 2})
        plain, threaded = tmp_path / "plain", tmp_path / "threaded"
        assert run(["fekete", "--config", str(cfg), "--out", str(plain)]) == 0
        assert run(
            ["fekete", "--config", str(cfg), "--out", str(threaded), "--threads", "2"]
        ) == 0
        names = sorted(p.name for p in plain.iterdir())
        assert names == sorted(p.name for p in threaded.iterdir())
        for name in names:
            assert (plain / name).read_bytes() == (threaded / name).read_bytes()

    def test_sample_and_determinism(self, tmp_path):
        cfg = write_config(
            tmp_path,
            grid=80,
            sample={"d": 1, "n_samples": 8, "burn_in": 5, "thin": 1},
        )
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_c = tmp_path / "c"
        assert run(["sample", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert run(["sample", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert run(
            ["sample", "--config", str(cfg), "--out", str(out_c), "--seed", "1"]
        ) == 0
        bytes_a = (out_a / "sample.csv").read_bytes()
        assert bytes_a == (out_b / "sample.csv").read_bytes()
        assert bytes_a != (out_c / "sample.csv").read_bytes()
        rows = read_csv(out_a / "sample.csv")
        assert len(rows) == 1 + 8 * 2
        report = json.loads((out_a / "sample.report.json").read_text())
        assert report["index"] == [1, 1]
        manifest = json.loads((out_c / "sample.manifest.json").read_text())
        assert manifest["seed"] == 1

    def test_mop(self, tmp_path):
        cfg = write_config(tmp_path, mop={"d": 1, "z_points": [0.0, 3.0]})
        out = tmp_path / "out"
        assert run(["mop", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "mop.csv")
        assert rows[0] == ["z", "polynomial", "expectation", "stderr"]
        assert len(rows) == 3
        report = json.loads((out / "mop.report.json").read_text())
        assert report["degree"] == 2
        assert report["coefficients"] == pytest.approx([-7.0 / 3.0, 0.0], abs=1e-3)

    def test_zconst(self, tmp_path):
        cfg = write_config(tmp_path, zconst={"d_list": [1], "n_starts": 2})
        out = tmp_path / "out"
        assert run(["zconst", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "zconst.csv")
        assert rows[0] == ["d", "total", "log_z", "log_sector_factor", "lower", "upper"]
        assert len(rows) == 2
        d, total, log_z, log_sector, lower, upper = rows[1]
        assert int(total) == 2
        assert float(log_z) == pytest.approx(np.log(3.0), abs=1e-4)
        assert float(log_sector) == 0.0
        assert float(lower) <= float(log_z) <= float(upper)

    def test_zconst_beyond_the_tensor(self, tmp_path):
        # 14 points: no tensor quadrature and no degree cap stand in the way.
        cfg = write_config(
            tmp_path,
            sequence={"rule": "explicit", "indices": [[7, 7]]},
            zconst={"d_list": [1], "n_starts": 2},
        )
        out = tmp_path / "out"
        assert run(["zconst", "--config", str(cfg), "--out", str(out)]) == 0
        d, total, log_z, log_sector, lower, upper = read_csv(out / "zconst.csv")[1]
        assert int(total) == 14
        assert np.isfinite(float(log_z))
        assert float(lower) <= float(log_z) <= float(upper)

    def test_ldp(self, tmp_path):
        cfg = write_config(tmp_path, ldp={"n_list": [40, 80], "n_configs": 10})
        out = tmp_path / "out"
        assert run(["ldp", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "ldp.csv")
        assert rows[0] == ["kind", "n", "value"]
        kinds = [r[0] for r in rows[1:]]
        assert kinds == ["probe", "probe", "field_shift_worst", "rate_equilibrium"]
        report = json.loads((out / "ldp.report.json").read_text())
        assert report["rate_equilibrium"] == pytest.approx(0.0, abs=1e-9)
        assert report["field_shift_worst"] < 1e-10

    def test_bm(self, tmp_path):
        cfg = write_config(tmp_path, bm={"degrees": [2, 4]})
        out = tmp_path / "out"
        assert run(["bm", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "bm.csv")
        assert rows[0] == ["interval_index", "degree", "beta", "root"]
        assert len(rows) == 1 + 4
        for row in rows[1:]:
            assert float(row[2]) >= 1.0 - 1e-9


def test_power_base_off_positive_axis_exits_1(tmp_path, capsys):
    # power(k) is x**k, which is negative on [-2, -1] for odd k.
    cfg = write_config(
        tmp_path, intervals=[[-2.0, -1.0]], masses=[1.0], base_measures="power(1)"
    )
    assert run(["bm", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "nonnegative" in capsys.readouterr().err


def test_solver_failure_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, eqm={"max_iter": 2, "tol": 1e-14})
    assert run(["eqm", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "MaxIterationsExceeded" in capsys.readouterr().err


def test_verify_exit_codes(tmp_path, monkeypatch):
    import angelesco.acceptance as acceptance
    from angelesco.acceptance import CriterionResult

    def all_pass(report_path=None, echo=print):
        return [CriterionResult("criterion_1", True, "ok", {}, 0.0)]

    def one_fail(report_path=None, echo=print):
        return [CriterionResult("criterion_1", False, "off", {}, 0.0)]

    monkeypatch.setattr(acceptance, "run_all", all_pass)
    assert run(["verify", "--out", str(tmp_path)]) == 0
    monkeypatch.setattr(acceptance, "run_all", one_fail)
    assert run(["verify", "--out", str(tmp_path)]) == 3
