import csv
import json
from pathlib import Path

import numpy as np
import pytest

from angelesco import BaseMeasure, ExternalField, IntervalSystem, solve_equilibrium
from angelesco import energy
from angelesco.cli import _TABLE, config_digest, run
from angelesco.energy import interpolant
from angelesco.ldp import bm_constant


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


def numbers(rows):
    """The data rows of a CSV file read back as floats (exact for %.17g)."""
    return np.array([[float(v) for v in row] for row in rows[1:]])


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

    @pytest.mark.parametrize(
        "key, value", [("grid", "fine"), ("seed", "x"), ("grid", None)]
    )
    def test_non_integer_seed_or_grid(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, **{key: value})
        assert run(["eqm", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: '%s'" % key)

    @pytest.mark.parametrize(
        "command, overrides, key",
        [
            ("eqm", {"eqm": {"tol": None}}, "tol"),
            ("mop", {"mop": {"z_points": 5}}, "z_points"),
            ("eqm", {"masses": 0.5}, "masses"),
            ("sample", {"sample": {"n_samples": "many"}}, "n_samples"),
            ("bm", {"bm": {"degrees": [4, None]}}, "degrees"),
            ("sample", {"sequence": {"rule": "proportional", "start": [2]}}, "start"),
            # int() would take 1.9 and true for 1, float() true for 1.0.
            ("sample", {"sample": {"d": 1.9}}, "d"),
            ("sample", {"sample": {"d": True}}, "d"),
            ("eqm", {"eqm": {"tol": True}}, "tol"),
            ("bm", {"bm": {"degrees": [4, 8.5]}}, "degrees"),
            # int("2") would succeed.
            ("sample", {"sample": {"d": "2"}}, "d"),
            # In range of their kind, out of range of the key.
            ("fekete", {"fekete": {"d_max": 0}}, "d_max"),
            ("fekete", {"fekete": {"n_starts": 0}}, "n_starts"),
            ("bm", {"bm": {"degrees": [-1]}}, "degrees"),
            ("eqm", {"eqm": {"max_iter": 0}}, "max_iter"),
            ("eqm", {"eqm": {"tol": float("nan")}}, "tol"),
            ("eqm", {"seed": -5}, "seed"),
            # Fewer points than intervals.
            ("ldp", {"ldp": {"n_list": [1]}}, "n_list"),
        ],
        ids=["eqm_tol_null", "mop_z_points_scalar", "masses_scalar",
             "sample_n_samples_string", "bm_degree_null", "sequence_start_list",
             "sample_d_float", "sample_d_bool", "eqm_tol_bool", "bm_degree_float",
             "sample_d_numeric_string", "fekete_d_max_zero",
             "fekete_n_starts_zero", "bm_degree_negative", "eqm_max_iter_zero",
             "eqm_tol_nan", "seed_negative", "ldp_n_below_p"],
    )
    def test_wrongly_typed_value_exits_1(
        self, tmp_path, capsys, command, overrides, key
    ):
        path = write_config(tmp_path, **overrides)
        out = str(tmp_path / "out")
        assert run([command, "--config", str(path), "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: '%s' must be" % key)
        assert "TypeError" not in err

    @pytest.mark.parametrize(
        "command, overrides, message",
        [
            ("sample", {"sequence": {"rule": "explicit", "indices": [[1, 1.5]]}},
             "invalid explicit sequence: 1.5 is not an integer"),
            ("eqm", {"intervals": [[False, True]], "masses": [1.0]},
             "'intervals' entries must be [a, b] number pairs"),
            ("eqm", {"intervals": [["-2", -1.0], [1.0, 2.0]]},
             "'intervals' entries must be [a, b] number pairs"),
            ("eqm", {"masses": [0.5, float("nan")]},
             "'masses' must be a list of numbers, got [0.5, nan]"),
        ],
        ids=["sequence_index_float", "interval_bool", "interval_numeric_string",
             "masses_nan"],
    )
    def test_wrongly_typed_list_entry_exits_1(
        self, tmp_path, capsys, command, overrides, message
    ):
        path = write_config(tmp_path, **overrides)
        assert run([command, "--config", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: %s\n" % message

    def test_every_section_is_checked_at_load(self, tmp_path, capsys):
        path = write_config(tmp_path, fekete={"n_starts": "two"})
        out = tmp_path / "out"
        assert run(["eqm", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: 'n_starts' must be")
        assert not (out / "eqm.csv").exists()

    def test_digest_is_order_insensitive(self):
        a = {"schema_version": 1, "intervals": [[0.0, 1.0]]}
        b = {"intervals": [[0.0, 1.0]], "schema_version": 1}
        assert config_digest(a) == config_digest(b)
        c = {"schema_version": 1, "intervals": [[0.0, 2.0]]}
        assert config_digest(a) != config_digest(c)


def test_readme_lists_every_config_key():
    # README's config table: one row per key of cli._TABLE, with its default.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {line.split("|")[1].strip(): line
            for line in readme.splitlines() if line.startswith("| `")}
    for section, keys in _TABLE.items():
        for key, (kind, default, check) in keys.items():
            name = "`%s`" % (section + "." + key if section else key)
            assert name in rows, "README has no row for %s" % name
            assert "| `%s` |" % json.dumps(default) in rows[name], name


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
        assert report["applies"] >= report["iterations"] + 1
        rows = read_csv(out / "eqm.csv")
        assert rows[0] == ["interval_index", "node", "weight", "density"]
        assert len(rows) == 1 + 2 * 200
        manifest = json.loads((out / "eqm.manifest.json").read_text())
        assert manifest["command"] == "eqm"
        assert manifest["seed"] == 0
        assert sorted(manifest["outputs"]) == ["eqm.csv", "eqm.report.json"]
        assert manifest["config_sha256"] == config_digest(manifest["config"])

    def test_eqm_report_says_how_it_solved(self, tmp_path):
        cfg = write_config(tmp_path, grid=200)
        out = tmp_path / "out"
        assert run(["eqm", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "eqm.report.json").read_text())
        assert report["rounds"] >= 1
        assert report["applies"] == report["iterations"] + report["rounds"] + 1

    def test_eqm_csv_rows(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run(["eqm", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "eqm.csv")
        assert rows[0] == ["interval_index", "node", "weight", "density"]
        assert len(rows) == 1 + 2 * 100
        assert [r[0] for r in rows[1:]] == ["0"] * 100 + ["1"] * 100
        two = IntervalSystem(((-2.0, -1.0), (1.0, 2.0)), (0.5, 0.5))
        data = numbers(rows)
        for i in range(2):
            block = data[100 * i : 100 * (i + 1)]
            assert np.array_equal(block[:, 1], two.grid_nodes(i, 100))
            assert block[:, 2].sum() == pytest.approx(0.5, abs=1e-10)
            assert np.array_equal(block[:, 3], block[:, 2] / two.cell_width(i, 100))

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
        # deterministic counts of the ascent at d_max, summed over its starts
        assert report["evaluations"] >= report["newton_steps"] >= 1

    def test_fekete_config_csv_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            sequence={"rule": "explicit", "indices": [[2, 1]]},
            fekete={"d_max": 1, "n_starts": 2},
        )
        out = tmp_path / "out"
        assert run(["fekete", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "fekete_config.csv")
        assert rows[0] == ["block", "index", "coordinate"]
        assert len(rows) == 4
        assert [r[0] for r in rows[1:]] == ["0", "0", "1"]
        assert [r[1] for r in rows[1:]] == ["0", "1", "0"]
        x = numbers(rows)[:, 2]
        assert -2.0 <= x[0] < x[1] <= -1.0 and 1.0 <= x[2] <= 2.0

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

    def test_sample_csv_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            grid=80,
            sample={"d": 2, "n_samples": 3, "burn_in": 5, "thin": 1},
        )
        out = tmp_path / "out"
        assert run(["sample", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "sample.csv")
        assert rows[0] == ["sample_id", "block", "index", "value"]
        assert len(rows) == 1 + 3 * 4
        assert rows[1][:3] == ["0", "0", "0"]
        assert [r[0] for r in rows[1:]] == [str(s) for s in range(3) for _ in range(4)]
        assert [r[1:3] for r in rows[1:5]] == [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]
        x = numbers(rows)[:, 3]
        assert np.all((x < 0) == np.tile([True, True, False, False], 3))

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


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("command", ["eqm", "fekete", "sample", "ldp", "mop", "zconst", "bm"])
@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_no_command_builds_a_dense_block(tmp_path, monkeypatch, config, command):
    # The dense blocks are the oracle of the tests; every command reads the
    # kernel operator.
    def dense(g1, g2):
        raise AssertionError("a dense kernel block was built")

    monkeypatch.setattr(energy, "kernel_matrix", dense)
    assert run([command, "--config", str(config), "--out", str(tmp_path)]) == 0


def test_bm_names_saturated_rows_on_stderr(tmp_path, capsys):
    cfg = write_config(tmp_path, grid=50, bm={"degrees": [16, 50]})
    out = tmp_path / "out"
    assert run(["bm", "--config", str(cfg), "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all("degree 50" in line and "cap" in line for line in err)
    assert [line.split()[2] for line in err] == ["0", "1"]
    rows = read_csv(out / "bm.csv")
    assert rows[0] == ["interval_index", "degree", "beta", "root"]
    assert len(rows) == 1 + 4


@pytest.mark.parametrize(
    "command, section, header",
    [("sample", {"n_samples": 0}, "sample_id,block,index,value"),
     ("bm", {"degrees": []}, "interval_index,degree,beta,root"),
     ("mop", {"z_points": []}, "z,polynomial,expectation,stderr"),
     ("zconst", {"d_list": []}, "d,total,log_z,log_sector_factor,lower,upper")],
    ids=["sample", "bm", "mop", "zconst"],
)
def test_a_csv_of_no_rows_is_its_header(tmp_path, command, section, header):
    cfg = write_config(tmp_path, **{command: section})
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / ("%s.csv" % command)).read_text() == header + "\n"


def test_power_base_off_positive_axis_exits_1(tmp_path, capsys):
    # power(k) is x**k, which is negative on [-2, -1] for odd k.
    cfg = write_config(
        tmp_path, intervals=[[-2.0, -1.0]], masses=[1.0], base_measures="power(1)"
    )
    assert run(["bm", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [{"base_measures": "power(1)"}, {"sequence": {"rule": "bogus"}},
     {"fields": "bogus"}],
    ids=["base_negative", "sequence_rule", "field"],
)
@pytest.mark.parametrize(
    "command", ["eqm", "fekete", "sample", "mop", "zconst", "ldp", "bm"]
)
def test_spec_error_exits_1_for_every_command(tmp_path, capsys, command, overrides):
    # The whole spec is built and checked whichever command runs.
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list(out.iterdir()) == []


def test_solver_failure_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, eqm={"max_iter": 2, "tol": 1e-14})
    assert run(["eqm", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "MaxIterationsExceeded" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error", [ZeroDivisionError, ValueError, np.linalg.LinAlgError]
)
def test_unexpected_library_error_exits_2(tmp_path, monkeypatch, capsys, error):
    # Only a ConfigError is a config problem: numpy's LinAlgError is a
    # ValueError, and so is any check inside the library.
    import angelesco.cli as cli

    def broken(spec, sec, seed, cells):
        raise error("inside the library")

    monkeypatch.setitem(cli._COMMANDS, "eqm", broken)
    cfg = write_config(tmp_path)
    assert run(["eqm", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert error.__name__ in capsys.readouterr().err


def test_d_beyond_explicit_sequence_exits_1(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        sequence={"rule": "explicit", "indices": [[2, 2], [3, 3]]},
        sample={"d": 3},
    )
    assert run(["sample", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "d <= 2" in capsys.readouterr().err


def test_mop_unknown_mode_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, mop={"d": 1, "mode": "quadratur"})
    assert run(["mop", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "quadratur" in capsys.readouterr().err


def test_mop_ill_conditioned_quadrature_exits_2(tmp_path, capsys):
    # cond A of Heine's determinant is about 1e12 at (24, 24).
    cfg = write_config(
        tmp_path,
        sequence={"rule": "explicit", "indices": [[24, 24]]},
        mop={"d": 1, "mode": "quadrature"},
    )
    assert run(["mop", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "IllConditionedSystem" in capsys.readouterr().err


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


SAMPLED_FIELD = {"type": "samples", "x": [0.0, 0.4, 1.0], "y": [0.3, 0.05, 0.2]}
SAMPLED_BASE = {"type": "samples", "x": [0.0, 0.5, 1.0], "y": [1.0, 2.0, 1.5]}


def sampled_config(tmp_path, **overrides):
    cfg = {
        "intervals": [[0.0, 1.0], [1.5, 3.0]],
        "fields": [SAMPLED_FIELD, "quadratic(2,0.2)"],
        "base_measures": [SAMPLED_BASE, "power(2)"],
        "bm": {"degrees": [2, 4]},
    }
    cfg.update(overrides)
    return write_config(tmp_path, **cfg)


def test_sampled_entries_match_the_python_api(tmp_path):
    cfg = sampled_config(tmp_path)
    out = tmp_path / "out"
    assert run(["eqm", "--config", str(cfg), "--out", str(out)]) == 0
    assert run(["bm", "--config", str(cfg), "--out", str(out)]) == 0
    system = IntervalSystem(((0.0, 1.0), (1.5, 3.0)), (0.5, 0.5))
    field = ExternalField((
        interpolant(SAMPLED_FIELD["x"], SAMPLED_FIELD["y"]),
        lambda x: 0.2 * (np.asarray(x, float) - 2.0) ** 2,
    ))
    sol = solve_equilibrium(system, field=field, cells=100)
    eqm = numbers(read_csv(out / "eqm.csv"))
    assert np.array_equal(
        eqm[:, 2], np.concatenate([g.weights for g in sol.measure])
    )
    base = (
        BaseMeasure.from_callable(
            system, 0, interpolant(SAMPLED_BASE["x"], SAMPLED_BASE["y"]), cells=100
        ),
        BaseMeasure.power(system, 1, 2, cells=100),
    )
    expected = [
        (i, n, est.beta, est.root)
        for i, tau in enumerate(base)
        for n in (2, 4)
        for est in [bm_constant(tau, n)]
    ]
    assert np.array_equal(numbers(read_csv(out / "bm.csv")), np.array(expected))


def test_fekete_reaches_a_kink_of_a_sampled_config_field(tmp_path):
    # The config path builds its sampled fields apart from
    # ExternalField.from_samples; the scan grid still takes their abscissae,
    # so the (3, 3) maximizer's point on the kink at x = 1.3 lands on it.
    bumps = [
        {"type": "samples", "x": [-2.0, -1.5, -1.0], "y": [0.0, 0.8, 0.0]},
        {"type": "samples", "x": [1.0, 1.3, 1.6, 2.0], "y": [0.5, 0.0, 0.9, 0.2]},
    ]
    cfg = write_config(
        tmp_path,
        fields=bumps,
        sequence={"rule": "explicit", "indices": [[3, 3]]},
        fekete={"d_max": 1, "n_starts": 4},
    )
    out = tmp_path / "out"
    assert run(["fekete", "--config", str(cfg), "--out", str(out)]) == 0
    rows = numbers(read_csv(out / "fekete_config.csv"))
    assert 1.3 in rows[rows[:, 0] == 1, 2].tolist()
    report = json.loads((out / "fekete.report.json").read_text())
    assert report["coordinatewise_optimal"]
    assert report["log_weight"] == pytest.approx(-6.764405440893563, abs=1e-8)


@pytest.mark.parametrize(
    "bad",
    [
        {"type": "spline", "x": [0.0, 1.0], "y": [1.0, 1.0]},
        {"type": "samples", "x": [0.0, 1.0], "y": [1.0, 1.0], "z": [0.0]},
        {"type": "samples", "x": [0.5], "y": [1.0]},
        {"type": "samples", "x": [0.0, 0.5, 1.0], "y": [1.0, 1.0]},
        {"type": "samples", "x": [0.0, 0.5, 0.5], "y": [1.0, 1.0, 1.0]},
        {"type": "samples", "x": [0.0, 0.5, 1.0], "y": [1.0, float("nan"), 1.0]},
    ],
    ids=["type", "unknown_key", "one_sample", "lengths", "non_increasing",
         "non_finite"],
)
@pytest.mark.parametrize("command, key", [("eqm", "fields"), ("bm", "base_measures")])
def test_bad_sampled_entry_exits_1(tmp_path, capsys, command, key, bad):
    cfg = sampled_config(tmp_path, **{key: [bad, SAMPLED_BASE]})
    assert run([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
