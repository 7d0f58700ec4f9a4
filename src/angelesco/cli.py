"""Command-line front end: config parsing, orchestration, CSV/JSON emission.

Config files are JSON with an explicit ``schema_version``.  Unknown keys are
rejected so a typo cannot silently change an experiment.  Every command writes
a manifest carrying the resolved config, its hash, and the seed; identical
(config, seed) runs produce byte-identical CSV numeric content.

Exit codes: 0 ok, 1 config error, 2 numerical failure, 3 acceptance failure.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import IntervalSystem, MultiIndexSequence
from .energy import ExternalField
from .ensemble import (
    BaseMeasure,
    EnsembleSpec,
    _log_partition,
    _log_sector_factor,
    export_samples_csv,
    gibbs_sample,
    partition_function_bounds,
)
from .equilibrium import solve_equilibrium
from .equilibrium import export_csv as export_equilibrium_csv
from .errors import AngelescoError
from .fekete import fekete_asymptotics, fekete_points
from .fekete import export_csv as export_fekete_csv
from .ldp import (
    bm_constant,
    field_shift_identity,
    quantile_energy_probe,
    random_configuration,
    rate_function,
)
from .mop import expectation_identity_check, solve_mop

SCHEMA_VERSION = 1

FMT = "%.17g"


class ConfigError(ValueError):
    """Invalid or unparseable experiment configuration."""


# ---------------------------------------------------------------- config

_TOP_KEYS = {
    "schema_version",
    "intervals",
    "masses",
    "fields",
    "base_measures",
    "sequence",
    "grid",
    "seed",
    "eqm",
    "fekete",
    "sample",
    "mop",
    "zconst",
    "ldp",
    "bm",
}

_SECTION_KEYS = {
    "eqm": {"tol", "max_iter"},
    "fekete": {"d_max", "n_starts", "tol"},
    "sample": {"d", "n_samples", "burn_in", "thin"},
    "mop": {"d", "z_points", "mode"},
    "zconst": {"d_list", "epsilon", "n_starts"},
    "ldp": {"n_list", "n_configs"},
    "bm": {"degrees"},
}


def _check_keys(mapping, allowed, where):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(
            "unknown key(s) in %s: %s" % (where, ", ".join(sorted(unknown)))
        )


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            "schema_version must be %d, got %r"
            % (SCHEMA_VERSION, cfg.get("schema_version"))
        )
    _check_keys(cfg, _TOP_KEYS, "config")
    for name, allowed in _SECTION_KEYS.items():
        if name in cfg:
            if not isinstance(cfg[name], dict):
                raise ConfigError("section %r must be an object" % name)
            _check_keys(cfg[name], allowed, "section %r" % name)
    if "intervals" not in cfg:
        raise ConfigError("config needs 'intervals'")
    return cfg


def build_system(cfg):
    intervals = cfg["intervals"]
    if not isinstance(intervals, list) or not intervals:
        raise ConfigError("'intervals' must be a non-empty list of [a, b]")
    try:
        pairs = tuple((float(a), float(b)) for a, b in intervals)
    except (TypeError, ValueError):
        raise ConfigError("'intervals' entries must be [a, b] number pairs")
    masses = cfg.get("masses")
    if masses is None:
        masses = [1.0 / len(pairs)] * len(pairs)
    if len(masses) != len(pairs):
        raise ConfigError("'masses' length must match 'intervals'")
    try:
        return IntervalSystem(pairs, tuple(float(r) for r in masses))
    except (TypeError, ValueError) as exc:
        raise ConfigError("invalid interval system: %s" % exc)


def _one_field(entry):
    """Turn one config entry into a callable on one interval (or None)."""
    if entry == "zero":
        return None
    if isinstance(entry, str) and entry.startswith("quadratic("):
        inner = entry[len("quadratic(") : -1] if entry.endswith(")") else None
        if inner is None:
            raise ConfigError("malformed field %r" % entry)
        parts = inner.split(",")
        if len(parts) != 2:
            raise ConfigError(
                "field %r needs two parameters: quadratic(center,scale)" % entry
            )
        try:
            center, scale = float(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigError("non-numeric parameters in field %r" % entry)
        return lambda x, c=center, s=scale: s * (np.asarray(x, float) - c) ** 2
    if isinstance(entry, dict):
        _check_keys(entry, {"type", "x", "y"}, "field entry")
        if entry.get("type") != "samples":
            raise ConfigError("field object must have type 'samples'")
        x = np.asarray(entry.get("x", ()), float)
        y = np.asarray(entry.get("y", ()), float)
        if x.size < 2 or x.size != y.size:
            raise ConfigError("field samples need matching x/y, at least 2")
        if np.any(np.diff(x) <= 0):
            raise ConfigError("field sample x values must increase")
        return lambda t, x=x, y=y: np.interp(np.asarray(t, float), x, y)
    raise ConfigError("unrecognized field entry %r" % (entry,))


def build_field(cfg, system):
    entries = cfg.get("fields", "zero")
    if not isinstance(entries, list):
        entries = [entries] * system.p
    if len(entries) != system.p:
        raise ConfigError("'fields' must have one entry per interval")
    funcs = [_one_field(e) for e in entries]
    if all(f is None for f in funcs):
        return None
    return ExternalField(tuple(funcs))


def _one_base(entry, system, i, cells):
    if entry == "lebesgue":
        return BaseMeasure.lebesgue(system, i, cells=cells)
    if isinstance(entry, str) and entry.startswith("power("):
        inner = entry[len("power(") : -1] if entry.endswith(")") else None
        if inner is None:
            raise ConfigError("malformed base measure %r" % entry)
        try:
            k = int(inner)
        except ValueError:
            raise ConfigError("power() wants an integer, got %r" % entry)
        return BaseMeasure.power(system, i, k, cells=cells)
    if isinstance(entry, dict):
        _check_keys(entry, {"type", "x", "y"}, "base measure entry")
        if entry.get("type") != "samples":
            raise ConfigError("base measure object must have type 'samples'")
        x = np.asarray(entry.get("x", ()), float)
        y = np.asarray(entry.get("y", ()), float)
        if x.size < 2 or x.size != y.size:
            raise ConfigError("base samples need matching x/y, at least 2")
        if np.any(np.diff(x) <= 0):
            raise ConfigError("base sample x values must increase")
        fn = lambda t, x=x, y=y: np.interp(np.asarray(t, float), x, y)
        return BaseMeasure.from_callable(system, i, fn, cells=cells)
    raise ConfigError("unrecognized base measure entry %r" % (entry,))


def build_base(cfg, system, cells):
    entries = cfg.get("base_measures", "lebesgue")
    if not isinstance(entries, list):
        entries = [entries] * system.p
    if len(entries) != system.p:
        raise ConfigError("'base_measures' must have one entry per interval")
    return tuple(
        _one_base(e, system, i, cells) for i, e in enumerate(entries)
    )


def build_sequence(cfg, system):
    rule = cfg.get("sequence", {"rule": "proportional"})
    if not isinstance(rule, dict):
        raise ConfigError("'sequence' must be an object")
    kind = rule.get("rule")
    if kind == "proportional":
        _check_keys(rule, {"rule", "start", "step"}, "sequence")
        start = int(rule.get("start", system.p))
        step = int(rule.get("step", system.p))
        try:
            return MultiIndexSequence.proportional(
                system.r, start=start, step=step
            )
        except ValueError as exc:
            raise ConfigError("invalid proportional sequence: %s" % exc)
    if kind == "explicit":
        _check_keys(rule, {"rule", "indices"}, "sequence")
        indices = rule.get("indices")
        if not isinstance(indices, list) or not indices:
            raise ConfigError("explicit sequence needs 'indices'")
        try:
            return MultiIndexSequence.explicit(
                tuple(tuple(int(c) for c in row) for row in indices)
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError("invalid explicit sequence: %s" % exc)
    raise ConfigError("sequence rule must be 'proportional' or 'explicit'")


def build_spec(cfg, cells):
    system = build_system(cfg)
    field = build_field(cfg, system)
    base = build_base(cfg, system, cells)
    seq = build_sequence(cfg, system)
    try:
        return EnsembleSpec(system, field, base, seq)
    except ValueError as exc:
        raise ConfigError("inconsistent ensemble description: %s" % exc)


def _resolved(cfg, seed, cells):
    out = dict(cfg)
    out["seed"] = seed
    out["grid"] = cells
    return out


def config_digest(cfg):
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_manifest(out_dir, command, cfg, seed, files):
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "package_version": __version__,
        "seed": seed,
        "config_sha256": config_digest(cfg),
        "config": cfg,
        "outputs": sorted(Path(f).name for f in files),
    }
    path = Path(out_dir) / ("%s.manifest.json" % command)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    FMT % v if isinstance(v, float) else str(v) for v in row
                )
                + "\n"
            )
    return str(path)


# ---------------------------------------------------------------- commands


def cmd_eqm(cfg, seed, cells, out_dir):
    system = build_system(cfg)
    field = build_field(cfg, system)
    sec = cfg.get("eqm", {})
    sol = solve_equilibrium(
        system,
        field=field,
        cells=cells,
        tol=float(sec.get("tol", 1e-4)),
        max_iter=int(sec.get("max_iter", 20000)),
    )
    csv_path = str(Path(out_dir) / "eqm.csv")
    export_equilibrium_csv(sol, csv_path)
    report = _write_json(
        Path(out_dir) / "eqm.report.json",
        {
            "energy": sol.energy.total,
            "self_terms": list(sol.energy.self_terms),
            "cross_terms": sol.energy.cross_terms,
            "field_terms": list(sol.energy.field_terms),
            "modified_robin_constants": list(sol.modified_robin_constants),
            "kkt_residual": sol.kkt_residual,
            "iterations": sol.iterations,
        },
    )
    return [csv_path, report]


def cmd_fekete(cfg, seed, cells, out_dir):
    system = build_system(cfg)
    field = build_field(cfg, system)
    seq = build_sequence(cfg, system)
    sec = cfg.get("fekete", {})
    d_max = int(sec.get("d_max", 3))
    n_starts = int(sec.get("n_starts", 4))
    tol = float(sec.get("tol", 1e-10))
    rows, results = fekete_asymptotics(
        system,
        seq,
        d_max,
        field=field,
        cells=cells,
        n_starts=n_starts,
        tol=tol,
        seed=seed,
    )
    trend_path = _write_csv(
        Path(out_dir) / "fekete.csv",
        ("d", "total", "log_weight", "normalized", "distance"),
        [
            (r.d, r.total, res.log_boltzmann, r.normalized, r.distance_to_equilibrium)
            for r, res in zip(rows, results)
        ],
    )
    best = results[-1]
    config_path = str(Path(out_dir) / "fekete_config.csv")
    export_fekete_csv(best, config_path)
    report = _write_json(
        Path(out_dir) / "fekete.report.json",
        {
            "d_max": d_max,
            "log_weight": best.log_boltzmann,
            "normalized": best.normalized,
            "starts_used": best.starts_used,
            "coordinatewise_optimal": best.coordinatewise_optimal,
        },
    )
    return [trend_path, config_path, report]


def cmd_sample(cfg, seed, cells, out_dir):
    spec = build_spec(cfg, cells)
    sec = cfg.get("sample", {})
    d = int(sec.get("d", 1))
    batch = gibbs_sample(
        spec,
        d,
        int(sec.get("n_samples", 100)),
        burn_in=int(sec.get("burn_in", 50)),
        thin=int(sec.get("thin", 5)),
        seed=seed,
    )
    csv_path = str(Path(out_dir) / "sample.csv")
    export_samples_csv(batch, csv_path)
    report = _write_json(
        Path(out_dir) / "sample.report.json",
        {
            "d": d,
            "index": list(batch.index.counts),
            "n_samples": len(batch.configurations),
            "burn_in": batch.burn_in,
            "thin": batch.thin,
        },
    )
    return [csv_path, report]


def cmd_mop(cfg, seed, cells, out_dir):
    spec = build_spec(cfg, cells)
    sec = cfg.get("mop", {})
    d = int(sec.get("d", 1))
    z_points = [float(z) for z in sec.get("z_points", [0.0])]
    poly = solve_mop(spec, spec.index(d))
    rows = expectation_identity_check(
        spec,
        d,
        z_points,
        mode=str(sec.get("mode", "auto")),
        seed=seed,
    )
    csv_path = _write_csv(
        Path(out_dir) / "mop.csv",
        ("z", "polynomial", "expectation", "stderr"),
        rows,
    )
    report = _write_json(
        Path(out_dir) / "mop.report.json",
        {
            "d": d,
            "index": list(spec.index(d).counts),
            "degree": poly.degree,
            "coefficients": list(poly.coefficients),
        },
    )
    return [csv_path, report]


def cmd_zconst(cfg, seed, cells, out_dir):
    spec = build_spec(cfg, cells)
    sec = cfg.get("zconst", {})
    d_list = [int(d) for d in sec.get("d_list", [1])]
    epsilon = float(sec.get("epsilon", 0.05))
    n_starts = int(sec.get("n_starts", 2))
    rows = []
    for d in d_list:
        m = spec.index(d)
        log_z = _log_partition(spec, d)
        fek = fekete_points(
            spec.system,
            m,
            field=spec.field,
            n_starts=n_starts,
            seed=seed,
        )
        lo, up = partition_function_bounds(spec, d, fek, epsilon=epsilon)
        rows.append(
            (d, m.total, log_z, _log_sector_factor(m), lo, up)
        )
    csv_path = _write_csv(
        Path(out_dir) / "zconst.csv",
        ("d", "total", "log_z", "log_sector_factor", "lower", "upper"),
        rows,
    )
    report = _write_json(
        Path(out_dir) / "zconst.report.json",
        {"epsilon": epsilon, "d_list": d_list},
    )
    return [csv_path, report]


def cmd_ldp(cfg, seed, cells, out_dir):
    system = build_system(cfg)
    field = build_field(cfg, system)
    sec = cfg.get("ldp", {})
    n_list = [int(n) for n in sec.get("n_list", [50, 100, 200])]
    n_configs = int(sec.get("n_configs", 100))
    eq = solve_equilibrium(system, field=field, cells=cells)
    rate = rate_function(eq.measure, field=field, equilibrium=eq)
    probe = quantile_energy_probe(eq.measure, n_list, field=field)
    rows = [("probe", n, v) for n, v in probe]
    shift_field = field if field is not None else ExternalField.quadratic(
        system.p, scale=0.25
    )
    seq = build_sequence(cfg, system)
    indices = []
    for d in range(1, 5):
        try:
            indices.append(seq(d))
        except ValueError:
            break
    if not indices:
        raise ConfigError("sequence yields no usable multi-index")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for j in range(n_configs):
        X = random_configuration(system, indices[j % len(indices)], rng)
        lhs, rhs = field_shift_identity(X, shift_field)
        worst = max(worst, abs(lhs - rhs))
    rows.append(("field_shift_worst", n_configs, worst))
    rows.append(("rate_equilibrium", 0, rate.rate))
    csv_path = _write_csv(
        Path(out_dir) / "ldp.csv", ("kind", "n", "value"), rows
    )
    report = _write_json(
        Path(out_dir) / "ldp.report.json",
        {
            "rate_equilibrium": rate.rate,
            "equilibrium_energy": rate.equilibrium_energy,
            "field_shift_worst": worst,
        },
    )
    return [csv_path, report]


def cmd_bm(cfg, seed, cells, out_dir):
    system = build_system(cfg)
    base = build_base(cfg, system, cells)
    sec = cfg.get("bm", {})
    degrees = [int(n) for n in sec.get("degrees", [4, 8, 16])]
    rows = []
    for i, tau in enumerate(base):
        for n in degrees:
            est = bm_constant(tau, n)
            rows.append((i, n, est.beta, est.root))
    csv_path = _write_csv(
        Path(out_dir) / "bm.csv",
        ("interval_index", "degree", "beta", "root"),
        rows,
    )
    return [csv_path]


def cmd_verify(cfg, seed, cells, out_dir):
    from .acceptance import run_all

    results = run_all(report_path=Path(out_dir) / "report.json")
    files = [str(Path(out_dir) / "report.json")]
    ok = all(r.passed for r in results)
    return files, ok


_COMMANDS = {
    "eqm": cmd_eqm,
    "fekete": cmd_fekete,
    "sample": cmd_sample,
    "mop": cmd_mop,
    "zconst": cmd_zconst,
    "ldp": cmd_ldp,
    "bm": cmd_bm,
}


def _parser():
    ap = argparse.ArgumentParser(
        prog="angelesco",
        description="Equilibrium measures, extremal configurations, and "
        "sampling for systems of disjoint intervals.",
    )
    ap.add_argument("command", choices=sorted(_COMMANDS) + ["verify"])
    ap.add_argument("--config", help="JSON experiment description")
    ap.add_argument("--seed", type=int, default=None, help="RNG seed override")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    ap.add_argument("--grid", type=int, default=None, help="cells per interval")
    return ap


def run(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.command == "verify":
        try:
            _, ok = cmd_verify(None, None, None, out_dir)
        except AngelescoError as exc:
            print(
                "error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr
            )
            return 2
        return 0 if ok else 3

    if not args.config:
        print("error: --config is required for %s" % args.command,
              file=sys.stderr)
        return 1
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    cells = args.grid if args.grid is not None else int(cfg.get("grid", 400))
    if cells < 2:
        print("error: grid must be at least 2", file=sys.stderr)
        return 1
    resolved = _resolved(cfg, seed, cells)
    try:
        files = _COMMANDS[args.command](resolved, seed, cells, out_dir)
    except AngelescoError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        # bad d, inconsistent masses, malformed entries: all config-class
        print("error: %s" % exc, file=sys.stderr)
        return 1
    files.append(write_manifest(out_dir, args.command, resolved, seed, files))
    for f in files:
        print(f)
    return 0


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
