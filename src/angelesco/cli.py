"""Command-line front end: config parsing, orchestration, CSV/JSON emission.

Config files are JSON with an explicit ``schema_version``.  Unknown keys are
rejected so a typo cannot silently change an experiment.  Every command writes
a manifest carrying the resolved config, its hash, and the seed; identical
(config, seed) runs produce byte-identical CSV numeric content.

Exit codes: 0 ok, 1 config error (``ConfigError`` only), 2 any other failure
inside the library, 3 acceptance failure.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import IntervalSystem, MultiIndexSequence
# perfbench/tracing.py times every write under these two names.
from .core import write_csv as _write_csv, write_json as _write_json
from .energy import ExternalField, _quadratic, interpolant
from .ensemble import (
    BaseMeasure,
    EnsembleSpec,
    _log_partition,
    _log_sector_factor,
    gibbs_sample,
    partition_function_bounds,
)
from .equilibrium import solve_equilibrium
from .fekete import fekete_asymptotics, fekete_points
from .ldp import (
    bm_constant,
    field_shift_worst,
    quantile_energy_probe,
    rate_function,
)
from .mop import _identity_rows, solve_mop

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid or unparseable experiment configuration."""


# ---------------------------------------------------------------- config

# Every key with a fixed default: section -> key -> (kind, default, check).  The
# section "" is the top level.  kind is "integer", "number", a list of either
# ("integers", "numbers") or "string"; check is the least allowed number (of
# every entry, for a list), the allowed strings, or None.  Numbers are finite
# JSON numbers, never a bool or a string.
_TABLE = {
    "": {"seed": ("integer", 0, 0), "grid": ("integer", 400, 2)},
    "eqm": {"tol": ("number", 1e-4, 0), "max_iter": ("integer", 20000, 1)},
    "fekete": {
        "d_max": ("integer", 3, 1),
        "n_starts": ("integer", 4, 1),
        "tol": ("number", 1e-10, 0),
    },
    "sample": {
        "d": ("integer", 1, 1),
        "n_samples": ("integer", 100, 0),
        "burn_in": ("integer", 50, 0),
        "thin": ("integer", 5, 0),
    },
    "mop": {
        "d": ("integer", 1, 1),
        "z_points": ("numbers", [0.0], None),
        "mode": ("string", "auto", ("auto", "quadrature", "mc")),
    },
    "zconst": {
        "d_list": ("integers", [1], 1),
        "epsilon": ("number", 0.05, 0),
        "n_starts": ("integer", 2, 1),
    },
    "ldp": {"n_list": ("integers", [50, 100, 200], 1), "n_configs": ("integer", 100, 0)},
    "bm": {"degrees": ("integers", [4, 8, 16], 0)},
}

_TOP_KEYS = {
    "schema_version", "intervals", "masses", "fields", "base_measures",
    "sequence", *_TABLE[""], *_TABLE,
} - {""}


def _check_keys(mapping, allowed, where):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(
            "unknown key(s) in %s: %s" % (where, ", ".join(sorted(unknown)))
        )


def load_config(path):
    """The config at ``path`` as given; ConfigError unless every key is known
    and every ``_TABLE`` key converts and passes its check."""
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
    for name in _TABLE:
        _section(cfg, name)
    if "intervals" not in cfg:
        raise ConfigError("config needs 'intervals'")
    return cfg


def _section(cfg, name):
    """Section ``name`` of ``cfg`` ("" for the top level) as a dict of every
    ``_TABLE[name]`` key, converted and checked; absent keys at their default."""
    table = _TABLE[name]
    sec = cfg.get(name, {}) if name else cfg
    if not isinstance(sec, dict):
        raise ConfigError("section %r must be an object" % name)
    if name:
        _check_keys(sec, set(table), "section %r" % name)
    return {
        key: _checked(key, sec.get(key, default), kind, check)
        for key, (kind, default, check) in table.items()
    }


def _number(value, kind):
    """``kind(value)`` for a JSON number of that kind (an int, or for a float
    a finite int or float), else TypeError: a string (``int("2")`` succeeds),
    a bool (true is 1 to Python), a float given as an int (``int`` would
    truncate 1.9 to 1), NaN and infinity (``json`` reads ``NaN`` and
    ``Infinity``, and ``1e400`` as inf) are refused."""
    if kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max)
    if not ok:
        raise TypeError("%r is not %s" % (
            value, "an integer" if kind is int else "a finite number"))
    return kind(value)


def _checked(key, value, kind, check):
    """``value`` as a ``_TABLE`` entry of ``kind`` that passes ``check``;
    else ConfigError naming ``key``."""
    if kind == "string":
        if isinstance(value, str) and value in check:
            return value
        raise ConfigError(
            "%r must be one of %s, got %r" % (key, ", ".join(check), value)
        )
    listed = kind.endswith("s")
    entries = value if listed else [value]
    try:
        if isinstance(entries, list):
            out = [_number(v, int if kind.startswith("integer") else float)
                   for v in entries]
            if check is None or all(v >= check for v in out):
                return out if listed else out[0]
    except TypeError:
        pass
    what = ("a list of " if listed else "an " if kind == "integer" else "a ") + kind
    if check is not None:
        what += " >= %s" % check
    raise ConfigError("%r must be %s, got %r" % (key, what, value))


def build_system(cfg):
    intervals = cfg["intervals"]
    if not isinstance(intervals, list) or not intervals:
        raise ConfigError("'intervals' must be a non-empty list of [a, b]")
    try:
        pairs = tuple((_number(a, float), _number(b, float)) for a, b in intervals)
    except (TypeError, ValueError):
        raise ConfigError("'intervals' entries must be [a, b] number pairs")
    masses = cfg.get("masses")
    if masses is None:
        masses = [1.0 / len(pairs)] * len(pairs)
    masses = _checked("masses", masses, "numbers", None)
    if len(masses) != len(pairs):
        raise ConfigError("'masses' must be a list as long as 'intervals'")
    try:
        return IntervalSystem(pairs, tuple(masses))
    except ValueError as exc:
        raise ConfigError("invalid interval system: %s" % exc)


def _per_interval(cfg, key, default, p):
    """The p entries of ``key``: a list of p, or one entry for every interval."""
    entries = cfg.get(key, default)
    if not isinstance(entries, list):
        return [entries] * p
    if len(entries) != p:
        raise ConfigError("%r must have one entry per interval" % key)
    return entries


def _call_args(entry, name):
    """The arguments of a ``name(a,b,...)`` entry as strings; None otherwise."""
    if not (isinstance(entry, str) and entry.startswith(name + "(")):
        return None
    if not entry.endswith(")"):
        raise ConfigError("malformed entry %r" % entry)
    return entry[len(name) + 1 : -1].split(",")


def _samples(entry, what):
    """The interpolant of a ``{"type": "samples", "x": [...], "y": [...]}``."""
    _check_keys(entry, {"type", "x", "y"}, what + " entry")
    if entry.get("type") != "samples":
        raise ConfigError("%s object must have type 'samples'" % what)
    try:
        return interpolant(entry.get("x", ()), entry.get("y", ()))
    except (TypeError, ValueError) as exc:
        raise ConfigError("invalid %s samples: %s" % (what, exc))


def _one_field(entry):
    """Turn one config entry into a callable on one interval (or None)."""
    if entry == "zero":
        return None
    args = _call_args(entry, "quadratic")
    if args is not None:
        try:
            center, scale = (_number(float(a), float) for a in args)
        except (TypeError, ValueError):
            raise ConfigError("field %r wants quadratic(center,scale)" % entry)
        return _quadratic(center, scale)
    if isinstance(entry, dict):
        return _samples(entry, "field")
    raise ConfigError("unrecognized field entry %r" % (entry,))


def build_field(cfg, system):
    funcs = [_one_field(e) for e in _per_interval(cfg, "fields", "zero", system.p)]
    if all(f is None for f in funcs):
        return None
    return ExternalField(tuple(funcs))


def _one_base(entry, system, i, cells):
    if entry == "lebesgue":
        return BaseMeasure.lebesgue(system, i, cells=cells)
    args = _call_args(entry, "power")
    if args is not None:
        try:
            (k,) = (int(a) for a in args)
        except ValueError:
            raise ConfigError("base measure %r wants power(k), k an integer" % entry)
        return BaseMeasure.power(system, i, k, cells=cells)
    if isinstance(entry, dict):
        fn = _samples(entry, "base measure")
        return BaseMeasure.from_callable(system, i, fn, cells=cells)
    raise ConfigError("unrecognized base measure entry %r" % (entry,))


def build_base(cfg, system, cells):
    entries = _per_interval(cfg, "base_measures", "lebesgue", system.p)
    try:
        return tuple(_one_base(e, system, i, cells) for i, e in enumerate(entries))
    except ConfigError:
        raise
    except ValueError as exc:
        # BaseMeasure's own checks: power(1) on [-2, -1] is negative.
        raise ConfigError("invalid base measure: %s" % exc)


def build_sequence(cfg, system):
    rule = cfg.get("sequence", {"rule": "proportional"})
    if not isinstance(rule, dict):
        raise ConfigError("'sequence' must be an object")
    kind = rule.get("rule")
    if kind == "proportional":
        _check_keys(rule, {"rule", "start", "step"}, "sequence")
        return MultiIndexSequence.proportional(
            system.r,
            start=_checked("start", rule.get("start", system.p), "integer", system.p),
            step=_checked("step", rule.get("step", system.p), "integer", 1),
        )
    if kind == "explicit":
        _check_keys(rule, {"rule", "indices"}, "sequence")
        indices = rule.get("indices")
        if not isinstance(indices, list) or not indices:
            raise ConfigError("explicit sequence needs 'indices'")
        try:
            return MultiIndexSequence.explicit(
                tuple(tuple(_number(c, int) for c in row) for row in indices)
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


def _within(spec, sec):
    """ConfigError unless every step of ``sec`` (``d``, ``d_max``, each of
    ``d_list``) lies within the sequence and every ``n_list`` entry places at
    least one point on each interval."""
    length = spec.seq.length
    for key in ("d", "d_max", "d_list"):
        steps = sec.get(key, [])
        if length is not None and max(np.atleast_1d(steps), default=1) > length:
            raise ConfigError("%r must lie within the sequence: "
                              "sequence defined for d <= %d" % (key, length))
    if "n_list" in sec:
        _checked("n_list", sec["n_list"], "integers", spec.system.p)


def config_digest(cfg):
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_manifest(out_dir, command, cfg, names):
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "package_version": __version__,
        "seed": cfg["seed"],
        "config_sha256": config_digest(cfg),
        "config": cfg,
        "outputs": sorted(names),
    }
    return _write_json(Path(out_dir) / ("%s.manifest.json" % command), manifest)


# ---------------------------------------------------------------- commands

# Each command returns its files by name, in the order ``run`` writes and
# prints them: a CSV as (header, columns), a report as its JSON payload.


def _positions(counts, copies=1):
    """The block and index columns of ``copies`` stacked configurations whose
    blocks hold ``counts`` points."""
    block = np.repeat(np.arange(len(counts)), counts)
    index = np.concatenate([np.arange(n) for n in counts])
    return np.tile(block, copies), np.tile(index, copies)


def cmd_eqm(spec, sec, seed, cells):
    sol = solve_equilibrium(spec.system, field=spec.field, cells=cells, **sec)
    sizes = [g.nodes.size for g in sol.measure]
    return {
        "eqm.csv": (
            ("interval_index", "node", "weight", "density"),
            (np.repeat(np.arange(len(sizes)), sizes),
             np.concatenate([g.nodes for g in sol.measure]),
             np.concatenate([g.weights for g in sol.measure]),
             np.concatenate([g.density() for g in sol.measure])),
        ),
        "eqm.report.json": {
            "energy": sol.energy.total,
            "self_terms": list(sol.energy.self_terms),
            "cross_terms": sol.energy.cross_terms,
            "field_terms": list(sol.energy.field_terms),
            "modified_robin_constants": list(sol.modified_robin_constants),
            "kkt_residual": sol.kkt_residual,
            "iterations": sol.iterations,
            "applies": sol.applies,
            "rounds": sol.rounds,
        },
    }


def cmd_fekete(spec, sec, seed, cells):
    rows, results = fekete_asymptotics(
        spec.system, spec.seq, field=spec.field, cells=cells, seed=seed, **sec
    )
    best = results[-1]
    return {
        "fekete.csv": (
            ("d", "total", "log_weight", "normalized", "distance"),
            ([r.d for r in rows], [r.total for r in rows],
             [res.log_boltzmann for res in results], [r.normalized for r in rows],
             [r.distance_to_equilibrium for r in rows]),
        ),
        "fekete_config.csv": (
            ("block", "index", "coordinate"),
            (*_positions(best.configuration.index.counts), best.configuration.flatten()),
        ),
        "fekete.report.json": {
            "d_max": sec["d_max"],
            "log_weight": best.log_boltzmann,
            "normalized": best.normalized,
            "starts_used": best.starts_used,
            "coordinatewise_optimal": best.coordinatewise_optimal,
            "evaluations": best.evaluations,
            "newton_steps": best.newton_steps,
        },
    }


def cmd_sample(spec, sec, seed, cells):
    batch = gibbs_sample(spec, seed=seed, **sec)
    samples, counts = len(batch.configurations), batch.index.counts
    return {
        "sample.csv": (
            ("sample_id", "block", "index", "value"),
            (np.repeat(np.arange(samples), sum(counts)), *_positions(counts, samples),
             np.ravel([X.flatten() for X in batch.configurations])),
        ),
        "sample.report.json": {
            "d": batch.d,
            "index": list(counts),
            "n_samples": samples,
            "burn_in": batch.burn_in,
            "thin": batch.thin,
        },
    }


def cmd_mop(spec, sec, seed, cells):
    d = sec["d"]
    poly = solve_mop(spec, spec.index(d))
    cols = _identity_rows(spec, d, poly, sec["z_points"], mode=sec["mode"], seed=seed)
    return {
        "mop.csv": (("z", "polynomial", "expectation", "stderr"), cols),
        "mop.report.json": {
            "d": d,
            "index": list(spec.index(d).counts),
            "degree": poly.degree,
            "coefficients": list(poly.coefficients),
        },
    }


def cmd_zconst(spec, sec, seed, cells):
    d_list, epsilon = sec["d_list"], sec["epsilon"]
    indices = [spec.index(d) for d in d_list]
    log_z, lower, upper = [], [], []
    for d, m in zip(d_list, indices):
        log_z.append(_log_partition(spec, d))
        fek = fekete_points(
            spec.system, m, field=spec.field, n_starts=sec["n_starts"], seed=seed
        )
        lo, up = partition_function_bounds(spec, d, fek, epsilon=epsilon)
        lower.append(lo)
        upper.append(up)
    return {
        "zconst.csv": (
            ("d", "total", "log_z", "log_sector_factor", "lower", "upper"),
            (d_list, [m.total for m in indices], log_z,
             [_log_sector_factor(m) for m in indices], lower, upper),
        ),
        "zconst.report.json": {"epsilon": epsilon, "d_list": d_list},
    }


def cmd_ldp(spec, sec, seed, cells):
    system, field, n_configs = spec.system, spec.field, sec["n_configs"]
    eq = solve_equilibrium(system, field=field, cells=cells)
    rate = rate_function(eq.measure, field=field, equilibrium=eq)
    probe = quantile_energy_probe(eq.measure, sec["n_list"], field=field)
    shift_field = (ExternalField.quadratic(system.p, scale=0.25) if field.is_zero
                   else field)
    indices = [spec.index(d) for d in range(1, min(4, spec.seq.length or 4) + 1)]
    worst = field_shift_worst(
        system, indices, shift_field, n_configs, np.random.default_rng(seed)
    )
    return {
        "ldp.csv": (
            ("kind", "n", "value"),
            (["probe"] * len(probe) + ["field_shift_worst", "rate_equilibrium"],
             *zip(*probe, (n_configs, worst), (0, rate.rate))),
        ),
        "ldp.report.json": {
            "rate_equilibrium": rate.rate,
            "equilibrium_energy": rate.equilibrium_energy,
            "field_shift_worst": worst,
        },
    }


def cmd_bm(spec, sec, seed, cells):
    degrees = sec["degrees"]
    interval = np.repeat(np.arange(len(spec.base)), len(degrees))
    estimates = [bm_constant(tau, n) for tau in spec.base for n in degrees]
    for i, est in zip(interval.tolist(), estimates):
        if est.saturated:
            print("bm: interval %d degree %d: beta %.6g is near the grid's cap; "
                  "a finer grid is needed" % (i, est.degree, est.beta), file=sys.stderr)
    return {
        "bm.csv": (
            ("interval_index", "degree", "beta", "root"),
            (interval, degrees * len(spec.base), [e.beta for e in estimates],
             [e.root for e in estimates]),
        ),
    }


_COMMANDS = {
    "eqm": cmd_eqm,
    "fekete": cmd_fekete,
    "sample": cmd_sample,
    "mop": cmd_mop,
    "zconst": cmd_zconst,
    "ldp": cmd_ldp,
    "bm": cmd_bm,
}

_PARSER = argparse.ArgumentParser(
    prog="angelesco",
    description="Equilibrium measures, extremal configurations, and "
    "sampling for systems of disjoint intervals.",
)
_PARSER.add_argument("command", choices=sorted(_COMMANDS) + ["verify"])
_PARSER.add_argument("--config", help="JSON experiment description")
_PARSER.add_argument("--seed", type=int, default=None, help="RNG seed override")
_PARSER.add_argument("--out", default=".", help="output directory")
_PARSER.add_argument("--threads", type=int, default=1, help="accepted and ignored")
_PARSER.add_argument("--grid", type=int, default=None, help="cells per interval")


def run(argv=None):
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        if args.command == "verify":
            # Imported here, not at the top: without a bytecode cache, compiling
            # acceptance.py adds about 10 ms to the start of every other command.
            from .acceptance import run_all

            results = run_all(report_path=out_dir / "report.json")
            return 0 if all(r.passed for r in results) else 3
        if not args.config:
            raise ConfigError("--config is required for %s" % args.command)
        cfg = load_config(args.config)
        # The flags override the file and pass the same checks; the manifest
        # keeps the file as given plus the seed and grid used.
        for key in ("seed", "grid"):
            if getattr(args, key) is not None:
                cfg[key] = getattr(args, key)
        cfg.update(_section(cfg, ""))
        # Every command builds and checks the whole spec, so a config error
        # exits 1 whichever command runs, before any numerics.
        spec = build_spec(cfg, cfg["grid"])
        sec = _section(cfg, args.command)
        _within(spec, sec)
        outputs = _COMMANDS[args.command](spec, sec, cfg["seed"], cfg["grid"])
        files = [_write_csv(out_dir / name, *data) if name.endswith(".csv")
                 else _write_json(out_dir / name, data) for name, data in outputs.items()]
        files.append(write_manifest(out_dir, args.command, cfg, outputs))
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:
        # AngelescoError and anything else raised inside the library
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2
    for f in files:
        print(f)
    return 0


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
