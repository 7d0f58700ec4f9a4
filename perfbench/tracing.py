"""Span tracing of the program's public functions, for the traced run only.

``Tracer.install`` replaces each function in ``TRACED`` by a recorder at
every name an ``angelesco`` module binds it to, which are the names the
callers look up at call time (module globals and deferred imports alike).
``uninstall`` puts the originals back, so tracing can be switched on for
single runs.  Spans stay in memory and are written out once, at the end;
self times are computed from them afterwards.
"""

import contextlib
import inspect
import json
import sys
import time
from collections import defaultdict

from workloads import KernelCacheMirror

# (module, function, layer); export writers belong to the cli layer.
TRACED = (
    ("core", "counting_measure", "core"),
    ("core", "weak_star_distance", "core"),
    ("energy", "system_kernel", "energy"),
    ("energy", "kernel_matrix", "energy"),
    ("energy", "weighted_energy", "energy"),
    ("equilibrium", "solve_equilibrium", "equilibrium"),
    ("equilibrium", "project_simplex", "equilibrium"),
    ("equilibrium", "export_csv", "cli"),
    ("fekete", "fekete_asymptotics", "fekete"),
    ("fekete", "fekete_points", "fekete"),
    ("fekete", "log_boltzmann", "fekete"),
    ("fekete", "export_csv", "cli"),
    ("ensemble", "gibbs_sample", "ensemble"),
    ("ensemble", "partition_function_quadrature", "ensemble"),
    ("ensemble", "partition_function_bounds", "ensemble"),
    ("ensemble", "export_samples_csv", "cli"),
    ("mop", "solve_mop", "mop"),
    ("mop", "expectation_identity_check", "mop"),
    ("mop", "moments", "mop"),
    ("ldp", "rate_function", "ldp"),
    ("ldp", "quantile_energy_probe", "ldp"),
    ("ldp", "field_shift_identity", "ldp"),
    ("ldp", "growth_constant", "ldp"),
    ("cli", "_write_csv", "cli"),
    ("cli", "_write_json", "cli"),
)

LAYERS = ("core", "energy", "equilibrium", "fekete", "ensemble", "mop", "ldp", "cli")

EXPORTS = {"equilibrium.export_csv", "fekete.export_csv",
           "ensemble.export_samples_csv", "cli._write_csv", "cli._write_json"}


def _system_cells(bound):
    system, cells = bound.arguments["system"], int(bound.arguments["cells"])
    return {"p": len(system.intervals), "cells": cells,
            "key": repr((system.intervals, system.r, cells))}


def _gibbs(bound):
    a = bound.arguments
    n = a["spec"].index(a["d"]).total
    return {"n": n, "updates": n * (a["burn_in"] + a["n_samples"] * a["thin"])}


# Call arguments and results kept on a span: (before the call, after it).
INFO = {
    "energy.system_kernel": (_system_cells, None),
    "equilibrium.solve_equilibrium": (_system_cells, lambda r: {"iterations": r.iterations}),
    "fekete.fekete_points": (
        lambda b: {"n": b.arguments["index"].total},
        lambda r: {"certified": bool(r.coordinatewise_optimal)},
    ),
    "ensemble.gibbs_sample": (_gibbs, None),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, layer, t0, t1, run, info]
        self._stack = []
        self._patched = []
        self.run = -1
        self.missing = []

    def span(self, name, layer, fn):
        sig = inspect.signature(fn) if name in INFO else None
        before, after = INFO.get(name, (None, None))
        spans, stack = self.spans, self._stack

        def recorder(*args, **kwargs):
            info = {}
            if before is not None:
                # A renamed argument loses the span's details, not the run.
                with contextlib.suppress(TypeError, KeyError, AttributeError, ValueError):
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    info = before(bound)
            rec = [len(spans), stack[-1][0] if stack else -1, name, layer, 0.0, 0.0, self.run, info]
            spans.append(rec)
            stack.append(rec)
            rec[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                stack.pop()
            if after is not None:
                with contextlib.suppress(AttributeError):
                    info.update(after(result))
            return result

        recorder.__wrapped__ = fn
        return recorder

    def install(self, package, substitute=None):
        """Put the recorders in place; ``substitute`` maps a span name to the
        function its recorder calls instead of the original."""
        substitute = substitute or {}
        modules = [m for k, m in sys.modules.items()
                   if k == package or k.startswith(package + ".")]
        self.missing = []
        for mod_name, fn_name, layer in TRACED:
            name = "%s.%s" % (mod_name, fn_name)
            owner = sys.modules.get("%s.%s" % (package, mod_name))
            fn = getattr(owner, fn_name, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self.span(name, layer, substitute.get(name, fn))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def root(self, fn, *args):
        """Run ``fn(*args)`` as the root span ``cli.run`` of a new run."""
        self.run += 1
        return self.span("cli.run", "cli", fn)(*args)

    def dump(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "name", "layer", "t0", "t1", "run", "info"), rec))) + "\n")


def self_times(spans):
    """Self time of each span: its duration minus its children's durations."""
    out = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[5] - s[4]
    return out


POINT_BANDS = (("n_le8", 0, 8), ("n9_16", 9, 16), ("n_gt16", 17, 10 ** 9))
UPDATE_BANDS = (("n_le16", 0, 16), ("n17_32", 17, 32), ("n_gt32", 33, 10 ** 9))
GRIDS = (400, 800, 1600)


def layer_metrics(spans, runs, cache_calls, cache_hits, cache_size):
    """Per-layer metrics of one traced pass over ``runs`` CLI runs.

    Times are seconds per CLI run unless a name says otherwise; every ratio
    comes with the count it is taken over.
    """
    selfs = self_times(spans)
    incl = defaultdict(float)
    count = defaultdict(int)
    layer_self = defaultdict(float)
    root_total = 0.0
    fn_self = defaultdict(float)
    for rec, st in zip(spans, selfs):
        name, layer = rec[2], rec[3]
        incl[name] += rec[5] - rec[4]
        count[name] += 1
        layer_self[layer] += st
        fn_self[name] += st
        if rec[1] < 0:
            root_total += rec[5] - rec[4]

    m = {}
    per = 1.0 / max(runs, 1)

    def put(name, value, unit):
        m[name] = (float(value), unit)

    # energy
    put("energy.system_kernel_s", incl["energy.system_kernel"] * per, "s")
    put("energy.kernel_matrix_s", incl["energy.kernel_matrix"] * per, "s")
    put("energy.weighted_energy_s", incl["energy.weighted_energy"] * per, "s")
    put("energy.kernel_cache_calls", cache_calls, "count")
    put("energy.kernel_cache_hit_ratio", cache_hits / cache_calls if cache_calls else 0.0, "ratio")
    # The kernel cache replayed from the spans: 8 (pM)^2 bytes per entry.
    mirror = KernelCacheMirror(cache_size)
    peak = 0
    for rec in spans:
        if rec[2] == "energy.system_kernel" and "key" in rec[7]:
            info = rec[7]
            mirror.touch(info["key"], 8 * (info["p"] * info["cells"]) ** 2)
            peak = max(peak, mirror.resident)
    put("energy.kernel_resident_mb", peak / 2 ** 20, "MB")

    # equilibrium
    solves = [rec for rec in spans if rec[2] == "equilibrium.solve_equilibrium" and rec[7]]
    put("equilibrium.solve_s", incl["equilibrium.solve_equilibrium"] * per, "s")
    put("equilibrium.self_s", fn_self["equilibrium.solve_equilibrium"] * per, "s")
    put("equilibrium.solves", len(solves), "count")
    for g in GRIDS:
        at = [rec[7].get("iterations", 0) for rec in solves if rec[7]["cells"] == g]
        put("equilibrium.solves.grid%d" % g, len(at), "count")
        put("equilibrium.iterations.grid%d" % g, sum(at) / len(at) if at else 0.0, "count")
    put("equilibrium.project_simplex_s", incl["equilibrium.project_simplex"] * per, "s")
    calls = count["equilibrium.project_simplex"]
    put("equilibrium.project_simplex_calls", calls, "count")
    pit = sum(rec[7]["p"] * rec[7].get("iterations", 0) for rec in solves)
    put("equilibrium.trials_per_iteration", calls / pit if pit else 0.0, "ratio")
    # One apply per line-search trial plus the initial one; each reads the
    # dense (pM)^2 kernel and then its p diagonal M^2 blocks again.
    children = defaultdict(int)
    for rec in spans:
        if rec[2] == "equilibrium.project_simplex" and rec[1] >= 0:
            children[rec[1]] += 1
    apply_bytes = 0
    for rec in solves:
        p, cells = rec[7]["p"], rec[7]["cells"]
        applies = children[rec[0]] / p + 1
        apply_bytes += applies * 8 * ((p * cells) ** 2 + p * cells ** 2)
    put("equilibrium.apply_bytes_computed", apply_bytes * per, "bytes")

    # fekete
    points = [rec for rec in spans if rec[2] == "fekete.fekete_points" and rec[7]]
    put("fekete.points_calls", len(points), "count")
    for band, lo, hi in POINT_BANDS:
        at = [rec[5] - rec[4] for rec in points if lo <= rec[7]["n"] <= hi]
        put("fekete.points_calls.%s" % band, len(at), "count")
        put("fekete.points_s.%s" % band, sum(at) / len(at) if at else 0.0, "s")
    n2 = sum(rec[7]["n"] ** 2 for rec in points)
    put("fekete.points_n2_sum", n2, "count")
    put("fekete.points_s_per_n2", incl["fekete.fekete_points"] / n2 if n2 else 0.0, "s")
    certified = sum(1 for rec in points if rec[7].get("certified"))
    put("fekete.certified_ratio", certified / len(points) if points else 0.0, "ratio")
    put("fekete.log_boltzmann_s", incl["fekete.log_boltzmann"] * per, "s")

    # ensemble
    gibbs = [rec for rec in spans if rec[2] == "ensemble.gibbs_sample" and rec[7]]
    put("ensemble.gibbs_s", incl["ensemble.gibbs_sample"] * per, "s")
    put("ensemble.updates", sum(rec[7]["updates"] for rec in gibbs), "count")
    for band, lo, hi in UPDATE_BANDS:
        at = [rec for rec in gibbs if lo <= rec[7]["n"] <= hi]
        updates = sum(rec[7]["updates"] for rec in at)
        busy = sum(rec[5] - rec[4] for rec in at)
        put("ensemble.updates.%s" % band, updates, "count")
        put("ensemble.update_us.%s" % band, 1e6 * busy / updates if updates else 0.0, "us")
    put("ensemble.quadrature_s", incl["ensemble.partition_function_quadrature"] * per, "s")
    put("ensemble.bounds_s", incl["ensemble.partition_function_bounds"] * per, "s")

    # mop
    put("mop.solve_s", incl["mop.solve_mop"] * per, "s")
    put("mop.identity_s", incl["mop.expectation_identity_check"] * per, "s")
    put("mop.moments_calls", count["mop.moments"] * per, "count")

    # ldp
    put("ldp.growth_constant_s", incl["ldp.growth_constant"] * per, "s")
    put("ldp.rate_function_s", incl["ldp.rate_function"] * per, "s")
    put("ldp.quantile_probe_s", incl["ldp.quantile_energy_probe"] * per, "s")
    put("ldp.field_shift_s", incl["ldp.field_shift_identity"] * per, "s")

    # core
    put("core.counting_measure_s", incl["core.counting_measure"] * per, "s")
    put("core.weak_star_distance_s", incl["core.weak_star_distance"] * per, "s")

    # cli
    put("cli.self_s", fn_self["cli.run"] * per, "s")
    put("cli.export_s", sum(incl[n] for n in EXPORTS) * per, "s")

    for layer in LAYERS:
        put("%s.self_share" % layer, layer_self[layer] / root_total if root_total else 0.0, "ratio")
    put("trace.runs", runs, "count")
    put("trace.spans_per_run", len(spans) * per, "count")
    return m
