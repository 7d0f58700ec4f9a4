"""Checks of one CLI run's exit code, output files, structure and numbers.

A run passes only if it exits 0, prints exactly the files it is documented
to write, every file parses, the structural invariants hold, and, where a
closed form exists, its numbers agree with ``oracles`` within the stated
tolerance.  Anything else is a failed run.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles

OUTPUTS = {
    "eqm": ("eqm.csv", "eqm.report.json"),
    "ldp": ("ldp.csv", "ldp.report.json"),
    "fekete": ("fekete.csv", "fekete_config.csv", "fekete.report.json"),
    "sample": ("sample.csv", "sample.report.json"),
    "zconst": ("zconst.csv", "zconst.report.json"),
    "mop": ("mop.csv", "mop.report.json"),
}

# Closed-form tolerances: loose enough for today's grid and quadrature
# error, tight enough to catch a wrong answer.
ENERGY_RTOL = 1e-2  # grid-limited; ~1e-3 at 400 cells
LOG_WEIGHT_RTOL = 1e-8
POSITION_RTOL = 1e-4  # of the interval length
Z_RTOL = 0.1  # midpoint tensor quadrature: ~5 % at n = 5
MOP_RTOL = 1e-2  # moments of grid-interpolated densities: ~1e-3 for x**3 at 50 cells
QUADRATURE_RTOL = 1e-2
BAND_SIGMAS = 6.0


class CheckFailed(Exception):
    pass


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    digits: float = None  # -log10 relative error of the oracle-checked quantity
    ess: float = None  # effective sample size of a Gibbs run's linear statistic
    bytes_written: int = 0


def _require(cond, reason):
    if not cond:
        raise CheckFailed(reason)


def _digits(value, exact):
    err = abs(value - exact) / max(abs(exact), 1e-300)
    return -math.log10(max(err, 1e-16)), err


def _finite(x, what):
    _require(isinstance(x, (int, float)) and math.isfinite(x), "%s not finite" % what)
    return float(x)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path, header):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == list(header), "%s: bad header" % path.name)
    return rows[1:]


def _floats(rows, cols):
    arr = np.array([[float(r[c]) for c in cols] for r in rows], dtype=float)
    _require(np.all(np.isfinite(arr)), "non-finite value in csv")
    return arr


def sokal_ess(series, c=5.0):
    """Effective sample size by Sokal's windowed integrated autocorrelation."""
    x = np.asarray(series, dtype=float)
    n = x.size
    x = x - x.mean()
    if n < 3 or not np.any(x):
        return float(n)
    f = np.fft.rfft(x, 2 * n)
    acf = np.fft.irfft(f * np.conj(f))[:n]
    acf = acf / acf[0]
    tau = 1.0
    for w in range(1, n):
        tau = 1.0 + 2.0 * float(np.sum(acf[1 : w + 1]))
        if w >= c * tau:
            break
    return n / max(tau, 1.0)


# ------------------------------------------------------------ per command


def _eqm(run, out, outcome):
    rows = _read_csv(out / "eqm.csv", ("interval_index", "node", "weight", "density"))
    _require(len(rows) == run.p * run.grid, "eqm.csv row count")
    arr = _floats(rows, (0, 1, 2, 3))
    masses = run.config["masses"]
    for i, (a, b) in enumerate(run.intervals):
        blk = arr[arr[:, 0] == i]
        _require(blk.shape[0] == run.grid, "eqm.csv rows of interval %d" % i)
        _require(np.all(blk[:, 2] >= 0.0), "negative weight")
        _require(abs(blk[:, 2].sum() - masses[i]) <= 1e-9, "component mass")
        _require(np.all((blk[:, 1] > a) & (blk[:, 1] < b)), "node outside interval")
        _require(np.all(np.diff(blk[:, 1]) > 0), "nodes not increasing")
    rep = _read_json(out / "eqm.report.json")
    energy = _finite(rep["energy"], "energy")
    parts = sum(rep["self_terms"]) + sum(rep["cross_terms"]) + sum(rep["field_terms"])
    _require(abs(parts - energy) <= 1e-9 * max(1.0, abs(energy)), "energy terms")
    _require(0.0 <= _finite(rep["kkt_residual"], "kkt") <= 1e-4, "kkt residual")
    if not run.oracle:
        return None
    return _energy_oracle(run, energy)


def _energy_oracle(run, energy):
    (a, b), = run.intervals
    if run.oracle == "arcsine":
        exact = oracles.arcsine_energy(a, b)
    else:
        scale = float(run.config["fields"].split(",")[1].rstrip(")"))
        exact = oracles.semicircle_energy(scale)
    digits, err = _digits(energy, exact)
    _require(err <= ENERGY_RTOL, "%s energy off by %.2e" % (run.oracle, err))
    return digits


def _ldp(run, out, outcome):
    rows = _read_csv(out / "ldp.csv", ("kind", "n", "value"))
    n_list = run.config["ldp"]["n_list"]
    probes = [r for r in rows if r[0] == "probe"]
    _require([int(r[1]) for r in probes] == n_list, "probe rows")
    _require(len(rows) == len(n_list) + 2, "ldp.csv row count")
    for r in rows:
        _finite(float(r[2]), "ldp value")
    rep = _read_json(out / "ldp.report.json")
    energy = _finite(rep["equilibrium_energy"], "equilibrium energy")
    _require(abs(_finite(rep["rate_equilibrium"], "rate")) <= 1e-9 * max(1.0, abs(energy)),
             "rate of the equilibrium is not zero")
    _require(0.0 <= _finite(rep["field_shift_worst"], "shift") <= 1e-8, "field shift identity")
    return None


def _fekete(run, out, outcome):
    n, counts = run.n, run.counts
    trend = _read_csv(out / "fekete.csv", ("d", "total", "log_weight", "normalized", "distance"))
    _require(len(trend) == 1 and trend[0][:2] == ["1", str(n)], "fekete.csv rows")
    _, _, log_w, normalized, dist = _floats(trend, range(5))[0]
    _require(abs(normalized - log_w / n ** 2) <= 1e-12 * abs(normalized), "normalized")
    _require(dist >= 0.0, "distance")
    rows = _read_csv(out / "fekete_config.csv", ("block", "index", "coordinate"))
    _require(len(rows) == n, "fekete_config.csv row count")
    arr = _floats(rows, (0, 1, 2))
    blocks = []
    for i, (a, b) in enumerate(run.intervals):
        x = arr[arr[:, 0] == i][:, 2]
        _require(x.size == counts[i], "block size")
        _require(np.all((x >= a - 1e-12) & (x <= b + 1e-12)), "point outside interval")
        _require(np.all(np.diff(x) > 0), "block not sorted")
        blocks.append(x)
    rep = _read_json(out / "fekete.report.json")
    _require(rep["log_weight"] == log_w, "report and csv disagree")
    _require(rep["coordinatewise_optimal"] is True, "not coordinatewise optimal")
    if run.oracle != "fekete_interval":
        return None
    (a, b), = run.intervals
    ref = oracles.fekete_interval(a, b, n)
    _require(np.max(np.abs(blocks[0] - ref)) <= POSITION_RTOL * (b - a), "Fekete points")
    digits, err = _digits(log_w, oracles.log_weight_one_block(ref))
    _require(err <= LOG_WEIGHT_RTOL, "Fekete log weight off by %.2e" % err)
    return digits


def _sample(run, out, outcome):
    n, counts = run.n, run.counts
    n_samples = run.config["sample"]["n_samples"]
    rows = _read_csv(out / "sample.csv", ("sample_id", "block", "index", "value"))
    _require(len(rows) == n_samples * n, "sample.csv row count")
    arr = _floats(rows, (0, 1, 2, 3))
    samples = arr[:, 3].reshape(n_samples, n)
    _require(np.array_equal(arr[:, 0], np.repeat(np.arange(n_samples), n)), "sample ids")
    col = 0
    for i, ((a, b), n_i) in enumerate(zip(run.intervals, counts)):
        blk = arr[:, 1].reshape(n_samples, n)[:, col : col + n_i]
        _require(np.all(blk == i), "block layout")
        x = samples[:, col : col + n_i]
        _require(np.all((x >= a) & (x <= b)), "sample outside its interval")
        _require(np.all(np.diff(x, axis=1) >= 0), "block not sorted")
        col += n_i
    rep = _read_json(out / "sample.report.json")
    _require(rep["n_samples"] == n_samples and rep["index"] == counts, "sample report")
    _require(rep["burn_in"] == 50 and rep["thin"] == 5, "sampler defaults")
    outcome.ess = sokal_ess(samples.sum(axis=1))
    if run.oracle != "heine_legendre":
        return None
    # Heine: the mean of prod (z - x_k) is the monic Legendre P_n(z).
    (a, b), = run.intervals
    z = b + (b - a)
    ratio = np.prod(z - samples, axis=1) / oracles.legendre_monic_value(a, b, n, z)
    ess = sokal_ess(ratio)
    band = BAND_SIGMAS * ratio.std(ddof=1) / math.sqrt(ess)
    _require(abs(ratio.mean() - 1.0) <= band, "Heine identity off by %.3f" % (ratio.mean() - 1))
    return None


def _power(run):
    """k of a ``power(k)`` base measure on every interval, 0 for Lebesgue."""
    base = run.config["base_measures"]
    return int(base[len("power("):-1]) if base.startswith("power(") else 0


def _zconst(run, out, outcome):
    rows = _read_csv(out / "zconst.csv", ("d", "total", "log_z", "log_sector_factor", "lower", "upper"))
    _require(len(rows) == 1 and rows[0][:2] == ["1", str(run.n)], "zconst.csv rows")
    _, _, log_z, log_sector, lower, upper = _floats(rows, range(6))[0]
    exact_sector = sum(math.lgamma(c + 1) for c in run.counts)
    _require(abs(log_sector - exact_sector) <= 1e-12 * max(1.0, exact_sector), "sector factor")
    _require(lower <= log_z <= upper, "log Z outside its Fekete sandwich")
    rep = _read_json(out / "zconst.report.json")
    _require(rep["d_list"] == [1] and rep["epsilon"] == 0.05, "zconst report")
    if run.oracle == "pair":
        exact = oracles.log_z_pair(*run.intervals)
    else:
        (a, b), = run.intervals
        exact = oracles.log_z_one_interval(a, b, run.n, _power(run))
    err = abs(math.expm1(log_z - exact))
    _require(err <= Z_RTOL, "Z off by %.2e" % err)
    return -math.log10(max(err, 1e-16))


def _mop(run, out, outcome):
    exact = oracles.mop_coefficients(run.intervals, run.counts, [_power(run)] * run.p)
    rep = _read_json(out / "mop.report.json")
    _require(rep["degree"] == run.n and rep["index"] == run.counts, "mop report")
    coef = np.asarray(rep["coefficients"], dtype=float)
    _require(coef.shape == (run.n,) and np.all(np.isfinite(coef)), "coefficients")
    scale = max(1.0, max(abs(c) for c in exact))
    err = float(np.max(np.abs(coef - exact))) / scale
    _require(err <= MOP_RTOL, "MOP coefficients off by %.2e" % err)
    rows = _read_csv(out / "mop.csv", ("z", "polynomial", "expectation", "stderr"))
    _require(len(rows) == len(run.z_points), "mop.csv rows")
    arr = _floats(rows, range(4))
    for (z, poly, mean, stderr), z_cfg in zip(arr, run.z_points):
        _require(z == z_cfg, "z column")
        pz = oracles.poly_value(coef, z)
        _require(abs(poly - pz) <= 1e-9 * abs(pz), "P(z) column")
        _require(abs(pz - oracles.poly_value(exact, z)) <= MOP_RTOL * abs(pz), "P(z) off")
        # Heine: the ensemble mean of prod (z - x_k) is P(z).
        if run.mode == "quadrature":
            _require(stderr == 0.0 and abs(mean - pz) <= QUADRATURE_RTOL * abs(pz), "quadrature mean")
        else:
            _require(abs(mean - pz) <= BAND_SIGMAS * stderr + QUADRATURE_RTOL * abs(pz), "Monte Carlo mean")
    return -math.log10(max(err, 1e-16))


_CHECKS = {"eqm": _eqm, "ldp": _ldp, "fekete": _fekete, "sample": _sample,
           "zconst": _zconst, "mop": _mop}


def check(run, out, code, printed):
    """Check one finished run.  ``printed`` is what the CLI wrote to stdout."""
    out = Path(out)
    outcome = Outcome(ok=False)
    try:
        _require(code == 0, "exit code %s" % code)
        names = OUTPUTS[run.command] + ("%s.manifest.json" % run.command,)
        expected = sorted(str(out / f) for f in names)
        _require(sorted(printed.split()) == expected, "printed file list")
        outcome.bytes_written = sum((out / f).stat().st_size for f in names)
        manifest = _read_json(out / names[-1])
        _require(manifest["command"] == run.command, "manifest command")
        _require(manifest["seed"] == run.config["seed"], "manifest seed")
        _require(manifest["outputs"] == sorted(names[:-1]), "manifest outputs")
        outcome.digits = _CHECKS[run.command](run, out, outcome)
        outcome.ok = True
    except CheckFailed as exc:
        outcome.reason = str(exc)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        outcome.reason = "malformed output: %s: %s" % (type(exc).__name__, exc)
    return outcome
