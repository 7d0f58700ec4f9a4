"""Desk-scale verification suite.

Ten self-contained checks covering the package's headline claims: closed-form
equilibrium measures, extremal-configuration asymptotics, exact small-n
normalizing constants, the deviation-probability bound, sampler convergence,
the moment-system polynomial, rate/probe identities, boundedness-constant
trends, and the algebraic property suite.  ``run_all`` prints one PASS/FAIL
line per check and writes a JSON report.  Each numeric limit is stated once,
in its criterion's decorator, which judges the value against it, reports it
as a ratio that is at most 1 while the limit holds (``<metric>_of_limit``)
and ends the details with it, so a drift shows as a lost margin before it
flips a verdict.  criterion_5 reports its largest ``probability_of_bound``.
"""

import functools
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .core import (
    GridMeasure,
    IntervalSystem,
    MultiIndex,
    MultiIndexSequence,
    VectorMeasure,
    weak_star_distance,
    write_json,
)
from .energy import ExternalField, difference_energy, partial_potentials, weighted_energy
from .equilibrium import solve_equilibrium
from .ensemble import (
    BaseMeasure,
    EnsembleSpec,
    convergence_experiment,
    gibbs_sample,
    johansson_probability,
    partition_function_bounds,
    partition_function_quadrature,
)
from .fekete import fekete_points
from .ldp import (
    bm_constant,
    field_shift_worst,
    quantile_energy_probe,
    rate_function,
)
from .mop import expectation_identity_check, solve_mop


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    details: str
    metrics: dict = dc_field(default_factory=dict)
    seconds: float = 0.0


def _criterion(budget, upper=None, lower=None):
    """A check that returns (passed, details, metrics) becomes a criterion of
    its own name, timed, that fails when it takes ``budget`` seconds or more.

    ``upper`` and ``lower`` map metrics to their numeric limits.  The
    criterion also fails unless each holds (metric <= limit, or >= for a
    lower limit), reports ``<metric>_of_limit`` (metric / limit, or limit /
    metric) and ends its details with every limit; ``passed`` carries the
    check's other conditions.
    """
    limits = [(k, "<=", v) for k, v in (upper or {}).items()]
    limits += [(k, ">=", v) for k, v in (lower or {}).items()]

    def wrap(check):
        @functools.wraps(check)
        def criterion():
            start = time.perf_counter()
            passed, details, metrics = check()
            seconds = time.perf_counter() - start
            metrics = {k: float(v) for k, v in metrics.items()}
            for k, op, limit in limits:
                value = metrics[k]
                passed = passed and (value <= limit if op == "<=" else value >= limit)
                metrics[k + "_of_limit"] = value / limit if op == "<=" else limit / value
            if limits:
                details += "; limits " + ", ".join("%s %s %g" % lim for lim in limits)
            return CriterionResult(
                name=check.__name__,
                passed=bool(passed and seconds < budget),
                details=details,
                metrics=metrics,
                seconds=seconds,
            )

        return criterion

    return wrap


def _two_interval():
    return IntervalSystem(((-2.0, -1.0), (1.0, 2.0)), (0.5, 0.5))


def _two_interval_spec(start=2, step=2):
    system = _two_interval()
    base = tuple(BaseMeasure.lebesgue(system, i) for i in range(2))
    seq = MultiIndexSequence.proportional(system.r, start=start, step=step)
    return EnsembleSpec(system, None, base, seq)


def _arcsine_measure(cells=400):
    system = IntervalSystem(((-1.0, 1.0),), (1.0,))
    comp = GridMeasure.from_cdf(
        system,
        0,
        lambda x: 0.5 + np.arcsin(np.clip(x, -1.0, 1.0)) / np.pi,
        cells=cells,
        mass=1.0,
    )
    return system, VectorMeasure((comp,))


@_criterion(60.0, upper={"l1_distance": 0.02})
def criterion_1():
    """Quadratic field on one interval reproduces the semicircle density."""
    system = IntervalSystem(((-2.0, 2.0),), (1.0,))
    fld = ExternalField.quadratic(1, scale=0.5)
    sol = solve_equilibrium(system, field=fld, cells=800, tol=1e-4)
    g = sol.measure[0]
    x = g.nodes
    ref = np.sqrt(np.maximum(2.0 - x * x, 0.0)) / np.pi
    l1 = float(np.sum(np.abs(g.density() - ref)) * g.cell_width)
    return True, "L1 distance to semicircle %.3g" % l1, dict(l1_distance=l1)


@_criterion(60.0, upper={"energy_gap": 2e-3, "cdf_gap": 0.01})
def criterion_2():
    """Unweighted single-interval equilibrium is the arcsine law, E = log 2."""
    system, arc = _arcsine_measure(cells=800)
    sol = solve_equilibrium(system, cells=800, tol=1e-4)
    e_gap = abs(sol.energy.total - float(np.log(2.0)))
    cdf_gap = weak_star_distance(sol.measure, arc)
    return (
        True,
        "energy gap %.3g, sup-CDF gap %.3g" % (e_gap, cdf_gap),
        dict(energy_gap=e_gap, cdf_gap=cdf_gap),
    )


@_criterion(300.0, upper={"gap_80": 0.02})
def criterion_3():
    """Normalized extremal log weight vs minus the equilibrium energy.

    The stated limit on gap_80 is not attainable for the true maximizers:
    the missing-diagonal deficit decays like log(n)/n and still exceeds 0.07
    at n=80.  The check is run exactly as stated and reports honestly; the
    monotone-approach half passes, the gap_80 half fails.
    """
    system = _two_interval()
    eq = solve_equilibrium(system, cells=400, tol=1e-4)
    target = -eq.energy.total
    seq = MultiIndexSequence.proportional(system.r)
    gaps = []
    for d in (10, 20, 40):
        res = fekete_points(system, seq(d), n_starts=2, tol=1e-10, seed=0)
        gaps.append(abs(res.normalized - target))
    monotone = gaps[0] > gaps[1] > gaps[2]
    return (
        monotone,
        "gaps to -E at n=20/40/80: %.4f/%.4f/%.4f; monotone=%s" % (*gaps, monotone),
        dict(gap_20=gaps[0], gap_40=gaps[1], gap_80=gaps[2], target=target),
    )


@_criterion(30.0, upper={"z_error_pair": 1e-4, "z_error_single": 1e-4})
def criterion_4():
    """Exact small-n normalizing constants and the extremal sandwich."""
    spec2 = _two_interval_spec()
    log_z2 = partition_function_quadrature(spec2, 1)
    err2 = abs(np.exp(log_z2) - 3.0)
    fek2 = fekete_points(spec2.system, spec2.index(1), n_starts=2, seed=0)
    lo2, up2 = partition_function_bounds(spec2, 1, fek2)

    system1 = IntervalSystem(((0.0, 1.0),), (1.0,))
    base1 = (BaseMeasure.lebesgue(system1, 0),)
    seq1 = MultiIndexSequence.proportional((1.0,), start=1, step=1)
    spec1 = EnsembleSpec(system1, None, base1, seq1)
    log_z1 = partition_function_quadrature(spec1, 2)
    err1 = abs(np.exp(log_z1) - 1.0 / 6.0)
    fek1 = fekete_points(system1, spec1.index(2), n_starts=2, seed=0)
    lo1, up1 = partition_function_bounds(spec1, 2, fek1)

    sandwich = (lo2 <= log_z2 <= up2) and (lo1 <= log_z1 <= up1)
    return (
        sandwich,
        "Z errors %.2g and %.2g; sandwich holds: %s" % (err2, err1, sandwich),
        dict(z_error_pair=err2, z_error_single=err1),
    )


@_criterion(120.0)
def criterion_5():
    """Deviation-set probability versus its product bound at exact scale."""
    spec = _two_interval_spec(start=2, step=1)
    eq = solve_equilibrium(spec.system, cells=400, tol=1e-4)
    delta = float(np.exp(-eq.energy.total))
    eta = 0.1 * delta
    ratios = []
    lines = []
    for d in (1, 2, 3):
        rep = johansson_probability(
            spec, d, eta, mode="quadrature", equilibrium=eq
        )
        if rep.premise_holds:  # eta = delta / 10 keeps the bound above 0.95^16
            ratios.append(rep.probability / rep.bound)
        lines.append(
            "n=%d P=%.3g bound=%.3g premise=%s"
            % (rep.total, rep.probability, rep.bound, rep.premise_holds)
        )
    worst = max(ratios, default=np.inf)  # inf, and FAIL, when no premise holds
    return (
        worst <= 1.0,
        "; ".join(lines),
        dict(checked=len(ratios), delta=delta, probability_of_bound=worst),
    )


@_criterion(600.0, upper={"mean_64": 0.06, "mean_weighted_64": 0.06})
def criterion_6():
    """Sampled counting measures drift toward the equilibrium measure."""
    spec = _two_interval_spec()
    eq = solve_equilibrium(spec.system, cells=400, tol=1e-4)
    rows = convergence_experiment(
        spec, [8, 16, 32], samples_per_d=30, seed=0, equilibrium=eq
    )
    means = [r.mean_distance for r in rows]
    decreasing = means[0] > means[1] > means[2]

    system_w = IntervalSystem(((-2.0, 2.0),), (1.0,))
    fld = ExternalField.quadratic(1, scale=0.5)
    spec_w = EnsembleSpec(
        system_w,
        fld,
        (BaseMeasure.lebesgue(system_w, 0),),
        MultiIndexSequence.proportional((1.0,), start=1, step=1),
    )
    eq_w = solve_equilibrium(system_w, field=fld, cells=400, tol=1e-4)
    row_w = convergence_experiment(
        spec_w, [64], samples_per_d=30, seed=0, equilibrium=eq_w
    )[0]
    return (
        decreasing,
        "means at n=16/32/64: %.4f/%.4f/%.4f (decreasing=%s); "
        "weighted variant at n=64: %.4f" % (*means, decreasing, row_w.mean_distance),
        dict(mean_16=means[0], mean_32=means[1], mean_64=means[2],
             mean_weighted_64=row_w.mean_distance),
    )


@_criterion(30.0, upper={"coeff_err": 1e-8, "identity_err": 1e-6})
def criterion_7():
    """Moment-system polynomial for the symmetric pair and its expectation."""
    spec = _two_interval_spec()
    poly = solve_mop(spec, spec.index(1))
    coeff_err = float(
        np.max(np.abs(np.asarray(poly.coefficients) - np.array([-7.0 / 3.0, 0.0])))
    )
    rows = expectation_identity_check(spec, 1, (0.0, 0.5, 100.0))
    id_err = max(abs(pz - est) for _, pz, est, _ in rows)
    return (
        True,
        "coefficient error %.3g; identity error %.3g" % (coeff_err, id_err),
        dict(coeff_err=coeff_err, identity_err=id_err),
    )


@_criterion(300.0, upper={"rate": 1e-3, "probe_gap_arcsine": 0.05,
                          "probe_gap_uniform": 0.05, "shift_worst": 1e-10})
def criterion_8():
    """Rate at the minimizer, quantile probes, and the field-shift identity."""
    system = _two_interval()
    eq = solve_equilibrium(system, cells=400, tol=1e-4)
    rate = rate_function(eq.measure, equilibrium=eq).rate

    _, arc = _arcsine_measure()
    e_arc = weighted_energy(arc, None).total
    probe_arc = quantile_energy_probe(arc, [200])[0][1]
    gap_arc = abs(probe_arc + e_arc)

    uni = VectorMeasure.uniform(system, cells=400)
    e_uni = weighted_energy(uni, None).total
    probe_uni = quantile_energy_probe(uni, [200])[0][1]
    gap_uni = abs(probe_uni + e_uni)

    fld = ExternalField.quadratic(2, scale=0.3)
    worst = field_shift_worst(
        system, [MultiIndex((3, 2))], fld, 100, np.random.default_rng(11)
    )
    return (
        True,
        "rate %.2g; probe gaps %.4f / %.4f; shift identity worst %.2g"
        % (rate, gap_arc, gap_uni, worst),
        dict(rate=rate, probe_gap_arcsine=gap_arc, probe_gap_uniform=gap_uni,
             shift_worst=worst),
    )


@_criterion(30.0, upper={"root_16": 1.25}, lower={"defective_root": 1.5})
def criterion_9():
    """Christoffel-based growth roots: trend and the defective counterexample."""
    system = IntervalSystem(((-1.0, 1.0),), (1.0,))
    tau = BaseMeasure.lebesgue(system, 0)
    roots = [bm_constant(tau, n).root for n in (4, 8, 16)]
    decreasing = roots[0] > roots[1] > roots[2]

    defective = BaseMeasure.from_callable(
        system, 0, lambda x: np.where(np.asarray(x) <= 0.0, 1.0, 0.0)
    )
    bad_root = bm_constant(defective, 16).root
    return (
        decreasing,
        "roots %.4f/%.4f/%.4f (decreasing=%s); defective root %.3f"
        % (*roots, decreasing, bad_root),
        dict(root_4=roots[0], root_8=roots[1], root_16=roots[2],
             defective_root=bad_root),
    )


def _random_vector_measure(system, rng, cells):
    comps = []
    for i in range(system.p):
        w = rng.random(cells) + 0.05
        template = GridMeasure.uniform(system, i, cells=cells, mass=system.r[i])
        w = w / w.sum() * system.r[i]
        comps.append(
            GridMeasure(
                system, i, template.nodes, template.cell_width, w, system.r[i]
            )
        )
    return VectorMeasure(tuple(comps))


@_criterion(300.0, upper={"identity_rel_err": 1e-8, "start_gap": 1e-3})
def criterion_10():
    """Property suite: difference identity, positivity, independence, seeds."""
    system = _two_interval()
    fld = ExternalField.quadratic(2, scale=0.2)
    rng = np.random.default_rng(3)
    cells = 200
    worst_rel = 0.0
    min_quad = np.inf
    for _ in range(50):
        mu = _random_vector_measure(system, rng, cells)
        nu = _random_vector_measure(system, rng, cells)
        e_mu = weighted_energy(mu, fld).total
        e_nu = weighted_energy(nu, fld).total
        cross = 0.0
        for i in range(system.p):
            g = mu[i]
            u = partial_potentials(mu, i, g.nodes)
            q = fld(i, g.nodes)
            dw = nu[i].weights - g.weights
            cross += 2.0 * float(np.dot(u + q, dw))
        quad = difference_energy(nu, mu)
        min_quad = min(min_quad, quad)
        lhs = e_nu - e_mu
        rhs = cross + quad
        rel = abs(lhs - rhs) / max(1.0, abs(lhs))
        worst_rel = max(worst_rel, rel)

    sol1 = solve_equilibrium(system, cells=400, tol=1e-4)
    start = _random_vector_measure(system, rng, 400)
    sol2 = solve_equilibrium(system, cells=400, tol=1e-4, initial=start)
    start_gap = weak_star_distance(sol1.measure, sol2.measure)

    spec = _two_interval_spec()
    b1 = gibbs_sample(spec, 8, 5, seed=123)
    b2 = gibbs_sample(spec, 8, 5, seed=123)
    seeds_ok = all(
        all(
            np.array_equal(x.blocks[i], y.blocks[i])
            for i in range(spec.system.p)
        )
        for x, y in zip(b1.configurations, b2.configurations)
    )
    return (
        min_quad >= 0.0 and seeds_ok,
        "identity rel err %.2g; min quadratic term %.2g; start gap %.2g; "
        "seeds byte-equal: %s" % (worst_rel, min_quad, start_gap, seeds_ok),
        dict(identity_rel_err=worst_rel, min_quadratic=min_quad, start_gap=start_gap),
    )


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_all(report_path=None, echo=print):
    results = []
    for fn in CRITERIA:
        res = fn()
        results.append(res)
        if echo is not None:
            echo(
                "%s %s (%.1fs) %s"
                % ("PASS" if res.passed else "FAIL", res.name, res.seconds,
                   res.details)
            )
    if report_path is not None:
        payload = {
            r.name: {
                "passed": r.passed,
                "details": r.details,
                "metrics": r.metrics,
                "seconds": r.seconds,
            }
            for r in results
        }
        write_json(report_path, payload)
    return results
