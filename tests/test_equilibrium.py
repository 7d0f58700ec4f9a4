import numpy as np
import pytest

from angelesco import (
    ExternalField,
    IntervalSystem,
    VectorMeasure,
    solve_equilibrium,
    weak_star_distance,
)
from angelesco import equilibrium
from angelesco.energy import KernelOperator, as_field, kernel_matrix, system_kernel
from angelesco.equilibrium import (
    SUPPORT_THRESHOLD,
    _project_rows,
    _support_residual,
    kkt_residual,
    project_simplex,
)
from angelesco.errors import GridMismatch, MaxIterationsExceeded
from conftest import dense_energy


def test_project_simplex_properties():
    rng = np.random.default_rng(3)
    for _ in range(20):
        w = project_simplex(rng.normal(size=50), 0.7)
        assert w.min() >= 0.0
        assert w.sum() == pytest.approx(0.7, abs=1e-12)
        assert np.allclose(project_simplex(w, 0.7), w, atol=1e-12)
    feasible = np.full(10, 0.07)
    assert np.allclose(project_simplex(feasible, 0.7), feasible)
    v = rng.normal(size=30)
    w = project_simplex(v, 1.0)
    for _ in range(50):
        other = project_simplex(rng.normal(size=30), 1.0)
        assert np.linalg.norm(v - w) <= np.linalg.norm(v - other) + 1e-12


@pytest.mark.parametrize("p", [1, 2, 3])
def test_batched_projection_is_the_row_projection(p):
    rng = np.random.default_rng(p)
    rows = [
        rng.normal(size=(p, 7)),
        1e3 * rng.normal(size=(p, 400)),
        1e-3 * rng.normal(size=(p, 400)),
        np.round(rng.normal(size=(p, 60)), 1),  # ties among the entries
        np.full((p, 9), 0.25),  # all entries tied
    ]
    totals = rng.random(p) + 0.1
    for v in rows:
        batched = _project_rows(v, totals)
        for i in range(p):
            assert np.array_equal(batched[i], project_simplex(v[i], totals[i]))


def test_segment_residual_matches_a_loop_over_components():
    def looped(w_blocks, g_blocks):
        consts, worst = [], 0.0
        for w, g in zip(w_blocks, g_blocks):
            if w.max() <= 0.0:
                consts.append(np.nan)
                continue
            on = w > SUPPORT_THRESHOLD * w.max()
            f = w[on] @ g[on] / w[on].sum()
            consts.append(f)
            worst = max(worst, np.abs(g[on] - f).max(), np.max(f - g[~on], initial=0.0))
        return worst, consts

    rng = np.random.default_rng(5)
    for trial in range(50):
        sizes = rng.integers(1, 40, size=rng.integers(1, 4))
        ws = [np.where(rng.random(m) < 0.5, rng.random(m), 0.0) for m in sizes]
        if trial % 5 == 0:
            ws[-1][:] = 0.0  # a component without support
        gs = [rng.normal(size=m) for m in sizes]
        starts = np.cumsum(np.concatenate([[0], sizes[:-1]]))
        res, consts = _support_residual(np.concatenate(ws), np.concatenate(gs), starts)
        want_res, want_consts = looped(ws, gs)
        # reduceat and the dot product sum in different orders
        assert res == pytest.approx(want_res, rel=1e-13, abs=1e-15)
        assert np.allclose(consts, want_consts, rtol=1e-13, atol=0.0, equal_nan=True)


def _deviation_array_residual(w, g, starts):
    """The residual from the array of elementwise deviations: |g - F_i| on
    the support, max(F_i - g, 0) off it."""
    sizes = np.diff(starts, append=w.size)
    top = np.maximum.reduceat(w, starts)
    on = w > np.repeat(SUPPORT_THRESHOLD * top, sizes)
    w_on = np.where(on, w, 0.0)
    live = top > 0.0
    mass = np.add.reduceat(w_on, starts)
    consts = np.full(starts.size, np.nan)
    consts[live] = np.add.reduceat(w_on * g, starts)[live] / mass[live]
    f = np.repeat(consts, sizes)
    dev = np.where(on, np.abs(g - f), np.maximum(f - g, 0.0))
    worst = np.maximum.reduceat(dev, starts)[live]
    return float(worst.max(initial=0.0)), tuple(float(c) for c in consts)


def test_one_pass_residual_is_the_deviation_array_bit_for_bit():
    rng = np.random.default_rng(11)
    for trial in range(200):
        sizes = rng.integers(1, 60, size=rng.integers(1, 5))
        ws = [
            np.where(rng.random(m) < 0.6, 10.0 ** rng.uniform(-20, 1, size=m), 0.0)
            for m in sizes
        ]
        if trial % 3 == 0:
            ws[trial % sizes.size][:] = 0.0  # a component with no weight
        gs = [rng.normal(scale=10.0 ** rng.uniform(-6, 2), size=m) for m in sizes]
        starts = np.cumsum(np.concatenate([[0], sizes[:-1]]))
        w, g = np.concatenate(ws), np.concatenate(gs)
        res, consts = _support_residual(w, g, starts)
        want_res, want_consts = _deviation_array_residual(w, g, starts)
        assert res == want_res
        assert np.array_equal(consts, want_consts, equal_nan=True)


class TestTwoIntervalProblem:
    def test_solution_summary(self, two_equilibrium):
        sol = two_equilibrium
        # frozen reference from a converged run on this grid
        assert sol.energy.total == pytest.approx(0.4199827124964617, abs=1e-4)
        assert sol.kkt_residual < 2e-4
        assert sol.iterations < 20000

    def test_mirror_symmetry(self, two_equilibrium):
        w0 = two_equilibrium.measure[0].weights
        w1 = two_equilibrium.measure[1].weights
        assert np.allclose(w0, w1[::-1], atol=1e-8)
        r0, r1 = two_equilibrium.modified_robin_constants
        assert r0 == pytest.approx(r1, abs=1e-5)

    def test_energy_history_decreases(self, two_equilibrium):
        # One energy at the start and one per round.  The support here is
        # full from the start, so every round is CG descent on it.
        hist = np.asarray(two_equilibrium.energy_history)
        assert hist.size == two_equilibrium.rounds + 1
        assert np.all(np.diff(hist) < 0.0)
        assert hist[-1] == pytest.approx(two_equilibrium.energy.total, abs=1e-12)

    def test_stationarity_constants_recompute(self, two_equilibrium):
        res, consts = kkt_residual(two_equilibrium.measure)
        assert res < 2e-4
        assert np.allclose(
            consts, two_equilibrium.modified_robin_constants, atol=1e-8
        )

    def test_explicit_initial_point(self, two, two_equilibrium):
        sol = solve_equilibrium(two, initial=VectorMeasure.uniform(two))
        assert sol.energy.total == pytest.approx(
            two_equilibrium.energy.total, abs=1e-8
        )


class TestSingleIntervalProblems:
    def test_zero_field_gives_arcsine(self, sym, arcsine):
        sol = solve_equilibrium(sym, cells=400)
        assert sol.energy.total == pytest.approx(np.log(2.0), abs=3e-3)
        assert weak_star_distance(sol.measure, arcsine) < 3e-3
        assert np.all(sol.measure[0].weights > SUPPORT_THRESHOLD)

    def test_quadratic_field_gives_semicircle(self):
        wide = IntervalSystem(((-2.0, 2.0),), (1.0,))
        field = ExternalField.quadratic(1, scale=0.5)
        sol = solve_equilibrium(wide, field, cells=400)
        assert sol.energy.total == pytest.approx(0.5 * np.log(2.0) + 0.75, abs=5e-3)
        semi = VectorMeasure.from_densities(
            wide,
            [lambda x: np.sqrt(np.clip(2.0 - x * x, 0.0, None)) / np.pi],
            masses=(1.0,),
        )
        assert weak_star_distance(sol.measure, semi) < 0.01
        res, _ = kkt_residual(VectorMeasure.uniform(wide), field)
        assert res > 0.5
        assert res > 100 * sol.kkt_residual


@pytest.mark.parametrize("p", [2, 3])
def test_energy_report_matches_dense_energies(p, two_equilibrium):
    if p == 2:
        sol, field = two_equilibrium, None
    else:
        system = IntervalSystem(
            ((-3.0, -1.0), (-0.9, 0.5), (0.6, 1.0)), (0.2, 0.3, 0.5)
        )
        field = ExternalField.quadratic(3, center=0.5, scale=0.3)
        sol = solve_equilibrium(system, field, cells=300)
    dense = dense_energy(sol.measure, field)
    for name in ("self_terms", "cross_terms", "field_terms"):
        assert getattr(sol.energy, name) == pytest.approx(
            getattr(dense, name), rel=1e-13
        )
    assert sol.energy.total == pytest.approx(dense.total, rel=1e-13)


class TestBadInput:
    def test_initial_on_another_cell_count(self, two):
        with pytest.raises(GridMismatch):
            solve_equilibrium(two, cells=400, initial=VectorMeasure.uniform(two, 200))

    def test_initial_from_another_system(self, two):
        other = IntervalSystem(((-2.0, -1.0), (1.0, 2.5)), (0.5, 0.5))
        with pytest.raises(GridMismatch):
            solve_equilibrium(two, cells=100, initial=VectorMeasure.uniform(other, 100))

    @pytest.mark.parametrize("cells", [0, -3])
    def test_no_cells(self, two, cells):
        with pytest.raises(ValueError, match="cells"):
            solve_equilibrium(two, cells=cells)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_no_iterations(self, two, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            solve_equilibrium(two, cells=50, max_iter=max_iter)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_field_not_finite_on_the_grid(self, two, bad):
        # Without the check the solve "converges" to all-NaN weights.
        field = ExternalField.quadratic(2, center=bad)
        with pytest.raises(ValueError, match="not finite"):
            solve_equilibrium(two, field=field, cells=50)


def test_tight_tolerance_converges_on_unequal_intervals():
    # A monotone Armijo search stalls here: every trial step halves to
    # t ~ 1e-13 with an energy change of exactly 0.0, and it hits the cap.
    system = IntervalSystem(((-1.0, -0.01), (0.01, 3.0)), (0.3, 0.7))
    sol = solve_equilibrium(system, cells=400, tol=1e-8, max_iter=2000)
    assert sol.kkt_residual <= 1e-8
    assert sol.iterations < 2000
    assert sol.measure.masses == pytest.approx((0.3, 0.7), abs=1e-12)


def test_iteration_cap_carries_best_iterate(two):
    with pytest.raises(MaxIterationsExceeded) as exc:
        solve_equilibrium(two, max_iter=3, tol=1e-14)
    best = exc.value.solution
    assert best.iterations == 3
    assert best.applies >= best.iterations + 1
    assert best.measure.masses == pytest.approx((0.5, 0.5))
    assert len(best.energy_history) >= 1
    # The failure exit reports the energy of the iterate it carries.
    dense = dense_energy(best.measure)
    for name in ("self_terms", "cross_terms", "field_terms"):
        got, want = getattr(best.energy, name), getattr(dense, name)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


TWO = (((-2.0, -1.0), (1.0, 2.0)), (0.5, 0.5))
THREE_GAP = (((-2.0, -1.0), (-0.99, 0.0), (0.01, 1.0)), (0.3, 0.3, 0.4))


@pytest.mark.parametrize(
    "intervals, masses, applies",
    [(*TWO, 98), (*THREE_GAP, 112)],
    ids=["two", "three_gap0.01"],
)
def test_solve_cost_in_kernel_applies(intervals, masses, applies):
    # ``applies`` is deterministic: the initial apply plus one per PCG step
    # and round.  The counts are those of the spectral projected gradient
    # loop this solver replaced; the bound is about 1.15 times the count.
    sol = solve_equilibrium(IntervalSystem(intervals, masses), cells=800)
    assert sol.applies == sol.iterations + sol.rounds + 1
    assert sol.applies <= round(1.15 * applies)


PARTIAL_SUPPORT_CASES = {
    "pushing": (((-1.0, -0.01), (0.01, 3.0)), (0.3, 0.7), None),
    "two_quadratic": (((-2.0, -1.0), (1.0, 2.0)), (0.5, 0.5), 1.0),
    "semicircle": (((-2.0, 2.0),), (1.0,), 0.5),
    "wide": (((-3.0, 3.0),), (1.0,), 0.5),
}


def _partial_case(name):
    intervals, masses, scale = PARTIAL_SUPPORT_CASES[name]
    system = IntervalSystem(intervals, masses)
    field = None if scale is None else ExternalField.quadratic(system.p, scale=scale)
    return system, field


def _weights(sol):
    return np.concatenate([g.weights for g in sol.measure])


def _dense_kkt_solve(sol, field):
    """The KKT conditions on the solver's support, solved as one dense
    linear system: returns the weights, the support and the shortfall of
    half the gradient below its component's constant off the support.

    Half the gradient is A w + q, with A's diagonal blocks the self kernels
    and its cross blocks half the cross kernels.  On the support S, A w + q
    equals each component's constant and the masses are fixed; off it w is
    0.  This shares no code with the solver's FFT or low-rank operator.
    """
    grids = list(sol.measure)
    a = np.block(
        [
            [kernel_matrix(gi, gj) * (1.0 if gi is gj else 0.5) for gj in grids]
            for gi in grids
        ]
    )
    q = np.concatenate([field(i, g.nodes) for i, g in enumerate(grids)])
    block = np.repeat(np.arange(len(grids)), [g.weights.size for g in grids])
    w = _weights(sol)
    tops = np.array([g.weights.max() for g in grids])
    on = w > SUPPORT_THRESHOLD * tops[block]
    s = np.flatnonzero(on)
    e = (block[s, None] == np.arange(len(grids))).astype(float)
    lhs = np.block([[a[np.ix_(s, s)], -e], [e.T, np.zeros((len(grids),) * 2)]])
    x = np.linalg.solve(lhs, np.concatenate([-q[s], sol.measure.system.r]))
    dense = np.zeros_like(w)
    dense[s] = x[: s.size]
    consts = x[s.size :]
    shortfall = (consts[block] - (a @ dense + q))[~on]
    return dense, on, shortfall


@pytest.mark.parametrize("name", sorted(PARTIAL_SUPPORT_CASES))
def test_active_set_agrees_with_a_dense_kkt_solve(name):
    system, field = _partial_case(name)
    sol = solve_equilibrium(system, field, cells=400, tol=1e-8)
    assert sol.kkt_residual <= 1e-8
    dense, on, shortfall = _dense_kkt_solve(sol, as_field(field, system.p))
    assert dense[on].min() > 0.0
    assert shortfall.max(initial=0.0) <= 0.0
    assert np.abs(_weights(sol) - dense).max() <= 1e-7


@pytest.mark.parametrize("cells", [400, 800, 1600, 3200])
def test_applies_flat_in_cells(cells):
    # SPG took 181, 234, 304 and 450 applies here.
    two = IntervalSystem(((-2.0, -1.0), (1.0, 2.0)), (0.5, 0.5))
    sol = solve_equilibrium(two, cells=cells, tol=1e-8)
    assert sol.kkt_residual <= 1e-8
    assert sol.applies <= 20
    assert sol.applies == sol.iterations + sol.rounds + 1


@pytest.mark.parametrize(
    "name, max_rounds", [("pushing", 0), ("two_quadratic", 1)]
)
def test_round_cap_raises(name, max_rounds, monkeypatch):
    # The pushing case converges in its first round, so only a cap of 0
    # stops it.  MAX_ROUNDS is not part of a stored solution's key, so the
    # cache starts empty: an earlier test may have solved this problem.
    system, field = _partial_case(name)
    system_kernel.cache_clear()
    monkeypatch.setattr(equilibrium, "MAX_ROUNDS", max_rounds)
    with pytest.raises(MaxIterationsExceeded) as exc:
        solve_equilibrium(system, field, cells=400, tol=1e-8)
    best = exc.value.solution
    assert best.rounds == max_rounds
    assert best.measure.masses == pytest.approx(system.r, abs=1e-12)
    assert _weights(best).min() >= 0.0


CYCLING_CASES = {
    # The Newton edge steps overshoot here and the support swings across
    # the true edge, so a support repeats: 714, 715, 713, 714 nodes at the
    # right edge of interval 1 in the first case, 200, 198, 200 nodes on the
    # middle interval in the second.  In the first and the last a support
    # repeats twice, so a second repeat is no reason to stop.
    "two_M800": (
        ((-0.287125, 0.946077), (0.958755, 2.299244)),
        (0.626451, 0.373549), 0.593498, 0.342835, 800, 1e-4,
    ),
    "three_M200": (
        ((-1.61044, -1.159444), (-1.147925, -0.072257), (-0.050128, 0.541181)),
        (0.255072, 0.367968, 0.37696), 0.009826, 0.193146, 200, 1e-4,
    ),
    "two_M1600": (
        ((-1.955755, -0.687151), (0.097056, 0.872649)),
        (0.844943, 0.155057), -1.917665, 0.118949, 1600, 1e-4,
    ),
    "two_M50_tol1e-8": (
        ((-1.026709, -0.448546), (-0.388379, 2.055321)),
        (0.745043, 0.254957), -0.721571, 0.254517, 50, 1e-8,
    ),
}


@pytest.mark.parametrize("name", list(CYCLING_CASES))
def test_repeated_support_steps_plainly_to_convergence(name):
    intervals, masses, center, scale, cells, tol = CYCLING_CASES[name]
    system = IntervalSystem(intervals, masses)
    field = ExternalField.quadratic(system.p, center=center, scale=scale)
    sol = solve_equilibrium(system, field, cells=cells, tol=tol)
    assert sol.kkt_residual <= tol
    assert sol.rounds < equilibrium.MAX_ROUNDS
    assert sol.measure.masses == pytest.approx(masses, abs=1e-12)


def test_strang_preconditioner_is_positive_on_a_long_interval():
    # On [-3, 3] the circulant's zero-frequency eigenvalue is negative; the
    # preconditioner replaces it and stays positive definite.
    wide = IntervalSystem(((-3.0, 3.0),), (1.0,))
    kernel = system_kernel(wide, 400)
    assert 2.0 * kernel.columns[0].sum() < 0.0
    on = np.ones((1, 400), dtype=bool)
    solve = equilibrium._strang(kernel.columns, on)
    rng = np.random.default_rng(0)
    for _ in range(5):
        r = equilibrium._centred(rng.normal(size=(1, 400)), on)
        assert float(np.vdot(r, solve(r))) > 0.0
        assert abs(solve(r).sum()) < 1e-12


def test_initial_seeds_the_first_support():
    # A start on the true support of the semicircle problem needs no round
    # that changes it.
    system, field = _partial_case("semicircle")
    sol = solve_equilibrium(system, field, cells=400, tol=1e-8)
    again = solve_equilibrium(system, field, cells=400, tol=1e-8, initial=sol.measure)
    assert again.rounds <= 1
    assert again.applies < sol.applies
    assert np.abs(_weights(again) - _weights(sol)).max() <= 1e-7


def _counted_applies(monkeypatch):
    """A one-element list that counts every ``KernelOperator.apply`` from here on."""
    calls = [0]
    apply = KernelOperator.apply

    def counted(self, w):
        calls[0] += 1
        return apply(self, w)

    monkeypatch.setattr(KernelOperator, "apply", counted)
    return calls


STORED_SYSTEM = IntervalSystem(((-2.0, -1.0), (1.0, 2.0)), (0.5, 0.5))
STORED_FIELD = ExternalField.quadratic(2, scale=0.3)
STORED = {"field": STORED_FIELD, "cells": 100, "tol": 1e-6, "max_iter": 20000}


def _bumped_at_one_node(field, i, node):
    """``field`` with component i raised by 1e-3 at ``node`` alone."""
    funcs = [lambda x, k=k: field(k, x) for k in range(field.p)]
    funcs[i] = lambda x: field(i, x) + 1e-3 * (np.asarray(x) == node)
    return ExternalField(tuple(funcs))


def test_a_repeated_problem_returns_the_stored_solution(monkeypatch):
    system_kernel.cache_clear()
    calls = _counted_applies(monkeypatch)
    sol = solve_equilibrium(STORED_SYSTEM, **STORED)
    assert calls[0] == sol.applies > 0
    # An equal field as another object still names the same problem.
    equal_field = ExternalField.quadratic(2, scale=0.3)
    again = solve_equilibrium(STORED_SYSTEM, **{**STORED, "field": equal_field})
    assert again is sol
    assert calls[0] == sol.applies
    assert not any(g.weights.flags.writeable or g.nodes.flags.writeable for g in sol.measure)


@pytest.mark.parametrize(
    "change",
    [
        {"field": _bumped_at_one_node(STORED_FIELD, 1, STORED_SYSTEM.grid_nodes(1, 100)[37])},
        {"tol": 1e-7},
        {"max_iter": 19999},
        {"cells": 101},
        {"system": IntervalSystem(STORED_SYSTEM.intervals, (0.4, 0.6))},
    ],
    ids=["field_at_one_node", "tol", "max_iter", "cells", "masses"],
)
def test_a_changed_problem_solves_afresh(change, monkeypatch):
    system_kernel.cache_clear()
    sol = solve_equilibrium(STORED_SYSTEM, **STORED)
    calls = _counted_applies(monkeypatch)
    problem = {"system": STORED_SYSTEM, **STORED, **change}
    other = solve_equilibrium(**problem)
    assert other is not sol
    assert calls[0] == other.applies > 0


def test_a_call_with_initial_always_solves_and_is_not_kept(monkeypatch):
    system_kernel.cache_clear()
    sol = solve_equilibrium(STORED_SYSTEM, **STORED)
    calls = _counted_applies(monkeypatch)
    started = solve_equilibrium(STORED_SYSTEM, **STORED, initial=sol.measure)
    assert started is not sol
    assert calls[0] == started.applies > 0
    assert solve_equilibrium(STORED_SYSTEM, **STORED) is sol


def test_an_emptied_kernel_cache_solves_again(monkeypatch):
    system_kernel.cache_clear()
    sol = solve_equilibrium(STORED_SYSTEM, **STORED)
    system_kernel.cache_clear()
    calls = _counted_applies(monkeypatch)
    again = solve_equilibrium(STORED_SYSTEM, **STORED)
    assert again is not sol
    assert calls[0] == again.applies == sol.applies
    # A cold solve of the same problem gives the same bits.
    assert again.energy == sol.energy
    assert all(np.array_equal(a.weights, b.weights) for a, b in zip(again.measure, sol.measure))


def test_a_capped_solve_raises_again_on_the_repeat(monkeypatch):
    system_kernel.cache_clear()
    calls = _counted_applies(monkeypatch)
    for _ in range(2):
        calls[0] = 0
        with pytest.raises(MaxIterationsExceeded) as exc:
            solve_equilibrium(STORED_SYSTEM, **{**STORED, "max_iter": 3, "tol": 1e-14})
        assert calls[0] == exc.value.solution.applies > 0
