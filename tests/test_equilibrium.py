import numpy as np
import pytest

from angelesco import (
    ExternalField,
    IntervalSystem,
    VectorMeasure,
    solve_equilibrium,
    weak_star_distance,
    weighted_energy,
)
from angelesco.equilibrium import (
    NONMONOTONE_MEMORY,
    SUPPORT_THRESHOLD,
    _project_rows,
    _support_residual,
    kkt_residual,
    project_simplex,
)
from angelesco.errors import GridMismatch, MaxIterationsExceeded


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
        # The nonmonotone line search compares each trial with the largest of
        # the last NONMONOTONE_MEMORY energies: that reference never rises,
        # and no accepted energy exceeds the reference it was tested against.
        hist = np.asarray(two_equilibrium.energy_history)
        m = NONMONOTONE_MEMORY
        ref = np.array(
            [hist[max(0, k - m + 1) : k + 1].max() for k in range(hist.size)]
        )
        assert np.all(np.diff(ref) <= 1e-12)
        assert np.all(hist[1:] <= ref[:-1] + 1e-12)
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
    dense = weighted_energy(sol.measure, field)
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
    dense = weighted_energy(best.measure)
    for name in ("self_terms", "cross_terms", "field_terms"):
        got, want = getattr(best.energy, name), getattr(dense, name)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "intervals, masses, applies",
    [
        (((-2.0, -1.0), (1.0, 2.0)), (0.5, 0.5), 98),
        (((-2.0, -1.0), (-0.99, 0.0), (0.01, 1.0)), (0.3, 0.3, 0.4), 112),
    ],
    ids=["two", "three_gap0.01"],
)
def test_solve_cost_in_kernel_applies(intervals, masses, applies):
    # ``applies`` is deterministic: the initial apply plus one per
    # line-search trial.  The bound is about 1.15 times the count above, so
    # a step rule or search that costs more trials fails here.
    sol = solve_equilibrium(IntervalSystem(intervals, masses), cells=800)
    assert sol.iterations + 1 <= sol.applies <= round(1.15 * applies)
