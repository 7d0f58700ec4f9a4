import csv

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
    SUPPORT_THRESHOLD,
    export_csv,
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
        hist = np.asarray(two_equilibrium.energy_history)
        assert np.all(np.diff(hist) <= 1e-12)
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


def test_iteration_cap_carries_best_iterate(two):
    with pytest.raises(MaxIterationsExceeded) as exc:
        solve_equilibrium(two, max_iter=3, tol=1e-14)
    best = exc.value.solution
    assert best.iterations == 3
    assert best.measure.masses == pytest.approx((0.5, 0.5))
    assert len(best.energy_history) >= 1


def test_export_csv_round_trip(tmp_path, two_equilibrium):
    path = tmp_path / "eqm.csv"
    export_csv(two_equilibrium, str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["interval_index", "node", "weight", "density"]
    assert len(rows) == 1 + 2 * 400
    idx, node, weight, density = rows[1]
    g = two_equilibrium.measure[0]
    assert int(idx) == 0
    assert float(node) == pytest.approx(g.nodes[0])
    assert float(density) == pytest.approx(float(weight) / g.cell_width, rel=1e-4)
