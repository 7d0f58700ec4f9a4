import numpy as np
import pytest
from scipy.integrate import quad

from angelesco import (
    EnergyReport,
    ExternalField,
    GridMeasure,
    IntervalSystem,
    VectorMeasure,
    difference_energy,
    mutual_energy,
    partial_potentials,
    potential,
    total_energy,
    weighted_energy,
)
from angelesco.energy import (
    CELL_SELF_ENERGY,
    LOW_RANK_TOL,
    SPARE_COLUMNS,
    _low_rank,
    as_field,
    kernel_matrix,
    system_kernel,
)
from angelesco.errors import CoincidentNodesAcrossIntervals
from conftest import arcsine_cdf


def dense_apply(system, cells, w):
    """u_i = K_ii w_i + (1/2) sum_{j != i} K_ij w_j from dense kernel blocks."""
    grids = VectorMeasure.uniform(system, cells)
    wb = np.split(w, system.p)
    out = []
    for i in range(system.p):
        u = kernel_matrix(grids[i], grids[i]) @ wb[i]
        for j in range(system.p):
            if j != i:
                u = u + 0.5 * (kernel_matrix(grids[i], grids[j]) @ wb[j])
        out.append(u)
    return np.concatenate(out)


# p = 1, 2, 3; equal and unequal lengths; gaps from 1e-3 to 2.
OPERATOR_SYSTEMS = [
    IntervalSystem(((-1.0, 1.0),), (1.0,)),
    IntervalSystem(((-2.0, -1.0), (1.0, 2.0)), (0.5, 0.5)),
    IntervalSystem(((0.0, 1.0), (1.001, 3.0)), (0.3, 0.7)),
    IntervalSystem(((0.0, 0.1), (2.1, 5.0)), (0.6, 0.4)),
    IntervalSystem(((-3.0, -1.0), (-0.995, 0.5), (0.501, 0.7)), (0.2, 0.3, 0.5)),
]


class TestKernel:
    def test_diagonal_is_the_cell_average(self, unit):
        g = GridMeasure.uniform(unit, 0, cells=8)
        K = kernel_matrix(g, g)
        h = g.cell_width
        # independent oracle: cell average of -log|x - y| over the
        # square, folded onto the triangle x < y to dodge the singularity
        oracle = 2.0 * quad(lambda y: y - y * np.log(y), 0.0, h)[0] / h**2
        assert K[0, 0] == pytest.approx(CELL_SELF_ENERGY - np.log(h), rel=1e-12)
        assert K[0, 0] == pytest.approx(oracle, rel=1e-9)
        assert K[0, 3] == pytest.approx(-np.log(g.nodes[3] - g.nodes[0]))
        assert np.allclose(K, K.T)

    def test_node_collision_across_grids(self, sym):
        g3 = GridMeasure.uniform(sym, 0, cells=3)
        g1 = GridMeasure.uniform(sym, 0, cells=1)
        with pytest.raises(CoincidentNodesAcrossIntervals):
            kernel_matrix(g3, g1)

    def test_system_kernel_is_cached(self, two):
        kernel = system_kernel(two, 100)
        assert system_kernel(two, 100) is kernel
        w = np.random.default_rng(0).random(200)
        dense = dense_apply(two, 100, w)
        assert np.abs(kernel.apply(w) - dense).max() <= 1e-13 * np.abs(dense).max()


class TestKernelOperator:
    @pytest.mark.parametrize("cells", [2, 3, 64, 400, 1600])
    @pytest.mark.parametrize("system", OPERATOR_SYSTEMS)
    def test_apply_matches_dense_assembly(self, system, cells):
        kernel = system_kernel(system, cells)
        rng = np.random.default_rng(cells)
        for _ in range(2):
            w = rng.random(system.p * cells)
            dense = dense_apply(system, cells, w)
            assert np.abs(kernel.apply(w) - dense).max() <= 1e-13 * np.abs(dense).max()
        assert len(kernel.certificates) == system.p * (system.p - 1) // 2
        for rank, _, sketch in kernel.certificates.values():
            assert sketch == cells or sketch - rank >= SPARE_COLUMNS

    def test_small_sketch_doubles_until_certified(self):
        system = OPERATOR_SYSTEMS[2]
        grids = VectorMeasure.uniform(system, 400)
        c = kernel_matrix(grids[0], grids[1])
        u, v, err, sketch = _low_rank(c, 2)
        rank = u.shape[1]
        assert sketch > 2 and sketch & (sketch - 1) == 0  # 2, doubled
        assert sketch - rank >= SPARE_COLUMNS
        assert rank > 2
        assert err == np.abs(c - u @ v.T).max()
        assert err <= LOW_RANK_TOL * max(1.0, np.abs(c).max())


class TestEnergies:
    def test_uniform_self_energy(self, unit):
        g = GridMeasure.uniform(unit, 0)
        assert mutual_energy(g, g) == pytest.approx(1.5, abs=3e-3)

    def test_arcsine_self_energy(self, arcsine):
        g = arcsine[0]
        assert mutual_energy(g, g) == pytest.approx(np.log(2.0), abs=3e-3)

    def test_cross_energy_between_intervals(self, two):
        mu = VectorMeasure.uniform(two)
        val = mutual_energy(mu[0], mu[1])
        assert val == pytest.approx(mutual_energy(mu[1], mu[0]))
        # pair distances lie in [2, 4], masses are 1/2 each
        assert -np.log(4.0) * 0.25 <= val <= -np.log(2.0) * 0.25

    def test_report_totals(self, two):
        mu = VectorMeasure.uniform(two)
        rep = total_energy(mu)
        assert rep.total == pytest.approx(
            sum(rep.self_terms) + sum(rep.cross_terms) + sum(rep.field_terms)
        )
        assert len(rep.cross_terms) == 1
        assert np.allclose(rep.field_terms, 0.0)
        assert weighted_energy(mu).total == pytest.approx(rep.total)

    def test_report_build(self):
        rep = EnergyReport.build((1.0, 2.0), (0.5,), (0.25, 0.25))
        assert rep.total == pytest.approx(4.0)
        with pytest.raises(ValueError):
            EnergyReport(5.0, (1.0, 2.0), (0.5,), (0.25, 0.25))

    def test_field_term(self, sym):
        mu = VectorMeasure.uniform(sym)
        rep = weighted_energy(mu, ExternalField.quadratic(1, scale=0.5))
        # twice the integral of x^2/2 against density 1/2 on [-1, 1]
        assert rep.field_terms[0] == pytest.approx(1.0 / 3.0, abs=1e-4)
        assert rep.total == pytest.approx(
            total_energy(mu).total + 1.0 / 3.0, abs=1e-4
        )

    def test_semicircle_energy_closed_form(self):
        # the minimizer for the x^2/2 field: semicircle of radius sqrt(2)
        wide = IntervalSystem(((-2.0, 2.0),), (1.0,))
        mu = VectorMeasure.from_densities(
            wide,
            [lambda x: np.sqrt(np.clip(2.0 - x * x, 0.0, None)) / np.pi],
            masses=(1.0,),
        )
        rep = weighted_energy(mu, ExternalField.quadratic(1, scale=0.5))
        assert rep.total == pytest.approx(0.5 * np.log(2.0) + 0.75, abs=5e-3)

    def test_difference_energy_separates(self, sym, arcsine):
        uni = VectorMeasure.uniform(sym)
        assert difference_energy(uni, uni) == pytest.approx(0.0, abs=1e-12)
        gap = difference_energy(arcsine, uni)
        assert gap > 0.05
        assert gap == pytest.approx(difference_energy(uni, arcsine))


class TestPotentials:
    def test_arcsine_potential_outside(self, arcsine):
        y = np.array([2.0, -3.0])
        vals = potential(arcsine[0], y)
        exact = -np.log((np.abs(y) + np.sqrt(y * y - 1.0)) / 2.0)
        assert np.allclose(vals, exact, atol=1e-4)

    def test_arcsine_potential_flat_inside(self, arcsine):
        y = np.linspace(-0.9, 0.9, 37)
        vals = potential(arcsine[0], y)
        assert np.max(np.abs(vals - np.log(2.0))) < 5e-3

    def test_potential_error_shrinks_with_grid(self, sym):
        y = np.array([1.7])
        exact = -np.log((1.7 + np.sqrt(1.7**2 - 1.0)) / 2.0)
        errs = []
        for cells in (100, 200):
            g = GridMeasure.from_cdf(sym, 0, arcsine_cdf, cells=cells)
            errs.append(abs(float(potential(g, y)[0]) - exact))
        assert errs[1] / errs[0] < 0.6

    def test_potential_at_a_node_uses_cell_average(self, sym):
        g = GridMeasure.uniform(sym, 0, cells=4)
        v = float(potential(g, np.array([g.nodes[1]]))[0])
        assert np.isfinite(v)
        manual = (CELL_SELF_ENERGY - np.log(g.cell_width)) * g.weights[1] + sum(
            -np.log(abs(g.nodes[1] - g.nodes[k])) * g.weights[k] for k in (0, 2, 3)
        )
        assert v == pytest.approx(manual, rel=1e-12)

    def test_partial_potentials_combination(self, two):
        mu = VectorMeasure.uniform(two)
        y = np.array([-1.5, -1.25])
        lhs = partial_potentials(mu, 0, y)
        p0 = potential(mu[0], y)
        p1 = potential(mu[1], y)
        assert np.allclose(lhs, p0 + 0.5 * p1, atol=1e-12)


class TestExternalField:
    def test_variants(self):
        z = ExternalField.zero(2)
        assert z.is_zero
        assert as_field(None, 2).is_zero
        q = ExternalField.quadratic(2, center=1.0, scale=2.0)
        assert not q.is_zero
        assert q(0, np.array([3.0]))[0] == pytest.approx(8.0)
        s = ExternalField.from_samples(
            [np.array([0.0, 1.0])], [np.array([0.0, 2.0])]
        )
        assert s(0, np.array([0.5]))[0] == pytest.approx(1.0)
        with pytest.raises(ValueError):
            as_field(ExternalField.zero(1), 2)
