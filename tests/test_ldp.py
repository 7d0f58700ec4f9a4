import numpy as np
import pytest

from angelesco import (
    BaseMeasure,
    ExternalField,
    GridMeasure,
    MultiIndex,
    VectorMeasure,
    bm_constant,
    field_shift_identity,
    growth_constant,
    quantile_energy_probe,
    rate_function,
    solve_equilibrium,
    weighted_energy,
)
from angelesco.ldp import random_configuration
from angelesco.errors import IllConditionedGram


class TestRateFunction:
    def test_vanishes_at_the_minimizer(self, two_equilibrium):
        rep = rate_function(two_equilibrium.measure, equilibrium=two_equilibrium)
        assert rep.rate == pytest.approx(0.0, abs=1e-9)
        assert rep.equilibrium_energy == pytest.approx(
            two_equilibrium.energy.total
        )
        assert rep.measure_energy == pytest.approx(rep.equilibrium_energy, abs=1e-9)

    def test_uniform_matches_fine_grid(self, two, two_equilibrium):
        rep = rate_function(VectorMeasure.uniform(two), equilibrium=two_equilibrium)
        # frozen reference from this grid
        assert rep.rate == pytest.approx(0.057314, abs=2e-4)
        fine = solve_equilibrium(two, cells=800)
        oracle = (
            weighted_energy(VectorMeasure.uniform(two, cells=800)).total
            - fine.energy.total
        )
        assert rep.rate == pytest.approx(oracle, abs=5e-3)

    def test_positive_away_from_minimizer(self, two, two_equilibrium):
        rng = np.random.default_rng(7)
        for _ in range(10):
            comps = []
            for i in range(2):
                w = rng.random(400) + 0.05
                w = w / w.sum() * two.r[i]
                comps.append(
                    GridMeasure(
                        two, i, two.grid_nodes(i), two.cell_width(i), w, two.r[i]
                    )
                )
            mu = VectorMeasure(tuple(comps))
            assert rate_function(mu, equilibrium=two_equilibrium).rate > 0.0


class TestQuantileProbe:
    def test_approaches_minus_energy(self, two_equilibrium):
        rows = quantile_energy_probe(two_equilibrium.measure, [50, 100, 200])
        target = -two_equilibrium.energy.total
        gaps = [abs(v - target) for _, v in rows]
        assert gaps[-1] < 0.05
        assert gaps[0] > gaps[-1]

    def test_values_settle(self, arcsine):
        vals = dict(quantile_energy_probe(arcsine, [50, 100, 200, 400]))
        d1 = abs(vals[100] - vals[50])
        d2 = abs(vals[200] - vals[100])
        d3 = abs(vals[400] - vals[200])
        assert d1 > d2 > d3


class TestFieldShift:
    def test_identity_is_exact(self, two):
        field = ExternalField.quadratic(2, scale=0.25)
        rng = np.random.default_rng(11)
        for _ in range(25):
            X = random_configuration(two, MultiIndex((3, 2)), rng)
            lhs, rhs = field_shift_identity(X, field)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_random_configuration_layout(self, two):
        X = random_configuration(two, MultiIndex((4, 3)), np.random.default_rng(0))
        assert X.index.counts == (4, 3)
        assert np.all((X.blocks[0] >= -2.0) & (X.blocks[0] <= -1.0))
        assert np.all((X.blocks[1] >= 1.0) & (X.blocks[1] <= 2.0))
        again = random_configuration(two, MultiIndex((4, 3)), np.random.default_rng(0))
        assert np.array_equal(X.flatten(), again.flatten())


class TestNormRatios:
    def test_floor_without_weight(self, sym):
        tau = BaseMeasure.lebesgue(sym, 0)
        for n in range(9):
            est = bm_constant(tau, n)
            assert est.degree == n
            assert est.beta >= 1.0 - 1e-9
            assert np.isfinite(est.root) and est.root > 0.0
        assert bm_constant(tau, 0).beta == pytest.approx(1.0, abs=1e-9)

    def test_roots_shrink_with_degree(self, sym):
        tau = BaseMeasure.lebesgue(sym, 0)
        roots = [bm_constant(tau, n).root for n in (4, 8, 16)]
        assert roots[0] > roots[1] > roots[2]

    def test_weighted_variant(self, sym):
        tau = BaseMeasure.lebesgue(sym, 0)
        est = bm_constant(
            tau, 8, field=ExternalField.quadratic(1, scale=0.5), weight_scale=8
        )
        assert np.isfinite(est.beta) and est.beta > 0.0
        assert np.isfinite(est.root) and est.root > 0.0

    def test_growth_constant_decreases_with_margin(self, unit):
        tau = BaseMeasure.lebesgue(unit, 0)
        tight = growth_constant((tau,), 8, 0.05)
        loose = growth_constant((tau,), 8, 0.5)
        assert tight > loose > 0.0

    @pytest.mark.parametrize("degree", [8, 24, 48])
    def test_beta_matches_legendre_christoffel_sum(self, sym, degree):
        # Orthonormal Legendre polynomials of the uniform probability on the
        # N refined midpoints: t p_k = b_{k+1} p_{k+1} + b_k p_{k-1} with
        # b_k^2 = k^2 (1 - k^2/N^2) / (4 k^2 - 1) (Gram polynomials).
        tau = BaseMeasure.lebesgue(sym, 0)
        t, _, _ = tau.refined(8)
        prev, cur, b = np.zeros_like(t), np.ones_like(t), 0.0
        kernel = cur * cur
        for k in range(1, degree + 1):
            b_next = np.sqrt(k * k * (1.0 - k * k / t.size ** 2) / (4.0 * k * k - 1.0))
            prev, cur, b = cur, (t * cur - b * prev) / b_next, b_next
            kernel += cur * cur
        assert bm_constant(tau, degree).beta == pytest.approx(
            float(kernel.max()), rel=1e-12
        )

    def test_degenerate_gram(self, sym):
        vals = np.zeros(400)
        vals[200] = 1.0
        vals[201] = 1.0
        h = sym.cell_width(0, 400)
        spike = BaseMeasure(
            sym, 0, sym.grid_nodes(0, 400), h, vals, float(vals.sum() * h)
        )
        bm_constant(spike, 16)
        with pytest.raises(IllConditionedGram) as exc:
            bm_constant(spike, 24)
        assert exc.value.degree <= 24
