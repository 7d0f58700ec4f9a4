import csv

import numpy as np
import pytest

from angelesco import (
    BaseMeasure,
    EnsembleSpec,
    IntervalSystem,
    MonicPolynomial,
    MultiIndex,
    MultiIndexSequence,
    expectation_identity_check,
    moments,
    solve_mop,
)
from angelesco.ensemble import _tensor_axes
from angelesco.mop import export_csv


@pytest.fixture(scope="module")
def unit_spec(unit):
    return EnsembleSpec(
        unit,
        None,
        (BaseMeasure.lebesgue(unit, 0),),
        MultiIndexSequence.proportional((1.0,), start=1, step=1),
    )


@pytest.fixture(scope="module")
def sym_spec(sym):
    return EnsembleSpec(
        sym,
        None,
        (BaseMeasure.lebesgue(sym, 0),),
        MultiIndexSequence.proportional((1.0,), start=1, step=1),
    )


@pytest.fixture(scope="module")
def pair_spec(two):
    base = tuple(BaseMeasure.lebesgue(two, i) for i in range(2))
    seq = MultiIndexSequence.proportional(two.r, start=2, step=2)
    return EnsembleSpec(two, None, base, seq)


class TestMoments:
    def test_reference_weights(self, unit, sym):
        m = moments(BaseMeasure.lebesgue(unit, 0), 8)
        assert np.allclose(m, 1.0 / (np.arange(9) + 1), atol=1e-6)
        ms = moments(BaseMeasure.lebesgue(sym, 0), 9)
        assert np.max(np.abs(ms[1::2])) < 1e-12
        mx = moments(BaseMeasure.power(unit, 0, 1), 8)
        assert np.allclose(mx, 1.0 / (np.arange(9) + 2), atol=1e-5)

    def test_recentering(self, sym):
        m = moments(BaseMeasure.lebesgue(sym, 0), 4, center=1.0, scale=2.0)
        k = np.arange(5)
        exact = 2.0 * (-1.0) ** k / (k + 1)
        assert np.allclose(m, exact, atol=1e-6)


class TestSolve:
    def test_first_polynomials_match_closed_forms(self, unit_spec, sym_spec, pair_spec):
        p1 = solve_mop(unit_spec, MultiIndex((1,)))
        assert p1.degree == 1
        assert np.allclose(p1.coefficients, [-0.5], atol=1e-6)
        assert p1(2.0) == pytest.approx(1.5)
        p2 = solve_mop(sym_spec, MultiIndex((2,)))
        assert np.allclose(p2.coefficients, [-1.0 / 3.0, 0.0], atol=1e-6)
        p11 = solve_mop(pair_spec, MultiIndex((1, 1)))
        assert np.allclose(p11.coefficients, [-7.0 / 3.0, 0.0], atol=1e-6)
        root = np.sqrt(7.0 / 3.0)
        assert np.allclose(
            p11.real_roots(pair_spec.system), [-root, root], atol=1e-6
        )

    @staticmethod
    def _monic_legendre(n_max, nodes=None):
        """Monic Legendre polynomials; with ``nodes``, those of the uniform
        measure on that many midpoints of [-1, 1] (beta_k * (1 - k^2/N^2))."""
        polys = [np.array([1.0]), np.array([0.0, 1.0])]
        for k in range(1, n_max):
            beta = k * k / (4.0 * k * k - 1.0)
            if nodes is not None:
                beta *= 1.0 - k * k / nodes ** 2
            lifted = np.concatenate(([0.0], polys[k]))
            prev = np.zeros(k + 2)
            prev[:k] = polys[k - 1] * beta
            polys.append(lifted - prev)
        return polys

    def test_matches_monic_legendre_recurrence(self, sym_spec):
        polys = self._monic_legendre(6)
        # The solve sees the refined grid: 8 midpoints per cell.
        grid = self._monic_legendre(24, nodes=8 * sym_spec.base[0].cells)
        for n in range(1, 25):
            pn = solve_mop(sym_spec, MultiIndex((n,)))
            full = np.concatenate((pn.coefficients, [1.0]))
            if n <= 6:
                assert np.allclose(full, polys[n], atol=1e-4)
            np.testing.assert_allclose(
                full, grid[n], rtol=0, atol=1e-12 * np.abs(grid[n]).max()
            )

    def test_orthogonality_conditions(self, pair_spec):
        poly = solve_mop(pair_spec, MultiIndex((1, 1)))
        for i in range(2):
            nodes, h, values = pair_spec.base[i].refined(8)
            resid = float(np.sum(poly(nodes) * values) * h)
            assert abs(resid) < 1e-6

    def test_degree_18_matches_monic_legendre(self, sym_spec):
        # The moment system gave up here (condition above 1e12).
        p18 = solve_mop(sym_spec, MultiIndex((18,)))
        full = np.concatenate((p18.coefficients, [1.0]))
        grid = self._monic_legendre(18, nodes=8 * sym_spec.base[0].cells)[18]
        np.testing.assert_allclose(
            full, grid, rtol=0, atol=1e-12 * np.abs(grid).max()
        )


    @pytest.mark.parametrize("counts", [(3, 5), (8, 8), (16, 16), (14, 18)])
    def test_matches_high_precision_moment_solve(self, two, moment_system, counts):
        # Beyond (8, 8) the moment system overflowed its condition guard.
        base = tuple(BaseMeasure.lebesgue(two, i, cells=50) for i in range(2))
        seq = MultiIndexSequence.explicit([counts], slack=10.0)
        spec = EnsembleSpec(two, None, base, seq)
        _, exact = moment_system(spec, counts)
        poly = solve_mop(spec, MultiIndex(counts))
        np.testing.assert_allclose(
            poly.coefficients, exact, rtol=0, atol=1e-9 * np.abs(exact).max()
        )

    def test_residual_check_passes_at_32_32(self, pair_spec):
        poly = solve_mop(pair_spec, MultiIndex((32, 32)))
        assert poly.degree == 64 and np.all(np.isfinite(poly.coefficients))


class TestExpectationIdentity:
    def test_by_quadrature(self, unit_spec):
        rows = expectation_identity_check(unit_spec, 2, (0.0, 0.5, 2.0))
        assert len(rows) == 3
        for z, p_z, estimate, stderr in rows:
            assert estimate == pytest.approx(p_z, abs=1e-8)
            assert stderr == 0.0

    def test_by_sampling(self, unit_spec):
        rows = expectation_identity_check(unit_spec, 5, (2.0,), samples=150, seed=3)
        z, p_z, estimate, stderr = rows[0]
        assert stderr > 0.0
        assert abs(estimate - p_z) < 3.0 * stderr

    def test_auto_mode_switches_with_size(self, unit_spec):
        small = expectation_identity_check(
            unit_spec, 4, (2.0,), mode="auto", samples=50, seed=0
        )
        big = expectation_identity_check(
            unit_spec, 5, (2.0,), mode="auto", samples=50, seed=0
        )
        assert small[0][3] == 0.0
        assert big[0][3] > 0.0


# (intervals, counts, base power or None for Lebesgue, z points): each case
# has z to the left of, inside and to the right of the intervals.
PAIR = ((-2.0, -1.0), (1.0, 2.0))
HEINE_CASES = {
    "(1,1)": (PAIR, (1, 1), None, (-3.0, -1.7, 0.0, 1.4, 100.0)),
    "(3,) power(2)": (((0.0, 1.0),), (3,), 2, (-0.5, 0.3, 0.6, 2.5)),
    "(2,1)": (PAIR, (2, 1), None, (-2.5, -1.3, 0.0, 1.6, 3.0)),
    "(2,2)": (PAIR, (2, 2), None, (-3.0, -1.6, 0.5, 1.2, 2.5)),
    "(3,1) gap 0.05": (
        ((-1.0, 0.0), (0.05, 1.0)), (3, 1), None, (-1.5, -0.7, 0.025, 0.5, 2.0)
    ),
}


def _heine_spec(intervals, counts, power):
    n = sum(counts)
    system = IntervalSystem(intervals, tuple(c / n for c in counts))
    if power is None:
        base = tuple(BaseMeasure.lebesgue(system, i) for i in range(system.p))
    else:
        base = tuple(BaseMeasure.power(system, i, power) for i in range(system.p))
    return EnsembleSpec(system, None, base, MultiIndexSequence.explicit([counts]))


def _tensor_heine(spec, zs, budget):
    """E prod_k (z - x_k) by summing the joint density node by node.

    The density is prod_a w ff (x_a) prod_{a<b} |x_b - x_a|, squared within
    a block, on the axes of ``_tensor_axes`` (n >= 2); the first axis is a
    loop.
    """
    m = spec.index(1)
    axes = _tensor_axes(spec, m, budget, 8)
    n = len(axes)
    zs = np.asarray(zs, dtype=float)
    total, moments = 0.0, np.zeros(zs.size)
    grids = list(np.meshgrid(*[a[1] for a in axes[1:]], indexing="ij"))
    weights = np.prod(
        np.meshgrid(*[a[2] * a[3] for a in axes[1:]], indexing="ij"), axis=0
    )
    for t0, w0 in zip(axes[0][1], axes[0][2] * axes[0][3]):
        x = [np.full(weights.shape, t0)] + grids
        dens = w0 * weights
        for i in range(n):
            for j in range(i + 1, n):
                power = 2 if axes[i][0] == axes[j][0] else 1
                dens = dens * np.abs(x[j] - x[i]) ** power
        total += dens.sum()
        for k, z in enumerate(zs):
            fac = np.ones(dens.shape)
            for xa in x:
                fac = fac * (z - xa)
            moments[k] += (fac * dens).sum()
    return moments / total


class TestHeineDeterminant:
    """Quadrature mode is the tensor sum, computed as a determinant ratio."""

    def test_matches_the_tensor_sum(self):
        for name, (intervals, counts, power, zs) in HEINE_CASES.items():
            spec = _heine_spec(intervals, counts, power)
            rows = expectation_identity_check(
                spec, 1, zs, mode="quadrature", budget=2 ** 12
            )
            exact = _tensor_heine(spec, zs, 2 ** 12)
            got = np.array([r[2] for r in rows])
            np.testing.assert_allclose(got, exact, rtol=1e-12, atol=0, err_msg=name)

    def test_budget_shapes_the_answer(self):
        intervals, counts, power, zs = HEINE_CASES["(2,1)"]
        spec = _heine_spec(intervals, counts, power)
        results = {}
        for budget in (2 ** 12, 2 ** 25):
            rows = expectation_identity_check(
                spec, 1, zs, mode="quadrature", budget=budget
            )
            results[budget] = got = np.array([r[2] for r in rows])
            exact = _tensor_heine(spec, zs, budget)
            np.testing.assert_allclose(got, exact, rtol=1e-12, atol=0)
        moved = np.abs(results[2 ** 12] - results[2 ** 25])
        assert np.all(moved > 1e-8 * np.abs(results[2 ** 25]))


class TestMonicPolynomial:
    def test_evaluation_and_roots(self, sym):
        poly = MonicPolynomial(2, np.array([-0.25, 0.0]))
        assert np.allclose(poly(np.array([0.0, 1.0])), [-0.25, 0.75])
        assert np.allclose(poly.real_roots(sym), [-0.5, 0.5], atol=1e-6)
        outside = MonicPolynomial(2, np.array([-4.0, 0.0])).real_roots(sym)
        assert outside.size == 0


def test_export_polynomial_csv(tmp_path, pair_spec):
    poly = solve_mop(pair_spec, MultiIndex((1, 1)))
    path = tmp_path / "poly.csv"
    export_csv(poly, str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["power", "coefficient"]
    assert rows[-1] == ["2", "1"]
    assert len(rows) == 4
    assert float(rows[1][1]) == pytest.approx(-7.0 / 3.0, abs=1e-6)
