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
from angelesco.errors import IllConditionedSystem
from angelesco.mop import _heine_ratios


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


# P(z) on [-2, -1] u [1, 2] with 50-cell Lebesgue base measures, spec as in
# TestSolve, from the monomial moment system in decimals (tests/conftest.py):
# moment_system(spec, counts, digits=500, zs=P_REF_Z)[2].  300 and 600
# digits give the same doubles; the (80, 80) solve takes about 25 s.
P_REF_Z = (0.0, 2.5, -3.0, -1.6, 1.5)
P_REF = {
    (40, 40): (39659783585747.9, 3.4516935670471737e22, 2.8646657533412194e32,
               5.045306277425103e-06, -1.1280694485552274e-05),
    (80, 80): (1.490451107264972e27, 1.2766286839773678e45, 8.488864764427411e64,
               -2.019374366910904e-10, 5.887294727901041e-11),
}


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
            nodes, h, values = pair_spec.base[i].refined()
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

    def test_degree_64_coefficients_keep_their_digits(self, sym_spec):
        # np.poly of the 64 comrade eigenvalues was 2.5e-9 off here.
        p64 = solve_mop(sym_spec, MultiIndex((64,)))
        full = np.concatenate((p64.coefficients, [1.0]))
        grid = self._monic_legendre(64, nodes=8 * sym_spec.base[0].cells)[64]
        np.testing.assert_allclose(
            full, grid, rtol=0, atol=1e-12 * np.abs(grid).max()
        )


    @pytest.mark.parametrize("counts", [(3, 5), (8, 8), (16, 16), (14, 18)])
    def test_matches_high_precision_moment_solve(self, two, moment_system, counts):
        # Beyond (8, 8) the moment system overflowed its condition guard.
        base = tuple(BaseMeasure.lebesgue(two, i, cells=50) for i in range(2))
        seq = MultiIndexSequence.explicit([counts], slack=10.0)
        spec = EnsembleSpec(two, None, base, seq)
        _, exact, _ = moment_system(spec, counts)
        poly = solve_mop(spec, MultiIndex(counts))
        np.testing.assert_allclose(
            poly.coefficients, exact, rtol=0, atol=1e-9 * np.abs(exact).max()
        )

    @pytest.mark.parametrize("counts", [(15, 25), (14, 26)])
    def test_refuses_a_pairing_too_ill_conditioned_for_p(self, two, counts):
        # Both solve to a small residual, yet P is off by 4.5e-5 and 2.7e-3.
        base = tuple(BaseMeasure.lebesgue(two, i, cells=50) for i in range(2))
        seq = MultiIndexSequence.explicit([counts], slack=10.0)
        with pytest.raises(IllConditionedSystem) as err:
            solve_mop(EnsembleSpec(two, None, base, seq), MultiIndex(counts))
        assert err.value.condition * np.finfo(float).eps >= 1e-6

    def test_unbalanced_index_inside_the_guard_matches_the_decimal_solve(
        self, two, moment_system
    ):
        counts, zs = (16, 24), (1.5, 2.5, -3.0)
        base = tuple(BaseMeasure.lebesgue(two, i, cells=50) for i in range(2))
        spec = EnsembleSpec(two, None, base, MultiIndexSequence.explicit([counts], slack=10.0))
        _, _, exact = moment_system(spec, counts, digits=300, zs=zs)
        np.testing.assert_allclose(
            solve_mop(spec, MultiIndex(counts))(zs), exact, rtol=1e-5, atol=0
        )

    def test_residual_check_passes_at_32_32(self, pair_spec):
        poly = solve_mop(pair_spec, MultiIndex((32, 32)))
        assert poly.degree == 64 and np.all(np.isfinite(poly.coefficients))

    @pytest.mark.parametrize("counts", sorted(P_REF))
    def test_values_match_the_decimal_moment_solve(self, two, counts):
        base = tuple(BaseMeasure.lebesgue(two, i, cells=50) for i in range(2))
        seq = MultiIndexSequence.explicit([counts], slack=10.0)
        poly = solve_mop(EnsembleSpec(two, None, base, seq), MultiIndex(counts))
        np.testing.assert_allclose(poly(P_REF_Z), P_REF[counts], rtol=1e-10, atol=0)

    @pytest.mark.parametrize("k", [20, 40, 80])
    def test_real_roots_finds_every_zero(self, two, k):
        base = tuple(BaseMeasure.lebesgue(two, i, cells=400) for i in range(2))
        seq = MultiIndexSequence.explicit([(k, k)], slack=10.0)
        poly = solve_mop(EnsembleSpec(two, None, base, seq), MultiIndex((k, k)))
        roots = poly.real_roots(two)
        # An Angelesco MOP has n_j simple zeros inside interval j.
        assert roots.size == 2 * k and np.sum(roots < 0.0) == k
        assert np.all(np.diff(roots) > 0.0)


class TestExpectationIdentity:
    def test_by_quadrature(self, unit_spec):
        rows = expectation_identity_check(unit_spec, 2, (0.0, 0.5, 2.0))
        assert len(rows) == 3
        for z, p_z, estimate, stderr in rows:
            assert estimate == pytest.approx(p_z, abs=1e-8)
            assert stderr == 0.0

    def test_by_sampling(self, unit_spec):
        rows = expectation_identity_check(
            unit_spec, 5, (2.0,), mode="mc", samples=150, seed=3
        )
        z, p_z, estimate, stderr = rows[0]
        assert stderr > 0.0
        assert abs(estimate - p_z) < 3.0 * stderr

    @pytest.mark.parametrize("samples", [0, 1])
    def test_sampling_needs_two_samples(self, unit_spec, samples):
        with pytest.raises(ValueError, match="samples"):
            expectation_identity_check(unit_spec, 2, (2.0,), mode="mc", samples=samples)

    def test_auto_mode_switches_with_size(self, unit_spec):
        # The determinant serves any size while A is well conditioned; at
        # (24, 24) on [-2, -1] u [1, 2] cond A is about 1.4e12.
        small = expectation_identity_check(unit_spec, 5, (2.0,), mode="auto")
        assert small[0][3] == 0.0
        big = expectation_identity_check(
            _heine_spec(PAIR, (24, 24), None), 1, (0.0,), mode="auto",
            samples=3, burn_in=1, thin=1,
        )
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


def _oracle_axes(spec):
    """One (interval, nodes, weights, field factor) per point, as laid out by
    ``_tensor_axes``, on grids of max(int(4096 ** (1 / n)), 8) midpoints: a
    tensor of about 2**12 nodes.  The Heine specs have no field.
    """
    m = spec.index(1)
    g = max(int((2 ** 12) ** (1.0 / m.total)), 8)
    axes = []
    for i, n_i in enumerate(m.counts):
        t = spec.system.grid_nodes(i, g)
        w = spec.base[i].density_at(t) * spec.system.cell_width(i, g)
        axes += [(i, t, w, 1.0)] * n_i
    return axes


def _tensor_heine(axes, zs):
    """E prod_k (z - x_k) by summing the joint density node by node.

    The density is prod_a w ff (x_a) prod_{a<b} |x_b - x_a|, squared within
    a block, on ``axes`` (n >= 2); the first axis is a loop.
    """
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
    """Quadrature mode is a mean over P's own grid, as a determinant ratio."""

    def test_matches_the_tensor_sum(self):
        for name, (intervals, counts, power, zs) in HEINE_CASES.items():
            spec = _heine_spec(intervals, counts, power)
            axes = _oracle_axes(spec)
            grids = {i: (t, w * ff) for i, t, w, ff in axes}  # one per interval
            _, got = _heine_ratios(spec.system, list(grids.values()), counts, zs)
            exact = _tensor_heine(axes, zs)
            np.testing.assert_allclose(got, exact, rtol=1e-12, atol=0, err_msg=name)

    def test_quadrature_raises_when_ill_conditioned(self):
        spec = _heine_spec(PAIR, (24, 24), None)
        with pytest.raises(IllConditionedSystem) as err:
            expectation_identity_check(spec, 1, (0.0,), mode="quadrature")
        assert err.value.condition * np.finfo(float).eps >= 1e-6

    @pytest.mark.parametrize(
        "intervals, counts, power, zs, rtol",
        [case + (1e-12,) for case in HEINE_CASES.values()]
        + [
            (PAIR, (3, 3), None, (-3.0, -1.6, 0.0, 1.3, 2.5), 1e-12),
            # The determinant ratio keeps fewer digits from here on.
            (PAIR, (8, 8), None, (-3.0, -0.5, 0.0, 0.5, 2.5), 1e-10),
            (PAIR, (6, 10), None, (-3.0, -0.5, 0.0, 0.5, 2.5), 1e-10),
        ],
        ids=list(HEINE_CASES) + ["(3,3)", "(8,8)", "(6,10)"],
    )
    def test_matches_the_polynomial(self, intervals, counts, power, zs, rtol):
        spec = _heine_spec(intervals, counts, power)
        rows = expectation_identity_check(spec, 1, zs, mode="quadrature")
        np.testing.assert_allclose(
            [r[2] for r in rows], [r[1] for r in rows], rtol=rtol, atol=0
        )
        assert all(r[3] == 0.0 for r in rows)


class TestMonicPolynomial:
    def test_coefficients_evaluate_as_horner(self):
        # Built from coefficients, P's basis is the monomials, where
        # Clenshaw's sum is Horner's rule: the same bits as polyval.
        rng = np.random.default_rng(5)
        for _ in range(500):
            n = int(rng.integers(1, 13))
            coef = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, size=n)
            x = rng.uniform(-3.0, 3.0, size=8)
            want = np.polynomial.polynomial.polyval(x, np.append(coef, 1.0))
            assert MonicPolynomial(n, coef)(x).tobytes() == want.tobytes()

    def test_evaluation_and_roots(self, sym):
        poly = MonicPolynomial(2, np.array([-0.25, 0.0]))
        assert np.allclose(poly(np.array([0.0, 1.0])), [-0.25, 0.75])
        assert np.allclose(poly.real_roots(sym), [-0.5, 0.5], atol=1e-6)
        outside = MonicPolynomial(2, np.array([-4.0, 0.0])).real_roots(sym)
        assert outside.size == 0

    def test_roots_closer_than_a_scan_step(self, sym):
        # (x - 0.1)(x - 0.1001): no node of a 4,000-node scan lies between.
        poly = MonicPolynomial(2, np.array([0.1 * 0.1001, -0.2001]))
        np.testing.assert_allclose(
            poly.real_roots(sym), [0.1, 0.1001], rtol=0, atol=1e-12
        )

    def test_root_on_a_scan_node(self, sym):
        # P vanishes at a node of a uniform 4,000-node scan of [-1, 1], so
        # no sign change brackets that zero.
        node = np.linspace(-1.0, 1.0, 4000)[1234]
        poly = MonicPolynomial(2, np.array([0.5 * node, -0.5 - node]))
        np.testing.assert_allclose(
            poly.real_roots(sym), [node, 0.5], rtol=0, atol=1e-12
        )
