import copy
import math

import numpy as np
import pytest

from angelesco import (
    BaseMeasure,
    EnsembleSpec,
    ExternalField,
    GridMeasure,
    IntervalSystem,
    MonicPolynomial,
    MultiIndex,
    MultiIndexSequence,
    VectorMeasure,
    bm_constant,
    convergence_experiment,
    counting_measure,
    fekete_points,
    gibbs_sample,
    johansson_probability,
    log_boltzmann,
    log_density_unnormalized,
    moments,
    partition_function_bounds,
    partition_function_quadrature,
    rate_function,
    solve_equilibrium,
    solve_mop,
    sort_into_blocks,
    weak_star_distance,
)
from angelesco import ensemble
from angelesco.ensemble import _GibbsChain, sector_factor
from angelesco.errors import (
    DegenerateConditional,
    DimensionTooLarge,
    IllConditionedSystem,
)


@pytest.fixture(scope="module")
def pair_spec(two):
    base = tuple(BaseMeasure.lebesgue(two, i) for i in range(2))
    seq = MultiIndexSequence.proportional(two.r, start=2, step=2)
    return EnsembleSpec(two, None, base, seq)


@pytest.fixture(scope="module")
def coarse_spec(two):
    base = tuple(BaseMeasure.lebesgue(two, i, cells=200) for i in range(2))
    seq = MultiIndexSequence.proportional(two.r, start=2, step=2)
    return EnsembleSpec(two, None, base, seq)


@pytest.fixture(scope="module")
def growing_spec(two):
    # one extra point per step: totals 2, 3, 4, ...
    base = tuple(BaseMeasure.lebesgue(two, i) for i in range(2))
    seq = MultiIndexSequence.proportional(two.r, start=2, step=1)
    return EnsembleSpec(two, None, base, seq)


@pytest.fixture(scope="module")
def single_spec(unit):
    return EnsembleSpec(
        unit,
        None,
        (BaseMeasure.lebesgue(unit, 0, cells=200),),
        MultiIndexSequence.proportional((1.0,), start=1, step=1),
    )


class TestBaseMeasure:
    def test_lebesgue(self, unit):
        tau = BaseMeasure.lebesgue(unit, 0, cells=100)
        assert tau.total_mass == pytest.approx(1.0)
        assert np.allclose(tau.values, 1.0)
        assert tau.density_at(0.37) == pytest.approx(1.0)
        nodes, h, values = tau.refined()
        assert nodes.size == 800
        assert float(np.sum(values) * h) == pytest.approx(1.0, abs=1e-9)

    def test_power(self, unit):
        tau = BaseMeasure.power(unit, 0, 2, cells=200)
        assert tau.total_mass == pytest.approx(1.0 / 3.0, abs=1e-4)
        assert tau.density_at(0.5) == pytest.approx(0.25, abs=1e-4)

    def test_power_is_x_to_the_k_not_distance_to_left_end(self, two):
        # On [1, 2] the density is x**2, not (x - 1)**2.
        tau = BaseMeasure.power(two, 1, 2, cells=200)
        assert np.array_equal(tau.values, tau.nodes**2)
        assert tau.density_at(1.5) == pytest.approx(2.25, abs=1e-4)
        assert tau.total_mass == pytest.approx(7.0 / 3.0, abs=1e-4)

    def test_validation(self, unit):
        nodes = unit.grid_nodes(0, 10)
        h = unit.cell_width(0, 10)
        with pytest.raises(ValueError):
            BaseMeasure(unit, 0, nodes, h, np.zeros(10), 0.0)
        with pytest.raises(ValueError):
            BaseMeasure(unit, 0, nodes, h, -np.ones(10), 1.0)


class TestEnsembleSpec:
    def test_validation(self, two, unit):
        base = tuple(BaseMeasure.lebesgue(two, i) for i in range(2))
        seq = MultiIndexSequence.proportional(two.r, start=2, step=2)
        with pytest.raises(ValueError):
            EnsembleSpec(two, None, base[:1], seq)
        with pytest.raises(ValueError):
            EnsembleSpec(two, None, (BaseMeasure.lebesgue(unit, 0), base[1]), seq)
        with pytest.raises(ValueError):
            EnsembleSpec(
                two,
                None,
                base,
                MultiIndexSequence.proportional((0.9, 0.1), start=2, step=2),
            )

    def test_index_and_unweighted(self, two, pair_spec):
        assert pair_spec.index(3).counts == (3, 3)
        field = ExternalField.quadratic(2, scale=0.25)
        spec = EnsembleSpec(two, field, pair_spec.base, pair_spec.seq)
        unw = spec.unweighted()
        assert unw.field is None or unw.field.is_zero


class TestLogDensity:
    def test_pair_value(self, two, pair_spec):
        X = sort_into_blocks([-1.5, 1.25], two, MultiIndex((1, 1)))
        val = log_density_unnormalized(pair_spec, 1, X)
        assert val == pytest.approx(np.log(1.25 + 1.5))

    def test_field_penalty(self, two, pair_spec):
        X = sort_into_blocks([-1.5, 1.25], two, MultiIndex((1, 1)))
        plain = log_density_unnormalized(pair_spec, 1, X)
        field = ExternalField.quadratic(2, scale=0.25)
        spec = EnsembleSpec(two, field, pair_spec.base, pair_spec.seq)
        val = log_density_unnormalized(spec, 1, X)
        penalty = 2.0 * 2 * 0.25 * ((-1.5) ** 2 + 1.25**2)
        assert val == pytest.approx(plain - penalty)

    def test_size_mismatch(self, two, pair_spec):
        X = sort_into_blocks([-1.5, 1.25], two, MultiIndex((1, 1)))
        with pytest.raises(ValueError):
            log_density_unnormalized(pair_spec, 2, X)


class TestGibbsSampling:
    def test_single_point_is_uniform(self, single_spec):
        batch = gibbs_sample(single_spec, 1, 5000, burn_in=10, thin=1, seed=0)
        assert len(batch) == 5000
        xs = np.sort(np.concatenate([X.blocks[0] for X in batch]))
        k = np.arange(1, xs.size + 1) / xs.size
        sup = np.max(np.maximum(np.abs(k - xs), np.abs(k - 1.0 / xs.size - xs)))
        assert sup < 0.03

    def test_pair_marginal_matches_exact_law(self, coarse_spec):
        batch = gibbs_sample(coarse_spec, 1, 5000, burn_in=10, thin=1, seed=1)
        x = np.sort(np.concatenate([X.blocks[0] for X in batch]))
        cdf = (1.5 * x - 0.5 * x**2 + 5.0) / 3.0
        k = np.arange(1, x.size + 1) / x.size
        sup = np.max(np.maximum(np.abs(k - cdf), np.abs(k - 1.0 / x.size - cdf)))
        assert sup < 0.03

    def test_pair_joint_cell_counts(self, coarse_spec):
        batch = gibbs_sample(coarse_spec, 1, 2000, burn_in=20, thin=2, seed=2)
        xa = np.array([X.blocks[0][0] for X in batch])
        xb = np.array([X.blocks[1][0] for X in batch])
        e1 = np.linspace(-2.0, -1.0, 21)
        e2 = np.linspace(1.0, 2.0, 21)
        c1 = 0.5 * (e1[:-1] + e1[1:])
        c2 = 0.5 * (e2[:-1] + e2[1:])
        probs = np.outer(np.diff(e1), np.diff(e2)) * (c2[None, :] - c1[:, None]) / 3.0
        counts, _, _ = np.histogram2d(xa, xb, bins=(e1, e2))
        expected = 2000.0 * probs
        stat = float(np.sum((counts - expected) ** 2 / expected))
        # 400 cells; the 0.1% tail of the count statistic sits near 493
        assert stat < 500.0

    def test_chain_mean_is_seed_stable(self, two, coarse_spec):
        def mean_measure(seed):
            batch = gibbs_sample(coarse_spec, 20, 50, burn_in=50, thin=5, seed=seed)
            acc = [np.zeros(200), np.zeros(200)]
            for X in batch:
                nu = counting_measure(X, cells=200)
                for i in range(2):
                    acc[i] += nu[i].weights
            comps = []
            for i in range(2):
                w = acc[i] / len(batch)
                comps.append(
                    GridMeasure(
                        two,
                        i,
                        two.grid_nodes(i, 200),
                        two.cell_width(i, 200),
                        w,
                        float(w.sum()),
                    )
                )
            return VectorMeasure(tuple(comps))

        assert weak_star_distance(mean_measure(0), mean_measure(1)) < 0.05

    def test_same_seed_same_stream(self, coarse_spec):
        a = gibbs_sample(coarse_spec, 2, 5, seed=7)
        b = gibbs_sample(coarse_spec, 2, 5, seed=7)
        for Xa, Xb in zip(a, b):
            assert np.array_equal(Xa.flatten(), Xb.flatten())
        c = gibbs_sample(coarse_spec, 2, 5, seed=8)
        assert any(
            not np.array_equal(Xa.flatten(), Xc.flatten())
            for Xa, Xc in zip(a, c)
        )

    def test_vanishing_conditional_raises(self):
        # A conditional that is zero at every grid node has no valid draw.
        from angelesco.ensemble import _draw_from_log_density

        rng = np.random.default_rng(0)
        logp = np.full(16, -np.inf)
        work = (np.empty(16), np.empty(16))
        with pytest.raises(DegenerateConditional):
            _draw_from_log_density(logp, 0.0, 0.0, 1.0 / 16.0, rng, work)

    def test_nan_conditional_raises(self):
        from angelesco.ensemble import _draw_from_log_density

        rng = np.random.default_rng(0)
        logp = np.array([0.0, np.nan, -1.0])
        work = (np.empty(3), np.empty(3))
        with pytest.raises(DegenerateConditional):
            _draw_from_log_density(logp, 0.0, 0.0, 0.25, rng, work)


def _scratch_repulsion(chain, i, k):
    """Repulsion felt by point k of block i, summed over every other point."""
    t = chain.grids[i][0]
    out = np.zeros_like(t)
    with np.errstate(divide="ignore"):
        for j, block in enumerate(chain.state):
            pts = np.delete(block, k) if j == i else block
            if pts.size:
                c = 2.0 if j == i else 1.0
                out += c * np.sum(np.log(np.abs(t[:, None] - pts[None, :])), axis=1)
    return out


def _chain(system, counts, cells=50, seed=0):
    base = tuple(BaseMeasure.lebesgue(system, i, cells) for i in range(system.p))
    seq = MultiIndexSequence.proportional(system.r, start=system.p, step=system.p)
    spec = EnsembleSpec(system, None, base, seq)
    return _GibbsChain(spec, MultiIndex(counts), np.random.default_rng(seed))


def _record_draws(monkeypatch):
    """Spy on the inverse-CDF draw; returns the list of log densities."""
    seen = []
    real = ensemble._draw_from_log_density

    def spy(static, rest, left_edge, h, rng, work):
        seen.append(static + rest)
        return real(static, rest, left_edge, h, rng, work)

    monkeypatch.setattr(ensemble, "_draw_from_log_density", spy)
    return seen


def _reference_draw(logp, left_edge, h, rng):
    """Inverse-CDF draw with fresh arrays, in the chain's order of operations."""
    m = logp.max()
    pr = np.exp(logp - m)
    cum = np.cumsum(pr)
    u = rng.random() * cum[-1]
    idx = min(int(np.searchsorted(cum, u, side="right")), pr.size - 1)
    prev = cum[idx - 1] if idx > 0 else 0.0
    return left_edge + (idx + (u - prev) / pr[idx]) * h


def _reference_update(grids, state, tables, rng, i, k):
    """Reference coordinate update on running tables: a fresh log of the old
    point's column and fresh arrays everywhere, the chain's operations in the
    chain's order, and a rebuild of T_i when the old point sits on a node."""
    t, h, a, static = grids[i]
    x_old = state[i][k]
    col = np.log(np.square(t - x_old))
    if col[min(int((x_old - a) / h), col.size - 1)] == -np.inf:
        rest = np.zeros_like(t)
        for j, block in enumerate(state):
            c = 2.0 if j == i else 1.0
            for kk, x in enumerate(block):
                if j != i or kk != k:
                    rest += c * np.log(np.abs(t - x))
    else:
        rest = tables[i] - col
    x_new = _reference_draw(static + rest, a, h, rng)
    state[i][k] = x_new
    tables[i] = rest + np.log(np.square(t - x_new))
    for j in range(len(tables)):
        if j != i:
            tj = grids[j][0]
            tables[j] = tables[j] + np.log((tj - x_new) / (tj - x_old))


class TestRepulsionTables:
    @pytest.mark.parametrize(
        "intervals, masses, counts",
        [
            (((0.0, 1.0),), (1.0,), (5,)),
            (((-2.0, -1.0), (1.0, 2.0)), (0.5, 0.5), (2, 5)),
            (((-3.0, -2.0), (-1.0, 0.5), (1.0, 2.0)), (0.2, 0.5, 0.3), (1, 4, 2)),
        ],
    )
    def test_conditional_matches_scratch_sum(
        self, intervals, masses, counts, monkeypatch
    ):
        system = IntervalSystem(intervals, masses)
        chain = _chain(system, counts)
        # a fixed state strictly between grid nodes
        for i, block in enumerate(chain.state):
            a, b = system.intervals[i]
            block[:] = a + (b - a) * (np.arange(block.size) + 0.3137) / block.size
        chain._rebuild()
        seen = _record_draws(monkeypatch)
        for _ in range(3):
            for i, block in enumerate(chain.state):
                for k in range(block.size):
                    want = chain.grids[i][3] + _scratch_repulsion(chain, i, k)
                    with np.errstate(divide="ignore"):
                        chain._update(i, k)
                    np.testing.assert_allclose(seen[-1], want, rtol=1e-12, atol=1e-12)

    def test_point_on_node_falls_back_to_rebuild(self, two, monkeypatch):
        chain = _chain(two, (3, 2))
        t0 = chain.grids[0][0]
        chain.state[0][:] = [t0[10], t0[40], -1.3]
        chain._rebuild()
        assert np.isneginf(chain.tables[0][[10, 40]]).all()
        rebuilds = []
        real_table = chain._table

        def counting_table(i, skip=-1):
            rebuilds.append((i, skip))
            return real_table(i, skip)

        monkeypatch.setattr(chain, "_table", counting_table)
        seen = _record_draws(monkeypatch)
        for i, k in [(0, 2), (1, 0), (0, 0)]:
            on_node = chain.state[i][k] in chain.grids[i][0]
            want = chain.grids[i][3] + _scratch_repulsion(chain, i, k)
            with np.errstate(divide="ignore"):
                chain._update(i, k)
            assert not np.isnan(seen[-1]).any()
            np.testing.assert_allclose(seen[-1], want, rtol=1e-12, atol=1e-12)
            assert rebuilds == ([(i, k)] if on_node else [])
            rebuilds.clear()
        # the point left on node 40 still excludes it for its neighbours
        assert np.isneginf(seen[-1][40])
        for i in range(2):
            assert not np.isnan(chain.tables[i]).any()
            np.testing.assert_allclose(chain.tables[i], real_table(i), rtol=1e-12)

    @pytest.mark.parametrize(
        "intervals, masses, counts",
        [
            (((0.0, 1.0),), (1.0,), (6,)),
            (((-2.0, -1.0), (1.0, 2.0)), (0.5, 0.5), (3, 4)),
            (((-3.0, -2.0), (-1.0, 0.5), (1.0, 2.0)), (0.2, 0.5, 0.3), (2, 3, 2)),
        ],
    )
    def test_update_matches_reference_bit_for_bit(self, intervals, masses, counts):
        system = IntervalSystem(intervals, masses)
        chain = _chain(system, counts, seed=5)
        # two points of block 0 on grid nodes: their first update rebuilds
        t0 = chain.grids[0][0]
        chain.state[0][:2] = [t0[7], t0[200]]
        chain._rebuild()
        state = [b.copy() for b in chain.state]
        tables = [tb.copy() for tb in chain.tables]
        rng = copy.deepcopy(chain.rng)
        with np.errstate(divide="ignore"):
            for _ in range(4):
                for i, block in enumerate(state):
                    for k in range(block.size):
                        chain._update(i, k)
                        _reference_update(chain.grids, state, tables, rng, i, k)
                        for j in range(system.p):
                            assert np.array_equal(chain.state[j], state[j])
                            assert np.array_equal(chain.tables[j], tables[j])
        assert rng.random() == chain.rng.random()

    def test_cached_columns_stay_exact(self, two):
        chain = _chain(two, (5, 4), seed=2)
        for _ in range(20):
            chain.sweep()
        with np.errstate(divide="ignore"):
            for i, block in enumerate(chain.state):
                t = chain.grids[i][0]
                assert chain.columns[i].shape == (block.size, t.size)
                for k, x in enumerate(block):
                    assert np.array_equal(
                        chain.columns[i][k], np.log(np.square(t - x))
                    )

    def test_tables_do_not_drift(self, two):
        chain = _chain(two, (32, 32), cells=200, seed=3)
        for _ in range(1000):
            chain.sweep()
        for i in range(2):
            fresh = chain._table(i)
            assert np.abs(fresh).max() > 10.0
            np.testing.assert_allclose(chain.tables[i], fresh, rtol=0, atol=1e-9)


class TestPartitionFunction:
    def test_tiny_closed_forms(self, single_spec, pair_spec):
        assert partition_function_quadrature(single_spec, 1) == pytest.approx(
            0.0, abs=1e-10
        )
        assert partition_function_quadrature(single_spec, 2) == pytest.approx(
            np.log(1.0 / 6.0), abs=1e-5
        )
        assert partition_function_quadrature(pair_spec, 1) == pytest.approx(
            np.log(3.0), abs=1e-6
        )

    def test_size_cap(self, growing_spec):
        with pytest.raises(DimensionTooLarge):
            partition_function_quadrature(growing_spec, 5)

    @pytest.mark.parametrize(
        "intervals, counts, power, quadratic, cells",
        [
            (((-2.0, -1.0), (1.0, 2.0)), (1, 1), 0, False, 100),
            (((-2.0, -1.0), (1.0, 2.0)), (2, 1), 0, True, 20),
            (((-1.0, -0.2), (0.1, 1.5)), (1, 2), 0, True, 20),
            (((0.0, 1.0),), (2,), 2, False, 100),
            (((0.5, 1.5),), (2,), 1, True, 100),
            (((0.0, 1.0),), (3,), 0, True, 20),
        ],
    )
    def test_determinant_matches_full_tensor(
        self, intervals, counts, power, quadratic, cells
    ):
        n = sum(counts)
        system = IntervalSystem(intervals, tuple(c / n for c in counts))
        base = tuple(
            BaseMeasure.power(system, i, power, cells)
            if power
            else BaseMeasure.lebesgue(system, i, cells)
            for i in range(system.p)
        )
        field = (
            ExternalField.quadratic(system.p, center=0.3, scale=0.7)
            if quadratic
            else None
        )
        spec = EnsembleSpec(
            system, field, base, MultiIndexSequence.explicit([counts])
        )
        # The tensor then runs on every node of the refined grid.
        assert 8 * cells <= int((2 ** 25) ** (1.0 / n))
        tensor = partition_function_quadrature(spec, 1)
        assert abs(ensemble._log_partition(spec, 1) - tensor) <= 1e-12 * max(
            1.0, abs(tensor)
        )

    @pytest.mark.parametrize("n", [4, 5])
    def test_determinant_matches_selberg(self, unit, n):
        spec = EnsembleSpec(
            unit,
            None,
            (BaseMeasure.lebesgue(unit, 0, cells=200),),
            MultiIndexSequence.explicit([(n,)]),
        )
        # Selberg: prod_j Gamma(1 + j)^2 Gamma(2 + j) / Gamma(1 + n + j).
        exact = sum(
            2 * math.lgamma(1 + j) + math.lgamma(2 + j) - math.lgamma(1 + n + j)
            for j in range(n)
        )
        assert ensemble._log_partition(spec, 1) == pytest.approx(exact, abs=1e-4)

    @pytest.mark.parametrize(
        "intervals, counts, quadratic, cells",
        [
            (((-2.0, -1.0), (1.0, 2.0)), (20, 20), True, 50),
            (((-2.0, -1.0), (1.0, 2.0)), (40, 40), False, 25),
            (((-1.0, -0.05), (0.05, 1.0)), (17, 23), False, 50),
        ],
    )
    def test_determinant_matches_high_precision_moments(
        self, moment_system, intervals, counts, quadratic, cells
    ):
        n = sum(counts)
        system = IntervalSystem(intervals, tuple(c / n for c in counts))
        base = tuple(BaseMeasure.lebesgue(system, i, cells) for i in range(2))
        field = ExternalField.quadratic(2, scale=0.5) if quadratic else None
        spec = EnsembleSpec(
            system, field, base, MultiIndexSequence.explicit([counts])
        )
        log_det, _, _ = moment_system(spec, counts, n_field=n)
        exact = sum(math.lgamma(c + 1) for c in counts) + log_det
        assert abs(ensemble._log_partition(spec, 1) - exact) <= 1e-10 * abs(exact)

    def test_numerically_singular_pairing_raises(self, two):
        # 4 + 36 points: M's condition is about 1e17, and log Z came out
        # 169 too high with a positive sign before this was checked.
        base = tuple(BaseMeasure.lebesgue(two, i, cells=50) for i in range(2))
        spec = EnsembleSpec(
            two, None, base, MultiIndexSequence.explicit([(4, 36)], slack=100.0)
        )
        with pytest.raises(IllConditionedSystem) as exc:
            ensemble._log_partition(spec, 1)
        assert exc.value.condition * np.finfo(float).eps >= 1.0
        with pytest.raises(IllConditionedSystem):
            solve_mop(spec, MultiIndex((4, 36)))

    def test_pairing_too_ill_conditioned_for_log_z_raises(self, two):
        # cond * eps is 8.7e-4 at 14 + 26 points, where log det is 2.4e-6
        # off a 300-digit solve although M is far from singular.
        base = tuple(BaseMeasure.lebesgue(two, i, cells=50) for i in range(2))
        spec = EnsembleSpec(
            two, None, base, MultiIndexSequence.explicit([(14, 26)], slack=10.0)
        )
        with pytest.raises(IllConditionedSystem) as exc:
            ensemble._log_partition(spec, 1)
        assert 1e-6 <= exc.value.condition * np.finfo(float).eps < 1.0

    def test_determinant_survives_a_huge_field_constant(self, two):
        # Q + c scales Z by exp(-2 n^2 c); unshifted, every weight underflows.
        counts, c = (10, 10), 400.0
        n = sum(counts)
        base = tuple(BaseMeasure.lebesgue(two, i, cells=100) for i in range(2))
        seq = MultiIndexSequence.explicit([counts])
        field = ExternalField.quadratic(2, scale=0.5)
        lifted = ExternalField(
            tuple(lambda x, i=i: field(i, x) + c for i in range(2))
        )
        log_z = ensemble._log_partition(EnsembleSpec(two, field, base, seq), 1)
        log_z_lifted = ensemble._log_partition(
            EnsembleSpec(two, lifted, base, seq), 1
        )
        assert np.isfinite(log_z)
        assert abs(log_z_lifted + 2.0 * n * n * c - log_z) <= 1e-8

    def test_sector_factor(self):
        assert sector_factor(MultiIndex((1, 1))) == 1.0
        assert sector_factor(MultiIndex((3, 2))) == 12.0

    def test_log_sector_factor_beyond_float_factorials(self):
        # 171! overflows a float; zconst's log_sector_factor column must not.
        log_sector = ensemble._log_sector_factor
        assert log_sector(MultiIndex((171,))) == math.lgamma(172)
        assert log_sector(MultiIndex((3, 2))) == pytest.approx(math.log(12.0))

    def test_bounds_bracket_and_tighten(self, two, pair_spec):
        gaps = []
        for d in (1, 2, 3, 4):
            m = pair_spec.index(d)
            fk = fekete_points(two, m, n_starts=2, seed=d)
            lo, up = partition_function_bounds(pair_spec, d, fk, epsilon=0.05)
            assert lo < up
            gaps.append((up - lo) / m.total**2)
            if m.total <= 4:
                log_z = partition_function_quadrature(pair_spec, d)
                assert lo - 1e-9 <= log_z <= up + 1e-9
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_bounds_index_mismatch(self, two, pair_spec):
        fk = fekete_points(two, pair_spec.index(2), n_starts=1, seed=0)
        with pytest.raises(ValueError):
            partition_function_bounds(pair_spec, 1, fk)


class TestDeviationProbability:
    def test_probabilities_and_bounds(self, growing_spec, two_equilibrium):
        delta = float(np.exp(-two_equilibrium.energy.total))
        assert delta == pytest.approx(0.6570581786124615, abs=1e-4)
        eta = 0.1 * delta
        reports = [
            johansson_probability(
                growing_spec, d, eta, mode="quadrature", equilibrium=two_equilibrium
            )
            for d in (1, 2, 3)
        ]
        probs = [r.probability for r in reports]
        assert probs[0] == 0.0
        # frozen references from a quadrature run on this grid
        assert probs[1] == pytest.approx(1.223949e-4, rel=1e-3)
        assert probs[2] == pytest.approx(6.670076e-7, rel=1e-3)
        for rep, n in zip(reports, (2, 3, 4)):
            assert rep.total == n
            assert sum(rep.index) == n
            assert rep.mode == "quadrature"
            assert rep.premise_holds is True
            assert 0.0 <= rep.probability <= rep.bound <= 1.0
            assert rep.bound == pytest.approx(
                (1.0 - eta / (2.0 * delta)) ** (n * n), rel=1e-9
            )
        roots = [r.partition_root for r in reports]
        assert np.allclose(roots, [1.316074, 0.968540, 0.963304], atol=1e-5)

    def test_edge_thresholds(self, growing_spec, two_equilibrium):
        whole = johansson_probability(
            growing_spec, 2, -1.0, mode="quadrature", equilibrium=two_equilibrium
        )
        assert whole.probability == pytest.approx(1.0, abs=1e-9)
        delta = float(np.exp(-two_equilibrium.energy.total))
        empty = johansson_probability(
            growing_spec, 2, 2.0 * delta, mode="quadrature", equilibrium=two_equilibrium
        )
        assert empty.probability == 0.0

    def test_sampling_fallback(self, growing_spec, two_equilibrium):
        delta = float(np.exp(-two_equilibrium.energy.total))
        rep = johansson_probability(
            growing_spec,
            5,
            0.1 * delta,
            mode="mc",
            samples=30,
            seed=0,
            equilibrium=two_equilibrium,
        )
        assert rep.mode == "mc"
        assert rep.premise_holds is None
        assert np.isnan(rep.partition_root)
        assert 0.0 <= rep.probability <= 1.0
        auto_big = johansson_probability(
            growing_spec,
            5,
            0.1 * delta,
            mode="auto",
            samples=30,
            seed=0,
            equilibrium=two_equilibrium,
        )
        assert auto_big.mode == "mc"
        auto_small = johansson_probability(
            growing_spec, 1, 0.1 * delta, mode="auto", equilibrium=two_equilibrium
        )
        assert auto_small.mode == "quadrature"

    def test_sampling_counts_as_the_per_sample_loop(
        self, two, growing_spec, two_equilibrium
    ):
        # Under a field the one stacked pass gives every sample the bits of
        # its own log_boltzmann call, so the count is that loop's count.
        field = ExternalField.quadratic(2, scale=0.25)
        spec = EnsembleSpec(two, field, growing_spec.base, growing_spec.seq)
        m = spec.index(4)
        n = m.total
        batch = gibbs_sample(spec, 4, 40, burn_in=20, thin=2, seed=5)
        weights = [log_boltzmann(X, field, m) for X in batch]
        delta = float(np.exp(-two_equilibrium.energy.total))
        eta = delta - float(np.exp(np.median(weights) / (n * n)))
        cut = n * n * float(np.log(delta - eta))
        hits = sum(w <= cut for w in weights)
        assert 0 < hits < len(batch)
        rep = johansson_probability(
            spec, 4, eta, mode="mc", samples=40, burn_in=20, thin=2, seed=5,
            equilibrium=two_equilibrium,
        )
        assert rep.probability == hits / len(batch)

    @pytest.mark.parametrize("mode", ["quadratur", "MC", None])
    def test_unknown_mode_raises(self, growing_spec, two_equilibrium, mode):
        with pytest.raises(ValueError, match="mode"):
            johansson_probability(
                growing_spec, 5, 0.1, mode=mode, samples=2, equilibrium=two_equilibrium
            )


def test_convergence_experiment_csv(two, coarse_spec):
    eq = solve_equilibrium(two, cells=200)
    rows = convergence_experiment(
        coarse_spec,
        (2, 4),
        samples_per_d=5,
        burn_in=20,
        thin=2,
        seed=0,
        equilibrium=eq,
    )
    assert [r.d for r in rows] == [2, 4]
    assert [r.total for r in rows] == [4, 8]
    assert all(r.mean_distance > 0 and r.std_distance >= 0 for r in rows)


# The refined grid, the tensor budget, the root scan and the endpoint slack
# are module constants, not keywords; rate_function solves on its measure's
# own grid at the solver's default tolerance; convergence_experiment writes no
# CSV, and counting_measure always gives block i the mass r_i.
REMOVED_KEYWORDS = {
    "refined_refine": lambda s: s.base[0].refined(refine=8),
    "gibbs_sample_refine": lambda s: gibbs_sample(s, 1, 1, refine=8),
    "johansson_refine": lambda s: johansson_probability(s, 1, 0.1, refine=8),
    "johansson_budget": lambda s: johansson_probability(s, 1, 0.1, budget=2 ** 25),
    "convergence_refine": lambda s: convergence_experiment(s, [1], refine=8),
    "convergence_out_csv": lambda s: convergence_experiment(s, [1], out_csv="c.csv"),
    "counting_measure_block_normalized": lambda s: counting_measure(
        sort_into_blocks([-1.5, 1.5], s.system, s.index(1)), block_normalized=False
    ),
    "quadrature_refine": lambda s: partition_function_quadrature(s, 1, refine=8),
    "quadrature_budget": lambda s: partition_function_quadrature(s, 1, budget=2 ** 25),
    "bm_constant_refine": lambda s: bm_constant(s.base[0], 4, refine=8),
    "moments_refine": lambda s: moments(s.base[0], 4, refine=8),
    "real_roots_cells": lambda s: MonicPolynomial(1, [0.0]).real_roots(
        s.system, cells=9
    ),
    "contains_slack": lambda s: s.system.contains(0, -1.5, slack=0.1),
    "locate_slack": lambda s: s.system.locate(-1.5, slack=0.1),
    "rate_function_cells": lambda s: rate_function(
        VectorMeasure.uniform(s.system), cells=9
    ),
    "rate_function_tol": lambda s: rate_function(VectorMeasure.uniform(s.system), tol=0.1),
}


@pytest.mark.parametrize("call", REMOVED_KEYWORDS.values(), ids=REMOVED_KEYWORDS)
def test_removed_keywords_raise(coarse_spec, call):
    with pytest.raises(TypeError, match="unexpected keyword"):
        call(coarse_spec)
