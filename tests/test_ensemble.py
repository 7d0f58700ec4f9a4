import csv
import math

import numpy as np
import pytest

from angelesco import (
    BaseMeasure,
    EnsembleSpec,
    ExternalField,
    GridMeasure,
    IntervalSystem,
    MultiIndex,
    MultiIndexSequence,
    VectorMeasure,
    convergence_experiment,
    counting_measure,
    fekete_points,
    gibbs_sample,
    johansson_probability,
    log_density_unnormalized,
    partition_function_bounds,
    partition_function_quadrature,
    solve_equilibrium,
    solve_mop,
    sort_into_blocks,
    weak_star_distance,
)
from angelesco import ensemble
from angelesco.ensemble import _GibbsChain, export_samples_csv, sector_factor
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
        nodes, h, values = tau.refined(8)
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
        with pytest.raises(DegenerateConditional):
            _draw_from_log_density(logp, 0.0, 1.0 / 16.0, rng)

    def test_nan_conditional_raises(self):
        from angelesco.ensemble import _draw_from_log_density

        rng = np.random.default_rng(0)
        logp = np.array([0.0, np.nan, -1.0])
        with pytest.raises(DegenerateConditional):
            _draw_from_log_density(logp, 0.0, 0.25, rng)


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
    return _GibbsChain(spec, MultiIndex(counts), 8, np.random.default_rng(seed))


def _record_draws(monkeypatch):
    """Spy on the inverse-CDF draw; returns the list of log densities."""
    seen = []
    real = ensemble._draw_from_log_density

    def spy(logp, left_edge, h, rng):
        seen.append(logp.copy())
        return real(logp, left_edge, h, rng)

    monkeypatch.setattr(ensemble, "_draw_from_log_density", spy)
    return seen


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
        chain.tables = [chain._table(i) for i in range(system.p)]
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
        chain.tables = [chain._table(i) for i in range(2)]
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
        log_det, _ = moment_system(spec, counts, n_field=n)
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


def test_convergence_experiment_csv(tmp_path, two, coarse_spec):
    eq = solve_equilibrium(two, cells=200)
    path = tmp_path / "convergence.csv"
    rows = convergence_experiment(
        coarse_spec,
        (2, 4),
        samples_per_d=5,
        burn_in=20,
        thin=2,
        seed=0,
        equilibrium=eq,
        out_csv=str(path),
    )
    assert [r.d for r in rows] == [2, 4]
    assert [r.total for r in rows] == [4, 8]
    assert all(r.mean_distance > 0 and r.std_distance >= 0 for r in rows)
    with open(path) as fh:
        lines = list(csv.reader(fh))
    assert lines[0] == ["d", "total_points", "mean_distance", "std_distance"]
    assert len(lines) == 3
    assert int(lines[2][1]) == 8


def test_export_samples_csv(tmp_path, coarse_spec):
    batch = gibbs_sample(coarse_spec, 2, 3, burn_in=5, thin=1, seed=0)
    path = tmp_path / "samples.csv"
    export_samples_csv(batch, str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample_id", "block", "index", "value"]
    assert len(rows) == 1 + 3 * 4
    assert rows[1][:3] == ["0", "0", "0"]
