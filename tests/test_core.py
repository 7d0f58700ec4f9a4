import dataclasses
import importlib
import typing

import numpy as np
import pytest

from angelesco import (
    Configuration,
    GridMeasure,
    IntervalSystem,
    MultiIndex,
    MultiIndexSequence,
    VectorMeasure,
    apportion,
    counting_measure,
    quantile_configuration,
    sort_into_blocks,
    weak_star_distance,
)
from angelesco.core import CSV_ROWS, DEFAULT_CELLS, write_csv, write_json
from angelesco.errors import (
    AngelescoError,
    CoordinateOutsideSystem,
    DegenerateComponent,
    GridMismatch,
)
from conftest import arcsine_cdf


class TestIntervalSystem:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            IntervalSystem((), ())
        with pytest.raises(ValueError):
            IntervalSystem(((0.0, 1.0),), (0.5, 0.5))
        with pytest.raises(ValueError):
            IntervalSystem(((1.0, 1.0),), (1.0,))
        with pytest.raises(ValueError):
            IntervalSystem(((0.0, 2.0), (1.0, 3.0)), (0.5, 0.5))
        with pytest.raises(ValueError):
            IntervalSystem(((0.0, 1.0), (1.0, 2.0)), (0.5, 0.5))
        with pytest.raises(ValueError):
            IntervalSystem(((0.0, 1.0), (2.0, 3.0)), (1.5, -0.5))
        with pytest.raises(ValueError):
            IntervalSystem(((0.0, 1.0),), (0.9,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_numbers(self, bad):
        # NaN passes both the positivity and the sum check by comparison.
        with pytest.raises(ValueError, match="finite"):
            IntervalSystem(((0.0, 1.0), (2.0, 3.0)), (0.5, bad))
        with pytest.raises(ValueError, match="finite"):
            IntervalSystem(((0.0, 1.0), (2.0, bad)), (0.5, 0.5))

    def test_grid_geometry(self, two):
        assert two.p == 2
        assert two.length(0) == 1.0
        h = two.cell_width(0, 10)
        assert h == pytest.approx(0.1)
        nodes = two.grid_nodes(0, 10)
        assert nodes.shape == (10,)
        assert nodes[0] == pytest.approx(-2.0 + h / 2)
        assert np.allclose(np.diff(nodes), h)
        edges = two.cell_edges(0, 10)
        assert edges.shape == (11,)
        assert edges[0] == -2.0 and edges[-1] == -1.0
        assert two.grid_nodes(0).size == DEFAULT_CELLS

    def test_contains_and_locate(self, two):
        assert two.contains(0, -1.5)
        assert two.contains(0, -2.0)
        assert not two.contains(0, 1.5)
        assert two.contains(1, 2.0 + 5e-13)
        assert not two.contains(1, 2.0 + 1e-11)
        assert np.all(two.contains(0, np.array([-2.0, -1.3, -1.0])))
        assert two.locate(-1.5) == 0
        assert two.locate(1.5) == 1
        assert two.locate(0.0) == -1
        assert two.locate(2.0 + 5e-13) == 1
        assert two.locate(2.0 + 1e-11) == -1


class TestGridMeasure:
    def test_uniform_weights_and_cdf(self, two):
        g = GridMeasure.uniform(two, 0, cells=50, mass=0.5)
        assert g.cells == 50
        assert np.allclose(g.weights, 0.01)
        cdf = g.cdf()
        assert cdf[-1] == pytest.approx(0.5)
        assert np.all(np.diff(cdf) >= 0)
        assert np.allclose(g.density(), 0.5)

    def test_from_density_integrates(self, unit):
        g = GridMeasure.from_density(unit, 0, lambda x: x * x)
        assert g.mass == pytest.approx(1.0 / 3.0, abs=1e-5)
        g1 = GridMeasure.from_density(unit, 0, lambda x: x * x, mass=1.0)
        assert g1.mass == pytest.approx(1.0)
        assert g1.weights.sum() == pytest.approx(1.0)

    def test_from_cdf_matches_at_cell_edges(self, sym):
        g = GridMeasure.from_cdf(sym, 0, arcsine_cdf)
        edges = sym.cell_edges(0, g.cells)
        assert np.allclose(g.cdf(), arcsine_cdf(edges[1:]), atol=1e-9)
        assert g.mass == pytest.approx(1.0)

    def test_rejects_inconsistent_data(self, unit):
        nodes = unit.grid_nodes(0, 4)
        h = unit.cell_width(0, 4)
        w = np.full(4, 0.25)
        with pytest.raises(ValueError):
            GridMeasure(unit, 0, nodes[::-1].copy(), h, w, 1.0)
        with pytest.raises(ValueError):
            GridMeasure(unit, 0, nodes, h, w, 2.0)
        with pytest.raises(ValueError):
            GridMeasure(unit, 0, nodes, h, w, -1.0)
        with pytest.raises(ValueError):
            GridMeasure(unit, 5, nodes, h, w, 1.0)
        with pytest.raises(ValueError):
            GridMeasure.from_density(unit, 0, lambda x: x - 2.0)

    def test_zero_mass_allowed_but_not_rescalable(self, unit):
        nodes = unit.grid_nodes(0, 4)
        g = GridMeasure(unit, 0, nodes, unit.cell_width(0, 4), np.zeros(4), 0.0)
        assert g.mass == 0.0
        with pytest.raises(ValueError):
            GridMeasure.from_density(unit, 0, lambda x: 0.0 * x, mass=1.0)

    def test_binned_counts_points(self, unit):
        pts = np.array([0.15, 0.15, 0.95])
        g = GridMeasure.binned(unit, 0, pts, 1.0 / 3.0, cells=10)
        assert g.mass == pytest.approx(1.0)
        assert g.weights[1] == pytest.approx(2.0 / 3.0)
        assert g.weights[9] == pytest.approx(1.0 / 3.0)
        with pytest.raises(CoordinateOutsideSystem):
            GridMeasure.binned(unit, 0, np.array([1.5]), 1.0, cells=10)

    def test_binned_draws_track_the_law(self, unit):
        rng = np.random.default_rng(0)
        pts = rng.random(1000)
        nu = VectorMeasure((GridMeasure.binned(unit, 0, pts, 1e-3),))
        assert weak_star_distance(nu, VectorMeasure.uniform(unit)) < 0.05


class TestVectorMeasure:
    def test_mass_budget(self, two):
        mu = VectorMeasure.uniform(two)
        assert mu.masses == pytest.approx((0.5, 0.5))
        assert len(list(mu)) == 2
        assert mu[1].interval_index == 1
        heavy = (
            GridMeasure.uniform(two, 0, mass=0.6),
            GridMeasure.uniform(two, 1, mass=0.6),
        )
        with pytest.raises(ValueError):
            VectorMeasure(heavy)
        with pytest.raises(ValueError):
            VectorMeasure((mu[0],))
        with pytest.raises(ValueError):
            VectorMeasure((mu[1], mu[0]))

    def test_from_densities(self, two):
        mu = VectorMeasure.from_densities(
            two,
            [lambda x: 1.0 + 0.0 * x, lambda x: 2.0 + 0.0 * x],
            masses=(0.5, 0.5),
        )
        assert mu.masses == pytest.approx((0.5, 0.5))
        assert np.allclose(mu[0].density(), 0.5)


class TestIndexing:
    def test_multi_index(self):
        m = MultiIndex((3, 2))
        assert m.p == 2
        assert m.total == 5
        with pytest.raises(ValueError):
            MultiIndex((3, 0))

    def test_apportion(self):
        assert apportion(7, (1.0 / 3.0, 2.0 / 3.0)).counts == (2, 5)
        for total in range(2, 40):
            counts = apportion(total, (0.5, 0.5)).counts
            assert sum(counts) == total
            assert max(counts) - min(counts) <= 1
        with pytest.raises(ValueError):
            apportion(1, (0.5, 0.5))
        for shares in [(0.0, 0.0), (np.nan, 0.5), (np.inf, 0.5)]:
            with pytest.raises(ValueError, match="positive finite sum"):
                apportion(5, shares)

    def test_apportion_matches_the_numpy_form(self):
        def numpy_form(total, shares):
            shares = np.asarray(shares, dtype=float)
            quota = shares / shares.sum() * total
            counts = np.floor(quota).astype(int)
            rem = quota - counts
            for j in np.argsort(-rem, kind="stable")[: total - counts.sum()]:
                counts[j] += 1
            while counts.min() < 1:
                counts[np.argmin(counts)] += 1
                counts[np.argmax(counts)] -= 1
            return tuple(int(c) for c in counts)

        rng = np.random.default_rng(8)
        # 8 or more shares and 129 or more take NumPy's pairwise order.
        for p in [*range(1, 20), 129, 140]:
            for kind in range(40 if p < 20 else 4):
                if kind % 4 == 0:
                    shares = rng.random(p)
                elif kind % 4 == 1:
                    shares = rng.integers(1, 6, size=p) / 10.0  # ties
                elif kind % 4 == 2:
                    shares = np.full(p, 1.0 / p)  # all tied
                else:
                    shares = 10.0 ** rng.uniform(-8, 0, size=p)
                for total in {p, p + 1, 3 * p + 1, 100 + p, 1000 + p}:
                    want = numpy_form(total, shares)
                    assert apportion(total, shares.tolist()).counts == want
                    assert apportion(total, tuple(shares)).counts == want

    def test_proportional_sequence(self, two):
        seq = MultiIndexSequence.proportional(two.r, start=2, step=2)
        assert seq(1).counts == (1, 1)
        assert seq(20).total == 40
        seq.check_limit(two.r, range(1, 30))
        with pytest.raises(ValueError):
            seq.check_limit((0.9, 0.1), range(1, 30))
        with pytest.raises(ValueError):
            seq(0)
        with pytest.raises(ValueError):
            MultiIndexSequence.proportional(two.r, start=1, step=1)

    def test_explicit_sequence(self):
        seq = MultiIndexSequence.explicit(((1, 1), (2, 1)))
        assert seq(2).counts == (2, 1)
        with pytest.raises(ValueError):
            seq(3)

    def test_sequence_length(self, two):
        seq = MultiIndexSequence.explicit(((1, 1), (2, 1), (2, 2)))
        assert seq.length == 3
        assert seq(3).counts == (2, 2)
        with pytest.raises(ValueError, match=r"^sequence defined for d <= 3$"):
            seq(seq.length + 1)
        unbounded = MultiIndexSequence.proportional(two.r, start=2, step=2)
        assert unbounded.length is None
        assert unbounded(1000).total == 2000


class TestConfigurations:
    def test_blocks_are_validated(self, two):
        X = Configuration(two, (np.array([-1.8, -1.2]), np.array([1.5])))
        assert X.index.counts == (2, 1)
        assert X.total == 3
        assert np.allclose(X.flatten(), [-1.8, -1.2, 1.5])
        with pytest.raises(ValueError):
            Configuration(two, (np.array([-1.2, -1.8]), np.array([1.5])))
        with pytest.raises(CoordinateOutsideSystem):
            Configuration(two, (np.array([-1.8, 0.0]), np.array([1.5])))

    def test_sort_into_blocks(self, two):
        X = sort_into_blocks([1.5, -1.2, -1.8, 1.9], two, MultiIndex((2, 2)))
        assert np.allclose(X.blocks[0], [-1.8, -1.2])
        assert np.allclose(X.blocks[1], [1.5, 1.9])
        with pytest.raises(CoordinateOutsideSystem):
            sort_into_blocks([0.5, 1.5], two, MultiIndex((1, 1)))
        with pytest.raises(CoordinateOutsideSystem):
            sort_into_blocks([-1.5, -1.2], two, MultiIndex((1, 1)))
        with pytest.raises(CoordinateOutsideSystem):
            sort_into_blocks([-1.5], two, MultiIndex((1, 1)))

    def test_counting_measure_masses(self, two):
        X = sort_into_blocks([-1.9, -1.1, 1.4, 1.5, 1.6], two, MultiIndex((2, 3)))
        nu = counting_measure(X, cells=100)
        assert nu.masses == pytest.approx((0.5, 0.5))

    def test_quantiles_of_uniform_are_exact(self, unit):
        mu = VectorMeasure.uniform(unit)
        X = quantile_configuration(mu, MultiIndex((4,)))
        assert np.allclose(X.blocks[0], [0.125, 0.375, 0.625, 0.875], atol=1e-9)

    def test_quantiles_need_mass(self, two):
        full = GridMeasure.uniform(two, 0, mass=1.0)
        empty = GridMeasure(
            two, 1, two.grid_nodes(1), two.cell_width(1), np.zeros(400), 0.0
        )
        mu = VectorMeasure((full, empty))
        with pytest.raises(DegenerateComponent):
            quantile_configuration(mu, MultiIndex((1, 1)))

    def test_quantile_counting_converges(self, arcsine):
        prev = np.inf
        for n, cap in ((10, 0.08), (40, 0.02), (160, 0.006)):
            X = quantile_configuration(arcsine, MultiIndex((n,)))
            d = weak_star_distance(counting_measure(X), arcsine)
            assert d < cap
            assert d < prev
            prev = d


class TestWeakStarDistance:
    def test_basic_properties(self, two):
        mu = VectorMeasure.uniform(two)
        X = sort_into_blocks([-1.5, 1.5], two, MultiIndex((1, 1)))
        nu = counting_measure(X)
        assert weak_star_distance(mu, mu) == 0.0
        d = weak_star_distance(mu, nu)
        assert d > 0
        assert d == pytest.approx(weak_star_distance(nu, mu))

    def test_grid_mismatch(self, two, sym):
        mu = VectorMeasure.uniform(two)
        with pytest.raises(GridMismatch):
            weak_star_distance(mu, VectorMeasure.uniform(two, cells=200))
        with pytest.raises(GridMismatch):
            weak_star_distance(mu, VectorMeasure.uniform(sym))


def test_error_hierarchy():
    from angelesco import errors

    names = (
        "CoordinateOutsideSystem",
        "GridMismatch",
        "DegenerateComponent",
        "CoincidentNodesAcrossIntervals",
        "InfeasibleMasses",
        "MaxIterationsExceeded",
        "DegenerateConditional",
        "DimensionTooLarge",
        "IllConditionedSystem",
        "IllConditionedGram",
    )
    for name in names:
        assert issubclass(getattr(errors, name), AngelescoError)
    assert issubclass(AngelescoError, Exception)


def test_write_csv_text(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        ("a", "b", "c", "d"),
        ([3, -2**70, np.int64(5)], [0.1, -np.inf, 5e-324],
         np.array([np.float64(0.1), np.nan, -0.0]), ["x", "y", "z"]),
    )
    assert path == str(tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_text() == (
        "a,b,c,d\n3,0.10000000000000001,0.10000000000000001,x\n"
        "-1180591620717411303424,-inf,nan,y\n5,4.9406564584124654e-324,-0,z\n"
    )


def test_write_csv_matches_per_value_formatting(tmp_path):
    # One type per column, over more rows than one % formats.
    rng = np.random.default_rng(3)
    pools = [
        [0.1, -1e300, float("nan"), np.float64(1 / 3), np.float64(-0.0), 5e-324,
         1e-320, -np.inf, 2.5],
        [7, -2**70, 1, 3],
        [np.int64(5), np.int64(-1)],
        [True, False],
        ["abc", "x"],
        [np.float32(0.1), np.float32(0.5)],
    ]
    size = CSV_ROWS + 3
    columns = [[pool[k] for k in rng.integers(len(pool), size=size)] for pool in pools]
    columns += [rng.standard_normal(size), rng.integers(-9, 9, size=size)]
    write_csv(tmp_path / "t.csv", tuple("abcdefgh"), columns)
    per_value = "".join(
        ",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in zip(*columns)
    )
    assert (tmp_path / "t.csv").read_text() == "a,b,c,d,e,f,g,h\n" + per_value


def test_write_json_text(tmp_path):
    write_json(tmp_path / "t.json", {"b": 1, "a": [0.5]})
    assert (tmp_path / "t.json").read_text() == (
        '{\n  "a": [\n    0.5\n  ],\n  "b": 1\n}\n'
    )


@pytest.mark.parametrize("module", ["acceptance", "core", "energy", "ensemble",
                                    "equilibrium", "fekete", "ldp", "mop"])
def test_public_dataclass_annotations_resolve(module):
    # Every annotation names something the defining module imports.
    mod = importlib.import_module("angelesco." + module)
    classes = [obj for name, obj in vars(mod).items()
               if not name.startswith("_") and isinstance(obj, type)
               and dataclasses.is_dataclass(obj) and obj.__module__ == mod.__name__]
    assert classes
    for cls in classes:
        assert typing.get_type_hints(cls).keys() == {f.name for f in dataclasses.fields(cls)}
