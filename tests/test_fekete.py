import csv

import numpy as np
import pytest

from angelesco import (
    Configuration,
    ExternalField,
    MultiIndex,
    MultiIndexSequence,
    fekete_asymptotics,
    fekete_points,
    log_boltzmann,
)
from angelesco.fekete import export_csv
from angelesco.ldp import random_configuration


class TestSmallConfigurations:
    def test_pair_sits_at_endpoints(self, sym):
        res = fekete_points(sym, MultiIndex((2,)), n_starts=2, seed=0)
        assert np.allclose(res.configuration.blocks[0], [-1.0, 1.0], atol=1e-6)
        assert res.log_boltzmann == pytest.approx(2.0 * np.log(2.0), abs=1e-9)
        assert res.coordinatewise_optimal
        assert res.starts_used <= 2

    def test_one_point_per_interval(self, two):
        res = fekete_points(two, MultiIndex((1, 1)), n_starts=2, seed=0)
        assert np.allclose(res.configuration.flatten(), [-2.0, 2.0], atol=1e-6)
        assert res.log_boltzmann == pytest.approx(np.log(4.0), abs=1e-9)

    def test_triple_is_symmetric(self, sym):
        res = fekete_points(sym, MultiIndex((3,)), n_starts=2, seed=0)
        assert np.allclose(res.configuration.blocks[0], [-1.0, 0.0, 1.0], atol=1e-6)

    def test_triple_beats_exhaustive_grid(self, sym):
        res = fekete_points(sym, MultiIndex((3,)), n_starts=2, seed=0)
        t = np.linspace(-1.0, 1.0, 201)
        x1 = t[:, None, None]
        x2 = t[None, :, None]
        x3 = t[None, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = 2.0 * (
                np.log(np.abs(x2 - x1))
                + np.log(np.abs(x3 - x1))
                + np.log(np.abs(x3 - x2))
            )
        logs = np.where(np.isfinite(logs), logs, -np.inf)
        best = np.unravel_index(int(np.argmax(logs)), logs.shape)
        assert sorted(t[list(best)]) == pytest.approx([-1.0, 0.0, 1.0])
        assert res.log_boltzmann >= float(np.max(logs)) - 1e-9


def test_collisions_and_index_mismatch(sym, two):
    X = Configuration(sym, (np.array([0.3, 0.3]),))
    assert log_boltzmann(X) == -np.inf
    Y = Configuration(two, (np.array([-1.5]), np.array([1.5])))
    with pytest.raises(ValueError):
        log_boltzmann(Y, index=MultiIndex((2, 2)))


def test_forty_points_reproduce_frozen_weight(sym):
    seq = MultiIndexSequence.proportional((1.0,), start=1, step=1)
    res = fekete_points(sym, seq(40), n_starts=2, seed=0)
    # frozen reference from a certified coordinatewise-optimal run
    assert res.normalized == pytest.approx(-0.5656983052911128, abs=1e-6)
    assert res.coordinatewise_optimal


def test_forty_points_match_lobatto_nodes(sym):
    # On [-1, 1] with zero field the maximizer is the endpoints plus the
    # zeros of P'_39 (Stieltjes).
    res = fekete_points(sym, MultiIndex((40,)), n_starts=2, seed=0)
    lobatto = np.polynomial.legendre.Legendre.basis(39).deriv().roots()
    ref = np.concatenate(([-1.0], np.sort(lobatto), [1.0]))
    assert np.max(np.abs(res.configuration.blocks[0] - ref)) <= 1e-6
    ref_weight = log_boltzmann(Configuration(sym, (ref,)))
    assert res.log_boltzmann == pytest.approx(ref_weight, rel=1e-12)


def _best_single_move_gain(X, field):
    """Largest gain of moving one point, others fixed, over a dense grid of
    its interval and a fine grid around its current position."""
    n = X.total
    best = -np.inf
    for i, (a, b) in enumerate(X.system.intervals):
        others = np.concatenate([X.blocks[j] for j in range(X.system.p) if j != i])
        for k, x in enumerate(X.blocks[i]):
            own = np.delete(X.blocks[i], k)
            near = x + np.linspace(-1e-4, 1e-4, 2001)
            t = np.concatenate(([x], np.linspace(a, b, 100001), near))
            t = t[(t >= a) & (t <= b)]
            with np.errstate(divide="ignore"):
                val = (
                    2.0 * np.log(np.abs(t[:, None] - own[None, :])).sum(axis=1)
                    + np.log(np.abs(t[:, None] - others[None, :])).sum(axis=1)
                    - 2.0 * n * field(i, t)
                )
            best = max(best, float(np.max(val) - val[0]))
    return best


@pytest.mark.parametrize("counts", [(3, 2), (7, 7)])
def test_certificate_survives_a_dense_scan(two, counts):
    field = ExternalField.quadratic(2, scale=0.5)
    res = fekete_points(two, MultiIndex(counts), field, n_starts=2, seed=0)
    assert res.coordinatewise_optimal
    assert _best_single_move_gain(res.configuration, field) <= 1e-9


# Two bumps per interval: the sampled field is piecewise linear and not
# convex, so the ascent has local maxima.  The reference values are the best
# of four starts (seed 0) of an exhaustive cyclic coordinate ascent that
# searched every gap of every coordinate by golden section.
BUMPS = ExternalField.from_samples(
    [[-2.0, -1.5, -1.0], [1.0, 1.3, 1.6, 2.0]],
    [[0.0, 0.8, 0.0], [0.5, 0.0, 0.9, 0.2]],
)


@pytest.mark.parametrize(
    "counts, reference",
    [((3, 3), -6.764405440893563), ((6, 6), -69.39467031964313)],
)
def test_nonconvex_field_reaches_coordinate_ascent_value(two, counts, reference):
    res = fekete_points(two, MultiIndex(counts), BUMPS, n_starts=4, seed=0)
    assert res.log_boltzmann >= reference - 1e-3 * abs(reference)


def test_two_interval_trend(two, two_equilibrium):
    seq = MultiIndexSequence.proportional(two.r, start=2, step=2)
    rows, results = fekete_asymptotics(
        two, seq, 8, equilibrium_measure=two_equilibrium.measure, n_starts=2, seed=0
    )
    assert [r.d for r in rows] == list(range(1, 9))
    assert [r.total for r in rows] == [2 * d for d in range(1, 9)]
    assert len(results) == 8
    dists = [r.distance_to_equilibrium for r in rows]
    assert all(a > b for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 0.06
    norms = [r.normalized for r in rows]
    assert all(a > b for a, b in zip(norms, norms[1:]))
    target = -two_equilibrium.energy.total
    assert norms[-1] > target
    assert norms[-1] - target < 0.3


def test_mixed_index_beats_random_configurations(two):
    res = fekete_points(two, MultiIndex((3, 2)), n_starts=2, seed=0)
    rng = np.random.default_rng(5)
    for _ in range(200):
        X = random_configuration(two, MultiIndex((3, 2)), rng)
        assert log_boltzmann(X) <= res.log_boltzmann + 1e-12


def test_export_configuration_csv(tmp_path, two):
    res = fekete_points(two, MultiIndex((2, 1)), n_starts=2, seed=0)
    path = tmp_path / "fekete.csv"
    export_csv(res, str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["block", "index", "coordinate"]
    assert len(rows) == 4
    assert [r[0] for r in rows[1:]] == ["0", "0", "1"]
    assert [r[1] for r in rows[1:]] == ["0", "1", "0"]
