import numpy as np
import pytest

from angelesco import (
    Configuration,
    ExternalField,
    IntervalSystem,
    MultiIndex,
    MultiIndexSequence,
    fekete,
    fekete_asymptotics,
    fekete_points,
    log_boltzmann,
)
from angelesco.energy import as_field
from angelesco.fekete import _Ascent
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


def test_weight_sums_every_pair_once(two):
    rng = np.random.default_rng(4)
    a, b = np.sort(rng.uniform(-2.0, -1.0, 7)), np.sort(rng.uniform(1.0, 2.0, 5))

    def within(x):
        gaps = np.abs(x[:, None] - x[None, :])[np.triu_indices(x.size, k=1)]
        return 2.0 * float(np.sum(np.log(gaps)))

    across = float(np.sum(np.log(np.abs(b[:, None] - a[None, :]))))
    X = Configuration(two, (a, b))
    # the second call reuses the memoized index pairs
    for _ in range(2):
        assert log_boltzmann(X) == within(a) + across + within(b)


def test_stacked_weight_matches_each_configuration():
    """A stack of configurations gets the bits of one call per configuration:
    a 40-point block (pairwise summation past 128 terms), a one-point block,
    and rows with a collision within a block and across blocks, which give
    -inf without a RuntimeWarning."""
    rng = np.random.default_rng(8)
    blocks = [np.sort(rng.uniform(a, b, (6, n)), axis=-1)
              for (a, b), n in (((-3.0, -2.0), 40), ((-0.5, 0.5), 1), ((1.0, 3.0), 13))]
    blocks[0][3, 7] = blocks[0][3, 8]
    blocks[2][4, 0] = blocks[0][4, 0]
    fields = (ExternalField.zero(3), ExternalField.quadratic(3, center=0.2, scale=0.7),
              ExternalField.from_samples([[-3.0, 0.0, 3.0]] * 3, [[1.0, 0.1, 2.0]] * 3))
    for field in fields:
        interaction, fld = fekete._log_weight(blocks, field)
        assert interaction.shape == (6,) and np.shape(fld) in ((), (6,))
        for k in range(6):
            one = fekete._log_weight([b[k] for b in blocks], field)
            assert float(interaction[k]).hex() == float(one[0]).hex()
            assert float(np.broadcast_to(fld, (6,))[k]).hex() == float(one[1]).hex()
        assert interaction[3] == interaction[4] == -np.inf
        assert np.all(np.isfinite(np.delete(interaction, [3, 4])))


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


def _unmarked(field):
    """The same components as plain callables, not known to be convex."""
    return ExternalField(tuple((lambda x, i=i: field(i, x)) for i in range(field.p)))


@pytest.mark.parametrize("system, counts", [("sym", (12,)), ("two", (6, 6))])
@pytest.mark.parametrize("scale", [None, 0.7])
def test_convex_field_stops_at_the_first_certified_start(request, system, counts, scale):
    system = request.getfixturevalue(system)
    field = (ExternalField.zero(system.p) if scale is None
             else ExternalField.quadratic(system.p, center=0.2, scale=scale))
    res = fekete_points(system, MultiIndex(counts), field, n_starts=4, seed=0)
    assert res.starts_used == 1 and res.coordinatewise_optimal
    full = fekete_points(system, MultiIndex(counts), _unmarked(field), n_starts=4, seed=0)
    assert full.starts_used == 4
    assert res.log_boltzmann == pytest.approx(full.log_boltzmann, abs=1e-9)
    np.testing.assert_allclose(
        res.configuration.flatten(), full.configuration.flatten(), rtol=0, atol=1e-5
    )


@pytest.mark.parametrize("field", [ExternalField.quadratic(2, scale=-0.25), BUMPS])
def test_field_not_known_convex_runs_every_start(two, field):
    res = fekete_points(two, MultiIndex((3, 3)), field, n_starts=4, seed=0)
    assert res.starts_used == 4


def test_no_start_is_refused(two):
    with pytest.raises(ValueError, match="n_starts"):
        fekete_points(two, MultiIndex((3, 3)), n_starts=0)


def test_scan_reaches_a_kink_of_a_sampled_field(two):
    # The Newton stencil smooths the kink at x = 1.3, where one point of the
    # (3, 3) maximizer sits: it stopped at 1.3000029 with the weight
    # -6.764461 until the sample abscissae joined the scan grid.
    res = fekete_points(two, MultiIndex((3, 3)), BUMPS, n_starts=4, seed=0)
    assert 1.3 in res.configuration.blocks[1].tolist()
    assert res.log_boltzmann == pytest.approx(-6.764405440893563, abs=1e-8)
    assert res.coordinatewise_optimal


@pytest.mark.parametrize("counts, seed", [((3, 3), 4), ((6, 6), 1)])
def test_uncertified_start_returns_a_sorted_configuration(
    two, monkeypatch, counts, seed
):
    # With one round the last action is a scan jump, which here puts a point
    # past its neighbour; the result must still come back, uncertified.
    monkeypatch.setattr(fekete, "MAX_ROUNDS", 1)
    res = fekete_points(two, MultiIndex(counts), BUMPS, n_starts=1, seed=seed)
    assert not res.coordinatewise_optimal
    assert res.log_boltzmann == pytest.approx(log_boltzmann(res.configuration, BUMPS))


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


# Two points of block 2 end 2e-4 apart just below 2.488015, and a Newton
# step translates the block outward: clipped onto one end they collide.  A
# line search that halves from t = 1 needed 399 and 633 weight evaluations
# for these two calls.
STALL = IntervalSystem(((-0.11058, 0.997892), (1.315631, 2.488015)), (0.5, 0.5))


@pytest.mark.parametrize(
    "counts, seed, reference",
    [((4, 4), 1, -8.053212786852935), ((8, 8), 6, -74.40787345605736)],
)
def test_box_end_collision_does_not_stall(counts, seed, reference):
    res = fekete_points(STALL, MultiIndex(counts), n_starts=2, seed=seed)
    assert res.coordinatewise_optimal
    assert res.log_boltzmann == pytest.approx(reference, rel=1e-9)
    assert res.evaluations <= 50
    assert res.newton_steps <= res.evaluations


def test_large_two_interval_ascent_takes_few_evaluations(two):
    # 94 weight evaluations at n = 640 while every step started at t = 1
    res = fekete_points(two, MultiIndex((320, 320)), n_starts=1, seed=0)
    assert res.coordinatewise_optimal
    assert res.evaluations <= 30


def test_first_meeting_on_the_clipped_arc(sym):
    ascent = _Ascent(sym, as_field(None, 1), MultiIndex((3,)))
    x = np.array([-0.5, 0.9, 0.95])
    # the last two reach the upper end at t = 0.1 and 0.05: they meet at 0.1
    assert ascent.first_meeting(x, np.array([0.0, 1.0, 1.0])) == pytest.approx(0.1)
    # the first two cross at t = 1.4 / 2 before either reaches an end
    assert ascent.first_meeting(x, np.array([1.0, -1.0, 0.0])) == pytest.approx(0.7)
    assert ascent.first_meeting(x, np.array([-1.0, 0.0, 1.0])) == np.inf
