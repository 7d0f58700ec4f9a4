"""Known values for the benchmark's oracles.

Run with ``python3 -m pytest perfbench/oracle_test.py`` or
``python3 perfbench/oracle_test.py``.
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402


def test_arcsine_energy_of_a_length_two_interval_is_log_two():
    assert oracles.arcsine_energy(-1.0, 1.0) == math.log(2.0)
    assert oracles.arcsine_energy(3.0, 5.0) == math.log(2.0)


def test_semicircle_energy_at_scale_one_half():
    assert math.isclose(
        oracles.semicircle_energy(0.5), 0.75 + 0.5 * math.log(2.0), rel_tol=1e-15
    )


def test_symmetric_pair_partition_integral_is_three():
    z = math.exp(oracles.log_z_pair((-2.0, -1.0), (1.0, 2.0)))
    assert math.isclose(z, 3.0, rel_tol=1e-15)


def test_selberg_two_points_on_unit_interval_is_one_sixth():
    assert math.isclose(math.exp(oracles.log_selberg(2, 1, 1, 1)), 1.0 / 6.0, rel_tol=1e-14)
    assert math.isclose(
        math.exp(oracles.log_z_one_interval(0.0, 1.0, 2)), 1.0 / 6.0, rel_tol=1e-14
    )


def test_selberg_matches_a_direct_quadrature():
    # n = 2, x**1 on [0, 2]: int int x y (x - y)^2 dx dy over [0, 2]^2.
    t, w = np.polynomial.legendre.leggauss(20)
    x, wx = 1.0 + t, w
    xx, yy = np.meshgrid(x, x)
    direct = float(np.sum(np.outer(wx, wx) * xx * yy * (xx - yy) ** 2))
    assert math.isclose(
        math.exp(oracles.log_z_one_interval(0.0, 2.0, 2, k=1)), direct, rel_tol=1e-12
    )


def test_symmetric_pair_mop_is_x_squared_minus_seven_thirds():
    c = oracles.mop_coefficients([(-2.0, -1.0), (1.0, 2.0)], [1, 1])
    assert c == [-7.0 / 3.0, 0.0]


def test_exact_mop_agrees_with_legendre_and_jacobi():
    for n in range(1, 7):
        exact = oracles.mop_coefficients([(0.25, 1.5)], [n])
        closed = oracles.legendre_monic(0.25, 1.5, n)
        np.testing.assert_allclose(exact, closed, rtol=1e-9, atol=1e-12)
        z = 2.0
        assert math.isclose(
            oracles.poly_value(exact, z),
            oracles.legendre_monic_value(0.25, 1.5, n, z),
            rel_tol=1e-12,
        )
        exact_k = oracles.mop_coefficients([(0.0, 2.0)], [n], powers=[2])
        np.testing.assert_allclose(
            exact_k, oracles.jacobi_monic(2.0, n, 2), rtol=1e-9, atol=1e-12
        )


def test_fekete_points_reproduce_the_frozen_forty_point_weight():
    x = oracles.fekete_interval(-1.0, 1.0, 40)
    normalized = oracles.log_weight_one_block(x) / 40 ** 2
    assert abs(normalized - (-0.5656983052911128)) < 1e-12


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
