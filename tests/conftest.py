import decimal

import numpy as np
import pytest

from angelesco import (
    EnergyReport,
    GridMeasure,
    IntervalSystem,
    VectorMeasure,
    mutual_energy,
    solve_equilibrium,
)
from angelesco.energy import _field_integrals, as_field


def arcsine_cdf(x):
    return 0.5 + np.arcsin(np.clip(x, -1.0, 1.0)) / np.pi


def dense_energy(mu, field=None):
    """The energy report of ``mu`` from dense ``mutual_energy`` sums on any
    grids: the oracle for the kernel operator's terms."""
    p = mu.system.p
    return EnergyReport.build(
        [mutual_energy(g, g) for g in mu],
        [mutual_energy(mu[i], mu[j]) for i in range(p) for j in range(i + 1, p)],
        _field_integrals(mu, as_field(field, p)),
    )


@pytest.fixture(scope="session")
def two():
    return IntervalSystem(((-2.0, -1.0), (1.0, 2.0)), (0.5, 0.5))


@pytest.fixture(scope="session")
def unit():
    return IntervalSystem(((0.0, 1.0),), (1.0,))


@pytest.fixture(scope="session")
def sym():
    return IntervalSystem(((-1.0, 1.0),), (1.0,))


@pytest.fixture(scope="session")
def arcsine(sym):
    return VectorMeasure((GridMeasure.from_cdf(sym, 0, arcsine_cdf),))


@pytest.fixture(scope="session")
def two_equilibrium(two):
    return solve_equilibrium(two, cells=400)


@pytest.fixture(scope="session")
def moment_system():
    """The monomial moment system of an ensemble in high-precision decimals.

    ``solve(spec, counts, n_field, digits, zs)`` returns (log det A, c, P(zs))
    for A c = b with A[(j, k), l] = sum_t t^(k + l) w_j(t), b[(j, k)] =
    -sum_t t^(k + n) w_j(t), w_j = tau_j exp(-2 n_field Q_j) on the refined
    grids: the system that double precision cannot solve beyond a few points.
    P(z) = z^n + sum_k c_k z^k is evaluated in decimals, from c unrounded.
    """

    def solve(spec, counts, n_field=0, digits=200, zs=()):
        n = sum(counts)
        with decimal.localcontext() as ctx:
            ctx.prec = digits
            rows = []
            for j, n_j in enumerate(counts):
                t, h, w = spec.base[j].refined()
                w = w * h * np.exp(-2.0 * n_field * spec.field(j, t))
                ts = [decimal.Decimal(float(x)) for x in t]
                powers = [decimal.Decimal(float(x)) for x in w]
                moments = []
                for _ in range(2 * n + 1):
                    moments.append(sum(powers))
                    powers = [a * b for a, b in zip(powers, ts)]
                rows += [moments[k : k + n] + [-moments[k + n]] for k in range(n_j)]
            det = decimal.Decimal(1)
            for col in range(n):  # Gauss-Jordan with partial pivoting
                piv = max(range(col, n), key=lambda r: abs(rows[r][col]))
                if piv != col:
                    rows[col], rows[piv] = rows[piv], rows[col]
                    det = -det
                det *= rows[col][col]
                for r in range(n):
                    if r != col:
                        f = rows[r][col] / rows[col][col]
                        rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
            assert det > 0
            coef = [rows[r][n] / rows[r][r] for r in range(n)] + [decimal.Decimal(1)]
            p_z = []
            for z in zs:
                value = decimal.Decimal(0)
                for c in reversed(coef):
                    value = value * decimal.Decimal(float(z)) + c
                p_z.append(float(value))
            return float(det.ln()), np.array([float(c) for c in coef[:-1]]), p_z

    return solve
