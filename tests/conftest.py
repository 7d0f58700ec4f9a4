import decimal

import numpy as np
import pytest

from angelesco import GridMeasure, IntervalSystem, VectorMeasure, solve_equilibrium


def arcsine_cdf(x):
    return 0.5 + np.arcsin(np.clip(x, -1.0, 1.0)) / np.pi


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

    ``solve(spec, counts, n_field)`` returns (log det A, c) for A c = b with
    A[(j, k), l] = sum_t t^(k + l) w_j(t), b[(j, k)] = -sum_t t^(k + n) w_j(t),
    w_j = tau_j exp(-2 n_field Q_j) on the refined grids: the system that
    double precision cannot solve beyond a few points.
    """

    def solve(spec, counts, n_field=0, digits=200):
        n = sum(counts)
        with decimal.localcontext() as ctx:
            ctx.prec = digits
            rows = []
            for j, n_j in enumerate(counts):
                t, h, w = spec.base[j].refined(8)
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
            coef = [float(rows[r][n] / rows[r][r]) for r in range(n)]
            return float(det.ln()), np.array(coef)

    return solve
