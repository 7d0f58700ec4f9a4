"""Closed forms the benchmark checks the program's outputs against.

Only NumPy, SciPy and the standard library are used here, never the
``angelesco`` package, so a defect in the program cannot leak into its own
reference values.  The conventions follow what the program builds (they
are what its acceptance tests pin down):

* the energy of a vector measure is  sum_i I(mu_i, mu_i) + sum_{i<j}
  I(mu_i, mu_j) + 2 sum_i int Q_i dmu_i,  with I(a, b) = -int int log|x-y|;
* the field ``quadratic(c,s)`` is Q(x) = s (x - c)^2;
* the base measure ``power(k)`` has density x**k;
* the log weight of a configuration counts every ordered pair inside a
  block and every unordered pair across blocks;
* partition integrals run over the full product of blocks.
"""

import math
from fractions import Fraction

import numpy as np
from scipy import special


def arcsine_energy(a, b):
    """Minimal energy of a unit mass on [a, b] with no field: -log cap."""
    return math.log(4.0 / (b - a))


def semicircle_energy(scale):
    """Minimal weighted energy for Q(x) = scale (x - c)^2 on a wide interval.

    At scale 1/2 the minimizer is the semicircle on [-sqrt 2, sqrt 2] with
    energy 3/4 + (1/2) log 2; rescaling x - c by sqrt(1/(2 scale)) shifts
    the logarithmic energy by -log of that factor.
    """
    return 0.75 + math.log(2.0) + 0.5 * math.log(scale)


def fekete_interval(a, b, n):
    """Fekete points of n >= 2 points on [a, b] with no field.

    They are the endpoints plus the zeros of P'_{n-1}, i.e. the zeros of
    the Jacobi polynomial P^{(1,1)}_{n-2} (Stieltjes; Fejer).
    """
    inner = special.roots_jacobi(n - 2, 1.0, 1.0)[0] if n > 2 else np.empty(0)
    t = np.concatenate(([-1.0], np.sort(inner), [1.0]))
    return 0.5 * (a + b) + 0.5 * (b - a) * t


def log_weight_one_block(x):
    """Sum over ordered pairs r != s of log|x_r - x_s| for one block."""
    x = np.asarray(x, dtype=float)
    iu = np.triu_indices(x.size, k=1)
    return 2.0 * float(np.sum(np.log(np.abs(x[:, None] - x[None, :])[iu])))


def log_selberg(n, alpha, beta, gamma):
    """log of the Selberg integral over [0, 1]^n.

    S_n = int prod_k t_k^(alpha-1) (1-t_k)^(beta-1) |Delta(t)|^(2 gamma) dt
        = prod_{j<n} G(alpha + j g) G(beta + j g) G(1 + (j+1) g)
                     / (G(alpha + beta + (n+j-1) g) G(1 + g)).
    """
    j = np.arange(n)
    g = special.gammaln
    return float(
        np.sum(
            g(alpha + j * gamma)
            + g(beta + j * gamma)
            + g(1.0 + (j + 1) * gamma)
            - g(alpha + beta + (n + j - 1) * gamma)
            - g(1.0 + gamma)
        )
    )


def log_z_one_interval(a, b, n, k=0):
    """log partition integral of n points on one interval, no field.

    Base density 1 on [a, b] (k = 0), or x**k on [0, b] (k > 0): the
    substitution x = a + (b - a) t maps it onto the Selberg integral.
    """
    if k and a != 0.0:
        raise ValueError("power base measures have a closed form only on [0, b]")
    length = b - a
    return (n * n + n * k) * math.log(length) + log_selberg(n, k + 1.0, 1.0, 1.0)


def log_z_pair(first, second):
    """log partition integral of one point on each of two intervals.

    int int |y - x| dx dy = |I1| |I2| (c2 - c1) for I1 left of I2, where c
    is an interval midpoint.
    """
    (a1, b1), (a2, b2) = first, second
    c1, c2 = 0.5 * (a1 + b1), 0.5 * (a2 + b2)
    return math.log((b1 - a1) * (b2 - a2) * (c2 - c1))


def _power_moment(a, b, m):
    """int_a^b x^m dx, exactly."""
    return (b ** (m + 1) - a ** (m + 1)) / (m + 1)


def mop_coefficients(intervals, counts, powers=None):
    """Monic type II multiple orthogonal polynomial, in exact arithmetic.

    Solves int P(x) x^j x^(k_i) dx = 0 over interval i for j < counts[i]
    with rational moments of the float endpoints, then rounds once.
    Returns the lower coefficients, constant term first.
    """
    powers = powers or [0] * len(intervals)
    n = sum(counts)
    rows = []
    for (a, b), n_i, k in zip(intervals, counts, powers):
        a, b = Fraction(a), Fraction(b)
        for j in range(n_i):
            rows.append(
                [_power_moment(a, b, j + k + m) for m in range(n + 1)]
            )
    # Gaussian elimination on [M | -m_n]; exact, so any nonzero pivot works.
    aug = [row[:n] + [-row[n]] for row in rows]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col] / aug[col][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [float(aug[i][n] / aug[i][i]) for i in range(n)]


def legendre_monic(a, b, n):
    """Monic Legendre polynomial of degree n shifted to [a, b], constant first."""
    t = np.polynomial.Polynomial(special.legendre(n).coeffs[::-1])
    x = t(np.polynomial.Polynomial([-(a + b) / (b - a), 2.0 / (b - a)]))
    coef = x.coef / x.coef[-1]
    return [float(v) for v in coef[:-1]]


def jacobi_monic(b, n, k):
    """Monic orthogonal polynomial of degree n for x**k on [0, b].

    It is the Jacobi polynomial P^{(0,k)}_n of t = 2x/b - 1, made monic.
    """
    poly = special.jacobi(n, 0.0, float(k))
    t = np.polynomial.Polynomial(poly.coeffs[::-1])
    x = t(np.polynomial.Polynomial([-1.0, 2.0 / b]))
    coef = x.coef / x.coef[-1]
    return [float(v) for v in coef[:-1]]


def legendre_monic_value(a, b, n, z):
    """Monic Legendre P_n on [a, b] at z, by the three-term recurrence.

    Stable for the large n a Gibbs run uses, where the monomial
    coefficients would cancel catastrophically.
    """
    t = (2.0 * z - a - b) / (b - a)
    prev, cur = 1.0, t
    if n == 0:
        return 1.0
    for k in range(1, n):
        prev, cur = cur, t * cur - (k * k / (4.0 * k * k - 1.0)) * prev
    return (0.5 * (b - a)) ** n * cur


def poly_value(lower, z):
    """Value of x^n + sum lower[k] x^k at z."""
    return float(np.polynomial.polynomial.polyval(z, list(lower) + [1.0]))
