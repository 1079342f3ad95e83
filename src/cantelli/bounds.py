"""The package's one floating-point error model (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., 2002, Ch. 2-4).

Every certified scalar is a float moved outward by an allowance derived here,
from these assumptions.  Arithmetic rounds to nearest: an operation whose
exact result x is normal returns x (1 + d) with |d| <= u = 2**-53
(``ROUNDOFF``), and the C library's ``pow``, ``log`` and ``expm1`` are within
one ulp, two units.  A result below the normal range keeps only an absolute
precision, half the least subnormal float, which ``FLOOR`` covers.
"""

import math

ROUNDOFF = 2.0**-53
FLOOR = 8.0 * math.ulp(0.0)


def gamma(k: float) -> float:
    """k u / (1 - k u), inf where k u >= 1: every product of k factors
    (1 + d)^(+-1), |d| <= u, lies within it of 1 for an integer k (Higham,
    Lemma 3.1).  The power families pass a real count of at least 3, which
    their test checks.  A non-integer k below 3 raises ``ValueError``: for k
    between 2 and 3 the bound can fall short of (1 - u)^-k - 1."""
    if k < 3 and not float(k).is_integer():
        raise ValueError(f"gamma of a non-integer count {k!r} below 3")
    ku = k * ROUNDOFF
    return ku / (1.0 - ku) if ku < 1.0 else math.inf


def below(x: float, c: float) -> float:
    """x (1 - c u), and ``above`` x (1 + c u): for 3 <= c <= 2**26 they hold
    every value that c - 3 roundings took to x >= 2**-1021, and to within
    FLOOR below that.  Their own two roundings take at most 3 of the c units,
    2 where the factor is a float (an integer c; an even one for ``above``)."""
    return x * (1.0 - c * ROUNDOFF)


def above(x: float, c: float) -> float:
    return x * (1.0 + c * ROUNDOFF)


def outward(lo: float, hi: float) -> tuple[float, float]:
    """lo one float down and hi one float up: each holds what one rounding took to it."""
    return math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)


def compensated_sum_error(k: int, total: float) -> float:
    """A bound on |total - s|, for the compensated sum ``total`` of k
    nonnegative floats whose exact sum is s.  Neumaier's additions are
    error-free transformations, which Ogita, Rump and Oishi (SIAM J. Sci.
    Comput. 26, 2005, Prop. 4.5) bound by u s + gamma_{k-1}^2 s; so
    |total - s| <= r s with r = 2u + gamma_k^2, and s <= total / (1 - r)."""
    g = gamma(k)
    relative = 2.0 * ROUNDOFF + g * g
    return relative * total / (1.0 - relative)
