"""Real dilogarithm machinery.

Three functions are exposed:

    dilog(z)       Li2(z) = -int_0^z log(1-x)/x dx, real for z <= 1
    re_dilog(z)    lam(z) = -int_0^z log|1-x|/x dx, real for every finite z;
                   equals Li2(z) for z <= 1 and Re Li2(z) for z > 1
    skew_dilog(z)  Lam(z) = lam(z) - lam(1/z), skew under z -> 1/z

re_dilog is the building block of the octahedron Lagrangian; skew_dilog is
what actually enters it.  Branches:

    lam(z) = Li2(z)                                   z <= 1
    lam(z) = -Li2(1/z) - log(z)**2 / 2 + pi**2 / 3    z >  1

skew_dilog maps |z| > 1 to 1/z through Lam(z) = -Lam(1/z) and then needs a
single Li2, by the inversion identities folded into

    Lam(z) = 2 Li2(z) + log(z)**2 / 2 - pi**2 / 3     0 < z < 1
    Lam(z) = 2 Li2(z) + log(-z)**2 / 2 + pi**2 / 6    -1 < z < 0
    Lam(+-1) = 0.

Li2 itself is evaluated by the Bernoulli series in u = -log(1-z) on
[-1, 0.5], by the Euler reflection on (0.5, 1], and by the real inversion
identity below -1.  With c_k = B_k / (k+1)! (c_1 = -1/4, odd c_k = 0 from
k = 3 on) and v = u**2 the series reads

    Li2(z) = u - u**2/4 + u v (c_2 + c_4 v + ... + c_20 v**9),

summed by a fixed Horner scheme; on |u| <= log 2 each dropped term is below
1e-20.  Absolute accuracy is about 1e-15, well inside the 1e-12 budget that
composite checks rely on.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import SingularFieldError

__all__ = [
    "GOLDEN_A",
    "PI2_6",
    "dilog",
    "re_dilog",
    "skew_dilog",
    "special_value_table",
]

PI2_6 = math.pi**2 / 6.0
_PI2_3 = math.pi**2 / 3.0

# Root of a**2 - a - 1 = 0 used by the exact constant solutions.
GOLDEN_A = 0.5 - math.sqrt(5.0) / 2.0


def _series_coefficients(count: int = 21) -> tuple[float, ...]:
    # c_k = B_k / (k+1)! with B_1 = -1/2, so Li2(z) = sum c_k * u**(k+1).
    bern = [Fraction(1)]
    for k in range(1, count):
        acc = sum(Fraction(math.comb(k + 1, j)) * bern[j] for j in range(k))
        bern.append(-acc / (k + 1))
    return tuple(float(bern[k] / math.factorial(k + 1)) for k in range(count))


# c_20, c_18, ..., c_2: the Horner order of the coefficients past u - u**2/4.
_HORNER = _series_coefficients()[20:0:-2]


def _li2_series(z: float) -> float:
    # Valid for z in [-1, 0.5]; u stays within [-log 2, log 2].
    u = -math.log1p(-z)
    v = u * u
    p = 0.0
    for c in _HORNER:
        p = p * v + c
    return u - 0.25 * v + u * v * p


def _check_finite(z: float) -> float:
    z = float(z)
    if not math.isfinite(z):
        raise SingularFieldError(f"non-finite dilogarithm argument {z!r}")
    return z


def dilog(z: float) -> float:
    """Real dilogarithm Li2(z) for z <= 1."""
    z = _check_finite(z)
    if z > 1.0:
        raise SingularFieldError(f"dilog({z}) is complex valued; use re_dilog")
    if z == 0.0:
        return 0.0
    if z == 1.0:
        return PI2_6
    if z < -1.0:
        return -dilog(1.0 / z) - PI2_6 - 0.5 * math.log(-z) ** 2
    if z <= 0.5:
        return _li2_series(z)
    return PI2_6 - math.log(z) * math.log1p(-z) - _li2_series(1.0 - z)


def re_dilog(z: float) -> float:
    """lam(z) = -int_0^z log|1-x|/x dx, finite for every finite real z."""
    z = _check_finite(z)
    if z <= 1.0:
        return dilog(z)
    return -dilog(1.0 / z) - 0.5 * math.log(z) ** 2 + _PI2_3


def skew_dilog(z: float) -> float:
    """Lam(z) = lam(z) - lam(1/z); satisfies Lam(z) = -Lam(1/z)."""
    z = _check_finite(z)
    if z == 0.0:
        raise SingularFieldError("skew_dilog(0) is undefined (pole of 1/z)")
    sign = 1.0
    if abs(z) > 1.0:
        z, sign = 1.0 / z, -1.0
    if abs(z) == 1.0:
        return 0.0
    if z > 0.0:
        return sign * (2.0 * re_dilog(z) + 0.5 * math.log(z) ** 2 - _PI2_3)
    return sign * (2.0 * re_dilog(z) + 0.5 * math.log(-z) ** 2 + PI2_6)


def special_value_table() -> list[tuple[str, float, float]]:
    """(label, computed, exact) rows for the golden-ratio dilogarithm values."""
    a = GOLDEN_A
    log2 = math.log(-a) ** 2
    pi2 = math.pi**2
    return [
        ("Li2(a^2)", dilog(a * a), pi2 / 15.0 - log2),
        ("Li2(-a)", dilog(-a), pi2 / 10.0 - log2),
        ("Li2(a)", dilog(a), -pi2 / 15.0 + 0.5 * log2),
        ("Li2(1/a)", dilog(1.0 / a), -pi2 / 10.0 - log2),
    ]
