"""Dilogarithm tests against independent quadrature and mpmath oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from plurikp.dilog import GOLDEN_A, dilog, re_dilog, skew_dilog, special_value_table
from plurikp.errors import SingularFieldError


def lam_quadrature(z: float) -> float:
    """Adaptive quadrature of -int_0^z log|1-x|/x dx (the defining integral).

    Independent of the series evaluation used by the library; the interior
    logarithmic singularity at x=1 is integrable and flagged to QUADPACK.
    Requesting much below 1e-12 makes QUADPACK report spurious roundoff
    failures on some subintervals, so stop there (well under the 1e-9
    agreement this oracle is used for).
    """
    def integrand(x: float) -> float:
        return -math.log(abs(1.0 - x)) / x if x != 0.0 else 1.0

    points = [1.0] if z > 1.0 else None
    value, _ = quad(integrand, 0.0, z, points=points, limit=400,
                    epsabs=1e-12, epsrel=1e-12)
    return value


# Frozen oracle outputs (lam_quadrature above, error estimates below 5e-14).
QUAD_AT_ONE = 1.6449340668482249
QUAD_AT_TWO = 2.467401100272336
QUAD_AT_MINUS_THREE = -1.9393754207667093
QUAD_AT_HALF = 0.5822405264650125


def test_dilog_zero_is_zero():
    assert dilog(0.0) == 0.0


def test_dilog_at_one_matches_quadrature_oracle():
    assert dilog(1.0) == pytest.approx(QUAD_AT_ONE, abs=1e-10)
    assert dilog(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-12)


def test_dilog_at_half_matches_quadrature_oracle():
    assert dilog(0.5) == pytest.approx(QUAD_AT_HALF, abs=1e-12)


def test_dilog_below_minus_one_matches_quadrature_oracle():
    assert dilog(-3.0) == pytest.approx(QUAD_AT_MINUS_THREE, abs=1e-12)


def test_golden_special_values():
    for label, computed, exact in special_value_table():
        assert computed == pytest.approx(exact, abs=1e-11), label


def test_special_value_formulas_spelled_out():
    a = GOLDEN_A
    log2 = math.log(-a) ** 2
    assert dilog(a * a) == pytest.approx(math.pi**2 / 15.0 - log2, abs=1e-11)
    assert dilog(a) == pytest.approx(-math.pi**2 / 15.0 + 0.5 * log2, abs=1e-11)


def test_re_dilog_above_one_matches_quadrature_oracle():
    assert re_dilog(2.0) == pytest.approx(QUAD_AT_TWO, abs=1e-10)


def test_re_dilog_continuous_at_one():
    assert re_dilog(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-12)
    assert re_dilog(1.0 + 1e-12) == pytest.approx(re_dilog(1.0 - 1e-12), abs=1e-9)


@pytest.mark.parametrize("z", np.linspace(-10.0, 10.0, 41).tolist())
def test_re_dilog_matches_quadrature_on_grid(z):
    if z == 0.0:
        pytest.skip("empty integral")
    assert re_dilog(z) == pytest.approx(lam_quadrature(z), abs=1e-9)


@pytest.mark.parametrize("z", [-7.3, -1.0, -0.2, 0.37, 0.9, 1.0])
def test_dilog_matches_mpmath(z):
    expected = float(mpmath.re(mpmath.polylog(2, mpmath.mpf(z))))
    assert dilog(z) == pytest.approx(expected, abs=1e-13)


@given(st.floats(min_value=-50.0, max_value=50.0).filter(lambda z: abs(z) > 1e-6))
@settings(max_examples=300, deadline=None)
def test_skew_dilog_antisymmetry(z):
    assert abs(skew_dilog(z) + skew_dilog(1.0 / z)) <= 1e-12


def test_skew_dilog_antisymmetry_bulk(rng):
    worst = 0.0
    for _ in range(10_000):
        z = float(rng.uniform(-50.0, 50.0))
        if abs(z) < 1e-9:
            continue
        worst = max(worst, abs(skew_dilog(z) + skew_dilog(1.0 / z)))
    assert worst <= 1e-12


def test_skew_dilog_fixed_points():
    assert skew_dilog(1.0) == 0.0
    assert skew_dilog(-1.0) == 0.0


def skew_reference(z: float) -> float:
    """re Li2(z) - re Li2(1/z) by mpmath at 30 digits, independent of the
    single-series evaluation the library uses."""
    with mpmath.workdps(30):
        w = mpmath.mpf(z)
        value = mpmath.re(mpmath.polylog(2, w)) - mpmath.re(mpmath.polylog(2, 1 / w))
        return float(value)


def _log_uniform(sign: float, lo: float, hi: float, count: int, seed: int) -> list:
    exponents = np.random.default_rng(seed).uniform(lo, hi, count)
    return [sign * 10.0 ** float(e) for e in exponents]


@pytest.mark.parametrize(
    "branch,points",
    [
        ("(0,1)", _log_uniform(1.0, -300.0, 0.0, 150, 1)),
        ("(-1,0)", _log_uniform(-1.0, -300.0, 0.0, 150, 2)),
        ("z>1", _log_uniform(1.0, 0.0, 300.0, 150, 3)),
        ("z<-1", _log_uniform(-1.0, 0.0, 300.0, 150, 4)),
        ("|z|<3", np.random.default_rng(5).uniform(-3.0, 3.0, 200).tolist()),
    ],
)
def test_skew_dilog_matches_mpmath_on_every_branch(branch, points):
    for z in points:
        ref = skew_reference(z)
        assert abs(skew_dilog(z) - ref) <= 2e-15 * max(1.0, abs(ref)), (branch, z)


@pytest.mark.parametrize(
    "z",
    [1e-300, -1e-300, 1e300, -1e300, 1.0 + 1e-15, 1.0 - 1e-15, -1.0 + 1e-15,
     -1.0 - 1e-15],
)
def test_skew_dilog_matches_mpmath_at_edges(z):
    ref = skew_reference(z)
    assert abs(skew_dilog(z) - ref) <= 2e-15 * max(1.0, abs(ref))


def test_golden_skew_sum():
    a = GOLDEN_A
    total = skew_dilog(a * a) + skew_dilog(-1.0 / a) + skew_dilog(1.0 / a)
    assert total == pytest.approx(-math.pi**2 / 10.0, abs=1e-11)


def test_dilog_rejects_arguments_above_one():
    with pytest.raises(SingularFieldError):
        dilog(1.5)


def test_non_finite_arguments_rejected():
    with pytest.raises(SingularFieldError):
        dilog(float("nan"))
    with pytest.raises(SingularFieldError):
        re_dilog(float("inf"))


def test_skew_dilog_rejects_zero():
    with pytest.raises(SingularFieldError):
        skew_dilog(0.0)
