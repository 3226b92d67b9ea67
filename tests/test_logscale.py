"""Log-scaled complex scalars used by the determinant identities."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tmcount import ScaledComplex, relative_difference


def test_round_trip_moderate_values():
    for w in (1.0, -2.5, 3.0 + 4.0j, 1e-10j):
        sc = ScaledComplex.from_complex(w)
        assert abs(sc.mantissa) == pytest.approx(1.0, rel=1e-15)
        assert cmath.isclose(sc.value, w, rel_tol=1e-14)


def test_zero_handling():
    z = ScaledComplex.zero()
    assert z.is_zero
    assert z.value == 0j
    assert z.log_modulus == -math.inf
    assert ScaledComplex.from_complex(0).is_zero
    assert (z * ScaledComplex.from_complex(5.0)).is_zero


def test_multiplication_adds_logs():
    a = ScaledComplex.from_complex(2.0j)
    b = ScaledComplex.from_complex(-3.0)
    c = a * b
    assert c.log_modulus == pytest.approx(math.log(6.0), rel=1e-15)
    assert cmath.isclose(c.value, -6.0j, rel_tol=1e-14)


def product(factors):
    out = ScaledComplex(1.0 + 0j, 0.0)
    for f in factors:
        out = out * ScaledComplex.from_complex(f)
    return out


def test_product_survives_extreme_scales():
    factors = [1e200, 1e200, 1e200, 1e-150]
    sc = product(factors)
    assert sc.log_modulus == pytest.approx(
        math.log(1e200) * 3 + math.log(1e-150), rel=1e-12)
    assert abs(sc.mantissa) == pytest.approx(1.0, rel=1e-15)


def test_product_of_phases_stays_normalized():
    rng = np.random.default_rng(61)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=500))
    sc = product(phases)
    assert abs(sc.mantissa) == pytest.approx(1.0, rel=1e-12)
    assert sc.log_modulus == pytest.approx(0.0, abs=1e-10)


def test_relative_difference_semantics():
    a = ScaledComplex.from_complex(1.0)
    assert relative_difference(a, a) == 0.0
    b = ScaledComplex.from_complex(-1.0)
    assert relative_difference(a, b) == pytest.approx(1.0)
    assert relative_difference(ScaledComplex.zero(), ScaledComplex.zero()) == 0.0
    assert relative_difference(a, ScaledComplex.zero()) == pytest.approx(1.0)
    # scale invariance: the comparison must not overflow at huge logs
    big_a = ScaledComplex(a.mantissa, 5000.0)
    big_b = ScaledComplex((1.0 + 1e-9) + 0j, 5000.0)
    big_b = ScaledComplex(big_b.mantissa / abs(big_b.mantissa), 5000.0 + 1e-9)
    assert relative_difference(big_a, big_b) < 1e-8


@settings(max_examples=50, deadline=None)
@given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                          allow_nan=False, allow_infinity=False),
       st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                          allow_nan=False, allow_infinity=False))
def test_multiplication_matches_plain_arithmetic(w1, w2):
    sc = ScaledComplex.from_complex(w1) * ScaledComplex.from_complex(w2)
    assert cmath.isclose(sc.value, w1 * w2, rel_tol=1e-12)
