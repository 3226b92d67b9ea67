"""Transfer factors, rescaled products and exponents."""

import math

import numpy as np
import pytest

from tmcount import (
    one_step_factors,
    stable_exponents,
    total_exponent_sum,
    transfer_product,
)

from conftest import random_system, scalar_chain

# frozen oracle values: growth rate of the uniform scalar chain at
# energy E is arccosh(|E|/2) outside the band, computed independently
ARCCOSH_15 = 0.9624236501192069   # math.acosh(1.5)
ARCCOSH_25 = 1.5667992369724109   # math.acosh(2.5)


def test_one_step_factor_scalar_examples():
    sys = scalar_chain(3)
    t = one_step_factors(sys, 2.0, [0])[0]
    assert np.allclose(t, [[2.0, -1.0], [1.0, 0.0]])

    sys2 = scalar_chain(3, a=0.0, b=2.0, c=3.0)
    t2 = one_step_factors(sys2, 4.0, [1])[0]
    assert np.allclose(t2, [[2.0, -1.5], [1.0, 0.0]])


def test_one_step_factor_solves_block_system():
    rng = np.random.default_rng(3)
    sys = random_system(rng, 3, 4)
    E = 1.3 - 0.2j
    t = one_step_factors(sys, E, [2])[0]
    m = sys.m
    # defining property: B_k (top-left) = E - A_k, B_k (top-right) = -C_k
    assert np.allclose(sys.B[2] @ t[:m, :m], E * np.eye(m) - sys.A[2])
    assert np.allclose(sys.B[2] @ t[:m, m:], -sys.C[2])
    assert np.array_equal(t[m:, :m], np.eye(m))
    assert np.array_equal(t[m:, m:], np.zeros((m, m)))


def test_one_step_factor_rejects_singular_coupling():
    sys = scalar_chain(3, b=0.0)
    with pytest.raises(ValueError, match="singular"):
        one_step_factors(sys, 1.0, [0])[0]


def test_product_of_rotations():
    # at E = 0 each scalar factor is a quarter turn; three of them give
    # the off-diagonal sign-flip matrix, with no rescaling needed
    sys = scalar_chain(3)
    tm = transfer_product(sys, 0.0)
    assert tm.log_scale == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(tm.mat, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-14)


def test_product_matches_plain_multiplication():
    rng = np.random.default_rng(9)
    sys = random_system(rng, 2, 5)
    E = 0.7 + 0.1j
    tm = transfer_product(sys, E)
    plain = np.eye(4, dtype=complex)
    for k in range(sys.n):
        plain = one_step_factors(sys, E, [k])[0] @ plain
    assert np.allclose(tm.mat * math.exp(tm.log_scale), plain,
                       rtol=1e-12, atol=1e-12)


def test_rescaling_keeps_mantissa_norm_one():
    rng = np.random.default_rng(10)
    sys = random_system(rng, 2, 6)
    tm = transfer_product(sys, 50.0)
    assert np.linalg.norm(tm.mat, np.inf) == pytest.approx(1.0, rel=1e-12)
    assert tm.log_scale > 0.0


def test_scalar_exponents_frozen_value():
    sys = scalar_chain(6)
    exps = stable_exponents(sys, 3.0)
    assert exps.reliable
    assert len(exps.values) == 2
    assert exps.values[0] == pytest.approx(-ARCCOSH_15, abs=1e-12)
    assert exps.values[1] == pytest.approx(ARCCOSH_15, abs=1e-12)


def test_scalar_exponents_second_energy():
    sys = scalar_chain(5)
    exps = stable_exponents(sys, 5.0)
    assert exps.values[1] == pytest.approx(ARCCOSH_25, abs=1e-12)


def test_exponents_in_band_are_zero():
    sys = scalar_chain(7)
    exps = stable_exponents(sys, 1.0)
    assert np.allclose(exps.values, [0.0, 0.0], atol=1e-12)


def test_exponents_sorted_and_sized():
    rng = np.random.default_rng(21)
    for _ in range(8):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(3, 7))
        sys = random_system(rng, m, n)
        exps = stable_exponents(sys, 0.4 - 0.3j)
        vals = np.asarray(exps.values)
        assert vals.shape == (2 * m,)
        assert np.all(np.diff(vals) >= -1e-14)


def test_symplectic_pairing_for_hermitian_systems():
    # Hermitian couplings at real energy: exponents come in +/- pairs
    rng = np.random.default_rng(22)
    for _ in range(6):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(3, 6))
        sys = random_system(rng, m, n, hermitian=True)
        vals = np.asarray(stable_exponents(sys, 0.9).values)
        assert np.allclose(vals, -vals[::-1], atol=1e-8)


def test_exponent_sum_matches_coupling_determinants():
    rng = np.random.default_rng(23)
    for _ in range(6):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(3, 7))
        sys = random_system(rng, m, n)
        vals = np.asarray(stable_exponents(sys, 1.1 + 0.2j).values)
        assert np.sum(vals) == pytest.approx(total_exponent_sum(sys), abs=1e-9)


def test_unreliable_flag_on_extreme_spread():
    sys = scalar_chain(3)
    exps = stable_exponents(sys, 1.0e6)
    assert not exps.reliable

