"""Contour counting function, exponent location, sum rules."""

import cmath
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from tmcount import counting
from tmcount import (
    QuadratureSpec,
    RingBandWorkspace,
    ScaleOverflowError,
    AndersonConfig,
    clean_limit_exponents,
    counting_function,
    counting_integrand,
    counting_integrand_corner,
    counting_sweep,
    direct_count,
    generate,
    imaginary_part_check,
    jensen_relation,
    locate_exponents,
    positive_exponent_sum,
    stable_exponents,
    total_exponent_sum,
    transfer_product,
)

from conftest import random_system, scalar_chain

ARCCOSH_15 = 0.9624236501192069
ARCCOSH_25 = 1.5667992369724109
# frozen oracle: positive-exponent average of the clean 2x1 bar at
# energy 4, transverse modes {1, -1}: (acosh(3/2) + acosh(5/2)) / 2
POS_SUM_21_E4 = 1.2646114435458089


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(n_phi=2)


def test_integrand_periodicity():
    rng = np.random.default_rng(50)
    sys = random_system(rng, 2, 5)
    E = 0.3 - 0.1j
    for phi in (0.17, 1.9, 4.4):
        a = counting_integrand(sys, E, 0.25, phi)
        b = counting_integrand(sys, E, 0.25, phi + 2 * math.pi / sys.n)
        assert abs(a - b) < 1e-10


def test_scalar_counts_and_plateau_values():
    sys = scalar_chain(6)
    lo = counting_function(sys, 3.0, -2.0)
    mid = counting_function(sys, 3.0, 0.0)
    hi = counting_function(sys, 3.0, 2.0)
    assert (lo.count, mid.count, hi.count) == (0, 1, 2)
    # plateau raw values are exact half-integers for one pole per side
    assert lo.raw.real == pytest.approx(0.0, abs=1e-12)
    assert mid.raw.real == pytest.approx(0.5, abs=1e-12)
    assert hi.raw.real == pytest.approx(1.0, abs=1e-12)
    assert mid.residual < 1e-10
    assert not mid.near_eigenvalue
    assert mid.error is None


def test_count_matches_direct_oracle_random():
    rng = np.random.default_rng(51)
    for _ in range(6):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(3, 7))
        sys = random_system(rng, m, n)
        E = complex(rng.normal(), rng.normal() * 0.3)
        exps = np.asarray(stable_exponents(sys, E).values)
        for _ in range(4):
            xi = float(rng.uniform(exps[0] - 1.0, exps[-1] + 1.0))
            if np.min(np.abs(exps - xi)) < 0.05:
                continue
            sample = counting_function(sys, E, xi)
            assert sample.count == direct_count(sys, E, xi)
            # loose sanity bound; the default grid is still converging
            # this close to an exponent
            assert abs(sample.raw.imag) < 1e-3


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_count_matches_direct_oracle_property(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 3))
    n = int(rng.integers(3, 6))
    sys = random_system(rng, m, n)
    exps = np.asarray(stable_exponents(sys, 0.5).values)
    xi = float(rng.uniform(exps[0] - 0.8, exps[-1] + 0.8))
    if np.min(np.abs(exps - xi)) < 0.05:
        xi = exps[-1] + 0.5
    assert counting_function(sys, 0.5, xi).count == direct_count(sys, 0.5, xi)


def test_near_eigenvalue_flag():
    # one exponent 1e-9 below the level: a plain grid angle lands next
    # to its eigenvalue, and the pencil decides the count
    sample = counting_function(scalar_chain(6), 3.0, ARCCOSH_15 + 1e-9)
    assert sample.count == 2
    assert not sample.near_eigenvalue
    # an exact doublet 1e-13 above the level, n|xi_a - xi| = 4e-12: the
    # level lies within rounding of it
    cfg = AndersonConfig(wx=2, wy=2, length=40, disorder=0.0, seed=1, energy=5.0)
    sample = counting_function(generate(cfg), 5.0, ARCCOSH_25 - 1e-13)
    assert sample.near_eigenvalue
    assert 0 <= sample.count <= 8


def test_count_next_to_doublet_right_or_flagged():
    # a complex-conjugate pair 4.6e-4 from each of the levels -1.6 and
    # 1.6: the 64-angle grid rounds one off with residual 0.16
    sys = generate(AndersonConfig(wx=4, wy=4, length=8, disorder=18.0, seed=1100))
    for xi in (c + d for c in (-1.6, 1.6) for d in (0.0, 1e-3, -1e-3)):
        sample = counting_function(sys, 0.5, xi)
        assert (sample.count, sample.near_eigenvalue) == (direct_count(sys, 0.5, xi), False)


@pytest.mark.parametrize("wy, energy, centres, offsets", [
    (2, 5.0, (-ARCCOSH_25, ARCCOSH_25), (1e-3, -1e-3, 1e-8, -1e-8, 1e-9, -1e-9)),
    (1, 2.0, (0.0,), (1e-3, -1e-3, 1e-8, -1e-8)),
])
def test_count_next_to_clean_multiplet_right_or_flagged(wy, energy, centres, offsets):
    # exact doublets of clean n=40 bars, from complex-conjugate
    # eigenvalue pairs of one modulus
    cfg = AndersonConfig(wx=2, wy=wy, length=40, disorder=0.0, seed=1, energy=energy)
    sys = generate(cfg)
    oracle = np.asarray(clean_limit_exponents(cfg).values)
    for xi in (c + d for c in centres for d in offsets):
        sample = counting_function(sys, energy, xi)
        assert (sample.count, sample.near_eigenvalue) == (int(np.sum(oracle < xi)), False)


def test_count_next_to_single_exponents_from_pencil(monkeypatch):
    sys = generate(AndersonConfig(wx=2, wy=2, length=40, disorder=18.0, seed=20100))
    located = locate_exponents(sys, 0.5, tol=1e-10)
    assert located.reliable and len(located.values) == 8
    calls = []
    factor = RingBandWorkspace.factor

    def counted(self, *args, **kwargs):
        calls.append(1)
        return factor(self, *args, **kwargs)

    monkeypatch.setattr(RingBandWorkspace, "factor", counted)
    ws = RingBandWorkspace(sys)
    quad = QuadratureSpec()
    for below, x in enumerate(located.values):
        for d in (1e-4, 1e-7, 1e-10):
            for xi, expect in ((x - d, below), (x + d, below + 1)):
                calls.clear()
                sample = counting_function(sys, 0.5, xi, quad, workspace=ws)
                assert (sample.count, sample.near_eigenvalue) == (expect, False)
                assert len(calls) <= quad.n_phi + 1


def test_overflow_guard_on_level():
    sys = scalar_chain(4)
    with pytest.raises(ScaleOverflowError):
        counting_function(sys, 3.0, 400.0)


def test_corner_route_matches_balanced():
    rng = np.random.default_rng(52)
    for _ in range(4):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(3, 6))
        sys = random_system(rng, m, n)
        E = complex(rng.normal(), rng.normal() * 0.4)
        for _ in range(5):
            xi = float(rng.uniform(-1.5, 1.5))
            phi = float(rng.uniform(0.0, 2 * math.pi))
            ref = counting_integrand(sys, E, xi, phi)
            got = counting_integrand_corner(sys, E, xi, phi)
            assert abs(got - ref) < 1e-10


def test_corner_route_overflow_guard():
    sys = scalar_chain(6)
    with pytest.raises(ScaleOverflowError, match="balanced"):
        counting_integrand_corner(sys, 3.0, 60.0, 0.0)


def test_weak_coupling_decoupling_limit():
    # with near-zero couplings the chain ends decouple: the open-chain
    # corner product vanishes and the count sits at m exactly
    sys = scalar_chain(5, b=1e-8, c=1e-8)
    assert abs(counting_integrand(sys, 1.0, 0.0, 0.9)) < 1e-6
    sample = counting_function(sys, 1.0, 0.0)
    assert sample.count == 1
    assert sample.raw.real == pytest.approx(0.5, abs=1e-9)


def test_retry_handles_contour_through_spectrum():
    # at energy 2 the uniform ring at z = 1 is exactly singular and z = 1
    # sits on the unshifted xi = 0 sampling grid; the half-step retry
    # must still produce a finite sample instead of raising
    sys = scalar_chain(3)
    sample = counting_function(sys, 2.0, 0.0)
    assert sample.error is None
    assert 0 <= sample.count <= 2
    assert np.isfinite(sample.raw.real)


def test_sweep_monotone_and_flag_free():
    sys = scalar_chain(6)
    grid = np.linspace(-2.0, 2.0, 41)
    samples = counting_sweep(sys, 3.0, grid)
    counts = [s.count for s in samples]
    assert counts[0] == 0 and counts[-1] == 2
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert all(s.error is None for s in samples)


def test_sweep_rejects_bad_grid():
    sys = scalar_chain(4)
    with pytest.raises(ValueError):
        counting_sweep(sys, 3.0, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        counting_sweep(sys, 3.0, [1.0, 0.5])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            counting_sweep(sys, 3.0, [0.0, bad])
    with pytest.raises(ValueError, match="empty"):
        counting_sweep(sys, 3.0, [])


def test_locate_scalar_exponents():
    sys = scalar_chain(6)
    exps = locate_exponents(sys, 3.0, tol=1e-8)
    assert exps.reliable
    assert len(exps.values) == 2
    assert exps.values[0] == pytest.approx(-ARCCOSH_15, abs=1e-7)
    assert exps.values[1] == pytest.approx(ARCCOSH_15, abs=1e-7)


def test_locate_accepts_explicit_bracket():
    sys = scalar_chain(6)
    exps = locate_exponents(sys, 3.0, bracket=(-3.0, 3.0), tol=1e-7)
    assert exps.values[1] == pytest.approx(ARCCOSH_15, abs=1e-6)


def test_locate_rejects_invalid_bracket():
    sys = scalar_chain(6)
    with pytest.raises(ValueError, match="bracket"):
        locate_exponents(sys, 3.0, bracket=(2.0, -2.0))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6, 1e-17])
def test_locate_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        locate_exponents(scalar_chain(6), 3.0, tol=tol)


def _bracket_systems():
    rng = np.random.default_rng(18)
    yield from (random_system(rng, m, n) for m, n in ((1, 3), (2, 5), (3, 7)))
    for wx, wy, length in ((2, 1, 24), (2, 2, 40), (3, 2, 9)):
        yield generate(AndersonConfig(wx=wx, wy=wy, length=length,
                                      disorder=12.0, seed=length))


@pytest.mark.parametrize("energy", [0.5, 0.3 - 0.2j])
def test_default_bracket_matches_per_factor_loop(energy):
    # reference: the factor-by-factor bracket the batched one replaced,
    # with the one-step factor formed as it was before batching
    def factor(sys, k):
        m = sys.m
        top = np.linalg.solve(sys.B[k], np.hstack([energy * np.eye(m) - sys.A[k],
                                                   -sys.C[k]]))
        t = np.zeros((2 * m, 2 * m), dtype=complex)
        t[:m, :] = top
        t[m:, :m] = np.eye(m)
        return t

    for sys in _bracket_systems():
        his, los = [], []
        for k in range(sys.n):
            t = factor(sys, k)
            his.append(math.log(np.linalg.norm(t, np.inf)))
            los.append(math.log(np.linalg.norm(np.linalg.inv(t), np.inf)))
        assert counting._default_bracket(sys, energy) == (-(max(los) + 0.1),
                                                          max(his) + 0.1)


def test_pencil_eigenvalues_match_scipy(monkeypatch):
    pencils = []
    eigvals = counting._eigvals

    def recorded(a, b):
        t = eigvals(a, b)
        pencils.append((a, b, t))
        return t

    monkeypatch.setattr(counting, "_eigvals", recorded)
    sys = generate(AndersonConfig(wx=2, wy=2, length=40, disorder=12.0, seed=3))
    assert locate_exponents(sys, 0.5).reliable
    # a singular b: one eigenvalue at infinity, one at zero
    a = np.diag([2.0, 1.0, 0.0]).astype(complex) + np.triu(np.ones((3, 3)), 1)
    pencils.append((a, np.diag([1.0, 0.0, 4.0]).astype(complex), None))
    for a, b, t in pencils:
        expect = scipy.linalg.eigvals(a, b)
        got = eigvals(a, b)
        assert np.array_equal(got, expect, equal_nan=True)
        assert t is None or np.array_equal(t, expect, equal_nan=True)
    assert np.isinf(got).sum() == 1 and (got == 0).sum() == 1


@pytest.mark.parametrize("call, name", [
    (lambda sys: jensen_relation(sys, 0.5, math.nan), "xi"),
    (lambda sys: counting_function(sys, 0.5, math.nan), "xi"),
    (lambda sys: counting_function(sys, complex(math.nan, 0.0), 0.1), "energy"),
    (lambda sys: locate_exponents(sys, 0.5, bracket=(-math.inf, 5.0)), "bracket"),
    (lambda sys: locate_exponents(sys, math.nan), "energy"),
    (lambda sys: QuadratureSpec(n_phi=4.5), "n_phi"),
])
def test_nonfinite_input_rejected_where_it_enters(call, name):
    sys = generate(AndersonConfig(wx=2, wy=1, length=6, disorder=4.0, seed=1))
    with pytest.raises(ValueError, match=f"^{name} must be") as info:
        call(sys)
    assert not isinstance(info.value, counting.NumericalError)


def test_locate_resolves_degenerate_multiplet():
    # clean square bar: transverse modes {2, 0, 0, -2} at energy 5 give
    # a doubly degenerate decay rate; the locator must report it twice
    cfg = AndersonConfig(wx=2, wy=2, length=12, disorder=0.0, seed=1,
                         energy=5.0)
    sys = generate(cfg)
    oracle = np.asarray(clean_limit_exponents(cfg).values)
    got = np.asarray(locate_exponents(sys, 5.0, tol=1e-7).values)
    assert got.shape == oracle.shape
    assert np.max(np.abs(got - oracle)) < 1e-5


def test_locate_matches_direct_oracle_random():
    rng = np.random.default_rng(53)
    for _ in range(3):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(3, 6))
        sys = random_system(rng, m, n)
        direct = np.asarray(stable_exponents(sys, 0.8).values)
        got = np.asarray(locate_exponents(sys, 0.8, tol=1e-7).values)
        assert np.max(np.abs(got - direct)) < 1e-5


def test_locate_conjugate_pair_matches_direct_oracle():
    # disordered bar inside the direct oracle's range whose transfer
    # matrix has a complex-conjugate eigenvalue pair: two equal exponents
    # from distinct eigenvalues, which no count can split
    sys = generate(AndersonConfig(wx=2, wy=2, length=8, disorder=6.0, seed=1))
    lam = np.linalg.eigvals(transfer_product(sys, 0.5).mat)
    assert np.any(np.abs(lam.imag) > 1e-3 * np.abs(lam))
    direct = stable_exponents(sys, 0.5)
    assert direct.reliable
    assert direct.values[0] == pytest.approx(direct.values[1], abs=1e-9)
    got = locate_exponents(sys, 0.5, tol=1e-8)
    assert got.reliable
    assert np.max(np.abs(np.asarray(got.values) - direct.values)) < 1e-6


def test_locate_double_zero_right_or_flagged():
    # clean 2x1 bar at an energy where the in-band mode turns by nearly
    # 17 pi over 40 steps, so its block of the product is close to -I:
    # the two zero exponents come from a near-coincident conjugate pair
    cfg = AndersonConfig(wx=2, wy=1, length=40, disorder=0.0, seed=1,
                         energy=1.469878)
    oracle = np.asarray(clean_limit_exponents(cfg).values)
    got = locate_exponents(generate(cfg), 1.469878, tol=1e-6)
    assert len(got.values) == 4
    err = float(np.max(np.abs(np.asarray(got.values) - oracle)))
    assert err < 1e-6 or not got.reliable


def test_locate_factorization_budget(monkeypatch):
    calls = []
    factor = RingBandWorkspace.factor

    def counted(self, *args, **kwargs):
        calls.append(1)
        return factor(self, *args, **kwargs)

    monkeypatch.setattr(RingBandWorkspace, "factor", counted)
    sys = generate(AndersonConfig(wx=2, wy=2, length=40, disorder=18.0, seed=1))
    exps = locate_exponents(sys, 0.5)
    assert exps.reliable and len(exps.values) == 8
    assert len(calls) <= 40


@pytest.mark.parametrize("wx, wy, disorder", [(2, 1, 18.0), (2, 2, 12.0)])
def test_long_bar_counts_and_locates(wx, wy, disorder):
    # n = 1000: next to an exponent the last pivot of the factor is about
    # 1/|G_11|, tiny on a long bar, which a pivot-size collision test
    # mistook for the spectrum
    sys = generate(AndersonConfig(wx=wx, wy=wy, length=1000,
                                  disorder=disorder, seed=1))
    got = locate_exponents(sys, 0.5, tol=1e-6)
    assert got.reliable
    assert sum(got.values) == pytest.approx(total_exponent_sum(sys), abs=1e-10)
    located = np.asarray(got.values)
    for s in counting_sweep(sys, 0.5, np.linspace(-1.5, 1.5, 31)):
        assert s.error is None
        assert s.count == int(np.sum(located < s.xi))


def test_locate_clean_doublets_to_tight_tolerance():
    # two exact doublets of the clean n=40 bar, each from a
    # complex-conjugate eigenvalue pair of one modulus
    cfg = AndersonConfig(wx=2, wy=2, length=40, disorder=0.0, seed=1, energy=5.0)
    oracle = np.asarray(clean_limit_exponents(cfg).values)
    got = locate_exponents(generate(cfg), 5.0, tol=1e-10)
    assert got.reliable
    assert np.max(np.abs(np.asarray(got.values) - oracle)) < 1e-10


def test_jensen_frozen_scalar_value():
    sys = scalar_chain(6)
    lhs, rhs = jensen_relation(sys, 3.0, 0.0)
    assert lhs == pytest.approx(ARCCOSH_15, abs=1e-9)
    assert rhs == pytest.approx(ARCCOSH_15, abs=1e-9)


def test_jensen_trivial_regimes():
    # with the level above every exponent both sides reduce to the
    # level itself; below every exponent they reduce to minus the level
    # plus the full exponent average, here zero by symmetry
    sys = scalar_chain(6)
    for xi, expect in ((2.0, 2.0), (-2.0, 2.0)):
        lhs, rhs = jensen_relation(sys, 3.0, xi)
        assert lhs == pytest.approx(expect, abs=1e-9)
        assert abs(lhs - rhs) < 1e-8


def test_jensen_accepts_precomputed_exponents():
    sys = scalar_chain(6)
    located = locate_exponents(sys, 3.0, tol=1e-8)
    for xi in (0.0, 0.31):
        assert jensen_relation(sys, 3.0, xi, exponents=located) == pytest.approx(
            jensen_relation(sys, 3.0, xi), abs=1e-8)


def test_jensen_random_systems():
    rng = np.random.default_rng(54)
    for _ in range(4):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(3, 6))
        sys = random_system(rng, m, n)
        for _ in range(2):
            xi = float(rng.uniform(-1.0, 1.0))
            lhs, rhs = jensen_relation(sys, 0.45, xi)
            assert abs(lhs - rhs) < 1e-6


def test_positive_exponent_sum_scalar():
    sys = scalar_chain(6)
    assert positive_exponent_sum(sys, 3.0) == pytest.approx(
        ARCCOSH_15, abs=1e-9)


def test_positive_exponent_sum_clean_bar():
    cfg = AndersonConfig(wx=2, wy=1, length=8, disorder=0.0, seed=1)
    sys = generate(cfg)
    assert positive_exponent_sum(sys, 4.0) == pytest.approx(
        POS_SUM_21_E4, abs=1e-8)


def test_imaginary_part_average_vanishes():
    rng = np.random.default_rng(55)
    sys = random_system(rng, 2, 5, hermitian=True)
    for xi in (0.13, 0.52):
        assert imaginary_part_check(sys, 0.7, xi) < 1e-8
    assert imaginary_part_check(scalar_chain(5), 3.0, 0.3) < 1e-10
