"""Ring operators, banded determinants, resolvents, duality, similarity."""

import cmath

import numpy as np
import pytest

from tmcount import (
    RingBandWorkspace,
    ScaleOverflowError,
    SpectrumCollisionError,
    build_hamiltonian,
    det_shifted,
    duality_residual,
    resolvent_corners_open,
    similarity_transform_check,
    transfer_product,
)

from conftest import random_system, scalar_chain


def dense_variant(sys, kind, z=None):
    """Independent dense assembly used as the test-side oracle."""
    m, n = sys.m, sys.n
    H = np.zeros((m * n, m * n), dtype=complex)
    for k in range(n):
        H[k * m:(k + 1) * m, k * m:(k + 1) * m] = sys.A[k]
    wB = z if kind == "balanced" else 1.0
    wC = 1.0 / z if kind == "balanced" else 1.0
    for k in range(n - 1):
        H[k * m:(k + 1) * m, (k + 1) * m:(k + 2) * m] = wB * sys.B[k]
        H[(k + 1) * m:(k + 2) * m, k * m:(k + 1) * m] = wC * sys.C[k + 1]
    if kind != "corner_free":
        H[:m, -m:] = sys.C[0] / z
        H[-m:, :m] = z * sys.B[n - 1]
    return H


def balanced_corners(sys, E, z, ws=None):
    """Corner blocks (b11, b1n, bn1, bnn) of [balanced(z) - E]^{-1}."""
    f = (ws or RingBandWorkspace(sys)).factor(E, z)
    f.require_nonsingular(f"balanced resolvent at z={z:.6g}")
    return f.corner_solve()


def test_uniform_scalar_ring_is_cycle_adjacency():
    sys = scalar_chain(3)
    H = build_hamiltonian(sys, "plain", z=1.0)
    assert np.array_equal(H.real, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert np.max(np.abs(H.imag)) == 0.0


def test_variants_match_independent_assembly():
    rng = np.random.default_rng(31)
    for _ in range(5):
        sys = random_system(rng, int(rng.integers(1, 4)), int(rng.integers(3, 7)))
        z = 0.7 * cmath.exp(1.1j)
        for kind in ("plain", "balanced"):
            got = build_hamiltonian(sys, kind, z)
            assert np.allclose(got, dense_variant(sys, kind, z), atol=1e-14)
            assert not got.flags.writeable
        got = build_hamiltonian(sys, "corner_free")
        assert np.allclose(got, dense_variant(sys, "corner_free"), atol=1e-14)


def test_corner_free_ignores_contour_point():
    rng = np.random.default_rng(32)
    sys = random_system(rng, 2, 4)
    h1 = build_hamiltonian(sys, "corner_free")
    h2 = build_hamiltonian(sys, "corner_free", z=2.5j)
    assert np.array_equal(h1, h2)
    # equals the plain ring with both closure corners removed
    full = build_hamiltonian(sys, "plain", z=1.0).copy()
    full[:2, -2:] = 0.0
    full[-2:, :2] = 0.0
    assert np.array_equal(h2, full)


def test_zero_contour_point_rejected():
    sys = scalar_chain(3)
    with pytest.raises(ValueError):
        build_hamiltonian(sys, "plain", z=0.0)
    with pytest.raises(ValueError):
        build_hamiltonian(sys, "bogus", z=1.0)


def test_banded_determinant_matches_dense():
    # regression: LU pivot bookkeeping once flipped the sign for some
    # fold orders, which a magnitude-only check would never see
    rng = np.random.default_rng(33)
    for _ in range(8):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(3, 8))
        sys = random_system(rng, m, n)
        E = complex(rng.normal(), rng.normal() * 0.3)
        z = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * np.pi))
        kind = ("plain", "balanced", "corner_free")[int(rng.integers(3))]
        zz = None if kind == "corner_free" else z
        sc = det_shifted(sys, E, kind, zz)
        dense = np.linalg.det(
            E * np.eye(m * n) - dense_variant(sys, kind, zz))
        got = sc.mantissa * np.exp(sc.log_modulus)
        assert cmath.isclose(got, dense, rel_tol=1e-10)


def test_determinant_vanishes_on_ring_spectrum():
    # the uniform 3-cycle has eigenvalues {2, -1, -1}
    sys = scalar_chain(3)
    on = det_shifted(sys, 2.0, "plain", 1.0)
    off = det_shifted(sys, 3.0, "plain", 1.0)
    ratio = abs(on.value) / abs(off.value)
    assert ratio < 1e-12
    assert off.value == pytest.approx(16.0, rel=1e-12)


def test_resolvent_corners_match_dense_inverse():
    # the corner solve reads only a trailing window of min(5m - 1, mn)
    # rows of the factor: the whole matrix at n = 3 and 4, a strict part
    # of it from n = 5 on
    rng = np.random.default_rng(34)
    for n in range(3, 13):
        m = int(rng.integers(1, 4))
        sys = random_system(rng, m, n)
        ws = RingBandWorkspace(sys)
        E = complex(rng.normal(), rng.normal() * 0.2)
        for mag in (-2.0, 0.0, 2.0):
            z = cmath.exp(complex(mag, rng.uniform(0, 2 * np.pi)))
            G = np.linalg.inv(dense_variant(sys, "balanced", z) - E * np.eye(m * n))
            scale = np.max(np.abs(G))
            b11, b1n, bn1, bnn = balanced_corners(sys, E, z, ws)
            assert np.allclose(b11, G[:m, :m], atol=1e-10 * scale)
            assert np.allclose(b1n, G[:m, -m:], atol=1e-10 * scale)
            assert np.allclose(bn1, G[-m:, :m], atol=1e-10 * scale)
            assert np.allclose(bnn, G[-m:, -m:], atol=1e-10 * scale)


def test_open_resolvent_matches_dense_inverse():
    rng = np.random.default_rng(35)
    sys = random_system(rng, 3, 5)
    E = 0.4 + 0.7j
    g = np.linalg.inv(dense_variant(sys, "corner_free") - E * np.eye(15))
    b11, b1n, bn1, bnn = resolvent_corners_open(sys, E)
    assert np.allclose(b11, g[:3, :3], atol=1e-10)
    assert np.allclose(bn1, g[-3:, :3], atol=1e-10)


def test_exact_zero_pivot_raises():
    # the uniform 3-cycle at z = 1 has eigenvalues {2, -1, -1} and the
    # open 3-chain {-sqrt(2), 0, sqrt(2)}; both factor with an exactly
    # zero pivot there
    ws = RingBandWorkspace(scalar_chain(3))
    for energy, z in ((2.0, 1.0), (0.0, None)):
        f = ws.factor(energy, z)
        assert f.exact_singular
        with pytest.raises(SpectrumCollisionError):
            f.require_nonsingular("test")
        with pytest.raises(SpectrumCollisionError):
            f.corner_solve()


def test_resolvent_hermitian_structure():
    # Hermitian couplings, real energy, |z| = 1: the resolvent is the
    # inverse of a Hermitian matrix, so the corner blocks inherit
    # b_11 = b_11^dagger and b_1n = b_n1^dagger
    rng = np.random.default_rng(36)
    sys = random_system(rng, 2, 5, hermitian=True)
    b11, b1n, bn1, bnn = balanced_corners(sys, 0.37, cmath.exp(0.8j))
    assert np.allclose(b11, b11.conj().T, atol=1e-11)
    assert np.allclose(bnn, bnn.conj().T, atol=1e-11)
    assert np.allclose(b1n, bn1.conj().T, atol=1e-11)


def test_open_resolvent_raises_on_spectrum():
    # the open scalar 3-chain has eigenvalues {-sqrt(2), 0, sqrt(2)}
    sys = scalar_chain(3)
    with pytest.raises(SpectrumCollisionError):
        resolvent_corners_open(sys, 0.0)


def test_workspace_reuse_is_stateless():
    rng = np.random.default_rng(37)
    sys = random_system(rng, 2, 6)
    ws = RingBandWorkspace(sys)
    first = balanced_corners(sys, 0.5, 1.2j, ws)
    balanced_corners(sys, -1.0, 0.6, ws)
    again = balanced_corners(sys, 0.5, 1.2j, ws)
    assert np.array_equal(first[1], again[1])
    assert np.array_equal(first[2], again[2])


def test_similarity_conjugation_dense_oracle():
    # gauging the phase onto the corners: plain at z^n equals
    # S(z) balanced(z) S(z)^{-1} with S block-diagonal, S_kk = z^k I
    rng = np.random.default_rng(38)
    sys = random_system(rng, 2, 4)
    w = 1.1 * cmath.exp(0.4j)
    m, n = sys.m, sys.n
    S = np.kron(np.diag(w ** np.arange(1, n + 1)), np.eye(m))
    lhs = dense_variant(sys, "plain", w ** n)
    rhs = S @ dense_variant(sys, "balanced", w) @ np.linalg.inv(S)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_similarity_check_small_everywhere_valid():
    rng = np.random.default_rng(39)
    for _ in range(6):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(3, 7))
        sys = random_system(rng, m, n)
        mag = rng.uniform(-25.0, 25.0) / n
        z = cmath.exp(mag + 1j * rng.uniform(0, 2 * np.pi))
        assert similarity_transform_check(sys, z) < 1e-11


def test_similarity_check_overflow_guard():
    sys = scalar_chain(4)
    with pytest.raises(ScaleOverflowError):
        similarity_transform_check(sys, cmath.exp(100.0))


def test_duality_residual_small():
    rng = np.random.default_rng(40)
    for _ in range(8):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(3, 7))
        sys = random_system(rng, m, n)
        E = complex(rng.normal(), rng.normal() * 0.5)
        z = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * np.pi))
        assert duality_residual(sys, E, z) < 1e-10


def test_duality_at_propagator_eigenvalue():
    # when z is an eigenvalue of the n-step propagator, both sides of
    # the determinant identity vanish: the ring determinant must drop
    # by many orders relative to a nearby off-eigenvalue point
    rng = np.random.default_rng(41)
    sys = random_system(rng, 2, 4)
    E = 0.6 + 0.1j
    tm = transfer_product(sys, E)
    lam = np.linalg.eigvals(tm.mat)[0] * np.exp(tm.log_scale)
    on = det_shifted(sys, E, "plain", lam)
    off = det_shifted(sys, E, "plain", lam * 1.13)
    assert abs(on.value) / abs(off.value) < 1e-9


def test_shifted_determinant_polynomial_structure():
    # z^m det[E - H(z)] is a polynomial in z of degree 2m; fitting it
    # on 2m+1 nodes must predict an off-node value
    rng = np.random.default_rng(42)
    sys = random_system(rng, 2, 5)
    E = 1.2 - 0.4j
    m = sys.m

    def f(z):
        sc = det_shifted(sys, E, "plain", z)
        return z ** m * sc.mantissa * np.exp(sc.log_modulus)

    nodes = np.exp(2j * np.pi * np.arange(2 * m + 1) / (2 * m + 1))
    coeffs = np.polyfit(nodes, [f(z) for z in nodes], 2 * m)
    z0 = 1.4 * cmath.exp(0.3j)
    assert cmath.isclose(np.polyval(coeffs, z0), f(z0), rel_tol=1e-8)
