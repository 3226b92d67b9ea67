"""Ring operators built from a block-tridiagonal system.

Three variants of the mn x mn ring matrix are used:

* ``plain``: bare couplings on the off-diagonals, ring-closure corners
  weighted by ``z_pow`` (bottom-left) and ``1/z_pow`` (top-right);
* ``balanced``: every forward coupling weighted by ``z`` and every
  backward coupling by ``1/z``, corners included.  A diagonal similarity
  with powers of ``z`` maps it to the plain variant at ``z**n``, which
  keeps its entries and its resolvent at the scale of ``|z|`` instead of
  ``|z|**n``;
* ``corner_free``: the open chain, corners removed, z-independent.

``build_hamiltonian`` assembles every variant densely, for the identity
checks and tests.  Everything else works on ``RingBandWorkspace``:
shifted determinants and resolvent corner blocks come from a banded LU
factorization of two operators only, the balanced ring and the open
chain.  The plain determinant at z is the balanced one at z**(1/n), by
the similarity above.  The ring ordering 1, n, 2, n-1, ... folds the
corner blocks into a band of block width two, so the factorization is
partial-pivoted LAPACK ``gbtrf`` on a genuinely banded matrix: stable at
any contour radius and linear-time in n.  The full inverse is never
formed; corner blocks come from solves against 2m unit columns.  The
counting path factors the balanced ring; the open-chain corners of
``resolvent_corners_open`` serve only the corner-formula cross-check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .logscale import ScaledComplex, relative_difference
from .operators import BlockTridiagonalSystem
from .transfer import NumericalError, transfer_product

#: relative pivot size below which the shifted operator is treated as
#: singular (the contour touches the spectrum)
PIVOT_THRESHOLD = 1e-13

#: refuse to form z**n (or e^{n xi}) past this exponent
OVERFLOW_GUARD = 300.0

_VARIANTS = ("plain", "balanced", "corner_free")


class SpectrumCollisionError(NumericalError):
    """The shifted ring operator is numerically singular at this point."""


class ScaleOverflowError(NumericalError):
    """A requested power of z exceeds the floating-point range guard."""


def _check_variant(kind: str, z):
    if kind not in _VARIANTS:
        raise ValueError(f"unknown ring variant {kind!r}")
    if kind != "corner_free":
        if z is None:
            raise ValueError(f"variant {kind!r} needs a nonzero weight z")
        if z == 0:
            raise ValueError("ring coupling weight 1/z is undefined at z = 0")


def build_hamiltonian(sys: BlockTridiagonalSystem, kind: str,
                      z: complex | None = None) -> np.ndarray:
    """Assemble the dense mn x mn ring operator of the given variant.

    The returned matrix is read-only.
    """
    _check_variant(kind, z)
    m, n = sys.m, sys.n
    H = np.zeros((m * n, m * n), dtype=complex)
    for k in range(n):
        H[k * m:(k + 1) * m, k * m:(k + 1) * m] = sys.A[k]
    wB, wC = (z, 1.0 / z) if kind == "balanced" else (1.0, 1.0)
    for k in range(n - 1):
        H[k * m:(k + 1) * m, (k + 1) * m:(k + 2) * m] = wB * sys.B[k]
        H[(k + 1) * m:(k + 2) * m, k * m:(k + 1) * m] = wC * sys.C[k + 1]
    if kind != "corner_free":
        H[0:m, (n - 1) * m:] = sys.C[0] / z
        H[(n - 1) * m:, 0:m] = z * sys.B[n - 1]
    H.setflags(write=False)
    return H


# ---------------------------------------------------------------------------
# banded factorization workspace
# ---------------------------------------------------------------------------

def _fold_order(n: int) -> np.ndarray:
    """Permuted slot of each ring block under the 1, n, 2, n-1, ... fold."""
    pos = np.empty(n, dtype=np.intp)
    lo, hi, p = 0, n - 1, 0
    while lo <= hi:
        pos[lo] = p
        p += 1
        if hi != lo:
            pos[hi] = p
            p += 1
        lo += 1
        hi -= 1
    return pos


class RingBandWorkspace:
    """Reusable banded-LU scaffolding for one system.

    Holds the folded band templates of the diagonal blocks, of the
    forward couplings B_k (the closure block B_n included), of the
    backward couplings C_k (C_1 included) and of the open chain, and the
    row sums of |B_k| and |C_k|, so factoring at a new (energy, z) is a
    few vector updates plus one ``gbtrf``.  Not safe for concurrent use
    from threads.
    """

    def __init__(self, sys: BlockTridiagonalSystem):
        self.sys = sys
        self.m, self.n = sys.m, sys.n
        self.N = sys.m * sys.n
        pos = _fold_order(sys.n)
        m, n = sys.m, sys.n
        kl = min(3 * m - 1, self.N - 1)
        self.kl = self.ku = kl
        shape = (2 * self.kl + self.ku + 1, self.N)
        self.t_diag = np.zeros(shape, dtype=complex, order="F")
        self.t_fwd = np.zeros(shape, dtype=complex, order="F")
        self.t_bwd = np.zeros(shape, dtype=complex, order="F")
        ii, jj = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
        off = self.kl + self.ku

        def put(t, bi, bj, blk):
            r0, c0 = pos[bi] * m, pos[bj] * m
            t[off + (r0 - c0) + (ii - jj), c0 + jj] = blk

        for k in range(n):
            put(self.t_diag, k, k, sys.A[k])
            put(self.t_fwd, k, (k + 1) % n, sys.B[k])
            put(self.t_bwd, k, (k - 1) % n, sys.C[k])
        # the open chain is the ring without its closure blocks B_n and C_1
        self.t_open = self.t_diag + self.t_fwd + self.t_bwd
        put(self.t_open, n - 1, 0, np.zeros((m, m)))
        put(self.t_open, 0, n - 1, np.zeros((m, m)))
        # block row k holds A_k, B_k and C_k, and n >= 3 keeps them in
        # distinct block columns, so the inf-norm is a sum of row sums
        self._a = np.array(sys.A)
        self._row_b = np.abs(np.array(sys.B)).sum(axis=2)
        self._row_c = np.abs(np.array(sys.C)).sum(axis=2)
        self._row_open = self._row_b + self._row_c
        self._row_open[0], self._row_open[-1] = self._row_b[0], self._row_c[-1]
        # unit columns for the two corner block-columns; slots 0 and 1 of
        # the fold are ring blocks 1 and n
        rhs = np.zeros((self.N, 2 * m), dtype=complex, order="F")
        rhs[:m, :m] = np.eye(m)
        rhs[m:2 * m, m:] = np.eye(m)
        self._corner_rhs = rhs

    def factor(self, energy: complex, z: complex | None = None) -> "BandFactor":
        """Factor (balanced ring at z - energy), or (open chain - energy)
        when z is None, with partial pivoting."""
        row_a = np.abs(self._a - energy * np.eye(self.m)).sum(axis=2)
        if z is None:
            ab = self.t_open.copy(order="F")
            rows = row_a + self._row_open
        else:
            if z == 0:
                raise ValueError("ring coupling weight 1/z is undefined at z = 0")
            ab = self.t_fwd * z
            ab += self.t_bwd * (1.0 / z)
            ab += self.t_diag
            rows = row_a + abs(z) * self._row_b + self._row_c / abs(z)
        ab[self.kl + self.ku] -= energy
        lub, ipiv, info = lapack.zgbtrf(ab, self.kl, self.ku, overwrite_ab=1)
        if info < 0:
            raise RuntimeError(f"gbtrf failed with info={info}")
        return BandFactor(workspace=self, lub=lub, ipiv=ipiv,
                          exact_singular=info > 0, inf_norm=float(rows.max()))


@dataclass
class BandFactor:
    """One banded LU factorization of a shifted ring operator."""

    workspace: RingBandWorkspace
    lub: np.ndarray
    ipiv: np.ndarray
    exact_singular: bool
    inf_norm: float

    @property
    def min_pivot(self) -> float:
        ws = self.workspace
        return float(np.min(np.abs(self.lub[ws.kl + ws.ku, :])))

    def require_nonsingular(self, context: str):
        if self.exact_singular or self.min_pivot < PIVOT_THRESHOLD * max(self.inf_norm, 1.0):
            raise SpectrumCollisionError(
                f"{context}: shifted ring operator is numerically singular "
                f"(smallest pivot {self.min_pivot:.2e})")

    def corner_solve(self):
        """The four corner blocks of the inverse, via 2m column solves."""
        ws = self.workspace
        m = ws.m
        rhs = ws._corner_rhs.copy(order="F")
        x, info = lapack.zgbtrs(self.lub, ws.kl, ws.ku, rhs, self.ipiv,
                                overwrite_b=1)
        if info != 0:
            raise RuntimeError(f"gbtrs failed with info={info}")
        b11 = x[:m, :m]
        b1n = x[:m, m:]
        bn1 = x[m:2 * m, :m]
        bnn = x[m:2 * m, m:]
        return b11, b1n, bn1, bnn

    def logabsdet(self) -> float:
        ws = self.workspace
        udiag = self.lub[ws.kl + ws.ku, :]
        mods = np.abs(udiag)
        if np.any(mods == 0.0):
            return -math.inf
        return float(np.sum(np.log(mods)))

    def det_scaled(self) -> ScaledComplex:
        """det of the factored (operator - energy) matrix, log-scaled.

        The fold permutation is symmetric, so it leaves the determinant
        unchanged; only the gbtrf row swaps contribute a sign.
        """
        ws = self.workspace
        udiag = self.lub[ws.kl + ws.ku, :]
        mods = np.abs(udiag)
        if np.any(mods == 0.0):
            return ScaledComplex.zero()
        phase = complex(np.prod(udiag / mods))
        # scipy's gbtrf wrapper hands back 0-based pivot indices
        swaps = int(np.sum(self.ipiv != np.arange(ws.N)))
        if swaps % 2:
            phase = -phase
        phase /= abs(phase)
        return ScaledComplex(phase, float(np.sum(np.log(mods))))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def det_shifted(sys: BlockTridiagonalSystem, energy: complex, kind: str,
                z: complex | None = None) -> ScaledComplex:
    """det[energy - ring_variant(z)] as a log-scaled complex number.

    The plain variant at z is factored as the balanced one at
    w = z^(1/n): a diagonal similarity maps balanced(w) to plain(w^n),
    so the determinant is the same.
    """
    _check_variant(kind, z)
    if kind == "plain":
        z = cmath.exp(cmath.log(z) / sys.n)
    f = RingBandWorkspace(sys).factor(energy, None if kind == "corner_free" else z)
    d = f.det_scaled()
    if d.is_zero:
        return d
    if (sys.m * sys.n) % 2 == 1:
        d = ScaledComplex(-d.mantissa, d.log_modulus)
    return d


def similarity_transform_check(sys: BlockTridiagonalSystem, z: complex) -> float:
    """Residual of the diagonal-similarity identities, relative scale.

    Checks that conjugating the balanced variant by the diagonal power
    matrix reproduces the plain variant at z**n, and that rotating z by
    one grid angle is likewise a diagonal conjugation.  Returns the
    larger of the two infinity-norm residuals, normalized by the target
    matrix norm.
    """
    if z == 0:
        raise ValueError("similarity check undefined at z = 0")
    n, m = sys.n, sys.m
    if n * abs(math.log(abs(z))) > OVERFLOW_GUARD:
        raise ScaleOverflowError(
            f"|log|z||*n = {n * abs(math.log(abs(z))):.1f} exceeds the "
            f"overflow guard {OVERFLOW_GUARD}")
    Hb = build_hamiltonian(sys, "balanced", z)

    def conjugate(mat, w):
        powers = np.power(w, np.arange(1, n + 1))
        fac = np.repeat(powers, m)
        return mat * fac[:, None] / fac[None, :]

    Hpow = build_hamiltonian(sys, "plain", z ** n)
    res1 = np.linalg.norm(conjugate(Hb, z) - Hpow, np.inf)
    res1 /= max(1.0, np.linalg.norm(Hpow, np.inf))

    omega = cmath.exp(2j * math.pi / n)
    Hrot = build_hamiltonian(sys, "balanced", z * omega.conjugate())
    res2 = np.linalg.norm(conjugate(Hb, omega) - Hrot, np.inf)
    res2 /= max(1.0, np.linalg.norm(Hrot, np.inf))
    return float(max(res1, res2))


def _char_poly_scaled(sys: BlockTridiagonalSystem, energy: complex,
                      z: complex) -> ScaledComplex:
    """det[T(energy) - z] times det[B_1 ... B_n], in log scale.

    Evaluated from the eigenvalues of the rescaled transfer product, one
    scaled factor per eigenvalue, so the value is finite even when the
    product itself would overflow.
    """
    tm = transfer_product(sys, energy)
    lam = np.linalg.eigvals(tm.mat)
    lz = math.log(abs(z)) if z != 0 else -math.inf
    out = ScaledComplex(1.0 + 0j, 0.0)
    for li in lam:
        la = tm.log_scale + (math.log(abs(li)) if li != 0 else -math.inf)
        ref = max(la, lz, 0.0)
        f = li * cmath.exp(tm.log_scale - ref) - z * math.exp(-ref)
        sc = ScaledComplex.from_complex(f)
        if sc.is_zero:
            return ScaledComplex.zero()
        out = out * ScaledComplex(sc.mantissa, sc.log_modulus + ref)
    for b in sys.B:
        sign, lad = np.linalg.slogdet(b)
        out = out * ScaledComplex(complex(sign), float(lad))
    return out


def duality_residual(sys: BlockTridiagonalSystem, energy: complex,
                     z: complex) -> float:
    """Relative mismatch between the two characteristic polynomials.

    Left side: det[T(E) - z] det[B_1 ... B_n] through the propagator's
    eigenvalues.  Right side: (-z)**m det[E - ring_plain(z)] through the
    banded determinant.  Both sides are kept in log scale; a residual of
    zero is returned when both vanish.
    """
    if z == 0:
        raise ValueError("duality is stated for z != 0")
    lhs = _char_poly_scaled(sys, energy, z)
    mz = ScaledComplex.from_complex(-z)
    prefactor = ScaledComplex(mz.mantissa ** sys.m / abs(mz.mantissa ** sys.m),
                              sys.m * mz.log_modulus)
    rhs = prefactor * det_shifted(sys, energy, "plain", z)
    return relative_difference(lhs, rhs)


def resolvent_corners_open(sys: BlockTridiagonalSystem, energy: complex):
    """Corner blocks (b11, b1n, bn1, bnn) of the open-chain resolvent
    [corner_free - energy]^{-1}.

    z-independent, so one factorization serves every angle of the
    corner-formula check.  Raises SpectrumCollisionError when the energy
    is an eigenvalue of the open chain, where this route is undefined.
    """
    f = RingBandWorkspace(sys).factor(energy)
    f.require_nonsingular("open-chain resolvent")
    return f.corner_solve()
