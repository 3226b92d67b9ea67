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
the similarity above.  Determinants are numpy's (sign, log|det|)
pairs, as ``np.linalg.slogdet`` returns them, so they stay finite at
any length; ``duality_residual`` takes the transfer side from one
``slogdet`` of the rescaled 2m x 2m product.  The ring ordering 1, n,
2, n-1, ..., reversed so that ring blocks 1 and n take the last two
slots, folds the corner blocks into a band of block width two, so the
factorization is partial-pivoted LAPACK ``gbtrf`` on a genuinely banded
matrix: stable at any contour radius and linear-time in n.  The band
widths kl and ku are measured from the nonzero entries of the folded
blocks: 2m on Anderson bars, whose couplings are identity blocks, and
3m - 1 on dense blocks.  The band at each (energy, z) is one product of
four weights with a stack of four templates that hold the nonzero
entries only, scattered into zeros.  The full inverse is never formed; the corner blocks come
from 2m unit columns in the last two slots.  Forward substitution leaves
every row above the trailing 2m + kl zero, and back substitution of the
last 2m rows reads only the rows below them, so only that trailing
window of the factor is solved, at a cost independent of n.

A factor collides with the spectrum (``SpectrumCollisionError``) when
it has an exactly zero pivot or its corner blocks are not finite.  The
size of the pivots is no test: the last pivot is about 1/|G_11|, which
is legitimately small next to an exponent on a long bar.  A level within
rounding of an exponent is what the counting pencil's near_eigenvalue
flag reports.  The counting path factors the balanced ring; the
open-chain corners of ``resolvent_corners_open`` serve only the
corner-formula cross-check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .operators import BlockTridiagonalSystem
from .transfer import NumericalError, transfer_product

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

    The band widths kl and ku are measured: the largest offsets below
    and above the diagonal among the nonzero entries of the folded A, B
    and C blocks, with the diagonal always counted, since it carries
    -energy.  They are 2m on Anderson bars (identity couplings) at
    n >= 3 and 3m - 1 on dense blocks.  Only nonzero entries are kept,
    as one 4 x nnz stack of templates over their flat column-major band
    positions: the diagonal blocks, the forward couplings B_k (the
    closure block B_n included), the backward couplings C_k (C_1
    included) and the identity.  Entries that share a position are
    summed into one column; A's diagonal shares the identity's.  The
    band of the balanced ring at (energy, z) is [1, z, 1/z, -energy] @
    stack scattered into zeros, followed by one ``gbtrf``.  Not safe for
    concurrent use from threads.
    """

    def __init__(self, sys: BlockTridiagonalSystem):
        self.sys = sys
        m, n = self.m, self.n = sys.m, sys.n
        self.N = m * n
        # reversed fold: ring blocks 1 and n take the last two slots
        start = (n - 1 - _fold_order(n)) * m
        blocks = np.asarray((sys.A, sys.B, sys.C))
        t, k, i, j = np.nonzero(blocks)
        vals = blocks[t, k, i, j]
        # ring block coupled to block k by template t; it wraps around
        # only for the closure blocks B_n and C_1
        other = k + np.array([0, 1, -1])[t]
        closure = (other % n) != other
        diag = np.arange(self.N)
        t = np.concatenate([t, np.full(self.N, 3)])
        rows = np.concatenate([start[k] + i, diag])
        cols = np.concatenate([start[other % n] + j, diag])
        vals = np.concatenate([vals, np.ones(self.N)])
        self.kl = int(np.max(rows - cols))
        self.ku = int(np.max(cols - rows))
        self._shape = (2 * self.kl + self.ku + 1, self.N)
        flat = cols * self._shape[0] + self.kl + self.ku + rows - cols
        self._flat, column = np.unique(flat, return_inverse=True)
        self._stack = np.zeros((4, self._flat.size), dtype=complex)
        np.add.at(self._stack, (t, column), vals)
        # the open chain is the ring at z = 1 without its closure blocks;
        # for n >= 3 no other block shares their band positions
        self._closure = np.unique(column[:closure.size][closure])
        # conjugate transposes of B_n and C_1: tr(X Y) = vdot(Y^H, X)
        self.closure_adjoints = tuple(np.ascontiguousarray(b.conj().T)
                                      for b in (sys.B[n - 1], sys.C[0]))
        # unit columns for the two corner block-columns in the trailing
        # window of t rows: no L step above row N - t touches them, and
        # the U solve of the last 2m rows needs only the rows below
        self._window = min(2 * m + self.kl, self.N)
        rhs = np.zeros((self._window, 2 * m), dtype=complex, order="F")
        rhs[-m:, :m] = np.eye(m)
        rhs[-2 * m:-m, m:] = np.eye(m)
        self._corner_rhs = rhs

    def factor(self, energy: complex, z: complex | None = None) -> "BandFactor":
        """Factor (balanced ring at z - energy), or (open chain - energy)
        when z is None, with partial pivoting."""
        if z is None:
            weights = np.array([1.0, 1.0, 1.0, -energy], dtype=complex)
        elif z == 0:
            raise ValueError("ring coupling weight 1/z is undefined at z = 0")
        else:
            weights = np.array([1.0, z, 1.0 / z, -energy], dtype=complex)
        band = weights @ self._stack
        if z is None:
            band[self._closure] = 0.0
        ab = np.zeros(self._shape[0] * self.N, dtype=complex)
        ab[self._flat] = band
        ab = ab.reshape(self._shape, order="F")
        lub, ipiv, info = lapack.zgbtrf(ab, self.kl, self.ku, overwrite_ab=1)
        if info < 0:
            raise RuntimeError(f"gbtrf failed with info={info}")
        return BandFactor(workspace=self, lub=lub, ipiv=ipiv,
                          exact_singular=info > 0)


@dataclass
class BandFactor:
    """One banded LU factorization of a shifted ring operator."""

    workspace: RingBandWorkspace
    lub: np.ndarray
    ipiv: np.ndarray
    exact_singular: bool

    def require_nonsingular(self, context: str):
        """Raise SpectrumCollisionError on an exactly zero pivot."""
        if self.exact_singular:
            raise SpectrumCollisionError(
                f"{context}: shifted ring operator is singular (zero pivot)")

    def corner_solve(self):
        """The four corner blocks of the inverse, via 2m column solves.

        Only the trailing window of the factor is solved.  Raises
        SpectrumCollisionError when the blocks are not finite.
        """
        ws = self.workspace
        m, s = ws.m, ws.N - ws._window
        x, info = lapack.zgbtrs(self.lub[:, s:], ws.kl, ws.ku,
                                ws._corner_rhs.copy(order="F"),
                                self.ipiv[s:] - s, overwrite_b=1)
        if info != 0:
            raise RuntimeError(f"gbtrs failed with info={info}")
        if not np.isfinite(x[-2 * m:]).all():
            raise SpectrumCollisionError(
                "corner blocks of the shifted ring operator are not finite")
        b11 = x[-m:, :m]
        b1n = x[-m:, m:]
        bn1 = x[-2 * m:-m, :m]
        bnn = x[-2 * m:-m, m:]
        return b11, b1n, bn1, bnn

    def logabsdet(self) -> float:
        ws = self.workspace
        udiag = self.lub[ws.kl + ws.ku, :]
        mods = np.abs(udiag)
        if np.any(mods == 0.0):
            return -math.inf
        return float(np.sum(np.log(mods)))

    def det_scaled(self) -> tuple[complex, float]:
        """det of the factored (operator - energy) matrix as numpy's
        (sign, log|det|) pair, (0, -inf) on a zero pivot.

        The fold permutation is symmetric, so it leaves the determinant
        unchanged; only the gbtrf row swaps contribute a sign.
        """
        ws = self.workspace
        udiag = self.lub[ws.kl + ws.ku, :]
        mods = np.abs(udiag)
        if np.any(mods == 0.0):
            return 0j, -math.inf
        sign = complex(np.prod(udiag / mods))
        # scipy's gbtrf wrapper hands back 0-based pivot indices
        if np.sum(self.ipiv != np.arange(ws.N)) % 2:
            sign = -sign
        return sign / abs(sign), float(np.sum(np.log(mods)))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def det_shifted(sys: BlockTridiagonalSystem, energy: complex, kind: str,
                z: complex | None = None,
                workspace: RingBandWorkspace | None = None
                ) -> tuple[complex, float]:
    """det[energy - ring_variant(z)] as a (sign, log|det|) pair.

    The plain variant at z is factored as the balanced one at
    w = z^(1/n): a diagonal similarity maps balanced(w) to plain(w^n),
    so the determinant is the same.
    """
    _check_variant(kind, z)
    if kind == "plain":
        z = cmath.exp(cmath.log(z) / sys.n)
    ws = workspace if workspace is not None else RingBandWorkspace(sys)
    f = ws.factor(energy, None if kind == "corner_free" else z)
    sign, logdet = f.det_scaled()
    if (sys.m * sys.n) % 2 == 1:
        sign = -sign
    return sign, logdet


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


def _relative_gap(a, b) -> float:
    """|a - b| / (|a| + |b|) of two (sign, log|x|) pairs, 0 when both vanish."""
    ref = max(a[1], b[1])
    if ref == -math.inf:
        return 0.0
    av, bv = (sign * math.exp(logabs - ref) for sign, logabs in (a, b))
    return abs(av - bv) / (abs(av) + abs(bv))


def duality_residual(sys: BlockTridiagonalSystem, energy: complex, z) -> float:
    """Relative mismatch between the two characteristic polynomials.

    Left side: det[T(E) - z] det[B_1 ... B_n].  With T = mat e^s and
    r = max(s, log|z|), det[T - z] = e^{2mr} det(mat e^{s-r} - z e^{-r}),
    whose matrix has entries of order one.  Right side: (-z)**m
    det[E - ring_plain(z)] through the banded determinant.  Both sides
    are (sign, log|det|) pairs; a residual of zero is returned when both
    vanish.  z is one point or a sequence of them, and the largest
    residual is returned; the transfer product and the banded workspace
    are formed once for all.
    """
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(zs == 0):
        raise ValueError("duality is stated for z != 0")
    m = sys.m
    tm = transfer_product(sys, energy)
    signs_b, logs_b = np.linalg.slogdet(np.asarray(sys.B))
    sign_b, log_b = np.prod(signs_b), float(np.sum(logs_b))
    eye = np.eye(2 * m)
    ws = RingBandWorkspace(sys)
    worst = 0.0
    for zk in map(complex, zs):
        log_z = math.log(abs(zk))
        r = max(tm.log_scale, log_z)
        sign, logdet = np.linalg.slogdet(tm.mat * math.exp(tm.log_scale - r)
                                         - zk * math.exp(-r) * eye)
        lhs = (sign * sign_b, 2 * m * r + logdet + log_b)
        sign, logdet = det_shifted(sys, energy, "plain", zk, workspace=ws)
        rhs = ((-zk / abs(zk)) ** m * sign, m * log_z + logdet)
        worst = max(worst, _relative_gap(lhs, rhs))
    return worst


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
