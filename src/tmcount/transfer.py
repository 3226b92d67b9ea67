"""Transfer-matrix products and their growth exponents.

The one-step factor propagates (u_{k+1}, u_k) to (u_{k+2}, u_{k+1})
through the three-term recursion.  The n-step product is accumulated
with per-factor rescaling so only the 2m x 2m mantissa is stored in
floating point, together with the accumulated log of the pulled-out
scale.  Exponents are the per-step log moduli of the product's
eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import BlockTridiagonalSystem

#: dynamic-range limit: eigenvalue moduli of the rescaled product are
#: trusted only while n * (xi_max - xi_min) stays below this
RELIABLE_SPREAD = 30.0


class NumericalError(RuntimeError):
    """A computation failed for numerical reasons, not because of bad input."""


@dataclass(frozen=True)
class TransferMatrix:
    """An n-step propagator stored as ``mat * exp(log_scale)``."""

    mat: np.ndarray
    log_scale: float

    def __post_init__(self):
        m = np.array(self.mat, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)


@dataclass(frozen=True)
class ExponentSet:
    """Sorted per-step growth exponents of a propagator.

    From the direct oracle, ``reliable`` is False when the dynamic range
    of the product exceeds what double-precision eigenvalues can
    resolve; the counting-function route remains usable in that regime.
    From the locator, it is False when the locator's own evidence does
    not back every value (see ``locate_exponents``).
    """

    values: tuple
    reliable: bool


def one_step_factors(sys: BlockTridiagonalSystem, energy: complex,
                     ks=None) -> np.ndarray:
    """The one-step factors t_k for the block indices ks (all n by default),
    stacked in that order, from one batched solve with the B_k.

    Raises ValueError, naming the first failing k, if some B_k is
    singular or some factor is not finite.
    """
    m = sys.m
    ks = range(sys.n) if ks is None else ks
    rhs = np.concatenate([energy * np.eye(m) - np.asarray([sys.A[k] for k in ks]),
                          -np.asarray([sys.C[k] for k in ks])], axis=2)
    b = np.asarray([sys.B[k] for k in ks])
    try:
        top = np.linalg.solve(b, rhs)
    except np.linalg.LinAlgError:
        top = None
    if top is None or not np.all(np.isfinite(top)):
        for k, bk, rk in zip(ks, b, rhs):
            try:
                tk = np.linalg.solve(bk, rk)
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"B[{k}] is singular, one-step factor undefined") from exc
            if not np.all(np.isfinite(tk)):
                raise ValueError(f"one-step factor {k} overflowed (B[{k}] nearly singular)")
    t = np.zeros((len(b), 2 * m, 2 * m), dtype=complex)
    t[:, :m, :] = top
    t[:, m:, :m] = np.eye(m)
    return t


def one_step_transfer(sys: BlockTridiagonalSystem, k: int, energy: complex) -> np.ndarray:
    """One factor of the propagator, for block index k (0-based).

    Solves with B_k rather than forming its inverse.  Raises ValueError
    if B_k is numerically singular or the factor is not finite.
    """
    return one_step_factors(sys, energy, [k])[0]


def transfer_product(sys: BlockTridiagonalSystem, energy: complex) -> TransferMatrix:
    """Ordered product of all n one-step factors, last factor leftmost.

    After each multiplication the running product is divided by its
    infinity norm and the log of the scale is accumulated, keeping the
    stored mantissa's norm at one.
    """
    acc = np.eye(2 * sys.m, dtype=complex)
    log_scale = 0.0
    for k, t in enumerate(one_step_factors(sys, energy)):
        acc = t @ acc
        nrm = np.linalg.norm(acc, np.inf)
        if not np.isfinite(nrm) or nrm == 0.0:
            raise NumericalError(f"transfer product degenerated at factor {k}")
        acc /= nrm
        log_scale += math.log(nrm)
    return TransferMatrix(mat=acc, log_scale=log_scale)


def stable_exponents(sys: BlockTridiagonalSystem, energy: complex) -> ExponentSet:
    """Growth exponents from the eigenvalues of the rescaled product.

    xi_a = (log_scale + log|eig_a|) / n, sorted ascending.  The result
    is flagged unreliable once the exponent spread exceeds the
    dynamic-range limit; values are still returned for inspection.
    """
    tm = transfer_product(sys, energy)
    lam = np.linalg.eigvals(tm.mat)
    moduli = np.maximum(np.abs(lam), 1e-300)
    xs = np.sort((tm.log_scale + np.log(moduli)) / sys.n)
    spread = sys.n * (xs[-1] - xs[0])
    return ExponentSet(values=tuple(float(x) for x in xs),
                       reliable=bool(spread <= RELIABLE_SPREAD))


def direct_count(sys: BlockTridiagonalSystem, energy: complex, xi: float,
                 guard: float = 1e-9) -> int:
    """Number of exponents strictly below xi, via the eigenvalue route.

    Raises ValueError when xi sits within ``guard`` of an exponent,
    where the strict count is ambiguous in floating point.
    """
    exps = stable_exponents(sys, energy)
    vals = np.asarray(exps.values)
    if np.min(np.abs(vals - xi)) < guard:
        raise ValueError(
            f"xi={xi} is within {guard} of an exponent; count is ambiguous")
    return int(np.sum(vals < xi))
