"""Reference exponents made apart from the program under test.

Two routes, neither of which imports ``tmcount``:

* disordered bars: the n-step transfer product is formed from the
  system file's blocks in mpmath at a precision that covers the whole
  dynamic range e^{n * spread}, and the exponents are log|eigenvalue|/n;
* clean bars: every transverse mode of the open wx x wy slice is a
  scalar chain, so the exponents are +-arccosh(|E - mu| / 2) outside the
  band and a zero pair inside it.

The total exponent sum (1/n) sum_k (log|det C_k| - log|det B_k|) is
computed with numpy.

Nothing is stored: every reference is made anew from the bar file, so
``python3 perfbench/reference.py BAR.json --energy 0.5`` prints the
reference exponents of any bar the benchmark wrote.
"""

from __future__ import annotations

import argparse
import json
import math

import mpmath
import numpy as np

#: decimal digits kept beyond the dynamic range of the product; covers
#: eigenvector condition numbers up to about 1e20 with 1e-10 to spare
GUARD_DIGITS = 30


def read_blocks(path):
    """(m, n, A, B, C) of a system file, each block a complex ndarray."""
    with open(path) as fh:
        doc = json.load(fh)
    m, n = doc["m"], doc["n"]

    def block(entry):
        return np.array([[complex(re, im) for re, im in row] for row in entry],
                        dtype=complex).reshape(m, m)

    return (m, n, [block(a) for a in doc["A"]], [block(b) for b in doc["B"]],
            [block(c) for c in doc["C"]])


def _step_bounds(m, n, A, B, C, energy):
    """Upper bounds on the largest and on minus the smallest exponent.

    Every eigenvalue of the product lies between the product of the
    one-step inverse norms and the product of the one-step norms.
    """
    hi = lo = -math.inf
    for k in range(n):
        top = np.linalg.solve(B[k], np.hstack([energy * np.eye(m) - A[k], -C[k]]))
        t = np.vstack([top, np.hstack([np.eye(m), np.zeros((m, m))])])
        hi = max(hi, math.log(np.linalg.norm(t, 2)))
        lo = max(lo, math.log(np.linalg.norm(np.linalg.inv(t), 2)))
    return hi, lo


def transfer_exponents(path, energy: complex) -> list[float]:
    """Sorted exponents of the bar in ``path`` from an mpmath product."""
    m, n, A, B, C = read_blocks(path)
    hi, lo = _step_bounds(m, n, A, B, C, energy)
    digits = int(math.ceil(n * (hi + lo) / math.log(10.0))) + GUARD_DIGITS
    ctx = mpmath.mp.clone()
    ctx.dps = max(digits, 30)
    real = energy.imag == 0 and all(not np.any(blk.imag)
                                    for blk in (*A, *B, *C))
    conv = ((lambda z: ctx.mpf(float(z.real))) if real
            else (lambda z: ctx.mpc(float(z.real), float(z.imag))))

    def mat(block):
        return ctx.matrix([[conv(x) for x in row] for row in block])

    eye = ctx.eye(m)
    # the product's top and bottom block rows, X = [I 0] and Y = [0 I] at
    # the start; one step maps (X; Y) to (B^-1 (E - A) X - B^-1 C Y; X)
    X = ctx.matrix([[ctx.one if j == i else ctx.zero for j in range(2 * m)]
                    for i in range(m)])
    Y = ctx.matrix([[ctx.one if j == m + i else ctx.zero for j in range(2 * m)]
                    for i in range(m)])
    for k in range(n):
        binv = ctx.inverse(mat(B[k]))
        mk = binv * (conv(energy) * eye - mat(A[k]))
        nk = binv * mat(C[k])
        X, Y = mk * X - nk * Y, X
    prod = ctx.matrix(2 * m, 2 * m)
    for i in range(m):
        for j in range(2 * m):
            prod[i, j] = X[i, j]
            prod[m + i, j] = Y[i, j]
    eigs = ctx.eig(prod, left=False, right=False)
    return sorted(float(ctx.log(abs(lam))) / n for lam in eigs)


def slice_mode_energies(wx: int, wy: int) -> list[float]:
    """Eigenvalues of the clean open-boundary wx x wy slice."""
    return [2.0 * math.cos(math.pi * i / (wx + 1)) + 2.0 * math.cos(math.pi * j / (wy + 1))
            for i in range(1, wx + 1) for j in range(1, wy + 1)]


def clean_exponents(wx: int, wy: int, energy: float) -> list[float]:
    """Closed-form exponents of the disorder-free bar at a real energy."""
    out = []
    for mu in slice_mode_energies(wx, wy):
        gap = abs(energy - mu) / 2.0
        x = math.acosh(gap) if gap > 1.0 else 0.0
        out.extend([-x, x])
    return sorted(out)


def total_exponent_sum(path) -> float:
    """(1/n) sum_k (log|det C_k| - log|det B_k|), with numpy."""
    m, n, A, B, C = read_blocks(path)
    return sum(np.linalg.slogdet(c)[1] - np.linalg.slogdet(b)[1]
               for b, c in zip(B, C)) / n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("system", help="system file written by gen-anderson")
    parser.add_argument("--energy", type=float, default=0.0)
    args = parser.parse_args(argv)
    for i, x in enumerate(transfer_exponents(args.system, complex(args.energy))):
        print(f"{i},{x:.17g}")
    print(f"sum,{total_exponent_sum(args.system):.17g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
