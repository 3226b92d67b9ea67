"""Block-tridiagonal operator systems.

A system holds the coefficient blocks of the three-term recursion

    C_k u_{k-1} + A_k u_k + B_k u_{k+1} = E u_k,

with n blocks of size m x m each.  Systems are immutable; every
operation in this package treats them as read-only input.  Validation
returns a report instead of raising, so callers can collect all
problems of an ingested file at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: reciprocal-condition threshold below which a coupling block is
#: reported as numerically singular
RCOND_THRESHOLD = 1e-12


class ValidationError(ValueError):
    """A system (or system file) failed structural validation."""


def _freeze(block: np.ndarray) -> np.ndarray:
    out = np.array(block, dtype=complex, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class BlockTridiagonalSystem:
    """Coefficient blocks of a length-n, width-m three-term recursion.

    Attributes
    ----------
    m, n : int
        Declared block size and number of blocks.
    A, B, C : tuple of ndarray
        Diagonal, forward and backward coupling blocks.  ``C[0]`` and
        ``B[n-1]`` are the ring-closure blocks that only enter the
        periodic operators, never the open-chain recursion itself.
    """

    m: int
    n: int
    A: tuple
    B: tuple
    C: tuple

    def __post_init__(self):
        object.__setattr__(self, "A", tuple(_freeze(a) for a in self.A))
        object.__setattr__(self, "B", tuple(_freeze(b) for b in self.B))
        object.__setattr__(self, "C", tuple(_freeze(c) for c in self.C))

    @classmethod
    def from_blocks(cls, A: Sequence, B: Sequence, C: Sequence) -> "BlockTridiagonalSystem":
        """Build a system, inferring m and n from the first A block."""
        A = [np.atleast_2d(np.asarray(a, dtype=complex)) for a in A]
        B = [np.atleast_2d(np.asarray(b, dtype=complex)) for b in B]
        C = [np.atleast_2d(np.asarray(c, dtype=complex)) for c in C]
        if not A:
            raise ValidationError("system needs at least one diagonal block")
        return cls(m=A[0].shape[0], n=len(A), A=tuple(A), B=tuple(B), C=tuple(C))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_system; empty issues means the system is usable."""

    issues: tuple

    @property
    def ok(self) -> bool:
        return not self.issues

    def raise_if_failed(self):
        if self.issues:
            raise ValidationError("; ".join(self.issues))


def validate_system(sys: BlockTridiagonalSystem,
                    rcond_threshold: float = RCOND_THRESHOLD) -> ValidationReport:
    """Check shapes, finiteness and coupling-block invertibility.

    Returns a report listing every problem found, block by block.  A
    coupling block is singular when the reciprocal of its exact 1-norm
    condition number, from one batched inverse over all B and C blocks,
    lies below rcond_threshold; a block with a zero pivot has rcond 0.
    A system is accepted by the rest of the package exactly when the
    report is empty.
    """
    issues = []
    m, n = sys.m, sys.n
    if n < 3:
        issues.append(f"n must be at least 3, got {n}")
    if m < 1:
        issues.append(f"m must be at least 1, got {m}")
    for name, blocks in (("A", sys.A), ("B", sys.B), ("C", sys.C)):
        if len(blocks) != n:
            issues.append(f"{name} has {len(blocks)} blocks, expected {n}")
        shaped = [blk.shape == (m, m) for blk in blocks]
        finite = np.ones(len(blocks), dtype=bool)
        if any(shaped):
            finite[shaped] = np.isfinite(np.asarray(
                [blk for blk, ok in zip(blocks, shaped) if ok])).all(axis=(1, 2))
        for k, blk in enumerate(blocks):
            if not shaped[k]:
                issues.append(f"{name}[{k}] has shape {blk.shape}, expected ({m}, {m})")
            elif not finite[k]:
                issues.append(f"{name}[{k}] contains non-finite entries")
    if not issues:
        rcond = 1.0 / np.linalg.cond(np.asarray(sys.B + sys.C), 1)
        for i in np.flatnonzero(rcond < rcond_threshold):
            name, k = ("B", i) if i < n else ("C", i - n)
            issues.append(
                f"{name}[{k}] is numerically singular (rcond {rcond[i]:.2e})")
    return ValidationReport(issues=tuple(issues))


def hermitian_check(sys: BlockTridiagonalSystem, tol: float = 1e-10) -> bool:
    """Whether the system is Hermitian, entrywise within tol.

    Requires A_k Hermitian, each backward block the adjoint of the
    previous forward block, and the ring-closure block C_1 equal to the
    adjoint of B_n; that closure is what makes the unit-weight ring
    operator Hermitian.
    """
    def _same(x, y):
        return np.max(np.abs(x - y)) <= tol

    ok = all(_same(a, a.conj().T) for a in sys.A)
    ok = ok and all(_same(sys.C[k], sys.B[k - 1].conj().T)
                    for k in range(1, sys.n))
    ok = ok and _same(sys.C[0], sys.B[sys.n - 1].conj().T)
    return bool(ok)


# ---------------------------------------------------------------------------
# JSON serialization
#
# Schema: {"m": int, "n": int, "A": [block, ...], "B": [...], "C": [...]}
# where each block is an m x m row-major array of [re, im] pairs.  An
# optional "meta" object carries provenance (used by the disorder
# generator) and is ignored on load.  JSON booleans are not numbers here.
# ---------------------------------------------------------------------------

def _block_to_json(block: np.ndarray):
    return [[[float(x.real), float(x.imag)] for x in row] for row in block]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _block_from_json(entry, m: int, ctx: str, issues: list) -> np.ndarray:
    arr = np.zeros((m, m), dtype=complex)
    if not isinstance(entry, list) or len(entry) != m:
        issues.append(f"{ctx}: expected {m} rows")
        return arr
    for i, row in enumerate(entry):
        if not isinstance(row, list) or len(row) != m:
            issues.append(f"{ctx} row {i}: expected {m} entries")
            return arr
        for j, pair in enumerate(row):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(_is_number(v) for v in pair)):
                issues.append(f"{ctx} entry ({i},{j}): expected [re, im]")
                return arr
            arr[i, j] = complex(pair[0], pair[1])
    return arr


def save_system(sys: BlockTridiagonalSystem, path, meta: dict | None = None):
    """Write a system to a JSON file in the documented schema.

    The float representation round-trips bit exactly through
    load_system.  ``meta`` is stored verbatim under the "meta" key.
    """
    doc = {
        "m": sys.m,
        "n": sys.n,
        "A": [_block_to_json(a) for a in sys.A],
        "B": [_block_to_json(b) for b in sys.B],
        "C": [_block_to_json(c) for c in sys.C],
    }
    if meta is not None:
        doc["meta"] = meta
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _reject_constant(_):
    raise ValidationError("non-finite numbers are not allowed in system files")


def _blocks_from_array(seq, m: int, n: int):
    """The n complex blocks of seq, or None when it is not an (n, m, m, 2)
    array of numbers; those files are decided by the per-entry walk."""
    try:
        arr = np.asarray(seq)
    except ValueError:  # ragged nesting
        return None
    if arr.shape != (n, m, m, 2) or arr.dtype.kind not in "if":
        return None
    return tuple(np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0])


def load_system(path) -> BlockTridiagonalSystem:
    """Read a system file, validating schema and contents.

    Raises ValidationError with a description of every problem found,
    including the offending block indices; the blocks are checked only
    once "m" and "n" are valid.  Each of "A", "B" and "C" is read as one
    array when it has the schema's shape and the file holds no JSON
    boolean (which numpy would take for 1 or 0); any other file is read
    entry by entry, and only that walk reports schema errors.
    """
    try:
        with open(path) as fh:
            text = fh.read()
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top level must be an object")
    issues: list = []
    m = doc.get("m")
    n = doc.get("n")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        issues.append('"m" must be a positive integer')
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        issues.append('"n" must be a positive integer')
    if issues:
        # the blocks cannot be checked against a size that is not known
        raise ValidationError(f"{path}: " + "; ".join(issues))
    as_array = "true" not in text and "false" not in text
    blocks = {}
    for name in ("A", "B", "C"):
        seq = doc.get(name)
        blocks[name] = _blocks_from_array(seq, m, n) if as_array else None
        if blocks[name] is not None:
            continue
        if not isinstance(seq, list) or len(seq) != n:
            issues.append(f'"{name}" must be a list of {n} blocks')
            seq = [None] * n
        blocks[name] = [
            _block_from_json(entry, m, f"{name}[{k}]", issues)
            for k, entry in enumerate(seq)
        ]
    if issues:
        raise ValidationError(f"{path}: " + "; ".join(issues))
    sys = BlockTridiagonalSystem(m=m, n=n, A=tuple(blocks["A"]),
                                 B=tuple(blocks["B"]), C=tuple(blocks["C"]))
    report = validate_system(sys)
    if not report.ok:
        raise ValidationError(f"{path}: " + "; ".join(report.issues))
    return sys
