"""Log-scaled complex scalars.

Determinants and characteristic-polynomial values routinely leave the
range of double precision for long systems.  A ``ScaledComplex`` keeps a
unit-magnitude mantissa together with the natural log of the modulus, so
products and relative comparisons stay well defined at any scale.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ScaledComplex:
    """A complex number stored as ``mantissa * exp(log_modulus)``.

    ``mantissa`` has modulus one (or is exactly zero, in which case
    ``log_modulus`` is ``-inf``).
    """

    mantissa: complex
    log_modulus: float

    @staticmethod
    def from_complex(w: complex) -> "ScaledComplex":
        if w == 0:
            return ScaledComplex(0j, -math.inf)
        r = abs(w)
        return ScaledComplex(w / r, math.log(r))

    @staticmethod
    def zero() -> "ScaledComplex":
        return ScaledComplex(0j, -math.inf)

    @property
    def value(self) -> complex:
        """The plain complex value; may overflow for large log_modulus."""
        if self.mantissa == 0:
            return 0j
        return self.mantissa * cmath.exp(self.log_modulus)

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0

    def __mul__(self, other: "ScaledComplex") -> "ScaledComplex":
        if self.is_zero or other.is_zero:
            return ScaledComplex.zero()
        m = self.mantissa * other.mantissa
        # renormalize; |m| can drift from 1 by rounding
        return ScaledComplex(m / abs(m), self.log_modulus + other.log_modulus)


def relative_difference(a: ScaledComplex, b: ScaledComplex) -> float:
    """|a - b| / (|a| + |b|), evaluated without leaving log scale.

    Returns 0.0 when both operands are zero.
    """
    if a.is_zero and b.is_zero:
        return 0.0
    ref = max(a.log_modulus, b.log_modulus)
    av = a.mantissa * math.exp(a.log_modulus - ref) if not a.is_zero else 0j
    bv = b.mantissa * math.exp(b.log_modulus - ref) if not b.is_zero else 0j
    return abs(av - bv) / (abs(av) + abs(bv))
