"""Counting function of the exponents via contour quadrature.

The fraction of exponents below a level xi is recovered from corner
blocks of the balanced ring resolvent sampled on the circle of radius
e^xi.  The integrand is periodic in the angle with period 2*pi/n, so a
uniform trapezoid rule converges geometrically away from the jumps; the
average is the raw value, and 2m times it rounds to an integer count.
This is the one counting path: the balanced ring keeps its entries at
the scale e^|xi|, so it holds at any length.  The paper's open-chain
corner formula, in which z^n appears explicitly, is kept only as the
one-angle value counting_integrand_corner, a cross-check that is
accurate while n*|xi| is small enough for its inner matrices to
resolve e^{n|xi - xi_a|}.

Counting and location rest on an identity that is exact for the
P-angle trapezoid rule: m + (grid mean) = sum_a 1/(1 - u_a), with
u_a = (lambda_a/w_0)^P, lambda_a the eigenvalues of the transfer matrix
and w_0 = e^{n xi} times the grid phase, so |u_a| = e^{nP(xi_a - xi)}.
Each exponent pulls the grid mean off its integer count by about
e^{-nP|xi - xi_a|}.  Every count follows one rule on a fixed grid of
n_phi angles: a clean level (pull below ISOLATION_DEV) rounds; next to
an exponent a second grid, shifted by half a step, turns u into -u, and
the two totals give the count in closed form.  When no single exponent
fits them, two or more are near the level (a coincident pair, or a
complex-conjugate pair of one modulus), and the count is flagged
near_eigenvalue rather than guessed; so is a level where one grid hit
the spectrum and the other is not clean.

The locator bisects the bracket on the integer count, one tree shared
by all exponents, splitting only at levels whose pull is negligible,
until each interval holds one exponent or a cluster no such level can
split.  A single exponent is then inverted in closed form from a sample
next to it; a cluster of q (coincident exponents, or complex-conjugate
eigenvalues of one modulus) from the power sums sum_a lambda_a^k,
k = 1..q, which the moments of the same grid values at the cluster's
two isolating levels give.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .hamiltonian import (OVERFLOW_GUARD, RingBandWorkspace, ScaleOverflowError,
                          SpectrumCollisionError, resolvent_corners_open)
from .operators import BlockTridiagonalSystem
from .transfer import (ExponentSet, NumericalError, one_step_transfer,
                       stable_exponents)

_MAX_BRACKET_GROWTH = 64

#: a level is clean when m + (grid mean) lies this close to its integer
#: count: every exponent is then about log(1/ISOLATION_DEV)/(nP) away
#: and pulls the grid mean by less than this.  The two-grid identity of
#: a level that is not clean is fitted to the same tolerance.
ISOLATION_DEV = 1e-10


@dataclass(frozen=True)
class QuadratureSpec:
    """Uniform trapezoid rule of n_phi angles on the periodic interval."""

    n_phi: int = 64

    def __post_init__(self):
        if self.n_phi < 4:
            raise ValueError("n_phi must be at least 4")


@dataclass(frozen=True)
class CountingSample:
    """One evaluation of the counting function at level xi.

    raw is the complex quadrature value of the plain grid (of the
    half-shifted one where the plain grid hit the spectrum), including
    the 1/2 offset; residual is the distance of 2m*raw.re from its
    nearest integer.  count is the number of exponents below xi, in
    [0, 2m]; next to an exponent it is decided from two grids, and
    2m*raw.re need not round to it.  error is None for a computed sample
    and a short tag when the point failed entirely.
    """

    xi: float
    raw: complex
    count: int
    n_phi: int
    residual: float
    near_eigenvalue: bool
    error: str | None = None


@dataclass(frozen=True)
class _Level:
    """One P-angle grid of the counting integrand at level xi.

    total = m + (grid mean) equals sum_a 1/(1 - (lambda_a/w_0)^P), with
    w_0^P = e^{nP xi} times the grid phase, so dev, its distance from the
    integer count, is about the pull e^{-nP|xi - xi_a|} of the nearest
    exponent.
    """

    xi: float
    traces: np.ndarray
    shift: bool
    total: complex
    count: int
    dev: float

    def moments(self, n: int, xi_c: float, kmax: int) -> np.ndarray:
        """Grid means of (w/c)^k times the traces, k = 0..kmax, c = e^{n xi_c}.

        For k < P they equal sum_a (lambda_a/c)^k / (1 - (lambda_a/w_0)^P):
        the power sums over the exponents below xi, up to the same pull.
        """
        p = self.traces.size
        theta = (2.0 * math.pi / p) * (np.arange(p) + (0.5 if self.shift else 0.0))
        ratio = np.exp(n * (self.xi - xi_c) + 1j * theta)
        powers = np.cumprod(np.vstack([np.ones(p), np.tile(ratio, (kmax, 1))]), axis=0)
        return powers @ self.traces / p


def _trace_at(ws: RingBandWorkspace, energy: complex, xi: float, phi: float,
              context: str) -> complex:
    """The counting integrand at one angle, from one banded factorization.

    tr[z G_1n B_n - (1/z) G_n1 C_1] with z = e^{xi + i phi} and G the
    balanced ring resolvent at energy.
    """
    sys = ws.sys
    z = cmath.exp(complex(xi, phi))
    f = ws.factor(energy, "balanced", z)
    f.require_nonsingular(f"{context} at xi={xi:.6g}, phi={phi:.6g}")
    b11, b1n, bn1, bnn = f.corner_solve()
    return complex(z * np.trace(b1n @ sys.B[sys.n - 1])
                   - np.trace(bn1 @ sys.C[0]) / z)


def _level(ws: RingBandWorkspace, energy: complex, xi: float, n_phi: int,
           shift: bool) -> _Level:
    """The n_phi-angle grid at level xi, plain or shifted by half a step."""
    step = 2.0 * math.pi / (ws.n * n_phi)
    traces = np.empty(n_phi, dtype=complex)
    for j in range(n_phi):
        phi = (j + (0.5 if shift else 0.0)) * step
        traces[j] = _trace_at(ws, energy, xi, phi, "counting contour")
    total = ws.m + complex(traces.mean())
    count = min(max(int(math.floor(total.real + 0.5)), 0), 2 * ws.m)
    return _Level(xi=xi, traces=traces, shift=shift, total=total, count=count,
                  dev=abs(total - count))


def _two_grid_count(plus: complex, minus: complex, two_m: int) -> int | None:
    """The count from the totals of the plain and the half-shifted grid.

    The shift turns u_a = (lambda_a/w_0)^P into -u_a.  With one exponent
    near the level, T+ = J + 1/(1 - u) and T- = J + 1/(1 + u), so
    x = 1/(T+ - J) = 1 - u and y = 1/(T- - J) = 1 + u sum to 2, and the
    exponent lies below the level when |u| = |1 - x| < 1 (the u-form).
    In v = 1/u the same identity reads T+- = J - 1/(1 -+ v): x + y = -2,
    and the exponent lies above the level when |v| = |1 + x| < 1 (the
    v-form).  Each form is tried only on its own side, where x is of
    order 1 and the fit well conditioned; J is then the one integer that
    can fit.  None when neither fits within ISOLATION_DEV: two or more
    exponents are near the level.
    """
    for sign, ref in ((1, min(plus.real, minus.real)), (-1, max(plus.real, minus.real))):
        # on one of the grids Re(T - J) lies in [1/2, 1] for the u-form
        # and in [-1, -1/2] for the v-form
        j = math.floor(ref - 0.75 * sign + 0.5)
        if plus == j or minus == j:
            continue
        x, y = 1.0 / (plus - j), 1.0 / (minus - j)
        if (abs(x + y - 2 * sign) <= ISOLATION_DEV and abs(1.0 - sign * x) < 1.0
                and 0 <= j + sign <= two_m):
            return j + sign
    return None


def _decide(ws: RingBandWorkspace, energy: complex, xi: float,
            n_phi: int) -> tuple[_Level, bool]:
    """The count at level xi by the one rule of this module.

    A clean plain grid rounds; otherwise a clean half-shifted grid
    rounds; otherwise the two grids decide it in closed form
    (_two_grid_count).  Returns the plain grid (the shifted one if the
    plain one hit the spectrum) carrying the decided count, and whether
    the count stays undecided: two or more exponents near the level, or
    a collision that left only one grid that is not clean.  Raises
    SpectrumCollisionError when both grids hit the spectrum.
    """
    try:
        plain = _level(ws, energy, xi, n_phi, False)
        if plain.dev <= ISOLATION_DEV:
            return plain, False
    except SpectrumCollisionError:
        plain = None
    shifted = _level(ws, energy, xi, n_phi, True)
    if plain is None:
        return shifted, shifted.dev > ISOLATION_DEV
    if shifted.dev <= ISOLATION_DEV:
        count = shifted.count
    else:
        count = _two_grid_count(plain.total, shifted.total, 2 * ws.m)
        if count is None:
            return plain, True
    return replace(plain, count=count, dev=abs(plain.total - count)), False


def counting_integrand(sys: BlockTridiagonalSystem, energy: complex, xi: float,
                       phi: float) -> complex:
    """Trace of the corner-block combination at one contour angle.

    Value of tr[z G_1n B_n - (1/z) G_n1 C_1] with z = e^{xi + i phi} and
    G the balanced ring resolvent at energy.
    """
    return _trace_at(RingBandWorkspace(sys), energy, xi, phi, "counting integrand")


def counting_function(sys: BlockTridiagonalSystem, energy: complex, xi: float,
                      quad: QuadratureSpec | None = None,
                      workspace: RingBandWorkspace | None = None) -> CountingSample:
    """Counting function at level xi through the balanced contour.

    raw = 1/2 + (1/2m) * (grid average of counting_integrand); the 1/2
    absorbs the constant term of the logarithmic derivative, which is
    never quadratured.  The count is decided by the rule of _decide on
    quad.n_phi angles, one grid on a clean level and two next to an
    exponent.  near_eigenvalue is set when the rule cannot decide it:
    the count is then round(2m * raw.re) and may be off.
    """
    if abs(xi) > OVERFLOW_GUARD:
        raise ScaleOverflowError(f"|xi| = {abs(xi):.3g} exceeds the overflow guard")
    n_phi = (quad or QuadratureSpec()).n_phi
    ws = workspace if workspace is not None else RingBandWorkspace(sys)
    kept, near = _decide(ws, energy, xi, n_phi)
    raw = 0.5 + complex(kept.traces.mean()) / (2.0 * sys.m)
    t = 2.0 * sys.m * raw.real
    return CountingSample(xi=xi, raw=raw, count=kept.count, n_phi=n_phi,
                          residual=abs(t - math.floor(t + 0.5)), near_eigenvalue=near)


def counting_integrand_corner(sys: BlockTridiagonalSystem, energy: complex,
                              xi: float, phi: float, g=None) -> complex:
    """The paper's corner-block value of the counting integrand at one angle.

    Uses the z-independent open-chain corner blocks g and two m x m
    Schur complements.  z^n appears explicitly, so the overflow guard
    on n*|xi| applies, and well inside it the inner matrices must still
    resolve e^{n|xi - xi_a|}: this is a cross-check of
    counting_integrand, not a counting path.
    """
    if sys.n * abs(xi) > OVERFLOW_GUARD:
        raise ScaleOverflowError(
            f"n*|xi| = {sys.n * abs(xi):.1f} exceeds the overflow guard; "
            "use the balanced path")
    if g is None:
        g = resolvent_corners_open(sys, energy)
    big_z = cmath.exp(complex(sys.n * xi, sys.n * phi))
    bg1n, bg11 = sys.B[sys.n - 1] @ g.b_1n, sys.B[sys.n - 1] @ g.b_11
    cgnn, cgn1 = sys.C[0] @ g.b_nn, sys.C[0] @ g.b_n1
    eye = np.eye(sys.m)
    upper = big_z * bg1n + eye
    lower = cgn1 / big_z + eye
    try:
        t1 = -np.trace(np.linalg.inv(upper - bg11 @ np.linalg.solve(lower, cgnn)))
        t2 = np.trace(np.linalg.inv(lower - cgnn @ np.linalg.solve(upper, bg11)))
    except np.linalg.LinAlgError as exc:
        raise SpectrumCollisionError(
            f"corner-path inner matrix singular at z^n = {big_z:.6g}") from exc
    return complex(t1 + t2)


def counting_sweep(sys: BlockTridiagonalSystem, energy: complex, xi_grid,
                   quad: QuadratureSpec | None = None) -> list[CountingSample]:
    """Counting samples over a strictly increasing grid of finite levels.

    Per-point spectrum collisions are recorded in the sample's error
    field and the sweep continues; counts are monotone non-decreasing
    away from flagged points.
    """
    xi_grid = [float(x) for x in xi_grid]
    if not all(math.isfinite(x) for x in xi_grid):
        raise ValueError("xi grid must be finite")
    if any(b <= a for a, b in zip(xi_grid, xi_grid[1:])):
        raise ValueError("xi grid must be strictly increasing")
    if quad is None:
        quad = QuadratureSpec()
    out = []
    ws = RingBandWorkspace(sys)
    for x in xi_grid:
        try:
            out.append(counting_function(sys, energy, x, quad, workspace=ws))
        except SpectrumCollisionError:
            out.append(CountingSample(
                xi=x, raw=complex(math.nan, math.nan), count=-1,
                n_phi=quad.n_phi, residual=math.nan, near_eigenvalue=True,
                error="spectrum_collision"))
    return out


# ---------------------------------------------------------------------------
# exponent location: count isolation, then closed-form or moment inversion
# ---------------------------------------------------------------------------

#: a closed-form estimate is used while the sample lies within
#: _CAPTURE/(nP) of the exponent; farther out f rounds to 0 or 1 and
#: only the side of the exponent is known
_CAPTURE = 25.0

#: the closed-form iteration stops once a step falls below this
_STEP_TOL = 1e-13

#: closed-form steps per exponent once it is captured
_MAX_STEPS = 4

#: bracket steps that bring a sample within capture of the exponent
_MAX_APPROACH = 60

#: intervals are split this much of their width off the middle: a
#: symmetric bracket would otherwise sample the exact level of a
#: zero-exponent pair, whose two complex-conjugate pulls cancel and
#: mimic an isolating level
_SPLIT_OFFSET = 0.01 * math.sqrt(2.0)


def _default_bracket(sys: BlockTridiagonalSystem, energy: complex):
    # |eig(T)| is bounded by the product of one-step norms, so the
    # per-step exponents cannot leave [-max log||t^-1||, max log||t||]
    his, los = [], []
    for k in range(sys.n):
        t = one_step_transfer(sys, k, energy)
        his.append(math.log(np.linalg.norm(t, np.inf)))
        los.append(math.log(np.linalg.norm(np.linalg.inv(t), np.inf)))
    return -(max(los) + 0.1), max(his) + 0.1


def _find_split(level, a: _Level, b: _Level, q: int, n_p: int):
    """An isolating level strictly between a and b, or None.

    The middle is tried first.  A level that does not isolate sits about
    d = log(1/dev)/(nP) from its nearest exponent, on an unknown side, so
    both points d plus the isolation distance away clear that exponent;
    they are tried next, breadth first, up to 2q + 1 levels in all.
    Points closer than the isolation distance to a or b cannot separate
    anything and are skipped.
    """
    isolation = -math.log(ISOLATION_DEV) / n_p
    queue = [a.xi + (0.5 + _SPLIT_OFFSET) * (b.xi - a.xi)]
    tried = 0
    while queue and tried < 2 * q + 1:
        x = queue.pop(0)
        if not a.xi + isolation < x < b.xi - isolation:
            continue
        s = level(x)
        tried += 1
        if s.dev <= ISOLATION_DEV and a.count <= s.count <= b.count:
            return s
        d = max(0.0, -math.log(max(s.dev, ISOLATION_DEV))) / n_p
        queue += [x - d - 1.1 * isolation, x + d + 1.1 * isolation]
    return None


def _invert_singleton(level, a: _Level, b: _Level, n_p: int, tol: float):
    """The one exponent between the isolating levels a and b.

    f = total - count(a) = 1/(1 - u) with |u| = e^{nP(xi_a - xi)}, up to
    the pull of the exponents outside (a, b), so
    xi_a = xi + log|1 - 1/f| / (nP).  Far from the exponent f rounds to
    0 or 1: only the side is known, and the bracket shrinks by
    bisection or by the jump the saturated estimate still bounds.  Once
    captured, each sample sits one radial step 1/(nP) from the last
    estimate, on alternating sides, never on the estimate itself, where
    a grid angle can hit the eigenvalue.  Returns (xi_a, ok), ok when
    the last two estimates agree within tol and lie between a and b.
    """
    lo, hi = a.xi, b.xi
    x = 0.5 * (lo + hi)
    estimates = []
    for _ in range(_MAX_APPROACH):
        f = level(x).total - a.count
        g = abs(1.0 - 1.0 / f) if f != 0 else math.inf
        lu = math.log(g) if g > 0.0 else -math.inf
        if abs(lu) <= _CAPTURE:
            estimates.append(x + lu / n_p)
            if len(estimates) == _MAX_STEPS or (
                    len(estimates) > 1 and abs(estimates[-1] - estimates[-2]) < _STEP_TOL):
                break
            x = estimates[-1] + (1.0 if len(estimates) % 2 else -1.0) / n_p
            continue
        estimates = []
        if lu < 0:
            hi = x
        else:
            lo = x
        # the saturated estimate still bounds the exponent from x's side:
        # jump to the bound when it cuts deeper than bisection
        mid = 0.5 * (lo + hi)
        bound = x + lu / n_p
        x = bound if (lo < bound < mid if lu < 0 else mid < bound < hi) else mid
    if not estimates:
        return 0.5 * (lo + hi), False
    ok = (len(estimates) > 1 and abs(estimates[-1] - estimates[-2]) <= tol
          and a.xi < estimates[-1] < b.xi)
    return estimates[-1], ok


def _group_roots(a: _Level, b: _Level, n: int):
    """Exponents of the q > 1 group between the isolating levels a and b.

    The difference of the two levels' moments gives the power sums
    p_k = sum (lambda/c)^k over the group; Newton's identities turn
    p_1..p_q into the group's characteristic polynomial, whose roots
    give the exponents.  Roots that coincide within the error the power
    sums allow are one multiplet: only their centre p_1/q is well
    conditioned, so all of them take its modulus.  Returns the values,
    an error bound for each, and the misfit of the unused sum p_{q+1}.
    """
    q = b.count - a.count
    xi_c = 0.5 * (a.xi + b.xi)
    p = b.moments(n, xi_c, q + 1) - a.moments(n, xi_c, q + 1)
    coef = [1.0 + 0j]
    for k in range(1, q + 1):
        coef.append(-sum(coef[k - i] * p[i] for i in range(1, k + 1)) / k)
    mu = np.roots(coef)
    if np.any(mu == 0):
        return [xi_c] * q, np.full(q, math.inf), math.inf
    # error of the power sums: the measured error of p_0, the pulls at
    # both levels, and rounding grown by |w/c|^(q+1) at the upper level
    growth = math.exp(n * (b.xi - xi_c) * (q + 1))
    eps = (abs(p[0] - q) + a.dev + b.dev
           + 1e-15 * growth * float(np.max(np.abs(b.traces))))
    centre = p[1] / q
    spread = 2.0 * (q * eps) ** (1.0 / q) * max(1.0, abs(centre))
    if np.all(np.abs(mu - centre) <= spread):
        mu = np.full(q, centre)
        err = np.full(q, spread)
    else:
        slope = np.abs(np.polyval(np.polyder(coef), mu))
        with np.errstate(divide="ignore"):
            err = np.minimum(spread, eps * np.maximum(1.0, np.abs(mu)) ** q / slope)
    values = [xi_c + math.log(abs(r)) / n for r in mu]
    misfit = abs(complex(np.sum(mu ** (q + 1))) - p[q + 1]) / max(
        1.0, float(np.sum(np.abs(mu) ** (q + 1))))
    return values, err / (n * np.abs(mu)), misfit


def _invert_group(level, a: _Level, b: _Level, n: int, n_phi: int, tol: float):
    """The q > 1 exponents between the isolating levels a and b.

    A first pass on a and b places the group; the second takes the
    moments at new levels a margin outside it, where the pull of the
    group, e^{-nP margin}, and the rounding grown by e^{n(q+1) margin}
    balance near machine precision.  A new level replaces the old one
    only if it isolates with the same count, and the pass with the
    smaller error bound is kept.  Returns (values, ok), ok when every
    value has an error bound within tol and the roots reproduce the
    unused power sum within n*tol.
    """
    q = b.count - a.count
    first = (a, b) + _group_roots(a, b, n)
    margin = -math.log(np.finfo(float).eps) / (n * (n_phi + q + 1))
    s = level(min(first[2]) - margin)
    if s.dev <= ISOLATION_DEV and s.count == a.count:
        a = s
    s = level(max(first[2]) + margin)
    if s.dev <= ISOLATION_DEV and s.count == b.count:
        b = s
    second = (a, b) + _group_roots(a, b, n)
    a, b, values, err, misfit = min(first, second, key=lambda r: float(np.max(r[3])))
    ok = (misfit <= n * tol and bool(np.all(err <= tol))
          and all(a.xi < x < b.xi for x in values))
    return values, ok


def locate_exponents(sys: BlockTridiagonalSystem, energy: complex,
                     bracket=None, tol: float = 1e-6) -> ExponentSet:
    """All 2m exponents, with multiplicity, from the counting function.

    Works where the direct eigenvalue oracle loses small exponents to
    rounding.  Every sample is one P-angle grid of the balanced trace
    integrand.  The two bracket edges must count 0 and 2m.  One shared
    bisection tree on the integer count then splits the bracket at
    isolating levels (quantization deviation below ISOLATION_DEV) until
    each interval holds one exponent or a cluster no isolating level
    can split.  A single exponent is inverted in closed form from the
    trapezoid identity; a cluster of q from the power sums that the
    moments of its two isolating levels give.  Coincident exponents and
    distinct ones of equal modulus (complex-conjugate eigenvalues) come
    out of the same cluster rule.

    reliable is False unless both bracket counts were decided without a
    flag by the counting rule of _decide (every other isolating level is
    clean by construction), every value lies inside its isolating
    interval, and every inversion was consistent: the last two
    closed-form estimates within tol, or a cluster's roots reproducing
    its unused power sum with an error bound within tol.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    n, two_m = sys.n, 2 * sys.m
    n_phi = int(np.clip(1024 // n, 16, 256))
    n_p = n * n_phi
    ws = RingBandWorkspace(sys)

    def level(xi: float) -> _Level:
        try:
            return _level(ws, energy, xi, n_phi, False)
        except SpectrumCollisionError:
            return _level(ws, energy, xi, n_phi, True)

    explicit = bracket is not None
    if explicit:
        lo, hi = float(bracket[0]), float(bracket[1])
        if not lo < hi:
            raise ValueError("bracket invalid: lower edge must be below upper edge")
    else:
        lo, hi = _default_bracket(sys, energy)
    for _ in range(_MAX_BRACKET_GROWTH):
        low, low_near = _decide(ws, energy, lo, n_phi)
        if low.count == 0:
            break
        if explicit:
            raise ValueError("bracket invalid: count at the lower edge is not 0")
        lo -= max(1.0, 0.25 * (hi - lo))
    else:
        raise NumericalError("could not establish a lower bracket with count 0")
    for _ in range(_MAX_BRACKET_GROWTH):
        high, high_near = _decide(ws, energy, hi, n_phi)
        if high.count == two_m:
            break
        if explicit:
            raise ValueError("bracket invalid: count at the upper edge is not 2m")
        hi += max(1.0, 0.25 * (hi - lo))
    else:
        raise NumericalError("could not establish an upper bracket with count 2m")

    reliable = not (low_near or high_near)
    values: list[float] = []
    stack = [(low, high)]
    while stack:
        a, b = stack.pop()
        q = b.count - a.count
        split = _find_split(level, a, b, q, n_p) if q > 1 else None
        if split is not None:
            stack += [(split, b), (a, split)]
        elif q == 1:
            x, ok = _invert_singleton(level, a, b, n_p, tol)
            values.append(x)
            reliable = reliable and ok
        elif q > 1:
            found, ok = _invert_group(level, a, b, n, n_phi, tol)
            values += found
            reliable = reliable and ok
    return ExponentSet(values=tuple(sorted(values)), reliable=reliable)


# ---------------------------------------------------------------------------
# sum rules
# ---------------------------------------------------------------------------

def _log_abs_det_b(sys: BlockTridiagonalSystem) -> float:
    total = 0.0
    for b in sys.B:
        sign, lad = np.linalg.slogdet(b)
        total += float(lad)
    return total


def _ring_logdet_average(sys: BlockTridiagonalSystem, energy: complex,
                         xi: float) -> float:
    """Full-circle average of log|det[ring(e^{n xi + i phi}) - energy]|.

    Evaluated on 512 angles through the balanced variant at radius e^xi,
    whose determinant is identical and whose entries stay at scale e^|xi|.
    """
    ws = RingBandWorkspace(sys)
    n = sys.n
    n_phi = 512
    for shift in (False, True):
        vals = np.empty(n_phi)
        ok = True
        for j in range(n_phi):
            phi = (j + (0.5 if shift else 0.0)) * 2.0 * math.pi / n_phi
            w = cmath.exp(complex(xi, phi / n))
            lad = ws.factor(energy, "balanced", w).logabsdet()
            if not math.isfinite(lad):
                ok = False
                break
            vals[j] = lad
        if ok:
            return float(vals.mean())
    raise SpectrumCollisionError(
        f"determinant contour at xi={xi:.6g} touches the spectrum on both grids")


def jensen_relation(sys: BlockTridiagonalSystem, energy: complex, xi: float,
                    exponents: ExponentSet | None = None):
    """Both sides of the log-determinant sum rule at level xi.

    lhs = (1/2m) sum_a (|xi_a - xi| + xi_a + xi) - xi from the exponents
    (the given ones, else the direct oracle where reliable and the
    locator otherwise); rhs from the full-circle quadrature of log|det|
    minus the coupling normalization.  Returns (lhs, rhs).
    """
    xs = exponents
    if xs is None:
        xs = stable_exponents(sys, energy)
        if not xs.reliable:
            xs = locate_exponents(sys, energy)
    m, n = sys.m, sys.n
    lhs = sum(abs(x - xi) + x + xi for x in xs.values) / (2.0 * m) - xi
    rhs = (_ring_logdet_average(sys, energy, xi) / (m * n)
           - _log_abs_det_b(sys) / (m * n))
    return lhs, rhs


def positive_exponent_sum(sys: BlockTridiagonalSystem, energy: complex) -> float:
    """(1/m) * (sum of positive exponents) from quadrature alone.

    The unit-radius case of the sum rule; no exponents are computed.
    """
    m, n = sys.m, sys.n
    return (_ring_logdet_average(sys, energy, 0.0) / (m * n)
            - _log_abs_det_b(sys) / (m * n))


def total_exponent_sum(sys: BlockTridiagonalSystem) -> float:
    """Sum of all 2m exponents from the coupling determinants only."""
    total = 0.0
    for c, b in zip(sys.C, sys.B):
        sign_c, lad_c = np.linalg.slogdet(c)
        sign_b, lad_b = np.linalg.slogdet(b)
        total += float(lad_c) - float(lad_b)
    return total / sys.n


def imaginary_part_check(sys: BlockTridiagonalSystem, energy: complex,
                         xi: float) -> float:
    """|64-angle grid average of Im(counting integrand)|; vanishes when valid.

    Individual samples need not be real; only the average is.  The
    average is 2m * Im(raw) of counting_function at its default grid.
    """
    return 2 * sys.m * abs(counting_function(sys, energy, xi).raw.imag)
