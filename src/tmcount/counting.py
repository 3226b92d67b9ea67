"""Counting function of the exponents via contour quadrature and one pencil.

The fraction of exponents below a level xi is recovered from corner
blocks of the balanced ring resolvent sampled on the circle of radius
e^xi.  The integrand is periodic in the angle with period 2*pi/n, so a
uniform trapezoid rule converges geometrically away from the jumps; the
average is the raw value, and 2m times it rounds to an integer count.
This is the one contour path: the balanced ring keeps its entries at
the scale e^|xi|, so it holds at any length.  The paper's open-chain
corner formula, in which z^n appears explicitly, is kept only as the
one-angle value counting_integrand_corner, a cross-check that is
accurate while n*|xi| is small enough for its inner matrices to
resolve e^{n|xi - xi_a|}.

For the P-angle trapezoid rule the identity m + (grid mean) =
sum_a 1/(1 - u_a) is exact, with u_a = (lambda_a/w_0)^P, lambda_a the
eigenvalues of the transfer matrix and w_0 = e^{n xi} times the grid
phase, so each exponent pulls the grid mean off its integer count by
about e^{-nP|xi - xi_a|}.  A clean level (pull below ISOLATION_DEV)
rounds.

Next to an exponent, and for locating, one more factorization gives
the answer in closed form.  By the duality relation the ring at z^n is
singular exactly where z^n is a transfer eigenvalue, and at a fixed
level every other angle differs from one factored ring only in its two
corner blocks, a rank-2m update.  Its 2m x 2m pencil (_pencil) has the
eigenvalues t_a = lambda_a/z0^n, so |t_a| = e^{n(xi_a - xi)}: the count
is #{|t_a| < 1}, flagged near_eigenvalue only when an exponent lies
within rounding of the level, and every exponent near the level is
xi + log|t_a|/n, with an error of about eps e^{n|xi_a - xi|}/n.  The
locator slices the bracket at levels close enough that every exponent
has such an estimate from the level on either side.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .hamiltonian import (OVERFLOW_GUARD, BandFactor, RingBandWorkspace,
                          ScaleOverflowError, SpectrumCollisionError,
                          resolvent_corners_open)
from .operators import BlockTridiagonalSystem
from .transfer import ExponentSet, NumericalError, one_step_transfer

_MAX_BRACKET_GROWTH = 64

#: a level is clean when m + (grid mean) lies this close to its integer
#: count: every exponent is then about log(1/ISOLATION_DEV)/(nP) away
#: and pulls the grid mean by less than this.  A level that is not
#: clean is counted by the pencil and flagged when some n|xi_a - xi| is
#: below the same tolerance.
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
    [0, 2m]; next to an exponent it is decided by the pencil, and
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


def _corner_trace(f: BandFactor, z: complex) -> complex:
    """tr[z G_1n B_n - (1/z) G_n1 C_1], G the inverse factored in f at z."""
    bn_h, c1_h = f.workspace.closure_adjoints
    b11, b1n, bn1, bnn = f.corner_solve()
    return complex(z * np.vdot(bn_h, b1n) - np.vdot(c1_h, bn1) / z)


def _grid_mean(ws: RingBandWorkspace, energy: complex, xi: float, n_phi: int,
               value) -> complex:
    """Mean of value(f, z) over the n_phi-angle grid z = e^{xi + i phi}.

    f is the balanced ring factored at z.  The plain grid is evaluated
    first; where it hits the spectrum, the grid shifted by half a step.
    Raises SpectrumCollisionError when both hit.
    """
    step = 2.0 * math.pi / (ws.n * n_phi)
    for shift in (0.0, 0.5):
        values = np.empty(n_phi, dtype=complex)
        try:
            for j in range(n_phi):
                z = cmath.exp(complex(xi, (j + shift) * step))
                f = ws.factor(energy, z)
                if f.exact_singular:
                    f.require_nonsingular(f"contour at xi={xi:.6g}, z={z:.6g}")
                values[j] = value(f, z)
        except SpectrumCollisionError:
            continue
        return complex(values.mean())
    raise SpectrumCollisionError(
        f"contour at xi={xi:.6g} touches the spectrum on both grids")


def _pencil(ws: RingBandWorkspace, energy: complex, xi: float,
            n_phi: int) -> np.ndarray:
    """t_a = lambda_a/z0^n for all 2m transfer eigenvalues, from one factorization.

    z0 = e^{xi + i phi0}, with phi0 a quarter step of the n_phi-angle
    grid, so it lies on neither count grid.  Scaling the two corner
    blocks of the ring factored at z0 by t and 1/t gives a ring similar
    to the plain ring at z0^n t, a rank-2m update.  With the corner
    blocks G of the factored inverse, Ca = (C_1/z0)[G_n1, G_nn] and
    Ba = z0 B_n [G_11, G_1n], the updated ring is singular exactly where
    det(A0 + t A1) vanishes, A0 = [Ca; [0, I] - Ba] and
    A1 = [[I, 0] - Ca; Ba].
    """
    sys, m = ws.sys, ws.m
    z0 = cmath.exp(complex(xi, 0.5 * math.pi / (ws.n * n_phi)))
    f = ws.factor(energy, z0)
    f.require_nonsingular(f"exponent pencil at xi={xi:.6g}")
    g11, g1n, gn1, gnn = f.corner_solve()
    ca = (sys.C[0] / z0) @ np.hstack([gn1, gnn])
    ba = (z0 * sys.B[ws.n - 1]) @ np.hstack([g11, g1n])
    eye, zero = np.eye(m), np.zeros((m, m))
    a0 = np.vstack([ca, np.hstack([zero, eye]) - ba])
    a1 = np.vstack([np.hstack([eye, zero]) - ca, ba])
    # the pencil's far eigenvalues overflow or come out as inf/nan
    # quotients inside scipy; they lie far from every level in use
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return scipy.linalg.eigvals(a0, -a1)


def _decide(ws: RingBandWorkspace, energy: complex, xi: float,
            n_phi: int) -> tuple[complex, int, bool]:
    """The count at level xi by the one rule of this module.

    Returns the grid mean of _grid_mean, the count, and whether it is
    flagged.  A clean grid rounds; otherwise the count is #{|t_a| < 1}
    of the pencil at xi, flagged when an exponent lies within rounding
    of the level, some |log|t_a|| <= ISOLATION_DEV.  A grid that hits
    the spectrum is never clean: an exponent lies at the level.  Raises
    SpectrumCollisionError when both grids or the pencil hit the spectrum.
    """
    mean = _grid_mean(ws, energy, xi, n_phi, _corner_trace)
    total = ws.m + mean
    count = min(max(int(math.floor(total.real + 0.5)), 0), 2 * ws.m)
    if abs(total - count) <= ISOLATION_DEV:
        return mean, count, False
    t = np.abs(_pencil(ws, energy, xi, n_phi))
    with np.errstate(divide="ignore"):
        near = not np.all(np.abs(np.log(t)) > ISOLATION_DEV)
    return mean, int(np.sum(t < 1.0)), near


def counting_integrand(sys: BlockTridiagonalSystem, energy: complex, xi: float,
                       phi: float) -> complex:
    """Trace of the corner-block combination at one contour angle.

    Value of tr[z G_1n B_n - (1/z) G_n1 C_1] with z = e^{xi + i phi} and
    G the balanced ring resolvent at energy.
    """
    z = cmath.exp(complex(xi, phi))
    f = RingBandWorkspace(sys).factor(energy, z)
    f.require_nonsingular(f"counting integrand at xi={xi:.6g}, phi={phi:.6g}")
    return _corner_trace(f, z)


def counting_function(sys: BlockTridiagonalSystem, energy: complex, xi: float,
                      quad: QuadratureSpec | None = None,
                      workspace: RingBandWorkspace | None = None) -> CountingSample:
    """Counting function at level xi through the balanced contour.

    raw = 1/2 + (1/2m) * (grid average of counting_integrand); the 1/2
    absorbs the constant term of the logarithmic derivative, which is
    never quadratured.  The count is decided by the rule of _decide:
    the quad.n_phi-angle grid rounds on a clean level, and next to an
    exponent one more factorization, the pencil, counts exactly.
    near_eigenvalue is set when an exponent lies within rounding of the
    level, where the count may be off by the exponents at the level.
    """
    if abs(xi) > OVERFLOW_GUARD:
        raise ScaleOverflowError(f"|xi| = {abs(xi):.3g} exceeds the overflow guard")
    n_phi = (quad or QuadratureSpec()).n_phi
    ws = workspace if workspace is not None else RingBandWorkspace(sys)
    mean, count, near = _decide(ws, energy, xi, n_phi)
    raw = 0.5 + mean / (2.0 * sys.m)
    t = 2.0 * sys.m * raw.real
    return CountingSample(xi=xi, raw=raw, count=count, n_phi=n_phi,
                          residual=abs(t - math.floor(t + 0.5)), near_eigenvalue=near)


def counting_integrand_corner(sys: BlockTridiagonalSystem, energy: complex,
                              xi: float, phi: float, g=None) -> complex:
    """The paper's corner-block value of the counting integrand at one angle.

    Uses the z-independent open-chain corner blocks g, the tuple
    (b11, b1n, bn1, bnn) of resolvent_corners_open, and two m x m Schur
    complements.  z^n appears explicitly, so the overflow guard
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
    g11, g1n, gn1, gnn = g
    big_z = cmath.exp(complex(sys.n * xi, sys.n * phi))
    bg1n, bg11 = sys.B[sys.n - 1] @ g1n, sys.B[sys.n - 1] @ g11
    cgnn, cgn1 = sys.C[0] @ gnn, sys.C[0] @ gn1
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
# exponent location: pencil slices
# ---------------------------------------------------------------------------

def _default_bracket(sys: BlockTridiagonalSystem, energy: complex):
    # |eig(T)| is bounded by the product of one-step norms, so the
    # per-step exponents cannot leave [-max log||t^-1||, max log||t||]
    his, los = [], []
    for k in range(sys.n):
        t = one_step_transfer(sys, k, energy)
        his.append(math.log(np.linalg.norm(t, np.inf)))
        los.append(math.log(np.linalg.norm(np.linalg.inv(t), np.inf)))
    return -(max(los) + 0.1), max(his) + 0.1


def _reproduces(estimates: np.ndarray, xi: float, count: int, tol: float) -> bool:
    """Whether estimates put count exponents below xi, up to values within tol of it."""
    return bool(np.sum(estimates < xi - tol) <= count <= np.sum(estimates < xi + tol))


def locate_exponents(sys: BlockTridiagonalSystem, energy: complex,
                     bracket=None, tol: float = 1e-6) -> ExponentSet:
    """All 2m exponents, with multiplicity, from pencil slices.

    Works where the direct eigenvalue oracle loses small exponents to
    rounding.  A slice is one _pencil call at a level xi: its count
    #{|t_a| < 1} splits the exponents at xi, and its values
    xi + log|t_a|/n estimate every exponent, with an error of about
    eps e^{n|xi_a - xi|}/n.  The two bracket edges must count 0 and 2m.
    Between them the levels lie at most W/n apart, W = log(n tol/eps)/2,
    so every exponent has an estimate from the level on either side, each
    within about sqrt(eps tol/n); the one from the nearer level is
    reported.  Coincident exponents and distinct ones of equal modulus
    (complex-conjugate eigenvalues) need no rule of their own.

    reliable is False unless the estimates of each slice reproduce the
    counts of the neighbouring levels, up to values within tol of them,
    and the two estimates of every exponent agree within tol.  A tol at
    or below eps/n leaves no window and raises ValueError.
    """
    n, two_m = sys.n, 2 * sys.m
    eps = np.finfo(float).eps
    if not (math.isfinite(tol) and tol > eps / n):
        raise ValueError(f"tol must be finite and positive, above eps/n = "
                         f"{eps / n:.3g}, got {tol!r}")
    window = 0.5 * math.log(n * tol / eps)
    ws = RingBandWorkspace(sys)

    def slice_at(xi: float):
        t = np.abs(_pencil(ws, energy, xi, QuadratureSpec().n_phi))
        with np.errstate(divide="ignore"):
            return int(np.sum(t < 1.0)), np.sort(xi + np.log(t) / n)

    explicit = bracket is not None
    if explicit:
        lo, hi = float(bracket[0]), float(bracket[1])
        if not lo < hi:
            raise ValueError("bracket invalid: lower edge must be below upper edge")
    else:
        lo, hi = _default_bracket(sys, energy)
    for _ in range(_MAX_BRACKET_GROWTH):
        low = slice_at(lo)
        if low[0] == 0:
            break
        if explicit:
            raise ValueError("bracket invalid: count at the lower edge is not 0")
        lo -= max(1.0, 0.25 * (hi - lo))
    else:
        raise NumericalError("could not establish a lower bracket with count 0")
    for _ in range(_MAX_BRACKET_GROWTH):
        high = slice_at(hi)
        if high[0] == two_m:
            break
        if explicit:
            raise ValueError("bracket invalid: count at the upper edge is not 2m")
        hi += max(1.0, 0.25 * (hi - lo))
    else:
        raise NumericalError("could not establish an upper bracket with count 2m")

    steps = math.ceil((hi - lo) * n / window)
    levels = [lo + (hi - lo) * k / steps for k in range(steps + 1)]
    slices = [low] + [slice_at(x) for x in levels[1:-1]] + [high]
    # the exponents between levels k and k + 1 have the indices
    # first[k] .. first[k + 1] - 1 in every slice's sorted estimates; a
    # count that falls from one level to the next (which no slice
    # reproduces) is raised to its running maximum, so each index is
    # reported once
    first = np.maximum.accumulate([c for c, _ in slices])
    reliable, values = True, []
    for k in range(steps):
        (x0, x1), (c0, e0), (c1, e1) = levels[k:k + 2], slices[k], slices[k + 1]
        a, b = e0[first[k]:first[k + 1]], e1[first[k]:first[k + 1]]
        reliable = (reliable and _reproduces(e0, x1, c1, tol)
                    and _reproduces(e1, x0, c0, tol)
                    and bool(np.all(np.abs(a - b) <= tol)))
        values += np.where(a - x0 <= x1 - b, a, b).tolist()
    return ExponentSet(values=tuple(sorted(values)), reliable=reliable)


# ---------------------------------------------------------------------------
# sum rules
# ---------------------------------------------------------------------------

def _jensen_rhs(sys: BlockTridiagonalSystem, energy: complex, xi: float) -> float:
    """The quadrature side of the sum rule at level xi.

    (1/mn) times the full-circle average of
    log|det[ring(e^{n xi + i phi}) - energy]| less log|det B_1 ... B_n|.
    The average runs over the 512-angle grid of _grid_mean through the
    balanced ring at radius e^xi, whose determinant is identical and
    whose entries stay at scale e^|xi|.
    """
    average = _grid_mean(RingBandWorkspace(sys), energy, xi, 512,
                         lambda f, z: f.logabsdet()).real
    log_det_b = sum(float(np.linalg.slogdet(b)[1]) for b in sys.B)
    return (average - log_det_b) / (sys.m * sys.n)


def jensen_relation(sys: BlockTridiagonalSystem, energy: complex, xi: float,
                    exponents: ExponentSet | None = None):
    """Both sides of the log-determinant sum rule at level xi.

    lhs = (1/2m) sum_a (|xi_a - xi| + xi_a + xi) - xi from the exponents
    (the given ones, else those of locate_exponents); rhs from the
    full-circle quadrature of log|det| minus the coupling normalization.
    Returns (lhs, rhs).
    """
    xs = exponents if exponents is not None else locate_exponents(sys, energy)
    lhs = sum(abs(x - xi) + x + xi for x in xs.values) / (2.0 * sys.m) - xi
    return lhs, _jensen_rhs(sys, energy, xi)


def positive_exponent_sum(sys: BlockTridiagonalSystem, energy: complex) -> float:
    """(1/m) * (sum of positive exponents) from quadrature alone.

    The unit-radius case of the sum rule; no exponents are computed.
    """
    return _jensen_rhs(sys, energy, 0.0)


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
