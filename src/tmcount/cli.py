"""Command-line front end: generate systems, sweep, locate, check.

Exit codes: 0 success, 2 usage errors (argparse), 3 file/validation
failures, 4 numerical failures (spectrum collisions, overflow guards,
failed residual checks, unreliable results).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import math
import sys as _sys

import numpy as np

from .anderson import AndersonConfig, anderson_meta, generate
from .counting import (QuadratureSpec, counting_integrand,
                       counting_integrand_corner, counting_sweep,
                       imaginary_part_check, jensen_relation, locate_exponents,
                       total_exponent_sum)
from .hamiltonian import (SpectrumCollisionError, duality_residual,
                          resolvent_corners_open, similarity_transform_check)
from .operators import ValidationError, load_system, save_system
from .transfer import NumericalError, stable_exponents

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_energy(text: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise ValueError(f"energy must be 're' or 're,im', got {text!r}")
    values = [float(p) for p in parts]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"energy must be finite, got {text!r}")
    return complex(values[0], values[1] if len(values) == 2 else 0.0)


def _open_out(path):
    if path is None or path == "-":
        return _sys.stdout, False
    return open(path, "w", newline=""), True


def cmd_gen_anderson(args) -> int:
    cfg = AndersonConfig(wx=args.wx, wy=args.wy, length=args.length,
                         disorder=args.disorder, seed=args.seed)
    system = generate(cfg)
    save_system(system, args.output, meta=anderson_meta(cfg))
    print(f"wrote {args.output} (m={system.m}, n={system.n})", file=_sys.stderr)
    return EXIT_OK


def cmd_count(args) -> int:
    system = load_system(args.system)
    if not (math.isfinite(args.xi_min) and math.isfinite(args.xi_max)):
        raise ValueError(f"--xi-min and --xi-max must be finite, got "
                         f"{args.xi_min!r} and {args.xi_max!r}")
    grid = np.linspace(args.xi_min, args.xi_max, args.xi_steps)
    quad = QuadratureSpec(n_phi=args.nphi)
    samples = counting_sweep(system, _parse_energy(args.energy), grid, quad)
    fh, close = _open_out(args.output)
    try:
        writer = csv.writer(fh)
        writer.writerow(["xi", "re_raw", "im_raw", "count", "n_phi", "flag"])
        for s in samples:
            if s.error is not None:
                writer.writerow([_fmt(s.xi), "", "", "", s.n_phi, s.error])
            else:
                flag = "near_eigenvalue" if s.near_eigenvalue else ""
                writer.writerow([_fmt(s.xi), _fmt(s.raw.real), _fmt(s.raw.imag),
                                 s.count, s.n_phi, flag])
    finally:
        if close:
            fh.close()
    ok = sum(1 for s in samples if s.error is None)
    return EXIT_OK if ok >= 1 else EXIT_NUMERICAL


def cmd_exponents(args) -> int:
    system = load_system(args.system)
    energy = _parse_energy(args.energy)
    status = EXIT_OK
    if args.method == "direct":
        xs = stable_exponents(system, energy)
        label = "direct"
        if not xs.reliable:
            label = "direct_unreliable"
            status = EXIT_NUMERICAL
            print("warning: direct oracle unreliable at this size "
                  "(exponent spread beyond double precision); "
                  "use --method bisect", file=_sys.stderr)
    else:
        xs = locate_exponents(system, energy, tol=args.tol)
        label = "bisect"
        if not xs.reliable:
            label = "bisect_unreliable"
            status = EXIT_NUMERICAL
            print("warning: located exponents unreliable (a slice's estimates "
                  "did not reproduce the counts of its neighbouring levels, or "
                  "the two estimates of an exponent differ by more than --tol)",
                  file=_sys.stderr)
    fh, close = _open_out(args.output)
    try:
        writer = csv.writer(fh)
        writer.writerow(["index", "xi", "method"])
        for i, x in enumerate(xs.values):
            writer.writerow([i, _fmt(x), label])
    finally:
        if close:
            fh.close()
    return status


def _clear_level(xi: float, exponents) -> float:
    """The first of xi, xi + 0.02, xi + 0.04, ... at least 0.02 from every
    exponent, so the Jensen contour stays off the spectrum."""
    while min(abs(x - xi) for x in exponents) < 0.02:
        xi += 0.02
    return xi


def _check_lines(system, energy, seed):
    rng = np.random.default_rng(seed)
    n = system.n
    results = []

    def draw_z(max_log):
        lz = rng.uniform(-max_log, max_log)
        return cmath.exp(complex(lz, rng.uniform(0.0, 2.0 * math.pi)))

    # one source of exponents for every line below; the direct oracle
    # only decides whether the duality line can run
    located = locate_exponents(system, energy, tol=1e-8)

    if stable_exponents(system, energy).reliable:
        worst = duality_residual(system, energy,
                                 [draw_z(math.log(2.0)) for _ in range(20)])
        results.append(("duality residual (20 random z)", worst, 1e-8))
    else:
        results.append(("duality residual", None,
                        "skipped: transfer product beyond double precision"))

    worst = max(similarity_transform_check(system, draw_z(min(math.log(2.0), 30.0 / n)))
                for _ in range(10))
    results.append(("similarity residual (10 random z)", worst, 1e-10))

    levels = [_clear_level(xi, located.values) for xi in (0.0, 0.31)]
    jmax = 0.0
    for xi in levels:
        lhs, rhs = jensen_relation(system, energy, xi, exponents=located)
        jmax = max(jmax, abs(lhs - rhs))
    results.append((f"jensen |lhs-rhs| (xi={levels[0]:.3g}, {levels[1]:.3g})",
                    jmax, 1e-4))

    mismatch = abs(sum(located.values) - total_exponent_sum(system))
    results.append(("total-sum mismatch (located)", mismatch, 1e-8))

    imax = max(imaginary_part_check(system, energy, xi) for xi in (0.11, 0.47))
    results.append(("imaginary-part average (2 xi)", imax, 1e-6))

    g = resolvent_corners_open(system, energy)
    worst = 0.0
    for _ in range(5):
        xi = rng.uniform(-15.0 / n, 15.0 / n)
        phi = rng.uniform(0.0, 2.0 * math.pi / n)
        a = counting_integrand(system, energy, xi, phi)
        b = counting_integrand_corner(system, energy, xi, phi, g=g)
        worst = max(worst, abs(a - b))
    results.append(("corner vs balanced integrand (5 pts)", worst, 1e-8))
    return results


def cmd_check(args) -> int:
    system = load_system(args.system)
    energy = _parse_energy(args.energy)
    try:
        results = _check_lines(system, energy, args.seed)
    except SpectrumCollisionError as exc:
        print(f"E on spectrum: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL
    all_ok = True
    for name, value, tol in results:
        if value is None:
            print(f"{name:42s} {tol}")
            continue
        ok = value < tol
        all_ok = all_ok and ok
        verdict = "PASS" if ok else "FAIL"
        print(f"{name:42s} {value:12.3e}  [tol {tol:.0e}]  {verdict}")
    print(f"overall: {'PASS' if all_ok else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmcount",
        description="Transfer-matrix exponent counting via ring-resolvent contours.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-anderson", help="generate a disordered bar system file")
    p.add_argument("--wx", type=int, required=True)
    p.add_argument("--wy", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--disorder", type=float, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen_anderson)

    p = sub.add_parser("count", help="sweep the counting function, emit CSV")
    p.add_argument("--system", required=True)
    p.add_argument("--energy", default="0")
    p.add_argument("--xi-min", type=float, default=-2.0)
    p.add_argument("--xi-max", type=float, default=2.0)
    p.add_argument("--xi-steps", type=int, default=81)
    p.add_argument("--nphi", type=int, default=64)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("exponents", help="compute the 2m exponents, emit CSV")
    p.add_argument("--system", required=True)
    p.add_argument("--energy", default="0")
    p.add_argument("--method", choices=("direct", "bisect"), default="bisect")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("check", help="run the residual identity suite")
    p.add_argument("--system", required=True)
    p.add_argument("--energy", default="0")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        # before ValueError: LinAlgError is one of its subclasses
        print(f"numerical error: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    _sys.exit(main())
