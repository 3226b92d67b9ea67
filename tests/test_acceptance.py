"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured
values; plain ``pytest -v`` gives the one-line-per-criterion verdicts.
The random family is frozen by explicit seeds, so every number here is
reproducible.
"""

import cmath
import math
import time

import numpy as np
import pytest

from tmcount import (
    AndersonConfig,
    QuadratureSpec,
    clean_limit_exponents,
    counting_function,
    counting_integrand,
    counting_integrand_corner,
    counting_sweep,
    duality_residual,
    generate,
    jensen_relation,
    locate_exponents,
    positive_exponent_sum,
    resolvent_corners_open,
    similarity_transform_check,
    stable_exponents,
    total_exponent_sum,
)
from tmcount.cli import main as cli_main

from conftest import random_system

FAMILY_SEED = 108


def _report(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def family():
    """The 50-system random family shared by criteria 1-7."""
    rng = np.random.default_rng(FAMILY_SEED)
    out = []
    for _ in range(50):
        m = int(rng.choice([1, 2, 3]))
        n = int(rng.choice([3, 4, 5, 6]))
        system = random_system(rng, m, n)
        energy = complex(rng.normal(), rng.normal())
        out.append((system, energy))
    return out


@pytest.fixture(scope="module")
def sweep_points(family):
    """Criterion-3 sample set, reused by criterion 5.

    Ten levels per system, kept at distance > 0.05 from every exponent,
    evaluated at a fixed 256-point grid.
    """
    rng = np.random.default_rng(FAMILY_SEED + 3)
    quad = QuadratureSpec(n_phi=256)
    rows = []
    for system, energy in family:
        exps = stable_exponents(system, energy)
        assert exps.reliable
        vals = np.asarray(exps.values)
        lo, hi = vals[0] - 0.5, vals[-1] + 0.5
        picked = []
        for _ in range(10_000):
            if len(picked) == 10:
                break
            xi = float(rng.uniform(lo, hi))
            if np.min(np.abs(vals - xi)) > 0.05:
                picked.append(xi)
        assert len(picked) == 10
        for xi in picked:
            sample = counting_function(system, energy, xi, quad)
            oracle = int(np.sum(vals < xi))
            rows.append((system, energy, xi, sample, oracle))
    return rows


def test_criterion_01_duality(family):
    rng = np.random.default_rng(FAMILY_SEED + 1)
    t0 = time.perf_counter()
    worst = 0.0
    for system, energy in family:
        for _ in range(20):
            z = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            worst = max(worst, duality_residual(system, energy, z))
    dt = time.perf_counter() - t0
    _report(1, "duality", worst < 1e-8 and dt < 10.0,
            f"max residual {worst:.3e} [tol 1e-08], {dt:.2f} s [limit 10 s]")


def test_criterion_02_similarity(family):
    rng = np.random.default_rng(FAMILY_SEED + 2)
    worst = 0.0
    for system, _ in family:
        cap = 30.0 / system.n
        for _ in range(10):
            z = cmath.exp(complex(rng.uniform(-cap, cap),
                                  rng.uniform(0, 2 * math.pi)))
            worst = max(worst, similarity_transform_check(system, z))
    _report(2, "similarity", worst < 1e-10,
            f"max residual {worst:.3e} [tol 1e-10] with n|log z| <= 30")


def test_criterion_03_count_vs_oracle(sweep_points):
    mismatches = sum(1 for *_, s, oracle in sweep_points if s.count != oracle)
    worst = max(s.residual for *_, s, _ in sweep_points)
    _report(3, "counting vs direct oracle",
            mismatches == 0 and worst < 1e-4,
            f"{len(sweep_points)} points, {mismatches} count mismatches, "
            f"max residual {worst:.3e} [tol 1e-04] at n_phi=256")


def test_criterion_04_path_equivalence(family):
    rng = np.random.default_rng(FAMILY_SEED + 4)
    worst = 0.0
    for system, energy in family:
        g = resolvent_corners_open(system, energy)
        for _ in range(100):
            xi = float(rng.uniform(-2.0, 2.0))
            phi = float(rng.uniform(0.0, 2 * math.pi))
            a = counting_integrand(system, energy, xi, phi)
            b = counting_integrand_corner(system, energy, xi, phi, g=g)
            worst = max(worst, abs(a - b))
    _report(4, "balanced vs corner path", worst < 1e-8,
            f"max integrand difference {worst:.3e} [tol 1e-08] "
            f"over {100 * len(family)} points")


def test_criterion_05_imaginary_part(sweep_points):
    worst = max(2 * s_sys.m * abs(s.raw.imag)
                for s_sys, _, _, s, _ in sweep_points)
    _report(5, "imaginary part of contour average", worst < 1e-6,
            f"max |avg Im| {worst:.3e} [tol 1e-06] on criterion-3 points")


def test_criterion_06_jensen(family):
    rng = np.random.default_rng(FAMILY_SEED + 6)
    worst = 0.0
    worst_cor = 0.0
    for system, energy in family[:20]:
        vals = np.asarray(stable_exponents(system, energy).values)
        picked = []
        for _ in range(10_000):
            if len(picked) == 5:
                break
            xi = float(rng.uniform(-1.5, 1.5))
            if np.min(np.abs(vals - xi)) > 0.02:
                picked.append(xi)
        for xi in picked:
            lhs, rhs = jensen_relation(system, energy, xi)
            worst = max(worst, abs(lhs - rhs))
        oracle = float(np.sum(vals[vals > 0.0])) / system.m
        worst_cor = max(worst_cor,
                        abs(positive_exponent_sum(system, energy) - oracle))
    _report(6, "jensen relation", worst < 1e-4 and worst_cor < 1e-4,
            f"max |lhs-rhs| {worst:.3e}, max corollary gap {worst_cor:.3e} "
            f"[tol 1e-04] at n_phi=512")


def test_criterion_07_total_sum(family):
    worst = 0.0
    for system, energy in family:
        exps = stable_exponents(system, energy)
        assert exps.reliable
        worst = max(worst, abs(sum(exps.values) - total_exponent_sum(system)))
    _report(7, "total exponent sum", worst < 1e-8,
            f"max mismatch {worst:.3e} [tol 1e-08] over {len(family)} systems")


def test_criterion_08_clean_limit():
    cases = [
        (1, 1, 3.0),
        (2, 1, 4.0),
        (2, 1, 2.0),   # one propagating pair: a double exponent at zero
        (2, 2, 5.0),   # doubly degenerate decaying pair
        (3, 3, 5.0),   # two triple multiplets
    ]
    worst = 0.0
    t0 = time.perf_counter()
    for wx, wy, energy in cases:
        cfg = AndersonConfig(wx=wx, wy=wy, length=80, disorder=0.0, seed=1,
                             energy=energy)
        system = generate(cfg)
        oracle = np.asarray(clean_limit_exponents(cfg).values)
        got = np.asarray(locate_exponents(system, energy, tol=1e-6).values)
        assert got.shape == oracle.shape
        worst = max(worst, float(np.max(np.abs(got - oracle))))
    dt = time.perf_counter() - t0
    _report(8, "clean-limit bars", worst < 1e-5,
            f"max exponent error {worst:.3e} [tol 1e-05] "
            f"over {len(cases)} bars, {dt:.1f} s")


def _staircase_bar(wx, wy):
    cfg = AndersonConfig(wx=wx, wy=wy, length=80, disorder=18.0, seed=1)
    system = generate(cfg)
    t0 = time.perf_counter()
    samples = counting_sweep(system, 0.0, np.linspace(-2.0, 2.0, 81))
    located = np.asarray(locate_exponents(system, 0.0, tol=1e-6).values)
    dt = time.perf_counter() - t0
    counts = [s.count for s in samples]
    assert all(s.error is None for s in samples)
    return counts, located, dt


def test_criterion_09_staircase_regression():
    ok = True
    details = []
    for wx, wy in ((2, 2), (3, 3)):
        m2 = 2 * wx * wy
        counts, located, dt = _staircase_bar(wx, wy)
        monotone = all(b >= a for a, b in zip(counts, counts[1:]))
        full_range = counts[0] == 0 and counts[-1] == m2
        jumps = sum(1 for a, b in zip(counts, counts[1:]) if b > a)
        pair_gap = float(np.max(np.abs(located + located[::-1])))
        bar_ok = (monotone and full_range and located.size == m2
                  and pair_gap < 1e-3 and dt < 60.0)
        if wx == 2:
            # the narrow bar resolves every plateau at the 0.05 grid
            bar_ok = bar_ok and sorted(set(counts)) == list(range(9)) \
                and jumps == 8
        details.append(
            f"{wx}x{wy}: monotone={monotone}, counts 0..{counts[-1]}, "
            f"{jumps} grid jumps, {located.size} exponents, "
            f"pair asymmetry {pair_gap:.2e} [tol 1e-03], {dt:.1f} s [limit 60 s]")
        ok = ok and bar_ok
    _report(9, "staircase regression", ok, "; ".join(details))


def test_criterion_10_cli_determinism(tmp_path):
    bar = tmp_path / "bar.json"
    rc = cli_main(["gen-anderson", "--wx", "2", "--wy", "1", "--length", "10",
                   "--disorder", "2.0", "--seed", "5", "-o", str(bar)])
    assert rc == 0
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        rc = cli_main(["count", "--system", str(bar), "--energy", "0.3",
                       "--xi-steps", "41", "-o", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    _report(10, "CLI determinism", outs[0] == outs[1],
            f"two cmd_count runs, {len(outs[0])} bytes, "
            f"byte-identical={outs[0] == outs[1]}")
