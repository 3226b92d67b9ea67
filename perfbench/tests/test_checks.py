"""The benchmark's output checks accept right outputs and reject corrupted ones.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import checks  # noqa: E402
import reference  # noqa: E402

REF = [-1.5, -0.9, -0.9, -0.2, 0.2, 0.9, 0.9, 1.5]
GRID = [-2.0 + 0.25 * i for i in range(17)]


def count_csv(ref=REF, grid=GRID, flags=None):
    lines = ["xi,re_raw,im_raw,count,n_phi,flag"]
    for i, xi in enumerate(grid):
        c = checks.reference_count(ref, xi)
        flag = (flags or {}).get(i, "")
        lines.append(f"{xi!r},{c / len(ref)!r},0,{c},64,{flag}")
    return "\r\n".join(lines) + "\r\n"


def exponents_csv(values):
    lines = ["index,xi,method"] + [f"{i},{x!r},bisect" for i, x in enumerate(values)]
    return "\r\n".join(lines) + "\r\n"


def replace_row(text, i, new):
    lines = text.split("\r\n")
    lines[i + 1] = new
    return "\r\n".join(lines)


def test_count_accepts_reference_staircase():
    assert checks.check_count(count_csv(), GRID, REF, 1e-3) == []


def test_count_rejects_dropped_level():
    text = count_csv()
    lines = text.split("\r\n")
    del lines[5]
    assert checks.check_count("\r\n".join(lines), GRID, REF, 1e-3)


def test_count_rejects_flipped_count():
    text = count_csv()
    xi = GRID[10]
    c = checks.reference_count(REF, xi)
    bad = replace_row(text, 10, f"{xi!r},0,0,{c + 1},64,")
    problems = checks.check_count(bad, GRID, REF, 1e-3)
    assert any("count" in p for p in problems)


def test_count_rejects_error_flag_and_wrong_edges():
    text = replace_row(count_csv(), 3, f"{GRID[3]!r},,,,64,spectrum_collision")
    assert checks.check_count(text, GRID, REF, 1e-3)
    assert checks.check_count(count_csv(), GRID, [x + 1.0 for x in REF], 1e-3)


def test_count_near_exponent_needs_right_count_or_flag():
    grid = [-2.0, -1.5005, 2.0]
    wrong = ("xi,re_raw,im_raw,count,n_phi,flag\r\n-2.0,0,0,0,64,\r\n"
             "-1.5005,0,0,1,1024,{}\r\n2.0,1,0,8,64,\r\n")
    assert checks.check_count(wrong.format(""), grid, REF, 1e-3)
    assert checks.check_count(wrong.format("near_eigenvalue"), grid, REF, 1e-3) == []
    # the same wrong count is not excused by a flag far from every exponent
    assert checks.check_count(wrong.format("near_eigenvalue"), grid, REF, 1e-4)


def test_exponents_accept_reference_and_reject_shift():
    total = 0.0
    assert checks.check_exponents(exponents_csv(REF), REF, total, 1e-6) == []
    shifted = list(REF)
    shifted[3] += 1e-4
    assert checks.check_exponents(exponents_csv(shifted), REF, total, 1e-6)


def test_exponents_reject_unpaired_and_dropped():
    total = 0.0
    assert checks.check_exponents(exponents_csv(REF[:-1]), REF, total, 1e-6)
    # every value within tolerance of a wrong reference is still caught
    # by the pairing and the determinant sum
    moved = [x + 1e-5 for x in REF]
    assert checks.check_exponents(exponents_csv(moved), moved, total, 1e-6)


def test_exponents_cluster_scale_tolerance():
    ref = [-1.0, -0.3, -0.297, 0.297, 0.3, 1.0]
    near = [-1.0, -0.2985, -0.2985, 0.2985, 0.2985, 1.0]
    assert checks.check_exponents(exponents_csv(near), ref, 0.0, 1e-6) == []
    far = [-1.0, -0.28, -0.28, 0.28, 0.28, 1.0]
    assert checks.check_exponents(exponents_csv(far), ref, 0.0, 1e-6)


REPORT = """\
duality residual (20 random z)                1.862e-13  [tol 1e-08]  PASS
similarity residual (10 random z)             1.839e-16  [tol 1e-10]  PASS
jensen |lhs-rhs| (xi=0, 0.31)                 1.275e-07  [tol 1e-04]  PASS
total-sum mismatch (direct oracle)            1.717e-12  [tol 1e-08]  PASS
imaginary-part average (2 xi)                 9.801e-17  [tol 1e-06]  PASS
corner vs balanced integrand (5 pts)          1.884e-15  [tol 1e-08]  PASS
overall: PASS
"""


def test_identity_report():
    assert checks.check_identity_report(REPORT, 0) == []
    assert checks.check_identity_report(REPORT, 4)
    failed = REPORT.replace("1.275e-07  [tol 1e-04]  PASS", "1.275e-04  [tol 1e-04]  FAIL")
    assert checks.check_identity_report(failed.replace("overall: PASS", "overall: FAIL"), 0)
    assert checks.check_identity_report("\n".join(REPORT.splitlines()[:3]), 0)


def test_identical():
    assert checks.check_identical(b"a", b"a", "x") == []
    assert checks.check_identical(b"a", b"b", "x")


def test_clean_exponents_closed_form():
    # 2x2 slice modes are 2, 0, 0, -2; at E = 5 all are outside the band
    got = reference.clean_exponents(2, 2, 5.0)
    want = sorted(s * math.acosh(g) for g in (1.5, 2.5, 2.5, 3.5) for s in (-1, 1))
    assert got == pytest.approx(want, abs=1e-15)
    assert reference.clean_exponents(2, 2, 3.5).count(0.0) == 2


def test_end_to_end_on_a_small_bar(tmp_path):
    """A real count and locate pass the checks; corrupted copies do not."""
    pytest.importorskip("tmcount")
    from tmcount.cli import main

    bar = str(tmp_path / "bar.json")
    assert main(["gen-anderson", "--wx", "2", "--wy", "1", "--length", "12",
                 "--disorder", "18", "--seed", "7", "-o", bar]) == 0
    ref = reference.transfer_exponents(bar, 0.5 + 0j)
    total = reference.total_exponent_sum(bar)
    counts, exps = tmp_path / "c.csv", tmp_path / "e.csv"
    assert main(["count", "--system", bar, "--energy", "0.5", "--xi-min", "-2.5",
                 "--xi-max", "2.5", "--xi-steps", "21", "-o", str(counts)]) == 0
    assert main(["exponents", "--system", bar, "--energy", "0.5",
                 "--method", "bisect", "-o", str(exps)]) == 0
    grid = [-2.5 + 0.25 * i for i in range(21)]
    text = counts.read_bytes().decode()
    assert checks.check_count(text, grid, ref, 5.0 / (12 * 64)) == []
    values = checks.parse_exponents_csv(exps.read_text())
    assert checks.check_exponents(exps.read_text(), ref, total, 1e-6) == []

    values[0] += 1e-3
    assert checks.check_exponents(exponents_csv(values), ref, total, 1e-6)
    rows = text.split("\r\n")
    flipped = rows[12].split(",")
    flipped[3] = str(int(flipped[3]) + 1)
    rows[12] = ",".join(flipped)
    assert checks.check_count("\r\n".join(rows), grid, ref, 5.0 / (12 * 64))
