"""Output checks of the benchmark.

Each function takes what the program wrote and the independent
reference, and returns a list of problems; an empty list means the
output is correct.  None of them imports ``tmcount``.
"""

from __future__ import annotations

import csv
import io

COUNT_HEADER = ["xi", "re_raw", "im_raw", "count", "n_phi", "flag"]
EXPONENTS_HEADER = ["index", "xi", "method"]

#: the locator resolves distinct exponents closer than this only to the
#: cluster scale (the merge window of ``locate_exponents``)
MERGE_WINDOW = 1e-2

#: reference exponents closer than this are one multiplet; a complex
#: conjugate pair of eigenvalues gives moduli equal up to rounding
SAME_EXPONENT = 1e-9


def parse_count_csv(text: str) -> list[dict]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != COUNT_HEADER:
        raise ValueError(f"count CSV header is {rows[:1]!r}")
    return [dict(zip(COUNT_HEADER, r)) for r in rows[1:]]


def reference_count(ref: list[float], xi: float) -> int:
    return sum(1 for x in ref if x < xi)


def check_count(text: str, grid: list[float], ref: list[float],
                margin: float) -> list[str]:
    """Problems in one ``tmcount count`` CSV against reference exponents.

    Every level of ``grid`` must be present, in order.  A level farther
    than ``margin`` from every reference exponent must give the
    reference count; a closer one must give it or be flagged
    ``near_eigenvalue``.  Unflagged counts must be monotone, 0 at the
    low edge and 2m at the high edge.
    """
    try:
        rows = parse_count_csv(text)
    except ValueError as exc:
        return [str(exc)]
    if len(rows) != len(grid):
        return [f"{len(rows)} levels written, {len(grid)} requested"]
    two_m = len(ref)
    problems = []
    counts = []
    for row, xi in zip(rows, grid):
        if float(row["xi"]) != xi:
            problems.append(f"level {row['xi']} written where {xi!r} was requested")
            continue
        if row["flag"] not in ("", "near_eigenvalue"):
            problems.append(f"xi={xi:.6g}: error flag {row['flag']!r}")
            continue
        count = int(row["count"])
        want = reference_count(ref, xi)
        near = min(abs(xi - x) for x in ref) <= margin
        flagged = row["flag"] == "near_eigenvalue"
        if count != want and not (near and flagged):
            problems.append(f"xi={xi:.6g}: count {count}, reference {want}"
                            + (" (near an exponent, unflagged)" if near else ""))
        if not flagged:
            counts.append((xi, count))
    for (xa, ca), (xb, cb) in zip(counts, counts[1:]):
        if cb < ca:
            problems.append(f"count falls from {ca} at xi={xa:.6g} to {cb} at xi={xb:.6g}")
    if counts and counts[0][1] != 0:
        problems.append(f"count {counts[0][1]} at the low edge, expected 0")
    if counts and counts[-1][1] != two_m:
        problems.append(f"count {counts[-1][1]} at the high edge, expected {two_m}")
    return problems


def parse_exponents_csv(text: str) -> list[float]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != EXPONENTS_HEADER:
        raise ValueError(f"exponents CSV header is {rows[:1]!r}")
    for i, row in enumerate(rows[1:]):
        if len(row) != 3 or row[0] != str(i) or row[2] != "bisect":
            raise ValueError(f"exponents CSV row {i} is {row!r}")
    return [float(r[1]) for r in rows[1:]]


def exponent_tolerances(ref: list[float], tol: float) -> list[float]:
    """Allowed error per reference exponent.

    Twice the bisection tolerance, or the merge window where a distinct
    neighbour sits closer than it, since the locator resolves such a
    pair only to the cluster scale.
    """
    out = []
    for i, x in enumerate(ref):
        gaps = [abs(x - y) for y in ref if abs(x - y) > SAME_EXPONENT]
        close = bool(gaps) and min(gaps) < MERGE_WINDOW
        out.append(MERGE_WINDOW if close else 2.0 * tol)
    return out


def check_exponents(text: str, ref: list[float], total_sum: float,
                    tol: float) -> list[str]:
    """Problems in one ``tmcount exponents --method bisect`` CSV.

    Each located exponent must lie within its tolerance of the sorted
    reference, the exponents must pair as +-xi, and their sum must
    match the coupling-determinant sum ``total_sum``.
    """
    try:
        values = parse_exponents_csv(text)
    except ValueError as exc:
        return [str(exc)]
    if len(values) != len(ref):
        return [f"{len(values)} exponents written, reference has {len(ref)}"]
    if values != sorted(values):
        return ["exponents are not sorted"]
    tols = exponent_tolerances(ref, tol)
    problems = []
    for i, (x, r, t) in enumerate(zip(values, ref, tols)):
        if not abs(x - r) <= t:
            problems.append(f"exponent {i}: {x:.10g}, reference {r:.10g} (tol {t:.1e})")
    for i in range(len(values) // 2):
        j = len(values) - 1 - i
        t = tols[i] + tols[j]
        if not abs(values[i] + values[j]) <= t:
            problems.append(f"exponents {i} and {j} do not pair: "
                            f"{values[i]:.10g} + {values[j]:.10g}")
    if not abs(sum(values) - total_sum) <= sum(tols):
        problems.append(f"exponent sum {sum(values):.10g}, determinant sum {total_sum:.10g}")
    return problems


def check_identity_report(text: str, exit_code: int) -> list[str]:
    """Problems in the report of one ``tmcount check`` run.

    Every line with a verdict must read PASS, the overall line must be
    PASS, and the exit code 0.
    """
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    lines = [ln for ln in text.splitlines() if ln.strip()]
    verdicts = 0
    for ln in lines:
        if ln.endswith("PASS"):
            verdicts += 1
        elif ln.endswith("FAIL"):
            problems.append(f"failed line: {ln.strip()}")
        elif "skipped:" not in ln:
            problems.append(f"unexpected line: {ln.strip()}")
    if not lines or lines[-1] != "overall: PASS":
        problems.append("no 'overall: PASS' line")
    if verdicts < 6:
        problems.append(f"only {verdicts} PASS lines")
    return problems


def check_identical(first: bytes, again: bytes, what: str) -> list[str]:
    return [] if first == again else [f"{what}: output differs between passes"]

