"""System container, validation, Hermitian tagging and JSON round trips."""

import json

import numpy as np
import pytest
from scipy.linalg import lapack
from hypothesis import given, settings, strategies as st

from tmcount import (
    BlockTridiagonalSystem,
    ValidationError,
    hermitian_check,
    load_system,
    save_system,
    validate_system,
)

from tmcount import operators
from tmcount.cli import EXIT_VALIDATION, main

from conftest import random_system, scalar_chain


def test_from_blocks_infers_shape_and_coerces_scalars():
    sys = scalar_chain(4, a=0.5, b=2.0, c=-1.0)
    assert sys.m == 1
    assert sys.n == 4
    assert sys.A[0].shape == (1, 1)
    assert sys.B[2][0, 0] == 2.0
    assert sys.C[3][0, 0] == -1.0


def test_blocks_are_read_only():
    sys = scalar_chain(3)
    with pytest.raises(ValueError):
        sys.A[0][0, 0] = 7.0


def test_validate_accepts_random_systems():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(3, 7))
        report = validate_system(random_system(rng, m, n))
        assert report.ok, report.issues
        report.raise_if_failed()


def test_validate_rejects_short_chain():
    sys = BlockTridiagonalSystem.from_blocks(
        [[[0.0]]] * 2, [[[1.0]]] * 2, [[[1.0]]] * 2)
    report = validate_system(sys)
    assert not report.ok
    assert any("n must be at least 3" in msg for msg in report.issues)
    with pytest.raises(ValidationError):
        report.raise_if_failed()


def test_validate_rejects_singular_coupling():
    sys = BlockTridiagonalSystem.from_blocks(
        [[[0.0]]] * 3, [[[1.0]], [[0.0]], [[1.0]]], [[[1.0]]] * 3)
    report = validate_system(sys)
    assert not report.ok
    assert any("B[1]" in msg and "singular" in msg for msg in report.issues)


def test_validate_rejects_shape_mismatch_and_nonfinite():
    a = np.zeros((2, 2))
    b = np.eye(2)
    bad = BlockTridiagonalSystem(
        m=2, n=3,
        A=(a, np.zeros((3, 3)), a),
        B=(b, b, b),
        C=(b, b, np.array([[np.inf, 0.0], [0.0, 1.0]])))
    report = validate_system(bad)
    msgs = " | ".join(report.issues)
    assert "A[1]" in msgs and "shape" in msgs
    assert "C[2]" in msgs and "non-finite" in msgs


def test_hermitian_tag_truthiness():
    rng = np.random.default_rng(5)
    sys = random_system(rng, 2, 4, hermitian=True)
    tag = hermitian_check(sys)
    assert tag is True

    # break the ring closure only: C_1 no longer adjoint of B_n
    C = list(sys.C)
    C[0] = C[0] + 0.01
    broken = BlockTridiagonalSystem(m=sys.m, n=sys.n, A=sys.A,
                                    B=sys.B, C=tuple(C))
    assert not hermitian_check(broken)


def test_hermitian_check_rejects_nonhermitian_diagonal():
    rng = np.random.default_rng(6)
    sys = random_system(rng, 2, 3, hermitian=True)
    A = list(sys.A)
    A[1] = A[1] + 1j * 0.1 * np.eye(2)
    assert not hermitian_check(
        BlockTridiagonalSystem(m=sys.m, n=sys.n, A=tuple(A), B=sys.B, C=sys.C))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 3), n=st.integers(3, 6))
def test_hermitian_construction_always_tags_hermitian(seed, m, n):
    rng = np.random.default_rng(seed)
    sys = random_system(rng, m, n, hermitian=True)
    assert hermitian_check(sys)
    # and on the unit circle the assembled balanced ring operator is
    # Hermitian as a matrix
    from tmcount import build_hamiltonian
    H = build_hamiltonian(sys, "balanced", z=np.exp(0.7j))
    assert np.max(np.abs(H - H.conj().T)) < 1e-12


def test_save_load_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(77)
    sys = random_system(rng, 3, 5)
    path = tmp_path / "sys.json"
    save_system(sys, path, meta={"tag": "round-trip"})
    back = load_system(path)
    assert back.m == sys.m and back.n == sys.n
    for name in ("A", "B", "C"):
        for blk_a, blk_b in zip(getattr(sys, name), getattr(back, name)):
            assert np.array_equal(blk_a, blk_b)
    assert json.loads(path.read_text())["meta"] == {"tag": "round-trip"}


def test_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(78)
    sys = random_system(rng, 2, 4)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_system(sys, p1)
    save_system(sys, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert "meta" not in json.loads(p1.read_text())


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_system(path)


def test_load_rejects_missing_and_malformed_keys(tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"m": 1, "A": [], "B": [], "C": []}))
    with pytest.raises(ValidationError, match='"n" must be'):
        load_system(path)

    path.write_text(json.dumps({
        "m": 0, "n": 3,
        "A": [[[[0.0, 0.0]]]] * 3,
        "B": [[[[1.0, 0.0]]]] * 3,
        "C": [[[[1.0, 0.0]]]] * 3,
    }))
    with pytest.raises(ValidationError, match='"m" must be'):
        load_system(path)


def _set_m(doc):
    doc["m"] = True


def _set_n(doc):
    doc["n"] = True


def _set_entry(doc):
    doc["A"][0][0][0] = [True, False]


@pytest.mark.parametrize("corrupt, message", [
    (_set_m, '"m" must be'),
    (_set_n, '"n" must be'),
    (_set_entry, r"A\[0\] entry \(0,0\): expected \[re, im\]"),
])
def test_load_rejects_json_booleans(tmp_path, corrupt, message):
    # JSON true is a Python int subclass; it must not pass as a number
    path = tmp_path / "bool.json"
    save_system(scalar_chain(3), path)
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=message):
        load_system(path)
    assert main(["count", "--system", str(path), "--xi-steps", "3"]) == EXIT_VALIDATION


def test_load_rejects_singular_coupling(tmp_path):
    sys = scalar_chain(3)
    path = tmp_path / "sing.json"
    save_system(sys, path)
    doc = json.loads(path.read_text())
    doc["B"][1] = [[[0.0, 0.0]]]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="singular"):
        load_system(path)


def test_load_rejects_nonfinite_literals(tmp_path):
    sys = scalar_chain(3)
    path = tmp_path / "inf.json"
    save_system(sys, path)
    text = path.read_text().replace("0.0", "Infinity", 1)
    path.write_text(text)
    with pytest.raises(ValidationError):
        load_system(path)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_serialization_round_trip_property(seed, tmp_path_factory):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    n = int(rng.integers(3, 6))
    sys = random_system(rng, m, n)
    path = tmp_path_factory.mktemp("rt") / "sys.json"
    save_system(sys, path)
    back = load_system(path)
    for name in ("A", "B", "C"):
        for blk_a, blk_b in zip(getattr(sys, name), getattr(back, name)):
            assert np.array_equal(blk_a, blk_b)


def _estimated_rcond(block):
    """LAPACK's 1-norm rcond estimate, the test validate_system used before
    it took the exact condition number."""
    anorm = np.linalg.norm(block, 1)
    if anorm == 0.0 or not np.isfinite(anorm):
        return 0.0
    lu, piv, info = lapack.zgetrf(block)
    if info > 0:
        return 0.0
    return float(lapack.zgecon(lu, anorm, norm="1")[0])


def _walk_load(path):
    """Reference: load_system as it was before the array path, every entry
    through the per-entry walk, validated with the rcond estimate."""
    doc = json.loads(path.read_text(), parse_constant=operators._reject_constant)
    m, n = doc["m"], doc["n"]
    issues = []
    blocks = {}
    for name in ("A", "B", "C"):
        seq = doc.get(name)
        if not isinstance(seq, list) or len(seq) != n:
            issues.append(f'"{name}" must be a list of {n} blocks')
            seq = [None] * n
        blocks[name] = [operators._block_from_json(e, m, f"{name}[{k}]", issues)
                        for k, e in enumerate(seq)]
    if issues:
        raise ValidationError(f"{path}: " + "; ".join(issues))
    for name in ("A", "B", "C"):
        for k, blk in enumerate(blocks[name]):
            if not np.all(np.isfinite(blk)):
                issues.append(f"{name}[{k}] contains non-finite entries")
    for name in ("B", "C") if not issues else ():
        for k, blk in enumerate(blocks[name]):
            rc = _estimated_rcond(blk)
            if rc < operators.RCOND_THRESHOLD:
                issues.append(f"{name}[{k}] is numerically singular (rcond {rc:.2e})")
    if issues:
        raise ValidationError(f"{path}: " + "; ".join(issues))
    return BlockTridiagonalSystem(m=m, n=n, A=tuple(blocks["A"]),
                                  B=tuple(blocks["B"]), C=tuple(blocks["C"]))


def _meta_bool(doc):
    doc["meta"] = {"hermitian": True}


def _string(doc):
    doc["A"][1][0][1] = ["0.5", 0.0]


def _null(doc):
    doc["B"][2][1][0][1] = None


def _ragged(doc):
    doc["C"][0][1] = doc["C"][0][1][:1]


def _triple(doc):
    doc["A"][0][0][0] = [1.0, 0.0, 0.0]


def _integers(doc):
    doc["B"][0] = [[[3, 0], [1, -1]], [[0, 2], [4, 0]]]


@pytest.mark.parametrize("corrupt", [
    None, _meta_bool, _string, _null, _ragged, _triple, _integers, "1e400"])
def test_array_load_decides_as_the_entry_walk(tmp_path, corrupt):
    path = tmp_path / "sys.json"
    save_system(random_system(np.random.default_rng(19), 2, 4), path)
    if corrupt is not None:
        doc = json.loads(path.read_text())
        if corrupt == "1e400":
            # a literal that json reads as inf
            doc["C"][1][0][1][0] = 12345.5
            path.write_text(json.dumps(doc).replace("12345.5", "1e400"))
        else:
            corrupt(doc)
            path.write_text(json.dumps(doc))
    try:
        expect = _walk_load(path)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as info:
            load_system(path)
        assert str(info.value) == str(exc)
        assert corrupt is not None and corrupt is not _meta_bool
        return
    got = load_system(path)
    assert corrupt in (None, _meta_bool, _integers)
    for name in ("A", "B", "C"):
        for a, b in zip(getattr(got, name), getattr(expect, name)):
            assert a.tobytes() == b.tobytes()


def test_exact_rcond_rejects_near_singular_block():
    rng = np.random.default_rng(20)
    sys = random_system(rng, 3, 4)
    B = list(sys.B)
    # rank one up to 1e-13: exact rcond about 1e-14
    B[2] = np.outer([1.0, 2.0, 3.0], [1.0, -1.0, 0.5]) + 1e-13 * np.eye(3)
    near = BlockTridiagonalSystem(m=3, n=4, A=sys.A, B=tuple(B), C=sys.C)
    issues = validate_system(near).issues
    assert len(issues) == 1 and issues[0].startswith("B[2] is numerically singular")
    exact = 1.0 / np.linalg.cond(B[2], 1)
    assert exact < 1e-12 and f"(rcond {exact:.2e})" in issues[0]
    # the exact value never lies above the estimate, so no block that the
    # estimate rejected is accepted
    for blk in (*sys.B, *sys.C, B[2]):
        assert 1.0 / np.linalg.cond(blk, 1) <= _estimated_rcond(blk) * (1 + 1e-12)
