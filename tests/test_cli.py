"""Command-line interface: round trips, CSV contracts, exit codes."""

import csv
import json
import warnings

import numpy as np
import pytest

from tmcount import cli, counting, save_system
from tmcount.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)

from conftest import scalar_chain


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def bar_file(tmp_path):
    path = tmp_path / "bar.json"
    rc = run_cli("gen-anderson", "--wx", "2", "--wy", "1", "--length", "10",
                 "--disorder", "2.0", "--seed", "5", "-o", str(path))
    assert rc == EXIT_OK
    return path


@pytest.fixture
def scalar_file(tmp_path):
    path = tmp_path / "scalar.json"
    save_system(scalar_chain(6), path)
    return path


def test_gen_anderson_writes_file_with_meta(bar_file):
    meta = json.loads(bar_file.read_text())["meta"]
    assert meta["model"] == "anderson-bar"
    assert meta["wx"] == 2 and meta["wy"] == 1
    assert meta["length"] == 10 and meta["seed"] == 5


def test_gen_anderson_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen-anderson", "--wx", "2", "--wy", "2", "--length", "8",
            "--disorder", "1.0", "--seed", "3"]
    assert run_cli(*args, "-o", str(p1)) == EXIT_OK
    assert run_cli(*args, "-o", str(p2)) == EXIT_OK
    assert p1.read_bytes() == p2.read_bytes()


def test_count_csv_contract(tmp_path, scalar_file):
    out = tmp_path / "counts.csv"
    rc = run_cli("count", "--system", str(scalar_file), "--energy", "3",
                 "--xi-min", "-2", "--xi-max", "2", "--xi-steps", "21",
                 "-o", str(out))
    assert rc == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == ["xi", "re_raw", "im_raw", "count", "n_phi", "flag"]
    assert len(rows) == 22
    xis = [float(r[0]) for r in rows[1:]]
    assert xis[0] == -2.0 and xis[-1] == 2.0
    counts = [int(r[3]) for r in rows[1:]]
    assert counts[0] == 0 and counts[-1] == 2
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert all(int(r[4]) >= 64 for r in rows[1:])
    assert all(r[5] == "" for r in rows[1:])


def test_count_byte_identical_reruns(tmp_path, bar_file):
    c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    args = ["count", "--system", str(bar_file), "--energy", "0.3",
            "--xi-steps", "31"]
    assert run_cli(*args, "-o", str(c1)) == EXIT_OK
    assert run_cli(*args, "-o", str(c2)) == EXIT_OK
    assert c1.read_bytes() == c2.read_bytes()


def test_count_corner_method_rejected(scalar_file):
    # the open-chain corner path is gone from counting: it wrote wrong
    # counts unflagged on long bars
    with pytest.raises(SystemExit) as exc:
        run_cli("count", "--system", str(scalar_file), "--method", "corner")
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("steps, message", [
    ("0", "xi grid must not be empty"), ("-2", "must be non-negative")])
def test_count_rejects_empty_grid(tmp_path, scalar_file, capsys, steps, message):
    out = tmp_path / "c.csv"
    rc = run_cli("count", "--system", str(scalar_file), "--xi-steps", steps,
                 "-o", str(out))
    assert rc == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_count_nphi_is_the_grid_size(tmp_path, capsys):
    bar = tmp_path / "bar.json"
    assert run_cli("gen-anderson", "--wx", "2", "--wy", "1", "--length", "4",
                   "--disorder", "2.0", "--seed", "5", "-o", str(bar)) == EXIT_OK
    out = tmp_path / "c.csv"
    rc = run_cli("count", "--system", str(bar), "--xi-min", "0.3", "--xi-max", "0.3",
                 "--xi-steps", "1", "--nphi", "2048", "-o", str(out))
    assert rc == EXIT_OK
    assert [r[4] for r in read_csv(out)] == ["n_phi", "2048"]
    rc = run_cli("count", "--system", str(bar), "--xi-steps", "1", "--nphi", "3")
    assert rc == EXIT_VALIDATION
    assert "n_phi must be at least 4" in capsys.readouterr().err


def test_bad_m_is_reported_once(tmp_path, capsys):
    path = tmp_path / "bad_m.json"
    assert run_cli("gen-anderson", "--wx", "4", "--wy", "4", "--length", "8",
                   "--disorder", "2.0", "--seed", "5", "-o", str(path)) == EXIT_OK
    doc = json.loads(path.read_text())
    doc["m"] = True
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("count", "--system", str(path), "--xi-steps", "1") == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.strip() == f'error: {path}: "m" must be a positive integer'


def test_count_complex_energy_accepted(tmp_path, bar_file):
    out = tmp_path / "c.csv"
    rc = run_cli("count", "--system", str(bar_file), "--energy", "0.5,0.25",
                 "--xi-steps", "9", "-o", str(out))
    assert rc == EXIT_OK
    assert len(read_csv(out)) == 10


def test_exponents_bisect_vs_direct(tmp_path, scalar_file):
    e1, e2 = tmp_path / "d.csv", tmp_path / "b.csv"
    rc1 = run_cli("exponents", "--system", str(scalar_file), "--energy", "3",
                  "--method", "direct", "-o", str(e1))
    rc2 = run_cli("exponents", "--system", str(scalar_file), "--energy", "3",
                  "--method", "bisect", "--tol", "1e-8", "-o", str(e2))
    assert rc1 == EXIT_OK and rc2 == EXIT_OK
    rows1, rows2 = read_csv(e1), read_csv(e2)
    assert rows1[0] == ["index", "xi", "method"]
    assert [r[2] for r in rows1[1:]] == ["direct", "direct"]
    assert [r[2] for r in rows2[1:]] == ["bisect", "bisect"]
    for r1, r2 in zip(rows1[1:], rows2[1:]):
        assert float(r1[1]) == pytest.approx(float(r2[1]), abs=1e-6)


def test_exponents_direct_unreliable_exit(tmp_path, scalar_file, capsys):
    out = tmp_path / "e.csv"
    rc = run_cli("exponents", "--system", str(scalar_file),
                 "--energy", "1e6", "--method", "direct", "-o", str(out))
    assert rc == EXIT_NUMERICAL
    assert "unreliable" in capsys.readouterr().err
    labels = {r[2] for r in read_csv(out)[1:]}
    assert labels == {"direct_unreliable"}


def test_exponents_bisect_unreliable_exit(tmp_path, scalar_file, capsys):
    # at the band edge E = 2 the transfer matrix of the chain is one
    # Jordan block: its double eigenvalue 1 is known only to about
    # sqrt(eps), so the two slice estimates of each zero exponent
    # disagree by far more than 1e-10
    out = tmp_path / "e.csv"
    rc = run_cli("exponents", "--system", str(scalar_file), "--energy", "2",
                 "--method", "bisect", "--tol", "1e-10", "-o", str(out))
    assert rc == EXIT_NUMERICAL
    assert "unreliable" in capsys.readouterr().err
    rows = read_csv(out)[1:]
    assert {r[2] for r in rows} == {"bisect_unreliable"}
    assert len(rows) == 2


def _check_locate_tolerances(tmp_path, monkeypatch, length):
    """The tol of every locate_exponents call of one check run."""
    bar = tmp_path / "bar.json"
    assert run_cli("gen-anderson", "--wx", "2", "--wy", "1", "--length", str(length),
                   "--disorder", "18", "--seed", "7", "-o", str(bar)) == EXIT_OK
    calls = []
    locate = counting.locate_exponents

    def counted(*args, **kwargs):
        calls.append(kwargs.get("tol"))
        return locate(*args, **kwargs)

    monkeypatch.setattr(cli, "locate_exponents", counted)
    monkeypatch.setattr(counting, "locate_exponents", counted)
    assert run_cli("check", "--system", str(bar), "--energy", "0.5") == EXIT_OK
    return calls


def test_check_locates_once_beyond_oracle_range(tmp_path, monkeypatch):
    assert _check_locate_tolerances(tmp_path, monkeypatch, 24) == [1e-8]


def test_check_locates_once_inside_oracle_range(tmp_path, monkeypatch):
    # every line takes its exponents from the locator, not the direct oracle
    assert _check_locate_tolerances(tmp_path, monkeypatch, 4) == [1e-8]


def test_check_runs_without_direct_oracle(tmp_path, monkeypatch, capsys):
    # the duality line is gated on the located exponents' spread: it runs
    # at length 4 and is skipped at length 24, with no eigenvalue oracle
    def fail(*args, **kwargs):
        raise AssertionError("check called the direct oracle")

    monkeypatch.setattr(cli, "stable_exponents", fail)
    for length, duality in ((4, "PASS"), (24, "skipped")):
        bar = tmp_path / f"bar{length}.json"
        assert run_cli("gen-anderson", "--wx", "2", "--wy", "1", "--length",
                       str(length), "--disorder", "18", "--seed", "1",
                       "-o", str(bar)) == EXIT_OK
        assert run_cli("check", "--system", str(bar), "--energy", "0.5") == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("duality residual") and duality in lines[0]
        assert lines[-1] == "overall: PASS"


@pytest.mark.parametrize("wx, wy, length, seed", [
    (2, 2, 8, 2),      # the direct oracle's total sum was 1.6e-7 off
    (2, 2, 10, 2),     # and 5.1e-5 off, both flagged reliable
    (2, 2, 4, 1),      # an exponent pair within 1e-14 of the Jensen level 0
    (3, 3, 4, 10502),  # likewise
])
def test_check_passes_on_short_disordered_bars(tmp_path, capsys, wx, wy, length, seed):
    bar = tmp_path / "bar.json"
    assert run_cli("gen-anderson", "--wx", str(wx), "--wy", str(wy),
                   "--length", str(length), "--disorder", "18",
                   "--seed", str(seed), "-o", str(bar)) == EXIT_OK
    assert run_cli("check", "--system", str(bar), "--energy", "0.5") == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "overall: PASS"


def test_check_passes_on_generated_bar(bar_file, capsys):
    assert run_cli("check", "--system", str(bar_file), "--energy", "0.4") == EXIT_OK
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert lines[-1] == "overall: PASS"
    assert sum(1 for ln in lines if ln.endswith("PASS")) >= 6


def test_missing_system_file_is_validation_error(tmp_path, capsys):
    rc = run_cli("count", "--system", str(tmp_path / "nope.json"))
    assert rc == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


def test_corrupt_system_file_is_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"m": 1, "n": 3}))
    rc = run_cli("exponents", "--system", str(path))
    assert rc == EXIT_VALIDATION


def test_singular_coupling_is_validation_error(tmp_path, scalar_file):
    doc = json.loads(scalar_file.read_text())
    doc["B"][0] = [[[0.0, 0.0]]]
    bad = tmp_path / "singular.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("check", "--system", str(bad)) == EXIT_VALIDATION


def test_bad_energy_string_is_validation_error(scalar_file):
    assert run_cli("exponents", "--system", str(scalar_file),
                   "--energy", "abc") == EXIT_VALIDATION
    assert run_cli("exponents", "--system", str(scalar_file),
                   "--energy", "1,2,3") == EXIT_VALIDATION


@pytest.mark.parametrize("energy", ["nan", "inf", "0,nan", "1,inf"])
def test_non_finite_energy_is_validation_error(scalar_file, energy, capsys):
    for command in ("count", "exponents", "check"):
        rc = run_cli(command, "--system", str(scalar_file), "--energy", energy)
        assert rc == EXIT_VALIDATION
        assert "energy must be finite" in capsys.readouterr().err


def test_locator_bracket_failure_is_numerical_error(scalar_file, monkeypatch,
                                                    capsys):
    monkeypatch.setattr(counting, "_MAX_BRACKET_GROWTH", 0)
    rc = run_cli("exponents", "--system", str(scalar_file), "--energy", "3")
    assert rc == EXIT_NUMERICAL
    assert "could not establish a lower bracket" in capsys.readouterr().err


def test_degenerate_transfer_product_is_numerical_error(tmp_path, capsys):
    # each one-step factor holds 1e308 twice in a row: finite, but the
    # row sum that rescales the product overflows
    path = tmp_path / "huge.json"
    save_system(scalar_chain(4, b=1e-306, c=-100.0), path)
    with np.errstate(over="ignore"):
        rc = run_cli("exponents", "--system", str(path), "--energy", "100",
                     "--method", "direct")
    assert rc == EXIT_NUMERICAL
    assert "transfer product degenerated" in capsys.readouterr().err


def test_linalg_error_is_numerical_error(scalar_file, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(cli, "stable_exponents", fail)
    rc = run_cli("exponents", "--system", str(scalar_file), "--method", "direct")
    assert rc == EXIT_NUMERICAL
    assert "numerical error" in capsys.readouterr().err


def test_descending_grid_is_validation_error(scalar_file):
    assert run_cli("count", "--system", str(scalar_file), "--xi-min", "2",
                   "--xi-max", "-2") == EXIT_VALIDATION


@pytest.mark.parametrize("edge", ["--xi-min=nan", "--xi-max=inf", "--xi-min=-inf"])
def test_non_finite_grid_is_validation_error(scalar_file, edge, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before numpy sees it
        rc = run_cli("count", "--system", str(scalar_file), edge)
    assert rc == EXIT_VALIDATION
    assert "--xi-min and --xi-max must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "1e-17"])
def test_bad_tolerance_is_validation_error(scalar_file, tol, capsys):
    rc = run_cli("exponents", "--system", str(scalar_file), "--energy", "3",
                 f"--tol={tol}")
    assert rc == EXIT_VALIDATION
    assert "tol must be finite and positive" in capsys.readouterr().err


def test_numerical_error_exit_on_spectral_energy(scalar_file):
    # energy on the open-chain spectrum: the corner-route residual check
    # inside the identity suite cannot run there
    rc = run_cli("check", "--system", str(scalar_file),
                 "--energy", "1.8019377358048383")
    assert rc == EXIT_NUMERICAL


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("gen-anderson", "--wx", "2")
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        run_cli("definitely-not-a-command")
    assert exc.value.code == EXIT_USAGE


def test_stdout_output_default(scalar_file, capsys):
    rc = run_cli("exponents", "--system", str(scalar_file), "--energy", "3",
                 "--method", "direct")
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("index,xi,method")
