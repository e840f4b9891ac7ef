import csv
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import centrosim
from centrosim import Matrix, block, is_centrosymmetric, matrix_from_json_obj, save_matrix
from centrosim.cli import _scan_points, build_parser, main
from oracles import counted_entry_reads, dense_centro_transform, rand_centrosymmetric


def write(tmp_path, name, rows):
    path = tmp_path / name
    save_matrix(Matrix(rows), path)
    return str(path)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_report(out):
    return json.loads(out)


def assert_one_line_error(code, out, err):
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_check_centrosymmetric(tmp_path, capsys):
    path = write(tmp_path, "m.json", [["3/2", "5/2"], ["5/2", "3/2"]])
    code, out, err = run(["check", path], capsys)
    assert code == 0
    report = load_report(out)
    assert report["schema"] == "centrosim/1"
    assert report["centrosymmetric"] is True
    assert report["commutes_with_exchange"] is True


def test_check_negative_exit_code(tmp_path, capsys):
    path = write(tmp_path, "m.json", [[1, 3], [2, 2]])
    code, out, _ = run(["check", path], capsys)
    assert code == 2
    assert load_report(out)["centrosymmetric"] is False


def test_solve_counterexample_inconclusive(tmp_path, capsys):
    path = write(tmp_path, "m.json", [[1, 3], [2, 2]])
    code, out, _ = run(["solve", path, "--split", "1"], capsys)
    assert code == 2
    report = load_report(out)
    assert report["solutions"] == []
    assert report["diagnostic"] == "Sylvester space trivial"


def test_transform_toeplitz_report_reverifiable(tmp_path, capsys):
    m_path = str(tmp_path / "t4.json")
    code, out, _ = run(["gen", "toeplitz", "--alpha", "3", "--size", "4",
                        "-o", m_path], capsys)
    assert code == 0
    rep_path = str(tmp_path / "report.json")
    code, out, _ = run(["transform", m_path, "--split", "2", "-o", rep_path], capsys)
    assert code == 0
    report = json.loads(Path(rep_path).read_text())
    assert report["exit_code"] == 0
    assert report["transform"]["certification"] == "fully_centrosymmetric"
    # Reports are re-verifiable: Q^-1 M Q recomputed from the report matches.
    M = matrix_from_json_obj(report["matrix"])
    Q = matrix_from_json_obj(report["transform"]["Q"])
    Q_inv = matrix_from_json_obj(report["transform"]["Q_inv"])
    result = matrix_from_json_obj(report["transform"]["result"])
    assert Q_inv * M * Q == result
    assert is_centrosymmetric(result)


def test_solve_finds_invertible_toeplitz(tmp_path, capsys):
    m_path = str(tmp_path / "t4.json")
    run(["gen", "toeplitz", "--alpha", "3", "--size", "4", "-o", m_path], capsys)
    code, out, _ = run(["solve", m_path, "--split", "2"], capsys)
    assert code == 0
    report = load_report(out)
    assert any(sol["invertible"] for sol in report["solutions"])
    assert {"rows": [["1", "1"], ["2", "1"]]} in [sol["X"] for sol in report["solutions"]]


def test_embed_and_dilate_commands(tmp_path, capsys):
    m_path = write(tmp_path, "m.json", [[1, 0, 7, 4], [5, 6, 8, 9], [7, 0, 1, 3], [0, 0, 0, 2]])
    x_path = write(tmp_path, "x.json", [[1, 0], [0, 0]])
    code, out, _ = run(["embed", m_path, "--split", "2", "--x", x_path], capsys)
    assert code == 0
    assert load_report(out)["transform"]["certification"] == "principal_block(2)"

    m3 = write(tmp_path, "m3.json", [[4, 0, 6], [9, 7, 3], [6, 0, 4]])
    xw = write(tmp_path, "xw.json", [[1, 0]])
    code, out, _ = run(["dilate", m3, "--split", "2", "--x", xw], capsys)
    assert code == 0
    report = load_report(out)
    assert report["transform"]["certification"] == "dilated(4)"
    assert report["Mhat"]["rows"][0] == ["4", "0", "6", "0"]


# Approximate M = [[I, B], [X B X, I]], which X solves.  The first X has rank 2
# at the default tolerance, near the threshold; for the second, inverting T by
# a second elimination fails its own rank test.  Both certify because the
# normal form reads the rank, T^-1 and S^-1 off one elimination.
EMBED_APPROX_CASES = [
    ([[9.061824051102873e-10, -7.628902916663366e-11, 0.49999999994408273],
      [9.55152541084856e-10, -1.0, -0.999999999875843],
      [0.0, -1.00000000040015, 1.0000000000769873]],
     [[1, 2, 0], [0, 1, 3], [1, 0, 1]], "principal_block(4)"),
    ([[1.0, 1e10], [2.0, 2e10]], [[1, 0], [0, 1]], "principal_block(2)"),
]


@pytest.mark.parametrize("x_rows, b_rows, certification", EMBED_APPROX_CASES)
def test_embed_reads_rank_and_inverses_off_one_elimination(tmp_path, capsys, x_rows, b_rows,
                                                          certification):
    X, B = Matrix(x_rows, mode="approx"), Matrix(b_rows, mode="approx")
    ident = Matrix.identity(X.rows, "approx")
    m, x = tmp_path / "m.json", tmp_path / "x.json"
    save_matrix(block([[ident, B], [X * B * X, ident]]), m)
    save_matrix(X, x)
    code, out, err = run(["embed", str(m), "--x", str(x), "--split", str(X.rows)], capsys)
    assert code == 0, err
    assert load_report(out)["transform"]["certification"] == certification


@pytest.mark.parametrize("split, m_rows, x_rows", [
    (2, [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1e-12, 0.0, 1.0]], [[1e-6, 0.0]]),
    (2, [[1, 0, 1], [0, 1, 1], ["1/1000000000000", 0, 1]], [["1/1000000", 0]]),
    (1, [[1.0, 1.0, 1.0], [1e-12, 1.0, 0.0], [0.0, 0.0, 1.0]], [[1e-6], [0.0]]),
])
def test_dilate_keeps_a_full_rank_x_with_small_entries(tmp_path, capsys, split, m_rows, x_rows):
    # The approximate row completion measures X's rows against their own norm;
    # a tall X is completed as the rows of its transpose.
    m, x = write(tmp_path, "m.json", m_rows), write(tmp_path, "x.json", x_rows)
    code, out, err = run(["dilate", m, "--split", str(split), "--x", x], capsys)
    assert code == 0, err
    assert load_report(out)["transform"]["certification"] == "dilated(4)"


# (command and options, M, the option of the second matrix, that matrix): each
# exits 0 on these integer rows.
SECOND_MATRIX_CASES = [
    (["transform", "--odd", "--split", "1"], [[2, 1, 1], [1, 5, 1], [1, 1, 2]], "--x", [[1]]),
    (["embed", "--split", "2"], [[1, 0, 7, 4], [5, 6, 8, 9], [7, 0, 1, 3], [0, 0, 0, 2]],
     "--x", [[1, 0], [0, 0]]),
    (["dilate", "--split", "2"], [[4, 0, 6], [9, 7, 3], [6, 0, 4]], "--x", [[1, 0]]),
    (["factor-riccati", "--split", "1", "--orientation", "lower"], [[1, -1], [1, -1]],
     "--w", [[1]]),
    (["certify-singular", "--split", "1", "--system", "1"], [[2, 3], [2, 3]], "--w", [[1]]),
]


def _floats(rows):
    return [[float(v) for v in row] for row in rows]


@pytest.mark.parametrize("cmd, m_rows, flag, x_rows", SECOND_MATRIX_CASES)
def test_an_integer_second_matrix_is_read_in_the_float_mode_of_m(tmp_path, capsys, cmd,
                                                                 m_rows, flag, x_rows):
    m = write(tmp_path, "m.json", _floats(m_rows))
    x = write(tmp_path, "x.json", x_rows)
    code, out, err = run([cmd[0], m, *cmd[1:], flag, x], capsys)
    assert code == 0, err
    report = load_report(out)
    assert report["mode"] == "approx"
    assert report[flag[2:].upper()] == {"rows": _floats(x_rows)}


@pytest.mark.parametrize("cmd, m_rows, flag, x_rows", SECOND_MATRIX_CASES)
def test_a_float_second_matrix_with_an_exact_m_is_an_error(tmp_path, capsys, cmd,
                                                           m_rows, flag, x_rows):
    m = write(tmp_path, "m.json", m_rows)
    x = write(tmp_path, "x.json", _floats(x_rows))
    assert_one_line_error(*run([cmd[0], m, *cmd[1:], flag, x], capsys))


def test_factor_centro_command(tmp_path, capsys):
    path = write(tmp_path, "m.json", [[2, 1, 1], [1, 5, 1], [1, 1, 2]])
    code, out, _ = run(["factor-centro", path], capsys)
    assert code == 0
    report = load_report(out)
    assert report["factorization"]["match"] is True
    assert report["factorization"]["direct_det"] == "13"


def test_factor_centro_on_non_centrosymmetric_matrix_is_a_negative_verdict(tmp_path, capsys):
    path = write(tmp_path, "m.json", [[0, 0], [0, 1]])
    code, out, _ = run(["factor-centro", path], capsys)
    assert code == 2
    report = load_report(out)
    assert report["exit_code"] == 2 and report["centrosymmetric"] is False
    assert "factorization" not in report


def test_factor_riccati_command(tmp_path, capsys):
    m = write(tmp_path, "m.json", [[1, -1], [1, -1]])
    w = write(tmp_path, "w.json", [[1]])
    code, out, _ = run(["factor-riccati", m, "--split", "1", "--w", w,
                        "--orientation", "lower"], capsys)
    assert code == 0
    report = load_report(out)
    assert report["factorization"]["factor_dets"] == ["0", "0"]
    assert report["triangularized"]["rows"] == [["0", "-1"], ["0", "0"]]


def test_factor_riccati_nonzero_residual_exits_two(tmp_path, capsys):
    m = write(tmp_path, "m.json", [[1, 2], [3, 4]])
    w = write(tmp_path, "w.json", [[1]])
    code, out, _ = run(["factor-riccati", m, "--split", "1", "--w", w,
                        "--orientation", "lower"], capsys)
    assert code == 2
    assert "residual" in load_report(out)


def test_certify_singular_command(tmp_path, capsys):
    m = write(tmp_path, "m.json", [[2, 3], [2, 3]])
    w = write(tmp_path, "w.json", [[1]])
    code, out, _ = run(["certify-singular", m, "--split", "1", "--w", w,
                        "--system", "1"], capsys)
    assert code == 0
    report = load_report(out)
    assert report["certificate_holds"] is True
    assert report["det"] == "0"
    code, _, _ = run(["certify-singular", str(tmp_path / "id.json"), "--split", "1",
                      "--w", w, "--system", "1"], capsys)
    assert code == 1  # missing file is an error


def test_gen_jacobi_families(tmp_path, capsys):
    out_path = str(tmp_path / "a.json")
    code, out, _ = run(["gen", "jacobi-a", "--t", "2", "--c", "1,1,1",
                        "--sign", "+", "-o", out_path], capsys)
    assert code == 0
    assert json.loads(Path(out_path).read_text()) == {"rows": [["2", "1", "1"], ["1", "2", "1"], ["1", "1", "2"]]}
    code, out, _ = run(["gen", "jacobi-b", "--t", "2", "--c", "1,1,1", "--sign", "+"], capsys)
    assert code == 0
    assert load_report(out)["matrix"]["rows"][0] == ["3", "1", "0"]


def test_verify_corollary_command(capsys):
    code, out, _ = run(["verify-corollary", "--family", "a", "--c", "1,2,3,2",
                        "--sign", "-"], capsys)
    assert code == 0
    report = load_report(out)
    assert report["identity_certified"] is True
    assert report["centrosymmetric_form_check"] is True


def test_alpha_scan_command(tmp_path, capsys):
    out_path = str(tmp_path / "scan.csv")
    code, _, _ = run(["alpha-scan", "--size", "4", "--start", "2", "--stop", "4",
                      "--step", "1", "-o", out_path], capsys)
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "alpha"
    assert len(rows) == 4
    found = {float(r[0]): int(r[3]) for r in rows[1:]}
    assert found[3.0] == 1 and found[4.0] == 1 and found[2.0] == 0


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "-1"])
@pytest.mark.parametrize("command", ["check", "solve", "alpha-scan"])
def test_non_finite_or_negative_tolerance_exits_one(tmp_path, capsys, command, tol):
    path = tmp_path / "m.json"
    path.write_text('{"rows": [[1.0, 2.0], [3.0, 4.0]]}')
    args = {"check": ["check", str(path)], "solve": ["solve", str(path)],
            "alpha-scan": ["alpha-scan", "--size", "4", "--start", "3", "--stop", "3"]}[command]
    assert_one_line_error(*run(args + [f"--tol={tol}"], capsys))


def test_solve_and_transform_with_odd_split(tmp_path, capsys):
    path = write(tmp_path, "odd.json", [[2, 1, 1], [1, 5, 1], [1, 1, 2]])
    code, out, _ = run(["solve", path, "--odd"], capsys)
    assert code == 0
    report = load_report(out)
    assert report["parity"] == "odd" and report["split"] == 1
    assert any(sol["invertible"] for sol in report["solutions"])
    code, out, _ = run(["transform", path, "--odd"], capsys)
    assert code == 0
    assert load_report(out)["transform"]["certification"] == "fully_centrosymmetric"


def test_malformed_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["check", str(bad)], capsys)
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("text", [
    '{"rows": [["1", "1/0"], ["2", "3"]]}',
    '{"rows": [[NaN, 1.0], [1.0, NaN]]}',
    '{"rows": [[Infinity, 1.0], [1.0, 2.0]]}',
    '{"rows": [["1", 1.5], ["2", "3"]]}',
    '{"rows": "abc"}',
    '{"rows": [[null, 1], [1, 2]]}',
    pytest.param('{"rows": ' + "[" * 100_000 + "]" * 100_000 + "}", id="rows-nested-100000"),
    pytest.param('{"rows": [["1"]], "note": ' + "[" * 5_000 + "]" * 5_000 + "}",
                 id="other-key-nested-5000"),
])
def test_malformed_matrix_is_one_line_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert_one_line_error(*run(["factor-centro", str(bad)], capsys))


# Python's limit on the digits of an int read from or written to a string; 0 means none.
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not LIMIT, reason="this Python sets no int-string digit limit")
def test_a_value_past_the_digit_limit_is_one_error_line(tmp_path, capsys):
    # Read: an entry of LIMIT + 1 digits written with an exponent.
    entry = tmp_path / "e.json"
    entry.write_text(json.dumps({"rows": [[f"1e{LIMIT}", "1"], ["1", "2"]]}))
    code, out, err = run(["check", str(entry)], capsys)
    assert_one_line_error(code, out, err)
    assert f"'1e{LIMIT}' needs more than {LIMIT} digits" in err
    # Reported: entries of k + 1 <= LIMIT digits whose determinant 10^(2k) - 1 has
    # 2k > LIMIT digits.
    k = LIMIT // 2 + 50
    code, out, err = run(["factor-centro", write(tmp_path, "m.json", [[10 ** k, 1], [1, 10 ** k]])],
                         capsys)
    assert_one_line_error(code, out, err)
    assert f"a report entry has more than {LIMIT} digits" in err


@pytest.mark.skipif(not LIMIT, reason="this Python sets no int-string digit limit")
@pytest.mark.parametrize("entry", ["9" * (LIMIT + 1), "1/" + "0" * LIMIT + "7",
                                   "-" + "1_000" * (LIMIT // 3) + ".5"])
def test_a_digit_string_past_the_digit_limit_is_the_readers_error(tmp_path, capsys, entry):
    digits = sum(map(str.isdigit, entry.split(".")[0].split("/")[-1]))
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": [[entry, "1"], ["1", entry]]}))
    code, out, err = run(["factor-centro", str(path)], capsys)
    assert_one_line_error(code, out, err)
    assert err == (f"error: a value has {digits} digits, more than {LIMIT}, the limit for "
                   "int-string conversion (PYTHONINTMAXSTRDIGITS)\n")


@pytest.mark.skipif(not LIMIT, reason="this Python sets no int-string digit limit")
@pytest.mark.parametrize("entry", ["9" * (LIMIT + 1), "-1" + "0" * (LIMIT + 40)],
                         ids=["positive", "negative"])
def test_a_json_number_past_the_digit_limit_is_the_readers_error(tmp_path, capsys, entry):
    # json.dumps cannot write such an integer, so the file is written as text.
    path = tmp_path / "m.json"
    path.write_text('{"rows": [[%s, 1], [1, 2]]}' % entry)
    code, out, err = run(["check", str(path)], capsys)
    assert_one_line_error(code, out, err)
    assert err == (f"error: a value has {len(entry.lstrip('-'))} digits, more than {LIMIT}, "
                   "the limit for int-string conversion (PYTHONINTMAXSTRDIGITS)\n")


@pytest.mark.skipif(not LIMIT, reason="this Python sets no int-string digit limit")
def test_a_basis_entry_past_the_digit_limit_is_the_writers_error_line(tmp_path, capsys,
                                                                     monkeypatch):
    # XA = DX for A = T N T^-1, D = N (the 3 x 3 shift) and T = diag(K^2, K, 1): the
    # basis matrix at X's last diagonal entry is diag(1/K^2, 1/K, 1), whose 1/K^2
    # has LIMIT + 3 digits while every entry read has at most LIMIT/2 + 2.
    k = 10 ** (LIMIT // 2 + 1)
    m = write(tmp_path, "m.json", [[0, k, 0, 0, 0, 0], [0, 0, k, 0, 0, 0], [0] * 6,
                                   [1, 0, 0, 0, 1, 0], [0, 1, 0, 0, 0, 1], [0, 0, 1, 0, 0, 0]])
    searches = []
    find_intertwiner = centrosim.solver.find_intertwiner
    monkeypatch.setattr(centrosim.solver, "find_intertwiner",
                        lambda *args, **kw: searches.append(find_intertwiner(*args, **kw))
                        or searches[-1])
    reads = counted_entry_reads(monkeypatch)
    code, out, err = run(["solve", m, "--d-max", "0"], capsys)
    assert_one_line_error(code, out, err)
    assert err == (f"error: a report entry has more than {LIMIT} digits, the limit for "
                   "int-string conversion (PYTHONINTMAXSTRDIGITS)\n")
    # The writer met the entry in the basis's integer rows: no entry was read.
    (search,) = searches
    assert len(search.basis) == 3 and sum(reads) == 0
    assert search.basis[2][0, 0] == Fraction(1, k * k)


def test_report_entries_past_the_digit_limit_and_non_finite_ones_are_told_apart(tmp_path,
                                                                               capsys):
    # No X solves this nilpotent matrix's split, and the candidates' residual
    # norm overflows binary64.
    path = tmp_path / "m.json"
    path.write_text('{"rows": [[1e308, 1e308], [-1e308, -1e308]]}')
    code, out, err = run(["solve", str(path), "--split", "1", "--mode", "approx"], capsys)
    assert_one_line_error(code, out, err)
    assert err == ("error: the report holds a non-finite number (floating-point overflow); "
                   "use exact mode\n")
    if not LIMIT:
        return
    # The lower witness X = I with B = I: the triangularized block A + I holds
    # 10^LIMIT, LIMIT + 1 digits, while every entry read and every determinant
    # (-1 and 1) has at most LIMIT.
    big = 10 ** LIMIT
    m = write(tmp_path, "r.json", [[str(big - 1), 1, 1, 0], [1, -1, 0, 1],
                                   [str(big - 2), 1, 2, 0], [1, -2, 0, 2]])
    w = write(tmp_path, "w.json", [[1, 0], [0, 1]])
    code, out, err = run(["factor-riccati", m, "--w", w, "--orientation", "lower"], capsys)
    assert_one_line_error(code, out, err)
    assert err == (f"error: a report entry has more than {LIMIT} digits, the limit for "
                   "int-string conversion (PYTHONINTMAXSTRDIGITS)\n")


@pytest.mark.parametrize("command, given_x", [("transform", False), ("transform", True),
                                              ("embed", True), ("dilate", True)])
def test_an_overflowing_determinant_is_a_data_error(tmp_path, capsys, command, given_x):
    # X = 1 solves the split, but both determinants overflow binary64 to inf.
    path, x_path = tmp_path / "big.json", tmp_path / "x.json"
    path.write_text('{"rows": [[3e200, 1e200], [1e200, 3e200]]}')
    x_path.write_text('{"rows": [[1.0]]}')
    code, out, err = run([command, str(path)] + (["--x", str(x_path)] if given_x else []),
                         capsys)
    assert_one_line_error(code, out, err)
    assert "determinant overflows" in err and "exact mode" in err and "internal" not in err


def test_an_overflowing_pivot_is_a_data_error(tmp_path, capsys):
    # X solves M = [[I, I], [0, I]] (X^2 underflows to 0); at tol 0 its subnormal
    # entry is a pivot of the normal form, and 1 / 1e-310 overflows to inf.
    m = write(tmp_path, "m.json", [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0],
                                   [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    x = write(tmp_path, "x.json", [[1e-310, 0.0], [0.0, 0.0]])
    code, out, err = run(["embed", m, "--tol", "0", "--x", x], capsys)
    assert_one_line_error(code, out, err)
    assert "overflows" in err and "exact mode" in err and "internal" not in err


@pytest.mark.parametrize("command", ["transform", "embed", "dilate"])
def test_an_ill_conditioned_approximate_x_is_a_data_error(tmp_path, capsys, command):
    # X solves the split of M = Q C Q^-1 (C centrosymmetric, Q = diag(I, XJ)), but
    # in approximate mode its condition number, about 4e4, carries rounding past
    # the tolerance of the certificate checks.
    C = rand_centrosymmetric(random.Random(3), 4, -5, 5)
    outcome = {}
    for X in (Matrix([[1, 1], [1, Fraction(10001, 10000)]]), Matrix([[1, 1], [1, 1.0001]])):
        Cm = Matrix(C.to_lists(), mode=X.mode)
        Q, Q_inv, _ = dense_centro_transform(Cm, "even", 2, X)
        m, x = tmp_path / f"m_{X.mode}.json", tmp_path / f"x_{X.mode}.json"
        save_matrix(Q * Cm * Q_inv, m)
        save_matrix(X, x)
        outcome[X.mode] = run([command, str(m), "--x", str(x)], capsys)
    assert outcome["exact"][0] == 0
    assert_one_line_error(*outcome["approx"])
    err = outcome["approx"][2]
    assert "ill-conditioned" in err and "exact mode" in err and "internal" not in err


def test_an_overflowed_approximate_solve_is_a_data_error(tmp_path, capsys):
    # A nonzero nilpotent matrix, so no X solves its split; the residuals of
    # X = 1 and X = -1 overflow to inf and must not count as zero.
    path = tmp_path / "m.json"
    path.write_text('{"rows": [[1e308, 1e308], [-1e308, -1e308]]}')
    code, out, err = run(["solve", str(path), "--split", "1", "--mode", "approx"], capsys)
    assert_one_line_error(code, out, err)
    assert "non-finite" in err and "exact mode" in err


def test_an_overflowing_alpha_scan_grid_names_the_alpha(tmp_path, capsys):
    # alpha-scan has no exact mode, so its error names the alpha instead of
    # suggesting one (binary64 merges the Toeplitz entries long before the grid
    # threshold overflows); solve on the same matrix keeps the exact-mode hint.
    code, out, err = run(["alpha-scan", "--size", "4", "--start", "1e200", "--stop", "1e200"],
                         capsys)
    assert_one_line_error(code, out, err)
    assert "too large" in err and "alpha 1e+200" in err
    assert "exact mode" not in err
    path = tmp_path / "t4.json"
    path.write_text(json.dumps({"rows": [[1e200 + i - j for j in range(4)] for i in range(4)]}))
    code, out, err = run(["solve", str(path)], capsys)
    assert_one_line_error(code, out, err)
    assert "grid threshold overflows" in err and "use exact mode" in err


@pytest.mark.parametrize("alpha, scans", [
    ("9007199254740992", False), ("1152921504606846976", False),  # 2^53 and 2^60
    ("9007199254740000", True), ("4e15", True),
])
def test_alpha_scan_rejects_an_alpha_binary64_cannot_offset(capsys, alpha, scans):
    # At 2^53 and above, alpha + (i - j) rounds to fewer than 2n - 1 values,
    # so the matrix scanned would not be the linear Toeplitz one.
    code, out, err = run(["alpha-scan", "--size", "6", "--start", alpha, "--stop", alpha],
                         capsys)
    if scans:
        assert code == 0 and load_report(out)["rows"][0][0] == float(alpha)
    else:
        assert_one_line_error(code, out, err)
        assert f"alpha {float(alpha)!r}" in err


def _reject_constant(token):
    raise ValueError(f"non-JSON token {token}")


NEAR_OVERFLOW = (1e308, -1e308, 1.7e308, -1.7e308, 1.3e154, -1e154, 0.0, 1.0, -2.0)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(2, 4), st.data())
def test_approximate_reports_near_overflow_are_strict_json(tmp_path, capsys, n, data):
    entry = st.sampled_from(NEAR_OVERFLOW) | st.floats(-1.79e308, 1.79e308, allow_nan=False)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": rows}))
    for args in (["solve", str(path)], ["solve", str(path), "--split", "1"],
                 ["check", str(path)], ["transform", str(path)]):
        code, out, err = run(args + ["--mode", "approx"], capsys)
        if code == 1:
            assert_one_line_error(code, out, err)
            continue
        report = json.loads(out, parse_constant=_reject_constant)
        assert report["exit_code"] == code
        if code == 0 and args[0] == "solve":
            residuals = [v for sol in report["solutions"]
                         for key in ("sylvester_residual", "quadratic_residual")
                         for row in sol[key]["rows"] for v in row]
            assert all(math.isfinite(v) for v in residuals)


def test_alpha_scan_points_are_not_accumulated():
    # A list, not a generator: callers of alpha_scan may take len() of the points.
    points = _scan_points(-4.0, 4.0, 0.1)
    assert points == [-4.0 + i * 0.1 for i in range(81)]
    assert _scan_points(3.0, 3.0, 1.0) == [3.0]
    assert _scan_points(2.0, 1.0, 1.0) == []


@pytest.mark.parametrize("bounds", [
    ("0", "1", "0"), ("0", "1", "-1"), ("0", "1", "nan"), ("0", "1", "inf"),
    ("-inf", "1", "1"), ("0", "nan", "1"), ("-1e308", "1e308", "1e-300"),
])
def test_alpha_scan_rejects_bad_steps(capsys, bounds):
    start, stop, step = bounds
    assert_one_line_error(*run(["alpha-scan", f"--start={start}", f"--stop={stop}",
                                f"--step={step}"], capsys))


@pytest.mark.parametrize("args", [
    ["gen", "toeplitz", "--alpha", "1/0"],
    ["verify-corollary", "--family", "a", "--c", "1,1/0"],
    ["gen", "jacobi-a"],
])
def test_bad_rational_argument_is_one_line_error(capsys, args):
    assert_one_line_error(*run(args, capsys))


@pytest.mark.parametrize("args", [
    ["gen", "toeplitz", "--alpha=--"],
    ["gen", "jacobi-a", "--t=--", "--c=1,2,1"],
    ["gen", "jacobi-b", "--c=1,2,1", "--sign=--"],
    ["alpha-scan", "--start=--", "--stop=1"],
])
def test_double_dash_option_value_is_one_line_error(capsys, args):
    assert_one_line_error(*run(args, capsys))


def test_huge_decimal_exponents_are_one_line_errors_at_once(tmp_path, capsys):
    # Fraction() would build 10**99999999 first, for longer than any timeout.
    path = tmp_path / "m.json"
    path.write_text('{"rows": [["1e99999999", "0"], ["0", "1"]]}')
    for argv in (["check", str(path)], ["gen", "toeplitz", "--alpha", "1e99999999"]):
        start = time.perf_counter()
        code, out, err = run(argv, capsys)
        assert time.perf_counter() - start < 1.0
        assert_one_line_error(code, out, err)
        assert "exponent" in err


def test_decimal_arguments_still_parse(capsys):
    code, out, _ = run(["gen", "toeplitz", "--alpha", "1.5e-1", "--size", "2"], capsys)
    assert code == 0
    report = load_report(out)
    assert report["alpha"] == "3/20"
    assert report["matrix"]["rows"] == [["3/20", "-17/20"], ["23/20", "3/20"]]


def _is_rational(text):
    try:
        Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return False
    return True


NOT_RATIONAL = st.one_of(
    st.text(st.characters(blacklist_characters=","), max_size=8)
    .filter(lambda t: not _is_rational(t)),
    st.integers(-99, 99).map(lambda p: f"{p}/0"),
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(NOT_RATIONAL, st.sampled_from(["toeplitz-alpha", "jacobi-t", "jacobi-c", "corollary-c"]))
def test_malformed_rational_arguments_exit_one(capsys, text, where):
    args = {
        "toeplitz-alpha": ["gen", "toeplitz", f"--alpha={text}"],
        "jacobi-t": ["gen", "jacobi-a", f"--t={text}", "--c=1,2,1"],
        "jacobi-c": ["gen", "jacobi-b", f"--c=1,{text},1"],
        "corollary-c": ["verify-corollary", "--family=b", f"--c=1,{text},1"],
    }[where]
    assert_one_line_error(*run(args, capsys))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(2, 5), st.sampled_from([1, 3]), st.booleans(), st.data())
def test_exit_code_contract_on_random_matrices(tmp_path, capsys, n, bound, mirror, data):
    rows = data.draw(st.lists(st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
                              min_size=n, max_size=n))
    if mirror:
        rows = [[rows[i][j] if (i, j) <= (n - 1 - i, n - 1 - j) else rows[n - 1 - i][n - 1 - j]
                 for j in range(n)] for i in range(n)]
    path = write(tmp_path, "m.json", rows)
    commands = [["check", path], ["solve", path], ["factor-centro", path]]
    if n % 2:
        commands.append(["solve", path, "--odd"])
    for args in commands:
        code, out, err = run(args, capsys)
        assert code in (0, 2)
        report = load_report(out)
        assert report["exit_code"] == code
        if args[0] == "factor-centro" and not is_centrosymmetric(Matrix(rows)):
            assert code == 2
            assert report["centrosymmetric"] is False and "factorization" not in report


def test_max_solutions_one_reports_one_solution(tmp_path, capsys):
    path = write(tmp_path, "m.json", [["1", "2"], ["2", "1"]])
    code, out, _ = run(["solve", path, "--max-solutions", "1"], capsys)
    assert code == 0 and len(load_report(out)["solutions"]) == 1


@pytest.mark.parametrize("flag, value", [
    ("--max-solutions", "0"), ("--d-max", "-1"), ("--grid-numer-max", "-1"),
    ("--grid-denom-max", "0"),
])
@pytest.mark.parametrize("command", ["solve", "transform"])
def test_nonsense_search_options_exit_one(tmp_path, capsys, command, flag, value):
    path = write(tmp_path, "m.json", [["1", "2"], ["2", "1"]])
    assert_one_line_error(*run([command, path, flag, value], capsys))


def test_alpha_scan_point_limit_raises_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="1000000"):
            _scan_points(0.0, 1e12, 1e-12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert len(_scan_points(0.0, 999_999.0, 1.0)) == 1_000_000
    with pytest.raises(ValueError):
        _scan_points(0.0, 1_000_000.0, 1.0)


def test_build_parser_returns_a_fresh_parser():
    first, second = build_parser(), build_parser()
    assert first is not second
    assert vars(first.parse_args(["check", "m.json"])) == vars(
        second.parse_args(["check", "m.json"]))


def _fresh_env():
    """The environment of a new process that imports this centrosim."""
    env = dict(os.environ)
    src = str(Path(centrosim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def _fresh_main(argv):
    """Exit code, stdout and stderr of `python -m centrosim.cli argv` in a new process."""
    proc = subprocess.run([sys.executable, "-m", "centrosim.cli", *argv], env=_fresh_env(),
                          capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


# Library modules that no start of the CLI may add: dataclasses alone, through
# inspect, ast, dis and tokenize, cost a start about 4 ms.
_HEAVY_LOADED = """
import sys
print(*sorted(m for m in ("dataclasses", "inspect") if m in sys.modules))
"""

_LOADED_MODULES = """
import sys
import centrosim.cli
centrosim.cli.load_matrix(sys.argv[1])
if sys.argv[2:]:
    centrosim.cli.main(sys.argv[2:])
print(*sorted(m for m in sys.modules if m.split(".")[0] == "centrosim"))
""" + _HEAVY_LOADED


@pytest.mark.parametrize("command, runs", [
    (None, ()),
    ("check", ()),
    ("solve", ("linalg", "solver")),
    ("transform", ("linalg", "solver", "transforms")),
    ("factor-centro", ("factorization", "linalg", "solver")),
    ("gen toeplitz --size 4", ("generators", "linalg", "solver")),
    ("alpha-scan --size 4 --start 3 --stop 4", ("generators", "linalg", "solver")),
])
def test_each_command_imports_only_the_modules_it_runs(tmp_path, command, runs):
    # A new process starts with none of centrosim loaded: importing the CLI and
    # reading a matrix load errors and matrix; a command then adds what it runs.
    # A site .pth file may load a heavy module before any centrosim code runs,
    # so the start is compared with a bare interpreter's.  A command with
    # arguments of its own reads no matrix.
    path = write(tmp_path, "m.json", [[2, 1], [1, 2]])
    argv = [] if command is None else command.split() if " " in command else [command, path]
    proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES, path, *argv],
                          env=_fresh_env(), capture_output=True, text=True, check=True)
    *_, loaded, heavy = proc.stdout.splitlines()
    assert loaded.split() == sorted(["centrosim", "centrosim.cli", "centrosim.errors",
                                     "centrosim.matrix", *("centrosim." + m for m in runs)])
    bare = subprocess.run([sys.executable, "-c", _HEAVY_LOADED], env=_fresh_env(),
                          capture_output=True, text=True, check=True)
    assert heavy == bare.stdout.rstrip("\n")


def test_closed_pipe_exits_one_without_traceback():
    # The 200 x 200 report is larger than a pipe buffer, so the CLI is still
    # writing when the reader closes its end, as `centrosim gen ... | head` does.
    proc = subprocess.Popen([sys.executable, "-m", "centrosim.cli", "gen", "toeplitz",
                             "--size", "200"], env=_fresh_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    assert proc.stdout.read(100).startswith("{")
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert stderr == "generated 200x200 matrix\n"


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    odd = write(tmp_path, "odd.json", [[2, 1, 1], [1, 5, 1], [1, 1, 2]])
    report = str(tmp_path / "report.json")
    first = ["solve", odd, "--mode", "approx", "--odd", "--tol", "1e-6", "-o", report]
    code, out, _ = run(first, capsys)
    assert code == 0 and out.startswith("1 approximate solution(s)")
    assert load_report(Path(report).read_text())["parity"] == "odd"
    generated = str(tmp_path / "gen.json")
    scan = str(tmp_path / "scan.csv")
    later = [
        ["solve", odd],
        ["check", odd],
        ["transform", odd, "--split", "1"],
        ["gen", "toeplitz", "--alpha", "3", "--size", "4", "-o", generated],
        ["alpha-scan", "--size", "4", "--start", "3", "--stop", "4", "-o", scan],
        ["alpha-scan", "--size", "4", "--start", "3", "--stop", "3"],
        ["solve", odd, "--max-solutions", "0"],
    ]
    for argv in later:
        assert run(argv, capsys) == _fresh_main(argv), argv
    # gen and alpha-scan still write their own output: a matrix and a CSV.
    assert set(json.loads(Path(generated).read_text())) == {"rows"}
    assert Path(scan).read_text().startswith("alpha,")


def test_each_check_runs_once_per_command(tmp_path, capsys, monkeypatch):
    import centrosim.cli as cli
    import centrosim.factorization as factorization
    import centrosim.solver as solver

    calls = []

    def counted(module, name, label=None):
        func = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(label or name)
            return func(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module in (cli, factorization, solver):
        for name in ("riccati_residual", "split_blocks", "is_centrosymmetric"):
            if hasattr(module, name):
                counted(module, name)
    m = write(tmp_path, "m.json", [[1, -1], [1, -1]])
    w = write(tmp_path, "w.json", [[1]])
    code, _, _ = run(["factor-riccati", m, "--w", w, "--orientation", "lower"], capsys)
    assert code == 0 and sorted(calls) == ["riccati_residual", "split_blocks"]
    calls.clear()
    code, _, _ = run(["factor-centro", write(tmp_path, "c.json", [[1, 2], [2, 1]])], capsys)
    assert code == 0 and sorted(calls) == ["is_centrosymmetric", "split_blocks"]
    calls.clear()
    code, _, _ = run(["check", write(tmp_path, "c.json", [[1, 2], [2, 1]])], capsys)
    assert code == 0 and calls == ["is_centrosymmetric"]
    # Linear Toeplitz n=6 at alpha 11/3: J, I and -J fail their screens, so only
    # grid hits are multiplied out and inverted.  solve verifies all ten hits;
    # transform stops at the first, which is invertible, and conjugates with the
    # inverse the search found, so transforms checks it neither way again.
    import centrosim.transforms as transforms
    for module in (solver, transforms):
        for name in ("system_residuals", "gauss_facts"):
            counted(module, name, f"{module.__name__.split('.')[-1]}.{name}")
    toeplitz6 = write(tmp_path, "t6.json", [[Fraction(11, 3) + i - j for j in range(6)]
                                            for i in range(6)])
    calls.clear()
    code, _, _ = run(["solve", toeplitz6], capsys)
    assert code == 0 and sorted(calls) == (["solver.gauss_facts"] * 10
                                           + ["solver.system_residuals"] * 10 + ["split_blocks"])
    calls.clear()
    code, out, _ = run(["transform", toeplitz6], capsys)
    assert code == 0 and sorted(calls) == ["solver.gauss_facts", "solver.system_residuals",
                                           "split_blocks"]
    assert load_report(out)["transform"]["certification"] == "fully_centrosymmetric"
    # dilate splits M once: the split whose equations it checks gives the wide
    # construction its blocks, and the tall one their transposes.
    counted(transforms, "split_blocks")
    for case in ("dilate-wide", "dilate-tall"):
        rows, split, x = TRANSFORM_CASES[case]
        calls.clear()
        code, _, _ = run(["dilate", write(tmp_path, "d.json", rows), "--split", str(split),
                          "--x", write(tmp_path, "x.json", x)], capsys)
        assert code == 0 and sorted(calls) == ["split_blocks", "transforms.gauss_facts",
                                               "transforms.gauss_facts",
                                               "transforms.system_residuals"], case


TOEPLITZ4 = [[3, 2, 1, 0], [4, 3, 2, 1], [5, 4, 3, 2], [6, 5, 4, 3]]
RANK_ONE_SPLIT = [[1, 0, 7, 4], [5, 6, 8, 9], [7, 0, 1, 3], [0, 0, 0, 2]]
# command -> (M, split, X): every branch of the three given-X transforms.
TRANSFORM_CASES = {
    "transform": (TOEPLITZ4, 2, [[1, 1], [2, 1]]),
    "embed-rank-deficient": (RANK_ONE_SPLIT, 2, [[1, 0], [0, 0]]),
    "embed-full-rank": (TOEPLITZ4, 2, [[1, 1], [2, 1]]),
    "dilate-wide": ([[4, 0, 6], [9, 7, 3], [6, 0, 4]], 2, [[1, 0]]),
    "dilate-tall": ([[4, 9, 6], [0, 7, 0], [6, 3, 4]], 1, [[0], [1]]),
    "dilate-center": (TOEPLITZ4, 2, [[1, 1], [2, 1]]),
}


@pytest.mark.parametrize("case", sorted(TRANSFORM_CASES))
def test_each_transform_check_runs_once_per_command(tmp_path, capsys, monkeypatch, case):
    import centrosim.transforms as transforms

    calls = []
    for name in ("system_residuals", "_check_conjugation", "is_centrosymmetric"):
        def counted(*args, _func=getattr(transforms, name), _name=name, **kwargs):
            calls.append(_name)
            return _func(*args, **kwargs)
        monkeypatch.setattr(transforms, name, counted)
    rows, split, x = TRANSFORM_CASES[case]
    argv = [case.split("-")[0], write(tmp_path, "m.json", rows), "--split", str(split),
            "--x", write(tmp_path, "x.json", x)]
    code, _, _ = run(argv, capsys)
    assert code == 0
    assert sorted(calls) == ["_check_conjugation", "is_centrosymmetric", "system_residuals"]


@pytest.mark.parametrize("rows", [[[1, 2, 3], [4, 5, 6], [7, 8, 10]], TOEPLITZ4])
@pytest.mark.parametrize("given_x", [False, True])
def test_transform_rejects_an_even_split_off_center_before_any_search(
        tmp_path, capsys, monkeypatch, rows, given_x):
    import centrosim.solver as solver

    def no_search(*args, **kwargs):
        raise AssertionError("searched")
    monkeypatch.setattr(solver, "find_intertwiner", no_search)
    argv = ["transform", write(tmp_path, "m.json", rows), "--split", "1"]
    if given_x:
        argv += ["--x", write(tmp_path, "x.json", [[1]] * (len(rows) - 1))]
    code, out, err = run(argv, capsys)
    assert_one_line_error(code, out, err)
    assert err == ("error: n = 3 is odd: pass --odd for the odd center split\n" if len(rows) == 3
                   else "error: even transform needs the center split s = n/2\n")


@pytest.mark.parametrize("rows, odd, error", [
    # Three rows but not square: --odd fails the same way.
    ([[1, 2], [3, 4], [5, 6]], False, "block split requires a square matrix"),
    ([[1, 2], [3, 4], [5, 6]], True, "block split requires a square matrix"),
    # n = 1 has no odd split (s >= 1) to suggest.
    ([[7]], False, "even transform needs the center split s = n/2"),
    ([[7]], True, "odd split needs n = 2s+1 with s >= 1, got s=0, n=1"),
])
def test_transform_suggests_odd_only_where_an_odd_split_exists(tmp_path, capsys, rows, odd,
                                                               error):
    argv = ["transform", write(tmp_path, "m.json", rows)] + (["--odd"] if odd else [])
    code, out, err = run(argv, capsys)
    assert_one_line_error(code, out, err)
    assert err == f"error: {error}\n"


USAGE_ERRORS = {
    "missing-matrix": ["solve"],
    "unknown-command": ["frobnicate"],
    "bad-int": ["solve", "{m}", "--d-max", "abc"],
    "bad-choice": ["certify-singular", "{m}", "--w", "{m}", "--system", "5"],
    "unknown-flag": ["check", "{m}", "--frobnicate"],
}


def _usage_argv(tmp_path, name):
    m = write(tmp_path, "m.json", [[1, 2], [2, 1]])
    return [a.format(m=m) for a in USAGE_ERRORS[name]]


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_errors_exit_one_with_one_error_line(tmp_path, capsys, name):
    # argparse alone would print its usage block and exit 2, the negative-verdict code.
    assert_one_line_error(*run(_usage_argv(tmp_path, name), capsys))


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_errors_exit_one_in_a_fresh_process(tmp_path, name):
    assert_one_line_error(*_fresh_main(_usage_argv(tmp_path, name)))


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0 and "usage:" in capsys.readouterr().out
    code, out, err = _fresh_main(argv)
    assert code == 0 and "usage:" in out and err == ""
