import csv
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import centrosim
from centrosim import Matrix, is_centrosymmetric, matrix_from_json_obj, save_matrix
from centrosim.cli import _scan_points, build_parser, main


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
    report = json.load(open(rep_path))
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
    assert json.load(open(out_path)) == {"rows": [["2", "1", "1"], ["1", "2", "1"], ["1", "1", "2"]]}
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
    assert code == 0 and out.startswith("1 exact solution")
    assert load_report(open(report).read())["parity"] == "odd"
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
    assert set(json.loads(open(generated).read())) == {"rows"}
    assert open(scan).readline().startswith("alpha,")


def test_each_check_runs_once_per_command(tmp_path, capsys, monkeypatch):
    import centrosim.cli as cli
    import centrosim.factorization as factorization
    import centrosim.solver as solver

    calls = []

    def counted(module, name):
        func = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
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
