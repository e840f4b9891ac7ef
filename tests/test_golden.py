"""CLI reports compared byte for byte with committed golden files.

Each case runs ``cli.main`` on fixed input matrices and compares its stdout
with ``tests/golden/<case>.json``.  Together the exact cases reach every
command that prints an exact report and every transform branch: the searched
and given-X conjugation (even and odd), the principal-block embedding, the
wide and tall dilation, both determinant splits and both Riccati
orientations.  The linear Toeplitz solves reach the exact grid in dimension 2
and 3, and the approximate ``alpha-scan`` cases the float grid.

To rewrite the golden files after a deliberate report change, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root.
"""

import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from centrosim.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _m(text):
    """Matrix JSON from rows separated by ';' and entries by spaces."""
    return {"rows": [row.split() for row in text.split(";")]}


def _toeplitz(alpha, n):
    """The linear Toeplitz matrix with entries alpha + i - j."""
    return {"rows": [[str(Fraction(alpha) + i - j) for j in range(n)] for i in range(n)]}


TOEPLITZ4 = _m("3 2 1 0; 4 3 2 1; 5 4 3 2; 6 5 4 3")
ODD3 = _m("2 1 1; 1 5 1; 1 1 2")
COUNTEREXAMPLE = _m("1 3; 2 2")
CENTRO4 = _m("4 -3 5 -5; 2 -2 3 2; 2 3 -2 2; -5 5 -3 4")
CENTRO5 = _m("5 2 4 0 -5; -2 4 -1 4 0; 4 2 -5 2 4; 0 4 -1 4 -2; -5 0 4 2 5")
EVEN6 = _m("0 2 0 -5/3 5/2 1/6; -1 -3 -3 -7/3 1 5/6; 0 -1 -1 11/3 -3 -13/6;"
           "11 2 9 16/3 -5 -10/3; 10 -6 0 8 -8 -5; 2 8 18 10/3 -2 -4/3")
EVEN6_X = _m("-1 2 -2; -2 2 0; 2 2 -2")
ODD5 = _m("3 -2 -1 -2 1/2; 3 3 3 -2/3 -1/3; -3 -2 2 -1/3 4/3;"
          "-3 -1 -7 5/3 7/3; 6 -10 -4 -10/3 13/3")
ODD5_X = _m("1 -2; -2 -2")
EMBED_A1_B1 = _m("-6 -6 2 14; 3 3 -1 -22; -3/5 -3/5 -11/5 -2/5; -6/5 -6/5 8/5 -19/5")
EMBED_A1_B1_X = _m("-1/5 -1/5; -2/5 -2/5")
EMBED_A2_B1 = _m("-2 -4 -2 -10 -6; -4/3 4/3 -1/3 -7 1; 8/3 -8/3 2/3 9 1; 0 0 0 -1 0;"
                 "-1/3 -2/3 -1/3 1 -2")
EMBED_A2_B1_X = _m("0 0 0; -1/3 -2/3 -1/3")
EMBED_A0_B2 = _m("1 0 2 -2 16 -14; 1 1 1 -4 6 -11; 8 -16 -3 17 0 35; 6 -12 -3 13 0 24;"
                 "-1 7/2 1/2 -9/2 1 -21/2; -2 4 0 -2 0 -5")
EMBED_A0_B2_X = _m("2 0; 3/2 0; -1/4 -1/2; -1/2 0")
WIDE5 = _m("-22/19 121/38 47/19 3 1; 24/19 48/19 4/19 2 -1; -17/19 -163/38 -44/19 3 -2;"
           "-10 47 48 -1 3; 12 -45 -50 2 1")
WIDE5_X = _m("-1 2 3; 0 -3 -2")
TALL5 = _m("3 3 1 -3 -1; 2 0 0 0 -3; 5 -10 7/3 10/3 -2/3; -6 9 10/3 4/3 -2/3;"
           "16 -29 4 4 -2")
TALL5_X = _m("-1 1; 0 -1; -2 3")
TALL6 = _m("2 0 3 1 3 3; 3 -2 1 -1 -1 3;"
           "-18 28 279/157 239/157 555/157 -215/157;"
           "16 -36 -817/314 -91/314 -464/157 283/157;"
           "5 0 288/157 34/157 188/157 87/157;"
           "-8 8 166/157 266/157 418/157 -12/157")
TALL6_X = _m("-1 3; -3 -1; 3 -2; -2 2")
RICCATI_LOWER = _m("-1 1 -1 2; -2 2 -1 1; -4 -9 -3 -3; 11 -1 -1 -2")
RICCATI_LOWER_W = _m("1 0; -1 -2")
RICCATI_UPPER = _m("1 1 2 -22 -24; 0 -2 -2 26 28; -2 2 3 3 -1; 2 2 0 3 1; -3 1 -1 0 3")
RICCATI_UPPER_W = _m("0 -2 -2; 0 2 2")
SINGULAR = _m("2 3 3 -2; -2 -2 -2 0; 2 1 1 2; -4 -6 -6 4")
SINGULAR_W = _m("-1 -2; -2 0")
ONE = _m("1")

# name -> (argv, files): each {key} in argv names the file written from files[key].
CASES = {
    "check_even": (["check", "{m}"], {"m": CENTRO4}),
    "check_odd": (["check", "{m}"], {"m": CENTRO5}),
    "check_negative": (["check", "{m}"], {"m": COUNTEREXAMPLE}),
    "solve_even": (["solve", "{m}", "--split", "2"], {"m": TOEPLITZ4}),
    "solve_odd": (["solve", "{m}", "--odd"], {"m": ODD3}),
    "solve_trivial": (["solve", "{m}", "--split", "1"], {"m": COUNTEREXAMPLE}),
    # Grid exhaustion in dimension 3 and 2, and ten grid solutions in dimension 3.
    "solve_toeplitz6_alpha3": (["solve", "{m}"], {"m": _toeplitz(3, 6)}),
    "solve_toeplitz4_alpha0": (["solve", "{m}"], {"m": _toeplitz(0, 4)}),
    "solve_toeplitz6_alpha11_3": (["solve", "{m}"], {"m": _toeplitz("11/3", 6)}),
    "transform_search_even": (["transform", "{m}"], {"m": TOEPLITZ4}),
    "transform_search_odd": (["transform", "{m}", "--odd"], {"m": ODD3}),
    "transform_search_inconclusive": (["transform", "{m}", "--split", "1"],
                                      {"m": COUNTEREXAMPLE}),
    "transform_x_even": (["transform", "{m}", "--x", "{x}"], {"m": EVEN6, "x": EVEN6_X}),
    "transform_x_odd": (["transform", "{m}", "--odd", "--x", "{x}"],
                        {"m": ODD5, "x": ODD5_X}),
    "embed_a1_b1": (["embed", "{m}", "--x", "{x}"], {"m": EMBED_A1_B1, "x": EMBED_A1_B1_X}),
    "embed_a2_b1": (["embed", "{m}", "--split", "3", "--x", "{x}"],
                    {"m": EMBED_A2_B1, "x": EMBED_A2_B1_X}),
    "embed_a0_b2": (["embed", "{m}", "--split", "2", "--x", "{x}"],
                    {"m": EMBED_A0_B2, "x": EMBED_A0_B2_X}),
    "dilate_wide": (["dilate", "{m}", "--split", "3", "--x", "{x}"],
                    {"m": WIDE5, "x": WIDE5_X}),
    "dilate_tall": (["dilate", "{m}", "--x", "{x}"], {"m": TALL5, "x": TALL5_X}),
    "dilate_tall_e2": (["dilate", "{m}", "--split", "2", "--x", "{x}"],
                       {"m": TALL6, "x": TALL6_X}),
    "factor_centro_even": (["factor-centro", "{m}"], {"m": CENTRO4}),
    "factor_centro_odd": (["factor-centro", "{m}"], {"m": CENTRO5}),
    "factor_centro_one": (["factor-centro", "{m}"], {"m": ONE}),
    "factor_centro_negative": (["factor-centro", "{m}"], {"m": COUNTEREXAMPLE}),
    "factor_riccati_lower": (["factor-riccati", "{m}", "--w", "{w}", "--orientation", "lower"],
                             {"m": RICCATI_LOWER, "w": RICCATI_LOWER_W}),
    "factor_riccati_upper": (["factor-riccati", "{m}", "--split", "2", "--w", "{w}",
                              "--orientation", "upper"],
                             {"m": RICCATI_UPPER, "w": RICCATI_UPPER_W}),
    "factor_riccati_nonzero": (["factor-riccati", "{m}", "--w", "{w}", "--orientation",
                                "lower"], {"m": _m("1 2; 3 4"), "w": ONE}),
    "certify_singular_holds": (["certify-singular", "{m}", "--w", "{w}", "--system", "1"],
                               {"m": SINGULAR, "w": SINGULAR_W}),
    "certify_singular_fails": (["certify-singular", "{m}", "--w", "{w}", "--system", "2"],
                               {"m": SINGULAR, "w": SINGULAR_W}),
    "gen_toeplitz4": (["gen", "toeplitz", "--alpha", "3", "--size", "4"], {}),
    "gen_toeplitz6": (["gen", "toeplitz", "--alpha", "11/3", "--size", "6"], {}),
    "gen_jacobi_a": (["gen", "jacobi-a", "--t", "2", "--c", "1,1/2,3,3,1/2", "--sign", "-"],
                     {}),
    "gen_jacobi_b": (["gen", "jacobi-b", "--t", "-1", "--c", "3,2,7,2"], {}),
    "verify_corollary_a": (["verify-corollary", "--family", "a", "--c", "1,2,3,2",
                            "--sign", "-"], {}),
    "verify_corollary_b": (["verify-corollary", "--family", "B", "--c", "2,1/3,1/3"], {}),
}

# Approximate-mode reports of the float grid.
SCAN_CASES = {
    f"alpha_scan_size{n}": (["alpha-scan", "--size", str(n), "--start", "-8", "--stop", "8",
                             "--step", "0.5"], {})
    for n in (4, 6)
}


def run_case(name, directory):
    """Run main on case name, its input files written under directory."""
    argv, files = {**CASES, **SCAN_CASES}[name]
    paths = {}
    for key, obj in files.items():
        paths[key] = str(Path(directory) / f"{key}.json")
        Path(paths[key]).write_text(json.dumps(obj), encoding="utf-8")
    main([arg.format(**paths) for arg in argv])


@pytest.mark.parametrize("name", sorted(CASES))
def test_exact_report_matches_golden_file(name, tmp_path, capsys):
    run_case(name, tmp_path)
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert json.loads(out)["mode"] == "exact"


@pytest.mark.parametrize("name", sorted(SCAN_CASES))
def test_alpha_scan_report_matches_golden_file(name, tmp_path, capsys):
    run_case(name, tmp_path)
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert json.loads(out)["mode"] == "approx"


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for case in sorted({**CASES, **SCAN_CASES}):
        buf = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            run_case(case, tmp)
        (GOLDEN / f"{case}.json").write_text(buf.getvalue(), encoding="utf-8")
        print(f"wrote {case}", file=sys.stderr)
