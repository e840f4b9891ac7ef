"""The golden CLI cases: each name maps to an argv and its input matrices.

``tests/test_golden.py`` compares every case's report with
``tests/golden/<case>.json`` under pytest.  This module needs no pytest, so the
same comparison runs on any Python the package supports; from the repository
root:

    PYTHONPATH=src python tests/golden_cases.py --check   # exit 1 on any mismatch
    PYTHONPATH=src python tests/golden_cases.py           # rewrite every golden file

Rewrite the golden files only after a deliberate report change.
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

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
# Rank 2 of 3 with X[0][0] = 0 (from oracles.embedding_instance): searching the
# first row for a pivot and taking the first column's pivot from the second row
# give different T and S, so the report pins how the normal form is read.
EMBED_PIVOT = _m("-1 3 -1 -15 14 5; -7/5 26/5 4/5 -6 6 3; 18/5 -49/5 -16/5 -11 8 3;"
                 "-2/5 -9/5 -11/5 3 -1 5; -2/5 -14/5 -16/5 6 -3 6; 0 2 2 -4 2 -3")
EMBED_PIVOT_X = _m("0 -1 -1; 1/5 -8/5 -7/5; -2/5 6/5 4/5")
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
# A rational invertible X for linear Toeplitz n=8 at alpha 5, where
# alpha^2 - 21 = 4 is a square: the first certified Toeplitz case beyond the
# paper's 4 x 4 and 6 x 6 (its Sylvester space has dimension 6 > d_max).
TOEPLITZ8_ALPHA5_X = _m("39/11 -9 26/11 1/11; -304/33 152/11 -7 -53/33;"
                        "26/33 -73/11 21/11 -35/33; -37/33 -35/11 -14/11 -14/33")
ONE = _m("1")
# Planted similar matrices M = diag(I, U) C0 diag(I, U^-1) at n = 12, 14, 16 and 13:
# C0 is small-integer centrosymmetric and U an integer unimodular s x s matrix, so
# U J solves the center split's equations and no special candidate does.  The
# Sylvester spaces have dimension 6, 7 and 8 (odd: 0 once the center equations
# hold); at n = 16 the canonical basis has entries of about 114 bits over one
# denominator.
PLANTED12 = _m(
    "-1 -2 0 2 -3 -3 -7 -9 6 -8 -5 -3;"
    "3 1 -3 -1 1 -3 4 1 -3 4 4 -2;"
    "1 -2 -3 -3 0 0 0 0 3 -6 -1 6;"
    "-3 -2 -3 1 0 -3 -1 2 0 -3 -2 1;"
    "3 1 -3 -2 2 2 6 0 -3 4 4 -4;"
    "1 -3 1 1 0 -3 3 4 -2 5 3 2;"
    "-1 3 0 1 2 0 -7 -5 5 -8 -4 2;"
    "-1 3 -6 0 0 4 11 15 -10 13 6 5;"
    "1 0 -15 0 6 8 16 32 -23 25 14 6;"
    "0 -2 -5 3 1 1 2 10 -9 8 5 1;"
    "2 -1 -2 -6 0 2 9 8 -5 10 6 0;"
    "-1 -2 3 1 -3 -2 -5 -7 4 -6 -2 -2")
PLANTED14 = _m(
    "0 -3 2 -3 3 1 1 5 2 1 1 -2 -3 1;"
    "3 3 -1 -1 2 -1 1 3 3 0 -2 0 2 6;"
    "0 1 3 0 -3 3 -3 -4 -3 2 -2 3 -1 -2;"
    "-1 0 2 2 -3 -3 2 2 2 1 2 0 -4 -2;"
    "2 -1 2 1 2 3 0 -5 -5 -5 -4 2 -2 -4;"
    "-1 2 0 2 -1 -3 0 1 3 1 1 -1 4 -1;"
    "-1 -2 1 -3 0 -3 -2 -3 -2 -1 -1 1 2 -2;"
    "5 2 0 1 -5 -1 9 3 -6 2 -14 -1 1 11;"
    "-3 1 1 -2 10 4 -11 -3 -4 -10 6 -2 -5 -16;"
    "-3 -2 2 -2 -2 -2 -3 -2 3 2 4 2 1 1;"
    "-1 -2 -2 2 -6 -1 8 1 1 6 -5 3 -1 8;"
    "4 3 3 1 -2 -3 8 -3 -6 -4 -11 2 5 8;"
    "1 0 0 -2 -3 0 3 2 0 3 -2 -1 3 5;"
    "0 0 -2 2 -2 -1 3 -1 2 4 -2 2 1 4")
PLANTED16 = _m(
    "-2 2 -2 -2 0 2 -1 3 1 -1 2 3 1 0 2 2;"
    "-3 -2 3 2 0 0 -3 -3 -3 2 -3 -1 0 1 -3 2;"
    "3 -3 1 -2 3 -1 2 0 2 -1 1 -6 -1 0 -1 -4;"
    "-2 0 2 -2 0 -1 -3 3 -1 4 0 -8 -3 -1 1 -2;"
    "-2 2 -1 2 3 3 -1 0 3 -3 -6 1 -3 -6 -1 -5;"
    "2 0 -2 0 -1 -1 -2 3 -3 -2 0 3 2 1 -1 3;"
    "1 0 2 3 -2 -1 -1 -1 1 -2 -1 2 1 0 1 1;"
    "0 -1 -1 0 -1 -2 1 -1 2 -2 5 0 2 3 -1 -2;"
    "0 1 0 3 3 4 -3 3 2 -3 -2 1 -2 -5 1 -6;"
    "2 0 -4 -2 -4 -5 -1 4 -1 -1 7 1 5 6 2 5;"
    "-2 -1 -1 2 -1 -2 -1 -3 3 -4 -1 4 0 -2 0 -1;"
    "1 -1 -3 -3 -3 -3 0 3 0 -2 5 4 2 1 2 0;"
    "2 2 2 -4 0 0 4 0 -4 4 3 -15 5 12 1 5;"
    "-1 -3 -1 -5 -5 1 -1 4 1 0 0 9 -3 -5 -1 -4;"
    "-1 -3 1 0 0 -3 1 -3 -3 0 2 -3 2 5 -2 2;"
    "1 3 2 4 3 4 0 -2 3 -1 -5 -4 -4 -5 0 -7")
PLANTED13 = _m(
    "1 -3 -3 3 -2 1 3 1 6 -2 4 2 -1;"
    "0 -2 2 -1 -1 1 0 3 8 3 7 2 -1;"
    "-1 0 -3 -3 3 0 2 2 8 4 7 -4 -6;"
    "0 0 0 -1 -3 -2 3 -1 7 0 5 -2 1;"
    "-3 2 -1 2 -1 0 -2 1 -6 2 -4 2 5;"
    "3 2 -2 1 -3 -2 -2 3 -2 9 1 0 -2;"
    "-3 -3 2 -1 0 1 3 1 5 0 4 -3 -6;"
    "-2 -1 -2 2 3 -1 0 -3 -7 -4 -7 3 9;"
    "1 5 -3 5 -9 1 -9 3 -11 6 -3 5 4;"
    "2 5 -1 2 -3 2 -4 1 -8 0 -4 5 3;"
    "-3 -6 4 -6 12 1 11 -3 17 -6 6 -8 -8;"
    "0 2 0 1 2 2 -3 0 14 -3 10 0 -1;"
    "-3 1 2 -2 -1 1 3 1 -10 2 -7 -1 0")

# The same A = [[1, 0], [1, 2]] and D = [[1, 1], [0, 2]] in both parities; the odd
# center conditions leave the line X = [[t + 1, t], [t, t]], and t = 1 solves.
ROW_FORM4 = _m("1 0 1 0; 1 2 0 1; 0 1 1 1; 1 0 0 2")
ROW_FORM5 = _m("1 0 1 1 0; 1 2 -1 0 1; 1 0 3 1 -1; 5 3 1 1 1; 3 2 0 0 2")

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
    # The same grid widened to |p| <= 7, q <= 4: its values' lcm is 12, not 6.
    "solve_toeplitz6_alpha11_3_grid7_4": (["solve", "{m}", "--grid-numer-max", "7",
                                           "--grid-denom-max", "4"],
                                          {"m": _toeplitz("11/3", 6)}),
    # The d=1 line x^2 = 3, whose report carries the discriminant, and x^2 = 4,
    # whose roots +-2 both solve.
    "solve_line_discriminant": (["solve", "{m}"], {"m": _m("2 1; 3 2")}),
    "solve_line_roots": (["solve", "{m}"], {"m": _m("2 1; 4 2")}),
    # The Krylov reduction of the linear stage at n >= 12, in both parities.
    "solve_planted12": (["solve", "{m}"], {"m": PLANTED12}),
    "solve_planted14": (["solve", "{m}"], {"m": PLANTED14}),
    "solve_planted16": (["solve", "{m}"], {"m": PLANTED16}),
    "solve_planted13_odd": (["solve", "{m}", "--odd"], {"m": PLANTED13}),
    # D = [[1, 1], [0, 2]]: e_1^T is a left eigenvector of D, so X's last row
    # does not fix X, and e_0^T is cyclic for D^T.
    "solve_row_form": (["solve", "{m}"], {"m": ROW_FORM4}),
    "solve_row_form_odd": (["solve", "{m}", "--odd"], {"m": ROW_FORM5}),
    # The center conditions contradict XA = DX: on the last-row route (D = [[1]]),
    # and on the elimination fallback (D = 3I, so no unit row is cyclic for D^T).
    "solve_infeasible_last_row": (["solve", "{m}", "--odd"], {"m": _m("1 0 2; 3 7 4; 5 1 1")}),
    "solve_infeasible_fallback": (["solve", "{m}", "--odd"],
                                  {"m": _m("3 1 1 0 0; 0 2 -1 0 0; 0 0 1 0 0; 0 0 1 3 0;"
                                           "0 0 0 0 3")}),
    "transform_search_even": (["transform", "{m}"], {"m": TOEPLITZ4}),
    "transform_search_odd": (["transform", "{m}", "--odd"], {"m": ODD3}),
    "transform_search_inconclusive": (["transform", "{m}", "--split", "1"],
                                      {"m": COUNTEREXAMPLE}),
    # Ten grid solutions, of which the first invertible one is used; the same
    # with the search capped at two; and the d=1 line that solves throughout,
    # whose diagnostic survives although J already solves.
    "transform_toeplitz6_alpha11_3": (["transform", "{m}"], {"m": _toeplitz("11/3", 6)}),
    "transform_toeplitz6_alpha11_3_max2": (["transform", "{m}", "--max-solutions", "2"],
                                           {"m": _toeplitz("11/3", 6)}),
    "transform_scalar_line": (["transform", "{m}"], {"m": _m("5 0; 0 5")}),
    "transform_x_even": (["transform", "{m}", "--x", "{x}"], {"m": EVEN6, "x": EVEN6_X}),
    "transform_x_odd": (["transform", "{m}", "--odd", "--x", "{x}"],
                        {"m": ODD5, "x": ODD5_X}),
    "transform_x_toeplitz8_alpha5": (["transform", "{m}", "--x", "{x}"],
                                     {"m": _toeplitz(5, 8), "x": TOEPLITZ8_ALPHA5_X}),
    "embed_a1_b1": (["embed", "{m}", "--x", "{x}"], {"m": EMBED_A1_B1, "x": EMBED_A1_B1_X}),
    "embed_a2_b1": (["embed", "{m}", "--split", "3", "--x", "{x}"],
                    {"m": EMBED_A2_B1, "x": EMBED_A2_B1_X}),
    "embed_a0_b2": (["embed", "{m}", "--split", "2", "--x", "{x}"],
                    {"m": EMBED_A0_B2, "x": EMBED_A0_B2_X}),
    "embed_pivot_order": (["embed", "{m}", "--x", "{x}"],
                          {"m": EMBED_PIVOT, "x": EMBED_PIVOT_X}),
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
    # Approximate-mode solves: J and -J solve the even split, J the odd one,
    # and no candidate solves Toeplitz n=4 at alpha 0, whose report carries
    # the smallest residual norm over every candidate tried.
    "solve_approx_centro_even": (["solve", "{m}", "--mode", "approx"], {"m": CENTRO4}),
    "solve_approx_centro_odd": (["solve", "{m}", "--odd", "--mode", "approx"],
                                {"m": CENTRO5}),
    "solve_approx_toeplitz4_alpha0": (["solve", "{m}", "--mode", "approx"],
                                      {"m": _toeplitz(0, 4)}),
    # The float grid in dimension 3: ten hits, whose order and bits are pinned,
    # and an exhausted search whose first entry has a = 0 (linear in t).
    "solve_approx_toeplitz6_alpha11_3": (["solve", "{m}", "--mode", "approx"],
                                         {"m": _toeplitz("11/3", 6)}),
    "solve_approx_toeplitz6_alpha3": (["solve", "{m}", "--mode", "approx"],
                                      {"m": _toeplitz(3, 6)}),
}
APPROX_CASES = {name for name, (argv, _) in CASES.items() if "approx" in argv}

# Approximate-mode reports of the float grid.  Step 0.5 gives dyadic alphas
# only; at step 0.1 most alphas are not dyadic, so the float evaluation of the
# tabulated intertwiners is pinned to its last bit.
SCAN_CASES = {
    f"alpha_scan_size{n}{suffix}": (["alpha-scan", "--size", str(n), "--start", "-8",
                                     "--stop", "8", "--step", step], {})
    for n in (4, 6) for step, suffix in (("0.5", ""), ("0.1", "_step0_1"))
}


def run_case(name, directory):
    """Run main on case name, its input files written under directory."""
    argv, files = {**CASES, **SCAN_CASES}[name]
    paths = {}
    for key, obj in files.items():
        paths[key] = str(Path(directory) / f"{key}.json")
        Path(paths[key]).write_text(json.dumps(obj), encoding="utf-8")
    main([arg.format(**paths) for arg in argv])



def report(name):
    """The stdout of main on case name, its input files in a temporary directory."""
    buf = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        run_case(name, tmp)
    return buf.getvalue()


def _main(argv=None):
    parser = argparse.ArgumentParser(description="Check or rewrite the golden CLI reports.")
    parser.add_argument("--check", action="store_true",
                        help="compare instead of rewriting; exit 1 listing any mismatch")
    args = parser.parse_args(argv)
    names = sorted({**CASES, **SCAN_CASES})
    if args.check:
        mismatched = [name for name in names
                      if report(name) != (GOLDEN / f"{name}.json").read_text(encoding="utf-8")]
        for name in mismatched:
            print(f"mismatch: {name}")
        print(f"python {sys.version.split()[0]}: {len(names) - len(mismatched)} of "
              f"{len(names)} golden reports match")
        return 1 if mismatched else 0
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        (GOLDEN / f"{name}.json").write_text(report(name), encoding="utf-8")
        print(f"wrote {name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(_main())
