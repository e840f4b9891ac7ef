"""CLI reports compared byte for byte with committed golden files.

Each case runs ``cli.main`` on fixed input matrices and compares its stdout
with ``tests/golden/<case>.json``.  Together the exact cases reach every
command that prints an exact report and every transform branch: the searched
and given-X conjugation (even and odd, and linear Toeplitz n = 8 at alpha 5,
beyond the paper's sizes), the principal-block embedding, the
wide and tall dilation, both determinant splits and both Riccati
orientations.  The linear Toeplitz solves reach the exact grid in dimension 2
and 3, the planted n = 12, 14, 16 and odd 13 solves the Krylov linear stage with
Sylvester spaces of dimension 6, 7 and 8, the row-form solves a D whose last
unit row is not cyclic for its transpose, and the approximate ``alpha-scan``
cases the float grid.  The
approximate ``solve`` cases pin the float residuals of the special
candidates J, I and -J to their last bit, signs of zero included, and the
approximate Toeplitz n=6 solves the float grid's hits in dimension 3, in order
and to their last bit, and its exhaustion where the first entry is linear.

The cases live in ``golden_cases.py``, which also checks or rewrites the golden
files without pytest (see its docstring).
"""

import json

import pytest

from centrosim import SearchOptions, solver
from golden_cases import APPROX_CASES, CASES, GOLDEN, SCAN_CASES, run_case
from oracles import counted_entry_reads


def check_case(name, mode, directory, capsys):
    run_case(name, directory)
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert json.loads(out)["mode"] == mode


@pytest.mark.parametrize("name", sorted(set(CASES) - APPROX_CASES))
def test_exact_report_matches_golden_file(name, tmp_path, capsys):
    check_case(name, "exact", tmp_path, capsys)


@pytest.mark.parametrize("name", sorted(APPROX_CASES))
def test_approx_solve_report_matches_golden_file(name, tmp_path, capsys):
    check_case(name, "approx", tmp_path, capsys)


@pytest.mark.parametrize("name", sorted(SCAN_CASES))
def test_alpha_scan_report_matches_golden_file(name, tmp_path, capsys):
    check_case(name, "approx", tmp_path, capsys)


def test_the_planted16_report_is_written_from_the_basis_integer_rows(tmp_path, capsys,
                                                                    monkeypatch):
    # d = 8 > d_max: the basis is only reported, from its integer rows; the
    # matrix read from the file, its blocks, the screens of J, I and -J and the
    # linear stage read integer rows too, so no entry is read as a Fraction
    # from the input file to the report.
    reads = counted_entry_reads(monkeypatch)
    searches, splits = [], []
    find_intertwiner, split_blocks = solver.find_intertwiner, solver.split_blocks
    monkeypatch.setattr(solver, "find_intertwiner",
                        lambda M, *args, **kw: searches.append((M, find_intertwiner(
                            M, *args, **kw))) or searches[-1][1])
    monkeypatch.setattr(solver, "split_blocks",
                        lambda *args: splits.append(split_blocks(*args)) or splits[-1])
    check_case("solve_planted16", "exact", tmp_path, capsys)
    ((M, search),), (bp,) = searches, splits
    assert len(search.basis) == 8 > SearchOptions().d_max and not search.solutions
    assert M.shape == (16, 16) and bp.A.shape == (8, 8)
    assert sum(reads) == 0
    # The count sees a read: one row of a basis matrix is 8 entries.
    assert len(search.basis[0].row(0)) == sum(reads) == 8
