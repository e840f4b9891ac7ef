import json
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from centrosim import (APPROX, EXACT, CentrosimError, DimensionError, Matrix, ModeError,
                       assemble_blocks, block, block_diag, blocks_centrosymmetric,
                       commutes_with_exchange, exchange_matrix, gauss_facts, hstack,
                       is_centrosymmetric, matrix_from_json_obj,
                       matrix_to_json_obj, rank_normal_form, save_matrix, solve_linear,
                       split_blocks, vstack)
from centrosim import solver
from centrosim.matrix import (_DEFAULT_DIGITS, _entry_from_json, _field, _scaled_rows,
                              parse_rational, report_text)
from oracles import (fraction_matmul, fraction_rref, fraction_scaled_rows, permutation_matrix,
                     rand_centrosymmetric, rand_int_matrix, stdlib_report_text)


def test_exchange_matrix_size_one():
    assert exchange_matrix(1) == Matrix([[1]])


def test_exchange_matrix_size_two():
    assert exchange_matrix(2) == Matrix([[0, 1], [1, 0]])


def test_exchange_matrix_rejects_size_zero():
    with pytest.raises(DimensionError):
        exchange_matrix(0)


@pytest.mark.parametrize("n", range(1, 13))
def test_exchange_is_involution_and_centrosymmetric(n):
    J = exchange_matrix(n)
    assert J * J == Matrix.identity(n)
    assert is_centrosymmetric(J)


def test_is_centrosymmetric_examples():
    assert is_centrosymmetric(Matrix([["3/2", "5/2"], ["5/2", "3/2"]]))
    assert not is_centrosymmetric(Matrix([[1, 3], [2, 2]]))


def test_is_centrosymmetric_requires_square():
    with pytest.raises(DimensionError):
        is_centrosymmetric(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_split_blocks_odd_example():
    M = Matrix([[2, 1, 1], [1, 5, 1], [1, 1, 2]])
    bp = split_blocks(M, "odd", 1)
    assert bp.A == Matrix([[2]])
    assert bp.x == Matrix([[1]])
    assert bp.B == Matrix([[1]])
    assert bp.y == Matrix([[1]])
    assert bp.mu == 5
    assert bp.z == Matrix([[1]])
    assert bp.C == Matrix([[1]])
    assert bp.w == Matrix([[1]])
    assert bp.D == Matrix([[2]])
    assert blocks_centrosymmetric(bp)
    assert assemble_blocks(bp) == M


def test_split_blocks_even_counterexample():
    bp = split_blocks(Matrix([[1, 3], [2, 2]]), "even", 1)
    assert not blocks_centrosymmetric(bp)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 7), st.sampled_from([EXACT, APPROX]), st.sampled_from([None, 1e-6]),
       st.data())
def test_centrosymmetry_predicates_agree(n, mode, tol, data):
    # The entrywise test, MJ = JM and the block conditions at the center split
    # compare the same entry pairs, so `check` reports one result under all three.
    # Up to two entries of a centrosymmetric matrix are moved, in approximate
    # mode by about the tolerance relative to the entry.
    if mode == EXACT:
        base = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    else:
        base = st.floats(-1e6, 1e6)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            mirror = rows[n - 1 - i][n - 1 - j]
            rows[i][j] = data.draw(base) if mirror is None else mirror
    t = 1e-9 if tol is None else tol
    for _ in range(data.draw(st.integers(0, 2))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        if mode == EXACT:
            rows[i][j] += data.draw(st.sampled_from([Fraction(1), Fraction(-1, 7)]))
        else:
            shift = data.draw(st.sampled_from([0.5, 0.999, 1.0, 1.001, 2.0, -1.0, -1.001]))
            rows[i][j] += shift * t * max(1.0, abs(rows[i][j]))
    M = Matrix(rows, mode=mode)
    centro = is_centrosymmetric(M, tol)
    event(f"{mode} centrosymmetric: {centro}")
    assert commutes_with_exchange(M, tol) == centro
    assert blocks_centrosymmetric(split_blocks(M, "odd" if n % 2 else "even", n // 2),
                                  tol) == centro


def test_split_blocks_centrosymmetric_four_by_four():
    rng = random.Random(11)
    M = rand_centrosymmetric(rng, 4)
    bp = split_blocks(M, "even", 2)
    J = exchange_matrix(2)
    assert J * bp.A == bp.D * J
    assert bp.C == J * bp.B * J
    assert blocks_centrosymmetric(bp)


def test_split_blocks_validates_dimensions():
    M = Matrix([[1, 2], [3, 4]])
    with pytest.raises(DimensionError):
        split_blocks(M, "even", 2)
    with pytest.raises(DimensionError):
        split_blocks(M, "odd", 1)
    with pytest.raises(DimensionError):
        split_blocks(M, "sideways", 1)


def test_three_characterizations_agree_on_random_matrices():
    rng = random.Random(2024)
    for trial in range(500):
        n = rng.randint(2, 8)
        if trial % 2 == 0:
            M = rand_centrosymmetric(rng, n)
            if trial % 10 == 0:
                # perturb one entry to create a near miss
                rows = M.to_lists()
                rows[0][0] += 1
                M = Matrix(rows)
        else:
            M = rand_int_matrix(rng, n, n)
        entrywise = is_centrosymmetric(M)
        commutes = commutes_with_exchange(M)
        parity = "even" if n % 2 == 0 else "odd"
        s = n // 2 if n % 2 == 0 else (n - 1) // 2
        blocks_ok = blocks_centrosymmetric(split_blocks(M, parity, s))
        assert entrywise == commutes == blocks_ok


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_characterizations_agree_hypothesis(n, data):
    entries = data.draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n))
    M = Matrix(entries)
    assert is_centrosymmetric(M) == commutes_with_exchange(M)


def test_mode_mixing_is_hard_error():
    exact_m = Matrix([[1, 2], [3, 4]])
    approx_m = Matrix([[1.0, 2.0], [3.0, 4.0]])
    assert exact_m.mode == EXACT
    assert approx_m.mode == APPROX
    with pytest.raises(ModeError):
        exact_m + approx_m
    with pytest.raises(ModeError):
        exact_m * approx_m
    with pytest.raises(ModeError):
        Matrix([[0.5, 1]], mode=EXACT)


def test_approx_equality_uses_relative_tolerance():
    a = Matrix([[1.0, 1e6]], mode=APPROX)
    b = Matrix([[1.0 + 1e-12, 1e6 + 1e-4]], mode=APPROX)
    assert a.eq(b)
    c = Matrix([[1.0 + 1e-6, 1e6]], mode=APPROX)
    assert not a.eq(c)


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, -1.0, -1e-300])
def test_approx_comparisons_reject_non_finite_or_negative_tolerance(tol):
    a = Matrix([[1.0, 2.0], [3.0, 4.0]])
    for compare in (lambda: a.eq(a, tol), lambda: a.is_zero(tol),
                    lambda: is_centrosymmetric(a, tol)):
        with pytest.raises(ValueError):
            compare()


def test_approx_zero_tolerance_is_exact_comparison():
    a = Matrix([[1.0, 2.0]])
    assert a.eq(a, 0) and a.eq(a, 0.0)
    assert not a.eq(Matrix([[1.0, 2.0 + 2 ** -51]]), 0.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_approx_non_finite_values_are_never_zero_or_equal(value, tmp_path):
    big = Matrix([[value, 1e308]], mode=APPROX)
    assert not big.is_zero() and not big.eq(big) and not big.eq(big, 1e300)
    assert not Matrix([[value]], mode=APPROX).is_zero(1e300)
    with pytest.raises(ValueError):
        save_matrix(big, tmp_path / "big.json")


def test_json_round_trip_exact_lowest_terms():
    M = Matrix([[Fraction(2, 4), Fraction(-6, 3)], [Fraction(5), Fraction(0)]])
    obj = matrix_to_json_obj(M)
    assert obj == {"rows": [["1/2", "-2"], ["5", "0"]]}
    assert matrix_from_json_obj(obj) == M
    assert json.loads(json.dumps(obj)) == obj


def test_json_accepts_numbers_as_approx():
    M = matrix_from_json_obj({"rows": [[1.5, 2], [3, 4]]})
    assert M.mode == APPROX
    assert M[0, 0] == 1.5


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        matrix_from_json_obj({"cols": []})


@pytest.mark.parametrize("rows", [
    [["1", "1/0"], ["2", "3"]],
    [[float("nan"), 1.0], [1.0, 2.0]],
    [[float("inf"), 1.0], [1.0, 2.0]],
    [["1", 1.5], ["2", "3"]],
    "abc",
    [1, 2],
    [[True, 1], [1, 2]],
    [[None, 1], [1, 2]],
    [["x", "1"], ["1", "1"]],
    [[1.0, 10 ** 400], [1, 2]],
])
def test_json_rejects_malformed_rows_with_value_error(rows):
    with pytest.raises(ValueError):
        matrix_from_json_obj({"rows": rows})


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10 ** 4, 10 ** 4),
                         st.floats(), st.text(alphabet="0123456789/-+. x", max_size=6))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=2), kids,
                                                              max_size=2),
    max_leaves=10)
ROW_LISTS = st.integers(1, 3).flatmap(
    lambda k: st.lists(st.lists(JSON_SCALARS, min_size=k, max_size=k), min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.one_of(JSON_VALUES, ROW_LISTS), st.sampled_from([None, EXACT, APPROX]))
def test_json_reader_returns_clean_matrix_or_raises_value_error(rows, mode):
    try:
        M = matrix_from_json_obj({"rows": rows}, mode=mode)
    except (ValueError, CentrosimError):
        return
    entries = [v for r in rows for v in r]
    assert not any(isinstance(v, (bool, type(None), list, dict)) for v in entries)
    assert not ({str, float} <= {type(v) for v in entries})
    for v in (v for r in M.to_lists() for v in r):
        if M.mode == EXACT:
            assert isinstance(v, Fraction)
        else:
            assert isinstance(v, float) and math.isfinite(v)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_json_round_trip_property(n_rows, n_cols, data):
    exact = data.draw(st.booleans())
    scalars = (st.fractions(max_denominator=50) if exact
               else st.floats(allow_nan=False, allow_infinity=False))
    M = Matrix(data.draw(st.lists(st.lists(scalars, min_size=n_cols, max_size=n_cols),
                                  min_size=n_rows, max_size=n_rows)),
               mode=EXACT if exact else APPROX, cols=n_cols)
    text = json.dumps(matrix_to_json_obj(M))
    assert matrix_from_json_obj(json.loads(text)) == M


BIG_INTS = st.integers(-10 ** 100, 10 ** 100)
REPORT_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from([-0.0, 1e-05, 1e+16, 5e-324]))


@st.composite
def report_matrices(draw):
    """An exact matrix of big fractions or an approximate one, 0 to 3 rows by 0 to 3 columns."""
    exact = draw(st.booleans())
    n_rows, n_cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    scalars = st.builds(Fraction, BIG_INTS, st.integers(1, 10 ** 30)) if exact else REPORT_FLOATS
    rows = draw(st.lists(st.lists(scalars, min_size=n_cols, max_size=n_cols),
                         min_size=n_rows, max_size=n_rows))
    return Matrix(rows, mode=EXACT if exact else APPROX, cols=n_cols)


REPORT_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), BIG_INTS, REPORT_FLOATS, st.text(), st.fractions(),
              report_matrices()),
    lambda kids: (st.lists(kids, max_size=3) | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(st.text(max_size=3), kids, max_size=3)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(REPORT_VALUES)
@example({"\u00e9\x00\n": ["\x1f\u2028\U0001f600\\\"", (-0.0, 1e-05, 1e+16, 5e-324)],
          "m": [Matrix.zeros(0, 0), Matrix.zeros(0, 2), Matrix.zeros(2, 0),
                Matrix.zeros(0, 2, APPROX), Matrix.zeros(2, 0, APPROX)],
          "": {"n": None, "b": (True, False), "i": -10 ** 100, "q": Fraction(-1, 3)}})
def test_report_text_is_the_stdlib_json_text(obj):
    assert report_text(obj) == stdlib_report_text(obj)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["value", "matrix"])
def test_report_text_refuses_a_non_finite_number(value, where):
    obj = {"r": [{"v": (1.0, value)} if where == "value"
                 else Matrix([[1.0], [value]], mode=APPROX)]}
    with pytest.raises(ValueError):
        stdlib_report_text(obj)
    with pytest.raises(ValueError, match="non-finite number"):
        report_text(obj)


# Every character str.isspace() accepts (the last is U+3000), decimal digits
# of several scripts, and digits that are not decimal (superscripts).
WHITESPACE = "".join(c for c in map(chr, range(0x3001)) if c.isspace())
DIGIT_TEXT = st.text(alphabet="0123456789" * 3 + "_\u0660\u0665\uff10\uff19\u0966\u096b\u00b2",
                     min_size=1, max_size=6)
# Digit strings around int()'s digit limit (Python 3.11+; 0 means no limit).
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG_DIGITS = (st.builds(lambda k, d: d * (LIMIT + k), st.integers(-1, 2), st.sampled_from("19"))
               if LIMIT else st.nothing())
ENTRY_STRINGS = st.builds(
    lambda lead, sign, body, trail: lead + sign + body + trail,
    st.text(alphabet=WHITESPACE, max_size=2),
    st.sampled_from(["", "", "+", "-", "-", "+-", "_"]),
    st.one_of(DIGIT_TEXT, LONG_DIGITS,
              st.builds("{}/{}".format, DIGIT_TEXT | LONG_DIGITS,
                        DIGIT_TEXT | st.sampled_from(["0", "00", "-1"])),
              st.builds("{}.{}{}".format, DIGIT_TEXT, DIGIT_TEXT,
                        st.sampled_from(["", "e3", "E-2", "e+1", "e", "e_1"]))),
    st.text(alphabet=WHITESPACE, max_size=2)) | st.text(max_size=4)


def _fraction_reader(v, mode):
    """The matrix [[v]] with v read by Fraction(str), or the reader's error message:
    Fraction's own, except that a digit group past the int-string limit names
    its digit count and PYTHONINTMAXSTRDIGITS."""
    try:
        return Matrix([[Fraction(v)]], mode=mode)
    except ZeroDivisionError:
        return f"matrix entry {v!r} has a zero denominator"
    except OverflowError:
        return "matrix entry too large for approximate mode"
    except ValueError as exc:
        # Python 3.10 writes "the limit (640)", later versions "the limit (640 digits)".
        past = re.search(r"limit \((\d+)(?: digits)?\) for integer string conversion: "
                         r"value has (\d+) digits", str(exc))
        if past:
            return (f"a value has {past[2]} digits, more than {past[1]}, the limit for "
                    "int-string conversion (PYTHONINTMAXSTRDIGITS)")
        return str(exc)


@settings(max_examples=600, deadline=None)
@given(ENTRY_STRINGS, st.sampled_from([EXACT, APPROX]))
def test_json_string_entries_read_as_fraction_reads_them(v, mode):
    event("error" if isinstance(_fraction_reader(v, mode), str) else "matrix")
    try:
        got = matrix_from_json_obj({"rows": [[v]]}, mode=mode)
    except ValueError as exc:
        got = str(exc)
        assert "\n" not in got
    else:
        assert type(got[0, 0]) is (Fraction if mode == EXACT else float)
    assert got == _fraction_reader(v, mode)


# Values with exactly LIMIT digits, and values past it by the exponent alone or
# (the last) with the mantissa's digits.
AT_THE_LIMIT = [f"1e{LIMIT - 1}", f"1e-{LIMIT - 1}"] if LIMIT else []
PAST_THE_LIMIT = ([f"1e{LIMIT + 1}", f"1e-{LIMIT + 1}", f"1e{LIMIT}", f"1e-{LIMIT}",
                   f"123e{LIMIT - 2}"] if LIMIT else [])


@pytest.mark.parametrize("text", ["7", " -7 ", "3/4", "1.5e3", "-2.5E-2"] + AT_THE_LIMIT)
def test_parse_rational_reads_what_fraction_reads(text):
    assert parse_rational(text) == Fraction(text)


@pytest.mark.parametrize("text", PAST_THE_LIMIT + ["0e99999999", "1.5E+99999999 ",
                                                   "1e" + "\u0669" * 8, "1e" + "9" * 5000])
def test_parse_rational_rejects_an_exponent_past_the_digit_limit(text):
    message = f"needs more than {LIMIT or _DEFAULT_DIGITS} digits"
    with pytest.raises(ValueError, match=message):
        parse_rational(text)
    for mode in (EXACT, APPROX):
        with pytest.raises(ValueError, match=message):
            Matrix([[text]], mode=mode)


def test_block_assembly_with_empty_blocks():
    A = Matrix([[1, 2], [3, 4]])
    empty_rows = Matrix.zeros(0, 2)
    empty_cols = Matrix.zeros(2, 0)
    assert vstack(A, empty_rows) == A
    assert hstack(A, empty_cols) == A
    assert block([[A, empty_cols], [empty_rows, Matrix.zeros(0, 0)]]) == A


def test_matrix_arithmetic_basics():
    A = Matrix([[1, 2], [3, 4]])
    B = Matrix([[0, 1], [1, 0]])
    assert A * B == Matrix([[2, 1], [4, 3]])
    assert A + (-A) == Matrix.zeros(2, 2)
    assert (2 * A)[1, 1] == 8
    assert A.transpose().transpose() == A
    assert A.trace() == 5
    with pytest.raises(DimensionError):
        A * Matrix([[1, 2, 3]])


# Entries with negative values, mixed denominators and numerators far past 64 bits.
FRACTIONS = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**6))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_exact_product_matches_fraction_oracle(m, k, p, data):
    def draw(rows, cols):
        return Matrix(data.draw(st.lists(st.lists(FRACTIONS, min_size=cols, max_size=cols),
                                         min_size=rows, max_size=rows)), mode=EXACT, cols=cols)

    A, B = draw(m, k), draw(k, p)
    product = A * B
    assert product.shape == (m, p)
    assert product == fraction_matmul(A, B)


# Integers of either sign up to 2^200, with zero and small values drawn often.
BIG_INTS = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-2 ** 200, 2 ** 200))


# Small rationals make equal denominators, shared factors and cancellations
# common; FRACTIONS brings large numerators and denominators.
SMALL_FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
ENTRIES = st.one_of(SMALL_FRACTIONS, SMALL_FRACTIONS, FRACTIONS)


def _lists_mul(x, y, cols):
    """The Fraction-list product of x and y, y having cols columns."""
    return [[sum((a * b for a, b in zip(r, c)), Fraction(0)) for c in zip(*y)] if y
            else [Fraction(0)] * cols for r in x]


def _stores_lowest_terms(M):
    """Whether M stores integer rows of its shape over den > 0 with
    gcd(den, every entry) == 1."""
    den, rows = M._integer_rows()
    return (type(den) is int and den > 0 and len(rows) == M.rows
            and all(len(r) == M.cols and all(type(v) is int for v in r) for r in rows)
            and math.gcd(den, *(v for r in rows for v in r)) == 1)


def _oracle_facts(a, n):
    """(inverse rows or None, kernel vectors) of the square or wide Fraction
    rows a with n columns, by fraction_rref of [a | I] (of a when not square)."""
    m = len(a)
    ref = [list(r) + ([Fraction(int(i == j)) for j in range(m)] if m == n else [])
           for i, r in enumerate(a)]
    pivots = fraction_rref(ref, n)
    if m == n and len(pivots) == n:
        return [r[n:] for r in ref], []
    kernel = []
    for f in (f for f in range(n) if f not in pivots):
        vec = [Fraction(int(j == f)) for j in range(n)]
        for k, p in enumerate(pivots):
            vec[p] = -ref[k][f]
        kernel.append([[v] for v in vec])
    return None, kernel


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_every_exact_producer_stores_its_fractions_as_integer_rows_in_lowest_terms(m, n, k,
                                                                                   data):
    def draw(rows, cols):
        return data.draw(st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols),
                                  min_size=rows, max_size=rows))

    a, b, c = draw(m, n), draw(m, n), draw(n, k)
    A, B, C = Matrix(a, EXACT, n), Matrix(b, EXACT, n), Matrix(c, EXACT, k)
    scalar = data.draw(ENTRIES | st.integers(-3, 3))
    p, q = data.draw(_index_list(m)), data.draw(_index_list(n))
    r0, r1 = sorted(data.draw(st.lists(st.integers(0, m), min_size=2, max_size=2)))
    c0, c1 = sorted(data.draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
    F = _field(EXACT)
    residual, _ = F.residual(((1, A, C), (-1, B, C), (1, Matrix.identity(m), A, C)))
    # (result, its Fraction rows by the oracle): every exact producer.
    results = [
        (A, a),
        (matrix_from_json_obj({"rows": [[str(v) for v in r] for r in a]}), a),
        (Matrix([[v.numerator if v.denominator == 1 else str(v) for v in r] for r in a],
                EXACT, n), a),
        (A * C, _lists_mul(a, c, k)),
        (F.product(A, C, Matrix.identity(k)), _lists_mul(a, c, k)),
        (residual, [[2 * x - y for x, y in zip(rx, ry)]
                    for rx, ry in zip(_lists_mul(a, c, k), _lists_mul(b, c, k))]),
        (A + B, [[x + y for x, y in zip(rx, ry)] for rx, ry in zip(a, b)]),
        (A + A, [[x + x for x in r] for r in a]),
        (A - B, [[x - y for x, y in zip(rx, ry)] for rx, ry in zip(a, b)]),
        (-A, [[-x for x in r] for r in a]),
        (A * scalar, [[x * scalar for x in r] for r in a]),
        (scalar * A, [[scalar * x for x in r] for r in a]),
        (A.transpose(), [[a[i][j] for i in range(m)] for j in range(n)]),
        (A.submatrix(r0, r1, c0, c1), [r[c0:c1] for r in a[r0:r1]]),
        (A.take(p, q), [[a[i][j] for j in q] for i in p]),
        (hstack(A, B, A * C), [ra + rb + rc for ra, rb, rc in zip(a, b, _lists_mul(a, c, k))]),
        (vstack(A, B), a + b),
        (block([[A, B], [B, A]]), [ra + rb for ra, rb in zip(a, b)]
         + [rb + ra for ra, rb in zip(a, b)]),
        (Matrix.zeros(m, n), [[Fraction(0)] * n for _ in range(m)]),
        (Matrix.identity(n), [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]),
    ]
    if n:
        results.append((exchange_matrix(n), [[Fraction(int(i + j == n - 1)) for j in range(n)]
                                             for i in range(n)]))
    if m <= n:
        facts, (inverse, kernel) = gauss_facts(A), _oracle_facts(a, n)
        results += [] if inverse is None else [(facts.inverse, inverse)]
        results += list(zip(facts.nullspace, kernel))
        assert len(facts.nullspace) == len(kernel) and (facts.inverse is None) == (inverse is None)
    # solver._unvec and solver._integer_hit build from integer rows over den.
    ints = [[v.numerator for v in r] for r in a + b]
    den = data.draw(st.integers(-12, 12).filter(bool))
    flat = [v for r in ints for v in r]
    results.append((solver._unvec(flat, 2 * m, n, EXACT, den),
                    [[Fraction(v, den) for v in r] for r in ints]))
    if m and n:
        x0, (n1,) = ints[:m], [ints[m:]]
        scale, t = data.draw(st.integers(1, 6)), data.draw(st.integers(-9, 9))
        results.append((solver._integer_hit(scale, den, x0, [n1], (t,)),
                        [[Fraction(scale * u + t * v, scale * den) for u, v in zip(ru, rv)]
                         for ru, rv in zip(x0, n1)]))
    for M, rows in results:
        assert M.mode == EXACT and _stores_lowest_terms(M), M
        assert M.to_lists() == rows and M.rows == len(rows)
        assert all(type(v) is Fraction for r in M.to_lists() for v in r)
    # Equal matrices built by different routes store the same rows, so they
    # are == and hash alike: the constructor, the reader (whose matrix of no
    # rows has no columns), a kernel product and a sum.
    routes = [A, results[2][0], A * Matrix.identity(n), F.product(Matrix.identity(m), A),
              Matrix.zeros(m, n) + A, (A + B) - B, -(-A)] + [results[1][0]] * bool(m)
    assert all(R == A and hash(R) == hash(A) for R in routes)
    # The exact screen reads the stored rows with their denominators: A times
    # its denominator stores the same rows over 1.
    scale, rows = A._integer_rows()
    pairs = [(A, B), (A, A * scale), (A * scale, Matrix(rows, EXACT, n)), (A, results[1][0])]
    assert all(F.screen([(L, R)])[0] == (L.to_lists() == R.to_lists()) for L, R in pairs)
    # _scaled_rows reads the stored rows over the lcm of the denominators.
    scale, *scaled = _scaled_rows(A, B, C)
    assert (scale, *[[list(r) for r in R] for R in scaled]) == fraction_scaled_rows(A, B, C)


@pytest.mark.skipif(not LIMIT, reason="this Python sets no int-string digit limit")
def test_integer_rows_past_the_digit_limit_raise_the_writers_error():
    big, half = 10 ** LIMIT, 10 ** (LIMIT // 2 + 1)
    # Past the limit from the constructor, and out of + and of a kernel
    # product whose inputs are all within it.
    made = [Matrix([[Fraction(big, 3), Fraction(1, 3)]]), Matrix([[Fraction(1, -big), 2]]),
            Matrix([[0], [-big]]), Matrix([[big // 2 + 1, 1]]) + Matrix([[big // 2, 1]]),
            Matrix([[half], [1]]) * Matrix([[half, 3]])]
    for M in made:
        with pytest.raises(ValueError) as got:
            report_text({"m": M})
        with pytest.raises(ValueError) as oracle:
            report_text({"m": Matrix([[Fraction(v) for v in r] for r in M.to_lists()])})
        assert str(got.value) == str(oracle.value) == (
            f"a report entry has more than {LIMIT} digits, the limit for int-string "
            "conversion (PYTHONINTMAXSTRDIGITS)")


@pytest.mark.skipif(not LIMIT, reason="this Python sets no int-string digit limit")
def test_repr_writes_an_integer_past_the_digit_limit_as_its_digit_count():
    big, top = 10 ** LIMIT, 10 ** (LIMIT + 1) - 1
    M = Matrix([[big, -top], [Fraction(1, big), Fraction(-7, top)], [Fraction(big, 3), 1]])
    assert repr(M) == (f"Matrix([<{LIMIT + 1}-digit integer> -<{LIMIT + 1}-digit integer>; "
                       f"1/<{LIMIT + 1}-digit integer> -7/<{LIMIT + 1}-digit integer>; "
                       f"<{LIMIT + 1}-digit integer>/3 1], mode='exact')")
    assert repr(Matrix([[big - 1]])) == f"Matrix([{big - 1}], mode='exact')"
    assert repr(Matrix([[big // 2 + 1, 1]]) + Matrix([[big // 2, 1]])) == (
        f"Matrix([<{LIMIT + 1}-digit integer> 2], mode='exact')")
    assert repr(Matrix([[big // 2]]) * Matrix([[2, -4]])) == (
        f"Matrix([<{LIMIT + 1}-digit integer> -<{LIMIT + 1}-digit integer>], mode='exact')")
    assert f"<{LIMIT + 1}-digit integer>" in repr(split_blocks(M.take(range(2), range(2)),
                                                             "even", 1))


def _read(rows, mode):
    """matrix_from_json_obj's matrix, or the type and message of its error."""
    try:
        return matrix_from_json_obj({"rows": rows}, mode)
    except (ValueError, CentrosimError) as exc:
        return type(exc), str(exc)


def _read_by_matrix(rows, mode):
    """The reader's checks in its order, then Matrix(...) on the parsed entries,
    as _read gives them."""
    try:
        kinds = {type(v) for r in rows for v in r}
        if str in kinds and float in kinds:
            raise ValueError("matrix JSON mixes string and float entries")
        values = [[_entry_from_json(v) for v in r] for r in rows]
        return Matrix(values, mode or (APPROX if float in kinds else EXACT))
    except (ValueError, CentrosimError) as exc:
        return type(exc), str(exc)


# The kinds of JSON entry: integer, "p/q" (the denominator 0 at times) and decimal
# strings with signs and spaces, JSON integers, and floats and values of no kind.
ENTRY_KINDS = (BIG_INTS.map(str),
               st.builds("{}{}".format, st.sampled_from(["+", " -", "-", " "]), BIG_INTS),
               st.builds("{}/{}".format, BIG_INTS, st.integers(-12, 12) | BIG_INTS),
               st.builds("{}.{}e{}".format, st.integers(-99, 99), st.integers(0, 10 ** 6),
                         st.integers(-3, 3)),
               BIG_INTS,
               st.sampled_from([0.5, -2.0, True, None]))


def _index_list(n):
    return st.lists(st.integers(0, n - 1), max_size=4) if n else st.just([])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_an_exact_json_matrix_reads_as_the_matrix_of_its_entries(data):
    kinds = data.draw(st.lists(st.sampled_from(ENTRY_KINDS[:-1]), min_size=1, max_size=3)
                      | st.lists(st.sampled_from(ENTRY_KINDS), min_size=1, max_size=3))
    m, n = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    lengths = data.draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)
                        | st.just([n] * m))
    rows = [data.draw(st.lists(st.one_of(kinds), min_size=k, max_size=k)) for k in lengths]
    mode = data.draw(st.sampled_from([None, None, EXACT, APPROX]))
    M, oracle = _read(rows, mode), _read_by_matrix(rows, mode)
    event("error" if type(oracle) is tuple else oracle.mode)
    if type(oracle) is tuple:
        assert M == oracle
        return
    assert report_text({"m": M}) == report_text({"m": oracle})
    assert M == oracle and oracle == M and hash(M) == hash(oracle)
    if oracle.mode == EXACT:
        # The entries' Fractions, stored over the lcm of their denominators.
        assert M.to_lists() == [[Fraction(_entry_from_json(v)) for v in r] for r in rows]
        assert _stores_lowest_terms(M)


def _entries(*mats):
    return [v for M in mats for r in M.to_lists() for v in r]


@pytest.mark.parametrize("mode, kind", [(EXACT, Fraction), (APPROX, float)])
def test_internal_results_hold_only_field_elements(mode, kind):
    A = Matrix([[2, -1, 0], [1, 3, 5], [4, 0, -2]], mode=mode)
    S = Matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]], mode=mode)
    b = Matrix([[1], [2], [3]], mode=mode)
    facts = gauss_facts(A)
    singular = gauss_facts(S)
    particular, basis = solve_linear(S, Matrix([[1], [2], [1]], mode=mode))
    nf = rank_normal_form(S)
    mats = [A + S, A - S, -A, A * S, A * b, 3 * A, A * 3, A.transpose(), b.transpose(),
            A.submatrix(0, 2, 1, 3), Matrix.identity(3, mode), Matrix.zeros(2, 3, mode),
            exchange_matrix(3, mode), facts.inverse, *singular.nullspace, particular,
            *basis, nf.T, nf.S, nf.T_inv, nf.S_inv, solve_linear(A, b)[0]]
    assert singular.nullspace and basis
    assert {type(v) for v in _entries(*mats)} == {kind}


def _index_map(n):
    """A permutation of range(n), the reversal (J's index map) drawn often."""
    return st.one_of(st.just(list(range(n))[::-1]), st.permutations(range(n)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_take_equals_the_product_by_permutation_matrices(data):
    mode = data.draw(st.sampled_from([EXACT, APPROX]))
    rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    entries = (st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**4)
               if mode == EXACT else st.floats(allow_nan=False, allow_infinity=False))
    M = Matrix([[data.draw(entries) for _ in range(cols)] for _ in range(rows)],
               mode=mode, cols=cols)
    p, q = data.draw(_index_map(rows)), data.draw(_index_map(cols))
    P, Q = permutation_matrix(p, mode), permutation_matrix(q, mode)
    # Exact entries are the same Fractions; approximate ones equal floats, since
    # a dense float sum can turn -0.0 into 0.0 and == does not tell them apart.
    assert M.take(p, q) == P * M * Q.transpose()
    assert M.take(p, range(cols)) == P * M
    assert M.take(range(rows), q) == M * Q.transpose()


def test_take_repeats_and_drops_indices():
    M = Matrix([[1, 2, 3], [4, 5, 6]])
    assert M.take([1, 1], [2, 0]) == Matrix([[6, 4], [6, 4]])
    assert M.take([], [0]).shape == (0, 1)


def test_block_diag():
    A = Matrix([[1, 2]])
    B = Matrix([[3], [4]])
    assert block_diag(A, Matrix.identity(0), B) == Matrix([[1, 2, 0], [0, 0, 3], [0, 0, 4]])
    assert block_diag(Matrix.identity(1, APPROX)).mode == APPROX
    with pytest.raises(ModeError):
        block_diag(A, Matrix([[1.0]]))
