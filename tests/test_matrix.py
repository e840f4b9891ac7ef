import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from centrosim import (APPROX, EXACT, CentrosimError, DimensionError, Matrix, ModeError,
                       assemble_blocks, block, block_diag, blocks_centrosymmetric,
                       commutes_with_exchange, exchange_matrix, gauss_facts, hstack,
                       is_centrosymmetric, matrix_from_json_obj,
                       matrix_to_json_obj, rank_normal_form, solve_linear, split_blocks,
                       vstack)
from oracles import (fraction_matmul, permutation_matrix, rand_centrosymmetric,
                     rand_int_matrix)


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
            *basis, nf.T, nf.S, solve_linear(A, b)[0]]
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
