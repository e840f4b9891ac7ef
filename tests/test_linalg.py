import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrosim import (APPROX, EXACT, DimensionError, Matrix, char_poly_samples, det,
                       gauss_facts, rank, rank_normal_form, solve_linear)
from centrosim.linalg import _rref
from oracles import cofactor_det, fraction_rref, rand_int_matrix


def test_det_two_by_two_counterexample():
    assert det(Matrix([[1, 3], [2, 2]])) == -4


def test_det_nilpotent_counterexample():
    assert det(Matrix([[1, -1], [1, -1]])) == 0


def test_det_odd_centrosymmetric_example():
    M = Matrix([[2, 1, 1], [1, 5, 1], [1, 1, 2]])
    assert det(M) == 13
    assert cofactor_det(M) == 13


def test_det_requires_square():
    with pytest.raises(DimensionError):
        det(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_det_matches_cofactor_oracle_on_random_matrices():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 5)
        M = rand_int_matrix(rng, n, n)
        assert det(M) == cofactor_det(M)


def test_det_handles_rational_entries():
    M = Matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])
    assert det(M) == Fraction(1, 14) - Fraction(1, 15)


def test_det_approx_mode():
    M = Matrix([[1.0, 3.0], [2.0, 2.0]], mode=APPROX)
    assert abs(det(M) + 4.0) < 1e-12


def test_gauss_facts_identity():
    facts = gauss_facts(Matrix.identity(3))
    assert facts.rank == 3
    assert facts.nullspace == ()
    assert facts.inverse == Matrix.identity(3)


def test_gauss_facts_alternate_numerator_is_invertible():
    X = Matrix([[-9, 50, 55], [58, 0, 50], [71, 58, -9]])
    assert gauss_facts(X).rank == 3


def test_gauss_facts_generic_numerator_at_fifteen_has_rank_two():
    X = Matrix([[0, 16, 32], [20, 18, 16], [40, 20, 0]])
    facts = gauss_facts(X)
    assert facts.rank == 2
    # row 0 = 2*row 1 - row 2 is the dependency
    assert facts.inverse is None
    assert len(facts.nullspace) == 1


def test_gauss_facts_inverse_and_nullspace_are_exact():
    rng = random.Random(5)
    for _ in range(100):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = rand_int_matrix(rng, rows, cols)
        facts = gauss_facts(M)
        assert facts.rank + len(facts.nullspace) == cols
        for v in facts.nullspace:
            assert (M * v).is_zero()
        if facts.inverse is not None:
            assert M * facts.inverse == Matrix.identity(rows)
            assert facts.inverse * M == Matrix.identity(rows)


def test_rank_normal_form_identity():
    nf = rank_normal_form(Matrix.identity(2))
    assert nf.r == 2
    assert nf.T == Matrix.identity(2)
    assert nf.S == Matrix.identity(2)


def test_rank_normal_form_already_normal():
    X = Matrix([[1, 0], [0, 0]])
    nf = rank_normal_form(X)
    assert nf.r == 1
    assert nf.T * X * nf.S == X


def test_rank_normal_form_rank_one():
    X = Matrix([[2, 4], [1, 2]])
    nf = rank_normal_form(X)
    assert nf.r == 1
    assert nf.T * X * nf.S == Matrix([[1, 0], [0, 0]])


def test_rank_normal_form_random_rectangular():
    rng = random.Random(6)
    for _ in range(100):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        X = rand_int_matrix(rng, rows, cols, -3, 3)
        nf = rank_normal_form(X)
        product = nf.T * X * nf.S
        r = nf.r
        assert r == rank(X)
        expected = Matrix([[1 if (i == j and i < r) else 0 for j in range(cols)]
                           for i in range(rows)], cols=cols)
        assert product == expected
        assert gauss_facts(nf.T).inverse is not None
        assert gauss_facts(nf.S).inverse is not None


def test_solve_linear_consistent_and_inconsistent():
    K = Matrix([[1, 1], [2, 2]])
    sol, basis = solve_linear(K, Matrix([[3], [6]]))
    assert sol is not None
    assert (K * sol) == Matrix([[3], [6]])
    assert len(basis) == 1
    none_sol, _ = solve_linear(K, Matrix([[3], [5]]))
    assert none_sol is None


def test_char_poly_samples_match_direct_det():
    M = Matrix([[1, 3], [2, 2]])
    samples = char_poly_samples(M, [Fraction(0), Fraction(1), Fraction(2)])
    # det(tI - M) = t^2 - 3t - 4
    assert samples == [Fraction(-4), Fraction(-6), Fraction(-6)]


RATIONALS = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))


@st.composite
def rational_rows(draw, n_rows, width):
    """Rows of mixed-denominator rationals; some rows are rational combinations
    of earlier ones (zero rows included), so rank deficiency is common."""
    rows = []
    for _ in range(n_rows):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(st.sampled_from((0, 1, -1, 2, Fraction(-1, 3))),
                                   min_size=len(rows), max_size=len(rows)))
            rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0))
                         for j in range(width)])
        else:
            rows.append(draw(st.lists(RATIONALS, min_size=width, max_size=width)))
    return rows


def oracle_nullspace(a, pivots, n_cols):
    basis = []
    for f in (c for c in range(n_cols) if c not in pivots):
        vec = [Fraction(0)] * n_cols
        vec[f] = Fraction(1)
        for k, p in enumerate(pivots):
            vec[p] = -a[k][f]
        basis.append(Matrix([[v] for v in vec], cols=1))
    return tuple(basis)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6), st.integers(1, 6), st.integers(0, 3), st.data())
def test_integer_kernel_matches_fraction_oracle_rref(m, n, extra, data):
    rows = data.draw(rational_rows(m, n + extra))
    a = [list(r) for r in rows]
    ref = [list(r) for r in rows]
    assert _rref(a, n, EXACT, None) == fraction_rref(ref, n)
    assert a == ref


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_integer_kernel_matches_oracle_facts_and_solve(m, n, data):
    rows = data.draw(rational_rows(m, n + 1))
    K = Matrix([r[:n] for r in rows], cols=n)
    b = Matrix([r[n:] for r in rows], cols=1)

    facts = gauss_facts(K)
    ident = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    ref = [list(r[:n]) + (ident[i] if m == n else []) for i, r in enumerate(rows)]
    pivots = fraction_rref(ref, n)
    assert facts.rank == len(pivots)
    assert facts.nullspace == oracle_nullspace(ref, pivots, n)
    if m == n and len(pivots) == n:
        assert facts.inverse == Matrix([r[n:] for r in ref], cols=n)
    else:
        assert facts.inverse is None

    particular, basis = solve_linear(K, b)
    ref = [list(r) for r in rows]
    pivots = fraction_rref(ref, n)
    assert tuple(basis) == oracle_nullspace(ref, pivots, n)
    if any(ref[i][n] != 0 for i in range(len(pivots), m)):
        assert particular is None
    else:
        expected = [Fraction(0)] * n
        for k, p in enumerate(pivots):
            expected[p] = ref[k][n]
        assert particular == Matrix([[v] for v in expected], cols=1)


@st.composite
def planted_rank(draw):
    """A rational m x n matrix U V, m, n <= 5, whose inner dimension k runs
    over 0..min(m, n): its rank is at most k, and k for most draws."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    k = draw(st.integers(0, min(m, n)))
    U = draw(st.lists(st.lists(RATIONALS, min_size=k, max_size=k), min_size=m, max_size=m))
    V = draw(st.lists(st.lists(RATIONALS, min_size=n, max_size=n), min_size=k, max_size=k))
    return [[sum((U[i][t] * V[t][j] for t in range(k)), Fraction(0)) for j in range(n)]
            for i in range(m)]


@settings(max_examples=150, deadline=None)
@given(planted_rank(), st.sampled_from((EXACT, APPROX)))
def test_rank_normal_form_reads_the_rank_of_gauss_facts(rows, mode):
    X = Matrix(rows, mode=mode, cols=len(rows[0]))
    nf = rank_normal_form(X)
    r = nf.r
    assert r == gauss_facts(X).rank
    expected = Matrix([[int(i == j < r) for j in range(X.cols)] for i in range(X.rows)],
                      mode=mode, cols=X.cols)
    ident = Matrix.identity(X.cols, mode)
    # S^-1 is read off R with its pivot entries set exactly, so both products
    # are the identity to the last bit in either mode.
    assert nf.S * nf.S_inv == ident and nf.S_inv * nf.S == ident
    product = nf.T * X * nf.S
    T_products = (nf.T * nf.T_inv, nf.T_inv * nf.T)
    if mode == EXACT:
        # Bareiss det shares no code with the elimination that built T and S.
        assert product == expected
        assert det(nf.T) != 0 and det(nf.S) != 0
        assert T_products == (Matrix.identity(X.rows),) * 2
    else:
        assert product.eq(expected)
        assert all(P.eq(Matrix.identity(X.rows, mode)) for P in T_products)


def test_integer_kernel_matches_oracle_on_larger_rank_deficient_systems():
    rng = random.Random(16)
    for m, n, r in ((12, 15, 9), (16, 16, 13), (20, 12, 12)):
        left = rand_int_matrix(rng, m, r, -4, 4)
        right = Matrix([[Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(n + 2)]
                        for _ in range(r)], cols=n + 2)
        rows = (left * right).to_lists()
        a = [list(row) for row in rows]
        ref = [list(row) for row in rows]
        assert _rref(a, n, EXACT, None) == fraction_rref(ref, n)
        assert a == ref
