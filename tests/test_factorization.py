import random
from fractions import Fraction

import pytest

from centrosim import (Matrix, PreconditionError, block, centro_det_factors,
                       det, exchange_matrix, inverse,
                       riccati_block_triangularize, riccati_det_factor,
                       riccati_residual)
from oracles import cofactor_det, rand_centrosymmetric, rand_int_matrix, rand_invertible


def test_centro_factors_even_derived_example():
    A = Matrix([[1, 2], [3, 4]])
    B = Matrix([[5, 6], [7, 8]])
    J = exchange_matrix(2)
    M = block([[A, B], [J * B * J, J * A * J]])
    report = centro_det_factors(M)
    assert report.factors[0] == Matrix([[7, 7], [11, 11]])
    assert report.factors[1] == Matrix([[-5, -3], [-5, -3]])
    assert report.factor_dets == (0, 0)
    assert report.product == 0
    assert report.direct_det == det(M) == 0
    assert report.match


def test_centro_factors_odd_example():
    M = Matrix([[2, 1, 1], [1, 5, 1], [1, 1, 2]])
    report = centro_det_factors(M)
    assert report.factors[0] == Matrix([[3, 1], [2, 5]])
    assert report.factors[1] == Matrix([[1]])
    assert report.product == 13
    assert report.direct_det == 13
    assert report.match


def test_centro_factors_identity():
    report = centro_det_factors(Matrix.identity(4))
    assert report.factors[0] == Matrix.identity(2)
    assert report.factors[1] == Matrix.identity(2)
    assert report.product == 1


def test_centro_factors_one_by_one():
    report = centro_det_factors(Matrix([[7]]))
    assert report.product == 7
    assert report.match


def test_centro_factors_rejects_noncentrosymmetric():
    with pytest.raises(PreconditionError):
        centro_det_factors(Matrix([[1, 3], [2, 2]]))


def test_centro_factors_random_sizes_both_parities():
    rng = random.Random(30)
    for _ in range(200):
        n = rng.randint(2, 7)
        M = rand_centrosymmetric(rng, n)
        report = centro_det_factors(M)
        assert report.match
        assert report.product == report.direct_det
        if n <= 5:
            assert report.direct_det == cofactor_det(M)


def test_triangularize_lower_counterexample():
    M = Matrix([[1, -1], [1, -1]])
    result = riccati_block_triangularize(M, 1, Matrix([[1]]), "lower")
    assert result == Matrix([[0, -1], [0, 0]])


def test_triangularize_upper_block_example():
    M = Matrix([[1, 1], [0, 2]])
    result = riccati_block_triangularize(M, 1, Matrix([[1]]), "upper")
    assert result == Matrix([[1, 0], [0, 2]])


def test_triangularize_zero_witness_keeps_m():
    M = Matrix([[1, 2], [0, 3]])  # C = 0, so W = 0 has zero residual
    result = riccati_block_triangularize(M, 1, Matrix.zeros(1, 1), "lower")
    assert result == M


def test_triangularize_rejects_nonzero_residual():
    with pytest.raises(PreconditionError) as exc:
        riccati_block_triangularize(Matrix([[1, 2], [3, 4]]), 1, Matrix([[1]]), "lower")
    assert exc.value.payload is not None


@pytest.mark.parametrize("orientation", ["lower", "upper"])
@pytest.mark.parametrize("func", [riccati_block_triangularize, riccati_det_factor])
def test_riccati_functions_check_the_residual_on_their_own(func, orientation):
    with pytest.raises(PreconditionError) as exc:
        func(Matrix([[1, 2], [3, 4]]), 1, Matrix([[1]]), orientation)
    assert exc.value.payload is not None


def test_riccati_factor_counterexample():
    M = Matrix([[1, -1], [1, -1]])
    report = riccati_det_factor(M, 1, Matrix([[1]]), "lower")
    assert report.factor_dets == (0, 0)
    assert report.product == 0 == report.direct_det
    assert report.match


def test_riccati_factor_upper_example():
    M = Matrix([[1, 1], [0, 2]])
    report = riccati_det_factor(M, 1, Matrix([[1]]), "upper")
    assert report.factor_dets == (1, 2)
    assert report.product == 2 == det(M)


def test_riccati_random_lower_witnesses():
    rng = random.Random(31)
    for _ in range(100):
        s = rng.randint(1, 3)
        m = rng.randint(1, 3)
        X = rand_int_matrix(rng, m, s, -4, 4)
        A = rand_int_matrix(rng, s, s, -4, 4)
        B = rand_int_matrix(rng, s, m, -4, 4)
        D = rand_int_matrix(rng, m, m, -4, 4)
        M = block([[A, B], [X * A - D * X + X * B * X, D]])
        n = M.rows
        tri = riccati_block_triangularize(M, s, X, "lower")
        assert tri.submatrix(s, n, 0, s).is_zero()
        report = riccati_det_factor(M, s, X, "lower")
        assert report.match


def test_riccati_random_upper_witnesses():
    rng = random.Random(32)
    for _ in range(100):
        s = rng.randint(1, 3)
        m = rng.randint(1, 3)
        Y = rand_int_matrix(rng, s, m, -4, 4)
        A = rand_int_matrix(rng, s, s, -4, 4)
        C = rand_int_matrix(rng, m, s, -4, 4)
        D = rand_int_matrix(rng, m, m, -4, 4)
        M = block([[A, Y * D - A * Y + Y * C * Y], [C, D]])
        tri = riccati_block_triangularize(M, s, Y, "upper")
        assert tri.submatrix(0, s, s, M.rows).is_zero()
        report = riccati_det_factor(M, s, Y, "upper")
        assert report.match


def rational_roots(a, b, c):
    """Rational roots of a x^2 + b x + c = 0 (independent of the solver module)."""
    from math import isqrt
    if a == 0:
        return [] if b == 0 else [Fraction(-c, b)]
    disc = Fraction(b) * b - 4 * Fraction(a) * c
    if disc < 0:
        return []
    pn, pd = isqrt(disc.numerator), isqrt(disc.denominator)
    if pn * pn != disc.numerator or pd * pd != disc.denominator:
        return []
    root = Fraction(pn, pd)
    return sorted({(-b - root) / (2 * a), (-b + root) / (2 * a)})


def test_uniqueness_question_random_probe():
    # Experimental search for instances where both Riccati orientations admit
    # witnesses but the two factorizations differ.  No claim is asserted about
    # whether such instances exist; the probe only reports what it saw, and
    # every factorization is still checked against the direct determinant.
    rng = random.Random(34)
    pairs = 0
    differing = 0
    for _ in range(400):
        a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
        M = Matrix([[a, b], [c, d]])
        for x in rational_roots(-b, d - a, c):
            for y in rational_roots(-c, a - d, b):
                pairs += 1
                lower = riccati_det_factor(M, 1, Matrix([[x]]), "lower")
                upper = riccati_det_factor(M, 1, Matrix([[y]]), "upper")
                assert lower.match and upper.match
                assert lower.product == upper.product == det(M)
                if sorted(lower.factor_dets) != sorted(upper.factor_dets):
                    differing += 1
    assert pairs > 50
    print(f"uniqueness probe: {pairs} witness pairs, {differing} with differing factor multisets")


def test_duality_invertible_x_gives_same_factor_multiset():
    rng = random.Random(33)
    for _ in range(50):
        s = rng.randint(1, 3)
        X = rand_invertible(rng, s, -3, 3)
        A = rand_int_matrix(rng, s, s, -3, 3)
        B = rand_int_matrix(rng, s, s, -3, 3)
        Xinv = inverse(X)
        M = block([[A, B], [X * B * X, X * A * Xinv]])
        assert riccati_residual(M, s, X, "lower").is_exact()
        assert riccati_residual(M, s, Xinv, "upper").is_exact()
        lower = riccati_det_factor(M, s, X, "lower")
        upper = riccati_det_factor(M, s, Xinv, "upper")
        assert lower.product == upper.product
        assert sorted(lower.factor_dets) == sorted(upper.factor_dets)
