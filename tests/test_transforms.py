import random
from fractions import Fraction

import pytest

from centrosim import (APPROX, CentrosimError, Matrix, PreconditionError, RankError,
                       block, build_centro_transform, char_poly_samples, det,
                       dilate_to_centrosimilar, embed_centro_principal,
                       exchange_matrix, inverse,
                       is_centrosymmetric, linear_toeplitz, rank)
from centrosim.transforms import _check_conjugation
from oracles import (dense_centro_transform, dense_dilate_tall, dense_embed,
                     embedding_instance, planted_transform_instance, rand_centrosymmetric,
                     rand_int_matrix, rand_invertible, tall_instance, wide_instance)


def assert_report_verifies(M, report):
    n = M.rows
    assert report.Q * report.Q_inv == Matrix.identity(n)
    assert report.Q_inv * M * report.Q == report.result
    assert det(report.result) == det(M)
    assert report.result.trace() == M.trace()
    points = [Fraction(k) for k in range(n + 2)]
    assert char_poly_samples(M, points) == char_poly_samples(report.result, points)


def test_build_with_exchange_is_identity_transform():
    rng = random.Random(20)
    M = rand_centrosymmetric(rng, 4)
    report = build_centro_transform(M, "even", 2, exchange_matrix(2))
    assert report.Q == Matrix.identity(4)
    assert report.result == M
    assert report.certification == "fully_centrosymmetric"


def test_build_odd_with_exchange_is_identity_transform():
    M = Matrix([[2, 1, 1], [1, 5, 1], [1, 1, 2]])
    report = build_centro_transform(M, "odd", 1, Matrix([[1]]))
    assert report.result == M


def test_build_toeplitz_alpha_three():
    M = linear_toeplitz(3, 4)
    report = build_centro_transform(M, "even", 2, Matrix([[1, 1], [2, 1]]))
    assert is_centrosymmetric(report.result)
    assert report.certification == "fully_centrosymmetric"
    assert_report_verifies(M, report)


@pytest.mark.parametrize("approx", [False, True])
def test_conjugation_check_rejects_a_perturbed_result(approx):
    M = linear_toeplitz(3, 4)
    X = Matrix([[1, 1], [2, 1]])
    if approx:
        M, X = (Matrix([[float(v) for v in r] for r in A.to_lists()]) for A in (M, X))
    report = build_centro_transform(M, "even", 2, X)
    rows = report.result.to_lists()
    rows[1][2] += 1
    with pytest.raises(CentrosimError, match="conjugation"):
        _check_conjugation(M, report.Q, report.Q_inv, Matrix(rows), None)


def test_build_rejects_singular_x():
    # X solves the equations but has rank 1, so the rank error must fire.
    M = Matrix([[1, 0, 7, 4], [5, 6, 8, 9], [7, 0, 1, 3], [0, 0, 0, 2]])
    with pytest.raises(RankError):
        build_centro_transform(M, "even", 2, Matrix([[1, 0], [0, 0]]))


def test_build_rejects_nonsolution_x():
    M = linear_toeplitz(3, 4)
    with pytest.raises(PreconditionError):
        build_centro_transform(M, "even", 2, Matrix([[1, 0], [0, 1]]))


def test_build_unitary_remark_in_approx_mode():
    # Orthogonal rotation X implies an orthogonal Q.
    X = Matrix([[0.6, -0.8], [0.8, 0.6]], mode=APPROX)
    A = Matrix([[1.0, 2.0], [0.0, 3.0]], mode=APPROX)
    B = Matrix([[1.0, 0.0], [1.0, 1.0]], mode=APPROX)
    Xinv = X.transpose()
    D = X * A * Xinv
    C = X * B * X
    M = block([[A, B], [C, D]])
    report = build_centro_transform(M, "even", 2, X, tol=1e-9)
    QtQ = report.Q.transpose() * report.Q
    assert QtQ.eq(Matrix.identity(4, APPROX), 1e-9)
    assert is_centrosymmetric(report.result, 1e-9)


def test_pipeline_random_constructed_instances():
    rng = random.Random(21)
    for _ in range(60):
        s = rng.randint(1, 3)
        X = rand_invertible(rng, s, -3, 3)
        A = rand_int_matrix(rng, s, s, -4, 4)
        B = rand_int_matrix(rng, s, s, -4, 4)
        Xinv = inverse(X)
        M = block([[A, B], [X * B * X, X * A * Xinv]])
        report = build_centro_transform(M, "even", s, X)
        assert is_centrosymmetric(report.result)
        assert_report_verifies(M, report)


def test_embed_spec_example():
    M = Matrix([[1, 0, 7, 4], [5, 6, 8, 9], [7, 0, 1, 3], [0, 0, 0, 2]])
    X = Matrix([[1, 0], [0, 0]])
    report = embed_centro_principal(M, 2, X)
    assert report.certification == "principal_block(2)"
    assert report.result.submatrix(0, 2, 0, 2) == Matrix([[1, 7], [7, 1]])
    assert_report_verifies(M, report)


def test_embed_delegates_to_full_transform_when_invertible():
    M = linear_toeplitz(3, 4)
    X = Matrix([[1, 1], [2, 1]])
    report = embed_centro_principal(M, 2, X)
    assert report.certification == "fully_centrosymmetric"


def test_embed_degenerate_r_equals_s():
    # r = s = 1 < n - s = 2: the middle exchange block is empty.
    M = Matrix([[2, 3, 4], [3, 2, 5], [0, 0, 6]])
    X = Matrix([[1], [0]])
    report = embed_centro_principal(M, 1, X)
    assert report.certification == "principal_block(2)"
    assert is_centrosymmetric(report.result.submatrix(0, 2, 0, 2))
    assert_report_verifies(M, report)


def test_embed_rejects_rank_zero():
    M = Matrix([[1, 0], [0, 1]])
    with pytest.raises(PreconditionError):
        embed_centro_principal(M, 1, Matrix.zeros(1, 1))


def test_embed_random_rank_deficient_instances():
    rng = random.Random(22)
    for _ in range(40):
        while True:
            s = rng.randint(2, 3)
            m = rng.randint(2, 3)
            r = rng.randint(1, min(s, m) - 1)
            if r < min(s, m):
                break
        M, X = embedding_instance(rng, s, m, r)
        assert rank(X) == r
        report = embed_centro_principal(M, s, X)
        assert report.certification == f"principal_block({2 * r})"
        assert is_centrosymmetric(report.result.submatrix(0, 2 * r, 0, 2 * r))
        assert_report_verifies(M, report)


def test_dilate_wide_example():
    M = Matrix([[4, 0, 6], [9, 7, 3], [6, 0, 4]])
    X = Matrix([[1, 0]])
    Mhat, Xhat, report = dilate_to_centrosimilar(M, 2, X)
    assert Mhat == Matrix([[4, 0, 6, 0], [9, 7, 3, 1], [6, 0, 4, 0], [3, 1, 9, 7]])
    assert Xhat == Matrix.identity(2)
    assert report.certification == "dilated(4)"
    assert Mhat.submatrix(0, 3, 0, 3) == M
    assert is_centrosymmetric(report.result)
    assert_report_verifies(Mhat, report)


def test_dilate_tall_example():
    M = Matrix([[4, 9, 6], [0, 7, 0], [6, 3, 4]])
    X = Matrix([[0], [1]])
    Mhat, Xhat, report = dilate_to_centrosimilar(M, 1, X)
    assert Mhat == Matrix([[4, 9, 6, 3], [0, 7, 0, 1], [6, 3, 4, 9], [0, 1, 0, 7]])
    assert Mhat.submatrix(0, 3, 0, 3) == M
    assert report.certification == "dilated(4)"
    assert is_centrosymmetric(report.result)
    assert_report_verifies(Mhat, report)


def test_dilate_center_split_passthrough():
    M = linear_toeplitz(3, 4)
    X = Matrix([[1, 1], [2, 1]])
    Mhat, Xhat, report = dilate_to_centrosimilar(M, 2, X)
    assert Mhat == M
    assert Xhat == X
    assert report.certification == "fully_centrosymmetric"


def test_dilate_rejects_rank_deficient_x():
    M = Matrix([[1, 0, 7, 4], [5, 6, 8, 9], [7, 0, 1, 3], [0, 0, 0, 2]])
    with pytest.raises(RankError):
        dilate_to_centrosimilar(M, 2, Matrix([[1, 0], [0, 0]]))


def test_dilate_random_wide_instances():
    rng = random.Random(23)
    for _ in range(30):
        n, s = rng.choice([(3, 2), (4, 3), (5, 3), (5, 4)])
        M, X = wide_instance(rng, n, s)
        Mhat, Xhat, report = dilate_to_centrosimilar(M, s, X)
        k = max(s, n - s)
        assert Mhat.rows == 2 * k
        assert Mhat.submatrix(0, n, 0, n) == M
        assert is_centrosymmetric(report.result)
        assert_report_verifies(Mhat, report)


def test_dilate_random_tall_instances():
    rng = random.Random(24)
    for _ in range(30):
        n, s = rng.choice([(3, 1), (4, 1), (5, 2), (5, 1)])
        M, X = tall_instance(rng, n, s)
        Mhat, Xhat, report = dilate_to_centrosimilar(M, s, X)
        k = max(s, n - s)
        assert Mhat.rows == 2 * k
        assert Mhat.submatrix(0, n, 0, n) == M
        assert is_centrosymmetric(report.result)
        assert_report_verifies(Mhat, report)


def test_dilate_orthonormal_rows_gives_orthogonal_q():
    X = Matrix([[0.6, 0.8]], mode=APPROX)
    D = Matrix([[2.0]], mode=APPROX)
    W = Matrix([[1.0, 0.0], [2.0, 1.0]], mode=APPROX)
    X_right = X.transpose()  # rows orthonormal, so X X^T = I
    A = X_right * D * X + (Matrix.identity(2, APPROX) - X_right * X) * W
    B = Matrix([[1.0], [3.0]], mode=APPROX)
    C = X * B * X
    M = block([[A, B], [C, D]])
    Mhat, Xhat, report = dilate_to_centrosimilar(M, 2, X, tol=1e-9)
    QtQ = report.Q.transpose() * report.Q
    assert QtQ.eq(Matrix.identity(4, APPROX), 1e-9)
    assert Mhat.submatrix(0, 3, 0, 3).eq(M, 1e-9)
    assert is_centrosymmetric(report.result, 1e-9)


def _approx(M):
    return Matrix([[float(v) for v in r] for r in M.to_lists()], mode=APPROX, cols=M.cols)


@pytest.mark.parametrize("approx", [False, True])
@pytest.mark.parametrize("n", range(2, 9))
def test_build_matches_the_dense_product_by_q(n, approx):
    rng = random.Random(600 + n)
    for _ in range(4):
        M, parity, s, X = planted_transform_instance(rng, n)
        if approx:
            M, X = _approx(M), _approx(X)
        report = build_centro_transform(M, parity, s, X)
        # Approximate entries may differ from the dense products only in the sign
        # of a zero, which == ignores.
        assert (report.Q, report.Q_inv, report.result) == dense_centro_transform(M, parity, s, X)


@pytest.mark.parametrize("s,m,r", [(1, 2, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1), (2, 3, 1),
                                   (3, 3, 1), (3, 3, 2), (2, 4, 2), (4, 2, 2), (3, 4, 2)])
def test_embed_matches_the_dense_interleaving(s, m, r):
    rng = random.Random(610 + 100 * s + 10 * m + r)
    for _ in range(3):
        M, X = embedding_instance(rng, s, m, r)
        report = embed_centro_principal(M, s, X)
        assert (report.Q, report.Q_inv, report.result) == dense_embed(M, s, X)


@pytest.mark.parametrize("n,s", [(3, 1), (4, 1), (5, 1), (5, 2), (6, 2), (7, 2), (7, 3)])
def test_tall_dilation_matches_the_dense_permutation(n, s):
    rng = random.Random(620 + 10 * n + s)
    for _ in range(3):
        M, X = tall_instance(rng, n, s)
        Mhat, _, report = dilate_to_centrosimilar(M, s, X)
        assert (Mhat, report.Q, report.Q_inv, report.result) == dense_dilate_tall(M, s, X)


@pytest.mark.parametrize("n,s", [(3, 2), (4, 3), (5, 3), (5, 4), (7, 4)])
def test_wide_dilation_matches_the_dense_product_by_q(n, s):
    rng = random.Random(630 + 10 * n + s)
    for _ in range(3):
        M, X = wide_instance(rng, n, s)
        Mhat, Xhat, report = dilate_to_centrosimilar(M, s, X)
        expected = dense_centro_transform(Mhat, "even", s, Xhat)
        assert (report.Q, report.Q_inv, report.result) == expected
