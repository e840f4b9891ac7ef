"""Acceptance suite: one test per criterion, exact arithmetic unless stated.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Tolerances: exact mode asserts strict equality (zero tolerance); the single
approximate-mode check in criterion 10 uses relative tolerance 1e-9.
"""

import random
from fractions import Fraction

from centrosim import (APPROX, Matrix, block,
                       build_centro_transform, centro_det_factors,
                       char_poly_samples, conjugated_periodic_jacobi, det,
                       dilate_to_centrosimilar, embed_centro_principal,
                       find_intertwiner, inverse,
                       is_centrosymmetric, linear_toeplitz, PalindromicSpec,
                       periodic_jacobi_pm, bordered_jacobi_pm, rank,
                       riccati_block_triangularize, riccati_det_factor,
                       riccati_residual, singular_certificate, split_blocks,
                       toeplitz_scaled_intertwiner,
                       verify_palindromic_factorization)
from centrosim.generators import _toeplitz_table
from oracles import (embedding_instance, rand_centrosymmetric,
                     rand_int_matrix, rand_invertible, tall_instance,
                     wide_instance)


def _ok(number, text):
    print(f"PASS criterion {number:2d}: {text}")


def test_criterion_01_paper_counterexample():
    M = Matrix([[1, 3], [2, 2]])
    search = find_intertwiner(M, "even", 1)
    assert len(search) == 0
    assert search.diagnostic == "Sylvester space trivial"
    assert det(M) == -4
    partner = Matrix([["3/2", "5/2"], ["5/2", "3/2"]])
    assert partner.trace() == M.trace() == 3
    assert det(partner) == det(M) == -4
    _ok(1, "2x2 counterexample: trivial Sylvester space; partner matches trace 3, det -4")


def test_criterion_02_example_one_at_alpha_three():
    M = linear_toeplitz(3, 4)
    search = find_intertwiner(M, "even", 2)
    expected = Matrix([[1, 1], [2, 1]])
    hits = [sol for sol in search if sol.X == expected]
    assert hits, "X = [[1,1],[2,1]] must be found by the default search"
    sol = hits[0]
    assert sol.sylvester_residual.is_zero()
    assert sol.quadratic_residual.is_zero()
    assert sol.invertible
    report = build_centro_transform(M, "even", 2, sol.X)
    assert is_centrosymmetric(report.result)
    assert det(report.result) == det(M)
    _ok(2, "Toeplitz alpha=3: X found, residuals zero, conjugate centrosymmetric, det kept")


def test_criterion_03_example_one_scaled_identities():
    points = [Fraction(k, 7) for k in range(-9, 11)]
    assert len(set(points)) == 20
    for alpha in points:
        xt, delta = toeplitz_scaled_intertwiner(4, alpha)
        bp = split_blocks(linear_toeplitz(alpha, 4), "even", 2)
        assert xt * bp.A == bp.D * xt
        assert delta * bp.C == xt * bp.B * xt
    _ok(3, "4x4 scaled identities XtA=DXt and (a^2-5)C=XtBXt at 20 rational points, exact")


def test_criterion_04_example_two_scaled_identities_and_rank():
    points = [Fraction(k, 5) for k in range(-9, 11)]
    assert len(set(points)) == 20
    for alpha in points:
        xt, delta = toeplitz_scaled_intertwiner(6, alpha)
        assert delta == 9 * alpha * alpha - 105
        bp = split_blocks(linear_toeplitz(alpha, 6), "even", 3)
        assert xt * bp.A == bp.D * xt
        assert delta * bp.C == xt * bp.B * xt
    (first, _), _ = _toeplitz_table(6, Fraction(15))
    assert rank(Matrix(first)) == 2
    alt, delta_alt = toeplitz_scaled_intertwiner(6, 15)
    assert delta_alt == 7680
    assert rank(alt) == 3
    bp15 = split_blocks(linear_toeplitz(15, 6), "even", 3)
    assert alt * bp15.A == bp15.D * alt
    assert delta_alt * bp15.C == alt * bp15.B * alt
    _ok(4, "6x6 scaled identities at 20 points; rank 2 at alpha=15; alternate rank 3, delta 7680")


def test_criterion_05_riccati_counterexample():
    M = Matrix([[1, -1], [1, -1]])
    X = Matrix([[1]])
    assert riccati_residual(M, 1, X, "lower").is_exact()
    report = riccati_det_factor(M, 1, X, "lower")
    assert report.factor_dets == (0, 0)
    assert report.product == 0 == report.direct_det
    assert M * M == Matrix.zeros(2, 2)
    assert not M.is_zero()
    search = find_intertwiner(M, "even", 1)
    assert not any(sol.invertible for sol in search)
    _ok(5, "M=[[1,-1],[1,-1]]: zero residual, 0*0 factorization, M^2=0, no invertible X")


def test_criterion_06_theorem_five_property_suite():
    rng = random.Random(600)
    for trial in range(200):
        n = 2 + trial % 6  # sizes 2..7, both parities
        M = rand_centrosymmetric(rng, n)
        report = centro_det_factors(M)
        assert report.match
        assert report.product == report.direct_det
    _ok(6, "200 random centrosymmetric matrices sizes 2-7: factor product = det, exact")


def test_criterion_07_riccati_property_suite():
    rng = random.Random(700)
    for trial in range(200):
        s = 1 + trial % 3
        m = 1 + (trial // 3) % 3
        X = rand_int_matrix(rng, m, s, -4, 4)
        A = rand_int_matrix(rng, s, s, -4, 4)
        B = rand_int_matrix(rng, s, m, -4, 4)
        D = rand_int_matrix(rng, m, m, -4, 4)
        M = block([[A, B], [X * A - D * X + X * B * X, D]])
        tri = riccati_block_triangularize(M, s, X, "lower")
        assert tri.submatrix(s, M.rows, 0, s).is_zero()
        assert riccati_det_factor(M, s, X, "lower").match
    for trial in range(200):
        s = 1 + trial % 3
        m = 1 + (trial // 3) % 3
        Y = rand_int_matrix(rng, s, m, -4, 4)
        A = rand_int_matrix(rng, s, s, -4, 4)
        C = rand_int_matrix(rng, m, s, -4, 4)
        D = rand_int_matrix(rng, m, m, -4, 4)
        M = block([[A, Y * D - A * Y + Y * C * Y], [C, D]])
        tri = riccati_block_triangularize(M, s, Y, "upper")
        assert tri.submatrix(0, s, s, M.rows).is_zero()
        assert riccati_det_factor(M, s, Y, "upper").match
    for _ in range(50):
        s = rng.randint(1, 3)
        X = rand_invertible(rng, s, -3, 3)
        A = rand_int_matrix(rng, s, s, -3, 3)
        B = rand_int_matrix(rng, s, s, -3, 3)
        Xinv = inverse(X)
        M = block([[A, B], [X * B * X, X * A * Xinv]])
        lower = riccati_det_factor(M, s, X, "lower")
        upper = riccati_det_factor(M, s, Xinv, "upper")
        assert lower.product == upper.product
        assert sorted(lower.factor_dets) == sorted(upper.factor_dets)
    _ok(7, "200+200 Riccati witnesses triangularize and factor exactly; duality multisets agree")


def test_criterion_08_proposition_nine_suite():
    rng = random.Random(800)

    def nonzero(rows, cols):
        while True:
            W = rand_int_matrix(rng, rows, cols, -3, 3)
            if not W.is_zero():
                return W

    for trial in range(100):
        s = 1 + trial % 3
        m = 1 + (trial // 3) % 3
        X = nonzero(m, s)
        A = rand_int_matrix(rng, s, s, -3, 3)
        B = rand_int_matrix(rng, s, m, -3, 3)
        M = block([[A, B], [X * A, X * B]])
        assert singular_certificate(M, s, X, 1)
        assert det(M) == 0

        X = nonzero(m, s)
        B = rand_int_matrix(rng, s, m, -3, 3)
        D = rand_int_matrix(rng, m, m, -3, 3)
        M = block([[-(B * X), B], [-(D * X), D]])
        assert singular_certificate(M, s, X, 2)
        assert det(M) == 0

        Y = nonzero(s, m)
        C = rand_int_matrix(rng, m, s, -3, 3)
        D = rand_int_matrix(rng, m, m, -3, 3)
        M = block([[Y * C, Y * D], [C, D]])
        assert singular_certificate(M, s, Y, 3)
        assert det(M) == 0

        Y = nonzero(s, m)
        A = rand_int_matrix(rng, s, s, -3, 3)
        C = rand_int_matrix(rng, m, s, -3, 3)
        M = block([[A, -(A * Y)], [C, -(C * Y)]])
        assert singular_certificate(M, s, Y, 4)
        assert det(M) == 0
    _ok(8, "100 instances per certificate system (1)-(4): certificate true and det(M)=0")


def test_criterion_09_rank_theorem_suite():
    rng = random.Random(900)
    shapes = [(2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 3, 1), (3, 3, 2),
              (2, 4, 1), (4, 2, 1), (3, 2, 1), (2, 3, 1), (3, 3, 2)]
    for trial in range(100):
        s, m, r = shapes[trial % len(shapes)]
        assert r < min(s, m) and s + m <= 6
        M, X = embedding_instance(rng, s, m, r)
        assert rank(X) == r
        report = embed_centro_principal(M, s, X)
        assert report.certification == f"principal_block({2 * r})"
        assert is_centrosymmetric(report.result.submatrix(0, 2 * r, 0, 2 * r))
        assert det(report.result) == det(M)
        assert report.result.trace() == M.trace()
        points = [Fraction(k) for k in range(M.rows + 2)]
        assert char_poly_samples(M, points) == char_poly_samples(report.result, points)
    _ok(9, "100 rank-deficient embeddings: leading 2r block centrosymmetric, invariants kept")


def test_criterion_10_dilation_suite():
    rng = random.Random(1000)
    wide_shapes = [(3, 2), (4, 3), (5, 3), (5, 4)]
    for trial in range(100):
        n, s = wide_shapes[trial % len(wide_shapes)]
        M, X = wide_instance(rng, n, s)
        Mhat, Xhat, report = dilate_to_centrosimilar(M, s, X)
        assert Mhat.rows == 2 * max(s, n - s)
        assert Mhat.submatrix(0, n, 0, n) == M
        assert is_centrosymmetric(report.result)
        assert report.Q_inv * Mhat * report.Q == report.result
    tall_shapes = [(3, 1), (4, 1), (5, 2), (5, 1)]
    for trial in range(100):
        n, s = tall_shapes[trial % len(tall_shapes)]
        M, X = tall_instance(rng, n, s)
        Mhat, Xhat, report = dilate_to_centrosimilar(M, s, X)
        assert Mhat.rows == 2 * max(s, n - s)
        assert Mhat.submatrix(0, n, 0, n) == M
        assert is_centrosymmetric(report.result)
        assert report.Q_inv * Mhat * report.Q == report.result

    # Approximate mode, orthonormal rows: Q must be orthogonal within 1e-9.
    X = Matrix([[0.6, 0.8]], mode=APPROX)
    D = Matrix([[2.0]], mode=APPROX)
    W = Matrix([[1.0, 0.0], [2.0, 1.0]], mode=APPROX)
    X_right = X.transpose()
    A = X_right * D * X + (Matrix.identity(2, APPROX) - X_right * X) * W
    B = Matrix([[1.0], [3.0]], mode=APPROX)
    M = block([[A, B], [X * B * X, D]])
    Mhat, Xhat, report = dilate_to_centrosimilar(M, 2, X, tol=1e-9)
    QtQ = report.Q.transpose() * report.Q
    assert QtQ.eq(Matrix.identity(4, APPROX), 1e-9)
    assert is_centrosymmetric(report.result, 1e-9)
    _ok(10, "100 dilations per branch embed M and certify; orthonormal case gives orthogonal Q")


def test_criterion_11_palindromic_corollaries():
    rng = random.Random(1100)
    for size in range(3, 9):
        n = size - 1
        top = n // 2 if size % 2 == 1 else (n - 1) // 2
        for _ in range(50):
            c = [rng.randint(-4, 4) for _ in range(size)]
            for j in range(1, top + 1):
                c[n - j + 1] = c[j]
            for sign in (1, -1):
                for family in ("A", "B"):
                    assert verify_palindromic_factorization(family, c, sign,
                                                            samples=size + 2)
                spec = PalindromicSpec(t=Fraction(rng.randint(-3, 3)), c=c, sign=sign)
                conj = conjugated_periodic_jacobi(spec)
                assert is_centrosymmetric(conj)
                assert det(conj) == det(periodic_jacobi_pm(spec))
                assert is_centrosymmetric(bordered_jacobi_pm(spec))
    _ok(11, "sizes 3-8, 50 specs, both signs/families: identity at n+3 points; conjugates centro")


def test_criterion_12_lemma_two_round_trip():
    from centrosim import blocks_centrosymmetric, commutes_with_exchange
    rng = random.Random(1200)
    for trial in range(500):
        n = rng.randint(2, 8)
        if trial % 2 == 0:
            M = rand_centrosymmetric(rng, n)
            if trial % 6 == 0:
                rows = M.to_lists()
                rows[0][n - 1] += 1
                M = Matrix(rows)
        else:
            M = rand_int_matrix(rng, n, n)
        parity = "even" if n % 2 == 0 else "odd"
        s = n // 2 if n % 2 == 0 else (n - 1) // 2
        entrywise = is_centrosymmetric(M)
        commutes = commutes_with_exchange(M)
        blocks_ok = blocks_centrosymmetric(split_blocks(M, parity, s))
        assert entrywise == commutes == blocks_ok
    _ok(12, "500 random matrices: entrywise, MJ=JM and block characterizations agree")
