import csv
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import centrosim.generators as generators
from centrosim import (DimensionError, InsufficientSamplesError,
                       Matrix, PalindromicSpec, PreconditionError, alpha_scan,
                       bordered_jacobi_pm, centro_det_factors, char_poly_samples,
                       conjugated_periodic_jacobi, det,
                       is_centrosymmetric, linear_toeplitz,
                       palindromic_factors, periodic_jacobi_pm, rank,
                       split_blocks, toeplitz_scaled_intertwiner,
                       verify_palindromic_factorization,
                       verify_scaled_intertwiner, write_alpha_scan_csv)
from oracles import float_scaled_candidates


def test_linear_toeplitz_small():
    assert linear_toeplitz(3, 2) == Matrix([[3, 2], [4, 3]])


def test_linear_toeplitz_matches_display_at_alpha_zero():
    M = linear_toeplitz(0, 4)
    expected = Matrix([[0, -1, -2, -3], [1, 0, -1, -2], [2, 1, 0, -1], [3, 2, 1, 0]])
    assert M == expected


def test_linear_toeplitz_six_at_fifteen():
    M = linear_toeplitz(15, 6)
    assert M[0, 0] == 15
    assert M[0, 5] == 10
    assert M[5, 0] == 20
    bp = split_blocks(M, "even", 3)
    assert bp.A == bp.D
    assert bp.A == Matrix([[15, 14, 13], [16, 15, 14], [17, 16, 15]])
    assert bp.B == Matrix([[12, 11, 10], [13, 12, 11], [14, 13, 12]])
    assert bp.C == Matrix([[18, 17, 16], [19, 18, 17], [20, 19, 18]])


@settings(max_examples=60, deadline=None)
@given(m=st.integers(4, 12), alpha=st.fractions(-20, 20, max_denominator=12))
def test_linear_toeplitz_char_poly_has_one_quadratic_factor(m, alpha):
    # T_m(alpha) has rank 2, so det(t I - T_m) = t^(m-2) (t^2 - trace t + e2), where
    # e2, the sum of the principal 2 x 2 minors (j - i)^2, is m^2 (m^2 - 1) / 12.
    points = [Fraction(t) for t in range(m + 1)]
    e2 = Fraction(m * m * (m * m - 1), 12)
    expected = [t ** (m - 2) * (t * t - m * alpha * t + e2) for t in points]
    assert char_poly_samples(linear_toeplitz(alpha, m), points) == expected


def test_scaled_intertwiner_four():
    alpha = Fraction(7, 3)
    xt, delta = toeplitz_scaled_intertwiner(4, alpha)
    assert xt == Matrix([[2, alpha - 1], [alpha + 1, 2]])
    assert delta == alpha * alpha - 5


def test_scaled_intertwiner_six_generic():
    alpha = Fraction(2)
    xt, delta = toeplitz_scaled_intertwiner(6, alpha)
    assert xt == Matrix([[0, 16, -7], [20, -21, 16], [1, 20, 0]])
    assert delta == 9 * 4 - 105


def test_scaled_intertwiner_six_alternate_at_fifteen():
    xt, delta = toeplitz_scaled_intertwiner(6, 15)
    assert xt == Matrix([[-9, 50, 55], [58, 0, 50], [71, 58, -9]])
    assert delta == 7680
    assert rank(xt) == 3
    (first, delta_first), _ = generators._toeplitz_table(6, Fraction(15))
    assert rank(Matrix(first)) == 2
    assert delta_first == 9 * 225 - 105


def test_scaled_intertwiner_rejects_other_sizes():
    with pytest.raises(DimensionError):
        toeplitz_scaled_intertwiner(8, 1)


def _bits(X):
    return [v.hex() for row in X.to_lists() for v in row]


# Decimal alphas such as 0.1 are not dyadic, so their float products round.
NON_DYADIC = st.builds(lambda k, d: k / d, st.integers(-10**7, 10**7), st.sampled_from([3, 7, 10]))


@settings(max_examples=150, deadline=None)
@given(alpha=st.one_of(st.just(15.0), NON_DYADIC,
                       st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)))
def test_scan_candidates_match_the_float_table_bitwise(alpha):
    for size in (4, 6):
        with mock.patch.object(generators, "system_residuals",
                               wraps=generators.system_residuals) as spy:
            alpha_scan(size, [alpha])
        got = [call.args[1] for call in spy.call_args_list]
        assert [_bits(X) for X in got] == [_bits(X) for X in float_scaled_candidates(size, alpha)]


def test_scaled_identities_hold_at_twenty_rational_points():
    points = [Fraction(k, 3) for k in range(-9, 11)]
    assert len(points) == 20
    for m in (4, 6):
        for alpha in points:
            assert verify_scaled_intertwiner(m, alpha)


def test_exact_intertwiner_at_alpha_three():
    xt, delta = toeplitz_scaled_intertwiner(4, 3)
    assert delta == 4
    X = Fraction(1, 2) * xt
    assert X == Matrix([[1, 1], [2, 1]])
    bp = split_blocks(linear_toeplitz(3, 4), "even", 2)
    assert X * bp.A == bp.D * X
    assert bp.C == X * bp.B * X


def test_pipeline_certifies_whenever_delta_is_a_rational_square():
    from centrosim import build_centro_transform
    # alpha = (u + 5/u)/2 makes alpha^2 - 5 = ((u - 5/u)/2)^2 a rational square.
    for u in (Fraction(1), Fraction(5, 2), Fraction(1, 2), Fraction(7, 3)):
        alpha = (u + 5 / u) / 2
        tau = abs(u - 5 / u) / 2
        xt, delta = toeplitz_scaled_intertwiner(4, alpha)
        assert delta == tau * tau
        X = (1 / tau) * xt
        M = linear_toeplitz(alpha, 4)
        bp = split_blocks(M, "even", 2)
        assert X * bp.A == bp.D * X
        assert bp.C == X * bp.B * X
        report = build_centro_transform(M, "even", 2, X)
        assert is_centrosymmetric(report.result)
        assert det(report.result) == det(M)


def test_palindromic_spec_validation():
    PalindromicSpec(t=2, c=(1, 1, 1), sign=1)
    PalindromicSpec(t=0, c=(5, 2, 7, 2), sign=-1)  # even size: c1 = c3
    violated = r"^palindromic constraint violated: c\[1\] != c\[{}\]$"
    with pytest.raises(PreconditionError, match=violated.format(2)):
        PalindromicSpec(t=2, c=(1, 1, 2), sign=1)
    with pytest.raises(PreconditionError, match=violated.format(3)):
        PalindromicSpec(t=0, c=(5, 2, 7, 3), sign=-1)
    with pytest.raises(PreconditionError, match=r"^sign must be \+1 or -1$"):
        PalindromicSpec(t=2, c=(1, 1, 1), sign=2)
    with pytest.raises(DimensionError, match=r"^palindromic families need size >= 3$"):
        PalindromicSpec(t=2, c=(1, 1), sign=1)


def test_periodic_jacobi_display_example():
    spec = PalindromicSpec(t=2, c=(1, 1, 1), sign=1)
    assert periodic_jacobi_pm(spec) == Matrix([[2, 1, 1], [1, 2, 1], [1, 1, 2]])


def test_periodic_jacobi_sign_flips_corners_only():
    plus = periodic_jacobi_pm(PalindromicSpec(t=2, c=(3, 1, 1), sign=1))
    minus = periodic_jacobi_pm(PalindromicSpec(t=2, c=(3, 1, 1), sign=-1))
    diff = plus - minus
    assert diff == Matrix([[0, 0, 2], [0, 0, 0], [2, 0, 0]])


def test_periodic_jacobi_factorization_example():
    spec = PalindromicSpec(t=2, c=(1, 1, 1), sign=1)
    M = periodic_jacobi_pm(spec)
    f1, f2 = palindromic_factors("A", spec)
    assert f1 == Matrix([[3, 1], [2, 2]])
    assert f2 == Matrix([[1]])
    assert det(M) == 4 == det(f1) * det(f2)


def test_bordered_jacobi_display_example():
    spec = PalindromicSpec(t=2, c=(1, 1, 1), sign=1)
    assert bordered_jacobi_pm(spec) == Matrix([[3, 1, 0], [1, 2, 1], [0, 1, 3]])


def test_bordered_jacobi_factorization_example():
    spec = PalindromicSpec(t=2, c=(1, 1, 1), sign=1)
    M = bordered_jacobi_pm(spec)
    f1, f2 = palindromic_factors("B", spec)
    assert det(f1) * det(f2) == 12 == det(M)
    assert sorted((f1.rows, f2.rows)) == [1, 2]
    assert f2 == Matrix([[3]])


def test_bordered_jacobi_sign_changes_corner_diagonals():
    plus = bordered_jacobi_pm(PalindromicSpec(t=2, c=(1, 1, 1), sign=1))
    minus = bordered_jacobi_pm(PalindromicSpec(t=2, c=(1, 1, 1), sign=-1))
    assert minus[0, 0] == 1 and minus[2, 2] == 1
    assert (plus - minus) == Matrix([[2, 0, 0], [0, 0, 0], [0, 0, 2]])


def test_verify_factorization_family_a_small():
    assert verify_palindromic_factorization("A", (1, 1, 1), 1, samples=5)


def test_verify_factorization_family_b_even_size():
    rng = random.Random(41)
    for _ in range(10):
        c = [rng.randint(-4, 4) for _ in range(4)]
        c[3] = c[1]  # palindromic constraint for size 4
        assert verify_palindromic_factorization("B", c, -1, samples=7)


def test_verify_factorization_rejects_too_few_points():
    with pytest.raises(InsufficientSamplesError):
        verify_palindromic_factorization("A", (1, 1, 1), 1, samples=2)


def test_conjugated_periodic_jacobi_is_centrosymmetric():
    rng = random.Random(42)
    for size in range(3, 9):
        n = size - 1
        for sign in (1, -1):
            c = [rng.randint(-4, 4) for _ in range(size)]
            top = n // 2 if size % 2 == 1 else (n - 1) // 2
            for j in range(1, top + 1):
                c[n - j + 1] = c[j]
            spec = PalindromicSpec(t=Fraction(rng.randint(-3, 3)), c=c, sign=sign)
            G = conjugated_periodic_jacobi(spec)
            assert is_centrosymmetric(G)
            assert det(G) == det(periodic_jacobi_pm(spec))
            # the bridge to the split factorization: Theorem-5 route agrees
            assert centro_det_factors(G).product == det(periodic_jacobi_pm(spec))
            assert is_centrosymmetric(bordered_jacobi_pm(spec))


def test_alpha_scan_rows_and_csv(tmp_path):
    rows = alpha_scan(4, [0.0, 3.0])
    assert rows[0][3] == 0  # no real intertwiner at alpha = 0
    assert rows[1][3] == 1 and rows[1][4] == 1
    assert rows[1][2] <= 1e-9
    path = tmp_path / "scan.csv"
    write_alpha_scan_csv(rows, path)
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["alpha", "size", "best_residual_norm",
                        "intertwiner_found", "invertible"]
    assert len(parsed) == 3
    assert float(parsed[2][0]) == 3.0


def test_alpha_scan_size_six_singular_point():
    rows = alpha_scan(6, [15.0])
    alpha, size, best, found, invertible = rows[0]
    assert found == 1
    assert invertible == 1  # the alternate intertwiner is invertible at 15
