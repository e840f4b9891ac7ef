import json
import math
import random
import tracemalloc
from fractions import Fraction
from operator import mul
from unittest.mock import patch

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from centrosim import (APPROX, EXACT, BlockPartition, Matrix, ModeError, PreconditionError,
                       SearchOptions, assemble_blocks, block, block_diag, default_grid_values,
                       exchange_matrix, find_intertwiner, gauss_facts, hstack,
                       intertwiner_space, linear_toeplitz, riccati_residual,
                       singular_certificate, solve_linear, solver, split_blocks)
from centrosim.cli import main
from centrosim.matrix import _field
from golden_cases import PLANTED12
from oracles import (chained_krylov_space, characteristic_coefficients, dense_powers,
                     exhaustive_grid_hits, fraction_quadratic_parts, kron, per_row_recheck,
                     per_vector_chain_rows, planted_transform_instance, power_combination,
                     prefix_coefficients, prefix_major_float_grid, prefix_major_integer_grid,
                     product_riccati_residual, product_singular_certificate,
                     product_system_residuals, rand_centrosymmetric, rand_int_matrix,
                     tall_instance, vectorized_sylvester_space, wide_instance)

SMALL_GRID = tuple(Fraction(v) for v in
                   ("-2", "-1", "-1/2", "0", "1/2", "1", "2"))
# The search options whose grid is SMALL_GRID.
SMALL = {"grid_numer_max": 2, "grid_denom_max": 2}


def coords_in_basis(X, basis):
    """Solve X = sum t_i N_i for t, or return None."""
    cols = Matrix([[N[i, j] for N in basis]
                   for i in range(X.rows) for j in range(X.cols)],
                  cols=len(basis))
    target = Matrix([[X[i, j]] for i in range(X.rows) for j in range(X.cols)], cols=1)
    sol, _ = solve_linear(cols, target)
    return sol


def test_intertwiner_space_identity_blocks():
    basis = intertwiner_space(Matrix.identity(2), Matrix.identity(2))
    assert len(basis) == 4


def test_intertwiner_space_trivial():
    basis = intertwiner_space(Matrix([[1]]), Matrix([[2]]))
    assert basis == ()


def test_intertwiner_space_contains_expected_solutions():
    A = Matrix([[3, 2], [4, 3]])
    basis = intertwiner_space(A, A)
    assert len(basis) == 2
    for member in (Matrix.identity(2), Matrix([[1, 1], [2, 1]])):
        assert coords_in_basis(member, basis) is not None


def test_intertwiner_space_dimension_matches_kronecker_nullity():
    # Independent construction: column-major vec gives A^T (x) I - I (x) D.
    rng = random.Random(8)
    for _ in range(40):
        s = rng.randint(1, 3)
        m = rng.randint(1, 3)
        A = rand_int_matrix(rng, s, s, -4, 4)
        D = rand_int_matrix(rng, m, m, -4, 4)
        K = kron(A.transpose(), Matrix.identity(m)) - kron(Matrix.identity(s), D)
        assert len(intertwiner_space(A, D)) == len(gauss_facts(K).nullspace)


def test_find_intertwiner_centrosymmetric_contains_exchange():
    rng = random.Random(9)
    for n in (2, 4, 6):
        M = rand_centrosymmetric(rng, n)
        search = find_intertwiner(M, "even", n // 2, SearchOptions(**SMALL))
        J = exchange_matrix(n // 2)
        assert any(sol.X == J and sol.invertible for sol in search)


def test_find_intertwiner_odd_centrosymmetric_contains_exchange():
    rng = random.Random(10)
    for n in (3, 5):
        M = rand_centrosymmetric(rng, n)
        s = (n - 1) // 2
        search = find_intertwiner(M, "odd", s, SearchOptions(**SMALL))
        J = exchange_matrix(s)
        assert any(sol.X == J and sol.invertible for sol in search)


def test_find_intertwiner_toeplitz_example():
    M = linear_toeplitz(3, 4)
    search = find_intertwiner(M, "even", 2)
    expected = Matrix([[1, 1], [2, 1]])
    hits = [sol for sol in search if sol.X == expected]
    assert hits and hits[0].invertible
    assert hits[0].sylvester_residual.is_zero()
    assert hits[0].quadratic_residual.is_zero()


def test_find_intertwiner_counterexample_is_empty_with_diagnostic():
    search = find_intertwiner(Matrix([[1, 3], [2, 2]]), "even", 1)
    assert len(search) == 0
    assert search.diagnostic == "Sylvester space trivial"
    assert search.basis == ()


def test_find_intertwiner_exact_quadratic_line():
    # A = D = 2 leaves a one-dimensional Sylvester space; C = x^2 B.
    search = find_intertwiner(Matrix([[2, 1], [4, 2]]), "even", 1)
    values = sorted(sol.X[0, 0] for sol in search)
    assert values == [-2, 2]


def test_find_intertwiner_irrational_discriminant_reported():
    search = find_intertwiner(Matrix([[2, 1], [3, 2]]), "even", 1)
    assert len(search) == 0
    assert search.discriminant == 12
    assert "irrational" in search.diagnostic


def test_find_intertwiner_search_exhausted():
    M = block([[Matrix.identity(3), rand_int_matrix(random.Random(1), 3, 3)],
               [rand_int_matrix(random.Random(2), 3, 3), Matrix.identity(3)]])
    search = find_intertwiner(M, "even", 3)
    assert search.diagnostic is not None and "search exhausted" in search.diagnostic
    assert len(search.basis) == 9


def test_find_intertwiner_solutions_reverified_by_multiplication():
    rng = random.Random(12)
    for n in (2, 4):
        M = rand_centrosymmetric(rng, n)
        s = n // 2
        A = M.submatrix(0, s, 0, s)
        B = M.submatrix(0, s, s, n)
        C = M.submatrix(s, n, 0, s)
        D = M.submatrix(s, n, s, n)
        for sol in find_intertwiner(M, "even", s, SearchOptions(**SMALL)):
            assert sol.X * A == D * sol.X
            assert C == sol.X * B * sol.X


def planted_instance(rng, s):
    """Instance with a known invertible solution the default ladder can find.

    A is diagonal with distinct eigenvalues, so the Sylvester space decouples
    per column and the planted X (grid-valued entries) has grid coordinates in
    the canonical basis.  B is resampled until BX has no zero entry, which
    pins the exact solution set to {X, -X}.
    """
    lams = rng.sample(range(-6, 7), s)
    A = Matrix([[lams[i] if i == j else 0 for j in range(s)] for i in range(s)], cols=s)
    while True:
        X = Matrix([[rng.choice(SMALL_GRID) for _ in range(s)] for _ in range(s)], cols=s)
        inv = gauss_facts(X).inverse
        if inv is not None:
            break
    while True:
        B = rand_int_matrix(rng, s, s, -5, 5)
        R = B * X
        if all(R[i, j] != 0 for i in range(s) for j in range(s)):
            break
    D = X * A * inv
    C = X * B * X
    return block([[A, B], [C, D]]), X


def test_constructed_instances_yield_invertible_solution():
    rng = random.Random(13)
    opts = SearchOptions(**SMALL, max_solutions=1)
    for trial in range(200):
        s = (trial % 3) + 1
        M, X = planted_instance(rng, s)
        search = find_intertwiner(M, "even", s, opts)
        assert any(sol.invertible for sol in search), f"trial {trial} (s={s})"
        found = search.solutions[0].X
        assert found == X or found == -X


def test_pipeline_search_then_transform_certifies():
    from centrosim import build_centro_transform, is_centrosymmetric
    rng = random.Random(15)
    opts = SearchOptions(**SMALL, max_solutions=1)
    for trial in range(200):
        s = (trial % 3) + 1
        M, _ = planted_instance(rng, s)
        search = find_intertwiner(M, "even", s, opts)
        X = next(sol.X for sol in search if sol.invertible)
        report = build_centro_transform(M, "even", s, X)
        assert report.certification == "fully_centrosymmetric"
        assert is_centrosymmetric(report.result)


def test_find_intertwiner_odd_infeasible_center_equations():
    # x = 0 but w != 0 makes the affine linear system inconsistent.
    M = Matrix([[1, 0, 2], [3, 7, 4], [5, 1, 1]])
    search = find_intertwiner(M, "odd", 1)
    assert len(search) == 0
    assert search.diagnostic == "linear constraints infeasible"


def test_find_intertwiner_odd_affine_line():
    M = Matrix([[3, 0, 2], [0, 5, 0], [8, 0, 3]])
    search = find_intertwiner(M, "odd", 1)
    assert sorted(sol.X[0, 0] for sol in search) == [-2, 2]
    assert all(sol.invertible for sol in search)


def test_find_intertwiner_solution_line_diagnostic():
    # B = C = 0 with A = D leaves every multiple of the basis a solution.
    M = Matrix([[5, 0], [0, 5]])
    search = find_intertwiner(M, "even", 1)
    assert search.diagnostic == "one-parameter solution line; returning representatives"
    assert {sol.X[0, 0] for sol in search} >= {-1, 1}


def test_find_intertwiner_grid_exhaustion_diagnostic():
    # Toeplitz n=4 at alpha 0 has a two-dimensional Sylvester space and no
    # solution on the default grid.
    search = find_intertwiner(linear_toeplitz(0, 4), "even", 2)
    assert len(search) == 0 and len(search.basis) == 2
    assert search.diagnostic == "search exhausted: no grid point solves the system in dimension 2"


def test_find_intertwiner_constant_equation_on_line_diagnostic():
    # A = D, B = 0, C = 3: the quadratic residual is the constant 3 on the line.
    search = find_intertwiner(Matrix([[5, 0], [3, 5]]), "even", 1)
    assert len(search) == 0 and len(search.basis) == 1
    assert search.diagnostic == ("no solution on the line: its first nonzero quadratic "
                                 "equation is a nonzero constant")


def test_find_intertwiner_line_roots_fail_remaining_equations():
    # X = t E00 is the whole Sylvester space; entry (0, 0) gives t = +-2 but
    # entry (1, 1) of C = XBX reads 1 = 0 for every t.
    M = Matrix([[1, 0, 1, 0], [0, 2, 0, 0], [4, 0, 1, 0], [0, 1, 0, 5]])
    search = find_intertwiner(M, "even", 2)
    assert len(search) == 0 and len(search.basis) == 1
    assert search.diagnostic == ("no solution on the line: no root of its first nonzero "
                                 "quadratic equation solves the system")


def test_find_intertwiner_max_solutions_cap():
    M = Matrix([[2, 1], [4, 2]])
    search = find_intertwiner(M, "even", 1, SearchOptions(max_solutions=1))
    assert len(search) == 1


def test_max_solutions_caps_the_special_candidates():
    # J and I both solve the split of a centrosymmetric 2x2 matrix.
    M = Matrix([[1, 2], [2, 1]])
    assert len(find_intertwiner(M, "even", 1)) == 2
    search = find_intertwiner(M, "even", 1, SearchOptions(max_solutions=1))
    assert [sol.X for sol in search] == [exchange_matrix(1)]


@pytest.mark.parametrize("field, value", [
    ("max_solutions", 0), ("max_solutions", -1), ("d_max", -1),
    ("grid_numer_max", -1), ("grid_denom_max", 0),
])
def test_search_options_reject_nonsense_values(field, value):
    least = {"d_max": 0, "grid_numer_max": 0, "grid_denom_max": 1, "max_solutions": 1}[field]
    with pytest.raises(ValueError, match=f"^{field} must be >= {least}, got {value}$"):
        SearchOptions(**{field: value})


def test_riccati_residual_lower_counterexample():
    w = riccati_residual(Matrix([[1, -1], [1, -1]]), 1, Matrix([[1]]), "lower")
    assert w.residual == Matrix([[0]])
    assert w.is_exact()


def test_riccati_residual_upper_block_example():
    w = riccati_residual(Matrix([[1, 1], [0, 2]]), 1, Matrix([[1]]), "upper")
    assert w.residual == Matrix([[0]])


def test_riccati_residual_zero_witness_gives_c():
    M = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    w = riccati_residual(M, 1, Matrix.zeros(2, 1), "lower")
    assert w.residual == M.submatrix(1, 3, 0, 1)


def test_riccati_residual_random_constructions_vanish():
    rng = random.Random(14)
    for _ in range(50):
        s = rng.randint(1, 3)
        m = rng.randint(1, 3)
        X = rand_int_matrix(rng, m, s, -4, 4)
        A = rand_int_matrix(rng, s, s, -4, 4)
        B = rand_int_matrix(rng, s, m, -4, 4)
        D = rand_int_matrix(rng, m, m, -4, 4)
        C = X * A - D * X + X * B * X
        M = block([[A, B], [C, D]])
        assert riccati_residual(M, s, X, "lower").is_exact()


def test_singular_certificate_equal_rows():
    M = Matrix([[2, 3], [2, 3]])
    assert singular_certificate(M, 1, Matrix([[1]]), 1)


def test_singular_certificate_system_two_counterexample():
    assert singular_certificate(Matrix([[1, -1], [1, -1]]), 1, Matrix([[1]]), 2)


def test_singular_certificate_false_on_identity():
    assert not singular_certificate(Matrix.identity(2), 1, Matrix([[1]]), 1)


def test_singular_certificate_rejects_zero_witness():
    with pytest.raises(PreconditionError):
        singular_certificate(Matrix.identity(2), 1, Matrix.zeros(1, 1), 1)


def _search_with(grid_search, M, s, opts):
    with patch.object(solver, "_grid_search", grid_search):
        return find_intertwiner(M, "even", s, opts)


def _grid_hits(grid_search, M, s, values, cap=None):
    """Every X the grid search over values passes to consider, stopping after cap of them."""
    bp = split_blocks(M, "even", s)
    particular, basis = solver._sylvester_space(bp.A, bp.D)
    return _affine_grid_hits(grid_search, bp, particular, basis, values, cap)


def _affine_grid_hits(grid_search, bp, X0, basis, values, cap=None):
    """_grid_hits over X = X0 + sum t_i N_i for any X0 and N_i."""
    hits = []
    grid_search(bp, X0, basis, values, bp.C.mode, None, hits.append,
                lambda: cap is not None and len(hits) >= cap)
    return hits


def _grid(values, mode):
    """A grid as _grid_search takes it: distinct values, ascending, in the mode's field."""
    return tuple(map(_field(mode).coerce, sorted(values)))


def _diag(v):
    return Matrix([[v[i] if i == j else 0 for j in range(len(v))] for i in range(len(v))],
                  cols=len(v))


GRID_POOL = tuple(Fraction(v) for v in ("-3", "-2", "-1", "-1/2", "0", "1/3", "1/2", "1", "2", "3"))


def _planted_grid_instance(data, d, mode):
    """M whose even split at d has a d-dimensional Sylvester space: A and D share
    d distinct eigenvalues, and C = X* B X* plants X* = P diag(x) S^-1 on or off
    the grid."""
    eig = data.draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d, unique=True))
    perm = data.draw(st.permutations(range(d)))
    x = data.draw(st.lists(st.sampled_from(GRID_POOL + (Fraction(5, 7),)), min_size=d,
                           max_size=d))
    B = Matrix(data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                                  min_size=d, max_size=d)), cols=d)
    S = Matrix.identity(d)
    if data.draw(st.booleans()):
        S = Matrix([[1 if i == j else (data.draw(st.integers(-1, 1)) if j > i else 0)
                     for j in range(d)] for i in range(d)], cols=d)
    S_inv = gauss_facts(S).inverse
    P = Matrix([[1 if perm[i] == j else 0 for j in range(d)] for i in range(d)], cols=d)
    A = S * _diag(eig) * S_inv
    D = P * _diag(eig) * P.transpose()
    X = P * _diag(x) * S_inv
    M = block([[A, B], [X * B * X, D]])
    if mode == APPROX:
        M = Matrix([[float(v) for v in r] for r in M.to_lists()], mode=APPROX)
    assert len(intertwiner_space(A, D)) == d
    return M


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.sampled_from([EXACT, APPROX]), st.data())
def test_grid_search_matches_exhaustive_oracle(d, mode, data):
    # Custom grids of distinct values from a pool with 0, negatives and 1/3.
    # Dimension 4 runs in approximate mode only, on grids of at most 4 values.
    assume(d < 4 or mode == APPROX)
    M = _planted_grid_instance(data, d, mode)
    values = _grid(data.draw(st.lists(st.sampled_from(GRID_POOL), min_size=1,
                                      max_size=7 if d < 4 else 4, unique=True)), mode)
    cap = data.draw(st.sampled_from([None, 1, 2]))
    assert (_grid_hits(solver._grid_search, M, d, values, cap)
            == _grid_hits(exhaustive_grid_hits, M, d, values, cap))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from([EXACT, APPROX]), st.integers(0, 4),
       st.integers(1, 4), st.sampled_from([None, 1]), st.data())
def test_search_over_bounded_grids_matches_exhaustive_oracle(d, mode, numer_max, denom_max,
                                                             max_solutions, data):
    # The whole search, over the grid the options give, against the exhaustive
    # grid walk; in dimension 3 only on grids of at most 13 values.
    opts = SearchOptions(grid_numer_max=numer_max, grid_denom_max=denom_max,
                         max_solutions=max_solutions)
    assume(d == 2 or len(opts.grid(mode)) <= 13)
    M = _planted_grid_instance(data, d, mode)
    assert find_intertwiner(M, "even", d, opts) == _search_with(exhaustive_grid_hits, M, d, opts)


# Quarters in [-2, 2]: every product and sum the float grid forms over them at
# k <= 3 is exact in binary64, so a residual can be planted at exactly +-thresh.
QUARTERS = tuple(v / 4 for v in range(-8, 9))
# The 25 values of the default grid, as the approximate search walks them.
PRODUCTION_GRID = tuple(map(float, default_grid_values()))
# Shapes of the first entry c - b*t - a*t^2 at the planted prefix, around a root
# at the planted t: as drawn; a double root; a discriminant within a few ulps of
# 0; |a| far below |b|; a = 0; a = b = 0; every coefficient near 1e150, where
# b*b overflows.
FIRST_ENTRY_SHAPES = ("drawn", "double", "near_double", "small_a", "linear", "flat", "huge")


def _shape_first_entry(shape, u, t, a, r0, lin, quad):
    """Set the first entry's coefficients so that at prefix u it has shape (see
    FIRST_ENTRY_SHAPES) with a root near t; a is the drawn nonzero leading term."""
    k = len(u)

    def move_to(b_target, c_target):
        c, b = prefix_coefficients(u, 0, r0, lin, quad)
        lin[k][0] += b_target - b
        r0[0] += c_target - c
        return prefix_coefficients(u, 0, r0, lin, quad)

    if shape == "huge":
        for coeffs in (r0, *lin, *(q for row in quad for q in row)):
            coeffs[0] *= 1e150
        return
    if shape in ("double", "near_double"):
        quad[k][k][0] = a
        c, b = move_to(-2 * a * t, -a * t * t)
        if shape == "near_double" and c:
            quad[k][k][0] = -(b * b) / (4 * c)
    elif shape == "small_a":
        quad[k][k][0] = a * 2.0 ** -30
        b = a * 3.0
        move_to(b, b * t + quad[k][k][0] * t * t)
    elif shape == "linear":
        quad[k][k][0] = 0.0
        move_to(a, a * t)
    elif shape == "flat":
        quad[k][k][0] = 0.0
        move_to(0.0, 0.0)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 3), st.integers(1, 9), st.booleans(), st.booleans(),
       st.sampled_from(FIRST_ENTRY_SHAPES), st.data())
def test_float_grid_matches_the_prefix_major_oracle(k, n_entries, dyadic, plant, shape, data):
    scalar = (st.sampled_from(QUARTERS) if dyadic else
              st.floats(-4, 4, allow_nan=False) | st.sampled_from((0.0, -0.0, 1.0)))
    # Grids repeat values; the entries' coefficients come from the same pool.  The
    # default grid is drawn at k <= 2, where the oracle walks at most 625 prefixes.
    if k <= 2 and data.draw(st.booleans()):
        values = PRODUCTION_GRID
        dyadic = False
    else:
        values = tuple(sorted(data.draw(st.lists(scalar, min_size=1, max_size=5))))

    def draw_coeffs():
        return data.draw(st.lists(scalar, min_size=n_entries, max_size=n_entries))

    r0 = draw_coeffs()
    lin = [draw_coeffs() for _ in range(k + 1)]
    quad = [[draw_coeffs() for _ in range(k + 1)] for _ in range(k + 1)]
    *u, t = point = [data.draw(st.sampled_from(values)) for _ in range(k + 1)]
    lead = (st.sampled_from((-2.0, -0.75, -0.25, 0.5, 1.0, 1.75)) if dyadic else
            st.floats(0.1, 4) | st.floats(-4, -0.1))
    _shape_first_entry(shape, u, t, data.draw(lead), r0, lin, quad)
    thresh = data.draw(st.sampled_from((0.0, 0.25, 1.0, math.inf) if plant else
                                       (0.0, 1e-9, 0.25, math.inf)))
    if plant:
        # A hit at the planted point, on the boundary |residual| = thresh: the dyadic
        # residuals are moved to exactly +-thresh, and otherwise thresh becomes
        # their largest magnitude, as the oracle's float operations give it.
        residuals = []
        for e in range(n_entries):
            c, b = prefix_coefficients(u, e, r0, lin, quad)
            residuals.append(c - b * t - t * t * quad[k][k][e])
        if dyadic and math.isfinite(thresh) and shape != "huge":
            for e, q in enumerate(residuals):
                r0[e] += data.draw(st.sampled_from((thresh, -thresh))) - q
        else:
            thresh = max(map(abs, residuals))
    expected = [(u, ts) for u, ts in prefix_major_float_grid(values, k, r0, lin, quad, thresh)
                if ts]
    assert list(solver._float_grid(values, k, r0, lin, quad, thresh)) == expected
    if plant:
        assert point[-1] in dict(expected)[tuple(point[:-1])]
    event(f"shape {shape}, hit prefixes: {min(len(expected), 3)}"
          f"{'+' if len(expected) > 3 else ''}")


def _float_grid_case(first, later=()):
    """(r0, lin, quad) at k = 1 whose entries, c - b*t - a*t^2 at prefix v, have
    c = c0 - c1 v - c2 v^2, b = b0 + b1 v and the given a: each entry is
    (c0, c1, c2, b0, b1, a)."""
    entries = (first, *later)
    r0 = [e[0] for e in entries]
    lin = [[e[1] for e in entries], [e[3] for e in entries]]
    quad = [[[e[2] for e in entries], [e[4] for e in entries]],
            [[0.0] * len(entries), [e[5] for e in entries]]]
    return r0, lin, quad


# Each fallback of the float grid's windows, on the default grid at k = 1:
# a = b = 0 at v = 1, where the first entry vanishes at every t; a = 0 with c/b
# overflowing at every v; b*b overflowing with a != 0; an infinite threshold; an
# infinite coefficient; and, for contrast, a v with no real root.
@pytest.mark.parametrize("first, later, thresh, n_hits", [
    ((1.0, 1.0, 0.0, -1.0, 1.0, 0.0), [(0.0, 0.0, 0.0, 1.0, 0.0, 1.0)], 0.0, 26),
    ((1e300, 0.0, 0.0, 1e-300, 0.0, 0.0), [], 1e300, 625),
    ((1e200, 1e200, 0.0, 1e200, 1e200, 1.0), [], 1e9, 10),
    ((2.0, 1.0, 0.5, 1.0, -1.0, 3.0), [(1.0, 0.0, 1.0, 0.0, 1.0, -1.0)], math.inf, 625),
    ((math.inf, 0.0, 0.0, 1.0, 0.0, 1.0), [], math.inf, 625),
    ((-1.0, 0.0, 0.0, 0.0, 0.0, 1.0), [], 0.5, 0),
], ids=["a_b_zero", "linear_overflow", "square_overflow", "thresh_inf", "inf_coefficient",
        "complex_roots"])
def test_float_grid_fallbacks_match_the_prefix_major_oracle(first, later, thresh, n_hits):
    r0, lin, quad = _float_grid_case(first, later)
    expected = [(u, ts) for u, ts in
                prefix_major_float_grid(PRODUCTION_GRID, 1, r0, lin, quad, thresh) if ts]
    assert list(solver._float_grid(PRODUCTION_GRID, 1, r0, lin, quad, thresh)) == expected
    assert sum(map(len, dict(expected).values())) == n_hits


def test_float_grid_finds_a_near_double_root():
    # c - b*t - a*t^2 with b = 1 and a = -1/(4c) rounded: a discriminant of a few
    # ulps, and the double root 2c = 1/2 hit within a threshold of 1e-15.
    c = 0.25 + 2.0 ** -50
    a = -1.0 / (4 * c)
    r0, lin, quad = _float_grid_case((c, 0.0, 0.0, 1.0, 0.0, a))
    assert abs(1.0 * 1.0 + 4 * a * c) <= 4 * 2.0 ** -52
    hits = list(solver._float_grid(PRODUCTION_GRID, 1, r0, lin, quad, 1e-15))
    assert hits == [(u, ts) for u, ts in
                    prefix_major_float_grid(PRODUCTION_GRID, 1, r0, lin, quad, 1e-15) if ts]
    assert hits and all(ts == [0.5] for _, ts in hits)


# One value t per rounding term of _first_entry's windows that no other term
# covers: c - b*t - t*t*a passes the threshold in binary64, and without that
# term the window misses t.
@pytest.mark.parametrize("t, a, c, b, thresh", [
    # b*t underflows to 0, though b t = 2^-1075.  h's TINY alone makes the
    # window h/|b| = 2^52 wide.
    pytest.param(0.5, 0.0, 0.0, 2.0 ** -1074, 0.0, id="h-tiny"),
    # t*t underflows to 0, though a t^2 = 2^-700.  h's EPS term alone, through
    # |a| max(T^2, TINY), covers the underflow: outer = 2^-533.
    pytest.param(2.0 ** -600, 2.0 ** 500, 0.0, 0.0, 0.0, id="h-eps"),
    # 4ac = 2^-1098 underflows to 0, so the discriminant reads a double root
    # at 0 (the roots are +-2^50).  slack's TINY alone makes the window reach
    # t: outer = 2^88.
    pytest.param(2.0 ** 50, 2.0 ** -600, 2.0 ** -500, 0.0, 0.0, id="slack-tiny"),
    # A double root where b*b is finite but 4ac overflows to -inf, so the
    # discriminant is -inf.  slack's EPS term alone overflows with it, so the
    # entry is not skipped (-inf + inf is NaN) and every t is tested.
    pytest.param(3.3699933333938292e+66, 1.9892929456391466e+87, -2.2592111669665755e+220,
                 -1.3407807929942593e+154, 3.511519557079183e+205, id="slack-eps"),
])
def test_each_uncovered_first_entry_margin_keeps_its_value(t, a, c, b, thresh):
    tta = [t * t * a]
    assert abs(c - b * t - tta[0]) <= thresh
    assert list(solver._first_entry([t], tta, a, [c], [b], thresh)) == [(0, [0])]


# Per entry, the (a, b, c) of c - b*t - a*t^2 at a planted prefix, for a drawn
# root t1 (and t2): vanishing; a = 0 with root t1; a double root; two roots.
PLANTS = {
    "vanish": lambda a, t1, t2: (0, 0, 0),
    "linear": lambda a, t1, t2: (0, a, a * t1),
    "double": lambda a, t1, t2: (a, -2 * a * t1, -a * t1 * t1),
    "two": lambda a, t1, t2: (a, -a * (t1 + t2), -a * t1 * t2),
}


def _planted_entry(k, u, target, draw_int):
    """Integer (r0, lin, quad) of one entry c - b*t - a*t^2 equal to target's
    (a, b, c) at prefix u, every other coefficient drawn; None draws them all."""
    r0 = Fraction(draw_int())
    lin = [Fraction(draw_int()) for _ in range(k + 1)]
    quad = [[Fraction(draw_int()) for _ in range(k + 1)] for _ in range(k + 1)]
    if target is not None:
        a, b, c = target
        quad[k][k] = Fraction(a)
        lin[k] = b - sum(u[i] * (quad[i][k] + quad[k][i]) for i in range(k))
        r0 = c + sum(u[i] * (lin[i] + sum(u[j] * quad[i][j] for j in range(k)))
                     for i in range(k))
    scale = math.lcm(*(v.denominator for v in [r0, *lin, *(q for row in quad for q in row)]))
    return (int(r0 * scale), [int(v * scale) for v in lin],
            [[int(v * scale) for v in row] for row in quad])


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.data())
def test_integer_grid_matches_the_prefix_major_oracle(k, n_entries, data):
    # Grids of distinct values come from a pool with 0 and negatives and mix
    # denominators; each entry is drawn, identically zero, or planted at a grid
    # prefix to vanish there, to have a = 0, a double root or two roots.
    values = tuple(sorted(data.draw(st.lists(st.sampled_from(GRID_POOL), min_size=1,
                                             max_size=5, unique=True))))
    u = [data.draw(st.sampled_from(values)) for _ in range(k)]
    parts = []
    kinds = []
    for _ in range(n_entries):
        kind = data.draw(st.sampled_from(sorted(PLANTS) + ["drawn", "zero"]))
        kinds.append(kind)
        small = st.integers(-2, 2) if kind != "zero" else st.just(0)
        target = None
        if kind in PLANTS:
            t1, t2 = (data.draw(st.sampled_from(values + (Fraction(1, 5),))) for _ in range(2))
            target = PLANTS[kind](data.draw(st.sampled_from((-3, -1, 1, 2))), t1, t2)
        parts.append(_planted_entry(k, u, target, lambda: data.draw(small)))
    r0 = [p[0] for p in parts]
    lin = [[p[1][i] for p in parts] for i in range(k + 1)]
    quad = [[[p[2][i][j] for p in parts] for j in range(k + 1)] for i in range(k + 1)]
    expected = list(prefix_major_integer_grid(values, k, r0, lin, quad))
    scale = math.lcm(*(v.denominator for v in values))
    ts = [v.numerator * (scale // v.denominator) for v in values]
    value = dict(zip(ts, values))
    found = [(tuple(map(value.get, U)), [value[T] for T in survivors])
             for U, survivors in solver._integer_grid(scale, ts, k, r0, lin, quad)]
    assert found == expected
    event(f"first entry {kinds[0] if kinds else 'none'}, hits {'yes' if expected else 'no'}")


def _fraction_matrix(draw, rows, cols):
    return Matrix([[Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from((1, 2, 3, 10))))
                    for _ in range(cols)] for _ in range(rows)], cols=cols)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_integer_quadratic_parts_are_the_fraction_parts_scaled(m, s, d, data):
    # X0 and the N_i are m x s, B is s x m and C is m x s, all with denominators.
    X0 = _fraction_matrix(data.draw, m, s)
    basis = tuple(_fraction_matrix(data.draw, m, s) for _ in range(d))
    B, C = _fraction_matrix(data.draw, s, m), _fraction_matrix(data.draw, m, s)
    bp = BlockPartition("even", s, Matrix.identity(s), B, C, Matrix.identity(m))
    K, (den, x0, ns), r0, lin, quad = solver._quadratic_parts(bp, X0, basis)
    R0, Rlin, Rquad = fraction_quadratic_parts(bp, X0, basis)
    assert K > 0 and all(type(v) is int for v in r0 + lin[0] + quad[0][0])
    assert r0 == [K * v for v in R0]
    assert lin == [[K * v for v in R] for R in Rlin]
    assert quad == [[[K * v for v in R] for R in row] for row in Rquad]
    assert [Matrix(rows) * Fraction(1, den) for rows in (x0, *ns)] == [X0, *basis]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_approximate_quadratic_parts_are_the_pairwise_products(m, s, d, data):
    # The same bits as one Matrix product per pair P_i B P_j, which reports pin.
    def floats(rows, cols):
        return Matrix([[data.draw(st.floats(-1e3, 1e3, allow_subnormal=False))
                        for _ in range(cols)] for _ in range(rows)], mode=APPROX, cols=cols)

    X0, *basis = [floats(m, s) for _ in range(d + 1)]
    B, C = floats(s, m), floats(m, s)
    bp = BlockPartition("even", s, Matrix.identity(s, APPROX), B, C, Matrix.identity(m, APPROX))
    K, rows, r0, lin, quad = solver._quadratic_parts(bp, X0, tuple(basis))

    def bits(M):
        return [v.hex() for row in M.to_lists() for v in row]
    assert (K, rows) == (1, None)
    assert list(map(float.hex, r0)) == bits(C - X0 * B * X0)
    assert [list(map(float.hex, v)) for v in lin] == [bits(N * B * X0 + X0 * B * N)
                                                      for N in basis]
    assert [[list(map(float.hex, v)) for v in row] for row in quad] == [
        [bits(Ni * B * Nj) for Nj in basis] for Ni in basis]


def test_a_four_dimensional_float_grid_search_stays_small():
    # X = diag(t0, ..., t3) spans the Sylvester space of A = D = diag(1, 2, 3, 4), and
    # C = X X at t = (+-1, +-2, +-3, +-1/2): 16 grid hits among 25^4 points.
    A = [[float(i + 1) if i == j else 0.0 for j in range(4)] for i in range(4)]
    C = [[v * v if i == j else 0.0 for j, v in enumerate((1.0, 2.0, 3.0, 0.5))]
         for i in range(4)]
    identity = [[float(i == j) for j in range(4)] for i in range(4)]
    M = block([[Matrix(A, mode=APPROX), Matrix(identity, mode=APPROX)],
               [Matrix(C, mode=APPROX), Matrix(A, mode=APPROX)]])
    tracemalloc.start()
    try:
        search = find_intertwiner(M, "even", 4, SearchOptions(d_max=4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [[sol.X[i, i] for i in range(4)] for sol in search] == [
        [t0, t1, t2, t3] for t0 in (-1, 1) for t1 in (-2, 2) for t2 in (-3, 3)
        for t3 in (-0.5, 0.5)]
    assert peak < 1_000_000


WIDE_POOL = GRID_POOL + tuple(Fraction(v) for v in
                              ("1/7", "-1/7", "3/10", "-3/10", "1000000", "-1000000", "3000000/7"))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_exact_grid_matches_exhaustive_oracle_on_wide_grids(d, data):
    # The grid needs no Sylvester structure: X = X0 + sum t_i N_i over arbitrary
    # X0 and N_i, with C = X* B X* planted at a grid point X*.  The grid mixes
    # denominators 7 and 10 with numerators up to 3*10^6; B, X0 and the N_i have
    # entries with large denominators.
    def rational():
        return Fraction(data.draw(st.integers(-3, 3)),
                        data.draw(st.sampled_from((1, 7, 997, 10**6 + 3))))

    def mat():
        return Matrix([[rational() for _ in range(2)] for _ in range(2)], cols=2)

    X0 = mat()
    basis = tuple(mat() for _ in range(d))
    B = mat()
    grid = _grid(data.draw(st.lists(st.sampled_from(WIDE_POOL), min_size=1, max_size=8,
                                    unique=True)), EXACT)
    X = X0
    for N in basis:
        X = X + data.draw(st.sampled_from(grid)) * N
    bp = split_blocks(block([[Matrix.identity(2), B], [X * B * X, Matrix.identity(2)]]),
                      "even", 2)
    cap = data.draw(st.sampled_from([None, 1, 2]))
    hits = _affine_grid_hits(solver._grid_search, bp, X0, basis, grid, cap)
    assert hits == _affine_grid_hits(exhaustive_grid_hits, bp, X0, basis, grid, cap)
    assert cap is not None or X in hits


# Scaled grid values T, distinct and ascending.
ROOT_GRID = [-6, -3, -2, 0, 2, 3, 4]


@pytest.mark.parametrize("a, b, c, roots", [
    (0, 2, -6, [-3]),           # a = 0, integral quotient
    (0, 4, 6, []),              # a = 0, quotient 3/2
    (0, 0, 0, ROOT_GRID),       # a = b = c = 0: every value
    (0, 0, 5, []),              # a = b = 0, c != 0
    (1, 0, -4, []),             # negative discriminant
    (4, 0, 1, []),              # square discriminant, roots +-1/2
    (2, 1, 6, [-2]),            # roots -2 and 3/2
    (1, -4, -4, [2]),           # double root 2, found once
    (1, 0, 25, []),             # roots +-5, both off the grid
    (-1, 0, -16, [4]),          # roots +-4, -4 off the grid
    (-1, 1, -6, [-2, 3]),       # a < 0: still ascending
])
def test_grid_roots_solve_the_first_entry(a, b, c, roots):
    # _grid_roots solves a T^2 + b T = c for the grid values T it finds: the same
    # list, in the same order, as testing every value.
    found = solver._grid_roots(a, b, c, ROOT_GRID, set(ROOT_GRID))
    assert found == roots == [T for T in ROOT_GRID if (a * T + b) * T == c]


@pytest.mark.parametrize("b, c, grid_hits", [
    # Entry (1, 1) reads 9 - t1^2 once t0 = +-2 clears entry (0, 0): both roots count.
    ((1, 1), (4, 9), [(-2, -3), (-2, 3), (2, -3), (2, 3)]),
    # With B = E00 no entry involves t1: every grid value survives t0 = +-2.
    ((1, 0), (4, 0), [(t0, t1) for t0 in (-2, 2) for t1 in default_grid_values()]),
])
def test_grid_search_last_coordinate_roots(b, c, grid_hits):
    # X = diag(t0, t1) spans the Sylvester space of A = D = diag(1, 2).
    M = block([[_diag((1, 2)), _diag(b)], [_diag(c), _diag((1, 2))]])
    opts = SearchOptions()
    hits = _grid_hits(solver._grid_search, M, 2, default_grid_values())
    assert [(X[0, 0], X[1, 1]) for X in hits] == grid_hits
    assert hits == _grid_hits(exhaustive_grid_hits, M, 2, default_grid_values())
    assert find_intertwiner(M, "even", 2, opts) == _search_with(exhaustive_grid_hits, M, 2, opts)


@pytest.mark.parametrize("opts, stop", [(SearchOptions(), True),
                                        (SearchOptions(max_solutions=1), False)])
def test_a_full_search_skips_the_grid(opts, stop, monkeypatch):
    # J solves this centrosymmetric matrix, whose Sylvester space at the center
    # split has dimension 2; once J fills the search the grid is not walked.
    M = Matrix([[4, -3, 5, -5], [2, -2, 3, 2], [2, 3, -2, 2], [-5, 5, -3, 4]])
    first = find_intertwiner(M, "even", 2).solutions[0]
    monkeypatch.setattr(solver, "_grid_search", None)
    search = find_intertwiner(M, "even", 2, opts, stop_at_invertible=stop)
    assert len(search.basis) == 2 and search.diagnostic is None
    assert search.solutions == (first,) and first.X == exchange_matrix(2) and first.invertible


def _ints(A, D):
    _, a, d = solver._scaled_rows(A, D)
    return a, d


def _space_and_path(A, D, center=None):
    """_sylvester_space(A, D, center), and the route it took: "last_row" when
    the Krylov row form on X's last row gave the canonical rows itself,
    "earlier_row" when it ran on an earlier row and its rows went through
    _reduce, and "integer_fallback" when no unit row was cyclic and the integer
    vectorized rows were eliminated."""
    found, reduced = [], []
    krylov_space, reduce = solver._krylov_space, solver._reduce

    def recorded(*args):
        found.append(krylov_space(*args))
        return found[-1]

    def recorded_reduce(*args):
        reduced.append(args)
        return reduce(*args)
    with patch.object(solver, "_krylov_space", recorded), \
            patch.object(solver, "_reduce", recorded_reduce):
        space = solver._sylvester_space(A, D, center)
    if found[0] is None:
        return space, "integer_fallback"
    return space, "earlier_row" if reduced else "last_row"


def _cyclic_units(D):
    """The i for which e_i is a cyclic vector of D: its Krylov matrix has full rank
    (so the e_i^T cyclic for D^T are _cyclic_units(D.transpose()))."""
    m = D.rows
    out = []
    for i in range(m):
        cols = [Matrix([[int(k == i)] for k in range(m)], cols=1)]
        for _ in range(m - 1):
            cols.append(D * cols[-1])
        if gauss_facts(hstack(*cols)).rank == m:
            out.append(i)
    return out


RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))


def _draw_matrix(draw, rows, cols, entries=st.integers(-3, 3)):
    return Matrix([[draw(entries) for _ in range(cols)] for _ in range(rows)], cols=cols)


def _draw_conjugate(draw, T):
    """S T S^-1 for a random unimodular S = L U."""
    n = T.rows
    L = Matrix([[1 if i == j else draw(st.integers(-2, 2)) if i > j else 0
                 for j in range(n)] for i in range(n)], cols=n)
    U = Matrix([[1 if i == j else draw(st.integers(-2, 2)) if i < j else 0
                 for j in range(n)] for i in range(n)], cols=n)
    S = L * U
    return S * T * gauss_facts(S).inverse


def _draw_triangular(draw, diag):
    """Upper triangular with the given diagonal and small random entries above it."""
    n = len(diag)
    return Matrix([[diag[i] if i == j else draw(st.integers(-2, 2)) if i < j else 0
                    for j in range(n)] for i in range(n)], cols=n)


def _jordan(lam, k):
    return Matrix([[lam if i == j else 1 if j == i + 1 else 0 for j in range(k)]
                   for i in range(k)], cols=k)


@st.composite
def sylvester_cases(draw):
    """(kind, A, D, center, cyclic): cyclic says whether a unit row is cyclic for D^T
    (None when the construction leaves it open)."""
    kind = draw(st.sampled_from(["random", "shared", "derogatory", "late-cyclic"]))
    s = draw(st.integers(1, 4))
    cyclic = None
    if kind == "random":
        m = draw(st.integers(1, 4))
        A = _draw_matrix(draw, s, s, RATIONALS)
        D = _draw_matrix(draw, m, m, RATIONALS)
    elif kind == "shared":
        # A and D share at least one eigenvalue, so XA = DX has a nonzero solution.
        m = draw(st.integers(1, 4))
        eig_a = draw(st.lists(st.integers(-3, 3), min_size=s, max_size=s))
        eig_d = draw(st.lists(st.sampled_from(eig_a), min_size=1, max_size=m))
        eig_d += draw(st.lists(st.integers(-3, 3), min_size=m - len(eig_d),
                               max_size=m - len(eig_d)))
        A = _draw_conjugate(draw, _draw_triangular(draw, eig_a))
        D = _draw_conjugate(draw, _draw_triangular(draw, eig_d))
    elif kind == "derogatory":
        # Two Jordan blocks of one eigenvalue: no vector is cyclic.
        m = draw(st.integers(2, 4))
        lam = draw(st.integers(-2, 2))
        form = draw(st.sampled_from(["scalar", "zero", "jordan"]))
        if form == "scalar":
            D = lam * Matrix.identity(m)
        elif form == "zero":
            D = Matrix.zeros(m, m)
        else:
            D = _draw_conjugate(draw, block_diag(_jordan(lam, m - m // 2), _jordan(lam, m // 2)))
        eig = D[0, 0] if form != "jordan" else lam
        A = _draw_conjugate(draw, _draw_triangular(
            draw, [eig] + draw(st.lists(st.integers(-3, 3), min_size=s - 1, max_size=s - 1))))
        cyclic = False
    else:
        # e_(m-1)^T is a left eigenvector of D, so not cyclic for D^T; some
        # earlier e_i^T is.
        m = draw(st.integers(2, 4))
        lam = draw(st.integers(-2, 2))
        D = Matrix([[lam if i == j == m - 1 else 0 if i == m - 1 else draw(st.integers(-3, 3))
                     for j in range(m)] for i in range(m)], cols=m)
        units = _cyclic_units(D.transpose())
        assume(units and units[-1] < m - 1)
        A = _draw_conjugate(draw, _draw_triangular(
            draw, [lam] + draw(st.lists(st.integers(-3, 3), min_size=s - 1, max_size=s - 1))))
        cyclic = True
    return kind, A, D, _draw_center(draw, A, D), cyclic


def _draw_center(draw, A, D):
    """None, or a center (x, w, z, y) for XA = DX: consistent or not, with x or z
    zero on some draws."""
    if not draw(st.booleans()):
        return None
    s, m = A.rows, D.rows
    # A zero x or z drops those conditions, so solutions with free columns remain.
    degenerate = draw(st.sampled_from(["x", "z", None, None]))
    x = Matrix.zeros(s, 1) if degenerate == "x" else _draw_matrix(draw, s, 1)
    z = Matrix.zeros(1, m) if degenerate == "z" else _draw_matrix(draw, 1, m)
    if draw(st.booleans()):
        # Consistent: w and y come from a planted solution X0 of XA = DX.
        X0 = Matrix.zeros(m, s)
        for N in vectorized_sylvester_space(A, D)[1]:
            X0 = X0 + draw(st.integers(-2, 2)) * N
        w, y = X0 * x, z * X0
    else:
        w = _draw_matrix(draw, m, 1)
        y = _draw_matrix(draw, 1, s)
    return x, w, z, y


@settings(max_examples=250, deadline=None)
@given(sylvester_cases())
def test_sylvester_space_matches_the_vectorized_oracle(case):
    kind, A, D, center, cyclic = case
    expected = vectorized_sylvester_space(A, D, center)
    particular, basis = expected
    if kind == "shared" and center is None:
        assert basis
    space, route = _space_and_path(A, D, center)
    event(f"{kind}; {route}; "
          f"{'no center' if center is None else 'inconsistent' if particular is None else 'consistent'}"
          f"{'' if particular is None or particular.is_zero() else ' nonzero'}"
          f"; dimension {'0' if not basis else '>0'}")
    if cyclic is not None:
        assert (route != "integer_fallback") == cyclic
    assert (route == "last_row") == (D.rows - 1 in _cyclic_units(D.transpose()))
    assert space == expected
    if center is None:
        assert intertwiner_space(A, D) == basis
        assert particular == Matrix.zeros(D.rows, A.rows)


def test_krylov_particular_is_zero_at_the_free_columns():
    # X is 1 x 3 and free but for X[0, 0] + X[0, 1] = 5: free columns 1 and 2.
    A, D = 2 * Matrix.identity(3), Matrix([[2]])
    center = (Matrix([[1], [1], [0]]), Matrix([[5]]), Matrix([[0]]), Matrix([[0, 0, 0]]))
    space, route = _space_and_path(A, D, center)
    assert route == "last_row" and space == vectorized_sylvester_space(A, D, center)
    assert space[0] == Matrix([[5, 0, 0]])
    assert space[1] == (Matrix([[-1, 1, 0]]), Matrix([[0, 0, 1]]))


def _rational_krylov_space(a, d, center=None):
    """solver._krylov_space(a, d, center) with each row over den as Fractions."""
    found = solver._krylov_space(a, d, center)
    if found is None:
        return None
    i, rows, den = found
    return i, [[Fraction(v, den) for v in row] for row in rows]


@settings(max_examples=150, deadline=None)
@given(sylvester_cases())
def test_krylov_space_matches_the_chained_oracle(case):
    _, A, D, center, _ = case
    a, d = _ints(A, D)
    if center is not None:
        center = tuple(map(solver._flat, solver._scaled_rows(*center)[1:]))
    assert _rational_krylov_space(a, d, center) == chained_krylov_space(a, d, center)


def _companion(roots):
    """The companion matrix, rows e_1^T, ..., e_(m-1)^T and -c, of prod (t - r)."""
    coeffs = [1]
    for r in roots:
        coeffs = [u - r * v for u, v in zip([0] + coeffs, coeffs + [0])]
    m = len(roots)
    return Matrix([[int(k == i + 1) for k in range(m)] for i in range(m - 1)]
                  + [[-v for v in coeffs[:-1]]], cols=m)


@st.composite
def last_row_cases(draw):
    """(A, D, roots, center) with e_(m-1)^T cyclic for D^T: D = R^-1 F R for the
    companion matrix F of prod (t - r) over drawn roots r, and a unimodular R
    whose first row is e_(m-1)^T, so that R = [e_(m-1)^T; e_(m-1)^T D; ...]
    (R D = F R).  A is conjugate to a triangular matrix whose eigenvalues are
    drawn from the roots or not, so f(A) vanishes on some draws and not on
    others; A, D and the roots share one rational scale.  center is None or a
    center of _draw_center."""
    s, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    roots = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
    eig = draw(st.lists(st.one_of(st.sampled_from(roots), st.integers(-2, 2)),
                        min_size=s, max_size=s))
    A = _draw_conjugate(draw, _draw_triangular(draw, eig))
    # Row i of R is e_(b_i)^T plus a combination of the e_(b_j)^T before it, for
    # b = m-1, 0, ..., m-2: unimodular, with first row e_(m-1)^T.
    order = [m - 1, *range(m - 1)]
    R = Matrix([[1 if k == order[i] else draw(st.integers(-2, 2)) if k in order[:i] else 0
                 for k in range(m)] for i in range(m)], cols=m)
    D = gauss_facts(R).inverse * _companion(roots) * R
    scale = draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 2)]))
    A, D = scale * A, scale * D
    return A, D, [scale * r for r in roots], _draw_center(draw, A, D)


@settings(max_examples=200, deadline=None)
@given(last_row_cases())
# m = 1: f(A) = A - 3I != 0, whose transpose eliminates to the last pivot -2,
# so den = prev_R prev_K = -2; and m = 2 != s = 3 with f(A) != 0.
@example((Matrix([[1, 1], [0, 3]]), Matrix([[3]]), [3], None))
@example((Matrix([[1, 1, 0], [0, 2, 1], [0, 0, 5]]), _companion([1, 2]), [1, 2], None))
def test_the_last_row_gives_the_canonical_basis(case):
    A, D, roots, center = case
    s, m = A.rows, D.rows
    assert m - 1 in _cyclic_units(D.transpose())
    space, route = _space_and_path(A, D, center)
    expected = vectorized_sylvester_space(A, D, center)
    f_of_a = Matrix.identity(s)
    for r in roots:
        f_of_a = f_of_a * (A - r * Matrix.identity(s))
    particular, basis = expected
    event(f"{'m = 1' if m == 1 else 'm = s' if m == s else 'm != s'}; "
          f"f(A) {'= 0' if f_of_a.is_zero() else '!= 0'}; "
          f"{'no center' if center is None else 'inconsistent' if particular is None else 'consistent'}"
          f"; dimension {'0' if not basis else '>0'}")
    assert route == "last_row" and space == expected


CYCLIC4 = Matrix([[1, 2, 0, 1], [0, 1, 3, 0], [2, 0, 1, 1], [1, 1, 0, 2]])


@pytest.mark.parametrize("A, D, nonzeros", [
    # f(A) = (A - I)(A - 2I) = [[0, 1], [0, 2]]: its left kernel is spanned by
    # z = (2, -1), so each row z A^k of the chain combines two rows of A^k.
    (Matrix([[1, 1], [0, 3]]), Matrix([[1, 1], [0, 2]]), [2]),
    # A = D, so f(A) = 0 (Cayley-Hamilton) and every z is a unit vector.
    (CYCLIC4, CYCLIC4, [1, 1, 1, 1]),
])
def test_krylov_space_chains_each_left_kernel_vector(A, D, nonzeros, monkeypatch):
    """Every basis row is inv times the chain [z; zA; ...] of one vector (z, tau)
    of the kernel over (x, tau), tau's own vector last with z = 0: one packed
    chain holds every z as digits of its first row, and inv multiplies it once
    (one _chain_basis call).  nonzeros counts the nonzero entries of each z."""
    bases = _counting(monkeypatch, "_chain_basis")
    a, d = _ints(A, D)
    assert _rational_krylov_space(a, d) == chained_krylov_space(a, d) and len(bases) == 1
    _, chain, bits, ts = bases[0]
    *zs, tau = zip(*map(solver._reader(bits, len(ts)), chain[0]))
    assert [sum(map(bool, z)) for z in zs] == nonzeros and not any(tau)
    assert not any(ts[:-1]) and ts[-1]
    assert solver._sylvester_space(A, D) == vectorized_sylvester_space(A, D)


@pytest.mark.parametrize("A, D, chains", [
    # f(A) != 0: the powers' chain gives f(A), then the kernel vectors' chain.
    (Matrix([[1, 1], [0, 3]]), Matrix([[1, 1], [0, 2]]), 2),
    # CYCLIC4's own f annihilates it and there is no center, so the (x, tau)
    # system is all zero: its kernel is the unit rows, whose chain is the first.
    (CYCLIC4, CYCLIC4, 1),
])
def test_f_of_a_zero_forms_no_second_chain(monkeypatch, A, D, chains):
    formed, eliminated = _counting(monkeypatch, "_chain"), _counting(monkeypatch, "_int_kernel")
    a, d = _ints(A, D)
    assert _rational_krylov_space(a, d) == chained_krylov_space(a, d)
    assert len(formed) == chains and len(eliminated) == chains - 1
    # The first chain runs the identity's rows through A^0, ..., A^m.
    packed, _, length = formed[0]
    assert length == D.rows + 1 and packed == [packed[1] ** j for j in range(A.rows)]


SMALL_POWERS = st.builds(lambda t, sign: sign << t, st.integers(0, 3), st.sampled_from([1, -1]))


@st.composite
def branch_cases(draw):
    """(a, d, center) as integer rows: D is the companion matrix of prod (t - r)
    over drawn roots r (e_0^T is cyclic for it), conjugated by a unimodular
    matrix on some draws.  A is zero, a constant matrix c J or a scalar c I
    for a power of two c of either sign, or conjugate to a diagonal matrix
    of roots (so f(A) = 0) or to a triangular one of drawn eigenvalues.  The
    zero, constant and scalar A have their eigenvalues among the roots on
    some draws, f(A) = 0 again.  center is None or integer vectors."""
    s, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["zero", "constant", "scalar", "annihilated", "drawn"]))
    roots = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    c = draw(SMALL_POWERS)
    if kind in ("zero", "constant", "scalar"):
        A = {"zero": Matrix.zeros(s, s), "constant": Matrix([[c] * s] * s, cols=s),
             "scalar": c * Matrix.identity(s)}[kind]
        eig = {"zero": [0], "constant": [0, s * c] if s > 1 else [c], "scalar": [c]}[kind]
        if len(eig) <= m and draw(st.booleans()):
            roots[:len(eig)] = eig
    elif kind == "annihilated":
        eig = draw(st.lists(st.sampled_from(roots), min_size=s, max_size=s))
        A = _draw_conjugate(draw, Matrix([[eig[i] if i == j else 0 for j in range(s)]
                                          for i in range(s)], cols=s))
    else:
        eig = draw(st.lists(st.integers(-3, 3), min_size=s, max_size=s))
        A = _draw_conjugate(draw, _draw_triangular(draw, eig))
    D = _companion(roots)
    if draw(st.booleans()):
        D = _draw_conjugate(draw, D)
    center = None
    if draw(st.booleans()):
        center = tuple(draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
                       for k in (s, m, m, s))
    return (*_ints(A, D), center)


@settings(max_examples=200, deadline=None)
@given(branch_cases())
@example(([[1, 1], [0, 3]], [[1, 1], [0, 2]], None))
@example((*_ints(CYCLIC4, CYCLIC4), None))
@example(([[0]], [[0]], None))
@example(([[0]], [[1]], None))
# s = 0: X is m x 0, and only tau's row remains.
@example(([], [[1, 2], [3, 4]], None))
def test_krylov_space_matches_the_chained_oracle_on_both_branches(case):
    """Without a center and with f(A) = 0 the basis comes from the unit rows
    with no elimination; otherwise from the kernel of the (x, tau) system."""
    a, d, center = case
    eliminated = []
    int_kernel = solver._int_kernel

    def recorded(*args):
        eliminated.append(args)
        return int_kernel(*args)
    with patch.object(solver, "_int_kernel", recorded):
        found = _rational_krylov_space(a, d, center)
    assert found == chained_krylov_space(a, d, center)
    if found is not None:
        f_of_a = power_combination(characteristic_coefficients(d), dense_powers(a, len(d)))
        unit_rows = center is None and not any(map(any, f_of_a))
        event("unit rows" if unit_rows else "kernel chain")
        assert (eliminated == []) == unit_rows


def _recheck_args(A, D, center=None):
    """The arguments with which _sylvester_space(A, D, center) calls _recheck."""
    calls = []
    with patch.object(solver, "_recheck", lambda *args: calls.append(args)):
        solver._sylvester_space(A, D, center)
    return calls[0]


SIGNS = st.sampled_from([1, -1])
# +-1, and magnitudes up to 2^200 of either sign.
CORRUPTIONS = st.one_of(SIGNS,
                        st.builds(lambda v, sign: sign * v, st.integers(2, 2 ** 200), SIGNS))
POWERS = st.builds(lambda t, sign: sign << t, st.integers(0, 200), SIGNS)


@st.composite
def recheck_cases(draw):
    """(a, d, center, rows, den) for _recheck.

    Either the rows the linear stage gives for a sylvester_cases instance, with
    one entry of the first, a middle or the last row (the particular row, tau
    included, when there is one) corrupted, or an entry of two adjacent rows
    corrupted by delta 2^W and -delta, which cancel when digits are W bits
    wide; or constant rows of powers of two against constant a and d, whose
    residuals reach the bound that sizes _recheck's digits.
    """
    if draw(st.booleans()):
        _, A, D, center, _ = draw(sylvester_cases())
        a, d, center, rows, den = _recheck_args(A, D, center)
        rows = [list(row) for row in rows]
        how = draw(st.sampled_from(["none", "one", "adjacent"]))
        if rows and how != "none":
            k = draw(st.sampled_from([0, len(rows) // 2, len(rows) - 1]))
            e = draw(st.integers(0, len(rows[0]) - 1))
            delta = draw(CORRUPTIONS)
            if how == "one" or len(rows) == 1:
                how = "one"
                rows[k][e] += delta
            else:
                k = min(k, len(rows) - 2)
                rows[k][e] += delta << draw(st.integers(1, 260))
                rows[k + 1][e] -= delta
        event(f"stage; {how}; {len(rows)} rows")
        return a, d, center, rows, den
    s, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = st.sampled_from([0, 1, -1, 2, -2, 4, -4])
    a = [[draw(entries)] * s for _ in range(s)]
    d = [[draw(entries)] * m for _ in range(m)]
    consts = draw(st.lists(st.one_of(st.sampled_from([0, 1, -1]), POWERS),
                           min_size=1, max_size=4))
    rows = [[c] * (m * s) + [draw(st.sampled_from([0, c]))] for c in consts]
    event("constant rows")
    return a, d, None, rows, draw(st.integers(1, 5))


def _outcome(recheck, a, d, center, rows, den):
    try:
        recheck(a, d, center, rows, den)
    except PreconditionError as err:
        return str(err), err.payload
    return None


@settings(max_examples=300, deadline=None)
@given(recheck_cases())
# XA - DX = X: row 0 has residual 2^100 and row 1 -1, which cancel in digits of
# 100 bits; and row 0 alone fails, with the lowest set bit of its residual at 100.
@example(([[1]], [[0]], None, [[2 ** 100, 0], [-1, 0]], 1))
@example(([[1]], [[0]], None, [[2 ** 100, 0], [0, 0]], 1))
def test_packed_recheck_matches_the_per_row_oracle(case):
    a, d, center, rows, den = case
    expected = _outcome(per_row_recheck, a, d, center, rows, den)
    event("raises" if expected else "passes")
    assert _outcome(solver._recheck, a, d, center, rows, den) == expected


# Small, or up to 2^200 of either sign.
CHAIN_ENTRIES = st.one_of(st.integers(-9, 9), st.integers(-2 ** 200, 2 ** 200))


@st.composite
def chain_row_cases(draw):
    """(inv, a, vecs, prev_r) for _kernel_rows: an m x m inv, the rows of an
    s x s A, and d <= s + 1 vectors (z, t).  Either every entry is drawn, or
    inv, A and z are each constant up to the sign of each z: at s = 1 with
    A = 1, and at m = 1, every entry of every row is then plus or minus the
    bound that sizes the digits."""
    s, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    d = draw(st.integers(1, s + 1))
    prev_r, ts = draw(CHAIN_ENTRIES), draw(st.lists(CHAIN_ENTRIES, min_size=d, max_size=d))
    if draw(st.booleans()):
        def ints(rows, cols):
            return [[draw(CHAIN_ENTRIES) for _ in range(cols)] for _ in range(rows)]
        inv, a, zs = ints(m, m), ints(s, s), ints(d, s)
        event("drawn entries")
    else:
        c_inv, c_a, c_z = (draw(st.one_of(CORRUPTIONS, st.just(0))) for _ in range(3))
        inv, a = [[c_inv] * m] * m, [[c_a] * s] * s
        zs = [[draw(SIGNS) * c_z] * s for _ in range(d)]
        event("constant entries")
    return inv, a, [z + [t] for z, t in zip(zs, ts)], prev_r


@settings(max_examples=300, deadline=None)
@given(chain_row_cases())
# The bound is 1 and reached; z = 0, so the bound is 0; and a digit of -1 under a
# digit of +1, which a borrow would merge; and the bound 2 reached at m = 2.
@example(([[1]], [[1]], [[1, 0]], 1))
@example(([[1]], [[1]], [[0, 5]], -2))
@example(([[1]], [[1]], [[-1, 0], [1, 3]], 1))
@example(([[1, 1], [-1, -1]], [[1]], [[1, 0]], 1))
def test_packed_chain_rows_match_the_per_vector_loop(case):
    """The kernel vectors' one packed chain through A gives each vector's row
    of its own chain through the dense table of the powers of A."""
    assert solver._kernel_rows(*case) == per_vector_chain_rows(*case)


@st.composite
def power_chain_cases(draw):
    """(a, m, coeffs, x_c): the rows of an s x s A, m, rows of m + 1
    coefficients and an integer vector of length s.  A is drawn, zero, or a
    constant matrix c J or scalar c I for a power of two c of either sign;
    the coefficients are drawn, or constant up to the sign of each row."""
    s, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["drawn", "zero", "constant", "scalar"]))
    c = draw(POWERS)
    a = {"drawn": lambda: [[draw(CHAIN_ENTRIES) for _ in range(s)] for _ in range(s)],
         "zero": lambda: [[0] * s for _ in range(s)],
         "constant": lambda: [[c] * s for _ in range(s)],
         "scalar": lambda: [[c * (j == k) for k in range(s)] for j in range(s)]}[kind]()
    rows = draw(st.integers(1, 4))
    if draw(st.booleans()):
        coeffs = [[draw(CHAIN_ENTRIES) for _ in range(m + 1)] for _ in range(rows)]
    else:
        value = draw(st.one_of(POWERS, st.just(0)))
        coeffs = [[draw(SIGNS) * value] * (m + 1) for _ in range(rows)]
    event(f"{kind} A")
    return a, m, coeffs, [draw(CHAIN_ENTRIES) for _ in range(s)]


def _power_reads(a, m, coeffs, x_c):
    """What _krylov_space reads from the packed powers P_0, ..., P_m of A at
    the width it gives them: sum_k v_k A^k for each row v of coeffs, column by
    column, the vectors A^k x_c for k < m, and the unit rows' basis rows for
    inv = the first m entries of each row of coeffs (tau's row last, t = 1)."""
    s = len(a)
    bits = max(solver._width(a, coeffs),
               solver._width(a, [[0] * k + [1] for k in range(m)], max(map(abs, x_c))))
    powers = solver._chain([1 << (bits * j) for j in range(s)], a, m + 1)
    read = solver._reader(bits, s)
    return ([[read(sum(map(mul, v, col))) for col in zip(*powers)] for v in coeffs],
            [read(sum(map(mul, p, x_c))) for p in powers[:m]],
            solver._chain_basis([v[:m] for v in coeffs], powers[:m], bits, [0] * s + [1]))


@settings(max_examples=300, deadline=None)
@given(power_chain_cases())
# 1 + 2 + 4 + 8 = 2^4 - 1 and -1 - 2 - 4 - 8: digits of 5 bits at their edge.
@example(([[2]], 3, [[1, 1, 1, 1]], [1]))
@example(([[-2]], 3, [[-1, 1, -1, 1]], [-1]))
@example(([[2, 0], [0, 2]], 3, [[1, 1, 1, 1], [-1, -1, -1, -1]], [1, -1]))
# A = 0: only A^0 = I is nonzero; s = 1 and m = 1.
@example(([[0, 0], [0, 0]], 2, [[5, 7, 9]], [3, -3]))
@example(([[-7]], 1, [[3, -4]], [-2]))
def test_packed_powers_read_back_the_dense_table(case):
    a, m, coeffs, x_c = case
    s, table = len(a), dense_powers(a, m)
    unit_vecs = [[int(j == k) for k in range(s + 1)] for j in range(s + 1)]
    assert _power_reads(a, m, coeffs, x_c) == (
        [[list(col) for col in zip(*power_combination(v, table))] for v in coeffs],
        [[sum(map(mul, row, x_c)) for row in power] for power in table[:m]],
        per_vector_chain_rows([v[:m] for v in coeffs], a, unit_vecs, 1))


@pytest.mark.parametrize("a, coeffs, edge", [
    ([[2]], [1, 1, 1, 1], 15),
    ([[-2]], [-1, 1, -1, 1], -15),
    ([[2, 0], [0, 2]], [1, 1, 1], 7),
    ([[-2, 0, 0], [0, -2, 0], [0, 0, -2]], [-1, 1, -1, 1, -1], -31),
])
def test_a_digit_at_the_edge_of_its_width_reads_back(a, coeffs, edge):
    """sum_k coeffs[k] A^k of a scalar power of two reaches the bound ||A||^k
    gives it, and that bound is 2^(bits-1) - 1: a width one bit narrower would
    misread it."""
    bits = solver._width(a, [coeffs])
    assert abs(edge) == 2 ** (bits - 1) - 1
    m = len(coeffs) - 1
    (f_of_a,), _, _ = _power_reads(a, m, [coeffs], [0] * len(a))
    assert f_of_a == [[edge * (j == q) for j in range(len(a))] for q in range(len(a))]


def test_linear_stage_matches_the_oracle_in_both_parities(monkeypatch):
    spaces = []
    sylvester_space = solver._sylvester_space

    def recorded(*args):
        spaces.append(sylvester_space(*args))
        return spaces[-1]
    monkeypatch.setattr(solver, "_sylvester_space", recorded)
    for M, parity, s in ((linear_toeplitz(Fraction(3), 4), "even", 2),
                         (Matrix([[2, 1, 1], [1, 5, 1], [1, 1, 2]]), "odd", 1),
                         (Matrix([[1, 0, 2], [3, 7, 4], [5, 1, 1]]), "odd", 1)):
        bp = split_blocks(M, parity, s)
        center = (bp.x, bp.w, bp.z, bp.y) if parity == "odd" else None
        find_intertwiner(M, parity, s)
        assert spaces.pop() == vectorized_sylvester_space(bp.A, bp.D, center)


def _counting(monkeypatch, name):
    """The argument tuples of every call to solver.<name> from here on."""
    calls = []
    fn = getattr(solver, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(solver, name, counted)
    return calls


def test_scalar_d_takes_the_elimination_fallback(monkeypatch):
    # No unit vector is cyclic for D = 3I, so the integer vectorized rows are
    # eliminated; no Fraction elimination runs.
    A = Matrix([[3, 1], [0, 2]])
    D = 3 * Matrix.identity(2)
    rows, eliminate, solve = (_counting(monkeypatch, name) for name in
                              ("_linear_rows", "_eliminate", "solve_linear"))
    assert solver._krylov_space(*_ints(A, D)) is None
    space = solver._sylvester_space(A, D)
    assert len(rows) == 1 and eliminate == solve == [] and len(space[1]) == 2
    assert space == vectorized_sylvester_space(A, D)


def test_a_cyclic_unit_vector_never_eliminates(monkeypatch):
    calls = _counting(monkeypatch, "_linear_rows")
    # e_1^T is a left eigenvector of D; e_0^T is cyclic for D^T.
    A, D = Matrix([[1, 0], [1, 3]]), Matrix([[1, 1], [0, 2]])
    assert solver._sylvester_space(A, D) == vectorized_sylvester_space(A, D)
    find_intertwiner(linear_toeplitz(Fraction(3), 4), "even", 2)
    assert calls == []


@pytest.mark.parametrize("rows, eliminations", [
    # Last row (m = 1): [R | I] and the (x, tau) system.
    ([[2, 1, 1], [1, 5, 1], [1, 1, 2]], 2),
    # Earlier row: [R | I] fails at e_1^T and passes at e_0^T, then the system and _reduce.
    ([[1, 0, 1, 1, 0], [1, 2, -1, 0, 1], [1, 0, 3, 1, -1], [5, 3, 1, 1, 1], [3, 2, 0, 0, 2]], 4),
    # Fallback (D = 3I): [R | I] fails at both unit rows, then the vectorized rows.
    ([[3, 1, 1, 1, 0], [0, 2, 1, 0, 1], [1, 1, 0, 1, 0], [1, 1, 2, 3, 0], [1, 1, 4, 0, 3]], 3),
])
def test_the_center_adds_no_elimination(monkeypatch, rows, eliminations):
    """With the center, each route runs the eliminations listed: the center's
    conditions are more rows of the one system.  Without it, the same, less
    the system's own when f(A) = 0 leaves it all zero on a Krylov route, as
    on both Krylov cases here (A and D share their eigenvalues)."""
    bp = split_blocks(Matrix(rows), "odd", len(rows) // 2)
    a, d = _ints(bp.A, bp.D)
    f_of_a = power_combination(characteristic_coefficients(d), dense_powers(a, len(d)))
    zero_system = solver._krylov_space(a, d) is not None and not any(map(any, f_of_a))
    calls = _counting(monkeypatch, "_gauss_jordan_int")
    solver._sylvester_space(bp.A, bp.D, (bp.x, bp.w, bp.z, bp.y))
    assert len(calls) == eliminations
    solver._sylvester_space(bp.A, bp.D)
    assert len(calls) == 2 * eliminations - zero_system
    assert zero_system == (eliminations != 3)


def _corrupting(monkeypatch, route, part):
    """Patch the linear stage so that the last entry of X in its first basis row
    (or in its particular row) gains 1 before the re-check sees it: the rows
    _krylov_space gives on the last_row route, those of _reduce on the
    earlier_row route, and those of _int_kernel on the integer_fallback route."""
    name, at = {"last_row": ("_krylov_space", 1), "earlier_row": ("_reduce", 0),
                "integer_fallback": ("_int_kernel", 0)}[route]
    stage = getattr(solver, name)

    def corrupted(*args):
        found = stage(*args)
        rows = found[at]
        row = rows[-1] if part == "particular" else rows[0]
        assert bool(row[-1]) == (part == "particular")
        row[-2] += 1
        return found
    monkeypatch.setattr(solver, name, corrupted)


@pytest.mark.parametrize("name, part, rows, odd", [
    # D = [[1, 1], [0, 2]]: e_0^T is cyclic for D^T, e_1^T is not.
    ("earlier_row", "basis", [[1, 0, 1, 0], [1, 2, 0, 1], [0, 1, 1, 1], [1, 0, 0, 2]], False),
    ("integer_fallback", "basis", [[3, 1, 1, 0], [0, 2, 0, 1], [1, 0, 3, 0], [0, 1, 0, 3]], False),
    ("last_row", "particular", [[2, 1, 1], [1, 5, 1], [1, 1, 2]], True),
    # D = 3I is derogatory; X = [[1, 1], [2, 2]] is the one solution.
    ("integer_fallback", "particular", [[3, 1, 1, 1, 0], [0, 2, 1, 0, 1], [1, 1, 0, 1, 0],
                                        [1, 1, 2, 3, 0], [1, 1, 4, 0, 3]], True),
    ("last_row", "basis", [[3, 2, 1, 0], [4, 3, 2, 1], [5, 4, 3, 2], [6, 5, 4, 3]], False),
    # The first case's D with a center: the line X = [[t + 1, t], [t, t]].
    ("earlier_row", "particular", [[1, 0, 1, 1, 0], [1, 2, -1, 0, 1], [1, 0, 3, 1, -1],
                                   [5, 3, 1, 1, 1], [3, 2, 0, 0, 2]], True),
])
def test_a_corrupted_linear_stage_raises_and_is_never_reported(monkeypatch, tmp_path, capsys,
                                                               name, part, rows, odd):
    """name is the route the linear stage takes (see _space_and_path): the
    Krylov row form on X's last row, the row form on an earlier row and
    _reduce, or the integer fallback."""
    M = Matrix(rows)
    parity, s = ("odd", len(rows) // 2) if odd else ("even", 2)
    bp = split_blocks(M, parity, s)
    center = (bp.x, bp.w, bp.z, bp.y) if odd else None
    assert _space_and_path(bp.A, bp.D, center)[1] == name
    _corrupting(monkeypatch, name, part)
    with pytest.raises(PreconditionError, match="re-check"):
        solver._sylvester_space(bp.A, bp.D, center)
    with pytest.raises(PreconditionError, match="re-check"):
        find_intertwiner(M, parity, s)
    if not odd:
        with pytest.raises(PreconditionError, match="re-check"):
            intertwiner_space(bp.A, bp.D)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": rows}))
    code = main(["solve", str(path)] + (["--odd"] if odd else []))
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and err.startswith("error:") and err.count("\n") == 1


@st.composite
def special_candidate_cases(draw):
    """(M, parity, s, plant): blocks of s = 1..4 in either parity and mode, with
    the candidate named by plant ("J", "I", "-J" or None) made to solve.

    Centrosymmetric blocks (JA = DJ, C = JBJ) make J and -J solve the even
    split; A = D and C = B make I solve; odd parity adds the center: w = Jx and
    y = zJ for J, w = x and y = z for I, w = -Jx and y = -zJ for -J only.
    """
    mode = draw(st.sampled_from([EXACT, APPROX]))
    parity = draw(st.sampled_from(["even", "odd"]))
    s = draw(st.integers(1, 4))
    plant = draw(st.sampled_from([None, "J", "I", "-J"]))
    if mode == EXACT:
        scalars = st.fractions(-5, 5, max_denominator=3)
    else:
        # Small integers make exact zeros in the residuals, -0.0 their signs.
        scalars = (st.integers(-3, 3).map(float) | st.sampled_from([0.0, -0.0])
                   | st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))

    def blk(rows, cols):
        return Matrix([[draw(scalars) for _ in range(cols)] for _ in range(rows)],
                      mode=mode, cols=cols)

    every, one = range(s), range(1)
    rev = every[::-1]
    A, B, C, D = (blk(s, s) for _ in range(4))
    if plant in ("J", "-J"):
        C, D = B.take(rev, rev), A.take(rev, rev)
    elif plant == "I":
        C, D = B, A
    if parity == "even":
        bp = BlockPartition("even", s, A, B, C, D)
    else:
        x, w, y, z = blk(s, 1), blk(s, 1), blk(1, s), blk(1, s)
        if plant == "J":
            w, y = x.take(rev, one), z.take(one, rev)
        elif plant == "I":
            w, y = x, z
        elif plant == "-J":
            w, y = -x.take(rev, one), -z.take(one, rev)
        bp = BlockPartition("odd", s, A, B, C, D, x, w, y, z, draw(scalars))
    return assemble_blocks(bp), parity, s, plant


def _abs_entries(R):
    return [[abs(v) for v in row] for row in R.to_lists()]


@settings(max_examples=300, deadline=None)
@given(special_candidate_cases())
def test_screen_residuals_equal_the_products(case):
    M, parity, s, plant = case
    event(f"{M.mode} {parity} plant={plant}")
    bp = split_blocks(M, parity, s)
    J = exchange_matrix(s, M.mode)
    candidates = {"J": J, "I": Matrix.identity(s, M.mode), "-J": -J}
    F = _field(M.mode)
    for (name, X), pairs in zip(candidates.items(), solver._special_pairs(bp)):
        syl, quad, extras, ok = solver.system_residuals(bp, X)
        products = (syl, quad) + extras
        screen = tuple(L - R for L, R in pairs)
        if M.mode == EXACT:
            assert screen == products
        else:
            # Equal up to the sign of zero.
            assert list(map(_abs_entries, screen)) == list(map(_abs_entries, products))
            assert solver._residual_norm(screen) == solver._residual_norm(products)
        # Exact mode compares the pairs and forms no difference.
        assert F.screen(pairs) == (ok, None if M.mode == EXACT else screen)
        if name == plant:
            assert ok


def _counting_system_residuals(monkeypatch):
    """Patch solver.system_residuals to record the X of every call."""
    calls = []
    system_residuals = solver.system_residuals

    def counted(bp, X, tol=None):
        calls.append(X)
        return system_residuals(bp, X, tol)
    monkeypatch.setattr(solver, "system_residuals", counted)
    return calls


def test_missed_special_candidates_form_no_product(monkeypatch):
    M, parity, s, X = planted_transform_instance(random.Random(31), 12)
    J = exchange_matrix(s)
    assert X not in (J, Matrix.identity(s), -J)
    calls = _counting_system_residuals(monkeypatch)
    search = find_intertwiner(M, parity, s)
    # The Sylvester space has dimension >= s > d_max, so only the three
    # special candidates are tried.
    assert len(search) == 0 and search.diagnostic.startswith("search exhausted")
    assert calls == []


@pytest.mark.parametrize("mode, differences", [(EXACT, 0), (APPROX, 6)])
def test_an_exact_screen_subtracts_nothing(monkeypatch, tmp_path, capsys, mode, differences):
    # J, I and -J all fail on the planted n = 12 golden case, whose Sylvester
    # space (dimension 6) exceeds d_max: the screen is the whole search.
    # Approximate mode forms the screen's six differences, for the residual norm.
    path = tmp_path / "m.json"
    path.write_text(json.dumps(PLANTED12))
    subtractions = []
    sub = Matrix.__sub__

    def counted(self, other):
        subtractions.append(self.shape)
        return sub(self, other)
    monkeypatch.setattr(Matrix, "__sub__", counted)
    calls = _counting_system_residuals(monkeypatch)
    code = main(["solve", str(path), "--mode", mode])
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and report["solutions"] == [] and len(report["sylvester_basis"]) == 6
    assert len(subtractions) == differences and calls == []


def test_exact_planted_solve_negates_no_matrix(monkeypatch, tmp_path, capsys):
    # -J is built only once its screen passes, and on the planted n = 12 golden
    # case no special candidate passes.
    path = tmp_path / "m.json"
    path.write_text(json.dumps(PLANTED12))
    negations = []
    neg = Matrix.__neg__

    def counted(self):
        negations.append(self.shape)
        return neg(self)
    monkeypatch.setattr(Matrix, "__neg__", counted)
    assert main(["solve", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["solutions"] == []
    assert negations == []


@pytest.mark.parametrize("n", [4, 6, 5, 7])
def test_each_special_hit_is_multiplied_out_once(monkeypatch, n):
    M = rand_centrosymmetric(random.Random(n), n)
    parity, s = ("odd" if n % 2 else "even"), n // 2
    calls = _counting_system_residuals(monkeypatch)
    # d_max = 0 stops the ladder after the special candidates, as J is in the
    # Sylvester space.
    search = find_intertwiner(M, parity, s, SearchOptions(d_max=0))
    J = exchange_matrix(s)
    assert search[0].X == J
    assert calls == [sol.X for sol in search]


@pytest.mark.parametrize("mode", [EXACT, APPROX])
def test_a_false_pass_of_the_screen_is_rejected_by_the_products(monkeypatch, mode):
    M, parity, s, _ = planted_transform_instance(random.Random(32), 6)
    M = Matrix(M.to_lists(), mode=mode)
    honest = find_intertwiner(M, parity, s)
    special_pairs = solver._special_pairs

    def lying(bp):
        exchange, identity, negated = special_pairs(bp)
        return tuple((L, L) for L, _ in exchange), identity, negated
    monkeypatch.setattr(solver, "_special_pairs", lying)
    calls = _counting_system_residuals(monkeypatch)
    search = find_intertwiner(M, parity, s)
    J = exchange_matrix(s, mode)
    assert calls[0] == J
    assert all(sol.X != J for sol in search)
    assert search == honest


@st.composite
def kernel_cases(draw, parity=None):
    """(bp, X, Y, plant): a split in either mode, blocks with mixed denominators
    and zero entries, X of its shape (n-s) x s and Y of shape s x (n-s), both
    rectangular when s != n-s, and whether to plant a solution."""
    mode = draw(st.sampled_from([EXACT, APPROX]))
    parity = parity or draw(st.sampled_from(["even", "odd"]))
    if mode == EXACT:
        scalars = st.just(Fraction(0)) | st.fractions(-6, 6, max_denominator=12)
    else:
        scalars = (st.integers(-3, 3).map(float) | st.sampled_from([0.0, -0.0])
                   | st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    s = draw(st.integers(1, 3))
    m = s if parity == "odd" else draw(st.integers(1, 4))

    def blk(rows, cols):
        return Matrix([[draw(scalars) for _ in range(cols)] for _ in range(rows)],
                      mode=mode, cols=cols)

    blocks = [blk(s, s), blk(s, m), blk(m, s), blk(m, m)]
    if parity == "odd":
        blocks += [blk(s, 1), blk(m, 1), blk(1, s), blk(1, m), draw(scalars)]
    return BlockPartition(parity, s, *blocks), blk(m, s), blk(s, m), draw(st.booleans())


def _bits(value):
    """Matrices, and tuples of them, with every entry by repr: a float's sign of
    zero and last bit count."""
    if isinstance(value, Matrix):
        return value.mode, value.shape, [[repr(v) for v in row] for row in value.to_lists()]
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    return value


def _with_blocks(bp, **blocks):
    """bp with the given blocks replaced, as a new partition."""
    fields = dict(parity=bp.parity, s=bp.s, A=bp.A, B=bp.B, C=bp.C, D=bp.D,
                  x=bp.x, w=bp.w, y=bp.y, z=bp.z, mu=bp.mu)
    return BlockPartition(**{**fields, **blocks})


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_system_residuals_match_the_product_oracle(case):
    bp, X, _, plant = case
    if plant:
        # C = XBX, w = Xx and y = zX, and D = X A X^-1 when X is invertible.
        planted = {"C": X * bp.B * X}
        inv = gauss_facts(X).inverse if X.is_square else None
        if inv is not None:
            planted["D"] = X * bp.A * inv
        if bp.parity == "odd":
            planted.update(w=X * bp.x, y=bp.z * X)
        bp = _with_blocks(bp, **planted)
    got = solver.system_residuals(bp, X)
    assert _bits(got) == _bits(product_system_residuals(bp, X))
    event(f"{bp.A.mode} {bp.parity} ok={got[3]}")


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(2, 5), st.sampled_from([EXACT, APPROX]), st.integers(0, 3),
       st.sampled_from([None, 1]), st.booleans())
def test_a_search_that_finds_nothing_says_why(data, n, mode, d_max, max_solutions, stop):
    parity = data.draw(st.sampled_from(["even", "odd"] if n % 2 else ["even"]))
    s = n // 2 if parity == "odd" else data.draw(st.integers(1, n - 1))
    rows = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                              min_size=n, max_size=n))
    if n - s == s + (parity == "odd") and data.draw(st.booleans()):
        # D = A, so that X = I and the rest of A's commutant solve XA = DX.
        for i in range(s):
            rows[n - s + i][n - s:] = rows[i][:s]
    M = Matrix(rows if mode == EXACT else [[float(v) for v in r] for r in rows], mode=mode)
    search = find_intertwiner(M, parity, s, SearchOptions(d_max=d_max, max_solutions=max_solutions),
                              stop_at_invertible=stop)
    assert search.solutions or search.diagnostic is not None
    event("found" if search.solutions else search.diagnostic.split(":")[0])


@pytest.mark.parametrize("parity, s", [("even", 2), ("odd", 2)])
def test_an_exact_operand_among_approximate_ones_raises_mode_error(parity, s):
    # The approximate kernel multiplies through Matrix.__mul__, whose mode
    # check must see every factor, wherever it sits in a chain.
    n = 2 * s + (parity == "odd")
    bp = split_blocks(Matrix([[float((3 * i + 5 * j) % 7) for j in range(n)]
                              for i in range(n)]), parity, s)
    X = Matrix.identity(s)
    F = _field(APPROX)
    with pytest.raises(ModeError):
        solver.system_residuals(bp, X)
    for chain in ((X, bp.A), (bp.A, X), (bp.A, bp.B, X)):
        with pytest.raises(ModeError):
            F.product(*chain)
    with pytest.raises(ModeError):
        F.equal((bp.C,), (bp.A, X))
    with pytest.raises(ModeError):
        F.equal((X, bp.A), (bp.D, bp.A))
    with pytest.raises(ModeError):
        X * bp.A
    with pytest.raises(ModeError):
        bp.A * X


@settings(max_examples=200, deadline=None)
@given(kernel_cases(parity="even"), st.sampled_from(["lower", "upper"]))
def test_riccati_residual_matches_the_product_oracle(case, orientation):
    bp, X, Y, plant = case
    W = X if orientation == "lower" else Y
    if plant:
        bp = (_with_blocks(bp, C=W * bp.A - bp.D * W + W * bp.B * W)
              if orientation == "lower" else
              _with_blocks(bp, B=W * bp.D - bp.A * W + W * bp.C * W))
    M = assemble_blocks(bp)
    witness = riccati_residual(M, bp.s, W, orientation)
    want = product_riccati_residual(split_blocks(M, "even", bp.s), W, orientation)
    assert _bits(witness.residual) == _bits(want)
    assert witness.is_exact() == want.is_zero()
    event(f"{M.mode} exact={witness.is_exact()}")


@settings(max_examples=300, deadline=None)
@given(kernel_cases(parity="even"), st.integers(1, 4))
def test_singular_certificate_matches_the_product_oracle(case, system):
    bp, X, Y, plant = case
    W = X if system < 3 else Y
    assume(not W.is_zero())
    if plant:
        A, B, C, D = bp.A, bp.B, bp.C, bp.D
        planted = {1: lambda: {"C": W * A, "D": W * B},
                   2: lambda: {"A": -(B * W), "C": -(D * W)},
                   3: lambda: {"A": W * C, "B": W * D},
                   4: lambda: {"B": -(A * W), "D": -(C * W)}}[system]()
        bp = _with_blocks(bp, **planted)
    M = assemble_blocks(bp)
    holds = singular_certificate(M, bp.s, W, system)
    assert holds == product_singular_certificate(split_blocks(M, "even", bp.s), W, system)
    event(f"{M.mode} system {system} holds={holds}")


def _one_entry_changes(W, delta=Fraction(1, 7)):
    """W with delta added at each entry in turn."""
    for i in range(W.rows):
        for j in range(W.cols):
            rows = W.to_lists()
            rows[i][j] += delta
            yield Matrix(rows, cols=W.cols)


def _solved_splits():
    """(M, parity, s, X) with X solving the split, X square, wide and tall, with
    denominators in M or X."""
    toeplitz = linear_toeplitz(Fraction(11, 3), 6)
    yield toeplitz, "even", 3, find_intertwiner(toeplitz, "even", 3)[0].X
    for n in (4, 5, 7):
        yield planted_transform_instance(random.Random(n), n)
    for instance, s in ((wide_instance, 3), (tall_instance, 2)):
        M, X = instance(random.Random(s), 5, s)
        yield M, "even", s, X


@pytest.mark.parametrize("case", range(6))
def test_every_one_entry_change_of_x_fails_the_split_check(case):
    M, parity, s, X = list(_solved_splits())[case]
    bp = split_blocks(M, parity, s)
    assert solver.system_residuals(bp, X)[3]
    assert not any(solver.system_residuals(bp, Xe)[3] for Xe in _one_entry_changes(X))


def _rational_matrix(rng, rows, cols):
    return Matrix([[Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5)))
                    for _ in range(cols)] for _ in range(rows)], cols=cols)


@pytest.mark.parametrize("seed", range(4))
def test_every_one_entry_change_of_a_witness_fails_its_check(seed):
    rng = random.Random(seed)
    s, m = rng.randint(1, 3), rng.randint(1, 3)
    A, B, D = (_rational_matrix(rng, *shape) for shape in ((s, s), (s, m), (m, m)))
    X, Y = _rational_matrix(rng, m, s), _rational_matrix(rng, s, m)
    M = block([[A, B], [X * A - D * X + X * B * X, D]])
    assert riccati_residual(M, s, X, "lower").is_exact()
    assert not any(riccati_residual(M, s, Xe, "lower").is_exact() for Xe in _one_entry_changes(X))
    C = _rational_matrix(rng, m, s)
    M = block([[A, Y * D - A * Y + Y * C * Y], [C, D]])
    assert riccati_residual(M, s, Y, "upper").is_exact()
    assert not any(riccati_residual(M, s, Ye, "upper").is_exact() for Ye in _one_entry_changes(Y))
    # The four singular systems, each planted as in the acceptance suite.
    for system, W, M in ((1, X, block([[A, B], [X * A, X * B]])),
                         (2, X, block([[-(B * X), B], [-(D * X), D]])),
                         (3, Y, block([[Y * C, Y * D], [C, D]])),
                         (4, Y, block([[A, -(A * Y)], [C, -(C * Y)]]))):
        assert singular_certificate(M, s, W, system)
        assert not any(singular_certificate(M, s, We, system) for We in _one_entry_changes(W))
