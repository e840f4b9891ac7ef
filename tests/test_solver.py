import json
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from centrosim import (APPROX, EXACT, Matrix, PreconditionError, SearchOptions, block,
                       block_diag, default_grid_values, exchange_matrix, find_intertwiner,
                       gauss_facts, hstack, intertwiner_space, linear_toeplitz,
                       riccati_residual, singular_certificate, solve_linear, solver,
                       split_blocks)
from centrosim.cli import main
from oracles import (exhaustive_grid_hits, kron, rand_centrosymmetric, rand_int_matrix,
                     vectorized_sylvester_space)

SMALL_GRID = tuple(Fraction(v) for v in
                   ("-2", "-1", "-1/2", "0", "1/2", "1", "2"))


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
        search = find_intertwiner(M, "even", n // 2,
                                  SearchOptions(grid_values=SMALL_GRID))
        J = exchange_matrix(n // 2)
        assert any(sol.X == J and sol.invertible for sol in search)


def test_find_intertwiner_odd_centrosymmetric_contains_exchange():
    rng = random.Random(10)
    for n in (3, 5):
        M = rand_centrosymmetric(rng, n)
        s = (n - 1) // 2
        search = find_intertwiner(M, "odd", s, SearchOptions(grid_values=SMALL_GRID))
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
        for sol in find_intertwiner(M, "even", s, SearchOptions(grid_values=SMALL_GRID)):
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
    opts = SearchOptions(grid_values=SMALL_GRID, max_solutions=1)
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
    opts = SearchOptions(grid_values=SMALL_GRID, max_solutions=1)
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
    with pytest.raises(ValueError, match=field):
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


def _grid_hits(grid_search, M, s, opts, cap=None):
    """Every X the grid search passes to consider, stopping after cap of them."""
    bp = split_blocks(M, "even", s)
    particular, basis = solver._linear_stage(bp, opts.tol)
    return _affine_grid_hits(grid_search, bp, particular, basis, opts, cap)


def _affine_grid_hits(grid_search, bp, X0, basis, opts, cap=None):
    """_grid_hits over X = X0 + sum t_i N_i for any X0 and N_i."""
    hits = []
    grid_search(bp, X0, basis, opts, bp.C.mode, opts.tol, hits.append,
                lambda: cap is not None and len(hits) >= cap)
    return hits


def _diag(v):
    return Matrix([[v[i] if i == j else 0 for j in range(len(v))] for i in range(len(v))],
                  cols=len(v))


GRID_POOL = tuple(Fraction(v) for v in ("-3", "-2", "-1", "-1/2", "0", "1/3", "1/2", "1", "2", "3"))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from([EXACT, APPROX]),
       st.sampled_from([None, 1]), st.booleans(), st.data())
def test_grid_search_matches_exhaustive_oracle(d, mode, max_solutions, default_grid, data):
    # A and D share d distinct eigenvalues, so the Sylvester space has
    # dimension d; C = X* B X* plants X* = P diag(x) S^-1 on or off the grid.
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
    grid = None
    if not (default_grid and d == 2):
        grid = tuple(data.draw(st.lists(st.sampled_from(GRID_POOL), min_size=1, max_size=7,
                                        unique=True)))
    opts = SearchOptions(grid_values=grid, max_solutions=max_solutions)
    assert len(intertwiner_space(A, D)) == d
    expected = _search_with(exhaustive_grid_hits, M, d, opts)
    assert find_intertwiner(M, "even", d, opts) == expected
    cap = data.draw(st.sampled_from([None, 1, 2]))
    assert (_grid_hits(solver._grid_search, M, d, opts, cap)
            == _grid_hits(exhaustive_grid_hits, M, d, opts, cap))


WIDE_POOL = GRID_POOL + tuple(Fraction(v) for v in
                              ("1/7", "-1/7", "3/10", "-3/10", "1000000", "-1000000", "3000000/7"))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_exact_grid_matches_exhaustive_oracle_on_wide_grids(d, data):
    # The grid needs no Sylvester structure: X = X0 + sum t_i N_i over arbitrary
    # X0 and N_i, with C = X* B X* planted at a grid point X*.  The grid repeats
    # values and mixes denominators 7 and 10 with numerators up to 3*10^6; B, X0
    # and the N_i have entries with large denominators.
    def rational():
        return Fraction(data.draw(st.integers(-3, 3)),
                        data.draw(st.sampled_from((1, 7, 997, 10**6 + 3))))

    def mat():
        return Matrix([[rational() for _ in range(2)] for _ in range(2)], cols=2)

    X0 = mat()
    basis = tuple(mat() for _ in range(d))
    B = mat()
    grid = data.draw(st.lists(st.sampled_from(WIDE_POOL), min_size=1, max_size=8))
    grid += data.draw(st.lists(st.sampled_from(grid), min_size=1, max_size=3))
    X = X0
    for N in basis:
        X = X + data.draw(st.sampled_from(grid)) * N
    bp = split_blocks(block([[Matrix.identity(2), B], [X * B * X, Matrix.identity(2)]]),
                      "even", 2)
    opts = SearchOptions(grid_values=tuple(grid))
    cap = data.draw(st.sampled_from([None, 1, 2]))
    hits = _affine_grid_hits(solver._grid_search, bp, X0, basis, opts, cap)
    assert hits == _affine_grid_hits(exhaustive_grid_hits, bp, X0, basis, opts, cap)
    assert cap is not None or X in hits


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
    hits = _grid_hits(solver._grid_search, M, 2, opts)
    assert [(X[0, 0], X[1, 1]) for X in hits] == grid_hits
    assert hits == _grid_hits(exhaustive_grid_hits, M, 2, opts)
    assert find_intertwiner(M, "even", 2, opts) == _search_with(exhaustive_grid_hits, M, 2, opts)


def _ints(A, D):
    scale = solver._lcm_denominators(A, D)
    return solver._int_rows(A, scale), solver._int_rows(D, scale)


def _cyclic_units(D):
    """The i for which e_i is a cyclic vector of D: its Krylov matrix has full rank."""
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
    """(kind, A, D, center, cyclic): cyclic says whether a unit vector is cyclic for D
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
        # e_0 is an eigenvector of D, so not cyclic; some later e_i is.
        m = draw(st.integers(2, 4))
        lam = draw(st.integers(-2, 2))
        D = Matrix([[lam if i == j == 0 else 0 if j == 0 else draw(st.integers(-3, 3))
                     for j in range(m)] for i in range(m)], cols=m)
        units = _cyclic_units(D)
        assume(units and units[0] > 0)
        A = _draw_conjugate(draw, _draw_triangular(
            draw, [lam] + draw(st.lists(st.integers(-3, 3), min_size=s - 1, max_size=s - 1))))
        cyclic = True
    center = None
    if draw(st.booleans()):
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
        center = (x, w, z, y)
    return kind, A, D, center, cyclic


@settings(max_examples=250, deadline=None)
@given(sylvester_cases())
def test_sylvester_space_matches_the_vectorized_oracle(case):
    kind, A, D, center, cyclic = case
    expected = vectorized_sylvester_space(A, D, center)
    particular, basis = expected
    if kind == "shared" and center is None:
        assert basis
    krylov = solver._krylov_space(*_ints(A, D), center)
    event(f"{kind}; {'fallback' if krylov is None else 'krylov'}; "
          f"{'no center' if center is None else 'inconsistent' if particular is None else 'consistent'}"
          f"{'' if particular is None or particular.is_zero() else ' nonzero'}"
          f"; dimension {'0' if not basis else '>0'}")
    if cyclic is not None:
        assert (krylov is not None) == cyclic
    if krylov is not None:
        assert krylov == expected
    assert solver._sylvester_space(A, D, center) == expected
    if center is None:
        assert intertwiner_space(A, D) == basis
        assert particular == Matrix.zeros(D.rows, A.rows)


def test_krylov_particular_is_zero_at_the_free_columns():
    # X is 1 x 3 and free but for X[0, 0] + X[0, 1] = 5: free columns 1 and 2.
    A, D = 2 * Matrix.identity(3), Matrix([[2]])
    center = (Matrix([[1], [1], [0]]), Matrix([[5]]), Matrix([[0]]), Matrix([[0, 0, 0]]))
    space = solver._krylov_space(*_ints(A, D), center)
    assert space == vectorized_sylvester_space(A, D, center)
    assert space[0] == Matrix([[5, 0, 0]])
    assert space[1] == (Matrix([[-1, 1, 0]]), Matrix([[0, 0, 1]]))


def test_linear_stage_matches_the_oracle_in_both_parities():
    for M, parity, s in ((linear_toeplitz(Fraction(3), 4), "even", 2),
                         (Matrix([[2, 1, 1], [1, 5, 1], [1, 1, 2]]), "odd", 1),
                         (Matrix([[1, 0, 2], [3, 7, 4], [5, 1, 1]]), "odd", 1)):
        bp = split_blocks(M, parity, s)
        center = (bp.x, bp.w, bp.z, bp.y) if parity == "odd" else None
        assert solver._linear_stage(bp, None) == vectorized_sylvester_space(bp.A, bp.D, center)


def _counting_eliminate(monkeypatch):
    calls = []
    eliminate = solver._eliminate

    def counted(*args):
        calls.append(args)
        return eliminate(*args)
    monkeypatch.setattr(solver, "_eliminate", counted)
    return calls


def test_scalar_d_takes_the_elimination_fallback(monkeypatch):
    A = Matrix([[3, 1], [0, 2]])
    D = 3 * Matrix.identity(2)
    calls = _counting_eliminate(monkeypatch)
    assert solver._krylov_space(*_ints(A, D), None) is None
    space = solver._sylvester_space(A, D)
    assert len(calls) == 1 and len(space[1]) == 2
    assert space == vectorized_sylvester_space(A, D)


def test_a_cyclic_unit_vector_never_eliminates(monkeypatch):
    calls = _counting_eliminate(monkeypatch)
    # e_0 is an eigenvector of D; e_1 is cyclic.
    A, D = Matrix([[1, 0], [1, 3]]), Matrix([[1, 1], [0, 2]])
    assert solver._sylvester_space(A, D) == vectorized_sylvester_space(A, D)
    find_intertwiner(linear_toeplitz(Fraction(3), 4), "even", 2)
    assert calls == []


def _plus_e00(N):
    return N + Matrix([[int(i == j == 0) for j in range(N.cols)] for i in range(N.rows)],
                      cols=N.cols)


def _corrupting(monkeypatch, name, part):
    """Patch solver.name so that its first basis matrix (or its particular
    solution) gains 1 in entry (0, 0)."""
    func = getattr(solver, name)

    def corrupted(*args):
        space = func(*args)
        if space is None:
            return None
        particular, basis = space
        if part == "basis":
            return particular, (_plus_e00(basis[0]),) + basis[1:]
        return _plus_e00(particular), basis
    monkeypatch.setattr(solver, name, corrupted)


@pytest.mark.parametrize("name, part, rows, odd", [
    ("_krylov_space", "basis", [[3, 2, 1, 0], [4, 3, 2, 1], [5, 4, 3, 2], [6, 5, 4, 3]], False),
    ("_eliminate", "basis", [[3, 1, 1, 0], [0, 2, 0, 1], [1, 0, 3, 0], [0, 1, 0, 3]], False),
    ("_krylov_space", "particular", [[2, 1, 1], [1, 5, 1], [1, 1, 2]], True),
])
def test_a_corrupted_linear_stage_raises_and_is_never_reported(monkeypatch, tmp_path, capsys,
                                                               name, part, rows, odd):
    M = Matrix(rows)
    parity, s = ("odd", 1) if odd else ("even", 2)
    bp = split_blocks(M, parity, s)
    _corrupting(monkeypatch, name, part)
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
