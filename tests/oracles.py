"""Independent oracles and instance builders shared by the test modules.

Everything here is deliberately naive (cofactor expansion, explicit Kronecker
products, brute-force construction) so it cannot share a bug with the
elimination-based implementation under test.
"""

import json
import math
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import add, mul

from centrosim import (APPROX, EXACT, Matrix, PreconditionError, RankError, block,
                       exchange_matrix, gauss_facts, hstack, inverse, matrix_to_json_obj,
                       rank_normal_form, solve_linear, vstack)
from centrosim.matrix import _ExactField
from centrosim.solver import _grid_roots


def cofactor_det(M):
    """Determinant by recursive cofactor expansion along the first row."""
    n = M.rows
    if n == 0:
        return Fraction(1)
    if n == 1:
        return M[0, 0]
    total = Fraction(0)
    for j in range(n):
        if M[0, j] == 0:
            continue
        minor = Matrix([[M[i, k] for k in range(n) if k != j] for i in range(1, n)],
                       mode=M.mode, cols=n - 1)
        sign = 1 if j % 2 == 0 else -1
        total += sign * M[0, j] * cofactor_det(minor)
    return total


def fraction_matmul(A, B):
    """Reference product: one Fraction multiply-add per term, left to right."""
    out = []
    for i in range(A.rows):
        out_row = []
        for j in range(B.cols):
            acc = A[i, 0] * B[0, j] if A.cols else Fraction(0)
            for k in range(1, A.cols):
                acc += A[i, k] * B[k, j]
            out_row.append(acc)
        out.append(out_row)
    return Matrix(out, mode=A.mode, cols=B.cols)


def fraction_rref(a, n_cols):
    """Reference Gauss-Jordan over Fractions, in place; returns the pivot columns.

    Same pivot rule as centrosim's exact elimination (first nonzero entry of
    each column), pivot rows scaled to 1, columns past n_cols riding along.
    """
    m = len(a)
    width = len(a[0]) if m else n_cols
    pivots = []
    r = 0
    for c in range(n_cols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(m):
            f = a[i][c]
            if i != r and f:
                a[i] = [a[i][j] - f * a[r][j] for j in range(width)]
        pivots.append(c)
        r += 1
    return pivots


def fraction_quadratic_parts(bp, X0, basis):
    """Row-major entries of R0, Rlin[i], Rquad[i][j] by Matrix products: over
    X = X0 + sum t_i N_i, C - XBX = R0 - sum t_i Rlin[i] - sum t_i t_j Rquad[i][j]."""
    def entries(R):
        return [v for row in R.to_lists() for v in row]
    return (entries(bp.C - X0 * bp.B * X0),
            [entries(N * bp.B * X0 + X0 * bp.B * N) for N in basis],
            [[entries(Ni * bp.B * Nj) for Nj in basis] for Ni in basis])


def product_system_residuals(bp, X, tol=None):
    """Reference for centrosim's ``solver.system_residuals``: one Matrix product
    and difference per residual, as (syl, quad, extras, ok)."""
    syl = X * bp.A - bp.D * X
    quad = bp.C - X * bp.B * X
    extras = ()
    if bp.parity == "odd":
        extras = (bp.w - X * bp.x, bp.y - bp.z * X)
    ok = syl.is_zero(tol) and quad.is_zero(tol) and all(e.is_zero(tol) for e in extras)
    return syl, quad, extras, ok


def product_check_conjugation(M, Q, Q_inv, result, tol=None):
    """Reference for the product checks of ``transforms._check_conjugation``:
    the message of the first that fails, or None.  A failure is internal in
    exact mode and blamed on X's conditioning in approximate mode."""
    if not (Q * Q_inv).eq(Matrix.identity(Q.rows, Q.mode), tol):
        claim = "Q * Q_inv is not the identity"
    elif not (M * Q).eq(Q * result, tol):
        claim = "conjugation result mismatch"
    else:
        return None
    if M.mode == EXACT:
        return f"internal: {claim}"
    return (f"{claim} within the tolerance: X may be too ill-conditioned for approximate "
            "mode; use exact mode")


def product_riccati_residual(bp, W, orientation):
    """Reference for the residual of centrosim's ``solver.riccati_residual``."""
    if orientation == "lower":
        return bp.C - W * bp.A + bp.D * W - W * bp.B * W
    return bp.B - W * bp.D + bp.A * W - W * bp.C * W


def product_singular_certificate(bp, W, system, tol=None):
    """Reference for the verdict of centrosim's ``solver.singular_certificate``."""
    if system == 1:
        return bp.C.eq(W * bp.A, tol) and (bp.D * W).eq(W * bp.B * W, tol)
    if system == 2:
        return bp.C.eq(-(bp.D * W), tol) and (W * bp.A).eq(-(W * bp.B * W), tol)
    if system == 3:
        return bp.B.eq(W * bp.D, tol) and (bp.A * W).eq(W * bp.C * W, tol)
    return bp.B.eq(-(bp.A * W), tol) and (W * bp.D).eq(-(W * bp.C * W), tol)


def prefix_major_integer_grid(values, k, r0, lin, quad):
    """Reference for centrosim's ``solver._integer_grid``: one prefix u at a time.

    For every prefix u of product(values, repeat=k), the first entry that does not
    vanish at u is solved for its grid roots (``solver._grid_roots``, itself pinned
    against testing every value) and each later entry filters them; yields (u, the
    values t at which every entry vanishes) for every u with any.  r0, lin and quad
    may hold Fractions or integers.
    """
    scale = math.lcm(*(v.denominator for v in values))
    ts = [v.numerator * (scale // v.denominator) for v in values]
    members = set(ts)
    value = dict(zip(ts, values))
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    entries = []
    for e in range(len(r0)):
        # C = c0 - c . (U_i, then U_i U_j for i <= j) and B = b0 + b . U.
        coeffs = ([scale * scale * r0[e], scale * lin[k][e], quad[k][k][e]]
                  + [scale * lin[i][e] for i in range(k)]
                  + [quad[i][j][e] + quad[j][i][e] if i < j else quad[i][i][e] for i, j in pairs]
                  + [quad[i][k][e] + quad[k][i][e] for i in range(k)])
        # An entry that vanishes identically keeps every value.
        if any(coeffs):
            lcm = math.lcm(*(v.denominator for v in coeffs))
            c0, b0, a, *rest = [v.numerator * (lcm // v.denominator) for v in coeffs]
            entries.append((c0, rest[:-k], b0, rest[-k:], a))
    for U in product(ts, repeat=k):
        monomials = U + tuple(U[i] * U[j] for i, j in pairs)
        survivors = ts
        for c0, c, b0, b, a in entries:
            C = c0 - sum(map(mul, monomials, c))
            B = b0 + sum(map(mul, U, b))
            if survivors is ts:
                survivors = _grid_roots(a, B, C, ts, members)
            else:
                survivors = [T for T in survivors if (a * T + B) * T == C]
            if not survivors:
                break
        else:
            yield tuple(map(value.get, U)), [value[T] for T in survivors]


def exhaustive_grid_hits(bp, X0, basis, values, mode, tol, consider, full):
    """Reference grid search: every point of product(values, repeat=d), in order.

    A drop-in for centrosim's ``solver._grid_search``: each point whose
    residual C - XBX vanishes (exactly, or within the approximate threshold)
    is passed to ``consider`` as X = X0 + sum t_i N_i.
    """
    d = len(basis)
    R0 = bp.C - X0 * bp.B * X0
    Rlin = [N * bp.B * X0 + X0 * bp.B * N for N in basis]
    Rquad = [[Ni * bp.B * Nj for Nj in basis] for Ni in basis]
    thresh = None
    if mode == "approx":
        t = 1e-9 if tol is None else tol
        thresh = t * max(1.0, float(bp.C.max_abs()), float(bp.B.max_abs()) ** 2)
    for tvec in product(values, repeat=d):
        if full():
            return
        hit = True
        for p in range(R0.rows):
            for q in range(R0.cols):
                v = R0[p, q]
                for i in range(d):
                    v -= tvec[i] * Rlin[i][p, q]
                    for j in range(d):
                        v -= tvec[i] * tvec[j] * Rquad[i][j][p, q]
                if (v != 0) if mode == "exact" else (abs(v) > thresh):
                    hit = False
                    break
            if not hit:
                break
        if hit:
            X = X0
            for i in range(d):
                X = X + tvec[i] * basis[i]
            consider(X)


def _sum(terms):
    """sum() as Python 3.11 computes it for floats: left to right from 0 (3.12's
    sum() compensates rounding and would differ in the last bit)."""
    return reduce(add, terms, 0)


def prefix_major_float_grid(values, k, r0, lin, quad, thresh):
    """Reference for centrosim's ``solver._float_grid``: one prefix u at a time.

    For every prefix u of product(values, repeat=k), each entry's c and b are
    evaluated at u and the values t of the last coordinate with
    |c - b*t - a*t^2| <= thresh are kept; yields (u, those t) for every u,
    empty or not.
    """
    for u in product(values, repeat=k):
        survivors = values
        for e, a in enumerate(quad[k][k]):
            c, b = prefix_coefficients(u, e, r0, lin, quad)
            survivors = [t for t in survivors if abs(c - b * t - t * t * a) <= thresh]
            if not survivors:
                break
        yield u, survivors


def prefix_coefficients(u, e, r0, lin, quad):
    """c and b of entry e at prefix u, so that the entry reads c - b*t - a*t^2."""
    k = len(u)
    c = r0[e] - _sum(u[i] * (lin[i][e] + _sum(u[j] * quad[i][j][e] for j in range(k)))
                     for i in range(k))
    b = lin[k][e] + _sum(u[i] * (quad[i][k][e] + quad[k][i][e]) for i in range(k))
    return c, b


def float_scaled_candidates(size, alpha):
    """Float evaluations of the tabulated Toeplitz intertwiners, each constant
    written as a float: the bitwise reference for alpha_scan's candidates."""
    out = []
    if size == 4:
        numerators = [[[2.0, alpha - 1.0], [alpha + 1.0, 2.0]]]
        deltas = [alpha * alpha - 5.0]
    else:
        numerators = [[[0.0, 16.0, 3 * alpha - 13.0],
                       [20.0, 3 * (alpha - 9.0), 16.0],
                       [3 * alpha - 5.0, 20.0, 0.0]],
                      [[-9.0, 50.0, 55.0], [58.0, 0.0, 50.0], [71.0, 58.0, -9.0]]]
        deltas = [9 * alpha * alpha - 105.0, 16.0 * 16.0 * 30.0]
    for numer, delta in zip(numerators, deltas):
        if delta > 1e-12:
            scale = 1.0 / math.sqrt(delta)
            out.append(Matrix([[scale * v for v in row] for row in numer],
                              mode=APPROX, cols=len(numer)))
    return out


def kron(A, B):
    """Kronecker product, used for the column-major vectorized Sylvester system."""
    rows = []
    for i in range(A.rows):
        for p in range(B.rows):
            row = []
            for j in range(A.cols):
                for q in range(B.cols):
                    row.append(A[i, j] * B[p, q])
            rows.append(row)
    return Matrix(rows, mode=A.mode, cols=A.cols * B.cols)


def vectorized_sylvester_space(A, D, center=None):
    """(particular or None, basis) of XA = DX (and X x = w, z X = y for
    center = (x, w, z, y)) by solve_linear on the explicit Kronecker system
    over row-major vec(X): vec(XA) = (I (x) A^T) vec(X), vec(DX) = (D (x) I) vec(X)."""
    s, m = A.rows, D.rows
    K = kron(Matrix.identity(m), A.transpose()) - kron(D, Matrix.identity(s))
    b = Matrix.zeros(m * s, 1)
    if center is not None:
        x, w, z, y = center
        K = vstack(K, kron(Matrix.identity(m), x.transpose()), kron(z, Matrix.identity(s)))
        b = vstack(b, w, y.transpose())
    particular, basis = solve_linear(K, b)

    def unvec(v):
        return Matrix([[v[i * s + j, 0] for j in range(s)] for i in range(m)], cols=s)

    return (None if particular is None else unvec(particular)), tuple(map(unvec, basis))


def chained_krylov_space(a, d, center=None):
    """Reference for centrosim's ``solver._krylov_space`` over Fractions: (i, the
    row-major entries of each basis pair (X, tau), tau last) for the last unit
    row u = e_i^T whose Krylov rows R = [u; uD; ...; uD^(m-1)] have full rank, or
    None.

    c solves R^T c = -(uD^m)^T by solve_linear, f(A) = A^m + sum c_p A^p is summed
    from the powers of A, and X(x) = R^-1 [x; xA; ...; xA^(m-1)], chained one
    vector-matrix product per row, with R^-1 from gauss_facts.  The pairs are
    the canonical kernel basis, by solve_linear, of x f(A) = 0 and, under the
    integer center (x_c, w, z, y), of X(x) x_c = tau w and z X(x) = tau y, whose
    coefficients are those of X(e_l) for each unit row e_l."""
    s, m = len(a), len(d)
    A, D = Matrix(a, cols=s), Matrix(d, cols=m)
    for i in reversed(range(m)):
        krylov = [Matrix([[int(k == i) for k in range(m)]], cols=m)]
        for _ in range(m):
            krylov.append(krylov[-1] * D)
        R_inv = gauss_facts(vstack(*krylov[:m])).inverse
        if R_inv is not None:
            break
    else:
        return None
    c, _ = solve_linear(vstack(*krylov[:m]).transpose(), -krylov[m].transpose())
    f_of_a, power = Matrix.zeros(s, s), Matrix.identity(s)
    for p in range(m):
        f_of_a, power = f_of_a + c[p, 0] * power, power * A

    def X_of(x):
        chain = [x]
        for _ in range(m - 1):
            chain.append(chain[-1] * A)
        return R_inv * vstack(*chain)

    K = hstack((f_of_a + power).transpose(), Matrix.zeros(s, 1))
    if center is not None:
        x_c, w, z, y = center
        x_c, z = Matrix([[v] for v in x_c], cols=1), Matrix([z], cols=m)
        units = [X_of(Matrix([[int(k == l) for k in range(s)]], cols=s)) for l in range(s)]
        K = vstack(K, hstack(*[X * x_c for X in units], Matrix([[-v] for v in w], cols=1)),
                   hstack(*[(z * X).transpose() for X in units],
                          Matrix([[-v] for v in y], cols=1)))
    vecs = []
    for v in solve_linear(K, Matrix.zeros(K.rows, 1))[1]:
        X = X_of(Matrix([[v[k, 0] for k in range(s)]], cols=s))
        vecs.append([X[r, q] for r in range(m) for q in range(s)] + [v[s, 0]])
    return i, vecs


def dense_powers(a, m):
    """The table [A^0, A^1, ..., A^m] of the integer rows a of A, by m dense
    matrix products."""
    s = len(a)
    table = [[[int(j == k) for k in range(s)] for j in range(s)]]
    for _ in range(m):
        table.append([[sum(map(mul, row, col)) for col in zip(*a)] for row in table[-1]])
    return table


def power_combination(coeffs, table):
    """sum_k coeffs[k] table[k] as integer rows, over the first len(coeffs) powers."""
    s = len(table[0])
    return [[sum(v * power[j][q] for v, power in zip(coeffs, table)) for q in range(s)]
            for j in range(s)]


def characteristic_coefficients(d):
    """[c_0, ..., c_(m-1), 1] with det(tI - D) = t^m + sum_p c_p t^p for the
    integer rows d of D, by the Faddeev-LeVerrier recurrence over Fractions."""
    m = len(d)
    D = Matrix(d, cols=m)
    coeffs, M = [Fraction(1)], Matrix.zeros(m, m)
    for k in range(1, m + 1):
        M = D * M + coeffs[-1] * Matrix.identity(m)
        coeffs.append(-(D * M).trace() / k)
    return [int(v) for v in reversed(coeffs)]


def per_vector_chain_rows(inv, a, vecs, prev_r):
    """Reference for centrosim's ``solver._kernel_rows``: for each vector (z, t)
    on its own, the chain [z A^0; z A; ...; z A^(m-1)] from the dense table of
    the powers of A, inv (m columns) times it, row-major, then prev_r t."""
    s = len(a)
    chain_cols = [col for power in dense_powers(a, len(inv[0]) - 1) for col in zip(*power)]
    rows = []
    for *z, t in vecs:
        chain = [sum(map(mul, z, col)) for col in chain_cols]
        rows.append([sum(map(mul, r, col)) for r in inv for col in
                     [chain[k::s] for k in range(s)]] + [prev_r * t])
    return rows


def per_row_recheck(a, d, center, rows, den):
    """Reference for centrosim's ``solver._recheck``: multiplies out each row on
    its own and raises PreconditionError for the first that fails XA = DX (or,
    under the integer center (x, w, z, y), X x = tau w or z X = tau y)."""
    s, m = len(a), len(d)
    a_cols = list(zip(*a))
    for row in rows:
        x_rows = [row[i * s:(i + 1) * s] for i in range(m)]
        x_cols = list(zip(*x_rows))
        tau = row[-1]
        ok = ([[sum(map(mul, r, col)) for col in a_cols] for r in x_rows]
              == [[sum(map(mul, r, col)) for col in x_cols] for r in d])
        if ok and center is not None:
            x, w, z, y = center
            ok = ([sum(map(mul, r, x)) for r in x_rows] == [tau * v for v in w]
                  and [sum(map(mul, z, col)) for col in x_cols] == [tau * v for v in y])
        if not ok:
            raise PreconditionError("particular solution fails the linear-stage re-check" if tau
                                    else "nullspace vector fails XA = DX re-check",
                                    payload=Matrix([[Fraction(v, den) for v in r] for r in x_rows],
                                                   cols=s))


def fraction_scaled_rows(*mats):
    """Reference for centrosim's ``matrix._scaled_rows``, from the Fraction entries:
    the lcm of every denominator in mats, then each matrix times it as integer rows."""
    scale = math.lcm(*[v.denominator for M in mats for r in M.to_lists() for v in r])
    return (scale, *([[int(v * scale) for v in r] for r in M.to_lists()] for M in mats))


def counted_entry_reads(monkeypatch):
    """A list that gains, from now on, the number of exact entries each read
    returns: _ExactField.values is the one place that builds an exact entry's
    Fraction, so a sum of 0 means no entry was read as a Fraction."""
    reads = []
    values = _ExactField.values

    def counted(self, rows, den):
        out = values(self, rows, den)
        reads.append(sum(map(len, out)))
        return out
    monkeypatch.setattr(_ExactField, "values", counted)
    return reads


def stdlib_report_text(obj):
    """Reference for centrosim's ``matrix.report_text``: json.dumps with the CLI's
    arguments, on obj with each Matrix M replaced by matrix_to_json_obj(M)."""
    def image(v):
        if isinstance(v, Matrix):
            return matrix_to_json_obj(v)
        if isinstance(v, dict):
            return {k: image(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [image(x) for x in v]
        return v
    return json.dumps(image(obj), indent=1, default=str, allow_nan=False)


def rand_int_matrix(rng, rows, cols, lo=-9, hi=9):
    return Matrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)],
                  mode="exact", cols=cols)


def rand_invertible(rng, n, lo=-9, hi=9):
    while True:
        M = rand_int_matrix(rng, n, n, lo, hi)
        if gauss_facts(M).inverse is not None:
            return M


def rand_centrosymmetric(rng, n, lo=-9, hi=9):
    """Random centrosymmetric matrix built from free blocks via Lemma-2 structure."""
    if n % 2 == 0:
        s = n // 2
        J = exchange_matrix(s)
        A = rand_int_matrix(rng, s, s, lo, hi)
        B = rand_int_matrix(rng, s, s, lo, hi)
        return block([[A, B], [J * B * J, J * A * J]])
    s = (n - 1) // 2
    J = exchange_matrix(s)
    A = rand_int_matrix(rng, s, s, lo, hi)
    B = rand_int_matrix(rng, s, s, lo, hi)
    x = rand_int_matrix(rng, s, 1, lo, hi)
    z = rand_int_matrix(rng, 1, s, lo, hi)
    mu = Matrix([[rng.randint(lo, hi)]])
    return block([[A, x, B], [z * J, mu, z], [J * B * J, J * x, J * A * J]])


def _inverse(M):
    return gauss_facts(M).inverse


def embedding_instance(rng, s, m, r):
    """Random (M, X) with rank-r X satisfying XA = DX and C = XBX.

    Built in normalized coordinates (X' = diag(I_r, 0) forces the block
    structure the equations require) and conjugated by random invertible T, S.
    """
    K = rand_int_matrix(rng, r, r, -3, 3)
    A21 = rand_int_matrix(rng, s - r, r, -3, 3)
    A22 = rand_int_matrix(rng, s - r, s - r, -3, 3)
    D12 = rand_int_matrix(rng, r, m - r, -3, 3)
    D22 = rand_int_matrix(rng, m - r, m - r, -3, 3)
    Bp = rand_int_matrix(rng, s, m, -3, 3)
    Ap = block([[K, Matrix.zeros(r, s - r)], [A21, A22]])
    Dp = block([[K, D12], [Matrix.zeros(m - r, r), D22]])
    Cp = block([[Bp.submatrix(0, r, 0, r), Matrix.zeros(r, s - r)],
                [Matrix.zeros(m - r, r), Matrix.zeros(m - r, s - r)]])
    Xp = Matrix([[1 if (i == j and i < r) else 0 for j in range(s)] for i in range(m)],
                cols=s)
    T = rand_invertible(rng, m, -2, 2)
    S = rand_invertible(rng, s, -2, 2)
    T_inv = _inverse(T)
    S_inv = _inverse(S)
    X = T_inv * Xp * S_inv
    A = S * Ap * S_inv
    B = S * Bp * T
    C = T_inv * Cp * S_inv
    D = T_inv * Dp * T
    return block([[A, B], [C, D]]), X


def wide_instance(rng, n, s):
    """Full-row-rank X with XA = DX (via a right inverse) and C = XBX."""
    m = n - s
    while True:
        X = rand_int_matrix(rng, m, s, -3, 3)
        XXt_inv = _inverse(X * X.transpose())
        if XXt_inv is not None:
            break
    X_right = X.transpose() * XXt_inv
    D = rand_int_matrix(rng, m, m, -3, 3)
    W = rand_int_matrix(rng, s, s, -3, 3)
    A = X_right * D * X + (Matrix.identity(s) - X_right * X) * W
    B = rand_int_matrix(rng, s, m, -3, 3)
    C = X * B * X
    return block([[A, B], [C, D]]), X


def tall_instance(rng, n, s):
    """Full-column-rank X with XA = DX (via a left inverse) and C = XBX."""
    m = n - s
    while True:
        X = rand_int_matrix(rng, m, s, -3, 3)
        XtX_inv = _inverse(X.transpose() * X)
        if XtX_inv is not None:
            break
    X_left = XtX_inv * X.transpose()
    A = rand_int_matrix(rng, s, s, -3, 3)
    W = rand_int_matrix(rng, m, m, -3, 3)
    D = X * A * X_left + W * (Matrix.identity(m) - X * X_left)
    B = rand_int_matrix(rng, s, m, -3, 3)
    C = X * B * X
    return block([[A, B], [C, D]]), X


def dense_exchange(n, mode="exact"):
    """J as a dense 0/1 matrix; n = 0 gives the empty matrix."""
    return Matrix([[1 if i + j == n - 1 else 0 for j in range(n)] for i in range(n)],
                  mode=mode, cols=n)


def permutation_matrix(p, mode="exact"):
    """The dense matrix P with P[i, p[i]] = 1, so that P M lists M's rows in order p."""
    n = len(p)
    return Matrix([[1 if j == p[i] else 0 for j in range(n)] for i in range(n)],
                  mode=mode, cols=n)


def dense_centro_transform(M, parity, s, X):
    """Reference (Q, Q_inv, result): products by the dense Q = diag(I, XJ) (even) or
    diag(I, 1, XJ) (odd) and Q_inv = diag(I, J X^-1) or diag(I, 1, J X^-1)."""
    mode = M.mode
    J = dense_exchange(s, mode)
    X_inv = gauss_facts(X).inverse
    ident = Matrix.identity(s, mode)
    zero = Matrix.zeros(s, s, mode)
    if parity == "even":
        Q = block([[ident, zero], [zero, X * J]])
        Q_inv = block([[ident, zero], [zero, J * X_inv]])
    else:
        one = Matrix.identity(1, mode)
        zc, zr = Matrix.zeros(s, 1, mode), Matrix.zeros(1, s, mode)
        Q = block([[ident, zc, zero], [zr, one, zr], [zero, zc, X * J]])
        Q_inv = block([[ident, zc, zero], [zr, one, zr], [zero, zc, J * X_inv]])
    return Q, Q_inv, Q_inv * M * Q


def dense_embed(M, s, X):
    """Reference (Q, Q_inv, result) of the principal-block embedding for rank X < s
    or < n - s: Q1 = diag(S, T^-1) from the rank normal form, then the dense
    interleaving L with row partition (r, r, a, b) against columns (r, a, r, b)."""
    n = M.rows
    mode = M.mode
    nf = rank_normal_form(X)
    r, T, S = nf.r, nf.T, nf.S

    def zs(a_, b_):
        return Matrix.zeros(a_, b_, mode)

    Q1 = block([[S, zs(s, n - s)], [zs(n - s, s), inverse(T)]])
    Q1_inv = block([[inverse(S), zs(s, n - s)], [zs(n - s, s), T]])
    Mp = Q1_inv * M * Q1
    a, b = s - r, n - s - r
    Jr, Ja = dense_exchange(r, mode), dense_exchange(a, mode)
    Ir, Ib = Matrix.identity(r, mode), Matrix.identity(b, mode)
    L = block([
        [Ir, zs(r, a), zs(r, r), zs(r, b)],
        [zs(r, r), zs(r, a), Jr, zs(r, b)],
        [zs(a, r), Ja, zs(a, r), zs(a, b)],
        [zs(b, r), zs(b, a), zs(b, r), Ib],
    ])
    L_inv = block([
        [Ir, zs(r, r), zs(r, a), zs(r, b)],
        [zs(a, r), zs(a, r), Ja, zs(a, b)],
        [zs(r, r), Jr, zs(r, a), zs(r, b)],
        [zs(b, r), zs(b, r), zs(b, a), Ib],
    ])
    return Q1 * L_inv, L * Q1_inv, L * Mp * L_inv


def greedy_complete_rows(X):
    """Reference exact row completion: e_0, e_1, ... are stacked under X in turn,
    each kept when gauss_facts finds that it raises the rank, until the stack is
    square (the loop transforms._complete_rows ran before it read the added rows
    off one elimination)."""
    s = X.cols
    added = []
    current = X
    cur_rank = gauss_facts(current).rank
    for i in range(s):
        if current.rows == s:
            break
        e = Matrix([[1 if j == i else 0 for j in range(s)]], mode=EXACT, cols=s)
        candidate = vstack(current, e)
        cand_rank = gauss_facts(candidate).rank
        if cand_rank > cur_rank:
            current, cur_rank = candidate, cand_rank
            added.append(e)
    if current.rows != s or cur_rank != s:
        raise RankError("row completion failed; X is rank deficient")
    return vstack(*added) if added else Matrix.zeros(0, s, X.mode)


def dense_dilate_tall(M, s, X):
    """Reference (Mhat, Q, Q_inv, result) of the dilation for a full-column-rank
    X with s < n - s: the raw dilation conjugated by dense_centro_transform, then
    moved to lead by the dense permutation P = [[0, I_n], [I_e, 0]]."""
    n = M.rows
    mode = M.mode
    k, e = n - s, n - 2 * s
    A, B = M.submatrix(0, s, 0, s), M.submatrix(0, s, s, n)
    C, D = M.submatrix(s, n, 0, s), M.submatrix(s, n, s, n)
    Y = greedy_complete_rows(X.transpose()).transpose()
    Xhat = hstack(Y, X)
    A_stack = inverse(Xhat) * D * Y
    B1 = hstack(*gauss_facts(X.transpose()).nullspace).transpose()
    Ahat = block([[A_stack.submatrix(0, e, 0, e), Matrix.zeros(e, s, mode)],
                  [A_stack.submatrix(e, k, 0, e), A]])
    Mraw = block([[Ahat, vstack(B1, B)], [hstack(Y * B1 * Y + X * B * Y, C), D]])
    Q_raw, Q_raw_inv, result = dense_centro_transform(Mraw, "even", k, Xhat)
    P = block([[Matrix.zeros(n, e, mode), Matrix.identity(n, mode)],
               [Matrix.identity(e, mode), Matrix.zeros(e, n, mode)]])
    P_inv = block([[Matrix.zeros(e, n, mode), Matrix.identity(e, mode)],
                   [Matrix.identity(n, mode), Matrix.zeros(n, e, mode)]])
    return P * Mraw * P_inv, P * Q_raw, Q_raw_inv * P_inv, result


def planted_transform_instance(rng, n):
    """(M, parity, s, X) with M = Q C Q^-1 for a random centrosymmetric C and the
    dense Q of a random invertible X at the center split, so X solves the split."""
    parity, s = ("odd" if n % 2 else "even"), n // 2
    C = rand_centrosymmetric(rng, n, -5, 5)
    X = rand_invertible(rng, s, -3, 3)
    Q, Q_inv, _ = dense_centro_transform(C, parity, s, X)
    return Q * C * Q_inv, parity, s, X
