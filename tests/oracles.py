"""Independent oracles and instance builders shared by the test modules.

Everything here is deliberately naive (cofactor expansion, explicit Kronecker
products, brute-force construction) so it cannot share a bug with the
elimination-based implementation under test.
"""

from fractions import Fraction
from itertools import product

from centrosim import (Matrix, block, exchange_matrix, gauss_facts, hstack, inverse,
                       rank_normal_form, solve_linear, vstack)
from centrosim.transforms import _complete_rows


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


def exhaustive_grid_hits(bp, X0, basis, opts, mode, tol, consider, full):
    """Reference grid search: every point of product(values, repeat=d), in order.

    A drop-in for centrosim's ``solver._grid_search``: each point whose
    residual C - XBX vanishes (exactly, or within the approximate threshold)
    is passed to ``consider`` as X = X0 + sum t_i N_i.
    """
    d = len(basis)
    values = opts.grid(mode)
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


def dense_dilate_tall(M, s, X):
    """Reference (Mhat, Q, Q_inv, result) of the dilation for a full-column-rank
    X with s < n - s: the raw dilation conjugated by dense_centro_transform, then
    moved to lead by the dense permutation P = [[0, I_n], [I_e, 0]]."""
    n = M.rows
    mode = M.mode
    k, e = n - s, n - 2 * s
    A, B = M.submatrix(0, s, 0, s), M.submatrix(0, s, s, n)
    C, D = M.submatrix(s, n, 0, s), M.submatrix(s, n, s, n)
    Y = _complete_rows(X.transpose(), None).transpose()
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
