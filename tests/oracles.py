"""Independent oracles and instance builders shared by the test modules.

Everything here is deliberately naive (cofactor expansion, explicit Kronecker
products, brute-force construction) so it cannot share a bug with the
elimination-based implementation under test.
"""

from fractions import Fraction
from itertools import product

from centrosim import Matrix, block, exchange_matrix, gauss_facts


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
