"""Elimination-based exact linear algebra: determinant, RREF facts, rank normal form."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .errors import DimensionError
from .matrix import EXACT, Matrix, _clear_denominators, _field

__all__ = ["det", "gauss_facts", "GaussFacts", "inverse", "rank",
           "rank_normal_form", "RankNormalForm", "solve_linear", "char_poly_samples"]


def _bareiss_int(a):
    """Fraction-free determinant of an integer matrix (mutates its argument)."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


def _det_exact(M):
    n = M.rows
    if n == 0:
        return Fraction(1)
    a, scales = _clear_denominators(M.row(i) for i in range(n))
    return Fraction(_bareiss_int(a), prod(scales))


def _det_approx(M):
    n = M.rows
    if n == 0:
        return 1.0
    a = [list(M.row(i)) for i in range(n)]
    sign = 1.0
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        if a[p][k] == 0.0:
            return 0.0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pk = a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / pk
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    out = sign
    for k in range(n):
        out *= a[k][k]
    return out


def det(M):
    """Determinant: fraction-free Bareiss (exact) or partially pivoted elimination."""
    if not M.is_square:
        raise DimensionError("determinant requires a square matrix")
    return _det_exact(M) if M.mode == EXACT else _det_approx(M)


def _rref(a, n_cols, mode, threshold):
    """Reduced row echelon form in place over the first n_cols columns.

    Columns beyond n_cols (an augmented part) ride along with the row
    operations.  Returns the pivot column list.  Exact mode pivots on the
    first nonzero entry of each column, approximate mode on the largest one
    above the threshold.
    """
    if mode == EXACT:
        return _rref_exact(a, n_cols)
    return _rref_approx(a, n_cols, threshold)


def _rref_exact(a, n_cols):
    """Gauss-Jordan on the cleared-denominator rows by _gauss_jordan_int; dividing
    by the last pivot (and, for the rows past the rank, by their own scale)
    gives the Fraction RREF."""
    rows, scales = _clear_denominators(a)
    pivots, prev = _gauss_jordan_int(rows, n_cols, scales)
    r = len(pivots)
    zero = Fraction(0)
    for i, row in enumerate(rows):
        d = prev if i < r else prev * scales[i]
        a[i] = [Fraction(x, d) if x else zero for x in row]
    return pivots


def _gauss_jordan_int(rows, n_cols, scales=None):
    """Fraction-free Gauss-Jordan (Bareiss 1968) on integer rows, in place.

    After each pivot step every row is the current pivot value times the same
    row of Fraction Gauss-Jordan with the same pivots, so all pivots share one
    value and every entry is a minor of the integer matrix: each floor
    division below is exact.  Returns the pivot columns and the last pivot
    value prev (1 if none): pivot row k ends as prev times RREF row k.  Row
    swaps are applied to scales too, when given.
    """
    m = len(rows)
    pivots = []
    prev = 1
    r = 0
    for c in range(n_cols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            if scales is not None:
                scales[r], scales[piv] = scales[piv], scales[r]
        row_r = rows[r]
        pk = row_r[c]
        for i in range(m):
            if i == r:
                continue
            row_i = rows[i]
            f = row_i[c]
            if f:
                rows[i] = [(pk * x - f * y) // prev for x, y in zip(row_i, row_r)]
            elif pk != prev:
                rows[i] = [pk * x // prev for x in row_i]
        prev = pk
        pivots.append(c)
        r += 1
    return pivots, prev


def _rref_approx(a, n_cols, threshold):
    """Gauss-Jordan over floats with partial pivoting."""
    m = len(a)
    width = len(a[0]) if m else n_cols
    pivots = []
    r = 0
    for c in range(n_cols):
        if r == m:
            break
        piv = max(range(r, m), key=lambda i: abs(a[i][c]))
        if abs(a[piv][c]) <= threshold:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        pk = a[r][c]
        if pk != 1:
            inv = 1 / pk
            for j in range(width):
                a[r][j] *= inv
        for i in range(m):
            if i == r:
                continue
            f = a[i][c]
            if f:
                for j in range(width):
                    a[i][j] -= f * a[r][j]
        pivots.append(c)
        r += 1
    return pivots


def _nullspace_from_rref(a, pivots, n_cols, mode):
    free = [c for c in range(n_cols) if c not in pivots]
    F = _field(mode)
    basis = []
    for f in free:
        vec = [F.zero] * n_cols
        vec[f] = F.one
        for k, p in enumerate(pivots):
            vec[p] = -a[k][f]
        basis.append(Matrix._trusted([(v,) for v in vec], mode, 1))
    return basis


@dataclass(frozen=True)
class GaussFacts:
    rank: int
    nullspace: tuple
    inverse: Matrix | None


def gauss_facts(M, tol=None):
    """Rank, right-nullspace basis (free columns ascending) and inverse if any."""
    threshold = _field(M.mode).threshold(tol, M)
    n, c = M.rows, M.cols
    if n == 0:
        basis = _nullspace_from_rref([], [], c, M.mode)
        inv = Matrix.identity(0, M.mode) if c == 0 else None
        return GaussFacts(0, tuple(basis), inv)
    if M.is_square:
        ident = Matrix.identity(n, M.mode)
        a = [list(M.row(i)) + list(ident.row(i)) for i in range(n)]
    else:
        a = [list(M.row(i)) for i in range(n)]
    pivots = _rref(a, c, M.mode, threshold)
    rank_ = len(pivots)
    inv = None
    if M.is_square and rank_ == n:
        inv = Matrix._trusted([row[n:] for row in a], M.mode, n)
    return GaussFacts(rank_, tuple(_nullspace_from_rref(a, pivots, c, M.mode)), inv)


def rank(M, tol=None):
    return gauss_facts(M, tol).rank


def inverse(M, tol=None):
    return gauss_facts(M, tol).inverse


def solve_linear(K, b, tol=None):
    """Solve K v = b: (particular solution or None, homogeneous basis)."""
    if K.rows != b.rows or b.cols != 1:
        raise DimensionError("right-hand side must be a column matching K's rows")
    F = _field(K.mode)
    threshold = F.threshold(tol, K)
    m, n = K.rows, K.cols
    a = [list(K.row(i)) + [b[i, 0]] for i in range(m)]
    pivots = _rref(a, n, K.mode, threshold)
    basis = _nullspace_from_rref(a, pivots, n, K.mode)
    rhs_tol = max(threshold, F.threshold(tol, b))
    for i in range(len(pivots), m):
        if abs(a[i][n]) > rhs_tol:
            return None, basis
    vec = [F.zero] * n
    for k, p in enumerate(pivots):
        vec[p] = a[k][n]
    return Matrix._trusted([(v,) for v in vec], K.mode, 1), basis


@dataclass(frozen=True)
class RankNormalForm:
    T: Matrix
    S: Matrix
    r: int


def rank_normal_form(X, tol=None):
    """Invertible T, S with T X S = [[I_r, 0], [0, 0]].

    Pivots are chosen deterministically: first nonzero entry of the remaining
    submatrix in row-major order (exact mode), largest magnitude otherwise.
    """
    m, n = X.rows, X.cols
    mode = X.mode
    threshold = _field(mode).threshold(tol, X)
    a = [list(X.row(i)) for i in range(m)]
    t = Matrix.identity(m, mode).to_lists()
    s = Matrix.identity(n, mode).to_lists()
    k = 0
    while k < m and k < n:
        pi = pj = None
        if mode == EXACT:
            for i in range(k, m):
                for j in range(k, n):
                    if a[i][j] != 0:
                        pi, pj = i, j
                        break
                if pi is not None:
                    break
        else:
            best = threshold
            for i in range(k, m):
                for j in range(k, n):
                    if abs(a[i][j]) > best:
                        best = abs(a[i][j])
                        pi, pj = i, j
        if pi is None:
            break
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            t[k], t[pi] = t[pi], t[k]
        if pj != k:
            for row in a:
                row[k], row[pj] = row[pj], row[k]
            for row in s:
                row[k], row[pj] = row[pj], row[k]
        pk = a[k][k]
        if pk != 1:
            inv = 1 / pk
            for j in range(n):
                a[k][j] *= inv
            for j in range(m):
                t[k][j] *= inv
        for i in range(m):
            if i == k:
                continue
            f = a[i][k]
            if f:
                for j in range(n):
                    a[i][j] -= f * a[k][j]
                for j in range(m):
                    t[i][j] -= f * t[k][j]
        for j in range(k + 1, n):
            f = a[k][j]
            if f:
                for i in range(m):
                    a[i][j] -= f * a[i][k]
                for i in range(n):
                    s[i][j] -= f * s[i][k]
        k += 1
    return RankNormalForm(Matrix._trusted(t, mode, m), Matrix._trusted(s, mode, n), k)


def char_poly_samples(M, points):
    """det(t I - M) evaluated at each t in points."""
    n = M.rows
    ident = Matrix.identity(n, M.mode)
    return [det(t * ident - M) for t in points]
