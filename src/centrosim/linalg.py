"""Elimination-based exact linear algebra: determinant, RREF facts, rank normal form."""

from __future__ import annotations

from fractions import Fraction
from math import isfinite

from .errors import DimensionError
from .matrix import EXACT, Matrix, _field, _over_lcm, _Record, _scaled_rows, hstack

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
    scale, a = M._integer_rows()
    return Fraction(_bareiss_int(list(map(list, a))), scale ** n)


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


def _rref(a, n_cols, mode, threshold, den=1):
    """Reduced row echelon form in place of the rows a over den (1 unless a
    holds den times a matrix's rows), over the first n_cols columns.

    Columns beyond n_cols (an augmented part) ride along with the row
    operations.  Returns the pivot column list.  Exact mode pivots on the
    first nonzero entry of each column, approximate mode on the largest one
    above the threshold.
    """
    if mode == EXACT:
        return _rref_exact(a, n_cols, den)
    return _rref_approx(a, n_cols, threshold)


def _rref_exact(a, n_cols, den=1):
    """Gauss-Jordan by _gauss_jordan_int on the rows a (ints, or exact scalars
    written over the lcm of their denominators) over den, in place: pivot row
    k ends as the last pivot times RREF row k, and each row past the rank as
    the last pivot times den times that row of the Fraction elimination, so
    dividing by them gives the Fraction RREF."""
    scale, rows = _over_lcm(a)
    pivots, prev = _gauss_jordan_int(rows, n_cols)
    r, past = len(pivots), prev * scale * den
    zero = Fraction(0)
    for i, row in enumerate(rows):
        d = prev if i < r else past
        a[i] = [Fraction(x, d) if x else zero for x in row]
    return pivots


def _gauss_jordan_int(rows, n_cols):
    """Fraction-free Gauss-Jordan (Bareiss 1968) on integer rows, in place.

    After each pivot step every row is the current pivot value times the same
    row of Fraction Gauss-Jordan with the same pivots, so all pivots share one
    value and every entry is a minor of the integer matrix: each floor
    division below is exact.  Returns the pivot columns and the last pivot
    value prev (1 if none): pivot row k ends as prev times RREF row k.
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
    """Gauss-Jordan over floats with partial pivoting.

    A pivot whose reciprocal overflows binary64 (a subnormal entry above a zero
    threshold) is a ValueError about the input, as an overflowing determinant is.
    """
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
            if not isfinite(inv):
                raise ValueError(f"the reciprocal of the pivot {pk!r} overflows in approximate "
                                 "mode; use exact mode with integer or 'p/q' entries")
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


def _kernel_vectors(a, pivots, n_cols, one, zero):
    """For each free column f of rows a, whose first n_cols columns are one
    times an RREF with these pivots, ascending: the kernel vector that is one
    at f, zero at the other free columns and -a[k][f] at pivot k."""
    basis = []
    for f in range(n_cols):
        if f not in pivots:
            vec = [zero] * n_cols
            vec[f] = one
            for k, p in enumerate(pivots):
                vec[p] = -a[k][f]
            basis.append(vec)
    return basis


def _nullspace_from_rref(a, pivots, n_cols, mode):
    """The kernel vectors of an RREF as column matrices."""
    F = _field(mode)
    return [Matrix._of([(v,) for v in vec], mode, 1)
            for vec in _kernel_vectors(a, pivots, n_cols, F.one, F.zero)]


class GaussFacts(_Record):
    def __init__(self, rank: int, nullspace: tuple, inverse: Matrix | None):
        self.__dict__.update(rank=rank, nullspace=nullspace, inverse=inverse)


def gauss_facts(M, tol=None):
    """Rank, right-nullspace basis (free columns ascending) and inverse if any.

    Exact mode eliminates the integer rows of [den M | I] (of den M when not
    square), M's stored rows over den, whose pivot row k ends as prev times
    RREF row k: the inverse is den times the augmented part over prev, and
    each kernel vector is integers over prev.
    """
    F = _field(M.mode)
    n, c = M.rows, M.cols
    unit = range(n) if M.is_square else ()
    den, rows = M._integer_rows()
    a = [[*r, *(F.one if i == j else F.zero for j in unit)] for i, r in enumerate(rows)]
    if M.mode == EXACT:
        pivots, one = _gauss_jordan_int(a, c)
        over = one
    else:
        pivots, one, over = _rref_approx(a, c, F.threshold(tol, M)), F.one, 1
    if M.is_square and len(pivots) == n:
        return GaussFacts(n, (), Matrix._trusted([[den * v for v in r[n:]] for r in a], M.mode,
                                                 n, over))
    kernel = _kernel_vectors(a, pivots, c, one, F.zero)
    return GaussFacts(len(pivots), tuple(Matrix._trusted([(v,) for v in vec], M.mode, 1, over)
                                         for vec in kernel), None)


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
    den, k_rows, b_rows = _scaled_rows(K, b)
    a = [[*r, *v] for r, v in zip(k_rows, b_rows)]
    pivots = _rref(a, n, K.mode, threshold, den)
    basis = _nullspace_from_rref(a, pivots, n, K.mode)
    rhs_tol = max(threshold, F.threshold(tol, b))
    for i in range(len(pivots), m):
        if abs(a[i][n]) > rhs_tol:
            return None, basis
    vec = [F.zero] * n
    for k, p in enumerate(pivots):
        vec[p] = a[k][n]
    return Matrix._of([(v,) for v in vec], K.mode, 1), basis


class RankNormalForm(_Record):
    def __init__(self, T: Matrix, S: Matrix, r: int, T_inv: Matrix, S_inv: Matrix):
        self.__dict__.update(T=T, S=S, r=r, T_inv=T_inv, S_inv=S_inv)


def rank_normal_form(X, tol=None):
    """Invertible T, S with T X S = [[I_r, 0], [0, 0]], and their inverses, read off
    the RREF R of [X | I] with r = gauss_facts(X, tol).rank.  T is the augmented
    part.  Pivot rows are only added to other rows, so T's first r rows vanish at
    each other row's original index and its last rows are units there (found as
    the largest entry where the first rows vanish): T^-1 is X's pivot columns,
    then those units.  S is R's pivot unit columns, then its kernel vectors;
    S^-1 is R's first r rows, exact at the pivots, then the free columns' units.
    """
    m, n, mode = X.rows, X.cols, X.mode
    F = _field(mode)
    # den [X | I] from X's stored rows over den.
    den, rows = X._integer_rows()
    a = [[*row, *(den * F.one if i == j else F.zero for j in range(m))]
         for i, row in enumerate(rows)]
    pivots = _rref(a, n, mode, F.threshold(tol, X), den)
    r, T = len(pivots), [row[n:] for row in a]
    rest = [max(range(m), key=lambda c: (not any(t[c] for t in T[:r]), abs(row[c])))
            for row in T[r:]]
    kernel = _kernel_vectors(a, pivots, n, F.one, F.zero)

    def unit(i, j):
        return F.one if i == j else F.zero
    S = [[unit(i, p) for p in pivots] + [v[i] for v in kernel] for i in range(n)]
    S_inv = ([[unit(c, p) if c in pivots else a[k][c] for c in range(n)]
              for k, p in enumerate(pivots)]
             + [[unit(c, f) for c in range(n)] for f in range(n) if f not in pivots])
    every = range(m)
    T_inv = hstack(X.take(every, pivots), Matrix.identity(m, mode).take(every, rest))
    return RankNormalForm(Matrix._of(T, mode, m), Matrix._of(S, mode, n), r, T_inv,
                          Matrix._of(S_inv, mode, n))


def char_poly_samples(M, points):
    """det(t I - M) evaluated at each t in points."""
    n = M.rows
    ident = Matrix.identity(n, M.mode)
    return [det(t * ident - M) for t in points]
