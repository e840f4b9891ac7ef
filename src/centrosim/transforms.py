"""Explicit similarity transforms: full conjugation, principal-block embedding,
and dilation to a matrix that is similar to a centrosymmetric one.

Every report is self-verifying: Q Q^-1 = I and M Q = Q result are checked by
multiplications other than the one that built the result, determinant and
trace preservation are checked, and the structural claim of the certification
label is tested with the centrosymmetry predicate rather than assumed from the
construction.

The product checks and Q^-1 M Q run in the field's kernel: exact mode on each
matrix's stored integer rows over its denominator, with no Fraction built;
approximate mode in the Matrix float products it always used.
"""

from __future__ import annotations

import math

from .errors import CentrosimError, DimensionError, PreconditionError, RankError
from .linalg import _gauss_jordan_int, det, gauss_facts, rank_normal_form
from .matrix import (EXACT, Matrix, _field, _Record, block, block_diag, hstack,
                     is_centrosymmetric, split_blocks, vstack)
from .solver import system_residuals


class TransformReport(_Record):
    def __init__(self, Q: Matrix, Q_inv: Matrix, result: Matrix, certification: str):
        self.__dict__.update(Q=Q, Q_inv=Q_inv, result=result, certification=certification)


def _check_conjugation(M, Q, Q_inv, result, tol):
    """Check result = Q_inv M Q without recomputing that product.

    A determinant or trace that overflows binary64 is a ValueError about the
    input, not an internal error.
    """
    F = _field(M.mode)
    Q = F.operand(Q)
    if not F.equal((Q, Q_inv), (Matrix.identity(M.rows, M.mode),), tol):
        raise F.uncertified("Q * Q_inv is not the identity")
    if not F.equal((M, Q), (Q, result), tol):
        raise F.uncertified("conjugation result mismatch")
    for name, of in (("determinant", det), ("trace", Matrix.trace)):
        before, after = of(M), of(result)
        # abs(v) < inf is False for inf and NaN and never converts a Fraction to float.
        if not (abs(before) < math.inf and abs(after) < math.inf):
            raise ValueError(f"the {name} overflows in approximate mode; use exact mode "
                             "with integer or 'p/q' entries")
        if not F.eq(after, before, tol):
            raise F.uncertified(f"{name} not preserved")


def _checked_split(M, parity, s, X, tol, message="X does not solve XA = DX and C = XBX"):
    """Check X's shape and every equation of M's block split; return the split."""
    bp = split_blocks(M, parity, s)
    shape = (bp.D.rows, bp.A.rows)
    if X.shape != shape:
        raise DimensionError(f"X must be {shape}, got {X.shape}")
    syl, quad, extras, ok = system_residuals(bp, X, tol)
    if not ok:
        raise PreconditionError(message, payload={"sylvester": syl, "quadratic": quad,
                                                  "center": extras})
    return bp


def _conjugate(M, X, X_inv):
    """Q = diag(I, XJ), Q^-1 = diag(I, J X^-1) and Q^-1 M Q.

    XJ is X with its columns reversed and J X^-1 is X^-1 with its rows
    reversed; the leading identity fills the rest of M (s + 1 rows for the odd
    center).
    """
    if X_inv is None:
        raise RankError("X is singular; use embed_centro_principal for rank-deficient X "
                        "or dilate_to_centrosimilar for full-rank rectangular X")
    ident = Matrix.identity(M.rows - X.rows, M.mode)
    every = range(X.rows)
    Q = block_diag(ident, X.take(every, every[::-1]))
    Q_inv = block_diag(ident, X_inv.take(every[::-1], every))
    return Q, Q_inv, _field(M.mode).product(Q_inv, M, Q)


def _certify(M, Q, Q_inv, result, k, certification, tol):
    """Check the conjugation and test the leading k x k block of result for
    centrosymmetry, rather than assume either from the construction.  A check
    that fails is the field's error: internal in exact mode, X's conditioning
    in approximate mode."""
    _check_conjugation(M, Q, Q_inv, result, tol)
    if not is_centrosymmetric(result.submatrix(0, k, 0, k), tol):
        raise _field(M.mode).uncertified(f"leading {k} x {k} block is not centrosymmetric")
    return TransformReport(Q=Q, Q_inv=Q_inv, result=result, certification=certification)


def _center_split(M, parity, s):
    """Raise DimensionError unless M is square and an even split is its center
    split; --odd is suggested only for an odd n >= 3, which has an odd split."""
    if not M.is_square:
        raise DimensionError("block split requires a square matrix")
    if parity == "even" and M.rows != 2 * s:
        raise DimensionError(f"n = {M.rows} is odd: pass --odd for the odd center split"
                             if M.rows % 2 and M.rows >= 3 else
                             "even transform needs the center split s = n/2")


def build_centro_transform(M, parity, s, X, tol=None, inverse=None):
    """Conjugate M by Q = diag(I, XJ) (even) or diag(I, 1, XJ) (odd).

    X must be invertible and solve the full equation system of the split.
    Both are checked unless X's inverse is passed, as for a solution the
    search has already verified; the result is verified to be
    centrosymmetric either way.
    """
    _center_split(M, parity, s)
    if inverse is None:
        _checked_split(M, parity, s, X, tol, "X does not solve the equation system")
        inverse = gauss_facts(X, tol).inverse
    return _certify(M, *_conjugate(M, X, inverse), M.rows, "fully_centrosymmetric", tol)


def embed_centro_principal(M, s, X, tol=None):
    """Conjugate M so that a 2r x 2r centrosymmetric block leads, r = rank X.

    X is an (n-s) x s solution of XA = DX and C = XBX with rank r > 0.  The
    construction normalizes X to [[I_r, 0], [0, 0]], which forces the leading
    r x r blocks of the transformed split to satisfy A11 = D11 and C11 = B11,
    and then interleaves them with exchange blocks.
    """
    n = M.rows
    _checked_split(M, "even", s, X, tol)
    nf = rank_normal_form(X, tol)
    r = nf.r
    if r == 0:
        raise PreconditionError("X has rank zero; the embedding needs rank r > 0")
    if r == s == n - s:
        return _certify(M, *_conjugate(M, X, nf.T), n, "fully_centrosymmetric", tol)

    Q1 = block_diag(nf.S, nf.T_inv)
    Q1_inv = block_diag(nf.S_inv, nf.T)
    Mp = _field(M.mode).product(Q1_inv, M, Q1)
    # The interleaving permutation keeps indices 0..r-1, then takes s..s+r-1 and
    # r..s-1 each reversed, then keeps s+r..n-1; its matrix L has L^-1 = L^T.
    # The leading 2r x 2r block of the result is [[A'11, B'11 J], [J C'11, J D'11 J]],
    # so its centrosymmetry test is the test of A'11 = D'11 and C'11 = B'11.
    p = [*range(r), *range(s + r - 1, s - 1, -1), *range(s - 1, r - 1, -1), *range(s + r, n)]
    every = range(n)
    return _certify(M, Q1.take(every, p), Q1_inv.take(p, every), Mp.take(p, p), 2 * r,
                    f"principal_block({2 * r})", tol)


def _complete_rows(X, tol):
    """Rows Y that make vstack(X, Y) square and invertible: standard basis rows,
    lowest index first (exact mode), or a Gram-Schmidt completion (approximate mode).

    Stacked greedily, e_i raises the rank exactly when no vector of X's row
    space has its last nonzero entry at i: at a pivot of X's RREF with the
    columns reversed.  So Y is the e_i at every other column, if X has full row rank.
    """
    if X.mode != EXACT:
        return _complete_rows_orthonormal(X, tol)
    s = X.cols
    pivots, _ = _gauss_jordan_int([row[::-1] for row in X._integer_rows()[1]], s)
    if len(pivots) != X.rows:
        raise RankError("row completion failed; X is rank deficient")
    ends = {s - 1 - p for p in pivots}
    return Matrix.identity(s).take([i for i in range(s) if i not in ends], range(s))


def _complete_rows_orthonormal(X, tol):
    """Gram-Schmidt row completion; keeps X verbatim as the top rows.  A row
    joins when its residual exceeds sqrt(tol) times its own norm (1 for e_i)."""
    s = X.cols
    thresh = math.sqrt(_field(X.mode).tol(tol))
    ortho = []

    def join(v):
        scale = math.hypot(*v)  # cannot overflow; size keeps the sum the reports use
        for u in ortho:
            coeff = sum(a * b for a, b in zip(v, u))
            v = [a - coeff * b for a, b in zip(v, u)]
        size = math.sqrt(sum(a * a for a in v))
        if size <= thresh * scale:
            return False
        ortho.append([a / size for a in v])
        return True

    for i in range(X.rows):
        join(list(X.row(i)))
    added = []
    for i in range(s):
        if X.rows + len(added) == s:
            break
        if join([1.0 if j == i else 0.0 for j in range(s)]):
            added.append(ortho[-1])
    if X.rows + len(added) != s:
        raise RankError("orthonormal completion failed; X is rank deficient")
    return Matrix(added, mode=X.mode, cols=s) if added else Matrix.zeros(0, s, X.mode)


def _dilate_by_rows(A, B, C, D, X, null_basis, tol):
    """(Mhat, Xhat, Xhat^-1) for the split blocks A (s x s), B, C, D ((n-s) x (n-s))
    and a full-rank wide X, s > n - s: Xhat = [X; Y] with Y from _complete_rows,
    Mhat = [[A, [B, B2]], [[C; YBX + YB2Y], [[D, 0], [Y A Xhat^-1]]]] and B2 the
    columns null_basis of X's right nullspace."""
    s, m = A.rows, D.rows
    e = s - m
    Y = _complete_rows(X, tol)
    Xhat = vstack(X, Y)
    Xhat_inv = gauss_facts(Xhat, tol).inverse
    if Xhat_inv is None:
        raise RankError("completion of X to an invertible matrix failed")
    B2 = hstack(*null_basis)
    if B2.cols != e:
        raise RankError("right-nullspace of X has unexpected dimension")
    Bhat = hstack(B, B2)
    Chat = vstack(C, Y * B * X + Y * B2 * Y)
    Dhat = block([[D, Matrix.zeros(m, e, A.mode)], [Y * A * Xhat_inv]])
    F = _field(A.mode)
    Xh = F.operand(Xhat)
    if not F.equal((Xh, A), (Dhat, Xh), tol) or not F.equal((Chat,), (Xh, Bhat, Xh), tol):
        raise CentrosimError("internal: dilated equation system check failed")
    return block([[A, Bhat], [Chat, Dhat]]), Xhat, Xhat_inv


def dilate_to_centrosimilar(M, s, X, tol=None):
    """Dilate M to a 2k x 2k matrix similar to a centrosymmetric one, k = max(s, n-s).

    X must be a full-rank (n-s) x s solution of XA = DX and C = XBX.  Returns
    (Mhat, Xhat, report): M sits as the leading n x n principal submatrix of
    Mhat, and Xhat is the invertible intertwiner certifying Mhat's split.

    A tall X (s < n-s) is dilated by the wide construction through a symmetry:
    M'' = M^T with its diagonal blocks swapped has split n-s, blocks D^T, B^T,
    C^T and A^T, and the wide X^T solves it, since X^T D^T = (DX)^T = (XA)^T =
    A^T X^T and X^T B^T X^T = (XBX)^T = C^T.
    """
    n, k = M.rows, max(s, M.rows - s)
    bp = _checked_split(M, "even", s, X, tol)
    tall = 2 * s < n
    facts = gauss_facts(X.transpose() if tall else X, tol)
    if facts.rank != min(s, n - s):
        raise RankError(f"X has rank {facts.rank} < min(s, n-s) = {min(s, n - s)}; "
                        "use embed_centro_principal instead")
    if 2 * s == n:
        return M, X, _certify(M, *_conjugate(M, X, facts.inverse), n,
                              "fully_centrosymmetric", tol)
    if not tall:
        Mhat, Xhat, Xhat_inv = _dilate_by_rows(bp.A, bp.B, bp.C, bp.D, X, facts.nullspace, tol)
    else:
        e = n - 2 * s
        Mt, Xt, Xt_inv = _dilate_by_rows(bp.D.transpose(), bp.B.transpose(), bp.C.transpose(),
                                         bp.A.transpose(), X.transpose(), facts.nullspace, tol)
        # Transpose back, swap the blocks back and put the e new indices first,
        # so that Xhat = [Y, X].
        back = [*range(k + s, 2 * k), *range(k, k + s), *range(k)]
        new_first = [*range(s, k), *range(s)]
        Mhat, Xhat = Mt.transpose().take(back, back), Xt.take(new_first, range(k)).transpose()
        Xhat_inv = Xt_inv.take(range(k), new_first).transpose()
    Q, Q_inv, result = _conjugate(Mhat, Xhat, Xhat_inv)
    if tall:
        # Move the first e indices to the end, so that M leads.
        p = [*range(e, e + n), *range(e)]
        every = range(2 * k)
        Mhat, Q, Q_inv = Mhat.take(p, p), Q.take(p, every), Q_inv.take(every, p)
    if not Mhat.submatrix(0, n, 0, n).eq(M, tol):
        raise CentrosimError("internal: dilation does not embed M as leading block")
    return Mhat, Xhat, _certify(Mhat, Q, Q_inv, result, 2 * k, f"dilated({2 * k})", tol)
