"""Explicit similarity transforms: full conjugation, principal-block embedding,
and dilation to a matrix that is similar to a centrosymmetric one.

Every report is self-verifying: Q Q^-1 = I and M Q = Q result are checked by
multiplications other than the one that built the result, determinant and
trace preservation are checked, and the structural claim of the certification
label is tested with the centrosymmetry predicate rather than assumed from the
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import CentrosimError, DimensionError, PreconditionError, RankError
from .linalg import det, gauss_facts, inverse, rank_normal_form
from .matrix import (EXACT, Matrix, _field, block, block_diag, hstack,
                     is_centrosymmetric, split_blocks, vstack)
from .solver import system_residuals


@dataclass(frozen=True)
class TransformReport:
    Q: Matrix
    Q_inv: Matrix
    result: Matrix
    certification: str


def _check_conjugation(M, Q, Q_inv, result, tol):
    """Check result = Q_inv M Q without recomputing that product."""
    n = Q.rows
    F = _field(M.mode)
    if not (Q * Q_inv).eq(Matrix.identity(n, Q.mode), tol):
        raise CentrosimError("internal: Q * Q_inv is not the identity")
    if not (M * Q).eq(Q * result, tol):
        raise CentrosimError("internal: conjugation result mismatch")
    if not F.eq(det(result), det(M), tol):
        raise CentrosimError("internal: determinant not preserved")
    if not F.eq(result.trace(), M.trace(), tol):
        raise CentrosimError("internal: trace not preserved")


def build_centro_transform(M, parity, s, X, tol=None):
    """Conjugate M by Q = diag(I, XJ) (even) or diag(I, 1, XJ) (odd).

    X must be invertible and solve the full equation system of the split;
    the result is verified to be centrosymmetric.  XJ is X with its columns
    reversed and (XJ)^-1 = J X^-1 is X^-1 with its rows reversed.
    """
    n = M.rows
    if parity == "even" and n != 2 * s:
        raise DimensionError("even transform needs the center split s = n/2")
    bp = split_blocks(M, parity, s)
    if X.shape != bp.A.shape:
        raise DimensionError(f"X must be {bp.A.shape}, got {X.shape}")
    syl, quad, extras, ok = system_residuals(bp, X, tol)
    if not ok:
        raise PreconditionError("X does not solve the equation system",
                                payload={"sylvester": syl, "quadratic": quad,
                                         "center": extras})
    X_inv = gauss_facts(X, tol).inverse
    if X_inv is None:
        raise RankError("X is singular; use embed_centro_principal for rank-deficient X "
                        "or dilate_to_centrosimilar for full-rank rectangular X")
    # The leading identity has size s, or s + 1 for the odd center.
    ident = Matrix.identity(n - s, M.mode)
    every = range(s)
    Q = block_diag(ident, X.take(every, every[::-1]))
    Q_inv = block_diag(ident, X_inv.take(every[::-1], every))
    result = Q_inv * M * Q
    _check_conjugation(M, Q, Q_inv, result, tol)
    if not is_centrosymmetric(result, tol):
        raise CentrosimError("internal: transform result is not centrosymmetric")
    return TransformReport(Q=Q, Q_inv=Q_inv, result=result,
                           certification="fully_centrosymmetric")


def embed_centro_principal(M, s, X, tol=None):
    """Conjugate M so that a 2r x 2r centrosymmetric block leads, r = rank X.

    X is an (n-s) x s solution of XA = DX and C = XBX with rank r > 0.  The
    construction normalizes X to [[I_r, 0], [0, 0]], which forces the leading
    r x r blocks of the transformed split to satisfy A11 = D11 and C11 = B11,
    and then interleaves them with exchange blocks.
    """
    n = M.rows
    bp = split_blocks(M, "even", s)
    if X.shape != (n - s, s):
        raise DimensionError(f"X must be {(n - s, s)}, got {X.shape}")
    syl, quad, _, ok = system_residuals(bp, X, tol)
    if not ok:
        raise PreconditionError("X does not solve XA = DX and C = XBX",
                                payload={"sylvester": syl, "quadratic": quad})
    nf = rank_normal_form(X, tol)
    r = nf.r
    if r == 0:
        raise PreconditionError("X has rank zero; the embedding needs rank r > 0")
    if r == s == n - s:
        return build_centro_transform(M, "even", s, X, tol)

    T, S = nf.T, nf.S
    T_inv = inverse(T, tol)
    S_inv = inverse(S, tol)
    Q1 = block_diag(S, T_inv)
    Q1_inv = block_diag(S_inv, T)
    Mp = Q1_inv * M * Q1

    Ap = Mp.submatrix(0, s, 0, s)
    Bp = Mp.submatrix(0, s, s, n)
    Cp = Mp.submatrix(s, n, 0, s)
    Dp = Mp.submatrix(s, n, s, n)
    if not Ap.submatrix(0, r, 0, r).eq(Dp.submatrix(0, r, 0, r), tol):
        raise CentrosimError("internal: A'11 != D'11 after rank normalization")
    if not Cp.submatrix(0, r, 0, r).eq(Bp.submatrix(0, r, 0, r), tol):
        raise CentrosimError("internal: C'11 != B'11 after rank normalization")

    # The interleaving permutation keeps indices 0..r-1, then takes s..s+r-1 and
    # r..s-1 each reversed, then keeps s+r..n-1; its matrix L has L^-1 = L^T.
    p = [*range(r), *range(s + r - 1, s - 1, -1), *range(s - 1, r - 1, -1), *range(s + r, n)]
    every = range(n)
    result = Mp.take(p, p)
    Q = Q1.take(every, p)
    Q_inv = Q1_inv.take(p, every)
    _check_conjugation(M, Q, Q_inv, result, tol)
    leading = result.submatrix(0, 2 * r, 0, 2 * r)
    if not is_centrosymmetric(leading, tol):
        raise CentrosimError("internal: leading 2r x 2r block is not centrosymmetric")
    return TransformReport(Q=Q, Q_inv=Q_inv, result=result,
                           certification=f"principal_block({2 * r})")


def _complete_rows(X, tol):
    """Rows Y that make vstack(X, Y) square and invertible: standard basis rows,
    lowest index first (exact mode), or a Gram-Schmidt completion (approximate mode)."""
    if X.mode != EXACT:
        return _complete_rows_orthonormal(X, tol)
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


def _complete_rows_orthonormal(X, tol):
    """Gram-Schmidt row completion; keeps X verbatim as the top rows."""
    s = X.cols
    thresh = math.sqrt(_field(X.mode).tol(tol))
    ortho = []

    def project_out(v):
        for u in ortho:
            coeff = sum(a * b for a, b in zip(v, u))
            v = [a - coeff * b for a, b in zip(v, u)]
        return v

    for i in range(X.rows):
        v = project_out(list(X.row(i)))
        norm = math.sqrt(sum(a * a for a in v))
        if norm > thresh:
            ortho.append([a / norm for a in v])
    added = []
    for i in range(s):
        if X.rows + len(added) == s:
            break
        v = project_out([1.0 if j == i else 0.0 for j in range(s)])
        norm = math.sqrt(sum(a * a for a in v))
        if norm > thresh:
            v = [a / norm for a in v]
            ortho.append(v)
            added.append(v)
    if X.rows + len(added) != s:
        raise RankError("orthonormal completion failed; X is rank deficient")
    return Matrix(added, mode=X.mode, cols=s) if added else Matrix.zeros(0, s, X.mode)


def dilate_to_centrosimilar(M, s, X, tol=None):
    """Dilate M to a 2k x 2k matrix similar to a centrosymmetric one, k = max(s, n-s).

    X must be a full-rank (n-s) x s solution of XA = DX and C = XBX.  Returns
    (Mhat, Xhat, report): M sits as the leading n x n principal submatrix of
    Mhat, and Xhat is the invertible intertwiner certifying Mhat's split.
    """
    n = M.rows
    bp = split_blocks(M, "even", s)
    if X.shape != (n - s, s):
        raise DimensionError(f"X must be {(n - s, s)}, got {X.shape}")
    syl, quad, _, ok = system_residuals(bp, X, tol)
    if not ok:
        raise PreconditionError("X does not solve XA = DX and C = XBX",
                                payload={"sylvester": syl, "quadratic": quad})
    facts = gauss_facts(X, tol)
    if facts.rank != min(s, n - s):
        raise RankError(f"X has rank {facts.rank} < min(s, n-s) = {min(s, n - s)}; "
                        "use embed_centro_principal instead")
    mode = M.mode

    def zs(a_, b_):
        return Matrix.zeros(a_, b_, mode)

    A, B, C, D = bp.A, bp.B, bp.C, bp.D

    if 2 * s == n:
        report = build_centro_transform(M, "even", s, X, tol)
        return M, X, report

    if s > n - s:
        k = s
        e = 2 * s - n
        Y = _complete_rows(X, tol)
        Xhat = vstack(X, Y)
        Xhat_inv = gauss_facts(Xhat, tol).inverse
        if Xhat_inv is None:
            raise RankError("completion of X to an invertible matrix failed")
        D_tail = Y * A * Xhat_inv
        D21 = D_tail.submatrix(0, e, 0, n - s)
        D22 = D_tail.submatrix(0, e, n - s, s)
        Dhat = block([[D, zs(n - s, e)], [D21, D22]])
        null_basis = facts.nullspace
        B2 = hstack(*null_basis) if null_basis else zs(s, 0)
        if B2.cols != e:
            raise RankError("right-nullspace of X has unexpected dimension")
        C2 = Y * B * X + Y * B2 * Y
        Bhat = hstack(B, B2)
        Chat = vstack(C, C2)
        Mhat = block([[A, Bhat], [Chat, Dhat]])
        if not (Xhat * A).eq(Dhat * Xhat, tol) or not Chat.eq(Xhat * Bhat * Xhat, tol):
            raise CentrosimError("internal: dilated equation system check failed")
        if not Mhat.submatrix(0, n, 0, n).eq(M, tol):
            raise CentrosimError("internal: dilation does not embed M as leading block")
        report = build_centro_transform(Mhat, "even", k, Xhat, tol)
        report = replace(report, certification=f"dilated({2 * k})")
        return Mhat, Xhat, report

    # s < n - s: complete by columns on the left, then swap M into the lead.
    k = n - s
    e = n - 2 * s
    Y = _complete_rows(X.transpose(), tol).transpose()
    Xhat = hstack(Y, X)
    Xhat_inv = gauss_facts(Xhat, tol).inverse
    if Xhat_inv is None:
        raise RankError("completion of X to an invertible matrix failed")
    A_stack = Xhat_inv * D * Y
    A11 = A_stack.submatrix(0, e, 0, e)
    A21 = A_stack.submatrix(e, k, 0, e)
    left_null = gauss_facts(X.transpose(), tol).nullspace
    B1 = hstack(*left_null).transpose() if left_null else zs(0, k)
    if B1.rows != e:
        raise RankError("left-nullspace of X has unexpected dimension")
    C1 = Y * B1 * Y + X * B * Y
    Ahat = block([[A11, zs(e, s)], [A21, A]])
    Bhat = vstack(B1, B)
    Chat = hstack(C1, C)
    Mraw = block([[Ahat, Bhat], [Chat, D]])
    if not (Xhat * Ahat).eq(D * Xhat, tol) or not Chat.eq(Xhat * Bhat * Xhat, tol):
        raise CentrosimError("internal: dilated equation system check failed")
    raw_report = build_centro_transform(Mraw, "even", k, Xhat, tol)
    # Move the first e indices of Mraw to the end, so that M leads.
    p = [*range(e, e + n), *range(e)]
    every = range(2 * k)
    Mhat = Mraw.take(p, p)
    Q = raw_report.Q.take(p, every)
    Q_inv = raw_report.Q_inv.take(every, p)
    _check_conjugation(Mhat, Q, Q_inv, raw_report.result, tol)
    if not Mhat.submatrix(0, n, 0, n).eq(M, tol):
        raise CentrosimError("internal: dilation does not embed M as leading block")
    report = TransformReport(Q=Q, Q_inv=Q_inv, result=raw_report.result,
                             certification=f"dilated({2 * k})")
    return Mhat, Xhat, report
