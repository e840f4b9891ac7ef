"""Determinant factorizations: centrosymmetric split and Riccati triangularization.

Every report recomputes the direct determinant, so the factorization identity
is tested on each call, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import CentrosimError, PreconditionError
from .linalg import det
from .matrix import Matrix, _exchange, _field, block, is_centrosymmetric, split_blocks
from .solver import riccati_residual


@dataclass(frozen=True)
class FactorizationReport:
    factors: tuple
    factor_dets: tuple
    product: object
    direct_det: object
    match: bool


def _report(factors, M, tol):
    dets = tuple(det(f) for f in factors)
    product = reduce(lambda x, y: x * y, dets)
    direct = det(M)
    return FactorizationReport(factors=tuple(factors), factor_dets=dets,
                               product=product, direct_det=direct,
                               match=_field(M.mode).eq(product, direct, tol))


def centro_det_factors(M, tol=None):
    """det(M) = det(A+BJ) det(A-BJ), with the bordered first factor when n is odd."""
    if not is_centrosymmetric(M, tol):
        raise PreconditionError("input matrix is not centrosymmetric")
    n = M.rows
    if n == 1:
        report = _report([M, Matrix.identity(0, M.mode)], M, tol)
    elif n % 2 == 0:
        bp = split_blocks(M, "even", n // 2)
        J = _exchange(n // 2, M.mode)
        report = _report([bp.A + bp.B * J, bp.A - bp.B * J], M, tol)
    else:
        s = (n - 1) // 2
        bp = split_blocks(M, "odd", s)
        J = _exchange(s, M.mode)
        mu = Matrix([[bp.mu]], mode=M.mode)
        bordered = block([[bp.A + bp.B * J, bp.x], [2 * bp.y, mu]])
        report = _report([bordered, bp.A - bp.B * J], M, tol)
    if not report.match:
        raise CentrosimError("internal: centrosymmetric determinant split failed to match")
    return report


def _triangularizer(M, s, W, orientation, tol):
    n = M.rows
    witness = riccati_residual(M, s, W, orientation, tol)
    if not witness.is_exact(tol):
        raise PreconditionError(f"nonzero {orientation} Riccati residual",
                                payload=witness.residual)
    mode = M.mode
    ident_s = Matrix.identity(s, mode)
    ident_m = Matrix.identity(n - s, mode)
    if orientation == "lower":
        E = block([[ident_s, Matrix.zeros(s, n - s, mode)], [-W, ident_m]])
        E_inv = block([[ident_s, Matrix.zeros(s, n - s, mode)], [W, ident_m]])
    else:
        E = block([[ident_s, -W], [Matrix.zeros(n - s, s, mode), ident_m]])
        E_inv = block([[ident_s, W], [Matrix.zeros(n - s, s, mode), ident_m]])
    return E * M * E_inv


def riccati_block_triangularize(M, s, W, orientation, tol=None):
    """Conjugate M to block triangular form using a zero-residual witness.

    lower: [[A+BX, B], [0, D-XB]]; upper: [[A-YC, 0], [C, D+CY]].
    """
    result = _triangularizer(M, s, W, orientation, tol)
    n = M.rows
    bp = split_blocks(M, "even", s)
    if orientation == "lower":
        off = result.submatrix(s, n, 0, s)
        diag_ok = (result.submatrix(0, s, 0, s).eq(bp.A + bp.B * W, tol)
                   and result.submatrix(s, n, s, n).eq(bp.D - W * bp.B, tol))
    else:
        off = result.submatrix(0, s, s, n)
        diag_ok = (result.submatrix(0, s, 0, s).eq(bp.A - W * bp.C, tol)
                   and result.submatrix(s, n, s, n).eq(bp.D + bp.C * W, tol))
    if not off.is_zero(tol) or not diag_ok:
        raise CentrosimError("internal: triangularization block structure check failed")
    return result


def riccati_det_factor(M, s, W, orientation, tol=None):
    """det(M) = det(A+BX) det(D-XB) (lower) or det(A-YC) det(D+CY) (upper)."""
    witness = riccati_residual(M, s, W, orientation, tol)
    if not witness.is_exact(tol):
        raise PreconditionError(f"nonzero {orientation} Riccati residual",
                                payload=witness.residual)
    bp = split_blocks(M, "even", s)
    if orientation == "lower":
        factors = [bp.A + bp.B * W, bp.D - W * bp.B]
    else:
        factors = [bp.A - W * bp.C, bp.D + bp.C * W]
    report = _report(factors, M, tol)
    if not report.match:
        raise CentrosimError("internal: Riccati determinant factorization failed to match")
    return report
