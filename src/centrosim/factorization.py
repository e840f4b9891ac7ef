"""Determinant factorizations: centrosymmetric split and Riccati triangularization.

Every report recomputes the direct determinant, so the factorization identity
is tested on each call, never assumed.
"""

from __future__ import annotations

from functools import reduce

from .errors import CentrosimError, PreconditionError
from .linalg import det
from .matrix import Matrix, _field, _Record, block, is_centrosymmetric, split_blocks
from .solver import riccati_residual


class FactorizationReport(_Record):
    def __init__(self, factors: tuple, factor_dets: tuple, product: object, direct_det: object,
                 match: bool):
        self.__dict__.update(factors=factors, factor_dets=factor_dets, product=product,
                             direct_det=direct_det, match=match)


def _report(factors, M, tol, what):
    """The determinant report of factors; CentrosimError names what when the
    product of their determinants does not match det(M)."""
    dets = tuple(det(f) for f in factors)
    product = reduce(lambda x, y: x * y, dets)
    direct = det(M)
    match = _field(M.mode).eq(product, direct, tol)
    if not match:
        raise CentrosimError(f"internal: {what} failed to match")
    return FactorizationReport(factors=tuple(factors), factor_dets=dets,
                               product=product, direct_det=direct, match=match)


def centro_det_factors(M, tol=None):
    """det(M) = det(A+BJ) det(A-BJ), with the bordered first factor when n is odd."""
    if not is_centrosymmetric(M, tol):
        raise PreconditionError("input matrix is not centrosymmetric")
    n = M.rows
    if n == 1:
        factors = [M, Matrix.identity(0, M.mode)]
    else:
        s = n // 2
        bp = split_blocks(M, "odd" if n % 2 else "even", s)
        every = range(s)
        BJ = bp.B.take(every, every[::-1])
        first = bp.A + BJ
        if n % 2:
            first = block([[first, bp.x], [2 * bp.y, Matrix([[bp.mu]], mode=M.mode)]])
        factors = [first, bp.A - BJ]
    return _report(factors, M, tol, "centrosymmetric determinant split")


def _exact_witness(M, s, W, orientation, tol):
    """The Riccati witness of W; PreconditionError unless its residual is zero."""
    witness = riccati_residual(M, s, W, orientation, tol)
    if not witness.is_exact(tol):
        raise PreconditionError(f"nonzero {orientation} Riccati residual",
                                payload=witness.residual)
    return witness


def _riccati_factors(witness):
    """(A+BX, D-XB) for a lower witness X, (A-YC, D+CY) for an upper witness Y."""
    bp, W = witness.blocks, witness.W
    if witness.orientation == "lower":
        return [bp.A + bp.B * W, bp.D - W * bp.B]
    return [bp.A - W * bp.C, bp.D + bp.C * W]


def _triangularize(M, witness, tol):
    """E M E^-1 for a zero-residual witness and its two diagonal blocks, checked
    to be block triangular with the witness's Riccati factors on the diagonal."""
    n, s, W = M.rows, witness.blocks.s, witness.W
    mode = M.mode
    ident_s = Matrix.identity(s, mode)
    ident_m = Matrix.identity(n - s, mode)
    if witness.orientation == "lower":
        zero, off = Matrix.zeros(s, n - s, mode), (s, n, 0, s)
        E, E_inv = (block([[ident_s, zero], [V, ident_m]]) for V in (-W, W))
    else:
        zero, off = Matrix.zeros(n - s, s, mode), (0, s, s, n)
        E, E_inv = (block([[ident_s, V], [zero, ident_m]]) for V in (-W, W))
    result = E * M * E_inv
    factors = _riccati_factors(witness)
    if not (result.submatrix(*off).is_zero(tol)
            and result.submatrix(0, s, 0, s).eq(factors[0], tol)
            and result.submatrix(s, n, s, n).eq(factors[1], tol)):
        raise CentrosimError("internal: triangularization block structure check failed")
    return result, factors


def riccati_block_triangularize(M, s, W, orientation, tol=None):
    """Conjugate M to block triangular form using a zero-residual witness.

    lower: [[A+BX, B], [0, D-XB]]; upper: [[A-YC, 0], [C, D+CY]].
    """
    return _triangularize(M, _exact_witness(M, s, W, orientation, tol), tol)[0]


def riccati_det_factor(M, s, W, orientation, tol=None):
    """det(M) = det(A+BX) det(D-XB) (lower) or det(A-YC) det(D+CY) (upper)."""
    factors = _riccati_factors(_exact_witness(M, s, W, orientation, tol))
    return _report(factors, M, tol, "Riccati determinant factorization")


def _triangularize_and_factor(M, witness, tol):
    """The block triangular form and the determinant report for a witness
    already checked to have a zero residual, its diagonal blocks computed once."""
    result, factors = _triangularize(M, witness, tol)
    return result, _report(factors, M, tol, "Riccati determinant factorization")
