"""Generators and verifiers for the concrete matrix families.

Covers the linear Toeplitz family with its explicit scaled intertwiners, the
palindromic periodic/bordered Jacobi families with their determinant
factorizations, and the floating-point alpha-scan survey harness.

Polynomial identities in one variable are certified by exact evaluation at
degree + 2 distinct rational points; over an exact field this is a proof.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

from .errors import DimensionError, InsufficientSamplesError, PreconditionError
from .linalg import det, gauss_facts
from .matrix import APPROX, EXACT, Matrix, _field, _Record, split_blocks
from .solver import SearchOptions, _residual_norm, find_intertwiner, system_residuals


def linear_toeplitz(alpha, m, mode=EXACT):
    """m x m Toeplitz matrix with entry (i, j) = alpha + (i - j).

    Approximate mode rejects an alpha at which binary64 rounds two of the
    2m - 1 values alpha + k together: the matrix would not be the Toeplitz one.
    """
    if m < 1:
        raise DimensionError("Toeplitz size must be >= 1")
    alpha = _field(mode).coerce(alpha)
    if mode == APPROX and len({alpha + k for k in range(1 - m, m)}) < 2 * m - 1:
        raise ValueError(f"alpha {alpha!r} is too large for size {m} in approximate mode: "
                         f"binary64 rounds the entries alpha + (i - j) together")
    return Matrix([[alpha + (i - j) for j in range(m)] for i in range(m)], mode=mode, cols=m)


def _toeplitz_table(m, alpha):
    """The tabulated (numerator rows, delta) pairs for size m, written once over
    alpha's own scalars: a Fraction alpha gives the exact table and a float
    alpha its float evaluation.  Empty for untabulated sizes."""
    if m == 4:
        return [([[2, alpha - 1], [alpha + 1, 2]], alpha * alpha - 5)]
    if m == 6:
        return [([[0, 16, 3 * alpha - 13], [20, 3 * (alpha - 9), 16], [3 * alpha - 5, 20, 0]],
                 9 * alpha * alpha - 105),
                ([[-9, 50, 55], [58, 0, 50], [71, 58, -9]], 16 * 16 * 30)]
    return []


def toeplitz_scaled_intertwiner(m, alpha):
    """Numerator matrix Xt and squared scale delta of the known intertwiner.

    The true intertwiner is Xt / sqrt(delta); the scaled identities
    Xt A = D Xt and delta C = Xt B Xt hold whenever delta != 0.  For m = 6 at
    alpha = 15 the generic numerator is singular, so the alternate invertible
    numerator (delta = 16^2 * 30) is returned.
    """
    alpha = Fraction(alpha)
    table = _toeplitz_table(m, alpha)
    if not table:
        raise DimensionError(f"scaled intertwiners are tabulated for m in (4, 6), got {m}")
    rows, delta = table[-1] if alpha == 15 else table[0]
    return Matrix(rows, mode=EXACT, cols=len(rows)), Fraction(delta)


def verify_scaled_intertwiner(m, alpha):
    """Check Xt A = D Xt and delta C = Xt B Xt exactly for one alpha."""
    xt, delta = toeplitz_scaled_intertwiner(m, alpha)
    bp = split_blocks(linear_toeplitz(alpha, m), "even", m // 2)
    return (xt * bp.A == bp.D * xt) and (delta * bp.C == xt * bp.B * xt)


class PalindromicSpec(_Record):
    """Diagonal value t, couplings c0..cn and corner sign for one family member.

    The coupling list must be mirror symmetric in the range the factorization
    needs: c_j = c_{n-j+1} for j = 1..n/2 when the size n+1 is odd, and for
    j = 1..(n-1)/2 when it is even (c_0, and for even sizes c_{(n+1)/2}, are
    unconstrained).
    """

    def __init__(self, t: Fraction, c: tuple, sign: int):
        self.__dict__.update(t=Fraction(t), c=tuple(Fraction(v) for v in c), sign=sign)
        if self.sign not in (1, -1):
            raise PreconditionError("sign must be +1 or -1")
        if self.size < 3:
            raise DimensionError("palindromic families need size >= 3")
        n = self.size - 1
        top = n // 2 if self.size % 2 == 1 else (n - 1) // 2
        for j in range(1, top + 1):
            if self.c[j] != self.c[n - j + 1]:
                raise PreconditionError(
                    f"palindromic constraint violated: c[{j}] != c[{n - j + 1}]")

    @property
    def size(self):
        return len(self.c)


def periodic_jacobi_pm(spec):
    """Tridiagonal matrix with diagonal t, couplings c0..c(n-1) and corners +-cn."""
    c = spec.c
    return _tridiagonal([spec.t] * spec.size, c[:-1], c[:-1], corner=spec.sign * c[-1])


def bordered_jacobi_pm(spec):
    """Tridiagonal matrix with couplings c1..cn and both corner diagonals t +- c0."""
    t, c, sign = spec.t, spec.c, spec.sign
    corner = t + sign * c[0]
    return _tridiagonal([corner] + [t] * (spec.size - 2) + [corner], c[1:], c[1:])


def cyclic_conjugator(n1, sign):
    """Cyclic shift permutation, with the wrap-around entry carrying the sign."""
    zero, one = Fraction(0), Fraction(1)
    rows = [[zero] * n1 for _ in range(n1)]
    for i in range(n1 - 1):
        rows[i][i + 1] = one
    rows[n1 - 1][0] = Fraction(sign)
    Q = Matrix(rows, mode=EXACT, cols=n1)
    return Q, Q.transpose()


def conjugated_periodic_jacobi(spec):
    """Q A+- Q^(-1): couplings rotate to c1..cn with corners +-c0."""
    Q, Q_inv = cyclic_conjugator(spec.size, spec.sign)
    return Q * periodic_jacobi_pm(spec) * Q_inv


def _tridiagonal(diag, off_super, off_sub, corner=None):
    """The band diag, off_super, off_sub, with corner at (0, k-1) and (k-1, 0)
    when given."""
    k = len(diag)
    zero = Fraction(0)
    rows = [[zero] * k for _ in range(k)]
    for i in range(k):
        rows[i][i] = diag[i]
    for i in range(k - 1):
        rows[i][i + 1] = off_super[i]
        rows[i + 1][i] = off_sub[i]
    if corner is not None:
        rows[0][k - 1] = rows[k - 1][0] = corner
    return Matrix(rows, mode=EXACT, cols=k)


def palindromic_factors(family, spec):
    """The two explicit factor matrices whose determinant product equals det.

    family "A" is the periodic (corner-coupled) family, "B" the bordered one.
    Factors are ordered with the bordered/plus-side factor first, matching the
    centrosymmetric split convention.
    """
    if family not in ("A", "B"):
        raise DimensionError(f"family must be 'A' or 'B', got {family!r}")
    n1 = spec.size
    t, c, sign = spec.t, spec.c, spec.sign
    # The families differ only in the sign of c0 in the second factor.
    sign2 = -sign if family == "A" else sign
    if n1 % 2 == 1:
        s = (n1 - 1) // 2
        sup1 = [c[i + 1] for i in range(s)]
        sub1 = sup1[:-1] + [2 * c[s]]
        off2 = sup1[:-1]
        return (_tridiagonal([t + sign * c[0]] + [t] * s, sup1, sub1),
                _tridiagonal([t + sign2 * c[0]] + [t] * (s - 1), off2, off2))
    s = n1 // 2
    off = [c[i + 1] for i in range(s - 1)]
    return (_tridiagonal([t + sign * c[0]] + [t] * (s - 2) + [t + c[s]], off, off),
            _tridiagonal([t + sign2 * c[0]] + [t] * (s - 2) + [t - c[s]], off, off))


def verify_palindromic_factorization(family, c, sign, samples=None):
    """Certify det(family matrix) = product of the two factors as an identity in t.

    Both sides are polynomials of degree <= size in t, so agreement at the
    points t = 0, 1, ..., samples - 1 proves the identity once samples >= size + 1;
    samples is size + 2 by default.
    """
    c = tuple(Fraction(v) for v in c)
    n1 = len(c)
    if samples is None:
        samples = n1 + 2
    if samples < n1 + 1:
        raise InsufficientSamplesError(
            f"need at least {n1 + 1} distinct points for size {n1}, got {max(samples, 0)}")
    build = periodic_jacobi_pm if family == "A" else bordered_jacobi_pm
    for t in map(Fraction, range(samples)):
        spec = PalindromicSpec(t=t, c=c, sign=sign)
        lhs = det(build(spec))
        f1, f2 = palindromic_factors(family, spec)
        if lhs != det(f1) * det(f2):
            return False
    return True


def alpha_scan(size, alphas, tol=None):
    """Numeric sweep: for each alpha, how close does the search get to an intertwiner.

    Returns rows (alpha, size, best_residual_norm, found, invertible).  The
    known scaled family for sizes 4 and 6 is evaluated alongside the generic
    search; nothing is ever concluded for alphas where both fail.
    """
    if size % 2 != 0:
        raise DimensionError("alpha scan uses the even center split")
    F = _field(APPROX)
    eff_tol = F.tol(tol)
    opts = SearchOptions(tol=eff_tol)
    rows = []
    for alpha in alphas:
        alpha = float(alpha)
        M = linear_toeplitz(alpha, size, mode=APPROX)
        bp = split_blocks(M, "even", size // 2)
        thresh = F.threshold(eff_tol, M)
        candidates = [Matrix([[1.0 / math.sqrt(delta) * v for v in row] for row in rows],
                             mode=APPROX, cols=len(rows))
                      for rows, delta in _toeplitz_table(size, alpha) if delta > 1e-12]
        best = math.inf
        found = 0
        invertible = 0
        for X in candidates:
            syl, quad, extras, _ = system_residuals(bp, X, eff_tol)
            resid = _residual_norm((syl, quad) + extras)
            best = min(best, resid)
            if resid <= thresh:
                found = 1
                if gauss_facts(X, eff_tol).rank == X.rows:
                    invertible = 1
        search = find_intertwiner(M, "even", size // 2, opts)
        if search.best_residual is not None:
            best = min(best, search.best_residual)
        for sol in search.solutions:
            found = 1
            if sol.invertible:
                invertible = 1
        if best is math.inf:
            best = float("nan")
        rows.append((alpha, size, best, found, invertible))
    return rows


def write_alpha_scan_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "size", "best_residual_norm",
                         "intertwiner_found", "invertible"])
        for alpha, size, best, found, invertible in rows:
            writer.writerow([repr(alpha), size, repr(best), found, invertible])
