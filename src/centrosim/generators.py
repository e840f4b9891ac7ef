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
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError, InsufficientSamplesError, PreconditionError
from .linalg import det, gauss_facts
from .matrix import APPROX, EXACT, Matrix, _field, split_blocks
from .solver import SearchOptions, find_intertwiner, system_residuals


def linear_toeplitz(alpha, m, mode=EXACT):
    """m x m Toeplitz matrix with entry (i, j) = alpha + (i - j)."""
    if m < 1:
        raise DimensionError("Toeplitz size must be >= 1")
    alpha = _field(mode).coerce(alpha)
    return Matrix([[alpha + (i - j) for j in range(m)] for i in range(m)], mode=mode, cols=m)


def toeplitz_scaled_intertwiner(m, alpha, alternate_at_singular=True):
    """Numerator matrix Xt and squared scale delta of the known intertwiner.

    The true intertwiner is Xt / sqrt(delta); the scaled identities
    Xt A = D Xt and delta C = Xt B Xt hold whenever delta != 0.  For m = 6 at
    alpha = 15 the generic numerator is singular, so the alternate invertible
    numerator (delta = 16^2 * 30) is returned unless alternate_at_singular is
    switched off.
    """
    alpha = Fraction(alpha)
    if m == 4:
        xt = Matrix([[2, alpha - 1], [alpha + 1, 2]], mode=EXACT, cols=2)
        return xt, alpha * alpha - 5
    if m == 6:
        if alpha == 15 and alternate_at_singular:
            xt = Matrix([[-9, 50, 55], [58, 0, 50], [71, 58, -9]], mode=EXACT, cols=3)
            return xt, Fraction(16 * 16 * 30)
        xt = Matrix([[0, 16, 3 * alpha - 13],
                     [20, 3 * (alpha - 9), 16],
                     [3 * alpha - 5, 20, 0]], mode=EXACT, cols=3)
        return xt, 9 * alpha * alpha - 105
    raise DimensionError(f"scaled intertwiners are tabulated for m in (4, 6), got {m}")


def verify_scaled_intertwiner(m, alpha, alternate_at_singular=True):
    """Check Xt A = D Xt and delta C = Xt B Xt exactly for one alpha."""
    xt, delta = toeplitz_scaled_intertwiner(m, alpha, alternate_at_singular)
    bp = split_blocks(linear_toeplitz(alpha, m), "even", m // 2)
    return (xt * bp.A == bp.D * xt) and (delta * bp.C == xt * bp.B * xt)


@dataclass(frozen=True)
class PalindromicSpec:
    """Diagonal value t, couplings c0..cn and corner sign for one family member.

    The coupling list must be mirror symmetric in the range the factorization
    needs: c_j = c_{n-j+1} for j = 1..n/2 when the size n+1 is odd, and for
    j = 1..(n-1)/2 when it is even (c_0, and for even sizes c_{(n+1)/2}, are
    unconstrained).
    """

    t: Fraction
    c: tuple
    sign: int

    def __post_init__(self):
        object.__setattr__(self, "t", Fraction(self.t))
        object.__setattr__(self, "c", tuple(Fraction(v) for v in self.c))
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
    n1 = spec.size
    t, c, sign = spec.t, spec.c, spec.sign
    zero = Fraction(0)
    rows = [[zero] * n1 for _ in range(n1)]
    for i in range(n1):
        rows[i][i] = t
    for i in range(n1 - 1):
        rows[i][i + 1] = c[i]
        rows[i + 1][i] = c[i]
    rows[0][n1 - 1] = sign * c[n1 - 1]
    rows[n1 - 1][0] = sign * c[n1 - 1]
    return Matrix(rows, mode=EXACT, cols=n1)


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


def _tridiagonal(diag, off_super, off_sub):
    k = len(diag)
    zero = Fraction(0)
    rows = [[zero] * k for _ in range(k)]
    for i in range(k):
        rows[i][i] = diag[i]
    for i in range(k - 1):
        rows[i][i + 1] = off_super[i]
        rows[i + 1][i] = off_sub[i]
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


def verify_palindromic_factorization(family, c, sign, samples=None, points=None):
    """Certify det(family matrix) = product of the two factors as an identity in t.

    Both sides are polynomials of degree <= size in t, so agreement at
    size + 1 distinct rational points proves the identity; size + 2 points are
    used by default.
    """
    c = tuple(Fraction(v) for v in c)
    n1 = len(c)
    if points is None:
        if samples is None:
            samples = n1 + 2
        points = [Fraction(k) for k in range(samples)]
    points = [Fraction(p) for p in points]
    if len(set(points)) < n1 + 1:
        raise InsufficientSamplesError(
            f"need at least {n1 + 1} distinct points for size {n1}, got {len(set(points))}")
    build = periodic_jacobi_pm if family == "A" else bordered_jacobi_pm
    for t in points:
        spec = PalindromicSpec(t=t, c=c, sign=sign)
        lhs = det(build(spec))
        f1, f2 = palindromic_factors(family, spec)
        if lhs != det(f1) * det(f2):
            return False
    return True


def alpha_scan(size, alphas, tol=None, options=None):
    """Numeric sweep: for each alpha, how close does the search get to an intertwiner.

    Returns rows (alpha, size, best_residual_norm, found, invertible).  The
    known scaled family for sizes 4 and 6 is evaluated alongside the generic
    search; nothing is ever concluded for alphas where both fail.
    """
    if size % 2 != 0:
        raise DimensionError("alpha scan uses the even center split")
    F = _field(APPROX)
    eff_tol = F.tol(tol)
    opts = options or SearchOptions(tol=eff_tol)
    rows = []
    for alpha in alphas:
        alpha = float(alpha)
        M = linear_toeplitz(alpha, size, mode=APPROX)
        bp = split_blocks(M, "even", size // 2)
        thresh = F.threshold(eff_tol, M)
        candidates = []
        if size in (4, 6):
            candidates.extend(_scaled_candidates(size, alpha))
        best = math.inf
        found = 0
        invertible = 0
        for X in candidates:
            syl, quad, extras, _ = system_residuals(bp, X, eff_tol)
            resid = max([float(r.max_abs()) for r in (syl, quad) + extras if r.rows and r.cols],
                        default=0.0)
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


def _scaled_candidates(size, alpha):
    """Float evaluations of the tabulated scaled intertwiners, where defined."""
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


def write_alpha_scan_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "size", "best_residual_norm",
                         "intertwiner_found", "invertible"])
        for alpha, size, best, found, invertible in rows:
            writer.writerow([repr(alpha), size, repr(best), found, invertible])
