"""Solvers for the coupled block equations XA = DX, C = XBX and friends.

The search ladder for an intertwiner is deliberately simple and fully
deterministic: special candidates (J, I, -J) are tried first, a
one-dimensional solution space is handled by exact rational root finding,
small spaces (dimension <= d_max) by a bounded rational grid, and anything
larger is reported as exhausted.  The special candidates are screened by
index maps: their residuals are differences of blocks with rows or columns
reversed, which exact mode compares entry by entry and approximate mode
subtracts, so a candidate is multiplied out only once it passes.  Every hit
is re-verified by independent matrix multiplication, so the ladder can miss
solutions but never return a wrong one.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from fractions import Fraction
from itertools import chain, product, repeat
from operator import add, mul, sub

from .errors import DimensionError, PreconditionError
from .linalg import _gauss_jordan_int, _kernel_vectors, gauss_facts, solve_linear
from .matrix import (APPROX, EXACT, BlockPartition, Matrix, _exchange_pairs, _field,
                     _int_product, _Record, _scaled_rows, exchange_matrix, hstack, split_blocks,
                     vstack)


@functools.cache
def default_grid_values(numer_max=5, denom_max=3):
    """All reduced rationals p/q with |p| <= numer_max, 1 <= q <= denom_max, ascending
    (a tuple, built once per pair of bounds)."""
    vals = {Fraction(0)}
    for q in range(1, denom_max + 1):
        for p in range(1, numer_max + 1):
            vals.add(Fraction(p, q))
            vals.add(Fraction(-p, q))
    return tuple(sorted(vals))


class SearchOptions(_Record):
    def __init__(self, d_max: int = 3, grid_numer_max: int = 5, grid_denom_max: int = 3,
                 max_solutions: int | None = None, tol: float | None = None):
        self.__dict__.update(d_max=d_max, grid_numer_max=grid_numer_max,
                             grid_denom_max=grid_denom_max, max_solutions=max_solutions,
                             tol=tol)
        for name, least in (("d_max", 0), ("grid_numer_max", 0), ("grid_denom_max", 1),
                            ("max_solutions", 1)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")

    def grid(self, mode):
        return tuple(map(_field(mode).coerce,
                         default_grid_values(self.grid_numer_max, self.grid_denom_max)))


class IntertwinerSolution(_Record):
    def __init__(self, X: Matrix, sylvester_residual: Matrix, quadratic_residual: Matrix,
                 rank: int, inverse: Matrix | None):
        self.__dict__.update(X=X, sylvester_residual=sylvester_residual,
                             quadratic_residual=quadratic_residual, rank=rank, inverse=inverse)

    @property
    def invertible(self):
        return self.inverse is not None


class IntertwinerSearch(_Record):
    """Ordered solutions plus the linear-stage data and any diagnostic.

    In exact mode the basis matrices (and a particular solution reported as a
    solution) are stored, like every exact Matrix, as integer rows over one
    denominator, and a report writes them from the integers.
    """

    def __init__(self, solutions: tuple, basis: tuple, diagnostic: str | None,
                 discriminant: object = None, best_residual: float | None = None):
        self.__dict__.update(solutions=solutions, basis=basis, diagnostic=diagnostic,
                             discriminant=discriminant, best_residual=best_residual)

    def __iter__(self):
        return iter(self.solutions)

    def __len__(self):
        return len(self.solutions)

    def __getitem__(self, i):
        return self.solutions[i]

    @property
    def invertible_solutions(self):
        return tuple(sol for sol in self.solutions if sol.invertible)


def intertwiner_space(A, D, tol=None):
    """Basis of {X : XA = DX}: the canonical kernel basis of the vectorized system,
    each built in exact mode from the re-checked integer rows with no Fraction."""
    if not A.is_square or not D.is_square:
        raise DimensionError("intertwiner space needs square A and D")
    basis = _sylvester_space(A, D, tol=tol)[1]
    if A.mode == APPROX:
        # Exact mode re-checked each one inside _sylvester_space.
        for N in basis:
            if not (N * A - D * N).is_zero(tol):
                raise PreconditionError("nullspace vector fails XA = DX re-check",
                                        payload=N)
    return basis


def _sylvester_space(A, D, center=None, tol=None):
    """(particular or None, basis) of XA = DX, and of X x = w, z X = y as well
    when center = (x, w, z, y).

    Both are the ones elimination on the vectorized system gives: for each
    free column of row-major vec(X), ascending, the basis matrix that is 1
    there and 0 at the other free columns, and a particular solution that is 0
    at every free column (None when the system is inconsistent).  Exact mode
    finds the canonical basis of the pairs (vec(X), tau) with XA = DX,
    X x = tau w and z X = tau y as integer rows: the basis above, then the
    particular solution at tau = 1 when tau is a free column.  Each matrix is
    built from those integer rows over their common denominator, so no
    Fraction is built.  Its three routes re-check every row by multiplication
    before any matrix is built:
    - last row: when e_(m-1)^T is cyclic for D^T, X is fixed by its last row x
      (_krylov_space), so every nonzero pair has its last nonzero entry in
      (x, tau), the last s + 1 columns: the canonical kernel basis of the
      system over (x, tau) gives the canonical rows itself;
    - earlier row: when only an earlier e_i^T is cyclic, x is row i of X and
      _reduce brings the rows to canonical form;
    - integer fallback: the kernel of the vectorized rows (_linear_rows, tau
      last) is canonical as it comes.
    Approximate mode eliminates the vectorized rows over floats.
    """
    if A.mode == APPROX:
        return _eliminate(A, D, center, tol)
    s, m = A.rows, D.rows
    # XA = DX is unchanged when A and D are scaled by one factor, and
    # X x = tau w and z X = tau y when x, w, z and y are.
    _, a, d = _scaled_rows(A, D)
    int_center = None if center is None else tuple(map(_flat, _scaled_rows(*center)[1:]))
    krylov = _krylov_space(a, d, int_center)
    if krylov is None:
        # Over the rows [K | b], K vec(X) = tau b.
        rows = [row[:-1] + [-row[-1]] for row in _linear_rows(a, d, int_center, 0)]
        rows, den = _int_kernel(rows, m * s + 1)
    else:
        i, rows, den = krylov
        if i < m - 1:
            rows, den = _reduce(rows, m * s + 1)
    _recheck(a, d, int_center, rows, den)
    mats = [_unvec(row, m, s, EXACT, den) for row in rows]
    particular = mats.pop() if rows and rows[-1][-1] else None
    return particular, tuple(mats)


def _recheck(a, d, center, rows, den):
    """Raise PreconditionError unless every row, den times a pair (vec(X), tau),
    has XA = DX (and, under center, X x = tau w and z X = tau y): the basis
    matrices (tau = 0) solve the homogeneous system and the particular
    solution (tau = 1) the full one.

    Everything is compared over the integers: a and d are the rows of A and D
    times one common scale, center holds x, w, z, y as integer vectors times
    another, and den X is the row itself.  The first row that fails names
    the error and is its payload.

    All rows are checked by one product pair (Kronecker substitution): row k
    is digit k of the packed row P = sum_k 2^(bits k) row_k, so every
    residual of P (PA - DP, and P x - P_tau w and z P - P_tau y) is
    sum_k 2^(bits k) r_k over the same residual r_k of each row.  With
    rho the largest |entry| of any row, tau included, every |r_k| is at most
        R = rho max(s max|a| + m max|d|, s max|x| + max|w|, m max|z| + max|y|),
    and bits is chosen with 2^bits > 2R.  Were some r_k nonzero, the lowest
    such k0 would leave 2^(bits k0) r_k0 plus multiples of 2^(bits (k0 + 1)),
    so 2^bits would divide r_k0, which 0 < |r_k0| < 2^bits forbids: P's
    residuals all vanish exactly when every row's do.  By the same argument
    the lowest set bit of a nonzero packed residual v lies in digit k0, so
    ((v & -v).bit_length() - 1) // bits is the first row that fails there
    (bits = 0 only when R = 0, and then no residual is nonzero).
    """
    if not rows:
        return
    s, m = len(a), len(d)
    bound = s * _max_abs(*a) + m * _max_abs(*d)
    if center is not None:
        x, w, z, y = center
        bound = max(bound, s * _max_abs(x) + _max_abs(w), m * _max_abs(z) + _max_abs(y))
    bits = (2 * _max_abs(*rows) * bound).bit_length()
    packed = _pack(rows, bits)
    x_rows = [packed[i * s:(i + 1) * s] for i in range(m)]
    x_cols = list(zip(*x_rows))
    tau = packed[-1]
    residuals = list(map(sub, _int_product(x_rows, list(zip(*a))), _int_product(d, x_cols)))
    if center is not None:
        residuals += [sum(map(mul, r, x)) - tau * v for r, v in zip(x_rows, w)]
        residuals += [sum(map(mul, z, col)) - tau * v for col, v in zip(x_cols, y)]
    if any(residuals):
        row = rows[min(((v & -v).bit_length() - 1) // bits for v in residuals if v)]
        raise PreconditionError("particular solution fails the linear-stage re-check" if row[-1]
                                else "nullspace vector fails XA = DX re-check",
                                payload=_unvec(row, m, s, EXACT, den))


def _max_abs(*vectors):
    return max(map(abs, chain.from_iterable(vectors)), default=0)


def _eliminate(A, D, center, tol):
    """Approximate _sylvester_space by Gauss-Jordan on the s*m-unknown vectorized system."""
    s, m = A.rows, D.rows
    if center is not None:
        center = tuple(_flat(M.to_lists()) for M in center)
    rows = _linear_rows(A.to_lists(), D.to_lists(), center, _field(A.mode).zero)
    K = Matrix._trusted([row[:-1] for row in rows], A.mode, m * s)
    b = Matrix._trusted([row[-1:] for row in rows], A.mode, 1)
    particular, basis = solve_linear(K, b, tol)
    if particular is not None:
        particular = _unvec(particular.col(0), m, s, APPROX)
    return particular, tuple(_unvec(v.col(0), m, s, APPROX) for v in basis)


def _linear_rows(a, d, center, zero):
    """Rows [coefficients over row-major vec(X), right-hand side] of XA - DX = 0,
    entry (p, q) by entry, then of X x = w and z X = y under center = (x, w, z, y),
    from the rows a of A and d of D."""
    s, m = len(a), len(d)
    n = m * s
    rows = []
    for p in range(m):
        for q in range(s):
            row = [zero] * (n + 1)
            for j in range(s):
                row[p * s + j] += a[j][q]
            for i in range(m):
                row[i * s + q] -= d[p][i]
            rows.append(row)
    if center is not None:
        x, w, z, y = center
        for p, v in enumerate(w):
            row = [zero] * n + [v]
            row[p * s:(p + 1) * s] = x
            rows.append(row)
        for q, v in enumerate(y):
            row = [zero] * n + [v]
            row[q:n:s] = z
            rows.append(row)
    return rows


def _krylov_space(a, d, center=None):
    """(i, rows, den) for the last unit row e_i^T that is cyclic for D^T, or
    None: rows are the integers (vec(den X), den tau) of a basis of the pairs
    with XA = DX and, under the integer center (x_c, w, z, y), X x_c = tau w
    and z X = tau y.

    For a row u, XA = DX gives uD^k X = (uX) A^k.  If R = [u; uD; ...; uD^(m-1)]
    is invertible and f(t) = t^m + sum c_p t^p is the characteristic polynomial
    of D (so uD^m = -c R), then X = R^-1 [x; xA; ...; xA^(m-1)] for x = uX, and
    this X solves XA = DX exactly when x f(A) = 0: R D = F R and
    [x; ...; xA^(m-1)] A = F [x; ...; xA^(m-1)] for the companion matrix F of
    f.  This is the companion-form solution of Gantmacher, The Theory of
    Matrices, vol. 1, ch. VIII, on rows.  The center is linear in x too:
    X x_c = tau w is x A^k x_c = tau (R w)_k for k < m, and z X = tau y is
    x G = tau y for G = sum_k (z R^-1)_k A^k.  a and d are the rows of A and D
    times one common scale, so all of it runs over the integers: fraction-free
    Gauss-Jordan on [R | I] leaves inv = prev_R R^-1, which gives c.

    No power of A is formed.  One chain of packed rows (Kronecker
    substitution, as in _recheck) P_k = sum_j 2^(bits j) (row j of A^k), for
    k = 0, ..., m, takes m vector-matrix products (_chain), and every read of
    the powers is a linear map of it, read back as signed digits (_reader):
    column q of f(A) is the digits of sum_k c_k P_k[q] (and f(A) = 0 exactly
    when that packed row is), the center row A^k x_c the digits of P_k x_c,
    column q of prev_R G the digits of sum_k (z inv)_k P_k[q], and the rows
    for the unit vectors below those of inv [P_0; ...; P_(m-1)].  The width
    bounds them all (_width): with N_k = ||A||_inf^k,
    |(A^k)[j][q]| <= ||A^k||_inf <= N_k and |(A^k x_c)_j| <= N_k max|x_c|, so
    each digit has magnitude at most
        bound = max(sum_k |c_k| N_k, max_r sum_k |inv[r][k]| N_k,
                    sum_k |(z inv)_k| N_k, max_(k<m) N_k max|x_c|),
    and 2^(bits-1) > bound.

    For each vector (z, t) of the canonical kernel over (x, tau), prev_K at its
    free column, the basis row is (inv [z; zA; ...; zA^(m-1)], prev_R t) over
    den = prev_R prev_K.  When the system is all zero (f(A) = 0 and no
    center), the kernel is the unit rows, tau's last, with prev_K = 1: their
    chain is P_0, ..., P_(m-1) itself, so neither the elimination nor a
    second chain runs.  Otherwise the kernel vectors are chained through A
    once more (_kernel_rows).  For u = e_i^T, x is row i of X; for i = m - 1
    the rows are canonical (see _sylvester_space).
    O(m^3) operations on R, then m s^2 products on integers s digits wide for
    the chain, and m s^2 + m^2 s on integers d digits wide and d m s digit
    reads for d kernel vectors, instead of elimination on s*m unknowns.
    """
    s, m = len(a), len(d)
    d_cols = list(zip(*d))
    for i in reversed(range(m)):
        krylov = [[int(k == i) for k in range(m)]]
        for _ in range(m):
            krylov.append([sum(map(mul, krylov[-1], col)) for col in d_cols])
        # [R | I]: R is invertible iff e_i^T is cyclic for D^T, and then leaves prev_R R^-1.
        aug = [row + [int(k == r) for k in range(m)] for r, row in enumerate(krylov[:m])]
        pivots, prev_r = _gauss_jordan_int(aug, m)
        if len(pivots) == m:
            break
    else:
        return None
    inv = [row[m:] for row in aug]
    c = [-sum(map(mul, krylov[m], col)) // prev_r for col in zip(*inv)] + [1]
    if center is None:
        bits = _width(a, [c, *inv])
    else:
        x_c, w, z, y = center
        g = [sum(map(mul, z, col)) for col in zip(*inv)]
        bits = max(_width(a, [c, *inv, g]),
                   _width(a, [[0] * k + [1] for k in range(m)], _max_abs(x_c)))
    powers = _chain([1 << (bits * j) for j in range(s)], a, m + 1)
    read = _reader(bits, s)
    # The system over (x, tau): x f(A) = 0 column by column, then the center rows.
    f_of_a = [sum(map(mul, c, col)) for col in zip(*powers)]
    system = [read(v) + [0] for v in f_of_a] if any(f_of_a) else []
    if center is not None:
        system += [read(sum(map(mul, p, x_c))) + [-sum(map(mul, r, w))]
                   for p, r in zip(powers, krylov[:m])]
        system += [read(sum(map(mul, g, col))) + [-prev_r * v]
                   for col, v in zip(zip(*powers), y)]
    if not system:
        return i, _chain_basis(inv, powers[:m], bits, [0] * s + [prev_r]), prev_r
    vecs, prev_k = _int_kernel(system, s + 1)
    return i, _kernel_rows(inv, a, vecs, prev_r), prev_r * prev_k


def _width(a, coeffs, scale=1):
    """The least bits with 2^(bits-1) > scale max_v sum_k |v_k| ||A||_inf^k over
    the rows v of coeffs: every entry of scale sum_k v_k A^k then lies in
    [-2^(bits-1), 2^(bits-1)), since ||A||_inf^k bounds every |entry| of A^k."""
    norm = max((sum(map(abs, row)) for row in a), default=0)
    norms = [norm ** k for k in range(max(map(len, coeffs)))]
    return (scale * max(sum(map(mul, map(abs, v), norms)) for v in coeffs)).bit_length() + 1


def _chain(packed, a, length):
    """[P, PA, ..., PA^(length-1)] for an integer row P and the rows a of A:
    length - 1 vector-matrix products."""
    a_cols = list(zip(*a))
    chain = [packed]
    for _ in range(length - 1):
        chain.append([sum(map(mul, chain[-1], col)) for col in a_cols])
    return chain


def _kernel_rows(inv, a, vecs, prev_r):
    """For each vector (z, t) of vecs, the integer row (inv [z; zA; ...; zA^(m-1)],
    prev_r t), row-major, for the m x m inv: one chain for every vector.

    The z are packed into P = sum_k 2^(bits k) z_k, and [P; PA; ...] times inv
    has digit k the row of vector k.  Its entry (r, q) is
    sum_j inv[r][j] (z_k A^j)_q with |(z_k A^j)_q| <= ||z_k||_1 ||A||_inf^j, so
    _width over the rows of inv, scaled by the largest ||z_k||_1, bounds it.
    """
    if not vecs:
        return []
    zs = [v[:-1] for v in vecs]
    bits = _width(a, inv, max(sum(map(abs, z)) for z in zs))
    chain = _chain(_pack(zs, bits), a, len(inv))
    return _chain_basis(inv, chain, bits, [prev_r * v[-1] for v in vecs])


def _chain_basis(inv, chain, bits, ts):
    """For each digit k of the packed rows chain = [Q_0; ...; Q_(m-1)], the
    integer row (digit k of inv chain, row-major, then ts[k]), every digit of
    inv chain in [-2^(bits-1), 2^(bits-1)): one product with inv for every row."""
    read = _reader(bits, len(ts))
    digits = [read(v) for v in _int_product(inv, list(zip(*chain)))]
    # With no digits (s = 0) each row is its t alone.
    return [list(row) + [t] for row, t in zip(zip(*digits) if digits else repeat(()), ts)]


def _reader(bits, count):
    """The function that reads back the count signed digits e_k of
    v = sum_k 2^(bits k) e_k, each e_k in [-half, half) for half = 2^(bits-1).

    Adding half to each digit, the offset sum_k half 2^(bits k), leaves digits
    in [0, 2^bits): they are the base-2^bits digits of v plus the offset, so
    e_k is ((v + offset) >> bits k) & (2^bits - 1), minus half.
    """
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    offset = half * (((1 << (bits * count)) - 1) // mask)
    shifts = range(0, bits * count, bits)

    def read(v):
        v += offset
        return [((v >> shift) & mask) - half for shift in shifts]
    return read


def _pack(rows, bits):
    """The vector sum_k 2^(bits k) rows[k] of equal-length integer rows."""
    packed = rows[-1]
    for row in reversed(rows[:-1]):
        packed = [(p << bits) + v for p, v in zip(packed, row)]
    return packed


def _int_kernel(rows, n):
    """(vectors, prev): the nullspace of the first n columns of integer rows
    (consumed), for each free column f prev at f and -rows[k][f] at pivot k."""
    pivots, prev = _gauss_jordan_int(rows, n)
    return _kernel_vectors(rows, pivots, n, prev, 0), prev


def _reduce(vecs, n):
    """The canonical basis of the span of integer vectors, by free column
    ascending, as integer rows and their common denominator den: row k over den
    is basis vector k.

    RREF with the columns reversed puts each pivot at the last nonzero entry a
    vector of the span can have: exactly the free columns of any system whose
    kernel is the span, so each row is that kernel's basis vector for its
    free column, 1 there and 0 at the others.  Fraction-free Gauss-Jordan
    leaves every pivot row as the last pivot value times its RREF row.
    """
    rows = [v[::-1] for v in vecs]
    pivots, den = _gauss_jordan_int(rows, n)
    return [rows[k][::-1] for k in reversed(range(len(pivots)))], den


def _unvec(v, m, s, mode, den=1):
    """The m x s matrix of mode whose row-major stored entries are v[:m*s] over den."""
    return Matrix._trusted([v[i * s:(i + 1) * s] for i in range(m)], mode, s, den)


def system_residuals(bp, X, tol=None):
    """Residuals XA - DX, C - XBX (and w - Xx, y - zX in odd parity) of X on
    the split, and whether all vanish: X is multiplied by the blocks afresh,
    by the field's kernel on the split's operands."""
    F = _field(bp.A.mode)
    A, B, C, D, *center = bp.operands
    X = F.operand(X)
    terms = [((1, X, A), (-1, D, X)), ((1, C), (-1, X, B, X))]
    if center:
        x, w, z, y = center
        terms += [((1, w), (-1, X, x)), ((1, y), (-1, z, X))]
    (syl, ok), (quad, quad_ok), *extras = [F.residual(t, tol) for t in terms]
    return syl, quad, tuple(R for R, _ in extras), ok and quad_ok and all(e for _, e in extras)


def _special_pairs(bp):
    """For J, I and -J, the pairs (L, R) of index-mapped blocks whose differences
    L - R are the residuals system_residuals gives.

    JA is A with its rows reversed, DJ is D with its columns reversed and JBJ
    is B reversed both ways, so no product is formed; -J's Sylvester residual
    is DJ - JA and its quadratic residual is J's.  In approximate mode a
    product by a 0/1 matrix only adds terms +-0.0, so the differences equal the
    products' entry for entry up to the sign of zero.
    """
    exchange = tuple(_exchange_pairs(bp))
    (ja, dj), quad, *center = exchange
    identity = ((bp.A, bp.D), (bp.C, bp.B))
    negated = ((dj, ja), quad)
    if center:
        (w, jx), (y, zj) = center
        identity += ((w, bp.x), (y, bp.z))
        negated += ((w, -jx), (y, -zj))
    return exchange, identity, negated


def _residual_norm(mats):
    out = 0.0
    for m in mats:
        if m.rows and m.cols:
            out = max(out, float(m.max_abs()))
    return out


def _quadratic_roots(a, b, c, F, tol):
    """Roots of a t^2 + b t + c = 0 in the field F, and the discriminant when
    it has no square root there (else None)."""
    if F.is_zero(a, tol, b, c):
        if F.is_zero(b, tol, a, c):
            return [], None
        return [-c / b], None
    disc = b * b - 4 * a * c
    root = F.sqrt(disc)
    if root is None:
        return [], disc
    return sorted({(-b - root) / (2 * a), (-b + root) / (2 * a)}), None


def find_intertwiner(M, parity, s, options=None, *, stop_at_invertible=False):
    """Search for X solving the full equation system of the (parity, s) split.

    With stop_at_invertible, no candidate is tried, and the grid is not
    walked, once an invertible solution has been found (as with max_solutions
    once that many are found); the linear stage and the diagnostic are
    unchanged.
    """
    opts = options or SearchOptions()
    tol = opts.tol
    bp = split_blocks(M, parity, s)
    mode = M.mode
    F = _field(mode)
    m = bp.D.rows

    solutions = []
    best = [math.inf]

    def consider(X, screen=None):
        """Keep X if it solves the system.  screen holds the pairs whose
        differences are the candidate's residuals, when known: X is then a
        function that builds the candidate, called only once they vanish, and
        the candidate is multiplied out only then."""
        ok, residuals = (True, None) if screen is None else F.screen(screen, tol)
        if ok:
            if screen is not None:
                X = X()
            if any(X.eq(sol.X, tol) for sol in solutions):
                return
            syl, quad, extras, ok = system_residuals(bp, X, tol)
            residuals = (syl, quad) + extras
        if mode == APPROX:
            best[0] = min(best[0], _residual_norm(residuals))
        if ok:
            facts = gauss_facts(X, tol)
            solutions.append(IntertwinerSolution(X, syl, quad, facts.rank, facts.inverse))

    def full():
        return ((opts.max_solutions is not None and len(solutions) >= opts.max_solutions)
                or (stop_at_invertible and any(sol.invertible for sol in solutions)))

    # Special candidates come first, in a fixed order.
    if m == bp.A.rows:
        J = functools.partial(exchange_matrix, m, mode)
        builds = (J, functools.partial(Matrix.identity, m, mode), lambda: -J())
        for build, screen in zip(builds, _special_pairs(bp)):
            if not full():
                consider(build, screen)

    # The linear constraints on X: XA = DX, and in odd parity the inhomogeneous
    # center conditions w = X x and y = z X.
    center = (bp.x, bp.w, bp.z, bp.y) if bp.parity == "odd" else None
    particular, basis = _sylvester_space(bp.A, bp.D, center, tol)
    d = len(basis)
    diagnostic = None
    discriminant = None

    if particular is None:
        diagnostic = "linear constraints infeasible"
    elif d == 0:
        if not full():
            consider(particular)
        if not any(sol.invertible for sol in solutions):
            diagnostic = "Sylvester space trivial"
    elif d > opts.d_max:
        diagnostic = f"search exhausted: solution space dimension {d} exceeds d_max={opts.d_max}"
    elif d == 1:
        ts, discriminant, diagnostic, point = _solve_on_line(bp, particular, basis[0], F, tol)
        if discriminant is not None:
            diagnostic = "irrational discriminant: no solution over the working field"
        for t in ts:
            if full():
                break
            consider(point(t))
        # Every solution lies on the line and is a root of its first nonzero
        # equation, so an empty result here proves there is none.
        if not solutions and diagnostic is None:
            diagnostic = ("no solution on the line: no root of its first nonzero quadratic "
                          "equation solves the system" if ts else
                          "no solution on the line: its first nonzero quadratic equation "
                          "is a nonzero constant")
    elif not full():
        # A full search has a solution, so it needs no grid and no diagnostic.
        _grid_search(bp, particular, basis, opts.grid(mode), mode, tol, consider, full)
        if not solutions:
            diagnostic = f"search exhausted: no grid point solves the system in dimension {d}"

    best_residual = None if best[0] is math.inf else best[0]
    return IntertwinerSearch(solutions=tuple(solutions), basis=basis, diagnostic=diagnostic,
                             discriminant=discriminant, best_residual=best_residual)


def _quadratic_parts(bp, X0, basis):
    """(K, rows, r0, lin, quad): the row-major entries of K R0, K Rlin[i] and
    K Rquad[i][j] for one K > 0, where over X = X0 + sum t_i N_i,
    C - XBX = R0 - sum t_i Rlin[i] - sum t_i t_j Rquad[i][j].

    Exact mode works over the integers, with rows = (den, x0, ns) the integer rows
    of den X0 and den N_i.  Approximate mode forms them as Matrix products, whose
    bits the reports pin, with K = 1 and rows None.
    """
    if bp.B.mode == APPROX:
        # Every P_i B P_j over P = (X0, N_1, ...) from two products, the rows of
        # each P_i B against the columns of each P_j: each entry is the same
        # left-to-right sum as in P_i B P_j alone.
        m, s = X0.shape
        mats = (X0, *basis)
        table = (vstack(*mats) * bp.B * hstack(*mats)).to_lists()

        def part(i, j):
            return [v for r in table[i * m:(i + 1) * m] for v in r[j * s:(j + 1) * s]]
        k = range(1, len(mats))
        return (1, None, list(map(sub, _flat(bp.C.to_lists()), part(0, 0))),
                [list(map(add, part(i, 0), part(0, i))) for i in k],
                [[part(i, j) for j in k] for i in k])
    den, x0, *ns = _scaled_rows(X0, *basis)
    lbc, b, c = _scaled_rows(bp.B, bp.C)
    K = lbc * den * den
    # den X0 (den N_i) times lbc B times den X0 (den N_j) is K X0 B X0 (K N_i B N_j).
    b_cols = list(zip(*b))
    xb, *nbs = [[[sum(map(mul, r, col)) for col in b_cols] for r in M] for M in (x0, *ns)]
    x0_cols, *n_cols = [list(zip(*M)) for M in (x0, *ns)]
    r0 = list(map(sub, [den * den * v for v in _flat(c)], _int_product(xb, x0_cols)))
    lin = [list(map(add, _int_product(nb, x0_cols), _int_product(xb, nc)))
           for nb, nc in zip(nbs, n_cols)]
    quad = [[_int_product(nb, nc) for nc in n_cols] for nb in nbs]
    return K, (den, x0, ns), r0, lin, quad


def _flat(rows):
    return [v for row in rows for v in row]


def _solve_on_line(bp, X0, N, F, tol):
    """(ts, discriminant, diagnostic, point): the parameters t in the field F with
    C = (X0 + tN) B (X0 + tN) on the affine line, and point(t) = X0 + tN, which
    exact mode builds from the integer rows of X0 and N (_integer_hit)."""
    K, rows, r0, (r1,), ((r2,),) = _quadratic_parts(bp, X0, (N,))

    def point(t):
        return X0 + t * N if rows is None else _integer_hit(t.denominator, *rows, (t.numerator,))
    for a, b, c in zip(r2, r1, [-v for v in r0]):
        if not F.all_zero((a, b, c), tol):
            # Over K: the roots and the discriminant do not depend on the scale.
            roots, disc = _quadratic_roots(*(F.coerce(v) / K for v in (a, b, c)), F, tol)
            return roots, disc, None, point
    # The quadratic constraint holds identically along the line.
    return ([-F.one, F.zero, F.one], None, "one-parameter solution line; returning representatives",
            point)


def _grid_search(bp, X0, basis, values, mode, tol, consider, full):
    """Pass the grid points solving C = XBX to consider, in product(values, repeat=d) order;
    values are distinct, ascending and in the working field.

    Only the first d-1 coordinates u are searched: entry e of C - XBX is c - b*t - a*t^2
    in the last one, t, and each entry in turn keeps the values of t where it vanishes
    (exactly, or within the approximate threshold).  Exact mode walks the prefixes
    over scaled integers (_integer_grid) and builds each hit from the integer rows of
    X0 and the basis (_integer_hit); approximate mode walks only their first d-2
    coordinates and, at each value of the last prefix coordinate, tests the first
    entry only at the values of t in proven windows around its binary64 roots, or
    at every t where the windows are not finite or the entry is constant in t
    (_float_grid).  The order of values is what makes the windows a bisection.
    """
    k = len(basis) - 1
    _, rows, r0, lin, quad = _quadratic_parts(bp, X0, basis)
    if mode == EXACT:
        scale = math.lcm(*(v.denominator for v in values))
        ts = [v.numerator * (scale // v.denominator) for v in values]
        points = _integer_grid(scale, ts, k, r0, lin, quad)
        build = functools.partial(_integer_hit, scale, *rows)
    else:
        try:
            thresh = _field(mode).threshold(tol, bp.C, bp.B.max_abs() ** 2)
        except OverflowError:
            raise ValueError("the grid threshold overflows in approximate mode; use "
                             "exact mode") from None
        points = _float_grid(values, k, r0, lin, quad, thresh)

        def build(u):
            return sum((ti * N for ti, N in zip(u, basis)), X0)
    for u, survivors in points:
        for t in survivors:
            if full():
                return
            consider(build(u + (t,)))


def _integer_hit(scale, den, x0, ns, T):
    """X0 + sum u_i N_i at T = scale u, from the integer rows den X0 and den N_i:
    the integers scale x0 + sum T_i n_i over scale den."""
    return Matrix._trusted([[scale * v + sum(map(mul, T, col)) for v, col in zip(row, zip(*cols))]
                            for row, *cols in zip(x0, *ns)], EXACT, len(x0[0]), scale * den)


def _integer_grid(scale, ts, k, r0, lin, quad):
    """(U, the T at which every entry vanishes) for each prefix U of
    product(ts, repeat=k) with any, in that order; ts are the grid values times
    scale, the lcm of their denominators.

    Entry e of C - XBX, times scale^2 and a positive integer, is C - B*T - a*T^2
    in the last coordinate's T, with C and B integer polynomials in the prefix.
    For each head (the first k-1 prefix coordinates) the first entry's C and B
    are formed at every value V of the last prefix coordinate at once; only where
    it passes the first test of _grid_roots is the first entry that does not
    vanish solved for its grid roots, and each later entry filters them.
    """
    members = set(ts)
    last = k - 1
    head_pairs = [(i, j) for i in range(last) for j in range(i, last)]
    pairs = head_pairs + [(i, last) for i in range(k)]
    entries = []
    for e in range(len(r0)):
        # C = c0 - c . (U_i, then U_i U_j over pairs) and B = b0 + b . U.
        coeffs = ([scale * scale * r0[e], scale * lin[k][e], quad[k][k][e]]
                  + [scale * lin[i][e] for i in range(k)]
                  + [quad[i][j][e] + quad[j][i][e] if i < j else quad[i][i][e] for i, j in pairs]
                  + [quad[i][k][e] + quad[k][i][e] for i in range(k)])
        # An entry that vanishes identically keeps every value.
        if any(coeffs):
            g = math.gcd(*coeffs)
            c0, b0, a, *rest = [v // g for v in coeffs]
            entries.append((c0, rest[:-k], b0, rest[-k:], a))
    if not entries:
        for U in product(ts, repeat=k):
            yield U, ts
        return
    (c0, c, b0, b, a), *later = entries
    # The first entry at U = head + (V,): C = C0 - V (CV + cvv V) and B = B0 + bv V.
    n_head = k + len(head_pairs)
    c_head, cv, c_cross = c[:last] + c[k:n_head], c[last], c[n_head:-1]
    cvv, bv = c[-1], b[last]
    for head in product(ts, repeat=last):
        C0 = c0 - sum(map(mul, head + tuple(head[i] * head[j] for i, j in head_pairs), c_head))
        CV = cv + sum(map(mul, head, c_cross))
        B0 = b0 + sum(map(mul, head, b))
        Cs = [C0 - V * (CV + cvv * V) for V in ts]
        Bs = [B0 + bv * V for V in ts]
        if a:
            discs = [B * B + 4 * a * C for C, B in zip(Cs, Bs)]
            keep = [n for n, q in enumerate(discs) if q >= 0 and math.isqrt(q) ** 2 == q]
        else:
            keep = [n for n, (C, B) in enumerate(zip(Cs, Bs)) if not (C % B if B else C)]
        for n in keep:
            U = head + (ts[n],)
            survivors = _grid_roots(a, Bs[n], Cs[n], ts, members)
            monomials = U + tuple(U[i] * U[j] for i, j in pairs)
            for c0e, ce, b0e, be, ae in later:
                if not survivors:
                    break
                C = c0e - sum(map(mul, monomials, ce))
                B = b0e + sum(map(mul, U, be))
                if survivors is ts:
                    survivors = _grid_roots(ae, B, C, ts, members)
                else:
                    survivors = [T for T in survivors if (ae * T + B) * T == C]
            if survivors:
                yield U, survivors


def _grid_roots(a, b, c, ts, members):
    """The T of ts with a T^2 + b T = c, ascending (members is the set of ts);
    ts itself when a = b = c = 0.

    The integer roots come from the discriminant's integer square root, or from
    one division when a = 0, so the grid values are never tried one by one.
    """
    if a:
        disc = b * b + 4 * a * c
        root = math.isqrt(disc) if disc >= 0 else None
        if root is None or root * root != disc:
            return []
        quotients = [divmod(num, 2 * a) for num in {-b - root, -b + root}]
    elif b:
        quotients = [divmod(c, b)]
    else:
        return [] if c else ts
    return sorted(q for q, rem in quotients if not rem and q in members)


def _float_grid(values, k, r0, lin, quad, thresh):
    """(u, the values t at which every entry is within thresh of 0) for each prefix u
    with any, in product(values, repeat=k) order; values must be ascending.

    The first k-1 coordinates (the head) are walked.  At each value v of the last
    prefix coordinate the first entry, c - b*t - a*t^2, is solved for t in binary64
    and only the values in proven windows around its roots get the test
    abs(c - b*t - t*t*a) <= thresh (_first_entry); each later entry filters the t
    that survive.  The c and b of an entry are the same float operations, in the
    same order, for every prefix, and each entry's head dot products are formed
    once per head.

    The windows: with u = 2^-53, T = max |values| and cmax, bmax the largest |c|
    and |b| over the head, the test errs from the exact c - b t - a t^2 by at most
    3u/(1-3u) (|c| + |b| T + |a| T^2) (Higham, Accuracy and Stability of Numerical
    Algorithms, section 3.1) plus 2^-1075 per product that underflows (|a| 2^-1075
    for t*t), so a t that passes has |c - b t - a t^2| <= h, where
        h = thresh + EPS (thresh + cmax + bmax T + |a| max(T^2, TINY)) + TINY,
    EPS = 2^-44 = 512u and TINY = 2^-1022 (the least normal double) also cover,
    with room to spare, each rounding (u relative, 2^-1075 absolute) of h and of
    the quantities below.  For a != 0, c - b t - a t^2 = -a ((t - m)^2 - D/(4a^2))
    with m = -b/(2a) and D = b^2 + 4ac, and S = 4|a| h + EPS (bmax^2 + 4|a| cmax)
    + TINY bounds 4|a| h plus the rounding of D: no t passes where D + S < 0, and
    elsewhere sqrt(max(D - S, 0)) <= 2|a| |t - m| <= sqrt(D + S), one window
    around each root (or around m), each widened on both sides by
    EPS (bmax + sqrt(bmax^2 + 4|a| cmax + S)) / (2|a|) + TINY, EPS times bounds on
    |m| and on the outer radius.  For a = 0 != b, |t - c/b| <= h/|b|, widened by
    EPS (|c/b| + h/|b|) + TINY.  A v with a = b = 0, or a widening that is not
    finite (an overflow, or thresh = inf), tests every t.  At a v whose c or b is
    NaN no t passes, whichever values its window holds.
    """
    # Per entry: its coefficients for _entry_columns, then t*t*a at every grid value t.
    entries = [((r0[e], [lin[i][e] for i in range(k + 1)],
                 [[quad[i][j][e] for j in range(k)] for i in range(k)],
                 [quad[i][k][e] + quad[k][i][e] for i in range(k)]),
                [t * t * a for t in values])
               for e, a in enumerate(quad[k][k])]
    (coeffs, tta), *later = entries
    for head in product(values, repeat=k - 1):
        cs, bs = _entry_columns(head, values, *coeffs)
        # (iv, its) for each v = values[iv] that every entry so far keeps; each
        # later entry is evaluated once per head, at all of them at once.
        alive = list(_first_entry(values, tta, quad[k][k][0], cs, bs, thresh))
        for coeffs_e, tta_e in later:
            if not alive:
                break
            cs, bs = _entry_columns(head, [values[iv] for iv, _ in alive], *coeffs_e)
            alive = [(iv, kept) for (iv, its), c, b in zip(alive, cs, bs)
                     if (kept := [it for it in its
                                  if abs(c - b * values[it] - tta_e[it]) <= thresh])]
        for iv, its in alive:
            yield head + (values[iv],), [values[it] for it in its]


# EPS and TINY of _float_grid's windows: relative and absolute rounding margins.
_EPS, _TINY = 2.0 ** -44, 2.0 ** -1022


def _first_entry(values, tta, a, cs, bs, thresh):
    """(iv, the ascending indices it with abs(c - b*values[it] - tta[it]) <= thresh)
    for each c = cs[iv] and b = bs[iv] with any; tta holds t*t*a at every value t,
    and only the t in the windows of _float_grid's docstring are tested."""
    n = len(values)
    big_t, c_max, b_max = max(-values[0], values[-1]), max(map(abs, cs)), max(map(abs, bs))
    a_t2 = abs(a) * max(big_t * big_t, _TINY)
    h = thresh + _EPS * (thresh + c_max + b_max * big_t + a_t2) + _TINY
    if a:
        four_a, two_a = 4 * a, abs(2 * a)
        slack = abs(four_a) * h + _EPS * (b_max * b_max + abs(four_a) * c_max) + _TINY
        pad = _EPS * ((b_max + math.sqrt(b_max * b_max + abs(four_a) * c_max + slack)) / two_a)
        pad += _TINY
    for iv, c, b in zip(range(n), cs, bs):
        if a:
            disc = b * b + four_a * c
            if disc + slack < 0:
                continue
            mid, outer = b / (-2 * a), math.sqrt(disc + slack) / two_a
            inner = math.sqrt(disc - slack) / two_a if disc > slack else 0.0
        elif b:
            mid, inner, outer = c / b, 0.0, h / abs(b)
            pad = _EPS * (abs(mid) + outer) + _TINY
        else:
            pad = math.inf
        if pad < math.inf:
            # The values in [mid - outer, mid - inner] and [mid + inner, mid + outer],
            # each widened by pad on both sides.
            its, it = [], bisect_left(values, mid - outer - pad)
            while it < n and values[it] <= mid - inner + pad:
                its.append(it)
                it += 1
            it = bisect_left(values, mid + inner - pad, it)
            while it < n and values[it] <= mid + outer + pad:
                its.append(it)
                it += 1
        else:
            its = range(n)
        if its:
            its = [it for it in its if abs(c - b * values[it] - tta[it]) <= thresh]
            if its:
                yield iv, its


def _entry_columns(head, vs, r0, lin, quad, sym):
    """c and b of one entry at the prefixes head + (v,), one per v in vs.

    Over the prefix u, c = r0 - sum_i u_i (lin_i + sum_j u_j quad_ij) and
    b = lin_k + sum_i u_i sym_i, every sum taken left to right from 0 (sum() rounds
    floats differently since Python 3.12, which would move results across versions).
    """
    last = len(head)
    acc = [0.0] * len(vs)
    for i, row in enumerate(quad):
        part, q, li = _dot(head, row), row[last], lin[i]
        us = vs if i == last else repeat(head[i])
        acc = [s + u * (li + (part + v * q)) for s, u, v in zip(acc, us, vs)]
    part, q, lk = _dot(head, sym), sym[last], lin[last + 1]
    return [r0 - s for s in acc], [lk + (part + v * q) for v in vs]


def _dot(head, coeffs):
    """sum_j head_j coeffs_j over the head, left to right from 0."""
    acc = 0.0
    for u, c in zip(head, coeffs):
        acc += u * c
    return acc


class RiccatiWitness(_Record):
    def __init__(self, orientation: str, W: Matrix, residual: Matrix, blocks: BlockPartition):
        self.__dict__.update(orientation=orientation, W=W, residual=residual, blocks=blocks)

    def is_exact(self, tol=None):
        return self.residual.is_zero(tol)


def riccati_residual(M, s, W, orientation, tol=None):
    """Residual of C = XA - DX + XBX (lower) or B = YD - AY + YCY (upper)."""
    bp = split_blocks(M, "even", s)
    n = M.rows
    if orientation not in ("lower", "upper"):
        raise DimensionError(f"orientation must be 'lower' or 'upper', got {orientation!r}")
    # The upper equation is the lower one with A, B, C, D read as D, C, B, A.
    shape, (A, B, C, D) = (((n - s, s), bp.operands) if orientation == "lower"
                           else ((s, n - s), bp.operands[::-1]))
    if W.shape != shape:
        raise DimensionError(f"{orientation} witness must be {shape}, got {W.shape}")
    F = _field(M.mode)
    V = F.operand(W)
    residual, _ = F.residual(((1, C), (-1, V, A), (1, D, V), (-1, V, B, V)), tol)
    return RiccatiWitness(orientation=orientation, W=W, residual=residual, blocks=bp)


def singular_certificate(M, s, W, system, tol=None):
    """Check one of the four zero-determinant equation pairs for witness W != 0.

    1: C = XA  and DX = XBX      2: C = -DX and XA = -XBX
    3: B = YD  and AY = YCY      4: B = -AY and YD = -YCY
    """
    if W.is_zero(tol):
        raise PreconditionError("the certificate requires a nonzero witness")
    bp = split_blocks(M, "even", s)
    n = M.rows
    if system not in (1, 2, 3, 4):
        raise DimensionError(f"system must be 1, 2, 3 or 4, got {system!r}")
    # Systems 3-4 are systems 1-2 with A, B, C, D read as D, C, B, A.
    name, shape, (A, B, C, D) = (("1-2 use X", (n - s, s), bp.operands) if system < 3
                                 else ("3-4 use Y", (s, n - s), bp.operands[::-1]))
    if W.shape != shape:
        raise DimensionError(f"systems {name} of shape {shape}, got {W.shape}")
    F = _field(M.mode)
    V = F.operand(W)
    if system % 2:
        return F.equal((C,), (V, A), tol) and F.equal((D, V), (V, B, V), tol)
    return F.equal((C,), (D, V), tol, -1) and F.equal((V, A), (V, B, V), tol, -1)
