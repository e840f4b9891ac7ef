"""Solvers for the coupled block equations XA = DX, C = XBX and friends.

The search ladder for an intertwiner is deliberately simple and fully
deterministic: special candidates (J, I, -J) are tried first, a
one-dimensional solution space is handled by exact rational root finding,
small spaces (dimension <= d_max) by a bounded rational grid, and anything
larger is reported as exhausted.  Every hit is re-verified by independent
matrix multiplication, so the ladder can miss solutions but never return a
wrong one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul

from .errors import DimensionError, PreconditionError
from .linalg import _gauss_jordan_int, _rref_exact, gauss_facts, solve_linear
from .matrix import APPROX, EXACT, BlockPartition, Matrix, _exchange, _field, split_blocks


def default_grid_values(numer_max=5, denom_max=3):
    """All reduced rationals p/q with |p| <= numer_max, 1 <= q <= denom_max."""
    vals = {Fraction(0)}
    for q in range(1, denom_max + 1):
        for p in range(1, numer_max + 1):
            vals.add(Fraction(p, q))
            vals.add(Fraction(-p, q))
    return tuple(sorted(vals))


@dataclass(frozen=True)
class SearchOptions:
    d_max: int = 3
    grid_numer_max: int = 5
    grid_denom_max: int = 3
    grid_values: tuple | None = None
    max_solutions: int | None = None
    tol: float | None = None

    def __post_init__(self):
        for name, least in (("d_max", 0), ("grid_numer_max", 0), ("grid_denom_max", 1),
                            ("max_solutions", 1)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")

    def grid(self, mode):
        vals = self.grid_values
        if vals is None:
            vals = default_grid_values(self.grid_numer_max, self.grid_denom_max)
        else:
            vals = sorted(Fraction(v) for v in vals)
        return tuple(map(_field(mode).coerce, vals))


@dataclass(frozen=True)
class IntertwinerSolution:
    X: Matrix
    sylvester_residual: Matrix
    quadratic_residual: Matrix
    rank: int
    invertible: bool


@dataclass(frozen=True)
class IntertwinerSearch:
    """Ordered solutions plus the linear-stage data and any diagnostic."""

    solutions: tuple
    basis: tuple
    particular: Matrix | None
    diagnostic: str | None
    discriminant: object = None
    best_residual: float | None = None

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
    """Basis of {X : XA = DX}: the canonical kernel basis of the vectorized system."""
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


def _linear_stage(bp, tol):
    """Affine solution set of all linear constraints on X.

    Even parity: the homogeneous Sylvester system alone.  Odd parity folds in
    the center conditions w = X x and y = z X, which are inhomogeneous.
    """
    center = (bp.x, bp.w, bp.z, bp.y) if bp.parity == "odd" else None
    return _sylvester_space(bp.A, bp.D, center, tol)


def _sylvester_space(A, D, center=None, tol=None):
    """(particular or None, basis) of XA = DX, and of X x = w, z X = y as well
    when center = (x, w, z, y).

    Both are the ones elimination on the vectorized system gives: for each
    free column of row-major vec(X), ascending, the basis matrix that is 1
    there and 0 at the other free columns, and a particular solution that is 0
    at every free column (None when the system is inconsistent).  Exact mode
    reaches them by the Krylov reduction of D when a unit vector is cyclic for
    D, by elimination otherwise, and re-checks each one by multiplication;
    approximate mode eliminates.
    """
    if A.mode == APPROX:
        return _eliminate(A, D, center, tol)
    # XA = DX is unchanged when A and D are scaled by the lcm of their denominators.
    scale = _lcm_denominators(A, D)
    a = _int_rows(A, scale)
    d = _int_rows(D, scale)
    space = _krylov_space(a, d, center) or _eliminate(A, D, center, tol)
    _recheck(a, d, center, *space)
    return space


def _recheck(a, d, center, particular, basis):
    """Raise PreconditionError unless every basis matrix N solves the homogeneous
    system (NA = DN, and N x = 0, z N = 0 under center) and the particular
    solution P the full one (PA = DP, and P x = w, z P = y under center).

    NA = DN is compared over the integers: a and d are the rows of A and D
    times one common scale, and N is scaled by the lcm of its denominators.
    """
    a_cols = list(zip(*a))

    def solves(X, homogeneous):
        x_int = _int_rows(X, _lcm_denominators(X))
        x_cols = list(zip(*x_int))
        if ([[sum(map(mul, row, col)) for col in a_cols] for row in x_int]
                != [[sum(map(mul, row, col)) for col in x_cols] for row in d]):
            return False
        if center is None:
            return True
        x, w, z, y = center
        if homogeneous:
            return (X * x).is_zero() and (z * X).is_zero()
        return X * x == w and z * X == y

    for N in basis:
        if not solves(N, True):
            raise PreconditionError("nullspace vector fails XA = DX re-check", payload=N)
    if particular is not None and not solves(particular, False):
        raise PreconditionError("particular solution fails the linear-stage re-check",
                                payload=particular)


def _eliminate(A, D, center, tol):
    """_sylvester_space by Gauss-Jordan on the s*m-unknown vectorized system."""
    s = A.rows
    m = D.rows
    n_unknowns = m * s
    zero = _field(A.mode).zero
    rows = _sylvester_rows(A, D)
    rhs = [zero] * len(rows)
    if center is not None:
        x, w, z, y = center
        for p in range(m):
            row = [zero] * n_unknowns
            for j in range(s):
                row[_vec_index(p, j, s)] = x[j, 0]
            rows.append(row)
            rhs.append(w[p, 0])
        for q in range(s):
            row = [zero] * n_unknowns
            for i in range(m):
                row[_vec_index(i, q, s)] = z[0, i]
            rows.append(row)
            rhs.append(y[0, q])
    K = Matrix._trusted(rows, A.mode, n_unknowns)
    b = Matrix._trusted([(v,) for v in rhs], A.mode, 1)
    particular, basis = solve_linear(K, b, tol)
    if particular is not None:
        particular = _unvec(particular.col(0), m, s, A.mode)
    return particular, tuple(_unvec(v.col(0), m, s, A.mode) for v in basis)


def _vec_index(i, j, s):
    return i * s + j


def _sylvester_rows(A, D):
    """Coefficient rows of (XA - DX) entry (p, q) over row-major vec(X)."""
    s = A.rows
    m = D.rows
    zero = _field(A.mode).zero
    rows = []
    for p in range(m):
        for q in range(s):
            row = [zero] * (m * s)
            for j in range(s):
                row[_vec_index(p, j, s)] += A[j, q]
            for i in range(m):
                row[_vec_index(i, q, s)] -= D[p, i]
            rows.append(row)
    return rows


def _lcm_denominators(*mats):
    return math.lcm(*[v.denominator for M in mats for i in range(M.rows) for v in M.row(i)])


def _int_rows(M, scale):
    """The rows of scale * M as integers; scale is a multiple of every denominator."""
    return [[v.numerator * (scale // v.denominator) for v in M.row(i)] for i in range(M.rows)]


def _krylov_space(a, d, center):
    """Exact _sylvester_space through a cyclic unit vector of D; None when D has none.

    If T = [v, Dv, ..., D^(m-1) v] is invertible and f(t) = t^m + sum c_p t^p is
    the characteristic polynomial of D (so D^m v = -sum c_p D^p v), then X = T Y
    solves XA = DX exactly when the rows of Y are y_p = z h_p(A), with
    h_(m-1) = I and h_(p-1) = h_p A + c_p I, for a row z with z f(A) = 0: the
    companion-form solution of Gantmacher, The Theory of Matrices, vol. 1,
    ch. VIII.  a and d are the rows of A and D times one common scale, so all
    of this runs over the integers, in O(s^4) operations plus an s x s
    nullspace instead of elimination on s*m unknowns.
    """
    s, m = len(a), len(d)
    for i in range(m):
        krylov = [[int(k == i) for k in range(m)]]
        for _ in range(m):
            krylov.append([sum(map(mul, row, krylov[-1])) for row in d])
        # [T | -D^m v]: T is invertible iff e_i is cyclic, and then solves to c.
        aug = [[vec[r] for vec in krylov[:m]] + [-krylov[m][r]] for r in range(m)]
        pivots, prev = _gauss_jordan_int(aug, m)
        if len(pivots) == m:
            break
    else:
        return None
    c = [row[m] // prev for row in aug]
    a_cols = list(zip(*a))
    f_of_a = [[int(j == k) for k in range(s)] for j in range(s)]
    for p in reversed(range(m)):
        f_of_a = [[sum(map(mul, row, col)) + (c[p] if j == k else 0)
                   for k, col in enumerate(a_cols)] for j, row in enumerate(f_of_a)]
    t_rows = list(zip(*krylov[:m]))
    vecs = []
    # The rows z with z f(A) = 0: the nullspace of f(A) transposed.
    for z in _int_kernel([list(col) for col in zip(*f_of_a)], s):
        ys = [z]
        for p in range(m - 1, 0, -1):
            ys.append([sum(map(mul, ys[-1], col)) + c[p] * zj for col, zj in zip(a_cols, z)])
        y_cols = list(zip(*ys[::-1]))
        vecs.append([sum(map(mul, t, yc)) for t in t_rows for yc in y_cols])
    return _canonical_space(vecs, m, s, center)


def _int_kernel(rows, n):
    """An integer basis of the nullspace of the first n columns of integer rows
    (consumed): for each free column f, prev at f and -rows[k][f] at pivot k."""
    pivots, prev = _gauss_jordan_int(rows, n)
    basis = []
    for f in range(n):
        if f not in pivots:
            v = [0] * n
            v[f] = prev
            for k, p in enumerate(pivots):
                v[p] = -rows[k][f]
            basis.append(v)
    return basis


def _canonical_space(vecs, m, s, center):
    """(particular or None, basis) in the canonical form of _sylvester_space, from
    the row-major vec(X) of a basis of the Sylvester space.

    Both come from one canonical basis of the pairs (X, tau) with XA = DX and,
    under center, X x = tau w and z X = tau y.  Column tau is free exactly when
    the system is consistent, and its basis vector is then (particular, 1).
    """
    n = m * s
    if center is None:
        vecs = [v + [0] for v in vecs] + [[0] * n + [1]]
    else:
        # Over X = sum t_k N_k the center conditions are m + s equations in (t, tau),
        # each scaled to integers.
        x, w, z, y = center
        scale = _lcm_denominators(x, w)
        x_int = [r[0] for r in _int_rows(x, scale)]
        rows = [[sum(map(mul, v[p * s:(p + 1) * s], x_int)) for v in vecs] + [-r[0]]
                for p, r in enumerate(_int_rows(w, scale))]
        scale = _lcm_denominators(z, y)
        z_int = _int_rows(z, scale)[0]
        rows += [[sum(map(mul, v[q::s], z_int)) for v in vecs] + [-yq]
                 for q, yq in enumerate(_int_rows(y, scale)[0])]
        cols = list(zip(*vecs)) if vecs else [()] * n
        vecs = [[sum(map(mul, t, col)) for col in cols] + [t[-1]]
                for t in _int_kernel(rows, len(vecs) + 1)]
    basis = _reduce(vecs, n + 1)
    particular = _unvec(basis.pop(), m, s) if basis and basis[-1][n] else None
    return particular, tuple(_unvec(b, m, s) for b in basis)


def _reduce(vecs, n):
    """The canonical basis of span(vecs), by free column ascending.

    RREF with the columns reversed puts each pivot at the last nonzero entry a
    vector of the span can have: exactly the free columns of any system whose
    kernel is the span, so each row is that kernel's basis vector for its
    free column, 1 there and 0 at the others.
    """
    rows = [v[::-1] for v in vecs]
    rank_ = len(_rref_exact(rows, n))
    return [rows[k][::-1] for k in reversed(range(rank_))]


def _unvec(v, m, s, mode=EXACT):
    """The m x s matrix whose row-major entries are v[:m*s]."""
    return Matrix._trusted([v[i * s:(i + 1) * s] for i in range(m)], mode, s)


def system_residuals(bp, X, tol=None):
    """Residuals of every equation the split imposes on X; exact iff all zero."""
    syl = X * bp.A - bp.D * X
    quad = bp.C - X * bp.B * X
    extras = ()
    if bp.parity == "odd":
        extras = (bp.w - X * bp.x, bp.y - bp.z * X)
    ok = syl.is_zero(tol) and quad.is_zero(tol) and all(e.is_zero(tol) for e in extras)
    return syl, quad, extras, ok


def _make_solution(bp, X, syl, quad, tol):
    facts = gauss_facts(X, tol)
    invertible = X.is_square and facts.rank == X.rows
    return IntertwinerSolution(X=X, sylvester_residual=syl, quadratic_residual=quad,
                               rank=facts.rank, invertible=invertible)


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


def find_intertwiner(M, parity, s, options=None):
    """Search for X solving the full equation system of the (parity, s) split."""
    opts = options or SearchOptions()
    tol = opts.tol
    bp = split_blocks(M, parity, s)
    mode = M.mode
    F = _field(mode)
    m = bp.D.rows

    solutions = []
    seen = []
    best = [math.inf]

    def consider(X):
        if any(X.eq(prev, tol) for prev in seen):
            return
        syl, quad, extras, ok = system_residuals(bp, X, tol)
        if mode == APPROX:
            best[0] = min(best[0], _residual_norm((syl, quad) + extras))
        if ok:
            solutions.append(_make_solution(bp, X, syl, quad, tol))
            seen.append(X)

    def full():
        return opts.max_solutions is not None and len(solutions) >= opts.max_solutions

    # Special candidates come first, in a fixed order.
    if m == bp.A.rows:
        J = _exchange(m, mode)
        for cand in (J, Matrix.identity(m, mode), -J):
            if not full():
                consider(cand)

    particular, basis = _linear_stage(bp, tol)
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
        ts, discriminant, diagnostic = _solve_on_line(bp, particular, basis[0], F, tol)
        if discriminant is not None:
            diagnostic = "irrational discriminant: no solution over the working field"
        for t in ts:
            if full():
                break
            consider(particular + t * basis[0])
        # Every solution lies on the line and is a root of its first nonzero
        # equation, so an empty result here proves there is none.
        if not solutions and diagnostic is None:
            diagnostic = ("no solution on the line: no root of its first nonzero quadratic "
                          "equation solves the system" if ts else
                          "no solution on the line: its first nonzero quadratic equation "
                          "is a nonzero constant")
    else:
        _grid_search(bp, particular, basis, opts, mode, tol, consider, full)
        if not solutions:
            diagnostic = f"search exhausted: no grid point solves the system in dimension {d}"

    best_residual = None if best[0] is math.inf else best[0]
    return IntertwinerSearch(solutions=tuple(solutions), basis=basis,
                             particular=particular, diagnostic=diagnostic,
                             discriminant=discriminant, best_residual=best_residual)


def _quadratic_parts(bp, X0, basis):
    """Row-major entries of R0, Rlin[i], Rquad[i][j]: over X = X0 + sum t_i N_i,
    C - XBX = R0 - sum t_i Rlin[i] - sum t_i t_j Rquad[i][j]."""
    XB = X0 * bp.B
    NB = [N * bp.B for N in basis]
    return (_entries(bp.C - XB * X0), [_entries(P * X0 + XB * N) for P, N in zip(NB, basis)],
            [[_entries(P * N) for N in basis] for P in NB])


def _entries(R):
    return [v for row in R.to_lists() for v in row]


def _solve_on_line(bp, X0, N, F, tol):
    """Parameters t in the field F with C = (X0 + tN) B (X0 + tN) on the affine line."""
    r0, (r1,), ((r2,),) = _quadratic_parts(bp, X0, (N,))
    for a, b, c in zip(r2, r1, [-v for v in r0]):
        if not F.all_zero((a, b, c), tol):
            roots, disc = _quadratic_roots(a, b, c, F, tol)
            return roots, disc, None
    # The quadratic constraint holds identically along the line.
    return [-F.one, F.zero, F.one], None, "one-parameter solution line; returning representatives"


def _grid_search(bp, X0, basis, opts, mode, tol, consider, full):
    """Pass the grid points solving C = XBX to consider, in product(values, repeat=d) order.

    Only the first d-1 coordinates u are walked: entry e of C - XBX is c - b*t - a*t^2 in
    the last one, t, and each entry in turn keeps the values of t where it vanishes
    (exactly, or within the approximate threshold).
    """
    k = len(basis) - 1
    values = opts.grid(mode)
    r0, lin, quad = _quadratic_parts(bp, X0, basis)
    if mode == EXACT:
        points = _integer_grid(values, k, r0, lin, quad)
    else:
        thresh = _field(mode).threshold(tol, bp.C, bp.B.max_abs() ** 2)
        points = _float_grid(values, k, r0, lin, quad, thresh)
    for u, survivors in points:
        for t in survivors:
            if full():
                return
            consider(sum((ti * N for ti, N in zip(u + (t,), basis)), X0))


def _integer_grid(values, k, r0, lin, quad):
    """(u, the values t at which every entry vanishes) for each prefix u with any.

    With L the lcm of the grid denominators, every value v is the integer T = L v,
    and entry e times L^2 and the lcm of its own denominators is the integer
    quadratic C - B*T - a*T^2 in the last coordinate's T, where C and B are integer
    polynomials in the prefix's T values.  Only the surviving points are turned
    back into Fractions.
    """
    scale = math.lcm(*(v.denominator for v in values))
    ts = [v.numerator * (scale // v.denominator) for v in values]
    value = dict(zip(ts, values))
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    entries = []
    for e in range(len(r0)):
        # C = c0 - c . (U_i, then U_i U_j for i <= j) and B = b0 + b . U.
        coeffs = ([scale * scale * r0[e], scale * lin[k][e], quad[k][k][e]]
                  + [scale * lin[i][e] for i in range(k)]
                  + [quad[i][j][e] + quad[j][i][e] if i < j else quad[i][i][e] for i, j in pairs]
                  + [quad[i][k][e] + quad[k][i][e] for i in range(k)])
        # An entry that vanishes identically keeps every value.
        if any(coeffs):
            lcm = math.lcm(*(v.denominator for v in coeffs))
            c0, b0, a, *rest = [v.numerator * (lcm // v.denominator) for v in coeffs]
            entries.append((c0, rest[:-k], b0, rest[-k:], a))
    for U in product(ts, repeat=k):
        monomials = U + tuple(U[i] * U[j] for i, j in pairs)
        survivors = ts
        for c0, c, b0, b, a in entries:
            C = c0 - sum(map(mul, monomials, c))
            B = b0 + sum(map(mul, U, b))
            survivors = [T for T in survivors if (a * T + B) * T == C]
            if not survivors:
                break
        else:
            yield tuple(map(value.get, U)), [value[T] for T in survivors]


def _float_grid(values, k, r0, lin, quad, thresh):
    """(u, the values t at which every entry is within thresh of 0) for each prefix u."""
    for u in product(values, repeat=k):
        survivors = values
        for e, a in enumerate(quad[k][k]):
            c = r0[e] - sum(u[i] * (lin[i][e] + sum(u[j] * quad[i][j][e] for j in range(k)))
                            for i in range(k))
            b = lin[k][e] + sum(u[i] * (quad[i][k][e] + quad[k][i][e]) for i in range(k))
            survivors = [t for t in survivors if abs(c - b * t - t * t * a) <= thresh]
            if not survivors:
                break
        yield u, survivors


@dataclass(frozen=True)
class RiccatiWitness:
    orientation: str
    W: Matrix
    residual: Matrix
    blocks: BlockPartition

    def is_exact(self, tol=None):
        return self.residual.is_zero(tol)


def riccati_residual(M, s, W, orientation, tol=None):
    """Residual of C = XA - DX + XBX (lower) or B = YD - AY + YCY (upper)."""
    bp = split_blocks(M, "even", s)
    n = M.rows
    if orientation == "lower":
        if W.shape != (n - s, s):
            raise DimensionError(f"lower witness must be {(n - s, s)}, got {W.shape}")
        residual = bp.C - W * bp.A + bp.D * W - W * bp.B * W
    elif orientation == "upper":
        if W.shape != (s, n - s):
            raise DimensionError(f"upper witness must be {(s, n - s)}, got {W.shape}")
        residual = bp.B - W * bp.D + bp.A * W - W * bp.C * W
    else:
        raise DimensionError(f"orientation must be 'lower' or 'upper', got {orientation!r}")
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
    if system in (1, 2):
        if W.shape != (n - s, s):
            raise DimensionError(f"systems 1-2 use X of shape {(n - s, s)}, got {W.shape}")
        if system == 1:
            return bp.C.eq(W * bp.A, tol) and (bp.D * W).eq(W * bp.B * W, tol)
        return bp.C.eq(-(bp.D * W), tol) and (W * bp.A).eq(-(W * bp.B * W), tol)
    if system in (3, 4):
        if W.shape != (s, n - s):
            raise DimensionError(f"systems 3-4 use Y of shape {(s, n - s)}, got {W.shape}")
        if system == 3:
            return bp.B.eq(W * bp.D, tol) and (bp.A * W).eq(W * bp.C * W, tol)
        return bp.B.eq(-(bp.A * W), tol) and (W * bp.D).eq(-(W * bp.C * W), tol)
    raise DimensionError(f"system must be 1, 2, 3 or 4, got {system!r}")
