"""Dense matrices over exact rationals or tolerance-compared floats.

Exact mode stores every entry as a ``fractions.Fraction`` (always in lowest
terms with positive denominator).  Approximate mode stores binary64 floats and
compares entries with a relative tolerance.  The two modes never mix inside
one operation; doing so raises :class:`~centrosim.errors.ModeError`.

Everything a mode decides about its scalars (zero and one, coercion, equality
and zero tests, the tolerance, thresholds, JSON form, square roots) lives in
one field object per mode, ``_field(mode)``; the other modules ask it rather
than test the mode.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import DimensionError, ModeError

EXACT = "exact"
APPROX = "approx"

# Relative tolerance used by approximate-mode comparisons when none is given.
DEFAULT_TOL = 1e-9


def _clear_denominators(rows):
    """Each Fraction row times the lcm of its denominators: (int rows, row scales)."""
    int_rows = []
    scales = []
    for row in rows:
        li = math.lcm(*(v.denominator for v in row))
        int_rows.append([v.numerator * (li // v.denominator) for v in row])
        scales.append(li)
    return int_rows, scales


class _ExactField:
    """Fractions compared exactly: a tolerance is accepted and ignored, every
    threshold is 0."""

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, bool):
            raise ModeError("boolean is not a valid exact scalar")
        if isinstance(value, (int, Fraction, str)):
            return Fraction(value)
        if isinstance(value, float):
            raise ModeError("float entry in exact mode; use approx mode or a 'p/q' string")
        raise ModeError(f"cannot use {type(value).__name__} as an exact scalar")

    def eq(self, a, b, tol=None):
        return a == b

    def is_zero(self, a, tol=None, *scales):
        return not a

    def rows_eq(self, rows1, rows2, tol=None):
        """Entrywise equality of two tuples of equal-length row tuples."""
        return rows1 == rows2

    def all_zero(self, values, tol=None):
        return not any(values)

    def threshold(self, tol, *scales):
        return 0

    def to_json(self, v):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

    def matmul(self, a, b, p):
        """Rows of the product of row tuples a and b (b has p columns).

        Each row of a and each column of b is scaled by the lcm of its
        denominators, so an entry is one integer dot product over one Fraction.
        """
        rows, row_scales = _clear_denominators(a)
        cols, col_scales = _clear_denominators(zip(*b) if b else [()] * p)
        return [[Fraction(sum(map(mul, r, c)), lr * lc) for c, lc in zip(cols, col_scales)]
                for r, lr in zip(rows, row_scales)]

    def sqrt(self, x):
        """The rational square root of x, or None when it has none."""
        if x < 0:
            return None
        pn = math.isqrt(x.numerator)
        pd = math.isqrt(x.denominator)
        if pn * pn == x.numerator and pd * pd == x.denominator:
            return Fraction(pn, pd)
        return None


def _close(a, b, t):
    return abs(a - b) <= t * max(1.0, abs(a), abs(b))


class _ApproxField:
    """Binary64 floats compared with a relative tolerance (DEFAULT_TOL if None)."""

    zero = 0.0
    one = 1.0

    def coerce(self, value):
        if isinstance(value, str):
            return float(Fraction(value))
        if isinstance(value, (int, float, Fraction)):
            return float(value)
        raise ModeError(f"cannot use {type(value).__name__} as an approximate scalar")

    def tol(self, tol=None):
        """The tolerance in force: DEFAULT_TOL for None; NaN, infinite or negative raise."""
        if tol is None:
            return DEFAULT_TOL
        if not 0 <= tol < math.inf:
            raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
        return tol

    def eq(self, a, b, tol=None):
        return _close(a, b, self.tol(tol))

    def is_zero(self, a, tol=None, *scales):
        """|a| <= tol * max(1, |a|, |scale|...): zero relative to the scales."""
        return abs(a) <= self.tol(tol) * max(1.0, abs(a), *map(abs, scales))

    def rows_eq(self, rows1, rows2, tol=None):
        t = self.tol(tol)
        return all(_close(a, b, t) for r1, r2 in zip(rows1, rows2) for a, b in zip(r1, r2))

    def all_zero(self, values, tol=None):
        t = self.tol(tol)
        return all(_close(v, 0.0, t) for v in values)

    def threshold(self, tol, *scales):
        """tol times the largest of 1 and the scales' magnitudes; a matrix scale
        stands for its largest entry magnitude."""
        return self.tol(tol) * max([1.0] + [float(s.max_abs()) if isinstance(s, Matrix)
                                            else abs(s) for s in scales])

    def to_json(self, v):
        return v

    def matmul(self, a, b, p):
        """Rows of the product, each entry summed left to right (math.fsum or a
        compensated sum() would change the low-order bits of reports)."""
        cols = list(zip(*b)) if b else [()] * p
        out = []
        for r in a:
            out_row = []
            for c in cols:
                terms = map(mul, r, c)
                acc = next(terms, 0.0)
                for t in terms:
                    acc += t
                out_row.append(acc)
            out.append(out_row)
        return out

    def sqrt(self, x):
        return math.sqrt(x) if x >= 0 else None


_FIELDS = {EXACT: _ExactField(), APPROX: _ApproxField()}


def _field(mode):
    """The scalar field of a mode."""
    try:
        return _FIELDS[mode]
    except KeyError:
        raise ModeError(f"unknown scalar mode {mode!r}") from None


def _infer_mode(rows):
    for row in rows:
        for value in row:
            if isinstance(value, float):
                return APPROX
    return EXACT


class Matrix:
    """Immutable dense matrix with a fixed scalar mode."""

    __slots__ = ("_data", "_rows", "_cols", "mode")

    def __init__(self, rows, mode=None, cols=None):
        rows = [list(r) for r in rows]
        if mode is None:
            mode = _infer_mode(rows)
        n_rows = len(rows)
        if n_rows == 0:
            n_cols = 0 if cols is None else cols
        else:
            n_cols = len(rows[0])
            if cols is not None and cols != n_cols:
                raise DimensionError("explicit column count disagrees with row data")
            if any(len(r) != n_cols for r in rows):
                raise DimensionError("rows have unequal lengths")
        coerce = _field(mode).coerce
        object.__setattr__(self, "_data", tuple(tuple(coerce(v) for v in r) for r in rows))
        object.__setattr__(self, "_rows", n_rows)
        object.__setattr__(self, "_cols", n_cols)
        object.__setattr__(self, "mode", mode)

    @classmethod
    def _trusted(cls, rows, mode, cols):
        """A matrix on rows whose entries are already elements of mode's field,
        all of length cols: no coercion and no checks."""
        self = object.__new__(cls)
        data = tuple(map(tuple, rows))
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "_rows", len(data))
        object.__setattr__(self, "_cols", cols)
        object.__setattr__(self, "mode", mode)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zeros(cls, rows, cols, mode=EXACT):
        zero = _field(mode).zero
        return cls._trusted([(zero,) * cols] * rows, mode, cols)

    @classmethod
    def identity(cls, n, mode=EXACT):
        F = _field(mode)
        return cls._trusted([[F.one if i == j else F.zero for j in range(n)] for i in range(n)],
                            mode, n)

    @property
    def rows(self):
        return self._rows

    @property
    def cols(self):
        return self._cols

    @property
    def shape(self):
        return (self._rows, self._cols)

    @property
    def is_square(self):
        return self._rows == self._cols

    def __getitem__(self, ij):
        i, j = ij
        return self._data[i][j]

    def row(self, i):
        return self._data[i]

    def col(self, j):
        return tuple(self._data[i][j] for i in range(self._rows))

    def to_lists(self):
        return [list(r) for r in self._data]

    def __repr__(self):
        if self._rows == 0 or self._cols == 0:
            return f"Matrix(<empty {self._rows}x{self._cols}>, mode={self.mode!r})"
        body = "; ".join(" ".join(str(v) for v in r) for r in self._data)
        return f"Matrix([{body}], mode={self.mode!r})"

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.mode == other.mode and self.shape == other.shape
                and self._data == other._data)

    def __hash__(self):
        return hash((self.mode, self._rows, self._cols, self._data))

    def _check_mode(self, other):
        if self.mode != other.mode:
            raise ModeError(f"cannot mix {self.mode} and {other.mode} matrices")

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_mode(other)
        if self.shape != other.shape:
            raise DimensionError(f"cannot add {self.shape} and {other.shape}")
        return Matrix._trusted([[a + b for a, b in zip(r1, r2)]
                                for r1, r2 in zip(self._data, other._data)],
                               self.mode, self._cols)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_mode(other)
        if self.shape != other.shape:
            raise DimensionError(f"cannot subtract {other.shape} from {self.shape}")
        return Matrix._trusted([[a - b for a, b in zip(r1, r2)]
                                for r1, r2 in zip(self._data, other._data)],
                               self.mode, self._cols)

    def __neg__(self):
        return Matrix._trusted([[-v for v in r] for r in self._data], self.mode, self._cols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check_mode(other)
            if self._cols != other._rows:
                raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
            rows = _field(self.mode).matmul(self._data, other._data, other._cols)
            return Matrix._trusted(rows, self.mode, other._cols)
        scalar = _field(self.mode).coerce(other)
        return Matrix._trusted([[scalar * v for v in r] for r in self._data],
                               self.mode, self._cols)

    __rmul__ = __mul__

    def transpose(self):
        cols = zip(*self._data) if self._data else [()] * self._cols
        return Matrix._trusted(cols, self.mode, self._rows)

    def trace(self):
        if not self.is_square:
            raise DimensionError("trace requires a square matrix")
        return sum((self._data[i][i] for i in range(self._rows)), _field(self.mode).zero)

    def submatrix(self, r0, r1, c0, c1):
        """Rows r0..r1-1 and columns c0..c1-1 as a new matrix."""
        return Matrix._trusted([r[c0:c1] for r in self._data[r0:r1]], self.mode, c1 - c0)

    def take(self, rows, cols):
        """The matrix with entry (i, j) = self[rows[i], cols[j]].

        With index permutations p and q this is P M Q^T for the permutation
        matrices with P[i, p[i]] = Q[j, q[j]] = 1, so a product by J or any
        permutation is an index map; ``range(n)[::-1]`` is J's.
        """
        data = self._data
        return Matrix._trusted([[data[i][j] for j in cols] for i in rows], self.mode, len(cols))

    def is_zero(self, tol=None):
        return _field(self.mode).all_zero((v for r in self._data for v in r), tol)

    def eq(self, other, tol=None):
        """Mode-aware equality: exact comparison or relative tolerance."""
        self._check_mode(other)
        if self.shape != other.shape:
            return False
        return _field(self.mode).rows_eq(self._data, other._data, tol)

    def max_abs(self):
        return max((abs(v) for r in self._data for v in r), default=_field(self.mode).zero)


def hstack(*mats):
    mats = [m for m in mats if m.cols > 0 or m.rows > 0]
    if not mats:
        return Matrix.zeros(0, 0)
    n = mats[0].rows
    mode = mats[0].mode
    for m in mats:
        if m.rows != n:
            raise DimensionError("hstack requires equal row counts")
        if m.mode != mode:
            raise ModeError("hstack requires a single mode")
    return Matrix._trusted([sum((m.row(i) for m in mats), ()) for i in range(n)],
                           mode, sum(m.cols for m in mats))


def vstack(*mats):
    mats = list(mats)
    if not mats:
        return Matrix.zeros(0, 0)
    c = mats[0].cols
    mode = mats[0].mode
    for m in mats:
        if m.cols != c:
            raise DimensionError("vstack requires equal column counts")
        if m.mode != mode:
            raise ModeError("vstack requires a single mode")
    return Matrix._trusted([r for m in mats for r in m._data], mode, c)


def block(rows_of_blocks):
    """Assemble a matrix from a grid of blocks; zero-sized blocks are allowed."""
    return vstack(*(hstack(*row) for row in rows_of_blocks))


def block_diag(*mats):
    """The blocks along the diagonal, zeros elsewhere; zero-sized blocks are allowed."""
    return block([[a if i == j else Matrix.zeros(a.rows, b.cols, a.mode)
                   for j, b in enumerate(mats)] for i, a in enumerate(mats)])


def exchange_matrix(n, mode=EXACT):
    """The n-by-n anti-diagonal permutation matrix J."""
    if n < 1:
        raise DimensionError("exchange matrix needs size >= 1")
    return _exchange(n, mode)


def _exchange(n, mode=EXACT):
    F = _field(mode)
    return Matrix._trusted([[F.one if i + j == n - 1 else F.zero for j in range(n)]
                            for i in range(n)], mode, n)


def is_centrosymmetric(M, tol=None):
    """Entrywise test m[i,j] == m[n-1-i, n-1-j]."""
    if not M.is_square:
        raise DimensionError("centrosymmetry is defined for square matrices")
    rows = M._data
    return _field(M.mode).rows_eq(rows, tuple(r[::-1] for r in reversed(rows)), tol)


def commutes_with_exchange(M, tol=None):
    """Equivalent characterization: M J == J M, M with its columns reversed
    against M with its rows reversed."""
    if not M.is_square:
        raise DimensionError("centrosymmetry is defined for square matrices")
    every = range(M.rows)
    return M.take(every, every[::-1]).eq(M.take(every[::-1], every), tol)


@dataclass(frozen=True)
class BlockPartition:
    """Block view of a square matrix at a split index.

    Even parity: M = [[A, B], [C, D]] with A of size s x s.
    Odd parity (n = 2s+1): corner blocks A, B, C, D of size s x s around a
    center column x (top) / w (bottom), center row y (left) / z (right) and
    center entry mu.
    """

    parity: str
    s: int
    A: Matrix
    B: Matrix
    C: Matrix
    D: Matrix
    x: Matrix | None = None
    w: Matrix | None = None
    y: Matrix | None = None
    z: Matrix | None = None
    mu: object = None


def split_blocks(M, parity, s):
    if not M.is_square:
        raise DimensionError("block split requires a square matrix")
    n = M.rows
    if parity == "even":
        if not 1 <= s < n:
            raise DimensionError(f"even split needs 1 <= s < n, got s={s}, n={n}")
        return BlockPartition(
            parity="even", s=s,
            A=M.submatrix(0, s, 0, s), B=M.submatrix(0, s, s, n),
            C=M.submatrix(s, n, 0, s), D=M.submatrix(s, n, s, n))
    if parity == "odd":
        if s < 1 or n != 2 * s + 1:
            raise DimensionError(f"odd split needs n = 2s+1 with s >= 1, got s={s}, n={n}")
        return BlockPartition(
            parity="odd", s=s,
            A=M.submatrix(0, s, 0, s), B=M.submatrix(0, s, s + 1, n),
            C=M.submatrix(s + 1, n, 0, s), D=M.submatrix(s + 1, n, s + 1, n),
            x=M.submatrix(0, s, s, s + 1), w=M.submatrix(s + 1, n, s, s + 1),
            y=M.submatrix(s, s + 1, 0, s), z=M.submatrix(s, s + 1, s + 1, n),
            mu=M[s, s])
    raise DimensionError(f"parity must be 'even' or 'odd', got {parity!r}")


def assemble_blocks(bp):
    """Inverse of split_blocks."""
    if bp.parity == "even":
        return block([[bp.A, bp.B], [bp.C, bp.D]])
    center = Matrix([[bp.mu]], mode=bp.A.mode)
    return block([[bp.A, bp.x, bp.B], [bp.y, center, bp.z], [bp.C, bp.w, bp.D]])


def blocks_centrosymmetric(bp, tol=None):
    """Block-level centrosymmetry conditions: JA = DJ, C = JBJ (+ Jx = w, zJ = y
    in odd parity), each product by J taken as a reversal of rows or columns."""
    if bp.A.rows != bp.A.cols or bp.A.shape != bp.D.shape:
        return False
    every = range(bp.A.rows)
    rev = every[::-1]
    if not bp.A.take(rev, every).eq(bp.D.take(every, rev), tol):
        return False
    if not bp.C.eq(bp.B.take(rev, rev), tol):
        return False
    if bp.parity == "odd":
        if not bp.w.eq(bp.x.take(rev, range(1)), tol):
            return False
        if not bp.y.eq(bp.z.take(range(1), rev), tol):
            return False
    return True


def matrix_to_json_obj(M):
    to_json = _field(M.mode).to_json
    return {"rows": [[to_json(v) for v in r] for r in M._data]}


def _entry_from_json(v):
    if isinstance(v, str):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"matrix entry {v!r} has a zero denominator") from None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"matrix entry of type {type(v).__name__} is neither a string "
                         "nor a number")
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"matrix entry {v!r} is not finite")
    return v


def matrix_from_json_obj(obj, mode=None):
    """Parse {"rows": [...]}: strings/ints mean exact, floats mean approx.

    Anything else raises ValueError: a missing or non-list 'rows', a row that
    is not a list, an entry that is not a string or a number, an unparsable
    or zero-denominator string, NaN or infinity, and strings mixed with floats.
    """
    if not isinstance(obj, dict) or "rows" not in obj:
        raise ValueError("matrix JSON must be an object with a 'rows' field")
    rows = obj["rows"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError("matrix JSON 'rows' must be a list of lists")
    kinds = {type(v) for r in rows for v in r}
    if str in kinds and float in kinds:
        raise ValueError("matrix JSON mixes string and float entries")
    if mode is None:
        mode = APPROX if float in kinds else EXACT
    values = [[_entry_from_json(v) for v in r] for r in rows]
    try:
        return Matrix(values, mode=mode)
    except OverflowError:
        raise ValueError("matrix entry too large for approximate mode") from None


def load_matrix(path, mode=None):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError("matrix JSON is nested too deeply") from None
    return matrix_from_json_obj(obj, mode=mode)


def save_matrix(M, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json_obj(M), fh, indent=1)
        fh.write("\n")
