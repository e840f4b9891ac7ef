"""Dense matrices over exact rationals or tolerance-compared floats.

Exact mode stores every matrix as integer rows over one denominator in lowest
terms (den > 0, and gcd(den, every entry) == 1), so equal matrices store the
same (den, rows); an entry becomes a ``fractions.Fraction`` only when a caller
reads it, and none is kept.  Approximate mode stores binary64 floats over
den = 1 and compares entries with a relative tolerance.  The two modes never
mix inside one operation; doing so raises :class:`~centrosim.errors.ModeError`.

Everything a mode decides about its scalars (zero and one, coercion, storage
and entry reads, equality and zero tests, residual screens, the tolerance,
thresholds, JSON form, square roots) lives in one field object per mode,
``_field(mode)``; the other modules ask it rather than test the mode.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from operator import add, mul, sub

from .errors import CentrosimError, DimensionError, ModeError, PreconditionError

EXACT = "exact"
APPROX = "approx"

# Relative tolerance used by approximate-mode comparisons when none is given.
DEFAULT_TOL = 1e-9


def _over_lcm(rows):
    """(scale, the integer rows of scale * rows) for rows of ints and Fractions:
    scale is the lcm of the entries' denominators, so the rows are in lowest
    terms over it.  Rows of ints alone are returned as they are."""
    if all(type(v) is int for row in rows for v in row):
        return 1, rows
    scale = math.lcm(*[v.denominator for row in rows for v in row])
    if scale == 1:
        return 1, [[v.numerator for v in row] for row in rows]
    return scale, [[v.numerator * (scale // v.denominator) for v in row] for row in rows]


def _lowest(rows, den):
    """(den, rows) for a tuple of integer row tuples over the nonzero den, both
    divided by gcd(den, every entry) with den's sign, so that den > 0."""
    g = math.gcd(den, *chain.from_iterable(rows))
    if den < 0:
        g = -g
    if g == 1:
        return den, rows
    return den // g, tuple([tuple([v // g for v in r]) for r in rows])


def _scaled_rows(*mats):
    """(scale, then the stored rows of scale * M for each M in mats): scale is
    the lcm of their denominators, 1 in approximate mode."""
    scale = math.lcm(*[M._den for M in mats])
    return (scale, *[M._data if M._den == scale else _times(scale // M._den, M._data)
                     for M in mats])


def _times(f, rows):
    """f times each entry of rows."""
    return [[f * v for v in row] for row in rows]


def _sub(rows, r0, r1, c0, c1):
    """Rows r0..r1-1 of rows, each cut to columns c0..c1-1."""
    return [r[c0:c1] for r in rows[r0:r1]]


def _pick(rows, at_rows, at_cols):
    """The rows [rows[i][j] for j in at_cols], for i in at_rows."""
    return [[rows[i][j] for j in at_cols] for i in at_rows]


def _int_product(rows, cols):
    """The row-major entries of the product of integer rows and integer columns."""
    return [sum(map(mul, r, c)) for r in rows for c in cols]


class _ExactField:
    """Rationals compared exactly: a tolerance is accepted and ignored, every
    threshold is 0.  A matrix stores integers over one denominator, so the
    zero and one it stores are the integers 0 and 1."""

    zero = 0
    one = 1
    # The JSON entry kinds whose parsed values (ints and Fractions) it stores as they are.
    json_kinds = frozenset((int, str))

    def coerce(self, value):
        if type(value) is Fraction:
            return value
        if isinstance(value, bool):
            raise ModeError("boolean is not a valid exact scalar")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(parse_rational(value))
        if isinstance(value, float):
            raise ModeError("float entry in exact mode; use approx mode or a 'p/q' string")
        raise ModeError(f"cannot use {type(value).__name__} as an exact scalar")

    def ratio(self, value):
        """The scalar value as (numerator, denominator)."""
        value = self.coerce(value)
        return value.numerator, value.denominator

    def pack(self, rows):
        """store's (den, integer rows) of rows of scalars, each coerced (an int
        kept as it is)."""
        coerce = self.coerce
        return self.store([[v if type(v) is int else coerce(v) for v in r] for r in rows])

    def store(self, rows):
        """(den, integer rows) of rows of ints and Fractions: the rows over den,
        the lcm of their denominators."""
        return _over_lcm(rows)

    def values(self, rows, den):
        """Integer rows over den as rows of Fractions: the one place where an
        entry's Fraction is built, Fraction(v) (no gcd) when den is 1."""
        zero, q = Fraction(0), None if den == 1 else den
        return [tuple([Fraction(v, q) if v else zero for v in r]) for r in rows]

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

    def uncertified(self, claim):
        """The error for a certificate check that fails: exact arithmetic leaves
        only a defect in the construction."""
        return CentrosimError(f"internal: {claim}")

    def screen(self, pairs, tol=None):
        """Whether L - R vanishes for every pair (L, R) of equal-shape matrices,
        and None: L == R is tested on the stored integers and denominators, up
        to the first pair that differs."""
        return all(L._den == R._den and L._data == R._data for L, R in pairs), None

    def to_json(self, v):
        """"p", or "p/q" in lowest terms; past the digit limit, a ValueError that names it."""
        try:
            return str(v)
        except ValueError:
            raise _past_digit_limit() from None

    def json_rows(self, rows, den, sep):
        """For each row of integers over den, the JSON texts of its entries, each
        to_json's string of the Fraction (one gcd per entry), joined by sep
        ("" for an empty row)."""
        quoted = '"' + sep + '"'
        try:
            if den == 1:
                return ['"' + quoted.join(map(str, r)) + '"' if r else "" for r in rows]
            return ['"' + quoted.join([str(v // g) if (g := math.gcd(v, den)) == den
                                       else f"{v // g}/{den // g}" for v in r]) + '"'
                    if r else "" for r in rows]
        except ValueError:
            raise _past_digit_limit() from None

    # The certificate kernel.  A chain is a tuple of matrices or operands, each
    # read as its integer rows over its denominator, so a product is integer
    # dot products over the product of the denominators.
    def operand(self, M):
        """M as (integer rows, integer columns, den), M being the integer matrix
        over den; an operand is returned as it is."""
        if type(M) is tuple:
            return M
        rows = self._rows(M)
        return rows, list(zip(*rows)) if rows else [()] * M.cols, M._den

    def _rows(self, M):
        """M's stored integer rows; ModeError for a matrix of another mode."""
        if _field(M.mode) is not self:
            raise ModeError(f"cannot mix exact and {M.mode} matrices")
        return M._data

    def _chain(self, chain):
        """(integer rows, scale, column count) of the chain's product: the integer
        product of its operands, over the product of their denominators.  Only
        the factors after the first are read by columns, so a first factor that
        is a matrix is not transposed."""
        first, *rest = chain
        if type(first) is tuple:
            rows, cols, scale = first
            width = len(cols)
        else:
            rows, scale, width = self._rows(first), first._den, first.cols
        for r, c, q in map(self.operand, rest):
            if len(r) != width:
                raise DimensionError("chain factors do not conform")
            rows, width, scale = [[sum(map(mul, x, y)) for y in c] for x in rows], len(c), scale * q
        return rows, scale, width

    def _combine(self, terms):
        """(integer rows, scale, column count) of the sum over terms (sign, *chain)
        of sign times the chain's product: the chains summed over the lcm of
        their scales."""
        parts = [(sign, *self._chain(chain)) for sign, *chain in terms]
        if len({(len(rows), width) for _, rows, _, width in parts}) > 1:
            raise DimensionError("chain products differ in shape")
        lcm = math.lcm(*[q for _, _, q, _ in parts])
        total = None
        for sign, rows, q, _ in parts:
            f = sign * (lcm // q)
            rows = rows if f == 1 else _times(f, rows)
            total = rows if total is None else [list(map(add, t, r)) for t, r in zip(total, rows)]
        return total, lcm, parts[0][3]

    def residual(self, terms, tol=None):
        """(the sum over terms (sign, *chain) of sign times the chain's product,
        whether it vanishes)."""
        rows, scale, width = self._combine(terms)
        return Matrix._trusted(rows, EXACT, width, scale), not any(map(any, rows))

    def product(self, *chain):
        rows, scale, width = self._chain(chain)
        return Matrix._trusted(rows, EXACT, width, scale)

    # Matrix.__mul__, on two matrices it has checked.
    matmul = product

    def equal(self, lhs, rhs, tol=None, sign=1):
        """Whether lhs's product is sign times rhs's, with no Fraction built."""
        return not any(map(any, self._combine([(1, *lhs), (-sign, *rhs)])[0]))

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
    """|a - b| within t relative to the larger magnitude; never for a non-finite value."""
    return (abs(a - b) <= t * max(1.0, abs(a), abs(b))
            and math.isfinite(a) and math.isfinite(b))


class _ApproxField:
    """Binary64 floats compared with a relative tolerance (DEFAULT_TOL if None),
    stored as they are over den = 1."""

    zero = 0.0
    one = 1.0
    json_kinds = frozenset((float,))

    def coerce(self, value):
        if isinstance(value, str):
            return float(parse_rational(value))
        if isinstance(value, (int, float, Fraction)):
            return float(value)
        raise ModeError(f"cannot use {type(value).__name__} as an approximate scalar")

    def ratio(self, value):
        return self.coerce(value), 1

    def pack(self, rows):
        coerce = self.coerce
        return self.store([tuple(map(coerce, r)) for r in rows])

    def store(self, rows):
        return 1, rows

    def values(self, rows, den):
        return rows

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
        """|a| <= tol * max(1, |a|, |scale|...): zero relative to the scales.
        A non-finite a is never zero."""
        return (math.isfinite(a)
                and abs(a) <= self.tol(tol) * max(1.0, abs(a), *map(abs, scales)))

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

    def uncertified(self, claim):
        """The error for a certificate check that fails: rounding, amplified by
        an ill-conditioned intertwiner, exceeded the tolerance."""
        return PreconditionError(f"{claim} within the tolerance: X may be too "
                                 "ill-conditioned for approximate mode; use exact mode")

    def screen(self, pairs, tol=None):
        """Whether L - R is zero within tol for every pair (L, R), and the
        differences, whose size the search reports."""
        residuals = tuple(L - R for L, R in pairs)
        return all(R.is_zero(tol) for R in residuals), residuals

    def to_json(self, v):
        return v

    def json_rows(self, rows, den, sep):
        """For each row, the JSON texts of its entries joined by sep; ValueError
        for NaN or an infinity."""
        if not all(map(math.isfinite, chain.from_iterable(rows))):
            raise _non_finite()
        return [sep.join(map(float.__repr__, r)) for r in rows]

    def matmul(self, A, B):
        """A B, each entry summed left to right (math.fsum or a compensated
        sum() would change the low-order bits of reports)."""
        cols = list(zip(*B._data)) if B._data else [()] * B.cols
        out = []
        for r in A._data:
            out_row = []
            for c in cols:
                terms = map(mul, r, c)
                acc = next(terms, 0.0)
                for t in terms:
                    acc += t
                out_row.append(acc)
            out.append(out_row)
        return Matrix._trusted(out, APPROX, B.cols)

    # The certificate kernel as the Matrix float operations whose bits the
    # reports pin: chains multiply left to right, terms are added or subtracted
    # left to right, and equal is Matrix.eq.
    def operand(self, M):
        return M

    def residual(self, terms, tol=None):
        R = None
        for sign, *chain in terms:
            P = reduce(mul, chain)
            R = P if R is None else R + P if sign > 0 else R - P
        return R, R.is_zero(tol)

    def product(self, *chain):
        return reduce(mul, chain)

    def equal(self, lhs, rhs, tol=None, sign=1):
        R = reduce(mul, rhs)
        return reduce(mul, lhs).eq(R if sign > 0 else -R, tol)

    def sqrt(self, x):
        return math.sqrt(x) if x >= 0 else None


_FIELDS = {EXACT: _ExactField(), APPROX: _ApproxField()}


def _field(mode):
    """The scalar field of a mode."""
    try:
        return _FIELDS[mode]
    except KeyError:
        raise ModeError(f"unknown scalar mode {mode!r}") from None


def _column_count(rows, cols=None):
    """The common length of rows (cols, or 0, when there are none); a
    DimensionError when the lengths differ or disagree with cols."""
    if not rows:
        return 0 if cols is None else cols
    n_cols = len(rows[0])
    if cols is not None and cols != n_cols:
        raise DimensionError("explicit column count disagrees with row data")
    if any(len(r) != n_cols for r in rows):
        raise DimensionError("rows have unequal lengths")
    return n_cols


def _infer_mode(rows):
    for row in rows:
        for value in row:
            if isinstance(value, float):
                return APPROX
    return EXACT


class Matrix:
    """Immutable dense matrix with a fixed scalar mode.

    _data holds the stored rows, integers over the denominator _den in lowest
    terms (exact mode) or floats over _den = 1 (approximate mode); entries are
    read through the field, which builds an exact entry's Fraction then.
    """

    __slots__ = ("_data", "_den", "_rows", "_cols", "mode")

    def __init__(self, rows, mode=None, cols=None):
        rows = [list(r) for r in rows]
        if mode is None:
            mode = _infer_mode(rows)
        n_cols = _column_count(rows, cols)
        den, rows = _field(mode).pack(rows)
        object.__setattr__(self, "_data", tuple(map(tuple, rows)))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_rows", len(rows))
        object.__setattr__(self, "_cols", n_cols)
        object.__setattr__(self, "mode", mode)

    @classmethod
    def _trusted(cls, rows, mode, cols, den=1):
        """A matrix on stored rows, all of length cols: floats over den = 1, or
        integers over the nonzero den, put in lowest terms here.  No coercion
        and no checks."""
        self = object.__new__(cls)
        data = tuple(map(tuple, rows))
        if den != 1:
            den, data = _lowest(data, den)
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_rows", len(data))
        object.__setattr__(self, "_cols", cols)
        object.__setattr__(self, "mode", mode)
        return self

    @classmethod
    def _of(cls, rows, mode, cols):
        """The matrix of rows of mode's scalars, all of length cols: no coercion
        and no checks."""
        den, rows = _field(mode).store(rows)
        return cls._trusted(rows, mode, cols, den)

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

    def _values(self, rows):
        """Stored rows over self's denominator as rows of field scalars."""
        return _field(self.mode).values(rows, self._den)

    def _entry(self, v):
        return _field(self.mode).values(((v,),), self._den)[0][0]

    def __getitem__(self, ij):
        i, j = ij
        return self._entry(self._data[i][j])

    def row(self, i):
        return self._values((self._data[i],))[0]

    def col(self, j):
        return self._values((tuple(r[j] for r in self._data),))[0]

    def to_lists(self):
        return [list(r) for r in self._values(self._data)]

    def __repr__(self):
        if self._rows == 0 or self._cols == 0:
            return f"Matrix(<empty {self._rows}x{self._cols}>, mode={self.mode!r})"
        body = "; ".join(" ".join(map(_entry_text, r)) for r in self._values(self._data))
        return f"Matrix([{body}], mode={self.mode!r})"

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.mode == other.mode and self.shape == other.shape
                and self._den == other._den and self._data == other._data)

    def __hash__(self):
        return hash((self.mode, self._rows, self._cols, self._den, self._data))

    def _check_mode(self, other):
        if self.mode != other.mode:
            raise ModeError(f"cannot mix {self.mode} and {other.mode} matrices")

    def _entrywise(self, other, op, message):
        """op on each entry pair over the lcm of the denominators; message,
        given both shapes, names a mismatch."""
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_mode(other)
        if self.shape != other.shape:
            raise DimensionError(message.format(self.shape, other.shape))
        den, rows1, rows2 = ((self._den, self._data, other._data) if self._den == other._den
                             else _scaled_rows(self, other))
        return Matrix._trusted((map(op, r1, r2) for r1, r2 in zip(rows1, rows2)),
                               self.mode, self._cols, den)

    def __add__(self, other):
        return self._entrywise(other, add, "cannot add {} and {}")

    def __sub__(self, other):
        return self._entrywise(other, sub, "cannot subtract {1} from {0}")

    def __neg__(self):
        return Matrix._trusted([[-v for v in r] for r in self._data], self.mode, self._cols,
                               self._den)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check_mode(other)
            if self._cols != other._rows:
                raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
            return _field(self.mode).matmul(self, other)
        p, q = _field(self.mode).ratio(other)
        return Matrix._trusted([[p * v for v in r] for r in self._data],
                               self.mode, self._cols, self._den * q)

    __rmul__ = __mul__

    def transpose(self):
        cols = zip(*self._data) if self._data else [()] * self._cols
        return Matrix._trusted(cols, self.mode, self._rows, self._den)

    def trace(self):
        if not self.is_square:
            raise DimensionError("trace requires a square matrix")
        return self._entry(sum((self._data[i][i] for i in range(self._rows)),
                               _field(self.mode).zero))

    def submatrix(self, r0, r1, c0, c1):
        """Rows r0..r1-1 and columns c0..c1-1 as a new matrix."""
        return Matrix._trusted(_sub(self._data, r0, r1, c0, c1), self.mode, c1 - c0, self._den)

    def take(self, rows, cols):
        """The matrix with entry (i, j) = self[rows[i], cols[j]].

        With index permutations p and q this is P M Q^T for the permutation
        matrices with P[i, p[i]] = Q[j, q[j]] = 1, so a product by J or any
        permutation is an index map; ``range(n)[::-1]`` is J's.
        """
        return Matrix._trusted(_pick(self._data, rows, cols), self.mode, len(cols), self._den)

    def is_zero(self, tol=None):
        return _field(self.mode).all_zero((v for r in self._data for v in r), tol)

    def eq(self, other, tol=None):
        """Mode-aware equality: exact comparison or relative tolerance."""
        self._check_mode(other)
        if self.shape != other.shape:
            return False
        return self._den == other._den and _field(self.mode).rows_eq(self._data, other._data,
                                                                     tol)

    def max_abs(self):
        return self._entry(max((abs(v) for r in self._data for v in r),
                               default=_field(self.mode).zero))

    def _integer_rows(self):
        """(den, the stored rows): integers over den in lowest terms (exact mode),
        or floats over 1."""
        return self._den, self._data

    def _json_rows(self, sep):
        """For each row, the JSON texts of its entries joined by sep ("" for an
        empty row)."""
        return _field(self.mode).json_rows(self._data, self._den, sep)


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
    # Each part over the lcm of the denominators; the rows stay in lowest terms.
    den, *parts = _scaled_rows(*mats)
    return Matrix._trusted([tuple(chain.from_iterable(r)) for r in zip(*parts)], mode,
                           sum(m.cols for m in mats), den)


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
    den, *parts = _scaled_rows(*mats)
    return Matrix._trusted([r for rows in parts for r in rows], mode, c, den)


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
    F = _field(mode)
    return Matrix._trusted([[F.one if i + j == n - 1 else F.zero for j in range(n)]
                            for i in range(n)], mode, n)


def is_centrosymmetric(M, tol=None):
    """Entrywise test m[i,j] == m[n-1-i, n-1-j], on the stored rows (one
    denominator on both sides)."""
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


class _Record:
    """An immutable record whose fields are its ``__init__`` parameters, in
    order; it compares, hashes and prints by them, like a frozen dataclass.
    A plain class because importing ``dataclasses`` (through ``inspect``) and
    building each class cost every CLI start several milliseconds."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self):
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class BlockPartition(_Record):
    """Block view of a square matrix at a split index.

    Even parity: M = [[A, B], [C, D]] with A of size s x s.
    Odd parity (n = 2s+1): corner blocks A, B, C, D of size s x s around a
    center column x (top) / w (bottom), center row y (left) / z (right) and
    center entry mu.
    """

    def __init__(self, parity: str, s: int, A: Matrix, B: Matrix, C: Matrix, D: Matrix,
                 x: Matrix | None = None, w: Matrix | None = None, y: Matrix | None = None,
                 z: Matrix | None = None, mu: object = None):
        self.__dict__.update(parity=parity, s=s, A=A, B=B, C=C, D=D, x=x, w=w, y=y, z=z, mu=mu)

    @cached_property
    def operands(self):
        """A, B, C, D, then x, w, z, y in odd parity, as operands of the field's
        kernel (exact mode clears each to integers once per split)."""
        odd = (self.x, self.w, self.z, self.y) if self.parity == "odd" else ()
        return tuple(map(_field(self.A.mode).operand, (self.A, self.B, self.C, self.D) + odd))


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


def _exchange_pairs(bp):
    """The block pairs (JA, DJ), (C, JBJ) and, in odd parity, (w, Jx) and
    (y, zJ), lazily: a product by J is a reversal of rows or columns."""
    every = range(bp.A.rows)
    rev = every[::-1]
    yield bp.A.take(rev, every), bp.D.take(every, rev)
    yield bp.C, bp.B.take(rev, rev)
    if bp.parity == "odd":
        yield bp.w, bp.x.take(rev, range(1))
        yield bp.y, bp.z.take(range(1), rev)


def blocks_centrosymmetric(bp, tol=None):
    """Block-level centrosymmetry conditions: JA = DJ, C = JBJ (+ Jx = w, zJ = y
    in odd parity), tested in that order up to the first that fails."""
    if bp.A.rows != bp.A.cols or bp.A.shape != bp.D.shape:
        return False
    return all(L.eq(R, tol) for L, R in _exchange_pairs(bp))


def matrix_to_json_obj(M):
    to_json = _field(M.mode).to_json
    return {"rows": [[to_json(v) for v in r] for r in M._values(M._data)]}


def report_text(obj):
    """json.dumps(obj, indent=1, default=str, allow_nan=False) for an obj whose
    dict keys are strings, with each Matrix M in it written as
    matrix_to_json_obj(M): the same bytes, written a row at a time from M's
    entries.  ValueError for NaN or an infinity, and for an exact entry past
    the int-string digit limit, each with its own message."""
    return _json_text(obj, "\n")


def _json_text(v, nl):
    """v's JSON text at the indent nl, the newline and indent of its own line;
    the types are tested in json.encoder's order."""
    if isinstance(v, str):
        return _quote(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise _non_finite()
        return float.__repr__(v)
    inner = nl + " "
    if isinstance(v, Matrix):
        row_nl = inner + " "
        rows = ("," + row_nl).join(["[" + row_nl + " " + text + row_nl + "]" if text else "[]"
                                    for text in v._json_rows("," + row_nl + " ")])
        return ("{" + inner + '"rows": ' + ("[" + row_nl + rows + inner + "]" if rows else "[]")
                + nl + "}")
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(x, inner) for x in v]) + nl + "]"
    if isinstance(v, dict):
        if not v:
            return "{}"
        return ("{" + inner + ("," + inner).join([_quote(k) + ": " + _json_text(x, inner)
                                                  for k, x in v.items()]) + nl + "}")
    return _quote(str(v))


# Python's default digit limit, which bounds decimal exponents where none is set.
_DEFAULT_DIGITS = 4300
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)
# A run of digits as int() reads it: single underscores may separate digits.
_DIGIT_GROUP = re.compile(r"\d+(?:_\d+)*")


def _past_digit_limit():
    return ValueError(f"a report entry has more than {_digit_limit()} digits, the limit for "
                      "int-string conversion (PYTHONINTMAXSTRDIGITS)")


def _past_read_limit(digits, limit):
    return ValueError(f"a value has {digits} digits, more than {limit}, the limit for "
                      "int-string conversion (PYTHONINTMAXSTRDIGITS)")


def _entry_text(v):
    """str(v), each integer of an exact v past the digit limit written as its
    digit count, e.g. "<4401-digit integer>"."""
    try:
        return str(v)
    except ValueError:
        if v.denominator != 1:
            return f"{_entry_text(v.numerator)}/{_entry_text(v.denominator)}"
        digits = int(v.numerator.bit_length() * 0.30103)  # at most |v|'s digit count
        while abs(v) >= 10 ** digits:
            digits += 1
        return "-" * (v < 0) + f"<{digits}-digit integer>"


def _non_finite():
    return ValueError("the report holds a non-finite number (floating-point overflow); "
                      "use exact mode")


def _digit_limit():
    """Python's limit on the digits of an int read from or written to a string
    (sys.get_int_max_str_digits()); 0 means none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def parse_rational(text):
    """Fraction(text), or int(text) for an integer string, with Fraction()'s
    errors; ValueError for a value no report could print, one whose numerator
    or denominator has more digits than _digit_limit().  A decimal exponent
    larger in magnitude than that limit (or _DEFAULT_DIGITS) plus len(text)
    raises before Fraction() would build 10**exponent: the mantissa has fewer
    than len(text) digits, so any nonzero value would be past the limit.  A
    digit group past the limit, which int() refuses to read, is named with its
    digit count and PYTHONINTMAXSTRDIGITS."""
    # Without underscores (which Python 3.10's Fraction() rejects), int()
    # accepts exactly the integer strings Fraction() accepts.
    if "_" not in text:
        try:
            return int(text)
        except ValueError:
            pass
    limit = _digit_limit()
    bound = limit or _DEFAULT_DIGITS
    exponent = _EXPONENT.search(text)
    if exponent:
        try:
            huge = abs(int(exponent[1])) > bound + len(text)
        except ValueError:  # more digits than int() reads
            huge = True
        if huge:
            raise ValueError(f"{text!r} has a decimal exponent that needs more than {bound} "
                             "digits")
    try:
        value = Fraction(text)
    except ValueError:
        digits = _long_digit_group(text, limit)
        if digits is None:
            raise
        raise _past_read_limit(digits, limit) from None
    # 2^(3 limit) < 10^limit: only a longer integer can have more than limit digits.
    longest = max(abs(value.numerator), value.denominator)
    if limit and longest.bit_length() > 3 * limit and longest >= 10 ** limit:
        raise ValueError(f"{text!r} needs more than {limit} digits")
    return value


def _long_digit_group(text, limit):
    """The digit count of text's first digit group with more than limit digits,
    when text is a Fraction() literal (which int() then refuses to read), else
    None.  Reading every group as 1 keeps the literal's form."""
    counts = [len(g) - g.count("_") for g in _DIGIT_GROUP.findall(text)]
    digits = next((c for c in counts if c > limit), None) if limit else None
    if digits is None:
        return None
    try:
        Fraction(_DIGIT_GROUP.sub("1", text))
    except ValueError:
        return None
    return digits


def _entry_from_json(v):
    if isinstance(v, str):
        try:
            return parse_rational(v)
        except ZeroDivisionError:
            raise ValueError(f"matrix entry {v!r} has a zero denominator") from None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"matrix entry of type {type(v).__name__} is neither a string "
                         "nor a number")
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"matrix entry {v!r} is not finite")
    return v


def _json_int(text):
    """int(text) for a JSON integer; past the digit limit, the reader's error."""
    try:
        return int(text)
    except ValueError:
        raise _past_read_limit(len(text.lstrip("-")), _digit_limit()) from None


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
    # JSON integers are stored as they are; only the other entries are parsed.
    values = rows if kinds <= {int} else [[_entry_from_json(v) for v in r] for r in rows]
    cols = _column_count(values)
    F = _field(mode)
    # Otherwise the field coerces each entry: a float is exact mode's
    # ModeError, and an approximate entry becomes a float.
    if kinds <= F.json_kinds:
        return Matrix._of(values, mode, cols)
    try:
        den, values = F.pack(values)
    except OverflowError:
        raise ValueError("matrix entry too large for approximate mode") from None
    return Matrix._trusted(values, mode, cols, den)


def load_matrix(path, mode=None):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh, parse_int=_json_int)
        except RecursionError:
            raise ValueError("matrix JSON is nested too deeply") from None
    return matrix_from_json_obj(obj, mode=mode)


def save_matrix(M, path):
    text = report_text(M)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
