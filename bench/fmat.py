"""Plain Fraction-list matrices for the benchmark's generator and checker.

Nothing here imports centrosim: the benchmark builds its inputs and
re-verifies the program's answers with this code alone, so a defect in the
package under test cannot hide itself.  Matrices are lists of rows of
``fractions.Fraction``; every function returns a new matrix.
"""

from fractions import Fraction


def mat(rows):
    return [[Fraction(v) for v in r] for r in rows]


def zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def exchange(n):
    return [[Fraction(int(i + j == n - 1)) for j in range(n)] for i in range(n)]


def shape(a):
    return (len(a), len(a[0]) if a else 0)


def mul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(r, c)), Fraction(0)) for c in bt] for r in a]


def add(a, b):
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]


def sub(a, b):
    return [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]


def scale(k, a):
    return [[k * x for x in r] for r in a]


def transpose(a):
    return [list(c) for c in zip(*a)]


def sub_block(a, r0, r1, c0, c1):
    return [r[c0:c1] for r in a[r0:r1]]


def block(grid):
    """Assemble a grid of blocks; every block in a grid row has that row's height."""
    out = []
    for row in grid:
        height = len(row[0])
        for i in range(height):
            out.append([v for blk in row for v in blk[i]])
    return out


def is_zero(a):
    return all(v == 0 for r in a for v in r)


def is_centrosymmetric(a):
    n = len(a)
    return all(len(r) == n for r in a) and all(
        a[i][j] == a[n - 1 - i][n - 1 - j] for i in range(n) for j in range(n))


def det(a):
    """Determinant by Gaussian elimination over Fraction."""
    a = [list(r) for r in a]
    n = len(a)
    out = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            out = -out
        pk = a[k][k]
        out *= pk
        for i in range(k + 1, n):
            f = a[i][k] / pk
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return out


def rank(a):
    a = [list(r) for r in a]
    rows, cols = shape(a)
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(r + 1, rows):
            f = a[i][c] / a[r][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def to_json(a):
    return {"rows": [[str(v) for v in r] for r in a]}


def from_json(obj):
    return [[Fraction(v) for v in r] for r in obj["rows"]]
