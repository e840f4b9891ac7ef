"""Seeded inputs for the four benchmark workloads.

Every matrix is built here with plain Fraction arithmetic from
``random.Random`` seeded by the workload name and ``--seed``; centrosim only
ever sees the JSON files written from these objects.  Conjugators are
unimodular (or a fixed scalar times a unimodular matrix), and their inverses
are tracked alongside them, so no inversion by the program under test is
needed to build an instance.

A workload is a list of passes; the runner cycles through them and only
stops between passes, so the mix of operations (and therefore every share
and percentile) is the same in each run whatever the machine's speed.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

import fmat as F

WORKLOADS = ("solve-large", "solve-small", "certify", "alpha-scan")

# The paper's ladder searches the grid p/q with |p| <= 5, q <= 3.  A planted
# intertwiner scaled by OFF_GRID has every nonzero entry outside that grid.
OFF_GRID = 7

# alpha^2 - 5 (n=4) or 9 alpha^2 - 105 (n=6) decides whether a real
# intertwiner exists and whether it is rational and on the grid.  The list
# spans all four cases; alpha = 0 at n=4 and alpha = 3 at n=6 exhaust the
# grid without a diagnostic.
TOEPLITZ_ALPHAS = {4: ("0", "3", "7/3", "-3", "-7/3", "-2", "1/2", "4", "9/4", "6"),
                   6: ("3", "11/3")}
ALPHA_SCAN_VALUES = ("-6", "-5", "-4.5", "-4", "-3", "-2", "-1", "0",
                     "1", "2", "3", "3.5", "4", "4.5", "5", "6")

# The paper's 2x2 counterexample and the one-dimensional (quadratic line)
# cases of the search ladder, as (rows, odd view).
LINE_CASES = (
    ([[1, 3], [2, 2]], False),                   # Sylvester space trivial
    ([[2, 1], [4, 2]], False),                   # C = x^2 B: roots +-2
    ([[2, 1], [3, 2]], False),                   # irrational discriminant
    ([[5, 0], [0, 5]], False),                   # whole line solves
    ([[5, 0], [3, 5]], False),                   # residual 0 t^2 + 0 t + c
    ([[3, 0, 2], [0, 5, 0], [8, 0, 3]], True),   # odd view, roots +-2
    ([[1, 0, 2], [3, 7, 4], [5, 1, 1]], True),   # odd view, infeasible
)

MALFORMED = (
    ("bad_zero_denominator.json", '{"rows": [["1", "1/0"], ["2", "3"]]}', "factor-centro"),
    ("bad_nan.json", '{"rows": [[NaN, 1.0], [1.0, NaN]]}', "check"),
    ("bad_rows_string.json", '{"rows": "abc"}', "check"),
)


@dataclass
class Op:
    """One CLI call: ``argv`` names files relative to the work directory.

    ``kind`` selects the checker rule; ``facts`` holds the generator's own
    copies of the inputs (never the program's echo of them).
    """

    argv: list
    kind: str
    planted: bool = False
    malformed: bool = False
    facts: dict = field(default_factory=dict)


@dataclass
class Corpus:
    files: dict
    passes: list

    def add_matrix(self, name, a):
        self.files[name] = F.to_json(a)
        return name


def _ints(rng, r, c, lo=-3, hi=3):
    return F.mat([[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)])


def unimodular(rng, n, steps, bound):
    """(P, P^-1) with integer entries, |entries of P| <= bound, P not in {+-I, +-J}."""
    trivial = [F.identity(n), F.scale(-1, F.identity(n)), F.exchange(n),
               F.scale(-1, F.exchange(n))]
    while True:
        P, Pinv = F.identity(n), F.identity(n)
        for _ in range(steps):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            # P <- E P with E = I + c e_i e_j^T, and P^-1 <- P^-1 E^-1.
            P[i] = [x + c * y for x, y in zip(P[i], P[j])]
            for row in Pinv:
                row[j] -= c * row[i]
        if rng.random() < 0.5:
            i, j = rng.sample(range(n), 2)
            P[i], P[j] = P[j], P[i]
            for row in Pinv:
                row[i], row[j] = row[j], row[i]
        if max(abs(v) for r in P for v in r) <= bound and P not in trivial:
            if F.mul(P, Pinv) != F.identity(n):
                raise AssertionError("generator: unimodular inverse bookkeeping failed")
            return P, Pinv


def centrosymmetric(rng, n, lo=-3, hi=3):
    s = n // 2
    J = F.exchange(s)
    A, B = _ints(rng, s, s, lo, hi), _ints(rng, s, s, lo, hi)
    C, D = F.mul(F.mul(J, B), J), F.mul(F.mul(J, A), J)
    if n % 2 == 0:
        return F.block([[A, B], [C, D]])
    x, z = _ints(rng, s, 1, lo, hi), _ints(rng, 1, s, lo, hi)
    mu = [[Fraction(rng.randint(lo, hi))]]
    return F.block([[A, x, B], [F.mul(z, J), mu, z], [C, F.mul(J, x), D]])


def planted(rng, n, scale=1, bound=3, steps=None):
    """M = diag(I, [1], P) C0 diag(I, [1], P^-1) with P = scale * U, U unimodular.

    X = P J solves the split's equations, so M is similar to the
    centrosymmetric C0 by construction.  Returns (M, X).
    """
    s = n // 2
    odd = n % 2
    steps = s + 2 if steps is None else steps
    while True:
        C0 = centrosymmetric(rng, n)
        U, Uinv = unimodular(rng, s, steps, bound)
        P, Pinv = F.scale(Fraction(scale), U), F.scale(Fraction(1, scale), Uinv)
        Q = F.block([[F.identity(s + odd), F.zeros(s + odd, s)], [F.zeros(s, s + odd), P]])
        Qinv = F.block([[F.identity(s + odd), F.zeros(s + odd, s)],
                        [F.zeros(s, s + odd), Pinv]])
        M = F.mul(F.mul(Q, C0), Qinv)
        X = F.mul(P, F.exchange(s))
        # Keep instances where the blocks have full Sylvester structure and
        # the ladder's special candidates (J, I, -J) do not already solve it.
        A = F.sub_block(M, 0, s, 0, s)
        if F.rank(A) == s and not F.is_centrosymmetric(M) and X not in (
                F.exchange(s), F.identity(s), F.scale(-1, F.exchange(s))):
            return M, X


def linear_toeplitz(alpha, m):
    alpha = Fraction(alpha)
    return [[alpha + (i - j) for j in range(m)] for i in range(m)]


def _solve_pair(corpus, name, M, similar=False, odd=False):
    """The search-then-transform pipeline on one matrix: `solve`, then `transform`."""
    path = corpus.add_matrix(name, M)
    view = ["--odd"] if odd else []
    facts = {"M": M, "odd": odd}
    return [Op(["solve", path] + view, "solve", similar, facts=facts),
            Op(["transform", path] + view, "transform", similar, facts=facts)]


def _solve_large(rng):
    corpus = Corpus({}, [])
    # Eight passes, each with one fresh instance per size, keep the per-seed
    # median steady: a run cycles through them.
    for k in range(8):
        ops = []
        for n in (12, 14, 16):
            M, _ = planted(rng, n, bound=3)
            path = corpus.add_matrix(f"large{k}_n{n}.json", M)
            ops.append(Op(["solve", path], "solve", planted=True,
                          facts={"M": M, "odd": False}))
        corpus.passes.append(ops)
    return corpus


def _solve_small(rng):
    corpus = Corpus({}, [])
    ops = []
    for n in (4, 5, 6, 7):
        M, _ = planted(rng, n, bound=5)
        ops += _solve_pair(corpus, f"planted_n{n}.json", M, True, odd=n % 2 == 1)
    for n in (4, 5):
        M, _ = planted(rng, n, scale=OFF_GRID, bound=3)
        ops += _solve_pair(corpus, f"offgrid_n{n}.json", M, True, odd=n % 2 == 1)
    for m, alphas in TOEPLITZ_ALPHAS.items():
        for k, alpha in enumerate(alphas):
            ops += _solve_pair(corpus, f"toeplitz{m}_{k}.json", linear_toeplitz(alpha, m))
    for k, (rows, odd) in enumerate(LINE_CASES):
        ops += _solve_pair(corpus, f"line{k}.json", F.mat(rows), odd=odd)
    rng.shuffle(ops)
    corpus.passes.append(ops)
    return corpus


def _embedding_instance(rng, s, m, r):
    """(M, X) with rank-r X solving XA = DX, C = XBX (built in normal form)."""
    K = _ints(rng, r, r)
    Ap = F.block([[K, F.zeros(r, s - r)], [_ints(rng, s - r, r), _ints(rng, s - r, s - r)]])
    Dp = F.block([[K, _ints(rng, r, m - r)], [F.zeros(m - r, r), _ints(rng, m - r, m - r)]])
    Bp = _ints(rng, s, m)
    Cp = F.block([[F.sub_block(Bp, 0, r, 0, r), F.zeros(r, s - r)],
                  [F.zeros(m - r, r), F.zeros(m - r, s - r)]])
    Xp = [[Fraction(int(i == j and i < r)) for j in range(s)] for i in range(m)]
    T, Tinv = unimodular(rng, m, m + 1, 3)
    S, Sinv = unimodular(rng, s, s + 1, 3)
    X = F.mul(F.mul(Tinv, Xp), Sinv)
    A = F.mul(F.mul(S, Ap), Sinv)
    B = F.mul(F.mul(S, Bp), T)
    C = F.mul(F.mul(Tinv, Cp), Sinv)
    D = F.mul(F.mul(Tinv, Dp), T)
    return F.block([[A, B], [C, D]]), X


def _wide_instance(rng, s, m):
    """Full-row-rank m x s X (m < s) through a unimodular right inverse."""
    S, Sinv = unimodular(rng, s, s + 1, 3)
    X = F.mul(F.block([[F.identity(m), F.zeros(m, s - m)]]), S)
    Xr = F.mul(Sinv, F.block([[F.identity(m)], [F.zeros(s - m, m)]]))
    D, W, B = _ints(rng, m, m), _ints(rng, s, s), _ints(rng, s, m)
    A = F.add(F.mul(F.mul(Xr, D), X), F.mul(F.sub(F.identity(s), F.mul(Xr, X)), W))
    return F.block([[A, B], [F.mul(F.mul(X, B), X), D]]), X


def _tall_instance(rng, s, m):
    """Full-column-rank m x s X (m > s) through a unimodular left inverse."""
    T, Tinv = unimodular(rng, m, m + 1, 3)
    X = F.mul(T, F.block([[F.identity(s)], [F.zeros(m - s, s)]]))
    Xl = F.mul(F.block([[F.identity(s), F.zeros(s, m - s)]]), Tinv)
    A, W, B = _ints(rng, s, s), _ints(rng, m, m), _ints(rng, s, m)
    D = F.add(F.mul(F.mul(X, A), Xl), F.mul(W, F.sub(F.identity(m), F.mul(X, Xl))))
    return F.block([[A, B], [F.mul(F.mul(X, B), X), D]]), X


def _riccati_instance(rng, s, m, orientation):
    A, B, C, D = _ints(rng, s, s), _ints(rng, s, m), _ints(rng, m, s), _ints(rng, m, m)
    if orientation == "lower":
        W = _ints(rng, m, s)
        C = F.add(F.sub(F.mul(W, A), F.mul(D, W)), F.mul(F.mul(W, B), W))
    else:
        W = _ints(rng, s, m)
        B = F.add(F.sub(F.mul(W, D), F.mul(A, W)), F.mul(F.mul(W, C), W))
    return F.block([[A, B], [C, D]]), W


def _singular_instance(rng, s, system):
    """(M, W) satisfying certificate system 1-4 with a unimodular s x s witness."""
    W, Winv = unimodular(rng, s, s + 1, 3)
    P, R = _ints(rng, s, s), _ints(rng, s, s)
    if system == 1:      # C = XA, DX = XBX
        A, B = P, R
        C, D = F.mul(W, A), F.mul(F.mul(F.mul(W, B), W), Winv)
    elif system == 2:    # C = -DX, XA = -XBX
        D, B = P, R
        C, A = F.scale(-1, F.mul(D, W)), F.scale(-1, F.mul(B, W))
    elif system == 3:    # B = YD, AY = YCY
        D, C = P, R
        B, A = F.mul(W, D), F.mul(F.mul(F.mul(W, C), W), Winv)
    else:                # B = -AY, YD = -YCY
        A, C = P, R
        B, D = F.scale(-1, F.mul(A, W)), F.scale(-1, F.mul(C, W))
    return F.block([[A, B], [C, D]]), W


def palindromic_couplings(rng, size):
    """Couplings c0..cn with the mirror symmetry the corollaries require."""
    n = size - 1
    c = [rng.randint(1, 4) for _ in range(size)]
    top = n // 2 if size % 2 == 1 else (n - 1) // 2
    for j in range(1, top + 1):
        c[n - j + 1] = c[j]
    return c


def _certify(rng):
    corpus = Corpus({}, [])
    ops = []

    def given(cmd, name, M, X, kind, extra=(), **facts):
        mp = corpus.add_matrix(f"{name}_m.json", M)
        xp = corpus.add_matrix(f"{name}_x.json", X)
        flag = "--w" if cmd in ("factor-riccati", "certify-singular") else "--x"
        ops.append(Op([cmd, mp, flag, xp] + list(extra), kind, facts={"M": M, "X": X, **facts}))

    for rep in range(2):
        for n in (4, 5):
            M, X = planted(rng, n, bound=5)
            given("transform", f"tr{rep}_n{n}", M, X, "transform",
                  ["--odd"] if n % 2 else [], odd=n % 2 == 1)
        for s, m, r in ((3, 3, 2), (2, 3, 1)):
            M, X = _embedding_instance(rng, s, m, r)
            given("embed", f"emb{rep}_{s}{m}{r}", M, X, "embed", ["--split", str(s)], split=s)
        M, X = _wide_instance(rng, 3, 2)
        given("dilate", f"wide{rep}", M, X, "dilate", ["--split", "3"], split=3)
        M, X = _tall_instance(rng, 2, 3)
        given("dilate", f"tall{rep}", M, X, "dilate", ["--split", "2"], split=2)
        for n in (4, 5):
            M = centrosymmetric(rng, n)
            path = corpus.add_matrix(f"centro{rep}_n{n}.json", M)
            ops.append(Op(["factor-centro", path], "factor", facts={"M": M}))
            ops.append(Op(["check", path], "check", facts={"M": M}))
        for orientation, (s, m) in (("lower", (2, 1 + rep)), ("upper", (1 + rep, 2))):
            M, W = _riccati_instance(rng, s, m, orientation)
            given("factor-riccati", f"ric{rep}_{orientation}", M, W, "factor",
                  ["--split", str(s), "--orientation", orientation])
        for system in (1, 2, 3, 4):
            M, W = _singular_instance(rng, 2, system)
            given("certify-singular", f"sing{rep}_{system}", M, W, "singular",
                  ["--split", "2", "--system", str(system)], split=2, system=system)
        for family in ("a", "b"):
            c = palindromic_couplings(rng, 5 + rep)
            sign = rng.choice("+-")
            ops.append(Op(["verify-corollary", "--family", family,
                           "--c", ",".join(map(str, c)), "--sign", sign], "corollary",
                          facts={"family": family.upper(), "c": c, "sign": sign}))
    for name, text, cmd in MALFORMED:
        corpus.files[name] = text
        ops.append(Op([cmd, name], "malformed", malformed=True))
    rng.shuffle(ops)
    corpus.passes.append(ops)
    return corpus


def _alpha_scan(rng):
    alphas = list(ALPHA_SCAN_VALUES)
    rng.shuffle(alphas)
    ops = [Op(["alpha-scan", "--size", "6", "--start", a, "--stop", a, "--step", "1"],
              "alpha", facts={"alpha": float(a)}) for a in alphas]
    return Corpus({}, [ops])


def build(workload, seed):
    """The corpus of one workload for one seed; equal seeds give equal corpora."""
    rng = random.Random(f"{workload}:{seed}")
    return {"solve-large": _solve_large, "solve-small": _solve_small,
            "certify": _certify, "alpha-scan": _alpha_scan}[workload](rng)
