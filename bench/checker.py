"""Independent checker for centrosim's CLI reports.

Every positive answer is re-verified here from the generator's own copy of
the input, with plain Fraction lists (``fmat``) and no centrosim import:

* solve: XA = DX, C = XBX, the odd-view center equations, and the reported
  ``invertible`` flag against det(X);
* transform / embed / dilate: Q Q^-1 = I, Q^-1 M Q = result, the
  centrosymmetry of the result (or of its leading 2r x 2r block), and for a
  dilation that M is the leading block of the dilated matrix;
* factorizations: the reported factor determinants are the factors'
  determinants and multiply to det(M);
* singular certificates, corollaries, ``check`` and alpha-scan rows by
  recomputing the claim itself.

Each operation gets at most one failure kind, the first that applies in
FAILURE_KINDS order.  ``certificate`` and ``false_negative`` are wrong
answers; the other kinds break the CLI's contract without claiming anything
false.
"""

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import fmat as F

FAILURE_KINDS = (
    "exception",            # raised, or printed a traceback
    "exit_on_valid",        # exit 1 on valid input
    "malformed_accepted",   # malformed input without exit 1 and a one-line error:
    "certificate",          # a reported certificate fails the independent check
    "false_negative",       # definite negative on an instance planted to be similar
    "empty_no_diagnostic",  # search came back empty and did not say why
)
WRONG_KINDS = ("certificate", "false_negative")

# Diagnostics that claim no intertwiner exists (as opposed to "not found").
DEFINITE_NEGATIVES = ("Sylvester space trivial", "linear constraints infeasible",
                      "irrational discriminant")


@dataclass(frozen=True)
class Verdict:
    certified: bool = False
    failure: str | None = None

    @property
    def wrong(self):
        return self.failure in WRONG_KINDS


OK = Verdict()
CERTIFIED = Verdict(certified=True)


class Reject(Exception):
    """A report that fails the independent check."""


def _require(cond, what):
    if not cond:
        raise Reject(what)


def check(op, code, stdout, stderr, raised=False):
    """Verdict for one CLI call of ``op`` (an ``inputs.Op``)."""
    if raised or "Traceback (most recent call last)" in stderr:
        return Verdict(failure="exception")
    if op.malformed:
        lines = stderr.strip().splitlines()
        if code == 1 and len(lines) == 1 and lines[0].startswith("error:"):
            return OK
        return Verdict(failure="malformed_accepted")
    if code == 1:
        return Verdict(failure="exit_on_valid")
    try:
        report = json.loads(stdout)
        _require(report.get("exit_code") == code, "report exit_code differs from the exit code")
        return RULES[op.kind](op, code, report)
    except (Reject, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError):
        return Verdict(failure="certificate")


def _blocks(M, odd):
    n = len(M)
    s = (n - 1) // 2 if odd else n // 2
    t = s + 1 if odd else s
    out = {"s": s, "A": F.sub_block(M, 0, s, 0, s), "B": F.sub_block(M, 0, s, t, n),
           "C": F.sub_block(M, t, n, 0, s), "D": F.sub_block(M, t, n, t, n)}
    if odd:
        out.update(x=F.sub_block(M, 0, s, s, s + 1), w=F.sub_block(M, t, n, s, s + 1),
                   y=F.sub_block(M, s, s + 1, 0, s), z=F.sub_block(M, s, s + 1, t, n))
    return out


def solves_split(M, X, odd=False):
    """XA = DX and C = XBX (plus w = Xx, y = zX in the odd view)."""
    b = _blocks(M, odd)
    ok = (F.mul(X, b["A"]) == F.mul(b["D"], X)
          and b["C"] == F.mul(F.mul(X, b["B"]), X))
    if odd:
        ok = ok and b["w"] == F.mul(X, b["x"]) and b["y"] == F.mul(b["z"], X)
    return ok


def _search_verdict(op, code, report):
    """Shared by solve and a searching transform that found nothing invertible."""
    M, odd = op.facts["M"], op.facts["odd"]
    invertible = False
    for sol in report.get("solutions", []):
        X = F.from_json(sol["X"])
        _require(solves_split(M, X, odd), "solution fails XA = DX / C = XBX")
        inv = F.shape(X)[0] == F.shape(X)[1] and F.det(X) != 0
        _require(sol["invertible"] == inv, "invertible flag disagrees with det(X)")
        invertible |= inv
    _require(invertible == (code == 0), "exit code disagrees with the solutions")
    if invertible:
        return CERTIFIED
    diagnostic = report["diagnostic"]
    if op.planted and diagnostic and diagnostic.startswith(DEFINITE_NEGATIVES):
        return Verdict(failure="false_negative")
    if not report.get("solutions") and diagnostic is None:
        return Verdict(failure="empty_no_diagnostic")
    return OK


def _conjugation(M, tr):
    """Check Q Q^-1 = I and Q^-1 M Q = result; returns result."""
    Q, Qinv, result = (F.from_json(tr[k]) for k in ("Q", "Q_inv", "result"))
    n = len(M)
    _require(F.shape(Q) == (n, n) and F.mul(Q, Qinv) == F.identity(n), "Q Q^-1 != I")
    _require(F.mul(F.mul(Qinv, M), Q) == result, "Q^-1 M Q != result")
    return result


def _transform(op, code, report):
    if code != 0:
        return _search_verdict(op, code, report)
    result = _conjugation(op.facts["M"], report["transform"])
    _require(F.is_centrosymmetric(result), "result is not centrosymmetric")
    if "X" in op.facts:
        _require(F.from_json(report["X"]) == op.facts["X"], "report X is not the given X")
    return CERTIFIED


def _embed(op, code, report):
    _require(code == 0, "embed did not certify a valid (M, X)")
    result = _conjugation(op.facts["M"], report["transform"])
    size = int(re.fullmatch(r"principal_block\((\d+)\)", report["transform"]["certification"])[1])
    _require(size == 2 * F.rank(op.facts["X"]), "block size is not 2 rank(X)")
    _require(F.is_centrosymmetric(F.sub_block(result, 0, size, 0, size)),
             "leading block is not centrosymmetric")
    return CERTIFIED


def _dilate(op, code, report):
    _require(code == 0, "dilate did not certify a valid (M, X)")
    M, s = op.facts["M"], op.facts["split"]
    n = len(M)
    Mhat = F.from_json(report["Mhat"])
    k = max(s, n - s)
    _require(F.shape(Mhat) == (2 * k, 2 * k), "dilation has the wrong size")
    _require(F.sub_block(Mhat, 0, n, 0, n) == M, "dilation does not embed M")
    result = _conjugation(Mhat, report["transform"])
    _require(F.is_centrosymmetric(result), "result is not centrosymmetric")
    return CERTIFIED


def _factor(op, code, report):
    if code != 0:
        return Verdict(failure="false_negative")
    fac = report["factorization"]
    dets = [Fraction(d) for d in fac["factor_dets"]]
    factors = [F.from_json(f) for f in fac["factors"]]
    _require(len(dets) == len(factors) == 2, "expected two factors")
    _require(all(F.det(f) == d for f, d in zip(factors, dets)), "factor det misreported")
    direct = F.det(op.facts["M"])
    _require(Fraction(fac["direct_det"]) == direct, "direct det misreported")
    _require(dets[0] * dets[1] == direct, "factor dets do not multiply to det(M)")
    return CERTIFIED


def _singular(op, code, report):
    if code != 0:
        return Verdict(failure="false_negative")
    _require(report["certificate_holds"], "exit 0 without a certificate")
    M, W, s, system = op.facts["M"], op.facts["X"], op.facts["split"], op.facts["system"]
    n = len(M)
    A, B = F.sub_block(M, 0, s, 0, s), F.sub_block(M, 0, s, s, n)
    C, D = F.sub_block(M, s, n, 0, s), F.sub_block(M, s, n, s, n)
    WBW, WCW = F.mul(F.mul(W, B), W), F.mul(F.mul(W, C), W)
    if system == 1:
        holds = C == F.mul(W, A) and F.mul(D, W) == WBW
    elif system == 2:
        holds = C == F.scale(-1, F.mul(D, W)) and F.mul(W, A) == F.scale(-1, WBW)
    elif system == 3:
        holds = B == F.mul(W, D) and F.mul(A, W) == WCW
    else:
        holds = B == F.scale(-1, F.mul(A, W)) and F.mul(W, D) == F.scale(-1, WCW)
    _require(holds and not F.is_zero(W), "certificate system does not hold")
    _require(F.det(M) == 0 and Fraction(report["det"]) == 0, "det(M) is not zero")
    return CERTIFIED


def _tridiagonal(diag, off):
    n = len(diag)
    a = F.zeros(n, n)
    for i in range(n):
        a[i][i] = diag[i]
    for i in range(n - 1):
        a[i][i + 1] = a[i + 1][i] = off[i]
    return a


def centro_split_det(K):
    """det(A + BJ) det(A - BJ), bordered first factor for odd size."""
    b = _blocks(K, len(K) % 2 == 1)
    BJ = F.mul(b["B"], F.exchange(b["s"]))
    plus, minus = F.add(b["A"], BJ), F.sub(b["A"], BJ)
    if len(K) % 2:
        plus = F.block([[plus, b["x"]], [F.scale(2, b["y"]), [[K[b["s"]][b["s"]]]]]])
    return F.det(plus) * F.det(minus)


def corollary_holds(family, c, sign):
    """The palindromic determinant identity, from the family's centrosymmetric form.

    Family A is conjugated by the signed cyclic shift; family B is already
    centrosymmetric.  Agreement at size + 2 points proves the identity.
    """
    c = [Fraction(v) for v in c]
    n1 = len(c)
    for t in range(n1 + 2):
        if family == "A":
            M = _tridiagonal([Fraction(t)] * n1, c[:-1])
            M[0][n1 - 1] = M[n1 - 1][0] = sign * c[-1]
            Q = F.zeros(n1, n1)
            for i in range(n1 - 1):
                Q[i][i + 1] = Fraction(1)
            Q[n1 - 1][0] = Fraction(sign)
            K = F.mul(F.mul(Q, M), F.transpose(Q))
        else:
            M = _tridiagonal([Fraction(t)] * n1, c[1:])
            M[0][0] = M[n1 - 1][n1 - 1] = t + sign * c[0]
            K = M
        if not F.is_centrosymmetric(K) or F.det(M) != centro_split_det(K):
            return False
    return True


def _corollary(op, code, report):
    holds = corollary_holds(op.facts["family"], op.facts["c"],
                            1 if op.facts["sign"] == "+" else -1)
    claimed = code == 0 and report["identity_certified"] and report["centrosymmetric_form_check"]
    if claimed and not holds:
        raise Reject("corollary certified where it fails")
    if holds and not claimed:
        return Verdict(failure="false_negative")
    return CERTIFIED if claimed else OK


def _check(op, code, report):
    truth = F.is_centrosymmetric(op.facts["M"])
    _require(report["centrosymmetric"] == (code == 0), "verdict disagrees with exit code")
    if report["centrosymmetric"] and not truth:
        raise Reject("non-centrosymmetric matrix reported centrosymmetric")
    if truth and not report["centrosymmetric"]:
        return Verdict(failure="false_negative")
    return CERTIFIED if truth else OK


def toeplitz6_intertwiners(alpha):
    """Float intertwiners of the n=6 linear Toeplitz matrix from the paper's tables."""
    tables = []
    delta = 9 * alpha * alpha - 105
    if delta > 0:
        tables.append(([[0, 16, 3 * alpha - 13], [20, 3 * (alpha - 9), 16],
                        [3 * alpha - 5, 20, 0]], delta))
    if alpha == 15:
        tables.append(([[-9, 50, 55], [58, 0, 50], [71, 58, -9]], 7680))
    return [[[v / math.sqrt(d) for v in r] for r in Xt] for Xt, d in tables]


def _fmul(a, b):
    return [[sum(x * y for x, y in zip(r, c)) for c in zip(*b)] for r in a]


def _alpha(op, code, report):
    (alpha, size, _best, found, invertible), = report["rows"]
    _require(alpha == op.facts["alpha"] and size == 6, "row is for another alpha")
    if not found:
        return OK
    M = [[alpha + (i - j) for j in range(6)] for i in range(6)]
    A = [r[:3] for r in M[:3]]
    B = [r[3:] for r in M[:3]]
    C = [r[:3] for r in M[3:]]
    D = [r[3:] for r in M[3:]]
    tol = 1e-9 * max(1.0, max(abs(v) for r in M for v in r))
    for X in toeplitz6_intertwiners(alpha):
        res = [_fmul(X, A), _fmul(D, X)], [C, _fmul(_fmul(X, B), X)]
        if all(abs(u - v) <= tol for lhs, rhs in res
               for ru, rv in zip(lhs, rhs) for u, v in zip(ru, rv)):
            _require(not invertible or abs(F.det(F.mat(X))) > tol, "singular X called invertible")
            return CERTIFIED
    raise Reject("intertwiner claimed where the independent tables find none")


RULES = {"solve": _search_verdict, "transform": _transform, "embed": _embed, "dilate": _dilate,
         "factor": _factor, "singular": _singular, "corollary": _corollary,
         "check": _check, "alpha": _alpha}
