"""Command-line interface: every pipeline on JSON matrix files.

Exit codes: 0 = the requested certification or positive verdict was produced,
2 = the method was inconclusive or the verdict negative (details in the
report), 1 = usage or data error.  Reports are JSON with schema "centrosim/1"
and embed the verbatim residual matrices so failures can be debugged without
rerunning.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from .errors import CentrosimError, PreconditionError
from .factorization import _triangularize_and_factor, centro_det_factors
from .generators import (PalindromicSpec, alpha_scan, bordered_jacobi_pm,
                         conjugated_periodic_jacobi, linear_toeplitz,
                         periodic_jacobi_pm, toeplitz_scaled_intertwiner,
                         verify_palindromic_factorization, write_alpha_scan_csv)
from .linalg import det
from .matrix import (APPROX, EXACT, _field, is_centrosymmetric, load_matrix,
                     matrix_to_json_obj, save_matrix)
from .solver import (SearchOptions, find_intertwiner, riccati_residual,
                     singular_certificate)
from .transforms import build_centro_transform, dilate_to_centrosimilar, embed_centro_principal

SCHEMA = "centrosim/1"


def _mat(M):
    return matrix_to_json_obj(M)


def _solution_obj(sol):
    return {
        "X": _mat(sol.X),
        "sylvester_residual": _mat(sol.sylvester_residual),
        "quadratic_residual": _mat(sol.quadratic_residual),
        "rank": sol.rank,
        "invertible": sol.invertible,
    }


def _transform_obj(report):
    return {
        "Q": _mat(report.Q),
        "Q_inv": _mat(report.Q_inv),
        "result": _mat(report.result),
        "certification": report.certification,
    }


def _parity_split(args, n):
    if getattr(args, "odd", False):
        s = (n - 1) // 2 if args.split is None else args.split
        return "odd", s
    s = n // 2 if args.split is None else args.split
    return "even", s


_SEARCH_ARGS = ("d_max", "grid_numer_max", "grid_denom_max", "max_solutions")


def _search_options(args):
    return SearchOptions(**{k: getattr(args, k) for k in _SEARCH_ARGS + ("tol",)
                            if getattr(args, k) is not None})


def _on_matrix(cmd):
    """Run cmd(args, M, report) on the loaded matrix M, with args.parity and
    args.split resolved (the center split by default) for commands that take
    --split, and the report started with M's mode and rows."""
    @functools.wraps(cmd)
    def run(args):
        M = load_matrix(args.matrix, mode=args.mode)
        if "split" in vars(args):
            args.parity, args.split = _parity_split(args, M.rows)
        return cmd(args, M, {"mode": M.mode, "matrix": _mat(M)})
    return run


@_on_matrix
def _cmd_check(args, M, report):
    # commutes_with_exchange and, at the center split, blocks_centrosymmetric
    # compare the same entry pairs as is_centrosymmetric, so one test answers all three.
    centro = is_centrosymmetric(M, args.tol)
    report.update(centrosymmetric=centro, commutes_with_exchange=centro,
                  blocks_centrosymmetric=centro if M.rows >= 2 else None)
    return (0 if centro else 2), report, f"centrosymmetric: {centro}"


@_on_matrix
def _cmd_solve(args, M, report):
    search = find_intertwiner(M, args.parity, args.split, _search_options(args))
    report.update(parity=args.parity, split=args.split,
                  solutions=[_solution_obj(sol) for sol in search.solutions],
                  sylvester_basis=[_mat(N) for N in search.basis],
                  diagnostic=search.diagnostic)
    if search.discriminant is not None:
        report["discriminant"] = _field(M.mode).to_json(search.discriminant)
    if search.best_residual is not None:
        report["best_residual_norm"] = search.best_residual
    ok = any(sol.invertible for sol in search.solutions)
    summary = (f"{len(search.solutions)} exact solution(s), "
               f"invertible: {sum(1 for x in search.solutions if x.invertible)}"
               + (f"; diagnostic: {search.diagnostic}" if search.diagnostic else ""))
    return (0 if ok else 2), report, summary


@_on_matrix
def _cmd_transform(args, M, report):
    parity, s = args.parity, args.split
    report.update(parity=parity, split=s)
    if args.x:
        X = load_matrix(args.x, mode=args.mode)
    else:
        search = find_intertwiner(M, parity, s, _search_options(args))
        report["diagnostic"] = search.diagnostic
        invertibles = search.invertible_solutions
        if not invertibles:
            report["solutions"] = [_solution_obj(sol) for sol in search.solutions]
            return 2, report, "method inconclusive: no invertible intertwiner found"
        X = invertibles[0].X
    tr = build_centro_transform(M, parity, s, X, args.tol)
    report["X"] = _mat(X)
    report["transform"] = _transform_obj(tr)
    return 0, report, f"certified: {tr.certification}"


@_on_matrix
def _cmd_embed(args, M, report):
    X = load_matrix(args.x, mode=args.mode)
    tr = embed_centro_principal(M, args.split, X, args.tol)
    report.update(split=args.split, X=_mat(X), transform=_transform_obj(tr))
    return 0, report, f"certified: {tr.certification}"


@_on_matrix
def _cmd_dilate(args, M, report):
    X = load_matrix(args.x, mode=args.mode)
    Mhat, Xhat, tr = dilate_to_centrosimilar(M, args.split, X, args.tol)
    report.update(split=args.split, X=_mat(X), Mhat=_mat(Mhat), Xhat=_mat(Xhat),
                  transform=_transform_obj(tr))
    return 0, report, f"certified: {tr.certification} (dilated size {Mhat.rows})"


def _factor_obj(rep, mode):
    to_json = _field(mode).to_json
    return {
        "factors": [_mat(f) for f in rep.factors],
        "factor_dets": [to_json(d) for d in rep.factor_dets],
        "product": to_json(rep.product),
        "direct_det": to_json(rep.direct_det),
        "match": rep.match,
    }


@_on_matrix
def _cmd_factor_centro(args, M, report):
    try:
        rep = centro_det_factors(M, args.tol)
    except PreconditionError:
        report["centrosymmetric"] = False
        return 2, report, "not centrosymmetric; factorization not applicable"
    report["factorization"] = _factor_obj(rep, M.mode)
    summary = (f"det = {report['factorization']['direct_det']} = product of factors, "
               f"match: {rep.match}")
    return (0 if rep.match else 2), report, summary


@_on_matrix
def _cmd_factor_riccati(args, M, report):
    W = load_matrix(args.w, mode=args.mode)
    witness = riccati_residual(M, args.split, W, args.orientation, args.tol)
    report.update(split=args.split, orientation=args.orientation, W=_mat(W),
                  residual=_mat(witness.residual))
    if not witness.is_exact(args.tol):
        return 2, report, "nonzero Riccati residual; factorization not applicable"
    tri, rep = _triangularize_and_factor(M, witness, args.tol)
    report["triangularized"] = _mat(tri)
    report["factorization"] = _factor_obj(rep, M.mode)
    return (0 if rep.match else 2), report, \
        f"det = {report['factorization']['direct_det']}, factors match: {rep.match}"


@_on_matrix
def _cmd_certify_singular(args, M, report):
    W = load_matrix(args.w, mode=args.mode)
    holds = singular_certificate(M, args.split, W, args.system, args.tol)
    report.update(split=args.split, system=args.system, W=_mat(W), certificate_holds=holds)
    if holds:
        report["det"] = _field(M.mode).to_json(det(M))
        return 0, report, f"system {args.system} holds; det(M) = {report['det']}"
    return 2, report, f"system {args.system} does not hold for this witness"


def _rational(text, option):
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{option}: not a rational number: {text!r}") from None


def _parse_rational_list(text):
    if text is None:
        raise ValueError("--c is required")
    return tuple(_rational(part, "--c") for part in text.split(","))


def _cmd_gen(args):
    if args.family == "toeplitz":
        alpha = _rational(args.alpha, "--alpha")
        M = linear_toeplitz(alpha, args.size)
        report = {"family": "toeplitz", "alpha": str(alpha),
                  "size": args.size, "matrix": _mat(M)}
        if args.size in (4, 6):
            xt, delta = toeplitz_scaled_intertwiner(args.size, alpha)
            report["scaled_intertwiner"] = {"Xtilde": _mat(xt),
                                            "delta": _field(EXACT).to_json(delta)}
    else:
        sign = 1 if args.sign == "+" else -1
        spec = PalindromicSpec(t=_rational(args.t, "--t"), c=_parse_rational_list(args.c),
                               sign=sign)
        M = periodic_jacobi_pm(spec) if args.family == "jacobi-a" else bordered_jacobi_pm(spec)
        report = {"family": args.family, "t": str(spec.t),
                  "c": [str(v) for v in spec.c], "sign": args.sign, "matrix": _mat(M)}
    if args.output:
        save_matrix(M, args.output)
        return 0, report, f"wrote {M.rows}x{M.cols} matrix to {args.output}"
    return 0, report, f"generated {M.rows}x{M.cols} matrix"


def _cmd_verify_corollary(args):
    family = args.family.upper()
    c = _parse_rational_list(args.c)
    sign = 1 if args.sign == "+" else -1
    samples = args.samples if args.samples is not None else len(c) + 2
    ok = verify_palindromic_factorization(family, c, sign, samples=samples)
    spec = PalindromicSpec(t=Fraction(1), c=c, sign=sign)
    if family == "A":
        conj_centro = is_centrosymmetric(conjugated_periodic_jacobi(spec))
    else:
        conj_centro = is_centrosymmetric(bordered_jacobi_pm(spec))
    report = {"family": family, "c": [str(v) for v in c], "sign": args.sign,
              "samples": samples, "identity_certified": ok,
              "centrosymmetric_form_check": conj_centro}
    summary = f"determinant identity certified at {samples} points: {ok}"
    return (0 if ok and conj_centro else 2), report, summary


_MAX_SCAN_POINTS = 1_000_000


def _scan_points(start, stop, step):
    """start + i*step for i = 0, 1, ... up to stop (inclusive, to 1e-9 steps)."""
    if step <= 0 or not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError("--start and --stop must be finite and --step finite and positive")
    steps = (stop - start) / step
    count = max(math.floor(steps + 1e-9) + 1, 0) if math.isfinite(steps) else math.inf
    if count > _MAX_SCAN_POINTS:
        raise ValueError(f"--start to --stop spans more than {_MAX_SCAN_POINTS} points")
    return [start + i * step for i in range(count)]


def _cmd_alpha_scan(args):
    rows = alpha_scan(args.size, _scan_points(args.start, args.stop, args.step), tol=args.tol)
    report = {"size": args.size, "count": len(rows),
              "columns": ["alpha", "size", "best_residual_norm",
                          "intertwiner_found", "invertible"],
              "rows": [list(r) for r in rows]}
    if args.output:
        write_alpha_scan_csv(rows, args.output)
        summary = f"scanned {len(rows)} alphas, CSV written to {args.output}"
    else:
        summary = f"scanned {len(rows)} alphas"
    return 0, report, summary


def _add_search_args(p):
    for name in _SEARCH_ARGS:
        p.add_argument("--" + name.replace("_", "-"), type=int, default=None)


def _add_common(p, split=True):
    p.add_argument("--mode", choices=[EXACT, APPROX], default=None,
                   help="force scalar mode (default: inferred from the JSON)")
    p.add_argument("--tol", type=float, default=None,
                   help="relative tolerance for approximate mode (default 1e-9)")
    p.add_argument("-o", "--output", default=None, help="write the JSON report here")
    if split:
        p.add_argument("--split", type=int, default=None,
                       help="split index s (default: center split)")


class _UsageError(Exception):
    """A malformed command line."""


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError on bad arguments, where argparse would print the usage
    and exit 2, the exit code of a negative verdict; subcommand parsers are
    built from the same class."""

    def error(self, message):
        raise _UsageError(message)


def build_parser():
    parser = _Parser(
        prog="centrosim",
        description="Decide, construct and verify similarity to centrosymmetric matrices.")
    # gen and alpha-scan write their own --output (a matrix, a CSV); the
    # other commands write the report there.
    parser.set_defaults(writes_output=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="centrosymmetry predicates for one matrix")
    p.add_argument("matrix")
    _add_common(p, split=False)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="search for an intertwiner X with XA=DX, C=XBX")
    p.add_argument("matrix")
    _add_common(p)
    p.add_argument("--odd", action="store_true", help="use the odd (center row/column) split")
    _add_search_args(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("transform", help="conjugate to a centrosymmetric matrix")
    p.add_argument("matrix")
    _add_common(p)
    p.add_argument("--odd", action="store_true")
    p.add_argument("--x", default=None, help="JSON file with the intertwiner X")
    _add_search_args(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("embed", help="embed a centrosymmetric principal block (rank-deficient X)")
    p.add_argument("matrix")
    _add_common(p)
    p.add_argument("--x", required=True)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("dilate", help="dilate to a centro-similar matrix (full-rank rectangular X)")
    p.add_argument("matrix")
    _add_common(p)
    p.add_argument("--x", required=True)
    p.set_defaults(func=_cmd_dilate)

    p = sub.add_parser("factor-centro", help="centrosymmetric determinant factorization")
    p.add_argument("matrix")
    _add_common(p, split=False)
    p.set_defaults(func=_cmd_factor_centro)

    p = sub.add_parser("factor-riccati", help="Riccati block triangularization and factorization")
    p.add_argument("matrix")
    _add_common(p)
    p.add_argument("--w", required=True, help="JSON file with the witness X or Y")
    p.add_argument("--orientation", choices=["lower", "upper"], required=True)
    p.set_defaults(func=_cmd_factor_riccati)

    p = sub.add_parser("certify-singular", help="zero-determinant certificate systems (1)-(4)")
    p.add_argument("matrix")
    _add_common(p)
    p.add_argument("--w", required=True)
    p.add_argument("--system", type=int, choices=[1, 2, 3, 4], required=True)
    p.set_defaults(func=_cmd_certify_singular)

    p = sub.add_parser("gen", help="generate a matrix from a named family")
    p.add_argument("family", choices=["toeplitz", "jacobi-a", "jacobi-b"])
    p.add_argument("--alpha", default="0", help="toeplitz: diagonal value")
    p.add_argument("--size", type=int, default=4, help="toeplitz: matrix size")
    p.add_argument("--t", default="0", help="jacobi: diagonal value")
    p.add_argument("--c", default=None, help="jacobi: comma-separated couplings c0,...,cn")
    p.add_argument("--sign", choices=["+", "-"], default="+")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen, mode=None, tol=None, writes_output=True)

    p = sub.add_parser("verify-corollary", help="certify a palindromic determinant identity")
    p.add_argument("--family", choices=["a", "b", "A", "B"], required=True)
    p.add_argument("--c", required=True, help="comma-separated couplings c0,...,cn")
    p.add_argument("--sign", choices=["+", "-"], default="+")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_verify_corollary, mode=None, tol=None)

    p = sub.add_parser("alpha-scan", help="numeric sweep of the Toeplitz alpha parameter")
    p.add_argument("--size", type=int, default=4)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_alpha_scan, mode=APPROX, writes_output=True)

    return parser


# One parser per process, built on the first call of main rather than at import;
# parse_args leaves it unchanged and returns a new namespace on every call.
_shared_parser = functools.cache(build_parser)


def main(argv=None):
    try:
        args = _shared_parser().parse_args(argv)
        code, payload, summary = args.func(args)
    except (_UsageError, CentrosimError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = {"schema": SCHEMA, "command": args.command, "mode": args.mode or EXACT,
              "exit_code": code}
    report.update(payload)
    text = json.dumps(report, indent=1, default=str)
    if args.output and not args.writes_output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    try:
        if args.output:
            print(summary)
        else:
            print(summary, file=sys.stderr)
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (as `| head` does).  Point stdout at
        # devnull so that the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
