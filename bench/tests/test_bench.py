"""Tests of the benchmark's own generator, checker and runner.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import fmat as F  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    a, b = inputs.build(workload, 11), inputs.build(workload, 11)
    assert a.files == b.files
    assert [[op.argv for op in p] for p in a.passes] == [[op.argv for op in p] for p in b.passes]
    c = inputs.build(workload, 12)
    assert (a.files, [[op.argv for op in p] for p in a.passes]) != \
        (c.files, [[op.argv for op in p] for p in c.passes])


def test_planted_instances_solve_their_split():
    rng = inputs.random.Random(5)
    for n in (4, 5, 6, 7, 12):
        M, X = inputs.planted(rng, n)
        assert checker.solves_split(M, X, odd=n % 2 == 1)
        assert F.det(X) != 0 and not F.is_centrosymmetric(M)


def test_known_defect_inputs_are_kept():
    small = inputs.build("solve-small", 1)
    assert small.files["toeplitz4_0.json"] == F.to_json(inputs.linear_toeplitz(0, 4))
    assert small.files["toeplitz6_0.json"] == F.to_json(inputs.linear_toeplitz(3, 6))
    certify = inputs.build("certify", 1)
    assert {name for name, _, _ in inputs.MALFORMED} <= set(certify.files)


def _run_op(op, corpus, tmp_path):
    paths = run.write_corpus(corpus, tmp_path / "work")
    from centrosim import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([paths.get(a, a) for a in op.argv])
    return code, json.loads(out.getvalue())


def _verdict(op, code, report):
    return checker.check(op, code, json.dumps(report), "")


def test_checker_rejects_tampered_x(tmp_path):
    corpus = inputs.build("solve-small", 2)
    op = next(o for o in corpus.passes[0] if o.argv[:2] == ["solve", "planted_n4.json"])
    code, report = _run_op(op, corpus, tmp_path)
    assert _verdict(op, code, report) == checker.CERTIFIED
    x = report["solutions"][0]["X"]["rows"]
    x[0][0] = str(Fraction(x[0][0]) + 1)
    assert _verdict(op, code, report).failure == "certificate"


def test_checker_rejects_tampered_q(tmp_path):
    corpus = inputs.build("certify", 2)
    op = next(o for o in corpus.passes[0] if o.kind == "transform")
    code, report = _run_op(op, corpus, tmp_path)
    assert _verdict(op, code, report) == checker.CERTIFIED
    q = report["transform"]["Q"]["rows"]
    q[-1][-1] = str(Fraction(q[-1][-1]) + 1)
    assert _verdict(op, code, report).failure == "certificate"


def test_checker_rejects_tampered_factor_det(tmp_path):
    corpus = inputs.build("certify", 2)
    op = next(o for o in corpus.passes[0] if o.argv[0] == "factor-centro" and not o.malformed)
    code, report = _run_op(op, corpus, tmp_path)
    assert _verdict(op, code, report) == checker.CERTIFIED
    dets = report["factorization"]["factor_dets"]
    dets[0] = str(Fraction(dets[0]) + 1)
    assert _verdict(op, code, report).failure == "certificate"


def test_checker_classifies_malformed_inputs():
    op = inputs.Op(["check", "bad.json"], "malformed", malformed=True)
    assert checker.check(op, 1, "", "error: bad input\n") == checker.OK
    assert checker.check(op, 2, "{}", "").failure == "malformed_accepted"
    assert checker.check(op, None, "", "", raised=True).failure == "exception"


def test_corollary_oracle_matches_known_identity():
    assert checker.corollary_holds("A", [1, 2, 3, 2], -1)
    assert checker.corollary_holds("B", [4, 1, 3, 1], -1)


def test_scaler_uses_the_bracketing_kernel_times(monkeypatch):
    kernel_times = iter([0.002, 0.008, 0.004])
    monkeypatch.setattr(speed, "time_kernel", lambda: next(kernel_times))
    scaler = speed.Scaler()
    scaler.add("a", 0.03)
    assert scaler.tick() == []  # the bracket is still open
    scaler.add("b", 0.09)
    done = scaler.tick()  # closed by the kernel time 0.008
    factor = speed.NOMINAL_S / 0.004  # geometric mean of 0.002 and 0.008
    assert [(k, raw) for k, raw, _ in done] == [("a", 0.03), ("b", 0.09)]
    assert [scaled for _, _, scaled in done] == pytest.approx([0.03 * factor, 0.09 * factor])
    assert scaler.flush() == []
    scaler.add("c", 0.01)
    assert scaler.flush()[0][2] == pytest.approx(0.01 * speed.NOMINAL_S / math.sqrt(0.008 * 0.004))


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
