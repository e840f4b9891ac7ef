"""centrosim benchmark: seeded workloads through the CLI, checked independently.

Run from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

One process, one thread, one closed-loop client: each operation is a call of
``centrosim.cli.main`` on JSON files the generator wrote, and the next call
starts when the previous one and its independent check have finished.
``--trace 0`` measures the end-to-end metrics, with every time scaled by a
reference kernel timed around it (speed.py); ``--trace 1`` measures the
per-layer metrics in plain wall time (half the time untraced, half traced,
for the overhead ratio).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
nonzero when any reported certificate or verdict fails the independent
check.  See bench/README.md for the workloads and the meaning of each metric.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402

# Fixed per workload so every run reports the same statistic: the highest
# whole percentile that left at least 10 samples beyond it in 25-second runs
# at the seed commit.  Each run prints its sample count and how many lay beyond.
TAIL_PERCENTILE = {"solve-large": 55, "solve-small": 93, "certify": 99, "alpha-scan": 95}
SETUP_REPEATS = 11

# Span names reported as per-layer self time; their order is the report order.
LAYERS = ("matrix.init", "matrix.mul", "matrix.assemble", "matrix.predicates", "matrix.json",
          "linalg.solve_linear", "linalg.gauss_facts", "linalg.det", "linalg.rank_normal_form",
          "solver.find_intertwiner", "solver.system_residuals", "transforms.build",
          "transforms.embed", "transforms.dilate", "factorization", "generators.alpha_scan",
          "generators.verify_palindromic", "cli.main")
CALL_COUNTS = ("matrix.init", "matrix.mul", "linalg.solve_linear", "linalg.gauss_facts",
               "linalg.det", "solver.find_intertwiner", "transforms.build", "cli.main")

# The final line carries these; ops_failed_share and certified_share are
# printed with them but not gated, because they are 0 on some workloads.
END_TO_END_REPORTED = ("setup_s", "throughput_ops_s", "latency_p50_s", "latency_tail_s",
                       "ops_ok_share", "peak_rss_mb")

SETUP_CODE = """
import sys
import centrosim.cli
from centrosim.matrix import load_matrix
for path in sys.argv[1:]:
    try:
        load_matrix(path)
    except Exception:
        pass
"""


@dataclass
class Phase:
    """Outcome of running whole passes for a while.

    ``latencies`` are scaled by the reference kernel when the phase has a
    ``scaler`` (see speed.py) and are plain wall times otherwise; ``raw``
    always holds the wall times.
    """

    scaler: object = None
    latencies: list = field(default_factory=list)
    raw: list = field(default_factory=list)
    by_op: dict = field(default_factory=dict)
    attempted: int = 0
    certified: int = 0
    failures: dict = field(default_factory=lambda: dict.fromkeys(checker.FAILURE_KINDS, 0))
    wrong: list = field(default_factory=list)
    passes: int = 0
    checker_s: float = 0.0
    digest: object = None
    digested: int = 0

    @property
    def failed(self):
        return sum(self.failures.values())

    def record(self, done):
        for key, raw_s, scaled_s in done:
            self.raw.append(raw_s)
            self.latencies.append(scaled_s)
            self.by_op.setdefault(key, []).append(scaled_s)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def write_corpus(corpus, work):
    work.mkdir(parents=True)
    paths = {}
    for name, content in corpus.files.items():
        path = work / name
        text = content if isinstance(content, str) else json.dumps(content)
        path.write_text(text + "\n", encoding="utf-8")
        paths[name] = str(path)
    return paths


def measure_setup(src, paths, repeats):
    """Time ``repeats`` fresh interpreters importing the CLI and loading the inputs.

    Returns one (scaled, wall) pair per start: each start is scaled by the
    reference kernel timed around it, like the operations.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    scaler = speed.Scaler()
    done = []
    for k in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, *paths], env=env, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        scaler.add(k, time.perf_counter() - t0)
        done += scaler.flush()
    return [(scaled, wall) for _, wall, scaled in done]


def run_pass(cli, ops, paths, phase, digest=None):
    """Run one pass of operations, checking each result, into ``phase``."""
    for op in ops:
        argv = [paths.get(a, a) for a in op.argv]
        out, err = io.StringIO(), io.StringIO()
        raised = False
        code = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:  # the checker counts it; the run goes on
            raised = True
        t1 = time.perf_counter()
        if phase.scaler is None:
            phase.record([(id(op), t1 - t0, t1 - t0)])
        else:
            phase.scaler.add(id(op), t1 - t0)
        report = out.getvalue()
        verdict = checker.check(op, code, report, err.getvalue(), raised)
        phase.checker_s += time.perf_counter() - t1
        phase.attempted += 1
        phase.certified += verdict.certified
        if verdict.failure:
            phase.failures[verdict.failure] += 1
        if verdict.wrong:
            phase.wrong.append(" ".join(op.argv))
        if digest is not None and '"mode": "exact"' in report:
            digest.update(report.encode())
            phase.digested += 1
        if phase.scaler is not None:
            phase.record(phase.scaler.tick())
    phase.passes += 1


def run(cli, corpus, paths, seconds, tracer=None):
    """Cycle through whole passes from the first one until ``seconds`` have passed.

    Without a tracer this returns one phase, with its times scaled by the
    reference kernel.  With one, every pass runs twice, untraced and then
    traced, so that drift in the machine's speed hits both sides of
    ``trace.overhead_ratio`` alike; it returns (untraced, traced) with
    plain wall times.
    """
    phases = (Phase(scaler=speed.Scaler()),) if tracer is None else (Phase(), Phase())
    digest = hashlib.sha256()
    t_start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - t_start < seconds:
        ops = corpus.passes[k % len(corpus.passes)]
        run_pass(cli, ops, paths, phases[0], digest if k < len(corpus.passes) else None)
        if tracer is not None:
            tracer.install()
            try:
                run_pass(cli, ops, paths, phases[1])
            finally:
                tracer.uninstall()
        k += 1
    if phases[0].scaler is not None:
        phases[0].record(phases[0].scaler.flush())
    phases[0].digest = digest.hexdigest()
    return phases


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(workload, phase, setup):
    tail_p = TAIL_PERCENTILE[workload]
    tail = percentile(phase.latencies, tail_p)
    # The median is over the corpus's distinct operations, each at its mean
    # over the run's repetitions.  On a shared 2-core VM the same code ran up
    # to 2x faster or slower from one minute to the next, and a median of raw
    # samples jumps between those phases as their mix changes between runs.
    p50 = statistics.median(statistics.fmean(v) for v in phase.by_op.values())
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setup), "s"),
        "throughput_ops_s": (phase.attempted / sum(phase.latencies), "1/s"),
        "latency_p50_s": (p50, "s"),
        "latency_tail_s": (tail, "s"),
        "ops_ok_share": (1 - phase.failed / phase.attempted, "share"),
        "ops_failed_share": (phase.failed / phase.attempted, "share"),
        "certified_share": (phase.certified / phase.attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"latency_tail": {"percentile": tail_p, "samples": len(phase.latencies),
                             "beyond": sum(1 for x in phase.latencies if x > tail),
                             "latencies_s": [round(x, 6) for x in phase.latencies]},
            "wall": {"setup_s": statistics.median(w for _, w in setup), "latency_median_s": statistics.median(phase.raw),
                     "throughput_ops_s": phase.attempted / sum(phase.raw)},
            "kernel_s": {"nominal": speed.NOMINAL_S,
                         "median": statistics.median(phase.scaler.kernel_s),
                         "samples": len(phase.scaler.kernel_s)}}
    return metrics, info


def per_layer(tracer, traced, untraced):
    ops = traced.attempted
    metrics = {}
    for name in CALL_COUNTS:
        metrics[f"{name}.calls"] = (tracer.calls[name] / ops, "1/op")
    for name in LAYERS:
        metrics[f"{name}.self_s"] = (tracer.self_ns[name] / 1e9 / ops, "s/op")
    metrics.update({
        "linalg.solve_linear.max_unknowns": (tracer.max_unknowns, "count"),
        "linalg.max_entry_bits": (tracer.max_entry_bits, "bits"),
        "solver.linear_stage_s": (tracer.linear_stage_ns / 1e9 / ops, "s/op"),
        "solver.candidates_tried": (tracer.candidates / ops, "1/op"),
        "solver.hit_ratio": (tracer.solutions / tracer.candidates if tracer.candidates else 0.0,
                             "ratio"),
        "generators.alpha_points": (tracer.alpha_points / ops, "1/op"),
        "checker.self_s": (traced.checker_s / ops, "s/op"),
        "trace.bookkeeping_s": (tracer.bookkeeping_ns / 1e9 / ops, "s/op"),
        "trace.layer_share": ((sum(tracer.self_ns.values()) + tracer.bookkeeping_ns) / 1e9
                              / sum(traced.latencies), "ratio"),
        "trace.overhead_ratio": (sum(traced.latencies) / sum(untraced.latencies), "ratio"),
        "run.certified_share": (traced.certified / ops, "share"),
        "run.ops_failed_share": (traced.failed / ops, "share"),
    })
    for kind in checker.FAILURE_KINDS:
        metrics[f"run.failed.{kind}"] = (traced.failures[kind] / ops, "share")
    return metrics


def src_line_count(src):
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((src / "centrosim").rglob("*.py")))


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "centrosim" / "cli.py").is_file():
        print(f"error: no centrosim sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from centrosim import cli

    corpus = inputs.build(args.workload, args.seed)
    work = BENCH / "out" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        paths = write_corpus(corpus, work)
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            phases = run(cli, corpus, paths, args.seconds, tracer)
            metrics = per_layer(tracer, phases[1], phases[0])
            spans = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            tracer.write_spans(spans)
            extra = {"spans_file": str(spans.relative_to(root)), "spans": len(tracer.span_name)}
        else:
            # Half the interpreter starts go before the measured run and half
            # after it, so that the median spans the run's speed phases.
            setup = measure_setup(src, list(paths.values()), SETUP_REPEATS // 2 + 1)
            phases = run(cli, corpus, paths, args.seconds)
            setup += measure_setup(src, list(paths.values()), SETUP_REPEATS // 2)
            metrics, extra = end_to_end(args.workload, phases[0], setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    wrong = [w for p in phases for w in p.wrong]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "src_lines": src_line_count(src), "passes": [p.passes for p in phases],
        "exact_reports_sha256": phases[0].digest, "exact_reports_hashed": phases[0].digested,
        "failures": {k: sum(p.failures[k] for p in phases) for k in checker.FAILURE_KINDS},
        "wrong_answers": wrong[:10], **extra,
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:40s} {value:14.6g} {unit}")
    print("info " + json.dumps(info, sort_keys=True))
    wanted = metrics if args.trace else END_TO_END_REPORTED
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted}}
    out_file = BENCH / "out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.parent.mkdir(exist_ok=True)
    out_file.write_text(json.dumps({"result": result, "info": info,
                                    "all_metrics": {k: v[0] for k, v in metrics.items()}},
                                   indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
