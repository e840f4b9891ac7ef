"""Span tracing of centrosim's layers from outside the package.

``Tracer.install()`` replaces each traced public function (and the Matrix
constructor and product) with a wrapper that records a span: name, parent
span, start and end.  The wrapper is installed under every name that refers
to the original object in any centrosim module, so a call that
``centrosim.solver`` makes through its own ``from .linalg import
solve_linear`` is attributed too.  Nothing under ``src/`` is edited, and
``uninstall()`` puts the originals back.

A span's self time is its duration minus the time its child spans cover.
The tracer's own bookkeeping (timer reads, recording, counting entry bits)
is charged to ``trace.bookkeeping``, not to the caller, so the layers' self
times plus the bookkeeping plus the benchmark's own time add up to the
traced wall time.  Spans are kept in flat arrays and written out at the end.
"""

import gzip
import importlib
from array import array
from fractions import Fraction
from time import perf_counter_ns

MODULES = ("centrosim", "centrosim.matrix", "centrosim.linalg", "centrosim.solver",
           "centrosim.transforms", "centrosim.factorization", "centrosim.generators",
           "centrosim.cli")

# (module, attribute, span name); "Matrix." attributes are patched on the class.
TARGETS = (
    ("matrix", "Matrix.__init__", "matrix.init"),
    ("matrix", "Matrix.__mul__", "matrix.mul"),
    ("matrix", "Matrix.__rmul__", "matrix.mul"),
    ("matrix", "block", "matrix.assemble"),
    ("matrix", "hstack", "matrix.assemble"),
    ("matrix", "vstack", "matrix.assemble"),
    ("matrix", "is_centrosymmetric", "matrix.predicates"),
    ("matrix", "commutes_with_exchange", "matrix.predicates"),
    ("matrix", "blocks_centrosymmetric", "matrix.predicates"),
    ("matrix", "load_matrix", "matrix.json"),
    ("matrix", "save_matrix", "matrix.json"),
    ("matrix", "matrix_from_json_obj", "matrix.json"),
    ("matrix", "matrix_to_json_obj", "matrix.json"),
    ("linalg", "solve_linear", "linalg.solve_linear"),
    ("linalg", "gauss_facts", "linalg.gauss_facts"),
    ("linalg", "det", "linalg.det"),
    ("linalg", "rank_normal_form", "linalg.rank_normal_form"),
    ("solver", "find_intertwiner", "solver.find_intertwiner"),
    ("solver", "system_residuals", "solver.system_residuals"),
    ("transforms", "build_centro_transform", "transforms.build"),
    ("transforms", "embed_centro_principal", "transforms.embed"),
    ("transforms", "dilate_to_centrosimilar", "transforms.dilate"),
    ("factorization", "centro_det_factors", "factorization"),
    ("factorization", "riccati_block_triangularize", "factorization"),
    ("factorization", "riccati_det_factor", "factorization"),
    ("generators", "alpha_scan", "generators.alpha_scan"),
    ("generators", "verify_palindromic_factorization", "generators.verify_palindromic"),
    ("cli", "main", "cli.main"),
)


def _entry_bits(values):
    best = 0
    for v in values:
        if isinstance(v, Fraction):
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def _matrix_entries(*mats):
    for m in mats:
        if m is not None:
            for i in range(m.rows):
                yield from m.row(i)


def _linalg_output_bits(name, result):
    """Largest numerator/denominator bit length in a linalg function's output."""
    if name == "linalg.det":
        return _entry_bits((result,))
    if name == "linalg.gauss_facts":
        return _entry_bits(_matrix_entries(result.inverse, *result.nullspace))
    if name == "linalg.solve_linear":
        particular, basis = result
        return _entry_bits(_matrix_entries(particular, *basis))
    return _entry_bits(_matrix_entries(result.T, result.S))


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = []        # open span indices
        self._child_ns = []     # time covered by children, per open span
        self.calls = {}
        self.self_ns = {}
        self.bookkeeping_ns = 0
        self.under_search = 0   # open find_intertwiner spans
        self.linear_stage_ns = 0
        self.candidates = 0
        self.solutions = 0
        self.max_unknowns = 0
        self.max_entry_bits = 0
        self.alpha_points = 0
        self._saved = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_ns[name] = 0
        return self._ids[name]

    def wrap(self, fn, name):
        nid = self._name_id(name)
        tracer = self
        stack, child_ns = self._stack, self._child_ns
        is_search = name == "solver.find_intertwiner"

        def traced(*args, **kwargs):
            enter = perf_counter_ns()
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_start.append(0)
            tracer.span_end.append(0)
            stack.append(idx)
            child_ns.append(0)
            if is_search:
                tracer.under_search += 1
            ok = False
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter_ns()
                stack.pop()
                children = child_ns.pop()
                if is_search:
                    tracer.under_search -= 1
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end
                tracer.calls[name] += 1
                tracer.self_ns[name] += end - start - children
                if ok:
                    tracer._account(name, args, result, end - start)
                leave = perf_counter_ns()
                tracer.bookkeeping_ns += (start - enter) + (leave - end)
                if child_ns:
                    child_ns[-1] += leave - enter
            return result

        traced.__wrapped__ = fn
        return traced

    def _account(self, name, args, result, dur):
        if name == "solver.find_intertwiner":
            self.solutions += len(result.solutions)
        elif name == "solver.system_residuals" and self.under_search:
            self.candidates += 1
        elif name == "generators.alpha_scan":
            self.alpha_points += len(args[1])
        if name.startswith("linalg."):
            if name == "linalg.solve_linear":
                self.max_unknowns = max(self.max_unknowns, args[0].cols)
                if self.under_search:
                    self.linear_stage_ns += dur
            self.max_entry_bits = max(self.max_entry_bits, _linalg_output_bits(name, result))

    def install(self):
        mods = {m: importlib.import_module(m) for m in MODULES}
        for mod, attr, name in TARGETS:
            owner = mods["centrosim." + mod]
            if attr.startswith("Matrix."):
                cls, meth = owner.Matrix, attr.split(".", 1)[1]
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(orig, name))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(orig, name)
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, wrapped)
        return self

    def uninstall(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    def write_spans(self, path):
        """One line per span: name, parent span index (-1 for none), start, end (ns)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tparent\tstart_ns\tend_ns\n")
            for i, (nid, parent, start, end) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_start, self.span_end)):
                fh.write(f"{i}\t{self.names[nid]}\t{parent}\t{start}\t{end}\n")
