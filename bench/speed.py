"""A fixed reference kernel that tracks how fast the host is running right now.

On a shared VM the same Python code runs up to 1.8x faster or slower from
one half-minute to the next, because other tenants load the host; a plain
wall-clock run then mostly measures which phase it landed in.  The runner
times this kernel between operations and scales each operation's wall time
by ``NOMINAL_S`` over the kernel times that bracket it, so the reported
times read as seconds on a host where the kernel takes ``NOMINAL_S``.

The kernel is the benchmark's own code and never calls centrosim, so any
change to the program under test moves the scaled times in full.  It mixes
the kinds of work the workloads do: Fraction elimination with growing
integers, float elimination and a JSON round trip.
"""

import json
import math
import random
import statistics
import time
from fractions import Fraction

import fmat as F

# Median kernel time on a 2-vCPU x86-64 VM with CPython 3.11; only a unit.
NOMINAL_S = 0.004
# Operations are grouped until this much wall time has passed; then the
# kernel runs again (SAMPLES times, keeping the median) and closes the bracket.
BRACKET_S = 0.1
SAMPLES = 3

_rng = random.Random("centrosim reference kernel")
_FRAC = F.mat([[_rng.randint(-9, 9) for _ in range(9)] for _ in range(9)])
_FLOAT = [[_rng.uniform(-1.0, 1.0) for _ in range(32)] for _ in range(32)]
_DOC = {"rows": [[str(Fraction(_rng.randint(-5, 5), _rng.randint(1, 3))) for _ in range(6)]
                 for _ in range(6)], "mode": "exact", "solutions": [], "diagnostic": None}


def _float_elim(a):
    a = [list(r) for r in a]
    for k in range(len(a)):
        pk = a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / pk
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return a[-1][-1]


def kernel():
    F.det(_FRAC)
    _float_elim(_FLOAT)
    for _ in range(20):
        json.loads(json.dumps(_DOC))


def time_kernel():
    times = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Scaler:
    """Scales wall times by the kernel times measured just before and after them.

    ``add`` queues a raw wall time; ``tick`` runs the kernel once the queued
    times span ``BRACKET_S`` and hands back the queued entries with their
    scaled times; ``flush`` closes the last bracket.
    """

    def __init__(self):
        self.kernel_s = [time_kernel()]
        self.pending = []
        self.pending_s = 0.0

    def add(self, key, raw_s):
        self.pending.append((key, raw_s))
        self.pending_s += raw_s

    def tick(self):
        return self.flush() if self.pending_s >= BRACKET_S else []

    def flush(self):
        if not self.pending:
            return []
        self.kernel_s.append(time_kernel())
        factor = NOMINAL_S / math.sqrt(self.kernel_s[-2] * self.kernel_s[-1])
        done = [(key, raw_s, raw_s * factor) for key, raw_s in self.pending]
        self.pending, self.pending_s = [], 0.0
        return done
