"""The machine's speed of the moment, from a fixed reference computation.

The 2-vCPU host the benchmark was sized on is shared with other tenants.
Its speed flips between a fast and a slow state every few seconds (the
same K report took 0.56-1.11 s over four minutes, in two clusters), so
raw seconds of identical work spread wider than any bound a regression
gate can use. So the runner times a fixed computation, which no
knotfloer change can touch, every EVERY_S seconds while the ops run, and
rescales each stretch of an op's time by the reference's speed at its
two ends. A time so rescaled reads in reference seconds: the seconds the
op would take on a machine that does one reference computation in
`NOMINAL_S`.

The reference is the kind of work the program does: Gaussian elimination
over F2 on sparse rows held as Python sets, keyed by pivot in a dict,
then a table of tuple keys built and sorted. Measured on that host: over
30-s windows of repeated K reports, rescaling each report by references
timed just before and after it cut the windows' spread from 10.7% to
3.9% (coefficient of variation). A timer, not the op boundaries, sets
the sampling, so a multi-second report is sampled inside too; with it
the ten-seed spread (IQR/median) of wall_s was 7.2% on `wide` and 3.7%
on `files`, where raw seconds had spread 11-27%.
"""

import bisect
import contextlib
import random
import signal
import time

NOMINAL_S = 0.010
# A sample is the faster of REPEATS runs, which drops an interrupted one.
EVERY_S = 0.4
REPEATS = 2

_rng = random.Random("perfbench-reference")
_ROWS = tuple(frozenset(_rng.sample(range(200), 4)) for _ in range(180))


def reference():
    """Rank over F2 of a fixed sparse 180 x 200 matrix, then a sorted table.

    The second half builds a dict of tuple keys and list values and sorts
    it, the allocation-heavy work of building a complex; with it the
    reference follows the `files` ops' speed better than elimination alone.
    """
    pivots = {}
    for row in _ROWS:
        row = set(row)
        while row:
            pivot = max(row)
            if pivot not in pivots:
                pivots[pivot] = row
                break
            row ^= pivots[pivot]
    table = {(i, i % 17): [i, (i, i + 1), {i % 7}] for i in range(2500)}
    order = sorted(table, key=lambda key: (key[1], -key[0]))
    return len(pivots), order[0]


RESULT = reference()


class Pace:
    """Reference timings taken between and inside the timed intervals of a run."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self.seconds = []  # the reference's wall time, best of REPEATS
        self.cpu_seconds = []  # its CPU time, best of REPEATS
        self.spent_cpu = []  # CPU time of the whole sample

    def sample(self):
        start, cpu = time.perf_counter(), time.process_time()
        best = best_cpu = float("inf")
        for _ in range(REPEATS):
            t0, c0 = time.perf_counter(), time.process_time()
            result = reference()
            best = min(best, time.perf_counter() - t0)
            best_cpu = min(best_cpu, time.process_time() - c0)
        if result != RESULT:
            raise RuntimeError(f"reference gave {result}, not {RESULT}")
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.seconds.append(best)
        self.cpu_seconds.append(best_cpu)
        self.spent_cpu.append(time.process_time() - cpu)

    @contextlib.contextmanager
    def ticking(self):
        """Sample once, then every EVERY_S seconds (SIGALRM), then once more.

        The handler runs in the main thread between bytecodes, so a sample
        never straddles an op's start or end clock reading.
        """
        self.sample()
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def rescale(self, start, end):
        """(raw, reference, cpu factor, sampling cpu) for the interval [start, end].

        The samples taken inside the interval are cut out of it; each
        stretch left is rescaled by the mean of the samples at its ends,
        which gives its raw and reference seconds. The cpu factor turns
        the interval's CPU seconds into reference seconds by the
        reference's CPU time instead, which a hypervisor's steal leaves
        out as it leaves it out of the op's. The sampling cpu is the CPU
        time of the samples inside. The interval must lie after the first
        sample and before the last.
        """
        first = bisect.bisect_right(self.ends, start) - 1
        last = bisect.bisect_left(self.starts, end)
        if first < 0 or last == len(self.starts):
            raise ValueError("interval not bracketed by reference samples")
        raw = scaled = cpu_scaled = 0.0
        edge = start
        for k in range(first + 1, last + 1):
            stretch = min(self.starts[k], end) - edge
            raw += stretch
            scaled += stretch * NOMINAL_S * 2 / (self.seconds[k - 1] + self.seconds[k])
            cpu_scaled += stretch * NOMINAL_S * 2 / (self.cpu_seconds[k - 1] + self.cpu_seconds[k])
            edge = self.ends[k]
        return raw, scaled, cpu_scaled / raw, sum(self.spent_cpu[first + 1:last])

    def stats(self):
        ordered = sorted(self.seconds)
        return {"samples": len(ordered), "min_s": ordered[0], "median_s": ordered[len(ordered) // 2],
                "max_s": ordered[-1]}
