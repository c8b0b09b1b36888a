"""Timing at a reference host speed, by a calibration loop sampled during the work.

The benchmark shares a few cores of a host with other tenants.  Their load
changes how fast pure-Python code runs by up to 1.5x within minutes, and
even the fastest of thousands of samples drifts by 1.2x, so no statistic
taken inside one run keeps runs made minutes apart comparable.  What does
track the drift is a fixed piece of pure-Python work timed at the same
moments as the work under test: their times move together (correlation
0.95 to 0.99 per workload run).

So a ``Clock`` interrupts the work every ``EVERY_S`` seconds of wall time,
from a timer signal whose handler runs in the one thread between two
bytecodes, and times a fixed calibration loop there.  The handler's own
time is taken out of the *work clock* that the benchmark reads, so no
timing includes it.  A stretch of work is scaled by ``NOMINAL_S`` over the
loop's mean time in the samples taken during it (or around it, for a
stretch too short to hold ``WINDOW`` samples): it then reads what it would
on a host where the loop takes ``NOMINAL_S``.  The loop is the
benchmark's own code, so a change to the package moves the work and not
the loop.

The handler first runs the loop once untimed, to refill the caches the
work emptied, so that the loop's time depends less on how much memory the
work touched.  It still depends a little on the state the work leaves
(heap and caches): at one host speed the timed run took 0.73 ms between
partition-search items and 0.81 ms between grid-sweep items.  A change to
how the package uses memory can therefore move a scaled figure by a few
percent; the raw figures are kept to check it.
"""

from __future__ import annotations

import bisect
import signal
import time
from random import Random

_now = time.perf_counter

# The loop's usual time when sampled between the package's work, on a
# 2-vCPU x86-64 VM under CPython 3.11; run back to back it takes 0.5 ms.
NOMINAL_S = 7.5e-4
# Wall time between two calibration samples.
EVERY_S = 0.025
# A stretch's scale comes from at least this many samples.
WINDOW = 32


def _make_loop():
    """A fixed mix of the kinds of work the package does, 0.5 ms back to back.

    Three parts, each on fixed inputs built once: a greedy colouring of a
    small graph (dict and set traversal), random list draws with their
    colour counts and a keyed sort, and attribute access on small objects.
    One kind alone tracks some workloads and not others: the list draws
    track grid-sweep best and the colouring planted-mix.
    """
    rng = Random(20_200_322)
    n = 130
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(390)]
    edges = [(a, b) for a, b in edges if a != b]

    class Cell:
        __slots__ = ("a", "b")

        def __init__(self, a: int, b: int) -> None:
            self.a = a
            self.b = b

    def loop() -> int:
        adj: dict[int, set[int]] = {v: set() for v in range(n)}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        colour: dict[int, int] = {}
        for v in sorted(adj, key=lambda v: -len(adj[v])):
            used = {colour[w] for w in adj[v] if w in colour}
            c = 0
            while c in used:
                c += 1
            colour[v] = c

        draw = Random(11)
        lists = {v: draw.sample(range(1, 9), 4) for v in range(78)}
        count: dict[int, int] = {}
        for lst in lists.values():
            for c in lst:
                count[c] = count.get(c, 0) + 1
        order = sorted(lists, key=lambda v: (lists[v][0], v))

        cells = [Cell(i, i * 3 % 17) for i in range(260)]
        total = 0
        for cell in cells:
            total += cell.a if cell.b > 5 else -cell.b
        odd = tuple(cell.a for cell in cells if cell.b & 1)
        return max(colour.values()) + max(count.values()) + len(order) + total + len(set(odd))

    return loop


class Clock:
    """A work clock that excludes calibration, and the samples taken on it."""

    def __init__(self) -> None:
        self._loop = _make_loop()
        self._stolen = 0.0  # wall time spent in the handler so far
        self.at: list[float] = []  # work-clock time of each sample
        self.loop_s: list[float] = []  # the loop's time in each sample
        self._sums = [0.0]

    def _sample(self, signum, frame) -> None:
        start = _now()
        self._loop()  # refills the caches; not timed
        begin = _now()
        self._loop()
        end = _now()
        self.at.append(start - self._stolen)
        self.loop_s.append(end - begin)
        self._stolen += _now() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        """Work-clock seconds: wall time less the time spent sampling."""
        while True:
            stolen = self._stolen
            t = _now()
            if stolen == self._stolen:  # no sample was taken in between
                return t - stolen

    def now_ns(self) -> int:
        return int(self.now() * 1e9)

    def scaled(self, start: float, end: float) -> float:
        """The work-clock stretch start .. end at the reference speed."""
        n = len(self.at)
        if len(self._sums) != n + 1:
            self._sums = [0.0]
            for x in self.loop_s:
                self._sums.append(self._sums[-1] + x)
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        while hi - lo < min(WINDOW, n):
            lo = max(0, lo - 1)
            hi = min(n, hi + 1)
        if hi == lo:  # no sample at all: the stretch stays as measured
            return end - start
        return (end - start) * NOMINAL_S * (hi - lo) / (self._sums[hi] - self._sums[lo])
