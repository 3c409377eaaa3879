"""Interpreter speed, for scaling timed figures on a shared machine.

On a shared machine the same code runs up to 1.6x slower for stretches of
seconds while neighbours load the cores.  A fixed pure-Python probe that
does the same kind of work as drc (walking slotted tree nodes, a bisect,
small tuples) slows down with it.  With a probe call after each op, over
half-second windows of ``edit-dna``, drc's op latency divided by the
probe's time varied by about 4% where the raw latency varied by 20%; probe
bursts every quarter second tracked the machine much worse.  Timed
end-to-end figures are therefore scaled to ``NOMINAL_S`` per probe call,
about the probe's time on an unshared core of a 2.1 GHz x86-64 machine.

The probe must not follow drc itself, or a slower drc would be partly
divided out.  Right after an op that touched 4 MB, the probe's first call
took 20% longer than after an op of pure computation (37% after 32 MB),
because the op had pushed the probe's data out of the core's caches; a
second call right after it took the same time in both cases (within 3%).
So each tick makes one untimed call and times the next.

Not every op gains as much as the probe when the machine speeds up.  In
``edit-dna``, over windows where the probe ran 1.68x faster, median reads
and edits ran 1.6x faster but their p99s only 1.24x and 1.33x, so fully
scaled p99s of runs that caught such windows read 20-40% higher.  p99s
are therefore taken from latencies scaled with the factor capped at 1:
down in slow windows, never up in fast ones.

Set-up is a few long calls with no room for the probe between them; each
is scaled by the median of probe bursts timed right before and right
after it.
"""

from __future__ import annotations

import bisect
import statistics
import time

NOMINAL_S = 20e-6  # seconds per probe call when the core is not shared
EVERY_S = 0.05  # seconds per window
MIN_TICKS = 16  # probe times a window needs before it closes
BURST = 200  # probe calls timed before and after each set-up


class _Node:
    __slots__ = ("key", "left", "right", "val")

    def __init__(self, key, left, right):
        self.key, self.left, self.right, self.val = key, left, right, 2 * key


def _build(lo: int, hi: int):
    if lo >= hi:
        return None
    mid = (lo + hi) // 2
    return _Node(mid, _build(lo, mid), _build(mid + 1, hi))


class Probe:
    """The fixed task.  Its data fits in a few kilobytes, so the program's
    own memory traffic barely touches it."""

    SIZE = 64

    def __init__(self):
        self.root = _build(0, self.SIZE)
        self.keys = list(range(0, 977 * self.SIZE, 977))

    def task(self, x: int) -> int:
        s = 0
        for j in range(24):
            k = (x * 131 + j * 977) % self.SIZE
            n = self.root
            while n.key != k:
                n = n.left if k < n.key else n.right
            s += n.val + bisect.bisect_left(self.keys, (x * 7 + j) % 60000)
            s += (s, k)[1] & 7
        return s

    def burst(self) -> list:
        """Seconds of each of ``BURST`` probe tasks in a row."""
        times = []
        for x in range(BURST):
            t0 = time.perf_counter()
            self.task(x)
            times.append(time.perf_counter() - t0)
        return times


def setup_scale(before: list, after: list) -> float:
    """Scale factor of a set-up between two probe bursts."""
    return NOMINAL_S / statistics.median(before + after)


class SpeedLog:
    """Two probe tasks after each op, the second of them timed, closed
    into windows of about ``EVERY_S`` seconds.  Each window scales the
    latencies recorded in it by the median probe time seen in it."""

    def __init__(self, probe: Probe, rec):
        self.probe, self.rec = probe, rec
        self.windows: list = []  # (median probe seconds, samples so far by class)
        self._times: list = []
        self._x = 0
        self._close_at = 0.0

    def tick(self) -> None:
        """Run the probe task twice and time the second run; close the
        window when it is due and holds enough probe times that one slow
        call cannot set the median.  The untimed first run brings the
        probe's data back into the caches the op used."""
        self._x += 1
        self.probe.task(self._x)
        t0 = time.perf_counter()
        self.probe.task(self._x)
        t1 = time.perf_counter()
        self._times.append(t1 - t0)
        if t1 >= self._close_at and len(self._times) >= MIN_TICKS:
            self.close()

    def close(self) -> None:
        """End the current window; ops since the last probe call share the
        previous window's probe time."""
        if self._times or self.windows:
            probe_s = statistics.median(self._times) if self._times else self.windows[-1][0]
            self.windows.append((probe_s, {k: len(v) for k, v in self.rec.lat.items()}))
        self._times = []
        self._close_at = time.perf_counter() + EVERY_S

    def scaled(self, cap: float = float("inf")) -> tuple:
        """Latencies by class, each window's scaled to the nominal probe
        speed by a factor of at most ``cap``, and the uncapped factor of
        each window."""
        lat = {k: [] for k in self.rec.lat}
        factors = []
        start = {k: 0 for k in self.rec.lat}
        for probe_s, upto in self.windows:
            f = NOMINAL_S / probe_s
            factors.append(f)
            for k, xs in self.rec.lat.items():
                lat[k] += [x * min(f, cap) for x in xs[start[k]:upto[k]]]
            start = upto
        return lat, factors
