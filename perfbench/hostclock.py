"""Timing normalised for the host's momentary speed.

The benchmark runs on a shared host whose CPU speed swings by up to 2x
over seconds to tens of seconds (clock frequency, contention for caches
and sibling hardware threads).  CPU time does not remove it: on such a
host process time and wall time swing together.  So while an operation
is timed, the host's speed is sampled with a fixed pure-Python
reference loop that uses no code of the system under test: one reading
right before the operation, one right after, and short probes every
``PROBE_EVERY_S`` during it, run from a ``SIGALRM`` handler in the
benchmark's one thread.  The operation's wall time, less the time its
probes took, is scaled by how much slower than nominal the loop ran::

    seconds = (wall - probe time)
              * (NOMINAL_STEP_S / (loop s / loop steps)) ** SENSITIVITY

A reported second is thus a second on a host that runs one loop step in
``NOMINAL_STEP_S``.  A change to the system moves the wall time and not
the readings, so it moves the result in full.  A reading taken right
after one operation is reused as the next one's reading before, so
back-to-back operations pay for one reading each.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: Loop steps of the readings before and after an operation (~10 ms).
EDGE_STEPS = 8_000
#: Loop steps of one probe during an operation (~1 ms).
PROBE_STEPS = 1_000
PROBE_EVERY_S = 0.05
#: Seconds one loop step takes on a quiet 2-core x86 VM.
NOMINAL_STEP_S = 1.1e-6
#: How much more the system slows than the loop when the host slows:
#: its wall time goes as (loop step time) ** SENSITIVITY.  With 1, a
#: run's normalised time still rose with its raw wall time on a 2-core
#: VM (at about the 0.4th power); over 32 dbt-ref-warm passes in one
#: process, 1.4 to 1.6 gave the least spread (cv 0.062 against 0.093).
SENSITIVITY = 1.4
#: A reading at most this old counts as taken right before an operation.
FRESH_S = 0.005


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = key


#: The reference loop's working set: about 2 MB of objects, list and dict,
#: visited in a scattered order, so the loop feels cache contention as
#: the interpreter running the system does, not only clock speed.
_SLOTS = 1 << 14
_CELLS = [_Cell(k) for k in range(_SLOTS)]
_TABLE = {k * 7919: _Cell(k) for k in range(_SLOTS)}


_next_step = 0


def reference_seconds(steps: int) -> float:
    """Wall seconds of the reference loop's next ``steps`` steps.  Each
    call continues where the last one stopped, so short and long
    readings visit the working set alike."""
    global _next_step
    first = _next_step
    _next_step += steps
    cells, table, mask = _CELLS, _TABLE, _SLOTS - 1
    acc = 0
    start = time.perf_counter()
    for i in range(first, first + steps):
        cell = cells[(i * 40503) & mask]
        cell.value = (cell.value * 31 + i) & 0xFFFF
        other = table.get(((i * 2654435761) & mask) * 7919)
        acc ^= len((cell, other, i)) + other.value + cell.key
    return time.perf_counter() - start


@dataclass
class Timing:
    wall: float = 0.0
    #: ``wall`` less probe time, at the nominal host speed.
    seconds: float = 0.0


class HostClock:
    def __init__(self) -> None:
        #: False times plain wall seconds with no readings (traced runs,
        #: whose per-layer self times must not absorb probes).
        self.enabled = True
        self._edge = 0.0
        self._taken = float("-inf")
        self._probes = 0
        self._probe_s = 0.0
        self._probe_wall = 0.0

    def _read_edge(self) -> float:
        self._edge = reference_seconds(EDGE_STEPS)
        self._taken = time.perf_counter()
        return self._edge

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        self._probes += 1
        self._probe_s += reference_seconds(PROBE_STEPS)
        self._probe_wall += time.perf_counter() - start

    @contextmanager
    def measure(self):
        """Time the body; the yielded :class:`Timing` is filled on exit."""
        timing = Timing()
        if not self.enabled:
            start = time.perf_counter()
            try:
                yield timing
            finally:
                timing.wall = timing.seconds = time.perf_counter() - start
            return
        fresh = time.perf_counter() - self._taken <= FRESH_S
        before = self._edge if fresh else self._read_edge()
        self._probes = 0
        self._probe_s = self._probe_wall = 0.0
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        start = time.perf_counter()
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            timing.wall = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
            after = self._read_edge()
            steps = 2 * EDGE_STEPS + PROBE_STEPS * self._probes
            step_s = (before + after + self._probe_s) / steps
            timing.seconds = ((timing.wall - self._probe_wall)
                              * (NOMINAL_STEP_S / step_s) ** SENSITIVITY)


CLOCK = HostClock()
