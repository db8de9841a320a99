"""Statistical sampling profiler with phase attribution.

Instrumenting profilers (``sys.setprofile`` / cProfile) slow every
function call by a large constant factor, which disqualifies them from
an always-on deployment.  :class:`SamplingProfiler` instead runs a
daemon thread that wakes ``hz`` times per second and, for each live
thread, records (a) which **phase** that thread has declared itself in
(see :class:`phase`) and (b) the innermost in-project code location
from ``sys._current_frames()``.  Cost scales with the *sampling rate*,
not the workload — the profiled code pays only for entering/leaving
phases (two dict operations on a ``__slots__`` context manager),
which the profiler-overhead benchmark gates at <=3%.

Phases form a per-thread stack, so nested attribution works the way
the tracer's spans do: a sample taken inside ``learn.verify`` while
the server's ``service.learn`` phase is open counts toward
``learn.verify`` (innermost wins), and ``self_samples`` vs ``cumulative_samples`` distinguish time
in a phase proper from time including its children.  Threads with no
declared phase attribute to ``(idle)`` — on a quiet server that is
most samples, which is itself the signal that the server is quiet.

The phase registry is a process-global dict keyed by thread id rather
than a ``threading.local``: the sampler thread must read *other*
threads' stacks, which thread-locals by design prevent.  Individual
dict get/set/del operations are atomic under the GIL, so no lock sits
on the hot path.

Profiles are plain dicts (:meth:`SamplingProfiler.snapshot`) and merge
associatively/commutatively, so per-worker profiles from the parallel
learning pool travel home piggybacked on the MetricsRegistry snapshot
each worker already returns, exactly like metrics do.

Usage::

    profiler = SamplingProfiler(hz=97)
    profiler.start()
    with phase("learn.verify"):
        ...                       # samples land in learn.verify
    profiler.stop()
    profiler.snapshot()["phases"]["learn.verify"]["self_samples"]
"""

from __future__ import annotations

import sys
import threading
import time

#: Default sampling rate.  Prime, so the sampler cannot phase-lock
#: with periodic work that runs at a round frequency.
DEFAULT_HZ = 97

#: Phase name used for threads that have not declared a phase.
IDLE_PHASE = "(idle)"

#: Per-thread phase stacks, keyed by thread id.  Read by the sampler
#: thread, written by :class:`phase` on the instrumented threads; all
#: accesses are single atomic dict ops.
_PHASES: dict[int, list] = {}

#: Cap on distinct (file, line, function) locations kept per phase.
MAX_LOCATIONS = 256


class phase:
    """Declare the current thread to be inside ``name``.

    A re-entrant, nestable context manager deliberately kept as cheap
    as possible: entering is one list-append (plus one dict insert for
    a thread's first phase), leaving is one list-pop.  Usable whether
    or not any profiler is running — when none is, this *is* the whole
    overhead, which is what the <=3% gate measures.
    """

    __slots__ = ("name", "_tid")

    def __init__(self, name: str) -> None:
        self.name = name
        self._tid = 0

    def __enter__(self) -> "phase":
        tid = threading.get_ident()
        self._tid = tid
        stack = _PHASES.get(tid)
        if stack is None:
            _PHASES[tid] = [self.name]
        else:
            stack.append(self.name)
        return self

    def __exit__(self, *exc) -> None:
        stack = _PHASES.get(self._tid)
        if stack:
            stack.pop()
            if not stack:
                # Drop empty stacks so finished threads don't leak
                # registry entries.
                _PHASES.pop(self._tid, None)
        return None


def current_phase() -> str:
    """The innermost phase of the calling thread (for tests/tools)."""
    stack = _PHASES.get(threading.get_ident())
    return stack[-1] if stack else IDLE_PHASE


class SamplingProfiler:
    """Wall-clock sampling profiler; see module docstring.

    ``hz`` is the target sampling rate.  ``include_idle`` controls
    whether samples from phase-less threads are recorded under
    ``(idle)`` (kept by default so utilisation is visible).
    """

    def __init__(self, hz: int = DEFAULT_HZ,
                 include_idle: bool = True,
                 clock: "callable | None" = None) -> None:
        if hz <= 0:
            raise ValueError(f"hz must be positive: {hz!r}")
        self.hz = int(hz)
        self.include_idle = bool(include_idle)
        self._clock = clock or time.monotonic
        self._interval = 1.0 / self.hz
        self._lock = threading.Lock()
        self._phase_samples: dict[str, int] = {}
        self._cumulative: dict[str, int] = {}
        self._locations: dict[str, dict[str, int]] = {}
        self._total_samples = 0
        self._started_at: float | None = None
        self._wall_seconds = 0.0
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            return
        self._stop_event.clear()
        self._started_at = self._clock()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop_event.set()
        thread.join(timeout=2.0)
        self._thread = None
        if self._started_at is not None:
            self._wall_seconds += self._clock() - self._started_at
            self._started_at = None

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
        return None

    def _run(self) -> None:
        sampler_tid = threading.get_ident()
        while not self._stop_event.wait(self._interval):
            self.sample_once(exclude={sampler_tid})

    # -- sampling ------------------------------------------------------------

    def sample_once(self, exclude: set | None = None) -> None:
        """Take one sample of every live thread.  Public so tests can
        drive sampling deterministically without the timer thread."""
        try:
            frames = sys._current_frames()
        except Exception:  # pragma: no cover - interpreter teardown
            return
        exclude = exclude or set()
        with self._lock:
            for tid, frame in frames.items():
                if tid in exclude:
                    continue
                stack = _PHASES.get(tid)
                if stack:
                    # Copy defensively: the owning thread may mutate
                    # the list between our reads.
                    snapshot = tuple(stack)
                    leaf = snapshot[-1] if snapshot else IDLE_PHASE
                    self._phase_samples[leaf] = (
                        self._phase_samples.get(leaf, 0) + 1
                    )
                    for name in set(snapshot):
                        self._cumulative[name] = (
                            self._cumulative.get(name, 0) + 1
                        )
                    self._record_location(leaf, frame)
                elif self.include_idle:
                    self._phase_samples[IDLE_PHASE] = (
                        self._phase_samples.get(IDLE_PHASE, 0) + 1
                    )
                    self._cumulative[IDLE_PHASE] = (
                        self._cumulative.get(IDLE_PHASE, 0) + 1
                    )
                self._total_samples += 1

    def _record_location(self, phase_name: str, frame) -> None:
        # Walk out of stdlib/interpreter frames to the innermost
        # in-project location; fall back to the raw leaf if none.
        leaf = None
        probe = frame
        depth = 0
        while probe is not None and depth < 64:
            filename = probe.f_code.co_filename
            if "/repro/" in filename.replace("\\", "/"):
                leaf = probe
                break
            if leaf is None:
                leaf = probe
            probe = probe.f_back
            depth += 1
        if leaf is None:
            return
        code = leaf.f_code
        where = (
            f"{code.co_filename.rsplit('/', 1)[-1]}"
            f":{leaf.f_lineno}:{code.co_name}"
        )
        locs = self._locations.setdefault(phase_name, {})
        if where in locs or len(locs) < MAX_LOCATIONS:
            locs[where] = locs.get(where, 0) + 1

    # -- snapshots & merging -------------------------------------------------

    def snapshot(self) -> dict:
        """A plain picklable/JSON-able profile.

        Deterministic layout (sorted keys) so identical profiles
        serialise byte-identically, like sketch snapshots.
        """
        with self._lock:
            wall = self._wall_seconds
            if self._started_at is not None:
                wall += self._clock() - self._started_at
            return {
                "kind": "profile",
                "hz": self.hz,
                "total_samples": self._total_samples,
                "wall_seconds": wall,
                "phases": {
                    name: {
                        "self_samples": self._phase_samples.get(
                            name, 0
                        ),
                        "cumulative_samples": self._cumulative.get(
                            name, 0
                        ),
                        "locations": dict(sorted(
                            self._locations.get(name, {}).items()
                        )),
                    }
                    for name in sorted(
                        set(self._phase_samples) | set(self._cumulative)
                    )
                },
            }

    def merge(self, other: "SamplingProfiler | dict") -> None:
        """Fold another profile (or a ``snapshot()`` dict) into this
        one.  Associative and commutative: sample counts add."""
        data = other.snapshot() \
            if isinstance(other, SamplingProfiler) else other
        if not isinstance(data, dict) or data.get("kind") != "profile":
            raise ValueError(f"cannot merge non-profile: {data!r}")
        with self._lock:
            self._total_samples += int(data.get("total_samples", 0))
            self._wall_seconds += float(data.get("wall_seconds", 0.0))
            for name, info in data.get("phases", {}).items():
                self._phase_samples[name] = (
                    self._phase_samples.get(name, 0)
                    + int(info.get("self_samples", 0))
                )
                self._cumulative[name] = (
                    self._cumulative.get(name, 0)
                    + int(info.get("cumulative_samples", 0))
                )
                locs = self._locations.setdefault(name, {})
                for where, count in info.get(
                    "locations", {}
                ).items():
                    if where in locs or len(locs) < MAX_LOCATIONS:
                        locs[where] = locs.get(where, 0) + count

    def clear(self) -> None:
        with self._lock:
            self._phase_samples.clear()
            self._cumulative.clear()
            self._locations.clear()
            self._total_samples = 0
            self._wall_seconds = 0.0
            if self._started_at is not None:
                self._started_at = self._clock()


def profile_report(snapshot: dict, top: int = 10) -> list:
    """Render a profile snapshot as aligned text lines for repro-top
    and the CLI dumps: phases by self time with sample shares."""
    phases = snapshot.get("phases", {})
    total = snapshot.get("total_samples", 0) or 1
    rows = sorted(
        phases.items(),
        key=lambda item: (-item[1].get("self_samples", 0), item[0]),
    )
    lines = [
        f"profile: {snapshot.get('total_samples', 0)} samples @ "
        f"{snapshot.get('hz', 0)}hz over "
        f"{snapshot.get('wall_seconds', 0.0):.1f}s"
    ]
    for name, info in rows[:top]:
        self_samples = info.get("self_samples", 0)
        share = 100.0 * self_samples / total
        lines.append(
            f"  {name:<24} {self_samples:>8} self "
            f"({share:5.1f}%)  {info.get('cumulative_samples', 0):>8} cum"
        )
    return lines


# -- module-level registry ---------------------------------------------------

_GLOBAL_PROFILER: SamplingProfiler | None = None
_GLOBAL_LOCK = threading.Lock()


def get_profiler() -> SamplingProfiler:
    """The process-global profiler (created stopped on first use)."""
    global _GLOBAL_PROFILER
    with _GLOBAL_LOCK:
        if _GLOBAL_PROFILER is None:
            _GLOBAL_PROFILER = SamplingProfiler()
        return _GLOBAL_PROFILER


def set_profiler(profiler: "SamplingProfiler | None") -> None:
    """Swap the process-global profiler (tests, CLI wiring)."""
    global _GLOBAL_PROFILER
    with _GLOBAL_LOCK:
        _GLOBAL_PROFILER = profiler
