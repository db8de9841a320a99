"""Windowed time-series for live service telemetry.

A :class:`TimeSeries` is a ring of per-second buckets: ``add(n)``
accumulates into the bucket for the current second, and ``rate()`` /
``total()`` read back only the buckets inside the window, so a
long-running ``repro-serve`` answers "gaps/sec right now" without ever
growing memory — the ring recycles buckets in place as time advances.
Reads accept an optional ``window`` narrower than the ring, which is
what multi-window SLO burn rates evaluate over (:mod:`repro.obs.slo`).

Staleness invariant: a bucket is only counted when its recorded
absolute second lies inside ``(now - window, now]``.  Buckets written
a full lap (or more) ago carry an older second and read as zero, so an
idle gap longer than the window can never resurrect previous-lap
counts — :class:`tests.obs.test_timeseries` locks this with injected
clocks.

:class:`SketchLatency` is the duration recorder: a bounded-error
:class:`~repro.obs.sketch.QuantileSketch` underneath, summarised with
guaranteed-accuracy p50/p95/p99.

:class:`ServiceTelemetry` bundles the series and recorders the rule
server exposes through its ``stats`` op; ``repro.obs.top`` renders the
snapshot.  Everything here is wall-clock-free on the wire: snapshots
carry rates and histograms, not timestamps, so clients need no clock
agreement with the server.

All classes are thread-safe — the asyncio server records from its
event loop and from learning-executor threads concurrently.
"""

from __future__ import annotations

import threading
import time

from repro.obs.sketch import QuantileSketch


class TimeSeries:
    """A ring buffer of per-second counting buckets.

    ``window`` seconds of history are retained; older buckets are
    recycled lazily as ``add``/``rate`` observe time advancing.  The
    clock is injectable for deterministic tests.
    """

    def __init__(self, window: float = 60.0, clock=time.monotonic) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1 second: {window!r}")
        self.window = float(window)
        self._clock = clock
        self._slots = int(window)
        # Each slot holds (absolute_second, count); a slot whose
        # recorded second no longer matches is stale and reads as 0.
        self._buckets: list[list] = [[-1, 0.0] for _ in range(self._slots)]
        self._lifetime = 0.0
        self._lock = threading.Lock()

    def _bucket(self, second: int) -> list:
        slot = self._buckets[second % self._slots]
        if slot[0] != second:
            slot[0] = second
            slot[1] = 0.0
        return slot

    def add(self, amount: float = 1) -> None:
        now = int(self._clock())
        with self._lock:
            self._bucket(now)[1] += amount
            self._lifetime += amount

    def total(self, window: float | None = None) -> float:
        """Sum over the live window, or over the trailing ``window``
        seconds when given (clamped to the ring's span).

        Only buckets whose absolute second falls in
        ``[now - w + 1, now]`` count; a bucket last written on a
        previous lap of the ring carries an older second and is
        excluded, so idle gaps longer than the window read as zero.
        """
        now = int(self._clock())
        span = self._slots if window is None else max(
            1, min(self._slots, int(window))
        )
        floor = now - span + 1
        with self._lock:
            return sum(
                count for second, count in self._buckets
                if floor <= second <= now
            )

    def rate(self, window: float | None = None) -> float:
        """Events per second over the live (or trailing) window."""
        span = self.window if window is None else max(
            1.0, min(self.window, float(window))
        )
        return self.total(window) / span

    @property
    def lifetime(self) -> float:
        """Total ever added, independent of the window."""
        with self._lock:
            return self._lifetime

    def snapshot(self) -> dict:
        return {
            "window_seconds": self.window,
            "total": self.total(),
            "rate_per_sec": self.rate(),
            "lifetime": self.lifetime,
        }


class SketchLatency:
    """Bounded-error duration recorder: a quantile sketch over
    milliseconds, presenting the same snapshot shape the telemetry
    consumers (stats op, repro-top) already read."""

    def __init__(self, relative_error: float = 0.01) -> None:
        self.sketch = QuantileSketch(relative_error=relative_error)

    def observe(self, seconds: float) -> None:
        self.sketch.observe(seconds * 1000.0)

    def snapshot(self) -> dict:
        summary = self.sketch.summary()
        return {
            "count": summary["count"],
            "mean_ms": summary["mean"],
            "max_ms": summary["max"],
            "relative_error": summary["relative_error"],
            "quantiles_ms": summary["quantiles"],
        }


class ServiceTelemetry:
    """The rule server's live instrument cluster.

    * ``gaps`` — new gap windows absorbed (rate answers "gaps/sec");
    * ``rules`` — rules published by learning rounds;
    * ``frames`` — request frames handled, any op;
    * per-op latency sketches, keyed by op name.

    ``snapshot(queue_depth=...)`` is the JSON body of the ``stats``
    op's ``telemetry`` field; the caller supplies point-in-time gauges
    (learner queue depth) that live outside the telemetry object.
    """

    def __init__(self, window: float = 60.0, clock=time.monotonic) -> None:
        self.gaps = TimeSeries(window, clock)
        self.rules = TimeSeries(window, clock)
        self.frames = TimeSeries(window, clock)
        self._ops: dict[str, SketchLatency] = {}
        self._lock = threading.Lock()
        self._started = time.time()

    def observe_op(self, op: str, seconds: float) -> None:
        """Record one handled frame of ``op`` taking ``seconds``."""
        self.frames.add()
        with self._lock:
            recorder = self._ops.get(op)
            if recorder is None:
                recorder = self._ops[op] = SketchLatency()
        recorder.observe(seconds)

    def op_sketches(self) -> dict:
        """Live per-op :class:`QuantileSketch` objects, keyed by op —
        the exposition endpoint and SLO engine read these."""
        with self._lock:
            return {name: rec.sketch for name, rec in self._ops.items()}

    def snapshot(self, **gauges) -> dict:
        with self._lock:
            ops = dict(self._ops)
        return {
            "uptime_seconds": time.time() - self._started,
            "gaps": self.gaps.snapshot(),
            "rules": self.rules.snapshot(),
            "frames": self.frames.snapshot(),
            "ops": {name: rec.snapshot() for name, rec in ops.items()},
            **gauges,
        }
