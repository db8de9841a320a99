"""Bounded-error quantile sketches (DDSketch-style log buckets).

:class:`QuantileSketch` summarises a stream of non-negative values in
O(log(max/min)) space with a **guaranteed relative error**: for every
quantile ``q``, the reported value ``est`` satisfies
``|est - true| <= relative_error * true`` (the true value being the
nearest-rank sample quantile of everything observed).  That guarantee
is what sparse exact-value histograms
(:func:`~repro.obs.metrics.histogram_quantiles`) cannot give: their
memory grows with the number of *distinct* values, and under a
long-running server a latency distribution has unboundedly many of
those.

Mechanics: values map to geometric buckets ``key = ceil(log_gamma v)``
with ``gamma = (1 + a) / (1 - a)``, so every value in a bucket is
within ``a`` (relative) of the bucket's midpoint
``2 * gamma^key / (gamma + 1)``.  A quantile query walks the sorted
keys to the target rank and returns the midpoint.  Zero (and anything
below :data:`MIN_TRACKABLE`) lands in a dedicated zero bucket and is
reported exactly as ``0.0``.

Sketches **merge**: bucket counts add key-wise, so per-worker sketches
from the parallel-learning pool (or per-shard sketches from a future
service fleet) combine into the fleet view without losing the error
bound.  Merge is associative and commutative, and ``snapshot()`` is a
plain picklable/JSON-able dict whose serialisation is deterministic —
two sketches that absorbed the same multiset of values snapshot
byte-identically, regardless of observation or merge order.

Memory stays bounded even for adversarial inputs: beyond
``max_buckets`` distinct keys the **lowest** keys collapse into one
(the standard DDSketch collapsing variant), which sacrifices accuracy
only for the smallest values — the upper quantiles (p95/p99, the ones
SLOs gate on) keep their guarantee.

All mutating and reading operations are thread-safe.
"""

from __future__ import annotations

import json
import math
import threading

#: Default guaranteed relative error (1%).
DEFAULT_RELATIVE_ERROR = 0.01

#: Default cap on distinct buckets.  At 1% error this spans more than
#: 8 orders of magnitude before any collapsing happens.
DEFAULT_MAX_BUCKETS = 1024

#: Values at or below this are counted in the zero bucket (reported as
#: exactly 0.0).  Nanosecond-scale latencies in seconds are still far
#: above it.
MIN_TRACKABLE = 1e-12

#: The quantiles summary views report, matching
#: :data:`repro.obs.metrics.SUMMARY_QUANTILES`.
SKETCH_QUANTILES = (0.50, 0.95, 0.99)


class SketchError(ValueError):
    """A malformed sketch snapshot or invalid parameter."""


class QuantileSketch:
    """A mergeable log-bucketed quantile sketch.

    ``relative_error`` is the guaranteed bound ``a``; ``max_buckets``
    caps memory (lowest keys collapse beyond it).
    """

    __slots__ = (
        "relative_error", "max_buckets", "_gamma", "_log_gamma",
        "_buckets", "_zero", "_count", "_sum", "_min", "_max", "_lock",
    )

    def __init__(self, relative_error: float = DEFAULT_RELATIVE_ERROR,
                 max_buckets: int = DEFAULT_MAX_BUCKETS) -> None:
        if not 0.0 < relative_error < 1.0:
            raise SketchError(
                f"relative_error must be in (0, 1): {relative_error!r}"
            )
        if max_buckets < 2:
            raise SketchError(
                f"max_buckets must be >= 2: {max_buckets!r}"
            )
        self.relative_error = float(relative_error)
        self.max_buckets = int(max_buckets)
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_gamma = math.log(self._gamma)
        self._buckets: dict[int, int] = {}
        self._zero = 0
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    def _key(self, value: float) -> int:
        return math.ceil(math.log(value) / self._log_gamma)

    def _bucket_value(self, key: int) -> float:
        # Midpoint of (gamma^(key-1), gamma^key]: within relative_error
        # of every value the bucket holds.
        return 2.0 * self._gamma ** key / (self._gamma + 1.0)

    def observe(self, value: float, count: int = 1) -> None:
        """Absorb ``count`` observations of ``value`` (negative values
        clamp to the zero bucket — latencies and durations only)."""
        if count <= 0:
            return
        value = float(value)
        with self._lock:
            self._count += count
            self._sum += value * count
            clamped = max(value, 0.0)
            if self._min is None or clamped < self._min:
                self._min = clamped
            if self._max is None or clamped > self._max:
                self._max = clamped
            if value <= MIN_TRACKABLE:
                self._zero += count
            else:
                key = self._key(value)
                self._buckets[key] = self._buckets.get(key, 0) + count
                if len(self._buckets) > self.max_buckets:
                    self._collapse_locked()

    def _collapse_locked(self) -> None:
        """Fold the lowest keys together until within ``max_buckets``.

        Collapsing low keys degrades only the smallest values' accuracy;
        every bucket at or above the collapse point keeps the bound.
        """
        keys = sorted(self._buckets)
        overflow = len(keys) - self.max_buckets
        if overflow <= 0:
            return
        sink = keys[overflow]
        for key in keys[:overflow]:
            self._buckets[sink] = (
                self._buckets.get(sink, 0) + self._buckets.pop(key)
            )

    # -- reading -------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile estimate (nearest-rank semantics), within
        ``relative_error`` (relative) of the true sample quantile.
        Returns 0.0 for an empty sketch."""
        if not 0.0 <= q <= 1.0:
            raise SketchError(f"quantile must be in [0, 1]: {q!r}")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = max(1, math.ceil(q * self._count))
            cumulative = self._zero
            if cumulative >= rank:
                return 0.0
            for key in sorted(self._buckets):
                cumulative += self._buckets[key]
                if cumulative >= rank:
                    return self._bucket_value(key)
            # Float edge: fall back to the top bucket.
            return self._bucket_value(max(self._buckets))

    def quantiles(self, qs=SKETCH_QUANTILES) -> dict:
        """``{"p50": v, "p95": v, "p99": v}`` summary."""
        return {f"p{round(q * 100)}": self.quantile(q) for q in qs}

    def fraction_over(self, threshold: float) -> float:
        """The fraction of observations strictly greater than
        ``threshold``, to within ``relative_error`` of the boundary —
        the SLI behind latency SLOs (bad events / total events)."""
        with self._lock:
            if self._count == 0:
                return 0.0
            over = 0
            for key, count in self._buckets.items():
                if self._bucket_value(key) > threshold:
                    over += count
            return over / self._count

    # -- snapshots & merging -------------------------------------------------

    def snapshot(self) -> dict:
        """A plain picklable/JSON-able dict; deterministic layout
        (buckets as a key-sorted list) so equal sketches serialise
        byte-identically."""
        with self._lock:
            return {
                "kind": "ddsketch",
                "relative_error": self.relative_error,
                "max_buckets": self.max_buckets,
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "zero": self._zero,
                "buckets": [
                    [key, self._buckets[key]]
                    for key in sorted(self._buckets)
                ],
            }

    @classmethod
    def from_snapshot(cls, data: dict) -> "QuantileSketch":
        if not isinstance(data, dict) or data.get("kind") != "ddsketch":
            raise SketchError(f"not a sketch snapshot: {data!r}")
        sketch = cls(
            relative_error=data.get(
                "relative_error", DEFAULT_RELATIVE_ERROR
            ),
            max_buckets=data.get("max_buckets", DEFAULT_MAX_BUCKETS),
        )
        sketch.merge(data)
        return sketch

    def merge(self, other: "QuantileSketch | dict") -> None:
        """Add ``other`` (a sketch or a ``snapshot()`` dict) into this
        sketch.  Requires matching ``relative_error`` — merging
        different-resolution sketches would silently void the bound."""
        data = other.snapshot() if isinstance(other, QuantileSketch) \
            else other
        if not isinstance(data, dict) or data.get("kind") != "ddsketch":
            raise SketchError(f"cannot merge non-sketch: {data!r}")
        if abs(data.get("relative_error", -1.0)
               - self.relative_error) > 1e-12:
            raise SketchError(
                f"relative_error mismatch: {data.get('relative_error')}"
                f" != {self.relative_error}"
            )
        with self._lock:
            self._count += int(data.get("count", 0))
            self._sum += float(data.get("sum", 0.0))
            self._zero += int(data.get("zero", 0))
            for bound, pick in (("min", min), ("max", max)):
                theirs = data.get(bound)
                if theirs is not None:
                    ours = self._min if bound == "min" else self._max
                    merged = theirs if ours is None \
                        else pick(ours, theirs)
                    if bound == "min":
                        self._min = merged
                    else:
                        self._max = merged
            for key, count in data.get("buckets", []):
                key = int(key)
                self._buckets[key] = self._buckets.get(key, 0) + count
            if len(self._buckets) > self.max_buckets:
                self._collapse_locked()

    def to_json(self) -> str:
        """Deterministic JSON serialisation of :meth:`snapshot`."""
        return json.dumps(self.snapshot(), sort_keys=True,
                          separators=(",", ":"))

    def summary(self) -> dict:
        """The reporting shape: count/mean/min/max plus quantiles and
        the declared error bound."""
        with self._lock:
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
        return {
            "count": count,
            "mean": (total / count) if count else 0.0,
            "min": lo if lo is not None else 0.0,
            "max": hi if hi is not None else 0.0,
            "relative_error": self.relative_error,
            "quantiles": self.quantiles(),
        }

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"QuantileSketch(count={self._count}, "
            f"buckets={len(self._buckets)}, "
            f"relative_error={self.relative_error})"
        )
