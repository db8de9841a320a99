"""Named counters and histograms with snapshot/merge semantics.

A :class:`MetricsRegistry` is a plain in-process accumulator: counters
are ``name -> number`` and histograms are ``name -> {value: count}``
(sparse — exact observed values, not pre-binned buckets, which is the
right shape for small-integer distributions like solver calls per
candidate).

The registry holds only what no run record does: the verification
pool's own accounting (``learning.worker.*``, ``learning.pool.*``),
which crosses the process boundary in worker snapshots, and the
journal replay count.  Everything a run record already counts
(:class:`~repro.learning.pipeline.LearningReport`, ``DBTStats``,
``FeedResult``, ``SyncResult``, ...) is read from that record.

``snapshot()`` returns a picklable plain-dict view and ``merge()``
adds one registry/snapshot into another, which is how worker processes
in :mod:`repro.learning.parallel` report their side of the accounting:
each worker fills a fresh registry, ships ``snapshot()`` back with its
results, and the parent merges.

:func:`format_metrics` is the one formatter every CLI routes metric
dumps through, so the learning CLIs' economy block and every
``--metrics`` dump render alike.
"""

from __future__ import annotations

import threading

#: The quantiles every summary view reports.
SUMMARY_QUANTILES = (0.50, 0.95, 0.99)


def histogram_quantiles(bucket: dict, quantiles=SUMMARY_QUANTILES) -> dict:
    """Weighted nearest-rank quantiles of a sparse ``{value: count}``
    histogram, as ``{"p50": v, "p95": v, "p99": v}``.

    Exact, not interpolated: each reported quantile is a value that was
    actually observed, which keeps summaries honest for the small
    discrete distributions (rule lengths, solver calls, frame
    latencies) these histograms hold.  Empty input gives ``{}``.
    """
    pairs = sorted(
        (value, count) for value, count in bucket.items() if count > 0
    )
    total = sum(count for _, count in pairs)
    if total == 0:
        return {}
    result = {}
    for q in quantiles:
        # nearest-rank: the smallest value whose cumulative count
        # reaches ceil(q * total).
        rank = max(1, -(-int(q * total * 1_000_000) // 1_000_000))
        rank = min(rank, total)
        cumulative = 0
        for value, count in pairs:
            cumulative += count
            if cumulative >= rank:
                result[f"p{int(q * 100)}"] = value
                break
    return result


class MetricsRegistry:
    """Process-local named counters and histograms.

    Updates are guarded by a lock: rule-service deployments record
    from several threads (concurrent sync clients, the server's
    learning executor), and ``dict.get``-then-store is not atomic.
    """

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._histograms: dict[str, dict] = {}
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    def inc(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def observe(self, name: str, value, count: int = 1) -> None:
        with self._lock:
            bucket = self._histograms.setdefault(name, {})
            bucket[value] = bucket.get(value, 0) + count

    # -- reading -------------------------------------------------------------

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    def histogram(self, name: str) -> dict:
        return dict(self._histograms.get(name, {}))

    def __len__(self) -> int:
        return len(self._counters) + len(self._histograms)

    def snapshot(self) -> dict:
        """A plain-dict (picklable, JSON-able for string keys) view.

        Includes a derived ``quantiles`` summary per histogram;
        ``merge()`` recomputes from the raw buckets, so shipping a
        snapshot across a process boundary loses nothing.
        """
        with self._lock:
            histograms = {
                name: dict(bucket)
                for name, bucket in self._histograms.items()
            }
            counters = dict(self._counters)
        return {
            "counters": counters,
            "histograms": histograms,
            "quantiles": {
                name: histogram_quantiles(bucket)
                for name, bucket in histograms.items()
            },
        }

    # -- combining -----------------------------------------------------------

    def merge(self, other: "MetricsRegistry | dict") -> None:
        """Add ``other`` (a registry or a ``snapshot()`` dict) into
        this registry."""
        snapshot = other.snapshot() if isinstance(other, MetricsRegistry) \
            else other
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, bucket in snapshot.get("histograms", {}).items():
            for value, count in bucket.items():
                self.observe(name, value, count)

    def clear(self) -> None:
        self._counters.clear()
        self._histograms.clear()


def format_metrics(source: MetricsRegistry | dict,
                   title: str = "metrics") -> str:
    """Render counters/histograms as aligned ``name = value`` lines.

    Counters print as integers when whole; histograms print their
    value/count pairs sorted by value, followed by a p50/p95/p99
    summary row.
    """
    snapshot = source.snapshot() if isinstance(source, MetricsRegistry) \
        else source
    rows: list[tuple[str, str]] = []
    for name in sorted(snapshot.get("counters", {})):
        value = snapshot["counters"][name]
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        text = f"{value:.3f}" if isinstance(value, float) else str(value)
        rows.append((name, text))
    for name in sorted(snapshot.get("histograms", {})):
        bucket = snapshot["histograms"][name]
        text = ", ".join(
            f"{value}:{count}"
            for value, count in sorted(bucket.items(), key=lambda kv: kv[0])
        )
        rows.append((name + "{}", "{" + text + "}"))
        summary = snapshot.get("quantiles", {}).get(name) \
            or histogram_quantiles(bucket)
        if summary:
            text = " ".join(f"{q}={v}" for q, v in summary.items())
            rows.append((name + ".quantiles", text))
    if not rows:
        return f"{title}: (none)"
    width = max(len(name) for name, _ in rows)
    lines = [f"{title}:"]
    for name, text in rows:
        lines.append(f"  {name.ljust(width)}  {text}")
    return "\n".join(lines)


_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global registry instrumented code records into."""
    return _METRICS


def set_metrics(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Swap the global registry (None installs a fresh one); returns
    the previous registry.  Tests use this for isolation."""
    global _METRICS
    previous = _METRICS
    _METRICS = registry if registry is not None else MetricsRegistry()
    return previous
