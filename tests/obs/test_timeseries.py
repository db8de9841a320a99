"""Ring-buffer time-series, latency recorders, and service telemetry."""

import threading

import pytest

from repro.obs.timeseries import (
    ServiceTelemetry,
    SketchLatency,
    TimeSeries,
)


class FakeClock:
    """A settable monotonic clock for deterministic window tests."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTimeSeries:
    def test_empty_series_reads_zero(self):
        series = TimeSeries(window=10, clock=FakeClock())
        assert series.total() == 0
        assert series.rate() == 0
        assert series.lifetime == 0

    def test_add_and_total_within_window(self):
        clock = FakeClock()
        series = TimeSeries(window=10, clock=clock)
        series.add()
        series.add(4)
        clock.advance(3)
        series.add(2)
        assert series.total() == 7
        assert series.rate() == pytest.approx(0.7)
        assert series.lifetime == 7

    def test_old_buckets_age_out_of_window(self):
        clock = FakeClock()
        series = TimeSeries(window=5, clock=clock)
        series.add(100)
        clock.advance(4)
        assert series.total() == 100
        clock.advance(2)  # now 6s past the burst, window is 5
        assert series.total() == 0
        assert series.lifetime == 100

    def test_ring_recycles_buckets_in_place(self):
        clock = FakeClock()
        series = TimeSeries(window=3, clock=clock)
        for _ in range(20):  # far more seconds than slots
            clock.advance(1)
            series.add(1)
        assert series.total() == 3  # only the last 3 seconds survive
        assert series.lifetime == 20
        assert len(series._buckets) == 3

    def test_stale_slot_resets_on_reuse(self):
        clock = FakeClock()
        series = TimeSeries(window=2, clock=clock)
        series.add(5)
        clock.advance(2)  # same slot index, different second
        series.add(1)
        assert series.total() == 1

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            TimeSeries(window=0)

    def test_snapshot_shape(self):
        clock = FakeClock()
        series = TimeSeries(window=10, clock=clock)
        series.add(5)
        snapshot = series.snapshot()
        assert snapshot == {
            "window_seconds": 10.0,
            "total": 5,
            "rate_per_sec": 0.5,
            "lifetime": 5,
        }

    def test_concurrent_adds_do_not_lose_counts(self):
        series = TimeSeries(window=60)
        threads = [
            threading.Thread(
                target=lambda: [series.add() for _ in range(1000)]
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert series.lifetime == 4000


class TestTimeSeriesStaleness:
    """Regression lock: idle gaps must never resurrect previous-lap
    buckets, at full-window or sub-window reads."""

    def test_idle_gap_longer_than_window_reads_zero(self):
        clock = FakeClock(start=3000.0)
        series = TimeSeries(window=10, clock=clock)
        series.add(50)
        clock.advance(25)  # idle for 2.5 laps of the ring
        assert series.total() == 0
        assert series.rate() == 0.0
        assert series.lifetime == 50

    def test_idle_gap_of_exactly_one_window(self):
        clock = FakeClock(start=3000.0)
        series = TimeSeries(window=10, clock=clock)
        series.add(50)
        clock.advance(10)  # the write second is now just outside
        assert series.total() == 0

    def test_write_after_long_idle_counts_only_new_data(self):
        clock = FakeClock(start=3000.0)
        series = TimeSeries(window=5, clock=clock)
        series.add(100)
        clock.advance(73)  # many laps later the slot indexes collide
        series.add(1)
        assert series.total() == 1
        assert series.lifetime == 101

    def test_subwindow_total_and_rate(self):
        clock = FakeClock(start=3000.0)
        series = TimeSeries(window=60, clock=clock)
        series.add(10)
        clock.advance(30)
        series.add(5)
        # Full window sees both bursts; the trailing 10s only the
        # second one.
        assert series.total() == 15
        assert series.total(window=10) == 5
        assert series.rate(window=10) == pytest.approx(0.5)

    def test_subwindow_respects_staleness_after_idle(self):
        clock = FakeClock(start=3000.0)
        series = TimeSeries(window=60, clock=clock)
        series.add(100)
        clock.advance(120)  # idle two laps
        assert series.total(window=5) == 0
        assert series.total(window=60) == 0

    def test_subwindow_clamps_to_ring_span(self):
        clock = FakeClock(start=3000.0)
        series = TimeSeries(window=10, clock=clock)
        series.add(4)
        # Asking for more history than the ring holds degrades to the
        # full window, never garbage.
        assert series.total(window=999) == 4
        assert series.rate(window=0) == pytest.approx(4.0)


class TestSketchLatency:
    def test_snapshot_shape_matches_consumers(self):
        recorder = SketchLatency()
        recorder.observe(0.010)
        recorder.observe(0.010)
        recorder.observe(0.500)
        snapshot = recorder.snapshot()
        assert snapshot["count"] == 3
        assert set(snapshot["quantiles_ms"]) == {"p50", "p95", "p99"}
        assert snapshot["quantiles_ms"]["p50"] == pytest.approx(
            10.0, rel=0.02
        )
        assert snapshot["quantiles_ms"]["p99"] == pytest.approx(
            500.0, rel=0.02
        )
        assert snapshot["mean_ms"] == pytest.approx(173.33, abs=0.1)
        assert snapshot["relative_error"] == 0.01

    def test_empty(self):
        snapshot = SketchLatency().snapshot()
        assert snapshot["count"] == 0
        assert snapshot["mean_ms"] == 0.0


class TestServiceTelemetry:
    def test_observe_op_counts_frames_and_latency(self):
        telemetry = ServiceTelemetry(window=60, clock=FakeClock())
        telemetry.observe_op("report_gaps", 0.002)
        telemetry.observe_op("report_gaps", 0.004)
        telemetry.observe_op("sync", 0.010)
        snapshot = telemetry.snapshot()
        assert snapshot["frames"]["total"] == 3
        assert snapshot["ops"]["report_gaps"]["count"] == 2
        assert snapshot["ops"]["sync"]["count"] == 1

    def test_gauges_pass_through(self):
        telemetry = ServiceTelemetry(clock=FakeClock())
        snapshot = telemetry.snapshot(queue_depth=7)
        assert snapshot["queue_depth"] == 7
        assert snapshot["uptime_seconds"] >= 0

    def test_gap_and_rule_series(self):
        clock = FakeClock()
        telemetry = ServiceTelemetry(window=10, clock=clock)
        telemetry.gaps.add(3)
        telemetry.rules.add(2)
        snapshot = telemetry.snapshot()
        assert snapshot["gaps"]["total"] == 3
        assert snapshot["gaps"]["rate_per_sec"] == pytest.approx(0.3)
        assert snapshot["rules"]["total"] == 2

    def test_op_sketches_exposes_live_sketches(self):
        telemetry = ServiceTelemetry(clock=FakeClock())
        telemetry.observe_op("sync", 0.020)
        sketches = telemetry.op_sketches()
        assert set(sketches) == {"sync"}
        assert sketches["sync"].count == 1
