"""Cross-process observability merge under the crash-isolated pool.

Worker-side profiles ride home inside the metrics snapshot the pool
already ships, and the parent-side merge is associative, commutative,
and byte-identical on same-order replay — so a profile assembled from N
workers does not depend on chunk completion order for its counts, and
replaying the same worker snapshots reproduces the same bytes.
"""

import json
import pickle

import pytest

from repro.learning.parallel import _PoolScheduler, _resolve_chunk
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.profiler import (
    SamplingProfiler,
    get_profiler,
    phase,
    set_profiler,
)


@pytest.fixture(autouse=True)
def fresh_globals():
    set_metrics(None)
    set_profiler(None)
    yield
    set_metrics(None)
    set_profiler(None)


def worker_snapshot(phase_name: str, samples: int, calls=()) -> dict:
    """Build what a pool worker returns: a metrics snapshot with an
    embedded profile, then force it across a process boundary the same
    way ProcessPoolExecutor does (pickle roundtrip)."""
    registry = MetricsRegistry()
    registry.inc("learning.worker.resolved", samples)
    for value in calls:
        registry.observe("learning.worker.calls_per_candidate", value)
    profiler = SamplingProfiler(hz=50, include_idle=False)
    with phase(phase_name):
        for _ in range(samples):
            profiler.sample_once()
    snapshot = registry.snapshot()
    snapshot["profile"] = profiler.snapshot()
    return pickle.loads(pickle.dumps(snapshot))


class TestResolveChunkShipsProfile:
    def test_profile_rides_in_snapshot_when_enabled(self):
        results, snapshot = _resolve_chunk([], profile_hz=50)
        assert results == []
        profile = snapshot["profile"]
        assert profile["kind"] == "profile"
        assert profile["hz"] == 50
        # The worker snapshot must survive the IPC pickle.
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot

    def test_no_profile_key_when_disabled(self):
        _, snapshot = _resolve_chunk([])
        assert "profile" not in snapshot


class TestParentAbsorb:
    def make_scheduler(self):
        from repro.faults.plan import NO_FAULTS
        return _PoolScheduler(
            workers=1, budget=None, plan=NO_FAULTS, journal=None,
            resolved={},
        )

    def test_absorb_merges_profile_and_metrics(self):
        scheduler = self.make_scheduler()
        snapshot = worker_snapshot("learn.verify", 3)
        scheduler._absorb([], snapshot)
        merged = get_profiler().snapshot()
        assert merged["phases"]["learn.verify"]["self_samples"] == 3
        metrics = scheduler.metrics.snapshot()
        assert metrics["counters"]["learning.worker.resolved"] == 3
        assert "profile" not in metrics

    def test_absorb_without_profile_key_is_harmless(self):
        scheduler = self.make_scheduler()
        scheduler._absorb([], MetricsRegistry().snapshot())
        assert get_profiler().snapshot()["total_samples"] == 0


class TestMergeAlgebra:
    def snapshots(self):
        return [
            worker_snapshot("learn.verify", 4, calls=(1,)),
            worker_snapshot("learn.verify", 2, calls=(8, 2)),
            worker_snapshot("dbt.exec", 3),
        ]

    def merge_all(self, snaps):
        parent = SamplingProfiler(hz=50)
        registry = MetricsRegistry()
        for snap in snaps:
            snap = dict(snap)
            parent.merge(snap.pop("profile"))
            registry.merge(snap)
        return parent.snapshot(), registry.snapshot()

    def test_commutative_across_chunk_completion_orders(self):
        snaps = self.snapshots()
        forward_prof, forward_metrics = self.merge_all(snaps)
        reverse_prof, reverse_metrics = self.merge_all(snaps[::-1])
        assert forward_prof == reverse_prof
        # Counter and bucket counts are exact.
        assert forward_metrics == reverse_metrics

    def test_associative_grouping(self):
        snaps = self.snapshots()
        left = SamplingProfiler(hz=50)
        left.merge(snaps[0]["profile"])
        left.merge(snaps[1]["profile"])
        left.merge(snaps[2]["profile"])
        inner = SamplingProfiler(hz=50)
        inner.merge(snaps[1]["profile"])
        inner.merge(snaps[2]["profile"])
        right = SamplingProfiler(hz=50)
        right.merge(snaps[0]["profile"])
        right.merge(inner.snapshot())
        left_snap, right_snap = left.snapshot(), right.snapshot()
        # Merging through an intermediate accumulates its wall-clock;
        # drop the float field and require the counts identical.
        left_snap.pop("wall_seconds")
        right_snap.pop("wall_seconds")
        assert left_snap == right_snap

    def test_byte_identical_on_same_order_replay(self):
        snaps = self.snapshots()
        first_prof, first_metrics = self.merge_all(snaps)
        replay_prof, replay_metrics = self.merge_all(snaps)
        assert json.dumps(first_prof, sort_keys=True) \
            == json.dumps(replay_prof, sort_keys=True)
        assert pickle.dumps(first_metrics) == pickle.dumps(replay_metrics)
