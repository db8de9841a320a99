"""MetricsRegistry semantics, the shared formatter, and cross-process
merge under the parallel learner."""

import pickle

import pytest

from repro.learning import parallel
from repro.learning.pipeline import learn_corpus
from repro.minic import compile_source
from repro.obs.metrics import (
    MetricsRegistry,
    format_metrics,
    get_metrics,
    histogram_quantiles,
    set_metrics,
)


class TestHistogramQuantiles:
    def test_empty_histogram(self):
        assert histogram_quantiles({}) == {}
        assert histogram_quantiles({5: 0}) == {}

    def test_single_value(self):
        assert histogram_quantiles({7: 3}) == {"p50": 7, "p95": 7, "p99": 7}

    def test_nearest_rank_over_uniform_1_to_100(self):
        bucket = {value: 1 for value in range(1, 101)}
        assert histogram_quantiles(bucket) == {"p50": 50, "p95": 95,
                                               "p99": 99}

    def test_weighted_counts(self):
        # 90 observations of 1, 10 of 1000: p50 is 1, tail sees 1000.
        bucket = {1: 90, 1000: 10}
        summary = histogram_quantiles(bucket)
        assert summary["p50"] == 1
        assert summary["p95"] == 1000
        assert summary["p99"] == 1000

    def test_quantiles_are_observed_values(self):
        bucket = {2: 5, 9: 5}
        summary = histogram_quantiles(bucket)
        assert set(summary.values()) <= {2, 9}

    def test_custom_quantiles(self):
        bucket = {value: 1 for value in range(1, 11)}
        assert histogram_quantiles(bucket, (0.10, 0.90)) \
            == {"p10": 1, "p90": 9}


class TestRegistry:
    def test_inc_and_counter(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 4)
        assert registry.counter("a") == 5
        assert registry.counter("missing") == 0

    def test_observe_and_histogram(self):
        registry = MetricsRegistry()
        registry.observe("len", 2)
        registry.observe("len", 2)
        registry.observe("len", 5, count=3)
        assert registry.histogram("len") == {2: 2, 5: 3}
        assert registry.histogram("missing") == {}

    def test_len_counts_distinct_names(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a")
        registry.observe("h", 1)
        assert len(registry) == 2

    def test_snapshot_is_detached_and_picklable(self):
        registry = MetricsRegistry()
        registry.inc("a", 2)
        registry.observe("h", 7)
        snapshot = registry.snapshot()
        assert snapshot == {
            "counters": {"a": 2},
            "histograms": {"h": {7: 1}},
            "quantiles": {"h": {"p50": 7, "p95": 7, "p99": 7}},
        }
        # Worker processes ship snapshots across the pool boundary.
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot
        snapshot["counters"]["a"] = 99
        snapshot["histograms"]["h"][7] = 99
        assert registry.counter("a") == 2
        assert registry.histogram("h") == {7: 1}

    def test_merge_registry_and_snapshot(self):
        left = MetricsRegistry()
        left.inc("a", 1)
        left.observe("h", 3)
        right = MetricsRegistry()
        right.inc("a", 2)
        right.inc("b", 5)
        right.observe("h", 3, count=2)
        right.observe("h", 9)
        left.merge(right)
        assert left.counter("a") == 3
        assert left.counter("b") == 5
        assert left.histogram("h") == {3: 3, 9: 1}
        # Merging the snapshot form adds the same amounts again.
        left.merge(right.snapshot())
        assert left.counter("a") == 5
        assert left.histogram("h") == {3: 5, 9: 2}

    def test_clear(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.observe("h", 1)
        registry.clear()
        assert len(registry) == 0
        assert registry.counter("a") == 0


class TestGlobalRegistry:
    def test_set_metrics_swaps_and_returns_previous(self):
        fresh = MetricsRegistry()
        previous = set_metrics(fresh)
        try:
            assert get_metrics() is fresh
        finally:
            set_metrics(previous)
        assert get_metrics() is previous

    def test_set_none_installs_fresh_registry(self):
        previous = set_metrics(None)
        try:
            assert get_metrics() is not previous
            assert len(get_metrics()) == 0
        finally:
            set_metrics(previous)


class TestFormatter:
    def test_alignment_and_integer_rendering(self):
        registry = MetricsRegistry()
        registry.inc("learning.cache.hits", 12)
        registry.inc("learning.cache.misses", 3.0)  # whole float -> int
        registry.inc("learning.pool.seconds", 1.5)
        text = format_metrics(registry, title="economy")
        lines = text.splitlines()
        assert lines[0] == "economy:"
        assert "learning.cache.hits" in text
        assert "12" in text and "3" in text
        assert "1.500" in text
        # Values line up in one column.
        positions = {line.rstrip().rfind(" ") for line in lines[1:]}
        assert len(positions) >= 1

    def test_histogram_rendering_sorted_by_value(self):
        registry = MetricsRegistry()
        registry.observe("dbt.rule.hit_length", 3)
        registry.observe("dbt.rule.hit_length", 1, count=2)
        text = format_metrics(registry)
        assert "dbt.rule.hit_length{}" in text
        assert "{1:2, 3:1}" in text

    def test_empty_selection_renders_none(self):
        assert format_metrics(MetricsRegistry()) == "metrics: (none)"

    def test_accepts_snapshot_dict(self):
        registry = MetricsRegistry()
        registry.inc("a", 2)
        assert format_metrics(registry.snapshot()) \
            == format_metrics(registry)


SOURCE = """
int data[16];
int process(int *p, int n) {
  int s = 0;
  int i = 0;
  while (i < n) {
    s = s + p[i] - 1;
    i += 1;
  }
  return s;
}
int main(void) {
  int i = 0;
  while (i < 16) {
    data[i] = i * 3;
    i += 1;
  }
  return process(data, 16);
}
"""


class TestParallelMerge:
    """Worker registries ship snapshots that merge into the parent's."""

    @pytest.fixture(scope="class")
    def merged(self):
        guest = compile_source(SOURCE, "arm", 2, "llvm")
        host = compile_source(SOURCE, "x86", 2, "llvm")
        previous = set_metrics(None)
        chunk_size = parallel.CHUNK_SIZE
        parallel.CHUNK_SIZE = 1
        try:
            outcomes = learn_corpus({"unit": (guest, host)}, jobs=2)
            registry = get_metrics()
        finally:
            parallel.CHUNK_SIZE = chunk_size
            set_metrics(previous)
        return outcomes, registry

    def test_worker_verify_calls_match_reports(self, merged):
        outcomes, registry = merged
        expected = sum(
            o.report.verify_calls for o in outcomes.values()
        )
        assert registry.counter("learning.worker.verify_calls") \
            == expected > 0

    def test_worker_resolution_accounting(self, merged):
        outcomes, registry = merged
        report = next(iter(outcomes.values())).report
        resolved = registry.counter("learning.worker.resolved")
        assert resolved > 0
        # Every verification the workers resolved shows up exactly once
        # in the per-candidate histogram.
        calls_hist = registry.histogram(
            "learning.worker.calls_per_candidate"
        )
        assert sum(calls_hist.values()) == resolved
        assert registry.counter("learning.pool.workers") == 2
        assert registry.counter("learning.pool.chunks") \
            == registry.counter("learning.worker.chunks") > 0
        assert report.verify_calls > 0

    def test_pool_metrics_merge_with_parent_side_counters(self, merged):
        _, registry = merged
        # The parent's pool counters land in the same registry as the
        # merged worker snapshots: one chunk per verified candidate.
        assert registry.counter("learning.pool.chunks") \
            == registry.counter("learning.worker.resolved") > 0
