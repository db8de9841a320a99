"""Parallel learning: equivalence, dedup savings, cache acceptance.

These tests pin the PR's acceptance criteria on the full benchsuite
corpus: the parallel path is byte-identical to the sequential one
(rule sets and every deterministic report field), pre-verification
dedup saves solver invocations even on a cold run, and a warm
persistent cache eliminates >= 90% of them.
"""

import io

import pytest

from repro.benchsuite import BENCHMARK_NAMES, build_learning_pair
from repro.learning.cache import VerificationCache
from repro.learning.journal import OutcomeJournal
from repro.learning.pipeline import learn_corpus
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.obs.trace import read_trace, tracing


@pytest.fixture(scope="module")
def builds():
    return {name: build_learning_pair(name) for name in BENCHMARK_NAMES}


@pytest.fixture(scope="module")
def sequential(builds):
    return learn_corpus(builds)


def _total(outcomes, field):
    return sum(getattr(o.report, field) for o in outcomes.values())


class TestEquivalence:
    def test_parallel_matches_sequential_on_full_corpus(self, builds,
                                                        sequential):
        parallel = learn_corpus(builds, jobs=2)
        assert list(parallel) == list(sequential)
        for name in builds:
            assert parallel[name].rules == sequential[name].rules
            assert [str(rule) for rule in parallel[name].rules] == \
                [str(rule) for rule in sequential[name].rules]
            assert parallel[name].report.count_signature() == \
                sequential[name].report.count_signature()

    def test_jobs_one_falls_back_to_sequential(self, builds, sequential):
        fallback = learn_corpus(builds, jobs=1)
        for name in builds:
            assert fallback[name].rules == sequential[name].rules
            assert fallback[name].report.count_signature() == \
                sequential[name].report.count_signature()

    def test_empty_corpus(self):
        assert learn_corpus({}, jobs=4) == {}


#: Counters that describe how a batch was cut and timed, not what it
#: decided: they legitimately differ with ``jobs``.
BATCH_SHAPE_COUNTERS = ("learning.worker.seconds", "learning.worker.chunks")


def _traced_run(builds, jobs, journal):
    """(verdicts, counters) of one traced, metered corpus run."""
    previous = set_metrics(MetricsRegistry())
    sink = io.StringIO()
    try:
        with tracing(sink):
            learn_corpus(builds, journal=journal, jobs=jobs)
        counters = get_metrics().snapshot()["counters"]
    finally:
        set_metrics(previous)
    sink.seek(0)
    verdicts = [
        tuple(record.fields[key]
              for key in ("digest", "source", "result", "reason"))
        for record in read_trace(sink) if record.name == "learn.verdict"
    ]
    counters = {
        name: value for name, value in counters.items()
        if not name.startswith("learning.pool.")
        and name not in BATCH_SHAPE_COUNTERS
    }
    return verdicts, counters


class TestVerdictSources:
    """Each verdict names the same source at any ``jobs``: a verdict the
    pool settles (and journals) in this run replays as ``live``, not as
    ``journal``."""

    @pytest.mark.parametrize("with_journal", [False, True],
                             ids=["no-journal", "fresh-journal"])
    def test_jobs_do_not_change_verdicts_or_counters(self, builds, tmp_path,
                                                     with_journal):
        subset = {name: builds[name] for name in ("mcf", "sjeng", "bzip2")}
        runs = []
        for jobs in (1, 2):
            journal = OutcomeJournal.at_dir(tmp_path / f"jobs{jobs}") \
                if with_journal else None
            runs.append(_traced_run(subset, jobs, journal))
            if journal is not None:
                journal.close()
        (sequential, seq_counters), (pooled, pool_counters) = runs
        assert sequential == pooled
        assert any(source == "live" for _, source, _, _ in sequential)
        assert seq_counters == pool_counters
        assert "learning.journal.replayed" not in pool_counters


class TestDedup:
    def test_cold_run_dedup_saves_solver_calls(self, sequential):
        # Acceptance: pre-verification dedup alone reduces solver
        # invocations on a cold full-corpus run.
        assert _total(sequential, "dedup_saved_calls") > 0

    def test_accounting_covers_every_candidate(self, sequential):
        for outcome in sequential.values():
            report = outcome.report
            accounted = (report.prep_failures + report.param_failures
                         + report.verify_failures + report.rules)
            assert accounted <= report.total_sequences


class TestPersistentCache:
    def test_warm_cache_eliminates_verifications(self, builds, sequential,
                                                 tmp_path):
        cold_cache = VerificationCache.at_dir(tmp_path)
        cold = learn_corpus(builds, cache=cold_cache)
        cold_calls = _total(cold, "verify_calls")
        assert cold_calls > 0
        assert _total(cold, "cache_misses") == len(cold_cache)

        warm_cache = VerificationCache.at_dir(tmp_path)
        assert len(warm_cache) == len(cold_cache)
        warm = learn_corpus(builds, cache=warm_cache)
        warm_calls = _total(warm, "verify_calls")
        # Acceptance: >= 90% fewer solver invocations with a warm cache.
        assert warm_calls <= 0.1 * cold_calls
        assert _total(warm, "cache_hits") > 0
        # Identical results either way.
        for name in builds:
            assert warm[name].rules == sequential[name].rules

    def test_parallel_run_also_uses_the_cache(self, builds, sequential,
                                              tmp_path):
        cache = VerificationCache.at_dir(tmp_path)
        cold = learn_corpus(builds, cache=cache, jobs=2)
        assert _total(cold, "cache_misses") > 0

        warm = learn_corpus(
            builds, cache=VerificationCache.at_dir(tmp_path), jobs=2
        )
        assert _total(warm, "verify_calls") == 0
        for name in builds:
            assert cold[name].rules == sequential[name].rules
            assert warm[name].rules == sequential[name].rules
