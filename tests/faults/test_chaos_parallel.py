"""Chaos tests for the crash-isolated parallel scheduler.

The acceptance bar: under injected worker crashes, in-worker
exceptions and hangs, parallel learning still completes, quarantines
exactly the injected candidates as EC/TO, and produces the same rule
set as the clean sequential run.
"""

import pytest

from repro.faults.deadline import DeadlineBudget
from repro.faults.plan import FaultPlan, fault_plan_scope
from repro.learning import parallel
from repro.learning.pipeline import ResolutionGapError, learn_corpus
from repro.learning.verify import VerifyFailure
from repro.obs.metrics import MetricsRegistry, set_metrics, get_metrics

from .conftest import failing_digests, rule_strings

#: Small chunks force multi-chunk scheduling even on this tiny corpus.
CHUNK = 4


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    monkeypatch.setattr(parallel, "CHUNK_SIZE", CHUNK)
    monkeypatch.setattr(parallel, "BACKOFF_SECONDS", 0.0)


@pytest.fixture(autouse=True)
def fresh_metrics():
    set_metrics(MetricsRegistry())
    yield
    set_metrics(None)


def _total(outcomes, field):
    return sum(getattr(o.report, field) for o in outcomes.values())


class TestCrashIsolation:
    def test_worker_crash_is_quarantined_as_ec(self, chaos_builds,
                                               clean_ground_truth):
        clean, cache = clean_ground_truth
        poison = failing_digests(cache, 1)
        plan = FaultPlan(crash_digests=frozenset(poison))
        with fault_plan_scope(plan):
            chaotic = learn_corpus(chaos_builds, jobs=2)
        # Same rules as the clean run: the poison candidate was a
        # failing one, so only its failure classification moved to EC.
        assert rule_strings(chaotic) == rule_strings(clean)
        assert _total(chaotic, "verify_ec") == 1
        counters = get_metrics().snapshot()["counters"]
        assert counters.get("learning.pool.restarts", 0) >= 1
        assert counters.get("learning.pool.quarantined", 0) == 1

    def test_injected_exception_is_retried_then_quarantined(
            self, chaos_builds, clean_ground_truth):
        clean, cache = clean_ground_truth
        bad = failing_digests(cache, 1)
        plan = FaultPlan(raise_digests=frozenset(bad))
        with fault_plan_scope(plan):
            chaotic = learn_corpus(chaos_builds, jobs=2)
        assert rule_strings(chaotic) == rule_strings(clean)
        assert _total(chaotic, "verify_ec") == 1
        counters = get_metrics().snapshot()["counters"]
        assert counters.get("learning.pool.retries", 0) >= 1
        # A deterministic failure survives its retries and is bisected
        # down to the single poison candidate (pool never breaks).
        assert counters.get("learning.pool.bisections", 0) >= 1
        assert counters.get("learning.pool.restarts", 0) == 0

    def test_injected_hang_times_out_as_to(self, chaos_builds,
                                           clean_ground_truth):
        clean, cache = clean_ground_truth
        hung = failing_digests(cache, 1)
        plan = FaultPlan(hang_digests=frozenset(hung))
        with fault_plan_scope(plan):
            chaotic = learn_corpus(
                chaos_builds, budget=DeadlineBudget(max_steps=100_000),
                jobs=2,
            )
        assert rule_strings(chaotic) == rule_strings(clean)
        assert _total(chaotic, "verify_to") == 1
        counters = get_metrics().snapshot()["counters"]
        assert counters.get("learning.worker.timeouts", 0) >= 1

    def test_combined_chaos_converges(self, chaos_builds,
                                      clean_ground_truth):
        clean, cache = clean_ground_truth
        victims = failing_digests(cache, 3)
        plan = FaultPlan(
            crash_digests=frozenset(victims[:1]),
            raise_digests=frozenset(victims[1:2]),
            hang_digests=frozenset(victims[2:3]),
        )
        with fault_plan_scope(plan):
            chaotic = learn_corpus(
                chaos_builds, budget=DeadlineBudget(max_steps=100_000),
                jobs=2,
            )
        assert rule_strings(chaotic) == rule_strings(clean)
        assert _total(chaotic, "verify_ec") == 2
        assert _total(chaotic, "verify_to") == 1

    def test_no_faults_matches_sequential_exactly(self, chaos_builds):
        # Cacheless on both sides: signatures must match field by field.
        sequential = learn_corpus(chaos_builds)
        pooled = learn_corpus(chaos_builds, jobs=2)
        assert rule_strings(pooled) == rule_strings(sequential)
        for name in chaos_builds:
            assert pooled[name].report.count_signature() == \
                sequential[name].report.count_signature()


class TestEcOutcomesStayOutOfTheCache:
    def test_quarantined_verdicts_are_not_persisted(self, chaos_builds,
                                                    clean_ground_truth,
                                                    tmp_path):
        from repro.learning.cache import VerificationCache

        clean, cache = clean_ground_truth
        poison = failing_digests(cache, 1)
        chaos_cache = VerificationCache.at_dir(tmp_path)
        plan = FaultPlan(crash_digests=frozenset(poison))
        with fault_plan_scope(plan):
            learn_corpus(chaos_builds, cache=chaos_cache, jobs=2)
        # The EC verdict is a property of this run, not the candidate:
        # a fresh run must re-verify it (and succeed).
        reloaded = VerificationCache.at_dir(tmp_path)
        assert poison[0] not in reloaded
        retried = learn_corpus(chaos_builds, cache=reloaded)
        assert rule_strings(retried) == rule_strings(clean)
        assert _total(retried, "verify_ec") == 0


class TestReplayResolver:
    def test_resolution_gap_is_diagnostic(self, chaos_builds):
        from repro.learning.pipeline import replay, stage_build

        name = next(iter(chaos_builds))
        guest, host = chaos_builds[name]
        candidates = stage_build(guest, host, name).candidates
        assert candidates
        with pytest.raises(ResolutionGapError) as excinfo:
            next(replay(candidates, None, {}, {}, benchmark=name))
        message = str(excinfo.value)
        assert name in message
        assert candidates[0].digest[:16] in message
