"""Deadline mechanics and the TO (timeout) outcome."""

import contextlib
import time

import pytest

from repro.faults.deadline import (
    Deadline,
    DeadlineBudget,
    DeadlineExceeded,
    active_deadline,
    deadline_scope,
    tick,
)
from repro.faults.plan import simulated_hang
from repro.learning import parallel, pipeline
from repro.learning.canon import resolve_candidate
from repro.learning.pipeline import learn_corpus, stage_build
from repro.learning.verify import VerifyFailure
from repro.service.gaps import canonical_gap
from repro.service.learner import OnlineLearner

from .conftest import CHAOS_BENCHMARKS


class TestDeadline:
    def test_step_budget_raises_after_max_steps(self):
        deadline = DeadlineBudget(max_steps=3).start()
        deadline.tick()
        deadline.tick()
        deadline.tick()
        with pytest.raises(DeadlineExceeded):
            deadline.tick()

    def test_wall_clock_budget(self):
        deadline = Deadline(DeadlineBudget(max_seconds=0.01))
        time.sleep(0.02)
        with pytest.raises(DeadlineExceeded):
            deadline.tick()

    def test_unbounded_budget(self):
        assert not DeadlineBudget().bounded
        assert DeadlineBudget(max_steps=1).bounded
        assert DeadlineBudget(max_seconds=1.0).bounded

    def test_module_tick_is_noop_without_active_deadline(self):
        assert active_deadline() is None
        tick()  # must not raise

    def test_scope_installs_and_restores(self):
        outer = Deadline(DeadlineBudget(max_steps=100))
        inner = Deadline(DeadlineBudget(max_steps=5))
        with deadline_scope(outer):
            assert active_deadline() is outer
            with deadline_scope(inner):
                assert active_deadline() is inner
            assert active_deadline() is outer
        assert active_deadline() is None

    def test_simulated_hang_without_deadline_fails_fast(self):
        with pytest.raises(RuntimeError, match="no bounded deadline"):
            simulated_hang()

    def test_simulated_hang_exhausts_bounded_deadline(self):
        with deadline_scope(Deadline(DeadlineBudget(max_steps=50))):
            with pytest.raises(DeadlineExceeded):
                simulated_hang()


class TestTimeoutOutcome:
    def test_zero_step_budget_times_out_real_candidates(self, chaos_builds):
        guest, host = chaos_builds[CHAOS_BENCHMARKS[0]]
        candidates = stage_build(guest, host, "t").candidates
        assert candidates
        budget = DeadlineBudget(max_steps=0)
        outcomes = [
            resolve_candidate(c.context, c.mappings, budget=budget)
            for c in candidates
        ]
        timeouts = [o for o in outcomes
                    if o.failure is VerifyFailure.TIMEOUT]
        # Any candidate whose verification consults the solver at all
        # must time out under a zero budget.
        assert timeouts
        for outcome in timeouts:
            assert outcome.rule is None

    def test_generous_budget_changes_nothing(self, chaos_builds):
        guest, host = chaos_builds[CHAOS_BENCHMARKS[0]]
        candidates = stage_build(guest, host, "t").candidates
        budget = DeadlineBudget(max_steps=10_000_000)
        for candidate in candidates[:5]:
            bounded = resolve_candidate(candidate.context,
                                        candidate.mappings, budget=budget)
            unbounded = resolve_candidate(candidate.context,
                                          candidate.mappings)
            assert (bounded.rule is None) == (unbounded.rule is None)
            assert bounded.failure == unbounded.failure
            assert bounded.calls == unbounded.calls


#: A step budget that times out some chaos candidates but not all.
MEMO_STEPS = 6


def _without_query_memo(monkeypatch, *modules):
    for module in modules:
        monkeypatch.setattr(module, "query_scope", contextlib.nullcontext)


class TestQueryMemoDeterminism:
    """The query memo saves solver calls and changes nothing else:
    every query still ticks the deadline, so a step budget times out
    the same candidates at the same attempt."""

    def _bounded_run(self, builds, monkeypatch):
        outcomes_by_digest = {}
        resolve = pipeline.resolve_candidate

        def recording(context, mappings, **kwargs):
            outcome = resolve(context, mappings, **kwargs)
            outcomes_by_digest[kwargs["digest"]] = (
                outcome.failure, outcome.calls, outcome.rule)
            return outcome

        monkeypatch.setattr(pipeline, "resolve_candidate", recording)
        outcomes = learn_corpus(
            builds, budget=DeadlineBudget(max_steps=MEMO_STEPS))
        monkeypatch.setattr(pipeline, "resolve_candidate", resolve)
        reports = [o.report.count_signature() for o in outcomes.values()]
        rules = {name: o.rules for name, o in outcomes.items()}
        return outcomes_by_digest, reports, rules

    def test_step_budget_times_out_the_same_candidates(
            self, chaos_builds, monkeypatch, solver_queries):
        memo_run = self._bounded_run(chaos_builds, monkeypatch)
        memo_calls = len(solver_queries)
        solver_queries.clear()
        _without_query_memo(monkeypatch, pipeline)
        plain_run = self._bounded_run(chaos_builds, monkeypatch)
        plain_calls = len(solver_queries)

        by_digest, reports, rules = memo_run
        timed_out = {digest for digest, (failure, _, _) in by_digest.items()
                     if failure is VerifyFailure.TIMEOUT}
        assert timed_out and len(timed_out) < len(by_digest)
        assert by_digest == plain_run[0]
        assert reports == plain_run[1]
        assert rules == plain_run[2]
        assert memo_calls < plain_calls

    def test_online_round_decides_each_query_once(
            self, chaos_builds, monkeypatch, solver_queries):
        name = CHAOS_BENCHMARKS[0]
        guest, host = chaos_builds[name]
        gaps = [canonical_gap(guest.code[start:start + 8])
                for start in range(0, len(guest.code), 4)]

        def round_():
            online = OnlineLearner({name: (guest, host)}, jobs=1)
            selected = [candidate.digest for _, candidate
                        in online.match_candidates(gaps)]
            return selected, online.learn(gaps).rules

        memo_round = round_()
        assert memo_round[0] and memo_round[1]
        assert solver_queries
        assert len(set(solver_queries)) == len(solver_queries)
        memo_calls = len(solver_queries)
        solver_queries.clear()
        _without_query_memo(monkeypatch, pipeline, parallel)
        plain_round = round_()
        assert memo_round == plain_round
        assert memo_calls < len(solver_queries)
