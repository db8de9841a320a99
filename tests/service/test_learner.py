"""Gap-driven online learning: candidate selection and verdict reuse."""

from repro.faults.plan import FaultPlan, fault_plan_scope
from repro.learning.cache import VerificationCache
from repro.learning.verify import VerifyFailure
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.service.gaps import canonical_gap
from repro.learning.rule import has_window
from repro.service.learner import OnlineLearner


class TestHasWindow:
    def test_contiguous_only(self):
        haystack = ("ldr", "add", "str", "cmp", "bne")
        assert has_window(haystack, ("add", "str"))
        assert has_window(haystack, ("ldr",))
        assert has_window(haystack, haystack)
        assert not has_window(haystack, ("ldr", "str"))
        assert not has_window(haystack, ())
        assert not has_window(("add",), ("add", "str"))


def _gaps_for(program, count=64):
    """Canonical gaps covering the program's whole guest text."""
    code = program.code
    gaps = []
    for start in range(0, len(code), 4):
        window = code[start : start + 8]
        if window:
            gaps.append(canonical_gap(window))
    return gaps[:count] if count else gaps


class TestOnlineLearner:
    def test_staging_happens_once(self, mcf_pair):
        learner = OnlineLearner({"mcf": (mcf_pair[0], mcf_pair[1])})
        first = learner.staged_candidates()
        assert first
        assert learner.staged_candidates() is first

    def test_whole_program_gaps_recover_offline_rules(
            self, mcf_pair, mcf_rules):
        guest, host = mcf_pair
        learner = OnlineLearner({"mcf": (guest, host)})
        gaps = _gaps_for(guest, count=0)
        round_ = learner.learn(gaps)
        assert round_.matched_candidates > 0
        # Gaps spanning the full guest text select at least every
        # candidate offline learning would turn into a rule.
        assert set(mcf_rules) <= set(round_.rules)

    def test_irrelevant_gaps_select_nothing(self, mcf_pair):
        learner = OnlineLearner({"mcf": (mcf_pair[0], mcf_pair[1])})
        bogus = canonical_gap(mcf_pair[0].code[:1])
        bogus = type(bogus)(
            digest=bogus.digest, direction="arm-x86",
            text=bogus.text, mnemonics=("no_such_mnemonic",),
        )
        round_ = learner.learn([bogus])
        assert round_.matched_candidates == 0
        assert round_.rules == []

    def test_memo_prevents_reverification(self, mcf_pair):
        guest, host = mcf_pair
        learner = OnlineLearner({"mcf": (guest, host)})
        gaps = _gaps_for(guest, count=0)
        first = learner.learn(gaps)
        assert first.resolved > 0
        second = learner.learn(gaps)
        assert second.resolved == 0
        assert second.verify_calls == 0
        assert sorted(second.rules, key=str) == \
            sorted(first.rules, key=str)

    def test_persistent_cache_spans_learners(self, mcf_pair, tmp_path):
        guest, host = mcf_pair
        cache = VerificationCache.at_dir(tmp_path / "cache")
        gaps = _gaps_for(guest, count=0)
        first = OnlineLearner({"mcf": (guest, host)}, cache=cache)
        round1 = first.learn(gaps)
        assert round1.resolved > 0

        reopened = VerificationCache.at_dir(tmp_path / "cache")
        second = OnlineLearner({"mcf": (guest, host)}, cache=reopened)
        round2 = second.learn(gaps)
        assert round2.resolved == 0
        assert sorted(round2.rules, key=str) == \
            sorted(round1.rules, key=str)

    def test_rules_rebound_to_corpus_origin(self, mcf_pair):
        guest, host = mcf_pair
        learner = OnlineLearner({"mcf": (guest, host)})
        round_ = learner.learn(_gaps_for(guest, count=0))
        assert round_.rules
        assert all(rule.origin == "mcf" for rule in round_.rules)


class TestCrashIsolation:
    def test_worker_crash_is_quarantined_as_ec(self, mcf_pair):
        """A candidate that kills its pool worker is quarantined as EC;
        the round completes with every other verdict unchanged."""
        guest, host = mcf_pair
        gaps = _gaps_for(guest, count=16)
        clean = OnlineLearner({"mcf": (guest, host)})
        clean_round = clean.learn(gaps)
        poison = next(
            digest for digest, outcome in clean.memo.items()
            if outcome.rule is None
        )
        set_metrics(MetricsRegistry())
        try:
            learner = OnlineLearner({"mcf": (guest, host)}, jobs=2,
                                    chunk_size=4)
            plan = FaultPlan(crash_digests=frozenset([poison]))
            with fault_plan_scope(plan):
                round_ = learner.learn(gaps)
            counters = get_metrics().snapshot()["counters"]
        finally:
            set_metrics(None)
        assert learner.memo[poison].failure is VerifyFailure.ENGINE_CRASH
        assert counters.get("learning.pool.quarantined", 0) == 1
        assert round_.resolved == clean_round.resolved
        assert sorted(map(str, round_.rules)) == \
            sorted(map(str, clean_round.rules))
        for digest, outcome in clean.memo.items():
            if digest != poison:
                assert learner.memo[digest] == outcome
