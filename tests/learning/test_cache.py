"""Persistent verification cache: round-trip, counters, invalidation."""

from repro.learning.cache import SEMANTICS_VERSION, VerificationCache
from repro.learning.canon import CandidateOutcome
from repro.learning.verify import VerifyFailure
from repro.isa.instruction import Instruction
from repro.isa.operands import Reg
from repro.learning.rule import Rule


def _rule() -> Rule:
    return Rule(
        guest=(Instruction("add", (Reg("p0"), Reg("p0"), Reg("p1"))),),
        host=(Instruction("addl", (Reg("p1"), Reg("p0"))),),
        params=("p0", "p1"),
        written_params=("p0",),
        temps=(),
    )


class TestRoundTrip:
    def test_rule_outcome_survives_reload(self, tmp_path):
        cache = VerificationCache.at_dir(tmp_path)
        cache.put("k1", CandidateOutcome(rule=_rule(), calls=2))
        cache.save()
        reloaded = VerificationCache.at_dir(tmp_path)
        outcome = reloaded.get("k1")
        assert outcome is not None
        assert outcome.rule == _rule()
        assert outcome.calls == 2

    def test_failure_outcome_survives_reload(self, tmp_path):
        cache = VerificationCache.at_dir(tmp_path)
        cache.put(
            "k2",
            CandidateOutcome(failure=VerifyFailure.REGISTERS, calls=5),
        )
        cache.save()
        outcome = VerificationCache.at_dir(tmp_path).get("k2")
        assert outcome.failure is VerifyFailure.REGISTERS
        assert outcome.rule is None
        assert outcome.calls == 5

    def test_save_is_noop_when_clean(self, tmp_path):
        cache = VerificationCache.at_dir(tmp_path)
        cache.save()  # nothing written: no entries, not dirty
        assert not cache.path.exists()


class TestCounters:
    def test_hit_and_miss_counting(self, tmp_path):
        cache = VerificationCache.at_dir(tmp_path)
        cache.put("k", CandidateOutcome(failure=VerifyFailure.OTHER, calls=1))
        assert cache.get("k") is not None
        assert cache.get("absent") is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_peek_does_not_touch_counters(self, tmp_path):
        cache = VerificationCache.at_dir(tmp_path)
        cache.put("k", CandidateOutcome(failure=VerifyFailure.OTHER, calls=1))
        assert cache.peek("k") is not None
        assert cache.peek("absent") is None
        assert cache.stats.lookups == 0


class TestInvalidation:
    def test_semantics_bump_discards_entries_as_stale(self, tmp_path):
        cache = VerificationCache.at_dir(tmp_path)
        cache.put("k", CandidateOutcome(failure=VerifyFailure.OTHER, calls=1))
        cache.save()
        newer = VerificationCache(
            cache.path, semantics_version=SEMANTICS_VERSION + 1
        )
        assert len(newer) == 0
        assert newer.stats.stale == 1

    def test_explicit_invalidate(self, tmp_path):
        cache = VerificationCache.at_dir(tmp_path)
        cache.put("k", CandidateOutcome(failure=VerifyFailure.OTHER, calls=1))
        before = cache.semantics_version
        cache.invalidate()
        assert len(cache) == 0
        assert cache.stats.stale == 1
        assert cache.semantics_version == before + 1
        assert cache.get("k") is None

    def test_corrupt_file_starts_empty(self, tmp_path):
        path = tmp_path / "verification-cache.json"
        path.write_text("{ not json")
        cache = VerificationCache(path)
        assert len(cache) == 0
        # The corrupt document is quarantined aside, not destroyed.
        assert cache.stats.corrupt == 1
        assert not path.exists()
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.read_text() == "{ not json"
        cache.put("k", CandidateOutcome(failure=VerifyFailure.OTHER, calls=1))
        cache.save()
        assert len(VerificationCache(path)) == 1

    def test_foreign_document_ignored(self, tmp_path):
        path = tmp_path / "verification-cache.json"
        path.write_text('{"format": "something-else", "entries": {"x": 1}}')
        assert len(VerificationCache(path)) == 0


class TestRunVerdictsAreNotPersisted:
    """TO/EC verdicts describe the run (budget, crashed worker), not
    the candidate: ``put`` drops them."""

    def test_timeout_and_crash_leave_cache_and_file_unchanged(self,
                                                              tmp_path):
        cache = VerificationCache.at_dir(tmp_path)
        cache.put("k", CandidateOutcome(failure=VerifyFailure.OTHER,
                                        calls=1))
        cache.save()
        before = cache.path.read_bytes()
        for failure in (VerifyFailure.TIMEOUT, VerifyFailure.ENGINE_CRASH):
            for digest in ("k", "fresh"):
                cache.put(digest, CandidateOutcome(failure=failure,
                                                   calls=3))
                assert cache.peek("fresh") is None
                assert cache.peek("k").failure is VerifyFailure.OTHER
            cache.save()
            assert cache.path.read_bytes() == before
        assert len(cache) == 1
        assert VerificationCache.at_dir(tmp_path).peek("fresh") is None
