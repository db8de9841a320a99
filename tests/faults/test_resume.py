"""Checkpoint/resume: the outcome journal and kill-resume equivalence."""

import json

import pytest

from repro.faults.plan import FaultPlan, InjectedAbort, fault_plan_scope
from repro.learning import parallel
from repro.learning.cache import SEMANTICS_VERSION
from repro.learning.canon import CandidateOutcome
from repro.learning.journal import OutcomeJournal
from repro.learning.pipeline import learn_corpus
from repro.learning.verify import VerifyFailure

from .conftest import rule_strings


class TestJournalMechanics:
    def test_record_and_reload(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = OutcomeJournal(path)
        journal.record("d1", CandidateOutcome(
            failure=VerifyFailure.REGISTERS, calls=3))
        journal.record("d2", CandidateOutcome(
            failure=VerifyFailure.TIMEOUT, calls=0))
        journal.close()

        reloaded = OutcomeJournal(path)
        assert reloaded.recovered == 2
        assert "d1" in reloaded
        assert reloaded.get("d1").failure is VerifyFailure.REGISTERS
        assert reloaded.get("d1").calls == 3
        assert reloaded.get("d2").failure is VerifyFailure.TIMEOUT

    def test_record_is_idempotent(self, tmp_path):
        journal = OutcomeJournal(tmp_path / "j.jsonl")
        journal.record("d", CandidateOutcome(calls=1))
        journal.record("d", CandidateOutcome(calls=99))
        journal.close()
        reloaded = OutcomeJournal(journal.path)
        assert len(reloaded) == 1
        assert reloaded.get("d").calls == 1

    def test_torn_tail_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = OutcomeJournal(path)
        journal.record("ok", CandidateOutcome(calls=2))
        journal.close()
        with open(path, "a") as fp:
            fp.write('{"digest": "torn", "outco')  # crash mid-append

        reloaded = OutcomeJournal(path)
        assert reloaded.recovered == 1
        assert reloaded.skipped == 1
        assert "ok" in reloaded
        assert "torn" not in reloaded

    def test_foreign_header_discards_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with open(path, "w") as fp:
            fp.write(json.dumps({"format": "something-else"}) + "\n")
            fp.write(json.dumps({"digest": "d", "outcome": {}}) + "\n")
        journal = OutcomeJournal(path)
        assert len(journal) == 0
        assert not path.exists()

    def test_stale_semantics_discards_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = OutcomeJournal(path,
                                 semantics_version=SEMANTICS_VERSION + 1)
        journal.record("d", CandidateOutcome(calls=1))
        journal.close()
        reloaded = OutcomeJournal(path)  # current semantics
        assert len(reloaded) == 0

    def test_clear_removes_file(self, tmp_path):
        journal = OutcomeJournal(tmp_path / "j.jsonl")
        journal.record("d", CandidateOutcome(calls=1))
        journal.clear()
        assert not journal.path.exists()
        assert len(journal) == 0


class TestKillResumeEquivalence:
    def test_aborted_run_resumes_to_identical_results(self, chaos_builds,
                                                      tmp_path, monkeypatch):
        monkeypatch.setattr(parallel, "CHUNK_SIZE", 4)
        sequential = learn_corpus(chaos_builds)

        journal = OutcomeJournal.at_dir(tmp_path)
        plan = FaultPlan(abort_after_chunks=1)
        with fault_plan_scope(plan):
            with pytest.raises(InjectedAbort):
                learn_corpus(chaos_builds, journal=journal, jobs=2)
        journal.close()
        settled_before_kill = len(journal)
        assert settled_before_kill > 0

        resumed_journal = OutcomeJournal.at_dir(tmp_path)
        assert resumed_journal.recovered == settled_before_kill
        resumed = learn_corpus(chaos_builds, journal=resumed_journal,
                                jobs=2)

        # The resumed run is indistinguishable from an uninterrupted
        # one: same rules, same Table 1 counts, same call accounting.
        assert rule_strings(resumed) == rule_strings(sequential)
        for name in chaos_builds:
            assert resumed[name].report.count_signature() == \
                sequential[name].report.count_signature()

    def test_sequential_resume_skips_settled_candidates(self, chaos_builds,
                                                        tmp_path):
        name = next(iter(chaos_builds))
        builds = {name: chaos_builds[name]}
        full_journal = OutcomeJournal.at_dir(tmp_path)
        first = learn_corpus(builds, journal=full_journal)
        full_journal.close()

        # A second run over the same journal replays every verdict:
        # identical report, no new journal growth.
        resumed_journal = OutcomeJournal.at_dir(tmp_path)
        assert resumed_journal.recovered == len(full_journal)
        second = learn_corpus(builds, journal=resumed_journal)
        assert rule_strings(second) == rule_strings(first)
        assert second[name].report.count_signature() == \
            first[name].report.count_signature()
        assert len(resumed_journal) == resumed_journal.recovered
