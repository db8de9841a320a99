"""Gap-driven online learning: candidate selection and verdict reuse."""

from dataclasses import replace

import pytest

from repro.benchsuite import BENCHMARK_NAMES, build_learning_pair
from repro.faults.plan import FaultPlan, fault_plan_scope
from repro.learning import parallel
from repro.learning.cache import VerificationCache
from repro.learning.rule import windows_in
from repro.learning.verify import VerifyFailure
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.service.gaps import canonical_gap
from repro.service.learner import OnlineLearner


def occurs(haystack, needle):
    return any(True for _ in windows_in(haystack, {needle}, {len(needle)}))


class TestWindowsIn:
    def test_contiguous_only(self):
        haystack = ("ldr", "add", "str", "cmp", "bne")
        assert occurs(haystack, ("add", "str"))
        assert occurs(haystack, ("ldr",))
        assert occurs(haystack, haystack)
        assert not occurs(haystack, ("ldr", "str"))
        assert not occurs(haystack, ())
        assert not occurs(("add",), ("add", "str"))

    def test_yields_every_occurrence_of_every_needle(self):
        haystack = ("add", "str", "add", "str", "bne")
        needles = {("add", "str"), ("bne",), ("cmp",), ("str", "bne")}
        found = list(windows_in(haystack, needles, {1, 2}))
        assert sorted(found) == [
            ("add", "str"), ("add", "str"), ("bne",), ("str", "bne"),
        ]


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
    def test_worker_crash_is_quarantined_as_ec(self, mcf_pair, monkeypatch):
        """A candidate that kills its pool worker is quarantined as EC;
        the round completes with every other verdict unchanged."""
        monkeypatch.setattr(parallel, "CHUNK_SIZE", 4)
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
            learner = OnlineLearner({"mcf": (guest, host)}, jobs=2)
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


def has_window(haystack, needle):
    """The contiguous-window test the index replaced: a reference."""
    span = len(needle)
    if not span or span > len(haystack):
        return False
    return any(
        haystack[start : start + span] == needle
        for start in range(len(haystack) - span + 1)
    )


def scan_candidates(learner, gaps):
    """The full scan the staging index replaced: every staged candidate
    against every gap window, first candidate per digest."""
    windows = [
        gap.mnemonics for gap in gaps
        if gap.direction == learner.direction.name and gap.mnemonics
    ]
    if not windows:
        return []
    selected = {}
    for name, candidate in learner.staged_candidates():
        if candidate.digest in selected:
            continue
        needle = tuple(instr.mnemonic for instr in candidate.pair.guest)
        if any(has_window(window, needle) for window in windows):
            selected[candidate.digest] = (name, candidate)
    return list(selected.values())


def assert_matches_scan(learner, gaps):
    """``match_candidates`` returns the scan's objects in its order."""
    indexed = learner.match_candidates(gaps)
    scanned = scan_candidates(learner, gaps)
    assert [(name, id(candidate)) for name, candidate in indexed] == \
        [(name, id(candidate)) for name, candidate in scanned]
    return indexed


def window_gaps(program):
    """``{length: gaps}``: a canonical gap for every window of 1-8
    guest instructions of ``program``."""
    code = program.code
    return {
        length: [canonical_gap(code[start : start + length])
                 for start in range(len(code) - length + 1)]
        for length in range(1, 9)
    }


@pytest.fixture(scope="module")
def corpus_builds():
    return {name: build_learning_pair(name) for name in BENCHMARK_NAMES}


class TestStagingIndex:
    def test_index_selects_what_the_scan_selects(self, corpus_builds):
        learner = OnlineLearner(corpus_builds)
        staged = learner.staged_candidates()
        digests = [candidate.digest for _, candidate in staged]
        assert len(set(digests)) < len(digests), \
            "the corpus must stage candidates with duplicate digests"
        every_gap = []
        for guest, _ in corpus_builds.values():
            by_length = window_gaps(guest)
            # The build's code tiled by 8-instruction gaps.
            assert_matches_scan(learner, by_length[8][::8])
            for gaps in by_length.values():
                every_gap.extend(gaps)
                # Single gaps, a stride through the program.
                for gap in gaps[::53]:
                    assert_matches_scan(learner, [gap])
        selected = assert_matches_scan(learner, every_gap)
        # Every staged needle is some window of its own build's code.
        assert {candidate.digest for _, candidate in selected} == \
            set(digests)

    def test_unmatchable_gaps_and_duplicates(self, mcf_pair):
        learner = OnlineLearner({"mcf": mcf_pair})
        gaps = window_gaps(mcf_pair[0])[4]
        other = [replace(gap, direction="x86-arm") for gap in gaps]
        empty = replace(gaps[0], mnemonics=())
        assert learner.match_candidates(other) == []
        assert learner.match_candidates([empty]) == []
        assert scan_candidates(learner, other + [empty]) == []
        assert_matches_scan(learner, other + [empty] + gaps[:5])
        # The same gaps twice over select what they select once.
        once = assert_matches_scan(learner, gaps)
        twice = assert_matches_scan(learner, gaps + gaps[::-1])
        assert twice == once

    def test_build_added_after_staging(self, corpus_builds):
        names = list(corpus_builds)
        learner = OnlineLearner(
            {name: corpus_builds[name] for name in names[:-1]})
        before = len(learner.staged_candidates())
        late = names[-1]
        assert learner.add_build(late, corpus_builds[late]) > 0
        gcc = build_learning_pair(names[0], style="gcc")
        assert learner.add_build(names[0], gcc) > 0
        assert len(learner.staged_candidates()) > before
        for guest in (corpus_builds[late][0], gcc[0]):
            for gaps in window_gaps(guest).values():
                assert_matches_scan(learner, gaps)
        late_ids = {id(candidate) for _, candidate
                    in learner.staged_candidates()[before:]}
        added = assert_matches_scan(learner, window_gaps(gcc[0])[8])
        assert any(id(candidate) in late_ids for _, candidate in added)
