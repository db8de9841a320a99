"""Gap-driven online learning over a staged corpus.

Offline learning verifies *every* paramizable candidate a corpus
yields; at service scale that is wasteful — most candidates cover code
no connected client ever misses.  The online learner instead stages
the cheap pipeline stages once (extract + paramize, a few percent of
learning wall-clock) and lets observed translation gaps select which
candidates pay for verification: a candidate is *relevant* to a gap
when its guest mnemonic sequence occurs as a contiguous window of the
gap's mnemonic sequence — the necessary condition for any rule learned
from it to match inside the gap (rule matching binds operands but
never mnemonics).  Staging indexes each candidate by that sequence, so
a round looks up the slices of its gap windows instead of scanning the
staged corpus.

Verification reuses the existing machinery end to end: candidates are
canonical (:mod:`repro.learning.canon`), settled verdicts live in the
same persistent :class:`~repro.learning.cache.VerificationCache` the
offline pipeline uses, an in-process memo dedups within the service's
lifetime, and with ``jobs > 1`` unsettled candidates fan out through
the corpus learner's crash-isolating pool scheduler
(:class:`repro.learning.parallel._PoolScheduler`): retries, bisection,
and quarantine of a candidate that kills its worker as ``EC``, under
the active fault plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.faults.plan import get_fault_plan
from repro.learning.cache import VerificationCache
from repro.learning.canon import CandidateOutcome
from repro.learning.direction import ARM_TO_X86
from repro.learning.parallel import (
    DEFAULT_CHUNK_SIZE,
    _PoolScheduler,
    _resolve_chunk,
)
from repro.learning.pipeline import Candidate, stage_candidates
from repro.learning.rule import Rule, dedup_rules, windows_in
from repro.learning.verify import query_scope
from repro.minic.compile import CompiledProgram
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.service.gaps import Gap


@dataclass
class LearnRound:
    """Outcome of one gap-driven learning round."""

    gaps: int = 0
    matched_candidates: int = 0
    resolved: int = 0
    verify_calls: int = 0
    rules: list[Rule] = None

    def __post_init__(self) -> None:
        if self.rules is None:
            self.rules = []


class OnlineLearner:
    """Stage a corpus once; verify only what observed gaps select."""

    def __init__(
        self,
        builds: dict[str, tuple[CompiledProgram, CompiledProgram]],
        cache: VerificationCache | None = None,
        jobs: int = 1,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        self.builds = builds
        self.cache = cache
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.direction = ARM_TO_X86
        #: digest -> settled verdict (service-lifetime dedup).
        self.memo: dict[str, CandidateOutcome] = {}
        self._staged: list[tuple[str, Candidate]] | None = None
        #: guest mnemonic sequence -> staging positions of the staged
        #: candidates with it, and the lengths of those sequences.
        self._by_needle: dict[tuple[str, ...], list[int]] = {}
        self._needle_lengths: set[int] = set()
        #: Builds ingested after construction (corpus feed); names may
        #: repeat — one origin arrives once per codegen style.
        self._extra_builds: list[
            tuple[str, tuple[CompiledProgram, CompiledProgram]]
        ] = []

    # -- staging -------------------------------------------------------------

    def _stage_build(
        self, name: str,
        pair: tuple[CompiledProgram, CompiledProgram],
    ) -> list[tuple[str, Candidate]]:
        return [(name, candidate) for candidate
                in stage_candidates(*pair, name, self.direction)]

    def staged_candidates(self) -> list[tuple[str, Candidate]]:
        """(benchmark, candidate) pairs, extracted + paramized lazily
        on first use and reused for the server's lifetime."""
        if self._staged is None:
            tracer = get_tracer()
            start = time.perf_counter()
            staged: list[tuple[str, Candidate]] = []
            with tracer.span("service.stage", corpus=len(self.builds)):
                for name, pair in self.builds.items():
                    staged.extend(self._stage_build(name, pair))
                for name, pair in self._extra_builds:
                    staged.extend(self._stage_build(name, pair))
            self._staged = []
            self._extend_staged(staged)
            metrics = get_metrics()
            metrics.inc("service.learner.staged_candidates", len(staged))
            metrics.inc("service.learner.stage_seconds",
                        time.perf_counter() - start)
        return self._staged

    def add_build(
        self, name: str,
        pair: tuple[CompiledProgram, CompiledProgram],
    ) -> int:
        """Ingest one dual build after construction (corpus feed).

        Stages it immediately when the corpus is already staged (so
        the next round sees it) and remembers it otherwise.  ``name``
        becomes the origin of any rule learned from it; names may
        repeat across codegen styles.  Returns how many candidates the
        build staged (0 when staging is still pending).
        """
        self._extra_builds.append((name, pair))
        if self._staged is None:
            return 0
        fresh = self._stage_build(name, pair)
        self._extend_staged(fresh)
        get_metrics().inc("service.learner.staged_candidates", len(fresh))
        return len(fresh)

    def _extend_staged(self, fresh: list[tuple[str, Candidate]]) -> None:
        """Append ``fresh`` to the staged list and index each by its
        guest mnemonic sequence."""
        for position, (_, candidate) in enumerate(fresh, len(self._staged)):
            needle = tuple(instr.mnemonic for instr in candidate.pair.guest)
            self._by_needle.setdefault(needle, []).append(position)
            self._needle_lengths.add(len(needle))
        self._staged.extend(fresh)

    # -- gap matching --------------------------------------------------------

    def match_candidates(self, gaps: list[Gap]) -> list[tuple[str, Candidate]]:
        """Staged candidates relevant to any of ``gaps``.

        Each slice of each gap window, of each staged needle length, is
        looked up in the staging index.  Deduped by canonical digest
        (the first staged candidate wins), in staging order (corpus
        order, so verdict reuse is deterministic).  Settled candidates are
        included — replaying their memoized verdict costs nothing and
        keeps each round's rule set complete for its own gaps.
        """
        windows = {
            gap.mnemonics for gap in gaps
            if gap.direction == self.direction.name and gap.mnemonics
        }
        if not windows:
            return []
        staged = self.staged_candidates()
        by_needle = self._by_needle
        found: set[tuple[str, ...]] = set()
        for window in windows:
            found.update(windows_in(window, by_needle, self._needle_lengths))
        # Each position has one needle, so the lists are disjoint.
        hits = sorted(
            position for needle in found for position in by_needle[needle]
        )
        selected: dict[str, tuple[str, Candidate]] = {}
        for position in hits:
            name, candidate = staged[position]
            if candidate.digest not in selected:
                selected[candidate.digest] = (name, candidate)
        return list(selected.values())

    # -- learning ------------------------------------------------------------

    def learn(self, gaps: list[Gap]) -> LearnRound:
        """One learning round: verify the candidates ``gaps`` select.

        Settled digests (memo or persistent cache) replay for free;
        the remainder resolves through ``_resolve_chunk`` — on the
        crash-isolating pool scheduler when ``jobs > 1``, inline
        otherwise.  Returns the round summary with the (deduped) newly
        learned rules.
        """
        round_ = LearnRound(gaps=len(gaps))
        selected = self.match_candidates(gaps)
        round_.matched_candidates = len(selected)
        tracer = get_tracer()
        metrics = get_metrics()
        with tracer.span("service.learn", gaps=len(gaps),
                         candidates=len(selected)), query_scope():
            unsettled: list[tuple[str, Candidate]] = []
            for name, candidate in selected:
                if candidate.digest in self.memo:
                    continue
                cached = self.cache.peek(candidate.digest) \
                    if self.cache is not None else None
                if cached is not None:
                    self.memo[candidate.digest] = cached
                    metrics.inc("service.learner.cache_hits")
                else:
                    unsettled.append((name, candidate))
            self._resolve(unsettled, round_)
            rules: list[Rule] = []
            for name, candidate in selected:
                outcome = self.memo[candidate.digest]
                if outcome.rule is not None:
                    rules.append(replace(
                        outcome.rule, origin=name,
                        line=candidate.pair.line,
                    ))
            round_.rules = dedup_rules(rules)
        metrics.inc("service.learner.rounds")
        metrics.inc("service.learner.rules", len(round_.rules))
        return round_

    def _resolve(self, unsettled: list[tuple[str, Candidate]],
                 round_: LearnRound) -> None:
        chunks = [
            [
                (candidate.digest, candidate.context, candidate.mappings)
                for _, candidate in unsettled[index:index + self.chunk_size]
            ]
            for index in range(0, len(unsettled), self.chunk_size)
        ]
        if not chunks:
            return
        resolved: dict[str, CandidateOutcome] = {}
        if self.jobs > 1 and len(chunks) > 1:
            _PoolScheduler(
                min(self.jobs, len(chunks)), None, get_fault_plan(), None,
                resolved,
            ).run(chunks)
        else:
            metrics = get_metrics()
            for chunk in chunks:
                chunk_result, snapshot = _resolve_chunk(chunk)
                metrics.merge(snapshot)
                resolved.update(chunk_result)
        for _, candidate in unsettled:
            digest = candidate.digest
            outcome = resolved[digest]
            self.memo[digest] = outcome
            round_.resolved += 1
            round_.verify_calls += outcome.calls
            if self.cache is not None:
                self.cache.put(digest, outcome)
        if self.cache is not None:
            self.cache.save()
