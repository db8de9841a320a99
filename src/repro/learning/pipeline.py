"""End-to-end rule learning with Table 1-style reporting.

Every learner runs one schedule of three steps:

* **stage** — :func:`stage_build` extracts + paramizes one build into
  a :class:`StagedBuild`: its canonical candidates
  (:mod:`repro.learning.canon`) and its prep/param accounting;
* **settle** — :func:`settle` picks the unique candidates no earlier
  source has decided (the run's memo, the persistent
  :class:`~repro.learning.cache.VerificationCache`, the resume journal)
  and verifies only those, inline or on the crash-isolating pool
  (:mod:`repro.learning.parallel`);
* **replay** — :func:`replay` walks the candidates in order over the
  settled verdicts, and the verify stage counts each one for Table 1.

:func:`learn_staged` settles and replays staged builds;
:func:`learn_rules`, :func:`learn_corpus` and the corpus feed are
staging plus that one function.

The verify stage is the wall-clock sink, so textually identical
pair+mapping work items are deduplicated **before** any solver call.
Failure accounting stays Table 1-compatible: every snippet pair is
still classified individually; duplicates simply share the
(deterministic) verdict of their canonical representative.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import partial

from repro.faults.deadline import DeadlineBudget
from repro.learning.cache import VerificationCache
from repro.learning.canon import (
    CandidateOutcome,
    candidate_digest,
    resolve_candidate,
)
from repro.learning.direction import ARM_TO_X86, Direction
from repro.learning.extract import PrepFailure, SnippetPair, extract_pairs
from repro.learning.journal import OutcomeJournal
from repro.learning.paramize import (
    InitialMapping,
    ParamContext,
    ParamFailure,
    analyze_pair,
    generate_mappings,
)
from repro.learning.parallel import resolve_items, resolve_on_pool
from repro.learning.rule import Rule, dedup_rules
from repro.learning.verify import VerifyFailure, query_scope
from repro.minic.compile import CompiledProgram
from repro.obs.metrics import get_metrics
from repro.obs.profiler import phase
from repro.obs.trace import get_tracer

#: Table 1 failure-taxonomy codes, shared with the trace payloads.
PREP_CODES = {
    PrepFailure.CALL_OR_INDIRECT: "CI",
    PrepFailure.PREDICATED: "PI",
    PrepFailure.MULTI_BLOCK: "MB",
}
PARAM_CODES = {
    ParamFailure.MEM_COUNT: "Num",
    ParamFailure.MEM_NAME: "Name",
}
PARAM_FALLBACK_CODE = "FailG"
VERIFY_CODES = {
    VerifyFailure.REGISTERS: "Rg",
    VerifyFailure.MEMORY: "Mm",
    VerifyFailure.BRANCH: "Br",
    VerifyFailure.TIMEOUT: "TO",
    VerifyFailure.ENGINE_CRASH: "EC",
}
VERIFY_FALLBACK_CODE = "Other"
#: Table 1 code -> the :class:`LearningReport` field that counts it.
FAILURE_FIELDS = {
    "Num": "param_num", "Name": "param_name", "FailG": "param_failg",
    "Rg": "verify_rg", "Mm": "verify_mm", "Br": "verify_br",
    "Other": "verify_other", "TO": "verify_to", "EC": "verify_ec",
}


@dataclass
class LearningReport:
    """Per-benchmark learning statistics (one Table 1 row).

    Besides the paper's failure breakdown, the report carries
    stage-level timing (extract/paramize/verify) and the verification
    economy counters: ``verify_calls`` (solver-backed
    ``verify_candidate`` invocations actually performed),
    ``dedup_saved_calls`` (invocations avoided because an identical
    candidate was already settled earlier in the same run) and
    ``cache_hits``/``cache_misses`` (persistent-cache lookups, counted
    only when a cache is attached).
    """

    benchmark: str = ""
    total_sequences: int = 0
    prep_ci: int = 0
    prep_pi: int = 0
    prep_mb: int = 0
    param_num: int = 0
    param_name: int = 0
    param_failg: int = 0
    verify_rg: int = 0
    verify_mm: int = 0
    verify_br: int = 0
    verify_other: int = 0
    verify_to: int = 0
    verify_ec: int = 0
    rules: int = 0
    learn_seconds: float = 0.0
    extract_seconds: float = 0.0
    paramize_seconds: float = 0.0
    verify_seconds: float = 0.0
    verify_calls: int = 0
    dedup_saved_calls: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    _COUNT_FIELDS = (
        "total_sequences", "prep_ci", "prep_pi", "prep_mb", "param_num",
        "param_name", "param_failg", "verify_rg", "verify_mm",
        "verify_br", "verify_other", "rules", "verify_calls",
        "dedup_saved_calls", "cache_hits", "cache_misses",
        "verify_to", "verify_ec",
    )
    _TIMING_FIELDS = (
        "learn_seconds", "extract_seconds", "paramize_seconds",
        "verify_seconds",
    )

    @property
    def prep_failures(self) -> int:
        return self.prep_ci + self.prep_pi + self.prep_mb

    @property
    def param_failures(self) -> int:
        return self.param_num + self.param_name + self.param_failg

    @property
    def verify_failures(self) -> int:
        return self.verify_rg + self.verify_mm + self.verify_br + \
            self.verify_other + self.verify_to + self.verify_ec

    @property
    def yield_fraction(self) -> float:
        if not self.total_sequences:
            return 0.0
        return self.rules / self.total_sequences

    def count_signature(self) -> tuple:
        """Every deterministic (non-timing) field, for equivalence
        checks between the sequential and parallel paths."""
        return (self.benchmark,) + tuple(
            getattr(self, name) for name in self._COUNT_FIELDS
        )

    def merge(self, other: "LearningReport") -> None:
        for name in self._COUNT_FIELDS + self._TIMING_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class LearningOutcome:
    """Rules plus the statistics of one learning run."""

    rules: list[Rule] = field(default_factory=list)
    report: LearningReport = field(default_factory=LearningReport)


@dataclass
class Candidate:
    """One verify-stage work item: a snippet pair plus its mappings."""

    pair: SnippetPair
    context: ParamContext
    mappings: list[InitialMapping]
    digest: str


@dataclass
class StagedBuild:
    """One build after the stage step: its report so far (the prep and
    param failure columns, extract and paramize seconds), its
    candidates, and the lines its per-pair trace records name."""

    report: LearningReport
    candidates: list[Candidate] = field(default_factory=list)
    #: Source line of every extracted pair, in order.
    lines: list[str] = field(default_factory=list)
    #: (source line, Table 1 code) of every pair paramize rejected.
    param_failures: list[tuple[str, str]] = field(default_factory=list)


def stage_build(guest: CompiledProgram, host: CompiledProgram, name: str,
                direction: Direction = ARM_TO_X86) -> StagedBuild:
    """The stage step: extract + paramize one build pair.

    Staging writes no trace record: :func:`trace_staged` writes the
    build's records when the schedule learns it, so a build staged but
    never learned (an ingest-skipped program, the online learner's
    corpus) leaves nothing in the trace.
    """
    staged = StagedBuild(LearningReport(benchmark=name))
    report = staged.report
    start = time.perf_counter()
    with phase("learn.extract"):
        extraction = extract_pairs(guest, host, direction)
    report.total_sequences = extraction.total_sequences
    report.prep_ci = extraction.prep_failures[PrepFailure.CALL_OR_INDIRECT]
    report.prep_pi = extraction.prep_failures[PrepFailure.PREDICATED]
    report.prep_mb = extraction.prep_failures[PrepFailure.MULTI_BLOCK]
    report.extract_seconds = time.perf_counter() - start
    staged.lines = [pair.line for pair in extraction.pairs]

    start = time.perf_counter()
    with phase("learn.paramize"):
        for pair in extraction.pairs:
            context = analyze_pair(pair, direction)
            mappings, failure = generate_mappings(context)
            if failure is not None:
                code = _count_failure(
                    report, PARAM_CODES.get(failure, PARAM_FALLBACK_CODE))
                staged.param_failures.append((pair.line, code))
                continue
            staged.candidates.append(
                Candidate(pair, context, mappings,
                          candidate_digest(context, mappings))
            )
    report.paramize_seconds = time.perf_counter() - start
    return staged


def trace_staged(staged: StagedBuild) -> None:
    """Write a staged build's trace records: a ``learn.extract`` span
    holding its ``learn.pair``, ``learn.prep_fail`` and ``learn.empty``
    events, and a ``learn.paramize`` span holding its
    ``learn.param_fail`` events.  Each span carries the seconds staging
    measured."""
    tracer = get_tracer()
    if not tracer.enabled:
        return
    report = staged.report
    benchmark = report.benchmark
    with tracer.span("learn.extract", benchmark=benchmark,
                     seconds=report.extract_seconds):
        for line in staged.lines:
            tracer.event("learn.pair", benchmark=benchmark, line=line)
        for code in PREP_CODES.values():
            count = getattr(report, "prep_" + code.lower())
            if count:
                tracer.event("learn.prep_fail", benchmark=benchmark,
                             reason=code, count=count)
        # Every sequence is a pair, a prep failure or empty after prep.
        empty = (report.total_sequences - len(staged.lines)
                 - report.prep_failures)
        if empty:
            tracer.event("learn.empty", benchmark=benchmark, count=empty)
    with tracer.span("learn.paramize", benchmark=benchmark,
                     seconds=report.paramize_seconds):
        for line, code in staged.param_failures:
            tracer.event("learn.param_fail", benchmark=benchmark,
                         line=line, reason=code)


class ResolutionGapError(RuntimeError):
    """The replay hit a candidate :func:`settle` never settled.

    This is an internal invariant violation (settle must decide every
    candidate the replay walks); the message names the candidate so
    the gap is diagnosable instead of surfacing as a bare KeyError.
    """

    def __init__(self, digest: str, benchmark: str, line: str) -> None:
        super().__init__(
            f"no settled outcome for candidate {digest[:16]}… "
            f"(benchmark {benchmark!r}, source line {line!r}): "
            "the settle step lost a verdict it should have computed, "
            "retried or quarantined"
        )
        self.digest = digest
        self.benchmark = benchmark


def settle(
    candidates: list[Candidate],
    cache: VerificationCache | None,
    memo: dict[str, CandidateOutcome],
    journal: OutcomeJournal | None = None,
    budget: DeadlineBudget | None = None,
    jobs: int = 1,
) -> dict[str, CandidateOutcome]:
    """The settle step: verify what nothing has settled yet.

    A verdict comes from the first of: the run's ``memo``, the
    persistent ``cache``, the resume ``journal``, and only then live
    verification — this is the one place that order is decided.  The
    unique unsettled digests are verified in first-encounter order,
    inline or (``jobs > 1``) on the crash-isolating pool, and each is
    journaled as it lands.  ``budget`` bounds each candidate's cost
    (hangs become ``TO``).  Returns this batch's live verdicts.
    """
    pending: dict[str, Candidate] = {}
    for candidate in candidates:
        digest = candidate.digest
        if (digest in pending or digest in memo
                or (cache is not None and digest in cache)
                or (journal is not None and digest in journal)):
            continue
        pending[digest] = candidate
    items = [(digest, candidate.context, candidate.mappings)
             for digest, candidate in pending.items()]
    if not items:
        return {}
    if jobs > 1:
        return resolve_on_pool(items, jobs, budget, journal)
    live: dict[str, CandidateOutcome] = {}
    with query_scope():
        for digest, outcome in resolve_items(
                items, partial(resolve_candidate, budget=budget),
                get_metrics()):
            live[digest] = outcome
            if journal is not None:
                journal.record(digest, outcome)
    return live


def replay(
    candidates: list[Candidate],
    cache: VerificationCache | None,
    memo: dict[str, CandidateOutcome],
    live: dict[str, CandidateOutcome],
    journal: OutcomeJournal | None = None,
    benchmark: str = "",
) -> Iterator[tuple[Candidate, str, CandidateOutcome]]:
    """The replay step: yield ``(candidate, source, outcome)`` for each
    candidate after :func:`settle`, in order.

    ``source`` names where the verdict came from: ``memo`` (settled
    earlier in this run), ``cache``, ``live`` (settled by this batch)
    or ``journal`` (settled before a killed run).  A verdict enters the
    memo on its first sighting and the cache when it missed there, so
    a repeat replays as ``memo``.
    """
    for candidate in candidates:
        digest = candidate.digest
        outcome = memo.get(digest)
        if outcome is not None:
            yield candidate, "memo", outcome
            continue
        outcome = cache.get(digest) if cache is not None else None
        source = "cache"
        if outcome is None:
            # Live before journal: the pool journals this batch's
            # verdicts too, and they are still this run's.
            source = "live"
            outcome = live.get(digest)
            if outcome is None and journal is not None:
                source = "journal"
                outcome = journal.get(digest)
            if outcome is None:
                raise ResolutionGapError(digest, benchmark,
                                         candidate.pair.line)
            if cache is not None:
                cache.put(digest, outcome)
        memo[digest] = outcome
        yield candidate, source, outcome


def _verify_stage(
    candidates: list[Candidate],
    report: LearningReport,
    cache: VerificationCache | None,
    memo: dict[str, CandidateOutcome],
    live: dict[str, CandidateOutcome],
    journal: OutcomeJournal | None = None,
) -> list[Rule]:
    """Table 1 accounting over :func:`replay`: count each candidate by
    the source of its verdict and classify it.

    A journaled verdict counts its original ``calls`` cost, so a
    resumed run's report is identical to an uninterrupted one.
    """
    benchmark = report.benchmark
    tracer = get_tracer()
    rules: list[Rule] = []
    replayed = 0  # verdicts settled before a killed run
    start = time.perf_counter()
    with tracer.span("learn.verify", benchmark=benchmark), \
            phase("learn.verify"):
        for candidate, source, outcome in replay(
                candidates, cache, memo, live, journal, benchmark):
            if source == "memo":
                report.dedup_saved_calls += outcome.calls
            elif source == "cache":
                report.cache_hits += 1
            else:
                if source == "journal":
                    replayed += 1
                report.verify_calls += outcome.calls
                if cache is not None:
                    report.cache_misses += 1
            if outcome.rule is not None:
                result, reason = "rule", None
                rules.append(replace(outcome.rule, origin=benchmark,
                                     line=candidate.pair.line))
            else:
                # Only the last verification attempt counts (Section 6.1).
                result = "fail"
                reason = _count_failure(report, VERIFY_CODES.get(
                    outcome.failure, VERIFY_FALLBACK_CODE))
            if tracer.enabled:
                tracer.event(
                    "learn.verdict", benchmark=benchmark,
                    digest=candidate.digest, line=candidate.pair.line,
                    source=source, calls=outcome.calls,
                    cache_miss=source in ("live", "journal")
                    and cache is not None,
                    result=result, reason=reason,
                )
    report.verify_seconds += time.perf_counter() - start
    if replayed:
        get_metrics().inc("learning.journal.replayed", replayed)
    return rules


def learn_staged(
    staged: list[StagedBuild],
    cache: VerificationCache | None,
    memo: dict[str, CandidateOutcome],
    budget: DeadlineBudget | None = None,
    journal: OutcomeJournal | None = None,
    jobs: int = 1,
) -> list[LearningOutcome]:
    """Settle a batch of staged builds at once, then replay each build.

    ``memo`` is the run's pre-verification dedup, shared by every batch
    of one run.  Each build's staging records (:func:`trace_staged`)
    are written as it enters the batch, and each is learned on a copy
    of its staged report, so a staged build can be learned again.  The settle wall-clock is
    charged to the builds in proportion to the solver calls each
    replays, so per-benchmark verify times mean the same whatever the
    batch size.
    """
    reports = [replace(build.report) for build in staged]
    for build in staged:
        trace_staged(build)
    names = ",".join(report.benchmark for report in reports)
    start = time.perf_counter()
    with get_tracer().span("learn.verify", benchmark=names):
        live = settle([candidate for build in staged
                       for candidate in build.candidates],
                      cache, memo, journal, budget, jobs)
    settle_seconds = time.perf_counter() - start
    replayed = [
        (report, dedup_rules(_verify_stage(build.candidates, report, cache,
                                           memo, live, journal)))
        for build, report in zip(staged, reports)
    ]
    total_calls = sum(report.verify_calls for report in reports)
    outcomes = []
    for report, rules in replayed:
        if total_calls:
            report.verify_seconds += \
                settle_seconds * report.verify_calls / total_calls
        report.learn_seconds = (report.extract_seconds
                                + report.paramize_seconds
                                + report.verify_seconds)
        outcomes.append(finish_outcome(rules, report))
    return outcomes


def learn_rules(
    guest_program: CompiledProgram,
    host_program: CompiledProgram,
    benchmark: str = "",
    direction: Direction = ARM_TO_X86,
    cache: VerificationCache | None = None,
    budget: DeadlineBudget | None = None,
    journal: OutcomeJournal | None = None,
) -> LearningOutcome:
    """Learn translation rules from one dual-compiled program.

    ``cache`` (optional) settles candidates verified in earlier runs;
    ``budget`` bounds each candidate's verification cost (hangs become
    ``TO`` outcomes); ``journal`` checkpoints verdicts incrementally so
    a killed run can resume.
    """
    staged = stage_build(guest_program, host_program, benchmark, direction)
    return learn_staged([staged], cache, {}, budget, journal)[0]


def finish_outcome(rules: list[Rule],
                   report: LearningReport) -> LearningOutcome:
    """Seal one benchmark's outcome: the ``learn.rule`` /
    ``learn.report`` trace records.

    The ``learn.report`` event is the :class:`LearningReport`
    accounting path embedded verbatim in the trace, so the report CLI
    can cross-check it against its own per-event aggregation.
    """
    report.rules = len(rules)
    tracer = get_tracer()
    if tracer.enabled:
        for index, rule in enumerate(rules):
            tracer.event("learn.rule", benchmark=report.benchmark,
                         index=index, line=rule.line)
        tracer.event(
            "learn.report", benchmark=report.benchmark,
            counts={name: getattr(report, name)
                    for name in report._COUNT_FIELDS},
            timings={name: getattr(report, name)
                     for name in report._TIMING_FIELDS},
        )
    return LearningOutcome(rules=rules, report=report)


def learn_corpus(
    builds: dict[str, tuple[CompiledProgram, CompiledProgram]],
    cache: VerificationCache | None = None,
    budget: DeadlineBudget | None = None,
    journal: OutcomeJournal | None = None,
    jobs: int = 1,
) -> dict[str, LearningOutcome]:
    """Learn rules independently from several benchmarks.

    ``builds`` maps benchmark name -> (guest build, host build).  The
    pre-verification dedup memo is shared across benchmarks, so a
    candidate appearing in several benchmarks is verified once; so is
    the equivalence-query memo, so a query they share is decided once.

    ``jobs`` only sets the batch size; rule lists and every
    deterministic report field are the same at any value.  At
    ``jobs=1`` each build is settled and replayed before the next is
    staged: staging the whole corpus first raised the learn-corpus
    benchmark's peak RSS by ~7 MB (~11%).  At ``jobs > 1`` the whole
    corpus is staged and settled as one batch, so the pool's workers
    have work to share.
    """
    staged = (stage_build(guest, host, name)
              for name, (guest, host) in builds.items())
    batches = [list(staged)] if jobs > 1 else ([build] for build in staged)
    memo: dict[str, CandidateOutcome] = {}
    outcomes: dict[str, LearningOutcome] = {}
    with query_scope():
        for batch in batches:
            for outcome in learn_staged(batch, cache, memo, budget,
                                        journal, jobs):
                outcomes[outcome.report.benchmark] = outcome
    if cache is not None:
        cache.save()
    return outcomes


def leave_one_out(
    outcomes: dict[str, LearningOutcome], excluded: str
) -> list[Rule]:
    """All rules learned from every benchmark except ``excluded``
    (the paper's evaluation protocol)."""
    rules: list[Rule] = []
    for name, outcome in outcomes.items():
        if name != excluded:
            rules.extend(outcome.rules)
    return dedup_rules(rules)


def _count_failure(report: LearningReport, code: str) -> str:
    """Count one Table 1 failure in ``report``; returns ``code``."""
    name = FAILURE_FIELDS[code]
    setattr(report, name, getattr(report, name) + 1)
    return code
