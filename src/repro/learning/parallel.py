"""Parallel rule learning over a crash-isolated process pool.

:func:`learn_corpus_parallel` fans the verify stage — the ~95% of
learning wall-clock that is symbolic execution plus BDD checks —
out to worker processes.  The schedule is:

1. (parent) extract + paramize every benchmark, in corpus order;
2. (parent) canonical dedup: collect the unique candidates, skipping
   any already settled by the persistent cache or the resume journal;
3. (pool) resolve the unique candidates in chunks — workers run the
   pure :func:`~repro.learning.canon.resolve_candidate` and return
   ``digest -> CandidateOutcome``;
4. (parent) deterministic merge: replay the sequential verify-stage
   accounting (:func:`~repro.learning.pipeline._verify_stage`) with
   the worker results as the resolver.

Because workers compute nothing but the pure per-candidate verdict and
all counting/dedup/cache bookkeeping replays in corpus order in the
parent, the learned rule lists and every deterministic
:class:`~repro.learning.pipeline.LearningReport` field are identical
to sequential :func:`~repro.learning.pipeline.learn_corpus` — only the
timing fields reflect the parallel wall-clock.

Fault tolerance (the scheduler's contract is that one bad candidate
never sinks the corpus):

* A chunk that fails with an ordinary exception is retried with
  exponential backoff (transient failures), then *bisected* so its
  halves re-run independently, narrowing the failure to a single
  candidate.
* A worker process death (``BrokenProcessPool`` — segfault, OOM kill,
  ``os._exit``) breaks the whole pool, so the guilty chunk cannot be
  told apart from the innocent ones that were merely in flight.  The
  pool is restarted and the suspects are *probed one at a time*: the
  next break names the culprit chunk exactly, which is bisected down
  to the poison candidate and quarantined as an ``EC`` (engine crash)
  outcome — Table 1's engine-failure column — instead of being
  re-verified forever.  Innocent candidates are never quarantined.
* With an :class:`~repro.learning.journal.OutcomeJournal`, every
  settled verdict is durably journaled the moment its chunk completes,
  so a killed run resumes without re-verifying settled candidates.

Counters: ``learning.pool.retries`` / ``.bisections`` / ``.restarts`` /
``.quarantined`` quantify the chaos the scheduler absorbed.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)

from repro.faults.deadline import DeadlineBudget
from repro.faults.plan import NO_FAULTS, FaultPlan, InjectedAbort, \
    get_fault_plan
from repro.learning.cache import VerificationCache
from repro.learning.canon import CandidateOutcome, resolve_candidate
from repro.learning.direction import ARM_TO_X86
from repro.learning.journal import OutcomeJournal
from repro.learning.paramize import InitialMapping, ParamContext
from repro.learning.pipeline import (
    Candidate,
    LearningOutcome,
    LearningReport,
    _extract_stage,
    _paramize_stage,
    _verify_stage,
    finish_outcome,
    learn_corpus,
)
from repro.learning.rule import dedup_rules
from repro.learning.verify import VerifyFailure, query_scope
from repro.minic.compile import CompiledProgram
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.profiler import SamplingProfiler, get_profiler, phase
from repro.obs.trace import get_tracer

#: Candidates per worker task: large enough to amortize IPC, small
#: enough to keep the pool busy at the tail of the work list.
DEFAULT_CHUNK_SIZE = 16

#: Whole-chunk retries (with exponential backoff) before a failing
#: chunk is bisected / a failing singleton is quarantined.
DEFAULT_MAX_RETRIES = 2

#: Base of the exponential backoff between chunk retries.
DEFAULT_BACKOFF_SECONDS = 0.05

_ChunkItem = tuple[str, ParamContext, list[InitialMapping]]


class ResolutionGapError(RuntimeError):
    """The deterministic replay hit a candidate the pool never settled.

    This is an internal invariant violation (stages 2/3 must settle
    every candidate stage 4 replays); the message names the candidate
    so the gap is diagnosable instead of surfacing as a bare KeyError.
    """

    def __init__(self, digest: str, benchmark: str, line: str) -> None:
        super().__init__(
            f"no resolved outcome for candidate {digest[:16]}… "
            f"(benchmark {benchmark!r}, source line {line!r}): "
            "the parallel scheduler lost a verdict it should have "
            "computed, retried or quarantined"
        )
        self.digest = digest
        self.benchmark = benchmark


def _make_replay_resolver(resolved: dict[str, CandidateOutcome],
                          benchmark: str):
    def resolver(candidate: Candidate) -> CandidateOutcome:
        try:
            return resolved[candidate.digest]
        except KeyError:
            raise ResolutionGapError(
                candidate.digest, benchmark,
                getattr(candidate.context.pair, "line", "?"),
            ) from None
    return resolver


def _resolve_chunk(
    chunk: list[_ChunkItem],
    budget: DeadlineBudget | None = None,
    plan: FaultPlan = NO_FAULTS,
    profile_hz: int = 0,
) -> tuple[list[tuple[str, CandidateOutcome]], dict]:
    """Worker entry point: verify one chunk of canonical candidates.

    Returns the per-candidate verdicts plus a
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` of the
    worker-side accounting, which the parent merges into the global
    registry — the cross-process half of the metrics API.  With
    ``profile_hz > 0`` a sampling profiler covers the chunk and its
    profile rides home inside the snapshot (key ``"profile"``), merged
    into the parent's profiler exactly like the metrics.
    """
    registry = MetricsRegistry()
    profiler = None
    if profile_hz > 0:
        profiler = SamplingProfiler(hz=profile_hz)
        profiler.start()
    start = time.perf_counter()
    results = []
    try:
        with phase("learn.verify"), query_scope():
            for digest, context, mappings in chunk:
                outcome = resolve_candidate(
                    context, mappings, budget=budget,
                    digest=digest, plan=plan,
                )
                registry.inc("learning.worker.resolved")
                registry.inc("learning.worker.verify_calls",
                             outcome.calls)
                registry.observe("learning.worker.calls_per_candidate",
                                 outcome.calls)
                if outcome.failure is VerifyFailure.TIMEOUT:
                    registry.inc("learning.worker.timeouts")
                results.append((digest, outcome))
    finally:
        if profiler is not None:
            profiler.stop()
    registry.inc("learning.worker.seconds", time.perf_counter() - start)
    registry.inc("learning.worker.chunks")
    snapshot = registry.snapshot()
    if profiler is not None:
        snapshot["profile"] = profiler.snapshot()
    return results, snapshot


class _PoolScheduler:
    """Crash-isolating work loop around a ProcessPoolExecutor."""

    def __init__(self, workers: int, budget: DeadlineBudget | None,
                 plan: FaultPlan, journal: OutcomeJournal | None,
                 resolved: dict[str, CandidateOutcome],
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 backoff_seconds: float = DEFAULT_BACKOFF_SECONDS,
                 profile_hz: int = 0) -> None:
        self.workers = workers
        self.budget = budget
        self.plan = plan
        self.journal = journal
        self.resolved = resolved
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.profile_hz = profile_hz
        self.metrics = get_metrics()
        self.completed_chunks = 0

    def run(self, chunks: list[list[_ChunkItem]]) -> None:
        queue: deque[tuple[list[_ChunkItem], int]] = deque(
            (chunk, 0) for chunk in chunks
        )
        # Chunks that were in flight when the pool broke.  They are
        # probed ONE at a time on the fresh pool, so the next break
        # unambiguously names the guilty chunk — a chunk is never
        # blamed (and a candidate never quarantined) merely for sharing
        # a broken pool with the real poison.
        suspects: deque[tuple[list[_ChunkItem], int]] = deque()
        pool = ProcessPoolExecutor(max_workers=self.workers)
        inflight: dict = {}
        probing = False
        try:
            while queue or suspects or inflight:
                # submit() reports a broken pool synchronously when a
                # worker dies between batches — before any in-flight
                # future has surfaced the break via result().  A chunk
                # refused at submit time never ran, so it is requeued
                # where it came from (never blamed) and the normal
                # rebuild below takes over.
                broken = False
                if suspects and not inflight:
                    chunk, attempts = suspects.popleft()
                    try:
                        future = pool.submit(_resolve_chunk, chunk,
                                             self.budget, self.plan,
                                             self.profile_hz)
                    except BrokenExecutor:
                        suspects.appendleft((chunk, attempts))
                        broken = True
                    else:
                        inflight[future] = (chunk, attempts)
                        probing = True
                elif not suspects and not probing:
                    while queue and len(inflight) < 2 * self.workers:
                        chunk, attempts = queue.popleft()
                        try:
                            future = pool.submit(_resolve_chunk, chunk,
                                                 self.budget, self.plan,
                                                 self.profile_hz)
                        except BrokenExecutor:
                            queue.appendleft((chunk, attempts))
                            broken = True
                            break
                        inflight[future] = (chunk, attempts)
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for future in done:
                    chunk, attempts = inflight.pop(future)
                    try:
                        chunk_result, snapshot = future.result()
                    except BrokenExecutor:
                        broken = True
                        if probing:
                            # Serial probe: this chunk IS the culprit.
                            self._narrow_culprit(suspects, chunk)
                        else:
                            suspects.append((chunk, attempts))
                    except Exception:
                        self._handle_soft_failure(queue, chunk, attempts)
                    else:
                        self._absorb(chunk_result, snapshot)
                probing = False
                if broken:
                    # Every other in-flight chunk is merely a suspect.
                    for chunk, attempts in inflight.values():
                        suspects.append((chunk, attempts))
                    inflight.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = ProcessPoolExecutor(max_workers=self.workers)
                    self.metrics.inc("learning.pool.restarts")
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _narrow_culprit(self, suspects, chunk) -> None:
        """A serially probed chunk crashed its (otherwise idle) worker:
        bisect toward, then quarantine, the poison candidate."""
        if len(chunk) > 1:
            mid = len(chunk) // 2
            suspects.appendleft((chunk[mid:], 0))
            suspects.appendleft((chunk[:mid], 0))
            self.metrics.inc("learning.pool.bisections")
        else:
            self._quarantine(chunk[0][0])

    def _absorb(self, chunk_result, snapshot) -> None:
        profile = snapshot.pop("profile", None)
        if profile is not None:
            get_profiler().merge(profile)
        self.metrics.merge(snapshot)
        for digest, outcome in chunk_result:
            self.resolved[digest] = outcome
            if self.journal is not None:
                self.journal.record(digest, outcome)
        self.completed_chunks += 1
        if (
            self.plan.active
            and self.plan.abort_after_chunks is not None
            and self.completed_chunks >= self.plan.abort_after_chunks
        ):
            # The verdicts above are already journaled, so the resumed
            # run replays them instead of re-verifying.
            raise InjectedAbort(
                f"injected abort after {self.completed_chunks} chunks"
            )

    def _handle_soft_failure(self, queue, chunk, attempts) -> None:
        """An exception inside the chunk (worker survived)."""
        if attempts < self.max_retries:
            time.sleep(self.backoff_seconds * (2 ** attempts))
            queue.append((chunk, attempts + 1))
            self.metrics.inc("learning.pool.retries")
        elif len(chunk) > 1:
            self._bisect(queue, chunk)
        else:
            self._quarantine(chunk[0][0])

    def _bisect(self, queue, chunk) -> None:
        mid = len(chunk) // 2
        queue.append((chunk[:mid], 0))
        queue.append((chunk[mid:], 0))
        self.metrics.inc("learning.pool.bisections")

    def _quarantine(self, digest: str) -> None:
        outcome = CandidateOutcome(
            failure=VerifyFailure.ENGINE_CRASH, calls=0
        )
        self.resolved[digest] = outcome
        if self.journal is not None:
            self.journal.record(digest, outcome)
        self.metrics.inc("learning.pool.quarantined")


def learn_corpus_parallel(
    builds: dict[str, tuple[CompiledProgram, CompiledProgram]],
    jobs: int = 1,
    cache: VerificationCache | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    budget: DeadlineBudget | None = None,
    journal: OutcomeJournal | None = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    backoff_seconds: float = DEFAULT_BACKOFF_SECONDS,
    profile_hz: int = 0,
) -> dict[str, LearningOutcome]:
    """Parallel drop-in for :func:`~repro.learning.pipeline.learn_corpus`.

    ``jobs <= 1`` (the default) takes the sequential path (same
    results, no pool overhead).  ``budget`` bounds each candidate's
    verification cost (hangs become ``TO`` outcomes); ``journal``
    checkpoints verdicts for crash-safe resume.
    """
    if jobs <= 1 or not builds:
        return learn_corpus(builds, cache=cache, budget=budget,
                            journal=journal)
    plan = get_fault_plan()

    # Stage 1: extract + paramize in the parent, in corpus order.
    staged: list[tuple[str, LearningReport, list[Candidate], float]] = []
    for name, (guest, host) in builds.items():
        start = time.perf_counter()
        report = LearningReport(benchmark=name)
        pairs = _extract_stage(guest, host, ARM_TO_X86, report)
        candidates = _paramize_stage(pairs, ARM_TO_X86, report)
        staged.append(
            (name, report, candidates, time.perf_counter() - start)
        )

    # Stage 2: unique unsettled candidates, in first-encounter order.
    pending: dict[str, Candidate] = {}
    for _, _, candidates, _ in staged:
        for candidate in candidates:
            if candidate.digest in pending:
                continue
            if cache is not None and candidate.digest in cache:
                continue
            if journal is not None and candidate.digest in journal:
                continue
            pending[candidate.digest] = candidate

    # Stage 3: fan the unique candidates out to the pool in chunks.
    items: list[_ChunkItem] = [
        (digest, candidate.context, candidate.mappings)
        for digest, candidate in pending.items()
    ]
    chunks = [
        items[index:index + chunk_size]
        for index in range(0, len(items), chunk_size)
    ]
    resolved: dict[str, CandidateOutcome] = {}
    pool_seconds = 0.0
    metrics = get_metrics()
    if chunks:
        workers = min(jobs, len(chunks))
        metrics.inc("learning.pool.workers", workers)
        metrics.inc("learning.pool.chunks", len(chunks))
        scheduler = _PoolScheduler(
            workers, budget, plan, journal, resolved,
            max_retries, backoff_seconds, profile_hz=profile_hz,
        )
        pool_start = time.perf_counter()
        with get_tracer().span("learn.pool", workers=workers,
                               chunks=len(chunks)):
            scheduler.run(chunks)
        pool_seconds = time.perf_counter() - pool_start

    # Stage 4: deterministic merge — replay sequential accounting with
    # the pre-computed verdicts as the resolver (journal-settled
    # candidates replay from the journal inside _verify_stage).
    memo: dict[str, CandidateOutcome] = {}
    replayed: list[tuple[LearningReport, list, float]] = []
    for name, report, candidates, stage1_seconds in staged:
        replay_start = time.perf_counter()
        rules = _verify_stage(
            candidates, report, name, cache, memo,
            resolver=_make_replay_resolver(resolved, name),
            journal=journal,
        )
        rules = dedup_rules(rules)
        report.learn_seconds = (
            stage1_seconds + time.perf_counter() - replay_start
        )
        replayed.append((report, rules, stage1_seconds))
    # The replay resolver is a dict lookup, so _verify_stage timed ~0s
    # of verification; charge the pool's wall-clock to each benchmark
    # in proportion to the solver calls attributed to it, so per-rule
    # and verification-share summaries stay meaningful in parallel runs.
    total_calls = sum(report.verify_calls for report, _, _ in replayed)
    outcomes: dict[str, LearningOutcome] = {}
    for report, rules, _ in replayed:
        if total_calls:
            share = pool_seconds * report.verify_calls / total_calls
            report.verify_seconds += share
            report.learn_seconds += share
        outcomes[report.benchmark] = finish_outcome(rules, report)
    if cache is not None:
        cache.save()
    return outcomes
