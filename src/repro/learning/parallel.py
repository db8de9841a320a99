"""Crash-isolated process pool for the learner's settle step.

:func:`~repro.learning.pipeline.settle` hands the unique unsettled
candidates of a batch to :func:`resolve_on_pool` when ``jobs > 1``.
The pool fans the verify stage — the ~95% of learning wall-clock that
is symbolic execution plus BDD checks — out to worker processes in
chunks: workers run the pure
:func:`~repro.learning.canon.resolve_candidate` and return
``digest -> CandidateOutcome``.  All counting, dedup and cache
bookkeeping stays in the parent's replay, so rule lists and every
deterministic :class:`~repro.learning.pipeline.LearningReport` field
are the same at any ``jobs``.

Fault tolerance (the scheduler's contract is that one bad candidate
never sinks the batch):

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
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from functools import partial

from repro.faults.deadline import DeadlineBudget
from repro.faults.plan import NO_FAULTS, FaultPlan, InjectedAbort, \
    get_fault_plan
from repro.learning.canon import CandidateOutcome, resolve_candidate
from repro.learning.journal import OutcomeJournal
from repro.learning.paramize import InitialMapping, ParamContext
from repro.learning.verify import VerifyFailure, query_scope
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.profiler import SamplingProfiler, get_profiler, phase
from repro.obs.trace import get_tracer

#: Candidates per worker task: large enough to amortize IPC, small
#: enough to keep the pool busy at the tail of the work list.
CHUNK_SIZE = 16

#: Whole-chunk retries (with exponential backoff) before a failing
#: chunk is bisected / a failing singleton is quarantined.
MAX_RETRIES = 2

#: Base of the exponential backoff between chunk retries.
BACKOFF_SECONDS = 0.05

_ChunkItem = tuple[str, ParamContext, list[InitialMapping]]


def resolve_items(
    items: Iterable[_ChunkItem],
    resolve: Callable[..., CandidateOutcome],
    registry: MetricsRegistry,
) -> Iterator[tuple[str, CandidateOutcome]]:
    """Verify ``items`` in order, yielding each ``(digest, outcome)``
    as it lands.

    ``resolve(context, mappings, digest=...)`` decides one candidate.
    Each verdict is counted under ``learning.worker.*`` in ``registry``;
    pool workers and inline settling share this loop, so the counters
    mean the same at any ``jobs``.
    """
    start = time.perf_counter()
    with phase("learn.verify"):
        for digest, context, mappings in items:
            outcome = resolve(context, mappings, digest=digest)
            registry.inc("learning.worker.resolved")
            registry.inc("learning.worker.verify_calls", outcome.calls)
            registry.observe("learning.worker.calls_per_candidate",
                             outcome.calls)
            if outcome.failure is VerifyFailure.TIMEOUT:
                registry.inc("learning.worker.timeouts")
            yield digest, outcome
    registry.inc("learning.worker.seconds", time.perf_counter() - start)
    registry.inc("learning.worker.chunks")


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
    try:
        with query_scope():
            results = list(resolve_items(
                chunk, partial(resolve_candidate, budget=budget, plan=plan),
                registry,
            ))
    finally:
        if profiler is not None:
            profiler.stop()
    snapshot = registry.snapshot()
    if profiler is not None:
        snapshot["profile"] = profiler.snapshot()
    return results, snapshot


def resolve_on_pool(
    items: list[_ChunkItem],
    jobs: int,
    budget: DeadlineBudget | None,
    journal: OutcomeJournal | None,
) -> dict[str, CandidateOutcome]:
    """Verify ``items`` in :data:`CHUNK_SIZE` chunks on a pool of up to
    ``jobs`` workers, under the active fault plan; each verdict is
    journaled as its chunk lands."""
    chunks = [
        items[index:index + CHUNK_SIZE]
        for index in range(0, len(items), CHUNK_SIZE)
    ]
    workers = min(jobs, len(chunks))
    metrics = get_metrics()
    metrics.inc("learning.pool.workers", workers)
    metrics.inc("learning.pool.chunks", len(chunks))
    resolved: dict[str, CandidateOutcome] = {}
    with get_tracer().span("learn.pool", workers=workers,
                           chunks=len(chunks)):
        _PoolScheduler(workers, budget, get_fault_plan(), journal,
                       resolved).run(chunks)
    return resolved


class _PoolScheduler:
    """Crash-isolating work loop around a ProcessPoolExecutor."""

    def __init__(self, workers: int, budget: DeadlineBudget | None,
                 plan: FaultPlan, journal: OutcomeJournal | None,
                 resolved: dict[str, CandidateOutcome]) -> None:
        self.workers = workers
        self.budget = budget
        self.plan = plan
        self.journal = journal
        self.resolved = resolved
        # Workers sample at the parent profiler's rate while it runs;
        # their profiles merge into it in _absorb.
        profiler = get_profiler()
        self.profile_hz = profiler.hz if profiler.running else 0
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
        if attempts < MAX_RETRIES:
            time.sleep(BACKOFF_SECONDS * (2 ** attempts))
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
