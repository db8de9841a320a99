"""Feed surviving corpus programs into the learning machinery.

Two interchangeable feeds:

* :class:`LocalFeed` — in-process: the offline schedule's settle and
  replay steps (:func:`repro.learning.pipeline.learn_staged`) over the
  builds ingestion already staged, with a shared pre-verification memo
  and the persistent verification cache.  Fully deterministic — the
  ingest gate's path.
* :class:`RemoteFeed` — against a running ``repro-serve`` /
  ``repro-fleet`` endpoint through the existing
  :class:`~repro.service.client.RuleServiceClient`: the server stages
  the program's builds, queues synthetic whole-function gaps, and the
  feed flushes a learning round.

Both report per-program :class:`FeedResult`\\ s carrying the program's
``corpus:<digest>`` origin, so every learned rule's provenance is the
program that taught it, never a benchmark name.

Novelty accounting lives here: a feed is seeded with the baseline rule
identities (what the benchsuite alone teaches) and counts a rule novel
the first time an identity outside that baseline appears.  Rule
identity ignores origin and line (:mod:`repro.learning.rule`), so a
corpus rediscovery of a benchsuite rule is *not* novel — exactly the
gate's definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.corpus.pipeline import CorpusProgram
from repro.learning.cache import VerificationCache
from repro.learning.canon import CandidateOutcome
from repro.learning.pipeline import LearningReport, learn_staged
from repro.learning.rule import Rule
from repro.learning.verify import query_scope
from repro.obs.trace import get_tracer


@dataclass
class FeedResult:
    """What one fed program taught."""

    origin: str
    region: str
    rules: list[Rule] = field(default_factory=list)
    novel_rules: list[Rule] = field(default_factory=list)
    verify_calls: int = 0
    cache_hits: int = 0
    #: Remote feed only: rules the flushed round published (the rule
    #: objects themselves stay server-side).
    published: int = 0

    @property
    def novel(self) -> int:
        return len(self.novel_rules)


class _NoveltyTracker:
    def __init__(self, baseline: list[Rule] | None) -> None:
        self._known: set[Rule] = set(baseline or ())

    def split(self, rules: list[Rule]) -> list[Rule]:
        novel = []
        for rule in rules:
            if rule not in self._known:
                self._known.add(rule)
                novel.append(rule)
        return novel


def _trace_fed(result: FeedResult) -> None:
    get_tracer().event(
        "corpus.fed",
        origin=result.origin,
        region=result.region,
        rules=len(result.rules),
        novel=result.novel,
        published=result.published,
        verify_calls=result.verify_calls,
    )


class LocalFeed:
    """In-process feed through the offline learning schedule.

    Learns each program from its staged builds, one batch per style
    (like :func:`~repro.learning.pipeline.learn_corpus` at ``jobs=1``),
    so nothing is extracted or paramized twice.  Shares one
    pre-verification memo across all fed programs and settles verdicts
    into ``cache``, so the dedup layer sees every window this feed has
    ever paid for.
    """

    def __init__(self, cache: VerificationCache | None = None,
                 baseline: list[Rule] | None = None) -> None:
        self.cache = cache
        self.novelty = _NoveltyTracker(baseline)
        self.memo: dict[str, CandidateOutcome] = {}
        #: origin -> merged report across styles (provenance-stable).
        self.reports: dict[str, LearningReport] = {}

    def feed(self, program: CorpusProgram) -> FeedResult:
        result = FeedResult(origin=program.origin, region=program.region)
        merged = self.reports.setdefault(
            program.origin, LearningReport(benchmark=program.origin)
        )
        with query_scope():
            for staged in program.staged.values():
                outcome, = learn_staged([staged], self.cache, self.memo)
                result.rules.extend(outcome.rules)
                merged.merge(outcome.report)
                result.verify_calls += outcome.report.verify_calls
                result.cache_hits += outcome.report.cache_hits
        result.novel_rules = self.novelty.split(result.rules)
        if self.cache is not None:
            self.cache.save()
        _trace_fed(result)
        return result


class RemoteFeed:
    """Feed through a running rule service endpoint.

    ``client`` is a connected
    :class:`~repro.service.client.RuleServiceClient`.  Each program is
    handed over with ``ingest_source`` and settled with an explicit
    ``flush`` (``flush_each=False`` leaves learning to the server's
    auto-learn scheduler).  The server owns verification and novelty
    is server-side (rule-identity publish dedup), so ``novel_rules``
    stays empty here — ``rules`` counts what the flush published.
    """

    def __init__(self, client, flush_each: bool = True) -> None:
        self.client = client
        self.flush_each = flush_each

    def feed(self, program: CorpusProgram) -> FeedResult:
        result = FeedResult(origin=program.origin, region=program.region)
        self.client.ingest_source(program.source, origin=program.origin)
        if self.flush_each:
            response = self.client.flush()
            result.published = int(response.get("rules", 0))
        _trace_fed(result)
        return result
