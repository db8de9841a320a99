"""Golden fed learning: what a small ingestion stream teaches.

``run_ingest(seed=3, programs=4)`` runs cold through a :class:`LocalFeed`,
then warm: a fresh seen-store over the same verification cache, so
every program is compiled and staged again and classified against the
settled windows.  The digest pins each run's summary counts, every
origin's merged :class:`~repro.learning.pipeline.LearningReport` counts
(prep and param failure columns included) and the sorted rule digests
of every fed program.  A change to how ingestion stages or learns that alters any of
them must update :data:`INGEST_SHA256` on purpose.
"""

import hashlib

from repro.corpus.cli import run_ingest
from repro.corpus.dedup import SeenStore
from repro.corpus.feed import LocalFeed
from repro.learning.cache import VerificationCache
from repro.learning.serialize import rule_digest

#: sha256 over the cold then warm run: summary counts, merged reports
#: per origin, and each fed program's sorted rule digests.
INGEST_SHA256 = (
    "3c59c41e4cd58384a2eb0e1e24257b2f898180202cc13357dc59ae9b37b79773"
)


class _RecordingFeed(LocalFeed):
    """A :class:`LocalFeed` that keeps every :class:`FeedResult`."""

    def __init__(self, cache):
        super().__init__(cache=cache)
        self.results = []

    def feed(self, program):
        result = super().feed(program)
        self.results.append(result)
        return result


def _ingest(store_dir, cache_dir):
    store = SeenStore.at_dir(store_dir)
    cache = VerificationCache.at_dir(cache_dir)
    feed = _RecordingFeed(cache)
    summary = run_ingest(seed=3, programs=4, store=store, cache=cache,
                         feed=feed)
    return summary, feed


def _fingerprint(summary, feed) -> tuple:
    reports = tuple(
        (origin, report.count_signature())
        for origin, report in sorted(feed.reports.items())
    )
    rules = tuple(
        (result.origin, tuple(sorted(rule_digest(rule)
                                     for rule in result.rules)))
        for result in feed.results
    )
    return tuple(sorted(summary.counts().items())), reports, rules


def test_cold_then_warm_ingest(tmp_path):
    cache_dir = tmp_path / "verify-cache"
    cold = _fingerprint(*_ingest(tmp_path / "cold", cache_dir))
    warm = _fingerprint(*_ingest(tmp_path / "warm", cache_dir))
    assert cold[2], "the cold run fed no program"
    digest = hashlib.sha256(repr((cold, warm)).encode()).hexdigest()
    assert digest == INGEST_SHA256
