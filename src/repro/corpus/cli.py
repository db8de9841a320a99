"""``repro-corpus``: the standing corpus-ingestion workload.

Drives the full loop: the yield controller picks a grammar region, the
generator emits the region's next program, the ingestion pipeline
classifies it against the seen-digest store and verification cache,
and surviving programs go through a feed (in-process learning, or a
running rule-service endpoint).  The run's accounting is emitted three
ways that must agree exactly — per-event trace records
(``corpus.program`` / ``corpus.fed``), the embedded ``corpus.report``
trace event, and the JSON report written with ``--report`` — which is
what the ingest gate reconciles.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from dataclasses import dataclass, field

from repro.corpus.dedup import SeenStore
from repro.corpus.diffcheck import FAILURE_DIR, check_source, dump_failure
from repro.corpus.feed import FeedResult, LocalFeed, RemoteFeed
from repro.corpus.generate import generate_program
from repro.corpus.grammar import DEFAULT_REGIONS, REGIONS
from repro.corpus.idioms import generate_idiom_program
from repro.corpus.pipeline import IngestPipeline
from repro.corpus.yield_ctl import YieldController
from repro.learning.cache import VerificationCache
from repro.obs.trace import get_tracer, tracing


@dataclass
class IngestSummary:
    """Deterministic accounting of one ingestion run."""

    seed: int = 0
    programs: int = 0
    fed: int = 0
    skipped_dup: int = 0
    skipped_settled: int = 0
    unsound: int = 0
    rules: int = 0
    novel_rules: int = 0
    published: int = 0
    verify_calls: int = 0
    cache_hits: int = 0
    elapsed_seconds: float = 0.0
    regions: dict = field(default_factory=dict)

    _COUNT_FIELDS = (
        "programs", "fed", "skipped_dup", "skipped_settled", "unsound",
        "rules", "novel_rules", "published", "verify_calls",
    )

    @property
    def skipped(self) -> int:
        return self.skipped_dup + self.skipped_settled

    @property
    def dedup_skip_rate(self) -> float:
        return self.skipped / self.programs if self.programs else 0.0

    @property
    def novel_per_minute(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.novel_rules * 60.0 / self.elapsed_seconds

    def counts(self) -> dict:
        return {name: getattr(self, name) for name in self._COUNT_FIELDS}

    def to_json(self) -> dict:
        return dict(
            self.counts(),
            seed=self.seed,
            skipped=self.skipped,
            dedup_skip_rate=round(self.dedup_skip_rate, 4),
            novel_rules_per_min=round(self.novel_per_minute, 4),
            cache_hits=self.cache_hits,
            elapsed_seconds=round(self.elapsed_seconds, 3),
            regions=self.regions,
        )


def run_ingest(
    seed: int,
    programs: int,
    regions: tuple[str, ...] = DEFAULT_REGIONS,
    store: SeenStore | None = None,
    cache: VerificationCache | None = None,
    feed=None,
    controller: YieldController | None = None,
    budget_seconds: float | None = None,
    check_soundness: bool = False,
    failures_dir: str = FAILURE_DIR,
) -> IngestSummary:
    """Run one ingestion stream; the programmatic API under the CLI.

    Deterministic given (seed, programs, regions, store+cache state,
    feed): the yield controller advances only on recorded outcomes and
    the generator derives each program purely from its
    (seed, region, per-region index) slot.  ``budget_seconds`` is a
    wall-clock ceiling — the stream stops *early* on a slow machine
    but never reorders.
    """
    store = store if store is not None else SeenStore()
    feed = feed if feed is not None else LocalFeed(cache=cache)
    controller = controller or YieldController(regions)
    pipeline = IngestPipeline(store, cache)
    summary = IngestSummary(seed=seed)
    indices = {region: 0 for region in regions}
    tracer = get_tracer()
    start = time.perf_counter()
    with tracer.span("corpus.ingest", seed=seed, programs=programs):
        for _ in range(programs):
            if budget_seconds is not None and \
                    time.perf_counter() - start > budget_seconds:
                break
            region = controller.next_region()
            index = indices[region]
            indices[region] += 1
            config = REGIONS[region]
            if config.idiom_recombine:
                source = generate_idiom_program(config, seed, region, index)
            else:
                source = generate_program(config, seed, region, index)
            summary.programs += 1
            program = pipeline.process(source, region=region, seed=seed,
                                       index=index)
            if program.decision.skipped:
                if program.decision.verdict == "dup_program":
                    summary.skipped_dup += 1
                else:
                    summary.skipped_settled += 1
                controller.record(region, fed=False)
                continue
            if check_soundness:
                diff = check_source(source)
                if not diff.ok:
                    # A divergence is a compiler/DBT bug, not learning
                    # fuel: dump the minimized repro, never feed it.
                    dump_failure(source, diff, failures_dir,
                                 meta={"region": region, "seed": seed,
                                       "index": index})
                    summary.unsound += 1
                    tracer.event("corpus.unsound", origin=program.origin,
                                 region=region)
                    controller.record(region, fed=False)
                    continue
            result: FeedResult = feed.feed(program)
            pipeline.commit(program)
            summary.fed += 1
            summary.rules += len(result.rules)
            summary.novel_rules += result.novel
            summary.published += result.published
            summary.verify_calls += result.verify_calls
            summary.cache_hits += result.cache_hits
            controller.record(region, fed=True,
                              rules=result.novel + result.published,
                              verify_calls=result.verify_calls)
    summary.elapsed_seconds = time.perf_counter() - start
    summary.regions = controller.snapshot()
    store.save()
    if cache is not None:
        cache.save()
    # The embedded report: the trace-side reconciliation anchor, the
    # exact analogue of learn.report for the learning pipeline.
    tracer.event("corpus.report", seed=seed, counts=summary.counts(),
                 elapsed_seconds=summary.elapsed_seconds)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-corpus",
        description="Generate MiniC programs, dedup against settled "
                    "verification state, and feed the survivors to the "
                    "rule learner (in-process or a running service).",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="stream seed (default: 0)")
    parser.add_argument("--programs", type=int, default=60, metavar="N",
                        help="programs to draw from the stream "
                             "(default: 60)")
    parser.add_argument("--regions", default="", metavar="NAMES",
                        help="comma-separated grammar regions "
                             "(default: all)")
    parser.add_argument("--state-dir", default=None, metavar="DIR",
                        help="seen-digest store + verification cache "
                             "directory (default: in-memory, nothing "
                             "persists)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the persistent verification cache")
    parser.add_argument("--socket", metavar="PATH",
                        help="feed a running repro-serve/repro-fleet on "
                             "this unix socket instead of learning "
                             "in-process")
    parser.add_argument("--port", type=int, metavar="N",
                        help="feed a service on this localhost TCP port")
    parser.add_argument("--budget-seconds", type=float, default=None,
                        metavar="S", help="wall-clock ceiling for the run")
    parser.add_argument("--check-soundness", action="store_true",
                        help="differentially check every fresh program "
                             "(interpreter vs guest/host execution) and "
                             "dump divergences before feeding")
    parser.add_argument("--failures-dir", default=FAILURE_DIR,
                        metavar="DIR",
                        help="where divergence repros land "
                             f"(default: {FAILURE_DIR})")
    parser.add_argument("--trace", metavar="PATH",
                        help="write the JSON-lines ingestion trace here")
    parser.add_argument("--report", metavar="PATH",
                        help="write the run summary as JSON here")
    parser.add_argument("--slo", metavar="PATH",
                        help="evaluate the yield objective in this TOML "
                             "file against the run (non-zero exit on "
                             "breach)")
    args = parser.parse_args(argv)

    regions = tuple(
        name.strip() for name in args.regions.split(",") if name.strip()
    ) or DEFAULT_REGIONS
    for name in regions:
        if name not in REGIONS:
            parser.error(f"unknown region {name!r} "
                         f"(have: {', '.join(REGIONS)})")

    store = SeenStore.at_dir(args.state_dir) if args.state_dir \
        else SeenStore()
    cache = None
    if args.state_dir and not args.no_cache:
        cache = VerificationCache.at_dir(f"{args.state_dir}/verify-cache")

    feed = None
    client = None
    if args.socket or args.port:
        from repro.service.client import RuleServiceClient

        client = RuleServiceClient(
            socket_path=args.socket,
            address=("127.0.0.1", args.port) if args.port else None,
        )
        feed = RemoteFeed(client)

    trace_scope = tracing(args.trace) if args.trace \
        else contextlib.nullcontext()
    with trace_scope:
        summary = run_ingest(
            seed=args.seed,
            programs=args.programs,
            regions=regions,
            store=store,
            cache=cache,
            feed=feed,
            budget_seconds=args.budget_seconds,
            check_soundness=args.check_soundness,
            failures_dir=args.failures_dir,
        )
    if client is not None:
        client.close()

    payload = summary.to_json()
    if args.report:
        with open(args.report, "w") as fp:
            json.dump(payload, fp, indent=2)
            fp.write("\n")
    print(f"repro-corpus: {summary.programs} programs "
          f"({summary.fed} fed, {summary.skipped} skipped, "
          f"{summary.unsound} unsound), "
          f"{summary.novel_rules} novel rules, "
          f"{summary.verify_calls} verify calls, "
          f"{summary.elapsed_seconds:.1f}s", file=sys.stderr)

    if args.slo:
        from repro.obs.slo import SloEngine

        engine = SloEngine.from_toml(args.slo)
        report = engine.evaluate(gauges={
            "gauge:corpus_novel_rules_per_min": summary.novel_per_minute,
        })
        for name in report["breaches"]:
            print(f"repro-corpus: SLO breach: {name}", file=sys.stderr)
        if report["breaches"]:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
