"""Aggregate a trace file into a human-readable report.

``python -m repro.obs.report trace.jsonl`` parses the JSON-lines trace
written by ``--trace`` (on ``repro-learn`` / ``repro-experiments``) and
prints:

* the learning-stage time breakdown and the full Table 1 counts,
  re-derived purely from per-candidate lifecycle events;
* per-engine DBT summaries — rule coverage (Figure 11's S_p/D_p), the
  rule-hit length distribution (Figure 12), rule-miss reasons ranked,
  and the top-N hottest blocks by attributed execution cycles;
* rule-service activity (gap reports, bundle publishes, syncs and
  hot-installs) when the trace covers a ``repro-serve`` deployment;
* a per-rule **profitability table** (cycles saved vs. lookup cost per
  rule digest, from ``dbt.rule_profile`` ledgers), flagging rules
  whose lookup cost exceeds their savings;
* a reconciliation section cross-checking the per-event aggregates
  against the ``LearningReport`` (``learn.report`` records) and
  ``DBTStats`` (``dbt.run`` records) accounting paths embedded in the
  same trace — plus, for service traces, the client's claimed sync
  installs against the engines' ``dbt.hot_install`` events, and the
  profitability ledgers against the per-translate rule-hit counters.
  The paths are computed independently, so agreement validates both;
  any discrepancy fails the CLI with exit code 1.

Several trace files aggregate together (``report a.jsonl b.jsonl``),
and ``--stitch`` additionally joins them onto one absolute timeline
using each file's trace-header epoch: a gap's ``service.gap_capture``
(client file), its ``service.gap_settled`` naming the published bundle
(server file), and the ``dbt.hot_install`` of that bundle (client
file) share one trace id, so the report can state end-to-end
gap-to-installed-rule latency percentiles for the whole deployment.

Files whose trace header announces an unknown semantics version are
rejected loudly — misreading re-versioned fields would silently
corrupt every figure this tool re-derives.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path

from repro.obs.trace import (
    TraceError,
    TraceRecord,
    check_trace_version,
    read_trace,
)

PREP_REASONS = ("CI", "PI", "MB")
PARAM_REASONS = ("Num", "Name", "FailG")
VERIFY_REASONS = ("Rg", "Mm", "Br", "Other", "TO", "EC")


@dataclass
class Scope:
    """One reconciliation scope: a benchmark's learning, one DBT
    engine, the rule service, or the corpus stream."""

    kind: str
    #: Counts re-derived from per-event records only, each named after
    #: the summary field it reconciles against.
    tallies: dict = field(default_factory=dict)
    #: Keyed maps the report renders: hit_lengths, miss_reasons,
    #: blocks (addr -> [exec count, exec cycles]), rule_profiles
    #: (digest -> last ledger), regions (-> [programs, fed, novel]),
    #: hot_installs (source -> [events, installed, invalidated]).
    maps: defaultdict = field(default_factory=lambda: defaultdict(dict))
    #: The embedded summary: learn.report / corpus.report records
    #: summed, the dbt.run lifetime last-wins.  None until one is seen.
    summary: dict | None = None
    #: Summary records seen (an engine's runs, the corpus's reports).
    reports: int = 0
    mode: str = ""

    def __getitem__(self, name: str):
        return self.tallies.get(name, 0)

    def add(self, **increments) -> None:
        for name, value in increments.items():
            self.tallies[name] = self.tallies.get(name, 0) + value

    def bump(self, name: str, key, count: int = 1) -> None:
        counts = self.maps[name]
        counts[key] = counts.get(key, 0) + count

    def fold_summary(self, payload: dict, last_wins: bool = False) -> None:
        self.reports += 1
        if last_wins or self.summary is None:
            self.summary = dict(payload)
        else:
            for name, value in payload.items():
                self.summary[name] = self.summary.get(name, 0) + value

    def counts(self) -> dict:
        """Derived tallies for every field the check table reconciles
        in this scope, in table order (``LearningReport`` /
        ``IngestSummary`` / ``DBTStats`` field names)."""
        return {derived: self[derived]
                for kind, derived, *_ in CHECKS if kind == self.kind}


# -- the fold table ------------------------------------------------------------


def _fold_verdict(s: Scope, f: dict) -> None:
    source, calls = f["source"], f.get("calls", 0)
    # Journal replays are resumed live work: counting them as live
    # keeps a resumed run's counts identical to the uninterrupted run.
    s.add(verify_calls=calls if source in ("live", "journal") else 0,
          dedup_saved_calls=calls if source == "memo" else 0,
          cache_hits=int(source == "cache"),
          cache_misses=int(bool(f.get("cache_miss"))))
    if f["result"] != "rule":
        s.add(**{"verify_" + (f.get("reason") or "Other").lower(): 1})


def _fold_translate(s: Scope, f: dict) -> None:
    s.mode = f.get("mode", s.mode)
    lengths = f.get("hit_lengths", ())
    s.add(translated_blocks=1,
          static_guest_instructions=f.get("guest_len", 0),
          static_rule_guest_instructions=f.get("covered", 0),
          translation_cycles=f.get("cost", 0.0),
          hits=len(lengths), guest_covered=sum(lengths))
    for length in lengths:
        s.bump("hit_lengths", length)
    for reason, count in f.get("miss_reasons", {}).items():
        s.bump("miss_reasons", reason, count)


def _fold_block(s: Scope, f: dict) -> None:
    # Products are taken per event, not from one stored length: a
    # guard retranslation can replace a block at the same address
    # with different coverage mid-run.
    count, cycles = f.get("exec_count", 0), f.get("exec_cycles", 0.0)
    s.add(dispatches=count, exec_cycles=cycles,
          dynamic_guest_instructions=count * f.get("guest_len", 0),
          dynamic_rule_guest_instructions=count * f.get("covered", 0))
    block = s.maps["blocks"].setdefault(f["addr"], [0, 0.0])
    block[0] += count
    block[1] += cycles


def _fold_run(s: Scope, f: dict) -> None:
    s.mode = f.get("mode", s.mode)
    s.fold_summary(f.get("lifetime", {}), last_wins=True)


def _fold_profile(s: Scope, f: dict) -> None:
    # Lifetime-cumulative ledger snapshots: the last one wins.
    s.maps["rule_profiles"][f.get("digest", "")] = f


def _fold_hot_install(s: Scope, f: dict) -> None:
    entry = s.maps["hot_installs"].setdefault(
        f.get("source", "direct"), [0, 0, 0]
    )
    entry[0] += 1
    entry[1] += f.get("installed", 0)
    entry[2] += f.get("invalidated", 0)


def _fold_program(s: Scope, f: dict) -> None:
    verdict = f.get("verdict", "")
    s.add(programs=1, skipped_dup=int(verdict == "dup_program"),
          skipped_settled=int(verdict == "all_settled"))
    s.maps["regions"].setdefault(f.get("region", ""), [0, 0, 0])[0] += 1


def _fold_fed(s: Scope, f: dict) -> None:
    novel = f.get("novel", 0)
    s.add(fed=1, rules=f.get("rules", 0), novel_rules=novel,
          published=f.get("published", 0),
          verify_calls=f.get("verify_calls", 0))
    region = s.maps["regions"].setdefault(f.get("region", ""), [0, 0, 0])
    region[1] += 1
    region[2] += novel


def _fold_sync(s: Scope, f: dict) -> None:
    s.add(syncs=1, cold_syncs=int(bool(f.get("cold"))),
          bundles=f.get("bundles", 0),
          rules_fetched=f.get("rules_fetched", 0),
          rules_installed=f.get("rules_installed", 0),
          blocks_invalidated=f.get("blocks_invalidated", 0))
    s.tallies["generation"] = max(s["generation"], f.get("generation", 0))


def _fold_publish(s: Scope, f: dict) -> None:
    s.add(publishes=1, publish_rules=f.get("rules", 0),
          publish_candidates=f.get("candidates", 0),
          publish_verify_calls=f.get("verify_calls", 0))
    s.tallies["generation"] = max(s["generation"], f.get("generation", 0))


#: scope kind -> (key field, default key); None = one scope per trace.
SCOPE_KEYS = {"bench": ("benchmark", ""), "engine": ("engine", 0),
              "service": None, "corpus": None}

#: event name -> (scope kind, fold(scope, fields)).  The only place a
#: trace event turns into a tally; summary records fold into
#: ``Scope.summary`` and never into a tally.
FOLD = {
    "learn.pair": ("bench", lambda s, f: s.add(total_sequences=1)),
    "learn.empty": ("bench", lambda s, f: s.add(
        total_sequences=f.get("count", 1))),
    "learn.prep_fail": ("bench", lambda s, f: s.add(**{
        "total_sequences": f.get("count", 1),
        "prep_" + f["reason"].lower(): f.get("count", 1)})),
    "learn.param_fail": ("bench", lambda s, f: s.add(
        **{"param_" + f["reason"].lower(): 1})),
    "learn.verdict": ("bench", _fold_verdict),
    "learn.rule": ("bench", lambda s, f: s.add(rules=1)),
    "learn.report": ("bench", lambda s, f: s.fold_summary(
        f.get("counts") or {})),
    "dbt.translate": ("engine", _fold_translate),
    "dbt.block": ("engine", _fold_block),
    "dbt.run": ("engine", _fold_run),
    "dbt.rule_profile": ("engine", _fold_profile),
    "dbt.hot_install": ("service", _fold_hot_install),
    "service.gap_report": ("service", lambda s, f: s.add(
        gap_reports=1, gaps_uploaded=f.get("gaps", 0),
        gaps_new=f.get("new", 0))),
    "service.publish": ("service", _fold_publish),
    "service.sync_result": ("service", _fold_sync),
    "corpus.program": ("corpus", _fold_program),
    "corpus.fed": ("corpus", _fold_fed),
    "corpus.unsound": ("corpus", lambda s, f: s.add(unsound=1)),
    "corpus.report": ("corpus", lambda s, f: s.fold_summary(dict(
        f.get("counts") or {},
        elapsed_seconds=f.get("elapsed_seconds", 0.0)))),
}


@dataclass
class TraceAggregate:
    #: scope kind -> scope key -> Scope
    scopes: dict = field(
        default_factory=lambda: {kind: {} for kind in SCOPE_KEYS}
    )
    #: (span name, benchmark) -> summed seconds
    spans: dict = field(default_factory=dict)
    records: int = 0

    @property
    def learning(self) -> dict:
        return self.scopes["bench"]

    @property
    def engines(self) -> dict:
        return self.scopes["engine"]

    @property
    def service(self) -> Scope | None:
        return self.scopes["service"].get(None)

    @property
    def corpus(self) -> Scope | None:
        return self.scopes["corpus"].get(None)

    def scope(self, kind: str, fields: dict) -> Scope:
        keyed = SCOPE_KEYS[kind]
        key = fields.get(*keyed) if keyed else None
        scopes = self.scopes[kind]
        if key not in scopes:
            scopes[key] = Scope(kind)
        return scopes[key]


def aggregate(records: list[TraceRecord]) -> TraceAggregate:
    """Fold a trace into per-benchmark / per-engine / service / corpus
    scopes, one :data:`FOLD` entry per event."""
    agg = TraceAggregate()
    for record in records:
        agg.records += 1
        fields = record.fields
        if record.kind == "end" and "seconds" in fields:
            key = (record.name, fields.get("benchmark", ""))
            agg.spans[key] = agg.spans.get(key, 0.0) + fields["seconds"]
        elif record.name in FOLD:
            kind, fold = FOLD[record.name]
            fold(agg.scope(kind, fields), fields)
    return agg


# -- the check table -----------------------------------------------------------


def _close(derived: float, expected: float) -> bool:
    return abs(derived - expected) <= \
        1e-9 * max(abs(derived), abs(expected), 1.0)


#: comparison -> (holds(derived, expected), value of an absent field)
COMPARISONS = {"==": (operator.eq, None), "~=": (_close, 0.0),
               ">=": (operator.ge, 0)}

_REPORT = "{key}: {derived} derived {d} != report {e}"
_RUN = "engine {key}: {derived} derived {d} != run record {e}"
_SYNC = ("service: sync_result {derived} {d} != hot_install(source=sync) "
         "{expected} {e}")

#: (check kind, derived tally, expected summary field, comparison,
#: mismatch message) — the only list of reconciled fields.  Kinds run
#: in table order: learn.report, dbt.run lifetime, rule-profile
#: ledgers vs translate hits, sync claims vs engine hot-installs,
#: corpus.report.
CHECKS = tuple(
    ("bench", name, name, "==", _REPORT) for name in (
        "total_sequences prep_ci prep_pi prep_mb param_num param_name "
        "param_failg verify_rg verify_mm verify_br verify_other rules "
        "verify_calls dedup_saved_calls cache_hits cache_misses "
        "verify_to verify_ec").split()
) + tuple(
    ("engine", name, name, "==", _RUN) for name in (
        "translated_blocks static_guest_instructions "
        "static_rule_guest_instructions dynamic_guest_instructions "
        "dynamic_rule_guest_instructions dispatches").split()
) + (
    ("engine", "exec_cycles", "exec_cycles", "~=", _RUN),
    ("engine", "translation_cycles", "translation_cycles", "~=", _RUN),
    ("profile", "hits", "hits", "==", "engine {key}: rule_profile hits "
     "{e} != translate hit_lengths total {d}"),
    ("profile", "guest_covered", "guest_covered", "==",
     "engine {key}: rule_profile guest_covered {e} != translate "
     "hit_lengths coverage {d}"),
    ("service", "rules_installed", "installed", "==", _SYNC),
    ("service", "blocks_invalidated", "invalidated", "==", _SYNC),
    ("service", "bundles", "installs", ">=",
     "service: {e} sync hot-installs but only {d} bundles installed "
     "by sync_results"),
) + tuple(
    ("corpus", name, name, "==", _REPORT.replace("{key}", "corpus"))
    for name in (
        "programs fed skipped_dup skipped_settled unsound rules "
        "novel_rules published verify_calls").split()
)

#: check kind -> message when a scope has no embedded summary.
_MISSING = {
    "bench": "{key}: no learn.report record in trace",
    "engine": "engine {key}: no dbt.run record",
    "corpus": "corpus: no corpus.report record in trace",
}


def _expected(kind: str, scope: Scope) -> dict | None:
    """What a scope's derived tallies are checked against."""
    if kind == "profile":
        # The per-rule ledgers (filled in the engine's _translate_miss)
        # count every translate-time instantiation the translate events
        # do.
        profiles = scope.maps["rule_profiles"].values()
        return {name: sum(p.get(name, 0) for p in profiles)
                for name in ("hits", "guest_covered")} if profiles else None
    if kind == "service":
        # The engines' own hot-install events for rules synced in.
        return dict(zip(("installs", "installed", "invalidated"),
                        scope.maps["hot_installs"].get("sync", (0, 0, 0))))
    return scope.summary


def reconcile(agg: TraceAggregate) -> list[str]:
    """Walk :data:`CHECKS` over every scope: the per-event tallies
    against the independently computed summaries embedded in the same
    trace.  Returns discrepancy descriptions (empty = every accounting
    path agrees)."""
    problems = []
    for kind, rows in groupby(CHECKS, key=lambda row: row[0]):
        rows = list(rows)
        scopes = agg.scopes["engine" if kind == "profile" else kind]
        for key, scope in sorted(scopes.items()):
            expected = _expected(kind, scope)
            if expected is None:
                if kind in _MISSING and (
                        kind != "engine" or scope["translated_blocks"]):
                    problems.append(_MISSING[kind].format(key=key))
                continue
            for _, derived, name, comparison, message in rows:
                holds, absent = COMPARISONS[comparison]
                d, e = scope[derived], expected.get(name, absent)
                if comparison == "~=":
                    d = float(d)
                if not holds(d, e):
                    problems.append(message.format(
                        key=key, derived=derived, expected=name, d=d, e=e
                    ))
    return problems


# -- figure derivations --------------------------------------------------------


def _coverage(e: Scope) -> tuple[float, float]:
    """(S_p, D_p): rule-covered share of static / dynamic guest
    instructions."""
    static, dynamic = (e["static_guest_instructions"],
                       e["dynamic_guest_instructions"])
    return (e["static_rule_guest_instructions"] / static if static else 0.0,
            e["dynamic_rule_guest_instructions"] / dynamic
            if dynamic else 0.0)


def _profitability(e: Scope) -> list[dict]:
    """Per-rule ledgers, most profitable first (the engine's own
    ``rule_profitability()`` ordering: net cycles desc, digest)."""
    return sorted(
        e.maps["rule_profiles"].values(),
        key=lambda p: (-p.get("net_cycles", 0.0), p.get("digest", "")),
    )


def _elapsed(c: Scope) -> float:
    """Ingest seconds summed over the corpus.report records."""
    return (c.summary or {}).get("elapsed_seconds", 0.0)


def table1_from_trace(agg: TraceAggregate) -> dict[str, dict]:
    """Table 1 counts per benchmark, from the trace alone.

    Corpus-fed programs (``corpus:<digest>`` origins) are excluded —
    they are fuzzed streams, not the paper's benchmark rows; their
    learning activity rolls up in the corpus section instead."""
    return {
        name: b.counts() for name, b in sorted(agg.learning.items())
        if not name.startswith("corpus:")
    }


def coverage_from_trace(agg: TraceAggregate) -> dict[int, tuple]:
    """Figure 11's (S_p, D_p) per rules-mode engine, from the trace
    alone."""
    return {
        key: _coverage(e) for key, e in sorted(agg.engines.items())
        if e.mode == "rules"
    }


def hit_lengths_from_trace(agg: TraceAggregate) -> dict[int, dict]:
    """Figure 12's rule-hit length histogram per rules-mode engine."""
    return {
        key: dict(sorted(e.maps["hit_lengths"].items()))
        for key, e in sorted(agg.engines.items())
        if e.mode == "rules"
    }


def profitability_from_trace(agg: TraceAggregate) -> dict[int, list]:
    """Per-rule profitability ledgers per engine, net cycles desc."""
    return {
        key: _profitability(e)
        for key, e in sorted(agg.engines.items())
        if e.maps["rule_profiles"]
    }


# -- multi-file stitching ------------------------------------------------------


@dataclass
class GapJourney:
    """One gap's life across processes, on the absolute timeline.

    Joined by trace id: the client's ``service.gap_capture`` roots the
    trace, the server's ``service.gap_settled`` names the bundle the
    covering rules published into, and the client's ``dbt.hot_install``
    of that bundle digest completes the journey."""

    trace_id: str
    digest: str
    captured_at: float
    settled_at: float | None = None
    bundle: str | None = None
    installed_at: float | None = None

    @property
    def latency(self) -> float | None:
        """Capture-to-hot-install seconds; None while incomplete."""
        if self.installed_at is None:
            return None
        return self.installed_at - self.captured_at


@dataclass
class StitchResult:
    """Several trace files joined onto one wall-clock timeline."""

    #: (source, header epoch, record count) per input file.
    files: list = field(default_factory=list)
    #: Every captured gap, ordered by capture time.
    journeys: list = field(default_factory=list)

    @property
    def completed(self) -> list:
        return [j for j in self.journeys if j.latency is not None]

    def latency_sketch(self):
        """The end-to-end latencies (ms) as a bounded-error quantile
        sketch — the mergeable form the SLO engine's convergence
        objective (``stitch:gap_install``) evaluates."""
        from repro.obs.sketch import QuantileSketch

        sketch = QuantileSketch()
        for journey in self.completed:
            sketch.observe(journey.latency * 1000.0)
        return sketch

    def latency_summary(self) -> dict:
        """count / p50 / p95 / p99 / max of end-to-end latency (ms).

        Quantiles come from the sketch (so they match what the SLO
        engine evaluates, within the declared ``relative_error``);
        count and max stay exact.
        """
        latencies = [j.latency * 1000.0 for j in self.completed]
        if not latencies:
            return {"count": 0}
        sketch = self.latency_sketch()
        summary = {"count": len(latencies)}
        summary.update(
            {k: round(v, 3) for k, v in sketch.quantiles().items()}
        )
        summary["max"] = round(max(latencies), 3)
        summary["relative_error"] = sketch.relative_error
        return summary

    def to_json(self) -> dict:
        return {
            "files": [
                {"source": source, "epoch": epoch, "records": count}
                for source, epoch, count in self.files
            ],
            "gaps": {
                "captured": len(self.journeys),
                "settled": sum(
                    1 for j in self.journeys if j.settled_at is not None
                ),
                "installed": len(self.completed),
            },
            "latency_ms": self.latency_summary(),
        }


def stitch(sources: list[tuple[str, list[TraceRecord]]]) -> StitchResult:
    """Join trace files onto one absolute timeline by header epoch.

    Each file's ``trace.header`` records the wall-clock epoch of its
    tracer's monotonic zero, so ``epoch + record.ts`` places every
    record — from any process — on one comparable axis.  Gap journeys
    are then joined by trace id (capture -> settled) and bundle digest
    (settled -> hot-install); the install matched is the earliest one
    of that bundle at or after the capture.
    """
    result = StitchResult()
    captures: dict[str, GapJourney] = {}
    settles: dict[str, tuple] = {}
    installs: list[tuple] = []
    for source, records in sources:
        header = check_trace_version(records, source=source)
        if header is None or "epoch" not in header.fields:
            raise TraceError(
                f"{source}: no trace-header epoch — written by a "
                "pre-header tracer? --stitch needs wall-clock anchors"
            )
        epoch = float(header.fields["epoch"])
        result.files.append((source, epoch, len(records)))
        for record in records:
            abs_ts = epoch + record.ts
            name = record.name
            if name == "service.gap_capture" and record.trace_id:
                captures.setdefault(
                    record.trace_id,
                    GapJourney(
                        trace_id=record.trace_id,
                        digest=record.fields.get("digest", ""),
                        captured_at=abs_ts,
                    ),
                )
            elif name == "service.gap_settled" and record.trace_id:
                settles[record.trace_id] = \
                    (record.fields.get("bundle"), abs_ts)
            elif name == "dbt.hot_install" \
                    and record.fields.get("digest"):
                installs.append((record.fields["digest"], abs_ts))
    installs.sort(key=lambda item: item[1])
    for trace_id, journey in captures.items():
        settled = settles.get(trace_id)
        if settled is not None:
            journey.bundle, journey.settled_at = settled
            if journey.bundle:
                for digest, abs_ts in installs:
                    if digest == journey.bundle \
                            and abs_ts >= journey.captured_at:
                        journey.installed_at = abs_ts
                        break
        result.journeys.append(journey)
    result.journeys.sort(key=lambda j: j.captured_at)
    return result


def reconcile_stitch_quantiles(result: StitchResult) -> list[str]:
    """Cross-check the sketch-derived latency percentiles against the
    exact nearest-rank quantiles of the raw journey latencies.

    The sketch declares a relative-error bound; every reported
    quantile must honour it against the ground-truth trace events, or
    the summary (and anything the SLO engine concluded from it) is
    lying.  Returns discrepancy descriptions (empty = within bound).
    """
    import math as _math

    latencies = sorted(j.latency * 1000.0 for j in result.completed)
    if not latencies:
        return []
    summary = result.latency_summary()
    alpha = summary["relative_error"]
    problems = []
    for q in (0.50, 0.95, 0.99):
        rank = max(1, _math.ceil(q * len(latencies)))
        exact = latencies[rank - 1]
        estimated = summary[f"p{round(q * 100)}"]
        # round(…, 3) in the summary adds up to 0.5us on top.
        if abs(estimated - exact) > alpha * exact + 5e-4:
            problems.append(
                f"stitch p{round(q * 100)}: sketch {estimated:.3f}ms "
                f"vs exact {exact:.3f}ms exceeds the declared "
                f"{alpha:.0%} relative-error bound"
            )
    return problems


def render_stitch(result: StitchResult) -> str:
    lines = [f"== stitched timeline ({len(result.files)} files) =="]
    for source, epoch, count in result.files:
        lines.append(f"  {source}: {count} records, epoch {epoch:.3f}")
    journeys = result.journeys
    settled = sum(1 for j in journeys if j.settled_at is not None)
    lines.append(
        f"gaps: {len(journeys)} captured, {settled} settled, "
        f"{len(result.completed)} hot-installed"
    )
    summary = result.latency_summary()
    if summary["count"]:
        lines.append(
            "gap-report -> hot-install latency: "
            f"count {summary['count']}, p50 {summary['p50']:.1f}ms, "
            f"p95 {summary['p95']:.1f}ms, max {summary['max']:.1f}ms"
        )
    else:
        lines.append(
            "gap-report -> hot-install latency: no completed journeys"
        )
    return "\n".join(lines)


# -- rendering -----------------------------------------------------------------


def _stage_breakdown(agg: TraceAggregate, benchmark: str) -> str:
    parts = []
    for stage in ("learn.extract", "learn.paramize", "learn.verify"):
        seconds = agg.spans.get((stage, benchmark))
        if seconds is not None:
            parts.append(f"{stage.split('.')[1]} {seconds:.3f}s")
    return ", ".join(parts)


def render_report(agg: TraceAggregate, top: int = 10) -> str:
    lines = [f"trace: {agg.records} records"]

    benchmarks = {name: b for name, b in agg.learning.items()
                  if not name.startswith("corpus:")}
    corpus_origins = {name: b for name, b in agg.learning.items()
                      if name.startswith("corpus:")}
    if benchmarks:
        lines.append("")
        lines.append("== learning (derived from per-candidate events) ==")
        for name, b in sorted(benchmarks.items()):
            counts = b.counts()
            lines.append(
                f"{name or '(unnamed)'}: {counts['total_sequences']} seq "
                f"-> {counts['rules']} rules; "
                f"verify calls {counts['verify_calls']} "
                f"(deduped {counts['dedup_saved_calls']}, "
                f"cache {counts['cache_hits']} hit"
                f"/{counts['cache_misses']} miss)"
            )
            fails = [
                f"{code}={b[stage + code.lower()]}"
                for stage, codes in (("prep_", PREP_REASONS),
                                     ("param_", PARAM_REASONS),
                                     ("verify_", VERIFY_REASONS))
                for code in codes
            ]
            lines.append(f"  failures: {' '.join(fails)}")
            stages = _stage_breakdown(agg, name)
            if stages:
                lines.append(f"  stages: {stages}")
        pool = agg.spans.get(("learn.pool", ""))
        if pool is not None:
            lines.append(f"(parallel pool: {pool:.3f}s)")
    if corpus_origins:
        rolled_rules = sum(b["rules"] for b in corpus_origins.values())
        rolled_calls = sum(
            b["verify_calls"] for b in corpus_origins.values()
        )
        if not benchmarks:
            lines.append("")
            lines.append(
                "== learning (derived from per-candidate events) =="
            )
        lines.append(
            f"corpus origins: {len(corpus_origins)} program(s) -> "
            f"{rolled_rules} rules, {rolled_calls} verify calls "
            "(per-origin detail suppressed; see corpus section)"
        )

    for key, e in sorted(agg.engines.items()):
        lines.append("")
        lines.append(
            f"== dbt engine {key} ({e.mode or 'unknown'} mode, "
            f"{e.reports} run{'s' if e.reports != 1 else ''}) =="
        )
        lines.append(
            f"translated {e['translated_blocks']} blocks "
            f"({e['static_guest_instructions']} guest instrs), "
            f"{e['dispatches']} dispatches, "
            f"{e['exec_cycles']:.0f} exec cycles, "
            f"{e['translation_cycles']:.0f} translation cycles"
        )
        if e.mode == "rules":
            static, dynamic = _coverage(e)
            lines.append(
                f"coverage: static {static:.1%}, dynamic {dynamic:.1%}"
            )
            if e.maps["hit_lengths"]:
                dist = ", ".join(
                    f"len {length}: {count}" for length, count
                    in sorted(e.maps["hit_lengths"].items())
                )
                lines.append(f"rule hits by length: {dist}")
            misses = sorted(e.maps["miss_reasons"].items(),
                            key=lambda kv: kv[1], reverse=True)
            if misses:
                ranked = ", ".join(
                    f"{reason} x{count}" for reason, count in misses
                )
                lines.append(f"rule-miss reasons (ranked): {ranked}")
        profiles = _profitability(e)
        if profiles:
            shown = profiles if len(profiles) <= 2 * top else \
                profiles[:top] + profiles[-top:]
            lines.append(
                f"rule profitability ({len(profiles)} rules, "
                f"net cycles = saved - lookup cost):"
            )
            lines.append(
                "  digest            hits  exec      saved     lookup"
                "        net"
            )
            for i, p in enumerate(shown):
                if len(shown) < len(profiles) and i == top:
                    lines.append("  ...")
                flag = "" if p.get("profitable") else "  UNPROFITABLE"
                lines.append(
                    f"  {p.get('digest', '?'):<16s}  "
                    f"{p.get('hits', 0):<4d}  "
                    f"{p.get('exec_hits', 0):<6d}  "
                    f"{p.get('cycles_saved', 0.0):9.0f}  "
                    f"{p.get('lookup_cost', 0.0):9.0f}  "
                    f"{p.get('net_cycles', 0.0):9.0f}{flag}"
                )
            unprofitable = [p for p in profiles
                            if not p.get("profitable")]
            if unprofitable:
                lines.append(
                    f"  {len(unprofitable)} rule(s) cost more to look "
                    "up than they save"
                )
        hot = sorted(e.maps["blocks"].items(), key=lambda kv: kv[1][1],
                     reverse=True)[:top]
        if hot:
            total = e["exec_cycles"] or 1.0
            lines.append(f"hottest blocks (top {len(hot)}):")
            for addr, (count, cycles) in hot:
                lines.append(
                    f"  {addr:#08x}  {cycles:12.0f} cycles  "
                    f"x{count:<8d} {cycles / total:6.1%}"
                )

    c = agg.corpus
    if c is not None:
        elapsed = _elapsed(c)
        lines.append("")
        lines.append("== corpus ingestion ==")
        lines.append(
            f"programs: {c['programs']} ({c['fed']} fed, "
            f"{c['skipped_dup']} duplicate, "
            f"{c['skipped_settled']} settled, {c['unsound']} unsound)"
        )
        lines.append(
            f"yield: {c['rules']} rules ({c['novel_rules']} novel, "
            f"{c['published']} published), "
            f"{c['verify_calls']} verify calls"
            + (f", {elapsed:.1f}s ingest time" if elapsed else "")
        )
        if c.maps["regions"]:
            ranked = sorted(
                c.maps["regions"].items(),
                key=lambda kv: (-kv[1][2], -kv[1][1], kv[0]),
            )
            lines.append("regions (fed/programs, novel rules):")
            for region, (programs, fed, novel) in ranked:
                lines.append(
                    f"  {region or '(unnamed)':<10s} {fed}/{programs}"
                    f"  novel {novel}"
                )

    s = agg.service
    if s is not None:
        lines.append("")
        lines.append("== rule service ==")
        lines.append(
            f"gap reports: {s['gap_reports']} "
            f"({s['gaps_uploaded']} gaps uploaded, {s['gaps_new']} new)"
        )
        lines.append(
            f"publishes: {s['publishes']} bundle(s), "
            f"{s['publish_rules']} rule(s) from "
            f"{s['publish_candidates']} candidate(s) "
            f"({s['publish_verify_calls']} verify calls); "
            f"generation {s['generation']}"
        )
        lines.append(
            f"syncs: {s['syncs']} ({s['cold_syncs']} cold), "
            f"{s['bundles']} bundle(s), "
            f"{s['rules_installed']}/{s['rules_fetched']} "
            f"rules installed/fetched, "
            f"{s['blocks_invalidated']} block(s) invalidated"
        )
        for source, (events, installed, invalidated) in \
                sorted(s.maps["hot_installs"].items()):
            lines.append(
                f"hot-installs [{source}]: {events} event(s), "
                f"{installed} rule(s), {invalidated} block(s) "
                f"invalidated"
            )

    lines.append("")
    problems = reconcile(agg)
    if problems:
        lines.append("reconciliation: FAILED")
        for problem in problems:
            lines.append(f"  MISMATCH {problem}")
    else:
        checked = []
        if agg.learning:
            checked.append(
                f"{len(agg.learning)} benchmark(s) vs LearningReport"
            )
        if agg.engines:
            checked.append(f"{len(agg.engines)} engine(s) vs DBTStats")
        if any(e.maps["rule_profiles"] for e in agg.engines.values()):
            checked.append("rule profiles vs translate hits")
        if agg.service is not None:
            checked.append("service syncs vs hot-installs")
        if agg.corpus is not None:
            checked.append("corpus events vs IngestSummary")
        lines.append(
            "reconciliation: OK ("
            + (", ".join(checked) if checked else "nothing to check")
            + ")"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Aggregate a --trace file into a report and "
                    "cross-check it against the LearningReport/DBTStats "
                    "records embedded in the trace.",
    )
    parser.add_argument("trace", nargs="+",
                        help="JSON-lines trace file(s); several "
                             "aggregate together")
    parser.add_argument("--stitch", action="store_true",
                        help="join the files onto one wall-clock "
                             "timeline (via trace-header epochs) and "
                             "report end-to-end gap-to-hot-install "
                             "latency")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="hottest blocks to list per engine "
                             "(default: 10)")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable aggregates instead "
                             "of the text report")
    args = parser.parse_args(argv)

    try:
        sources = [
            (str(Path(path)), read_trace(path)) for path in args.trace
        ]
        for source, records in sources:
            check_trace_version(records, source=source)
        stitched = stitch(sources) if args.stitch else None
    except (TraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    agg = aggregate(
        [record for _, records in sources for record in records]
    )
    problems = reconcile(agg)
    if args.json:
        payload = {
            "records": agg.records,
            "table1": table1_from_trace(agg),
            "coverage": {
                str(key): list(value)
                for key, value in coverage_from_trace(agg).items()
            },
            "hit_lengths": {
                str(key): value
                for key, value in hit_lengths_from_trace(agg).items()
            },
            "profitability": {
                str(key): value
                for key, value in profitability_from_trace(agg).items()
            },
            "reconciliation": problems,
        }
        if agg.corpus is not None:
            payload["corpus"] = dict(
                agg.corpus.counts(),
                regions=agg.corpus.maps["regions"],
                elapsed_seconds=round(_elapsed(agg.corpus), 3),
            )
        if stitched is not None:
            payload["stitch"] = stitched.to_json()
        print(json.dumps(payload, indent=1))
    else:
        if stitched is not None:
            print(render_stitch(stitched))
            print()
        print(render_report(agg, top=args.top))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
