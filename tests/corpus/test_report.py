"""Observability contract: corpus events reconcile against the
embedded IngestSummary, and corpus origins never pollute Table 1."""

from repro.corpus.cli import run_ingest
from repro.corpus.dedup import SeenStore
from repro.learning.cache import VerificationCache
from repro.obs.report import (
    aggregate,
    reconcile,
    render_report,
    table1_from_trace,
)
from repro.obs.trace import read_trace, tracing


def traced_records(tmp_path, programs=4):
    trace_path = tmp_path / "trace.jsonl"
    store = SeenStore.at_dir(tmp_path / "state")
    cache = VerificationCache.at_dir(tmp_path / "state" / "cache")
    with tracing(trace_path):
        summary = run_ingest(seed=11, programs=programs,
                             regions=("arith", "bitops"),
                             store=store, cache=cache)
    return summary, read_trace(trace_path)


def traced_run(tmp_path, programs=4):
    summary, records = traced_records(tmp_path, programs)
    return summary, aggregate(records)


class TestReconciliation:
    def test_traced_ingest_reconciles_exactly(self, tmp_path):
        summary, agg = traced_run(tmp_path)
        assert agg.corpus is not None
        mismatches = reconcile(agg)
        assert mismatches == []
        assert agg.corpus.counts() == summary.counts()

    def test_tampered_counts_detected(self, tmp_path):
        _, records = traced_records(tmp_path)
        for record in records:
            if record.name == "corpus.report":
                record.fields["counts"]["novel_rules"] += 1
        failures = reconcile(aggregate(records))
        assert any("novel_rules" in line for line in failures)

    def test_missing_summary_record_detected(self, tmp_path):
        _, records = traced_records(tmp_path)
        orphaned = [r for r in records if r.name != "corpus.report"]
        failures = reconcile(aggregate(orphaned))
        assert failures == ["corpus: no corpus.report record in trace"]

    def test_inactive_corpus_is_silent(self):
        agg = aggregate([])
        assert agg.corpus is None
        assert reconcile(agg) == []


class TestTableOne:
    def test_corpus_origins_excluded_from_table1(self, tmp_path):
        _, agg = traced_run(tmp_path)
        assert any(name.startswith("corpus:") for name in agg.learning)
        table = table1_from_trace(agg)
        assert not any(name.startswith("corpus:") for name in table)

    def test_render_rolls_corpus_into_its_own_section(self, tmp_path):
        summary, agg = traced_run(tmp_path)
        text = render_report(agg)
        assert "== corpus ingestion ==" in text
        assert "corpus origins:" in text
        assert f"{summary.fed} program(s)" in text
        # Per-origin learning rows are suppressed from the benchmark
        # table; no corpus: origin appears as a table row.
        table_section = text.split("== corpus ingestion ==")[0]
        assert "corpus:" not in table_section.replace(
            "corpus origins:", "")


class TestSummedReports:
    def test_learn_report_records_sum_per_benchmark(self, tmp_path):
        """LocalFeed emits one learn.report per style per origin; the
        aggregate must sum them, not keep the last."""
        summary, agg = traced_run(tmp_path, programs=2)
        origins = [name for name in agg.learning
                   if name.startswith("corpus:")]
        assert origins
        for name in origins:
            bench = agg.learning[name]
            # Two styles -> the summed report counts cover both, and
            # match the independently derived per-event tallies.
            assert bench.summary is not None
            assert bench.summary["total_sequences"] == \
                bench["total_sequences"]
