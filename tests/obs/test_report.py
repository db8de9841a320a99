"""Trace aggregation: the report layer must re-derive the exact
LearningReport / DBTStats numbers from lifecycle events alone."""

import io
import json

import pytest

from repro.corpus.cli import IngestSummary
from repro.dbt.engine import DBTEngine
from repro.learning import learn_rules
from repro.learning.pipeline import LearningReport
from repro.learning.store import RuleStore
from repro.minic import compile_source
from repro.obs.metrics import set_metrics
from repro.obs.report import (
    CHECKS,
    aggregate,
    coverage_from_trace,
    hit_lengths_from_trace,
    main,
    profitability_from_trace,
    reconcile,
    reconcile_stitch_quantiles,
    render_report,
    render_stitch,
    stitch,
    table1_from_trace,
)
from repro.obs.trace import (
    TRACE_HEADER_NAME,
    TRACE_SEMANTICS_VERSION,
    TraceError,
    TraceRecord,
    read_trace,
    tracing,
)

SOURCE = """
int data[16];
int process(int *p, int n) {
  int s = 0;
  int i = 0;
  while (i < n) {
    s = s + p[i] - 1;
    i += 1;
  }
  return s;
}
int main(void) {
  int i = 0;
  while (i < 16) {
    data[i] = i * 3;
    i += 1;
  }
  return process(data, 16);
}
"""


@pytest.fixture(scope="module")
def traced():
    """One traced learn + DBT session: the learning outcome, both
    engines, and the parsed trace."""
    guest = compile_source(SOURCE, "arm", 2, "llvm")
    host = compile_source(SOURCE, "x86", 2, "llvm")
    sink = io.StringIO()
    previous = set_metrics(None)
    try:
        with tracing(sink):
            outcome = learn_rules(guest, host, benchmark="unit")
            store = RuleStore.from_rules(outcome.rules)
            qemu = DBTEngine(guest, "qemu")
            qemu_result = qemu.run()
            rules = DBTEngine(guest, "rules", store)
            rules.run()
            rules.run()  # second run: lifetime must stay reconciled
    finally:
        set_metrics(previous)
    records = read_trace(io.StringIO(sink.getvalue()))
    return {
        "outcome": outcome,
        "qemu": qemu,
        "qemu_result": qemu_result,
        "rules": rules,
        "records": records,
        "agg": aggregate(records),
    }


def _copy(records):
    return [
        type(r)(ts=r.ts, kind=r.kind, name=r.name,
                fields=json.loads(json.dumps(r.fields)))
        for r in records
    ]


class TestLearningAggregation:
    def test_count_signature_matches_report_exactly(self, traced):
        derived = traced["agg"].learning["unit"]
        assert ("unit",) + tuple(derived.counts().values()) == \
            traced["outcome"].report.count_signature()

    def test_table1_counts_from_trace(self, traced):
        report = traced["outcome"].report
        counts = table1_from_trace(traced["agg"])["unit"]
        assert counts["total_sequences"] == report.total_sequences
        assert counts["rules"] == report.rules == \
            len(traced["outcome"].rules)
        assert counts["verify_calls"] == report.verify_calls

    def test_stage_spans_recorded(self, traced):
        spans = traced["agg"].spans
        for stage in ("learn.extract", "learn.paramize", "learn.verify"):
            assert spans[(stage, "unit")] >= 0

    def test_embedded_report_record_present(self, traced):
        derived = traced["agg"].learning["unit"]
        report = traced["outcome"].report
        assert derived.summary == {
            name: getattr(report, name) for name in report._COUNT_FIELDS
        }


class TestEngineAggregation:
    def test_qemu_engine_matches_stats(self, traced):
        engine = traced["qemu"]
        derived = traced["agg"].engines[engine.engine_id]
        stats = traced["qemu_result"].stats
        assert derived.mode == "qemu"
        assert derived["translated_blocks"] == stats.translated_blocks
        assert derived["static_guest_instructions"] == \
            stats.static_guest_instructions
        assert derived["dispatches"] == stats.perf.dispatches
        assert derived["dynamic_guest_instructions"] == \
            stats.dynamic_guest_instructions
        assert derived["exec_cycles"] == pytest.approx(
            stats.perf.exec_cycles
        )

    def test_rules_engine_sums_over_runs(self, traced):
        engine = traced["rules"]
        derived = traced["agg"].engines[engine.engine_id]
        assert derived.reports == 2
        assert derived["dispatches"] == engine.lifetime.perf.dispatches
        assert derived["dynamic_guest_instructions"] == \
            engine.lifetime.dynamic_guest_instructions

    def test_coverage_from_trace_matches_dbtstats(self, traced):
        engine = traced["rules"]
        coverage = coverage_from_trace(traced["agg"])
        assert set(coverage) == {engine.engine_id}
        s_p, d_p = coverage[engine.engine_id]
        assert s_p == pytest.approx(engine.stats.static_coverage)
        assert d_p == pytest.approx(engine.stats.dynamic_coverage)
        assert 0 < s_p <= 1
        assert 0 < d_p <= 1

    def test_hit_lengths_from_trace_matches_dbtstats(self, traced):
        engine = traced["rules"]
        lengths = hit_lengths_from_trace(traced["agg"])
        assert lengths[engine.engine_id] == engine.stats.hit_rule_lengths
        assert lengths[engine.engine_id]  # rules actually hit

    def test_miss_reasons_match_dbtstats(self, traced):
        engine = traced["rules"]
        derived = traced["agg"].engines[engine.engine_id]
        assert derived.maps["miss_reasons"] == \
            engine.stats.rule_miss_reasons
        (line,) = [line for line in render_report(traced["agg"]).splitlines()
                   if line.startswith("rule-miss reasons (ranked): ")]
        counts = [int(item.rsplit(" x", 1)[1])
                  for item in line.split(": ", 1)[1].split(", ")]
        assert counts == sorted(counts, reverse=True)
        assert sum(counts) == sum(engine.stats.rule_miss_reasons.values())

    def test_hottest_blocks_ranked_by_cycles(self, traced):
        engine = traced["qemu"]
        derived = traced["agg"].engines[engine.engine_id]
        section = render_report(traced["agg"], top=3).split(
            f"== dbt engine {engine.engine_id} ")[1]
        rows = section.split("hottest blocks (top 3):\n")[1].splitlines()
        blocks = derived.maps["blocks"]
        hot = [blocks[int(row.split()[0], 16)] for row in rows[:3]]
        assert len(hot) == 3
        cycles = [row[1] for row in hot]
        assert cycles == sorted(cycles, reverse=True)
        assert cycles[0] == max(row[1] for row in blocks.values())
        shares = [c / derived["exec_cycles"] for c in cycles]
        assert all(0 < share <= 1 for share in shares)
        assert sum(shares) <= 1 + 1e-9


class TestProfitabilityReport:
    def test_aggregated_ledgers_match_engine(self, traced):
        engine = traced["rules"]
        derived = traced["agg"].engines[engine.engine_id]
        ledgers = {p.digest: p for p in engine.rule_profitability()}
        assert set(derived.maps["rule_profiles"]) == set(ledgers)
        for digest, fields in derived.maps["rule_profiles"].items():
            ledger = ledgers[digest]
            assert fields["hits"] == ledger.hits
            assert fields["exec_hits"] == ledger.exec_hits
            assert fields["net_cycles"] == \
                pytest.approx(ledger.net_cycles)
            assert fields["profitable"] == ledger.profitable

    def test_profitability_sorted_net_desc(self, traced):
        engine = traced["rules"]
        table = profitability_from_trace(traced["agg"])
        rows = table[engine.engine_id]
        assert rows  # rules actually hit, so ledgers exist
        nets = [row["net_cycles"] for row in rows]
        assert nets == sorted(nets, reverse=True)
        assert [row["digest"] for row in rows] == \
            [p.digest for p in engine.rule_profitability()]

    def test_render_includes_profitability_table(self, traced):
        engine = traced["rules"]
        text = render_report(traced["agg"])
        assert "rule profitability" in text
        for profile in engine.rule_profitability():
            assert profile.digest in text

    def test_tampered_profile_hits_are_caught(self, traced):
        records = _copy(traced["records"])
        for record in records:
            if record.name == "dbt.rule_profile":
                record.fields["hits"] += 1
        problems = reconcile(aggregate(records))
        assert any("rule_profile hits" in p for p in problems)

    def test_clean_profiles_reconcile(self, traced):
        assert not any("rule_profile" in p
                       for p in reconcile(traced["agg"]))


def _header(epoch: float) -> TraceRecord:
    return TraceRecord(
        ts=0.0, kind="event", name=TRACE_HEADER_NAME,
        fields={"version": TRACE_SEMANTICS_VERSION, "epoch": epoch,
                "pid": 1},
    )


def _gap_files():
    """Synthetic client + server traces for one gap's journey.

    Client clock starts at epoch 100.0, server at 100.2; the gap is
    captured at abs 100.5, settled server-side at abs 102.0 naming
    bundle b1, and the client hot-installs b1 at abs 102.5 — an
    end-to-end latency of exactly 2.0 seconds.
    """
    client = [
        _header(100.0),
        TraceRecord(ts=0.5, kind="event", name="service.gap_capture",
                    fields={"digest": "g1", "length": 3},
                    trace_id="t1", span_id="s1"),
        TraceRecord(ts=2.5, kind="event", name="dbt.hot_install",
                    fields={"source": "direct", "digest": "b1",
                            "installed": 2, "invalidated": 0}),
    ]
    server = [
        _header(100.2),
        TraceRecord(ts=0.8, kind="event", name="service.gap_received",
                    fields={"digest": "g1"},
                    trace_id="t1", span_id="s2"),
        TraceRecord(ts=1.8, kind="event", name="service.gap_settled",
                    fields={"digest": "g1", "bundle": "b1",
                            "rules": 2},
                    trace_id="t1", span_id="s3"),
    ]
    return client, server


class TestStitch:
    def test_joins_capture_settle_install_across_files(self):
        client, server = _gap_files()
        result = stitch([("client.jsonl", client),
                         ("server.jsonl", server)])
        (journey,) = result.journeys
        assert journey.trace_id == "t1"
        assert journey.digest == "g1"
        assert journey.bundle == "b1"
        assert journey.captured_at == pytest.approx(100.5)
        assert journey.settled_at == pytest.approx(102.0)
        assert journey.installed_at == pytest.approx(102.5)
        assert journey.latency == pytest.approx(2.0)

    def test_latency_summary_percentiles(self):
        client, server = _gap_files()
        result = stitch([("client.jsonl", client),
                         ("server.jsonl", server)])
        summary = result.latency_summary()
        assert summary["count"] == 1
        # Quantiles come from the sketch: exact within its declared
        # relative-error bound; max stays exact.
        alpha = summary["relative_error"]
        assert summary["p50"] == pytest.approx(2000.0, rel=alpha)
        assert summary["p95"] == pytest.approx(2000.0, rel=alpha)
        assert summary["max"] == pytest.approx(2000.0)

    def test_latency_sketch_feeds_slo_source(self):
        client, server = _gap_files()
        result = stitch([("client.jsonl", client),
                         ("server.jsonl", server)])
        sketch = result.latency_sketch()
        assert sketch.count == 1
        assert sketch.quantile(0.99) == pytest.approx(
            2000.0, rel=sketch.relative_error
        )

    def test_sketch_percentiles_reconcile_with_raw_events(self):
        client, server = _gap_files()
        result = stitch([("client.jsonl", client),
                         ("server.jsonl", server)])
        assert reconcile_stitch_quantiles(result) == []
        # And with no completed journeys there is nothing to check.
        empty = stitch([("client.jsonl", [_header(100.0)])])
        assert reconcile_stitch_quantiles(empty) == []

    def test_unsettled_gap_stays_incomplete(self):
        client, _ = _gap_files()
        result = stitch([("client.jsonl", client)])
        (journey,) = result.journeys
        assert journey.settled_at is None
        assert journey.latency is None
        assert result.latency_summary() == {"count": 0}
        assert "no completed journeys" in render_stitch(result)

    def test_install_before_capture_not_matched(self):
        client, server = _gap_files()
        # Move the hot-install before the capture: a pre-existing
        # bundle with the same digest must not complete the journey.
        client[2] = TraceRecord(
            ts=0.1, kind="event", name="dbt.hot_install",
            fields={"source": "direct", "digest": "b1",
                    "installed": 2, "invalidated": 0},
        )
        result = stitch([("client.jsonl", client),
                         ("server.jsonl", server)])
        (journey,) = result.journeys
        assert journey.bundle == "b1"
        assert journey.installed_at is None

    def test_headerless_file_is_rejected(self):
        client, _ = _gap_files()
        with pytest.raises(TraceError, match="epoch"):
            stitch([("legacy.jsonl", client[1:])])

    def test_render_mentions_latency(self):
        client, server = _gap_files()
        result = stitch([("client.jsonl", client),
                         ("server.jsonl", server)])
        text = render_stitch(result)
        assert "stitched timeline (2 files)" in text
        assert "1 captured, 1 settled, 1 hot-installed" in text
        assert "count 1, p50 20" in text  # ~2000ms within sketch error


class TestReconciliation:
    def test_reconcile_is_clean(self, traced):
        assert reconcile(traced["agg"]) == []

    def test_render_reports_ok(self, traced):
        text = render_report(traced["agg"])
        assert "reconciliation: OK" in text
        assert "MISMATCH" not in text
        assert "unit" in text

    def test_tampered_report_record_is_caught(self, traced):
        records = [
            type(r)(ts=r.ts, kind=r.kind, name=r.name,
                    fields=dict(r.fields))
            for r in traced["records"]
        ]
        for record in records:
            if record.name == "learn.report":
                counts = dict(record.fields["counts"])
                counts["rules"] += 1
                record.fields = dict(record.fields, counts=counts)
        agg = aggregate(records)
        problems = reconcile(agg)
        assert any("rules" in problem for problem in problems)
        assert "MISMATCH" in render_report(agg)

    def test_missing_report_record_is_caught(self, traced):
        records = [r for r in traced["records"]
                   if r.name != "learn.report"]
        problems = reconcile(aggregate(records))
        assert any("no learn.report" in problem for problem in problems)

    def _tampered_run(self, traced, field, delta):
        records = _copy(traced["records"])
        last = max(i for i, r in enumerate(records) if r.name == "dbt.run")
        records[last].fields["lifetime"][field] += delta
        return records[last].fields["engine"], reconcile(aggregate(records))

    def test_tampered_run_lifetime_count_is_caught(self, traced):
        engine, problems = self._tampered_run(traced, "dispatches", 1)
        derived = traced["agg"].engines[engine]["dispatches"]
        assert problems == [
            f"engine {engine}: dispatches derived {derived} != "
            f"run record {derived + 1}"
        ]

    def test_tampered_run_lifetime_cycles_are_caught(self, traced):
        engine, problems = self._tampered_run(traced, "exec_cycles", 1.0)
        assert len(problems) == 1
        assert problems[0].startswith(
            f"engine {engine}: exec_cycles derived "
        )

    def test_run_lifetime_cycles_within_tolerance_pass(self, traced):
        _, problems = self._tampered_run(traced, "translation_cycles",
                                         1e-7)
        assert problems == []

    def test_missing_run_record_is_caught(self, traced):
        engine = traced["rules"].engine_id
        records = [r for r in traced["records"]
                   if not (r.name == "dbt.run"
                           and r.fields["engine"] == engine)]
        assert reconcile(aggregate(records)) == \
            [f"engine {engine}: no dbt.run record"]


def _service_records(**overrides):
    """A sync that claims to install what the engine hot-installed."""
    sync = {"cold": True, "generation": 1, "bundles": 1,
            "rules_fetched": 3, "rules_installed": 3,
            "blocks_invalidated": 2}
    sync.update(overrides)
    return [
        TraceRecord(ts=0.1, kind="event", name="service.sync_result",
                    fields=sync),
        TraceRecord(ts=0.2, kind="event", name="dbt.hot_install",
                    fields={"engine": 0, "source": "sync",
                            "digest": "b1", "installed": 3,
                            "invalidated": 2}),
        TraceRecord(ts=0.3, kind="event", name="dbt.hot_install",
                    fields={"engine": 0, "source": "direct",
                            "digest": "b2", "installed": 5,
                            "invalidated": 1}),
    ]


class TestServiceReconciliation:
    def test_matching_sync_and_hot_install_reconcile(self):
        agg = aggregate(_service_records())
        assert reconcile(agg) == []
        assert "service syncs vs hot-installs" in render_report(agg)

    def test_tampered_rules_installed_is_caught(self):
        problems = reconcile(aggregate(_service_records(rules_installed=4)))
        assert problems == [
            "service: sync_result rules_installed 4 != "
            "hot_install(source=sync) installed 3"
        ]

    def test_tampered_blocks_invalidated_is_caught(self):
        problems = reconcile(
            aggregate(_service_records(blocks_invalidated=0))
        )
        assert problems == [
            "service: sync_result blocks_invalidated 0 != "
            "hot_install(source=sync) invalidated 2"
        ]

    def test_more_hot_installs_than_synced_bundles_is_caught(self):
        problems = reconcile(aggregate(_service_records(bundles=0)))
        assert problems == [
            "service: 1 sync hot-installs but only 0 bundles installed "
            "by sync_results"
        ]

    def test_hot_install_without_sync_result_is_caught(self):
        problems = reconcile(aggregate(_service_records()[1:]))
        assert "service: sync_result rules_installed 0 != " \
            "hot_install(source=sync) installed 3" in problems


class TestCheckTableDrift:
    """A count a producer adds to its summary must be reconciled."""

    @staticmethod
    def _fields(kind):
        return [(derived, expected) for k, derived, expected, *_ in CHECKS
                if k == kind]

    def test_learning_report_counts_all_checked(self):
        assert self._fields("bench") == [
            (name, name) for name in LearningReport._COUNT_FIELDS
        ]

    def test_ingest_summary_counts_all_checked(self):
        assert self._fields("corpus") == [
            (name, name) for name in IngestSummary._COUNT_FIELDS
        ]

    def test_checked_lifetime_fields_exist_in_run_records(self, traced):
        runs = [r for r in traced["records"] if r.name == "dbt.run"]
        assert runs
        checked = {expected for _, expected in self._fields("engine")}
        for run in runs:
            assert checked <= set(run.fields["lifetime"])


class TestCli:
    @pytest.fixture()
    def trace_path(self, traced, tmp_path):
        from repro.obs.trace import encode_line

        path = tmp_path / "trace.jsonl"
        path.write_text(
            "".join(encode_line(r) + "\n" for r in traced["records"])
        )
        return path

    def test_text_report_exits_zero(self, traced, trace_path, capsys):
        assert main([str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "reconciliation: OK" in out
        assert f"{traced['agg'].records} records" in out

    def test_json_report(self, traced, trace_path, capsys):
        assert main([str(trace_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reconciliation"] == []
        assert payload["table1"]["unit"]["rules"] == \
            traced["outcome"].report.rules
        engine_key = str(traced["rules"].engine_id)
        assert engine_key in payload["coverage"]
        assert engine_key in payload["hit_lengths"]

    def test_tampered_trace_exits_one(self, traced, trace_path, capsys):
        lines = trace_path.read_text().splitlines()
        tampered = []
        for line in lines:
            data = json.loads(line)
            if data["name"] == "learn.report":
                data["fields"]["counts"]["verify_calls"] += 5
            tampered.append(json.dumps(data))
        trace_path.write_text("\n".join(tampered) + "\n")
        assert main([str(trace_path)]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_top_flag_limits_hot_blocks(self, trace_path, capsys):
        assert main([str(trace_path), "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "hottest blocks (top 1):" in out

    def test_json_report_includes_profitability(self, traced,
                                                trace_path, capsys):
        assert main([str(trace_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["profitability"][str(traced["rules"].engine_id)]
        assert rows
        assert {p.digest for p in traced["rules"].rule_profitability()} \
            == {row["digest"] for row in rows}

    @pytest.fixture()
    def gap_files(self, tmp_path):
        from repro.obs.trace import encode_line

        client_records, server_records = _gap_files()
        client = tmp_path / "client.jsonl"
        server = tmp_path / "server.jsonl"
        for path, records in ((client, client_records),
                              (server, server_records)):
            path.write_text(
                "".join(encode_line(r) + "\n" for r in records)
            )
        return client, server

    def test_stitch_cli_reports_latency(self, gap_files, capsys):
        client, server = gap_files
        assert main(["--stitch", str(client), str(server)]) == 0
        out = capsys.readouterr().out
        assert "stitched timeline (2 files)" in out
        assert "count 1, p50 20" in out  # ~2000ms within sketch error

    def test_stitch_json_payload(self, gap_files, capsys):
        client, server = gap_files
        assert main(["--stitch", "--json",
                     str(client), str(server)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stitch"]["gaps"] == \
            {"captured": 1, "settled": 1, "installed": 1}
        assert payload["stitch"]["latency_ms"]["count"] == 1
        latency = payload["stitch"]["latency_ms"]
        assert latency["p50"] == pytest.approx(
            2000.0, rel=latency["relative_error"]
        )

    def test_future_semantics_version_rejected(self, tmp_path, capsys):
        from repro.obs.trace import encode_line

        path = tmp_path / "future.jsonl"
        header = TraceRecord(
            ts=0.0, kind="event", name=TRACE_HEADER_NAME,
            fields={"version": TRACE_SEMANTICS_VERSION + 1,
                    "epoch": 100.0, "pid": 1},
        )
        path.write_text(encode_line(header) + "\n")
        assert main([str(path)]) == 2
        assert "semantics version" in capsys.readouterr().err

    def test_multiple_files_aggregate_together(self, traced, trace_path,
                                               gap_files, capsys):
        client, _ = gap_files
        assert main([str(trace_path), str(client)]) == 0
        out = capsys.readouterr().out
        expected = traced["agg"].records + 3  # header + 2 events
        assert f"{expected} records" in out
