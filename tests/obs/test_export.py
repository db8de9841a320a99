"""Tests for Prometheus text exposition rendering and validation."""

import json

import pytest

from repro.obs.export import (
    ExpositionError,
    main,
    parse_exposition,
    render_exposition,
    sanitize_name,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import SamplingProfiler, phase
from repro.obs.slo import SloEngine
from repro.obs.timeseries import ServiceTelemetry

SLO_TOML = """
[[objective]]
name = "sync-latency"
kind = "latency"
source = "op:sync"
threshold_ms = 100.0
target = 0.9
windows = [10, 60]
min_events = 2

[[objective]]
name = "verify-floor"
kind = "gauge"
source = "gauge:verified_per_s"
min = 1.0
"""


def full_exposition():
    registry = MetricsRegistry()
    registry.inc("dbt.blocks.translated", 42)
    registry.observe("dbt.rule.hit_length", 3, count=5)

    telemetry = ServiceTelemetry(window=60)
    telemetry.gaps.add(3)
    telemetry.observe_op("sync", 0.015)
    telemetry.observe_op("report_gaps", 0.002)

    engine = SloEngine.from_toml_text(SLO_TOML)
    for _ in range(5):
        engine.record("op:sync", 500.0)
    slo = engine.evaluate(gauges={"gauge:verified_per_s": 0.2})

    profiler = SamplingProfiler(hz=50)
    with phase("dbt.exec"):
        profiler.sample_once()

    return render_exposition(
        metrics=registry.snapshot(),
        telemetry=telemetry.snapshot(queue_depth=4),
        slo=slo,
        profile=profiler.snapshot(),
    )


class TestRendering:
    def test_output_parses_as_valid_prometheus_text(self):
        text = full_exposition()
        samples = parse_exposition(text)
        assert samples, "exposition rendered no samples"
        names = {name for name, _, _ in samples}
        assert "repro_dbt_blocks_translated_total" in names
        assert "repro_dbt_rule_hit_length" in names
        assert "repro_service_op_latency_ms" in names
        assert "repro_slo_breach" in names
        assert "repro_profile_samples_total" in names

    def test_counter_value_and_type(self):
        registry = MetricsRegistry()
        registry.inc("dbt.blocks.translated", 42)
        text = render_exposition(metrics=registry.snapshot())
        assert "# TYPE repro_dbt_blocks_translated_total counter" \
            in text
        assert "repro_dbt_blocks_translated_total 42" in text

    def test_summary_has_quantiles_sum_count(self):
        registry = MetricsRegistry()
        for ms in (1.0, 2.0, 3.0, 4.0):
            registry.observe("lat.ms", ms)
        text = render_exposition(metrics=registry.snapshot())
        samples = parse_exposition(text)
        by_name = {}
        for name, labels, value in samples:
            by_name.setdefault(name, []).append((labels, value))
        quantiles = [
            labels["quantile"]
            for labels, _ in by_name["repro_lat_ms"]
        ]
        assert quantiles == ["0.5", "0.95", "0.99"]
        (_, count) = by_name["repro_lat_ms_count"][0]
        assert count == 4
        (_, total) = by_name["repro_lat_ms_sum"][0]
        assert total == pytest.approx(10.0)

    def test_slo_breach_flags_and_burn_rates(self):
        engine = SloEngine.from_toml_text(SLO_TOML)
        for _ in range(5):
            engine.record("op:sync", 500.0)
        report = engine.evaluate(
            gauges={"gauge:verified_per_s": 0.2}
        )
        text = render_exposition(slo=report)
        samples = dict(
            ((name, tuple(sorted(labels.items()))), value)
            for name, labels, value in parse_exposition(text)
        )
        assert samples[
            ("repro_slo_breach", (("objective", "sync-latency"),))
        ] == 1.0
        assert samples[
            ("repro_slo_breach", (("objective", "verify-floor"),))
        ] == 1.0
        burn_keys = [k for k in samples if k[0] == "repro_slo_burn_rate"]
        assert len(burn_keys) == 2  # one per window

    def test_op_labels_escape_and_sanitize(self):
        telemetry = ServiceTelemetry(window=60)
        telemetry.observe_op('weird"op\\name', 0.001)
        text = render_exposition(telemetry=telemetry.snapshot())
        samples = parse_exposition(text)
        ops = {
            labels.get("op") for name, labels, _ in samples
            if name.startswith("repro_service_op_latency_ms")
        }
        assert any(op for op in ops if op)

    def test_empty_surfaces_render_empty(self):
        assert render_exposition() == ""
        assert parse_exposition("") == []

    def test_sanitize_name(self):
        assert sanitize_name("dbt.blocks.translated") \
            == "dbt_blocks_translated"
        assert sanitize_name("9start") == "_9start"


class TestValidator:
    def test_rejects_sample_without_type(self):
        with pytest.raises(ExpositionError):
            parse_exposition("orphan_metric 1\n")

    def test_rejects_bad_label_syntax(self):
        text = (
            "# HELP m h\n# TYPE m gauge\n"
            'm{bad-label="x"} 1\n'
        )
        with pytest.raises(ExpositionError):
            parse_exposition(text)

    def test_rejects_unterminated_label_value(self):
        text = '# HELP m h\n# TYPE m gauge\nm{a="x} 1\n'
        with pytest.raises(ExpositionError):
            parse_exposition(text)

    def test_rejects_malformed_value(self):
        text = "# HELP m h\n# TYPE m gauge\nm notanumber\n"
        with pytest.raises(ExpositionError):
            parse_exposition(text)

    def test_rejects_bad_type(self):
        with pytest.raises(ExpositionError):
            parse_exposition("# TYPE m wibble\n")

    def test_accepts_escaped_quotes_in_labels(self):
        text = (
            "# HELP m h\n# TYPE m gauge\n"
            'm{a="x\\"y"} 1\n'
        )
        (sample,) = parse_exposition(text)
        assert sample[0] == "m"


class TestCli:
    def test_metrics_json_one_shot(self, tmp_path, capsys):
        registry = MetricsRegistry()
        registry.inc("learning.rules", 7)
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(registry.snapshot()))
        assert main(["--metrics-json", str(path), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "repro_learning_rules_total 7" in out
        parse_exposition(out)

    def test_profile_json_one_shot(self, tmp_path, capsys):
        profiler = SamplingProfiler(hz=50)
        with phase("learn.verify"):
            profiler.sample_once()
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profiler.snapshot()))
        assert main([
            "--metrics-json", str(path),  # wrong shape is harmless
            "--profile-json", str(path), "--validate",
        ]) == 0
        out = capsys.readouterr().out
        assert "repro_profile_samples_total" in out
        assert 'phase="learn.verify"' in out


class TestSketchSummaryRoundtrip:
    def test_rendered_quantiles_match_sketch(self):
        telemetry = ServiceTelemetry(window=60)
        for seconds in (0.010, 0.020, 0.030):
            telemetry.observe_op("sync", seconds)
        text = render_exposition(telemetry=telemetry.snapshot())
        samples = parse_exposition(text)
        p50 = next(
            value for name, labels, value in samples
            if name == "repro_service_op_latency_ms"
            and labels.get("quantile") == "0.5"
        )
        sketch = telemetry.op_sketches()["sync"]
        assert p50 == pytest.approx(sketch.quantile(0.5))
