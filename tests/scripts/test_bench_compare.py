"""bench_compare: tolerance bands, provenance annotation, verdicts."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / \
    "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _SCRIPT)
bench_compare = importlib.util.module_from_spec(_spec)
sys.modules["bench_compare"] = bench_compare
_spec.loader.exec_module(bench_compare)


def _payload(**overrides) -> dict:
    payload = {
        "bench": "learning_throughput",
        "cpus": 4,
        "jobs": 4,
        "rules": 128,
        "sequential": {
            "candidates_per_second": 500.0,
            "verify_calls": 488,
            "dedup_saved_calls": 171,
        },
        "warm_cache": {
            "candidates_per_second": 3200.0,
            "verify_calls": 0,
            "hit_rate": 1.0,
            "speedup_over_cold": 6.8,
        },
        "parallel": {"speedup_over_sequential": 2.5},
    }
    for path, value in overrides.items():
        node = payload
        parts = path.split(".")
        for part in parts[:-1]:
            node = node[part]
        node[parts[-1]] = value
    return payload


def _verdicts(results) -> dict:
    return {r["metric"]: r["verdict"] for r in results if r["metric"]}


class TestCompare:
    def test_identity_is_clean(self):
        results = bench_compare.compare(_payload(), _payload())
        assert set(_verdicts(results).values()) == {"ok"}

    def test_within_band_is_ok(self):
        candidate = _payload(**{
            "sequential.candidates_per_second": 400.0  # -20% < 30% band
        })
        verdicts = _verdicts(bench_compare.compare(_payload(), candidate))
        assert verdicts["sequential.candidates_per_second"] == "ok"

    def test_past_band_regresses(self):
        candidate = _payload(**{
            "sequential.candidates_per_second": 300.0  # -40% > 30% band
        })
        verdicts = _verdicts(bench_compare.compare(_payload(), candidate))
        assert verdicts["sequential.candidates_per_second"] == \
            "regression"

    def test_zero_tolerance_counter_regresses_on_any_increase(self):
        candidate = _payload(**{"sequential.verify_calls": 489})
        verdicts = _verdicts(bench_compare.compare(_payload(), candidate))
        assert verdicts["sequential.verify_calls"] == "regression"

    def test_improvement_is_reported_not_failed(self):
        candidate = _payload(**{"sequential.verify_calls": 400})
        results = bench_compare.compare(_payload(), candidate)
        assert _verdicts(results)["sequential.verify_calls"] == \
            "improved"
        assert not [r for r in results
                    if r["verdict"] == "regression"]

    def test_vanished_metric_is_a_regression(self):
        candidate = _payload()
        del candidate["parallel"]
        verdicts = _verdicts(bench_compare.compare(_payload(), candidate))
        assert verdicts["parallel.speedup_over_sequential"] == \
            "regression"

    def test_metric_new_in_candidate_is_skipped(self):
        baseline = _payload()
        del baseline["warm_cache"]["hit_rate"]
        verdicts = _verdicts(bench_compare.compare(baseline, _payload()))
        assert verdicts["warm_cache.hit_rate"] == "skipped"

    def test_unknown_bench_is_skipped(self):
        (result,) = bench_compare.compare(
            {"bench": "mystery"}, {"bench": "mystery"}
        )
        assert result["verdict"] == "skipped"


class TestOversubscriptionAnnotation:
    def test_oversubscribed_speedup_annotates_not_fails(self):
        baseline = _payload(**{"parallel.speedup_over_sequential": 2.5})
        candidate = _payload(**{
            "cpus": 1, "jobs": 2,
            "parallel.speedup_over_sequential": 0.7,
        })
        results = bench_compare.compare(baseline, candidate)
        verdicts = _verdicts(results)
        assert verdicts["parallel.speedup_over_sequential"] == \
            "annotated"
        (row,) = [r for r in results
                  if r["metric"] == "parallel.speedup_over_sequential"]
        assert "oversubscribed" in row["note"]

    def test_wellprovisioned_speedup_collapse_still_fails(self):
        candidate = _payload(**{
            "parallel.speedup_over_sequential": 0.7
        })
        verdicts = _verdicts(bench_compare.compare(_payload(), candidate))
        assert verdicts["parallel.speedup_over_sequential"] == \
            "regression"

    def test_other_metrics_not_excused_by_oversubscription(self):
        candidate = _payload(**{
            "cpus": 1, "jobs": 2, "sequential.verify_calls": 600
        })
        verdicts = _verdicts(bench_compare.compare(_payload(), candidate))
        assert verdicts["sequential.verify_calls"] == "regression"


def _one_worker(payload: dict) -> dict:
    """What the learning bench writes for a run with one worker."""
    payload.update(cpus=1, jobs=1)
    payload["parallel"] = {
        "speedup_over_sequential": None, "measured": False,
        "reason": "jobs == 1: one worker process measures no parallelism",
    }
    return payload


class TestNotMeasured:
    def test_unmeasured_candidate_is_not_compared(self):
        results = bench_compare.compare(_payload(), _one_worker(_payload()))
        (row,) = [r for r in results
                  if r["metric"] == "parallel.speedup_over_sequential"]
        assert row["verdict"] == "not measured"
        assert "one worker" in row["note"]
        assert "bound" not in row
        assert set(_verdicts(results).values()) == {"ok", "not measured"}

    def test_unmeasured_baseline_is_not_compared(self):
        candidate = _payload(**{"parallel.speedup_over_sequential": 0.1})
        verdicts = _verdicts(bench_compare.compare(_one_worker(_payload()),
                                                   candidate))
        assert verdicts["parallel.speedup_over_sequential"] == \
            "not measured"

    def test_other_metrics_still_compared(self):
        candidate = _one_worker(_payload(**{"sequential.verify_calls": 600}))
        verdicts = _verdicts(bench_compare.compare(_payload(), candidate))
        assert verdicts["sequential.verify_calls"] == "regression"

    def test_cli_reports_not_measured(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        candidate = tmp_path / "candidate.json"
        baseline.write_text(json.dumps(_payload()))
        candidate.write_text(json.dumps(_one_worker(_payload())))
        assert bench_compare.main([
            "--baseline", str(baseline), "--candidate", str(candidate),
        ]) == 0
        out = capsys.readouterr().out
        assert "NOT MEASURED" in out
        assert "verdict: OK" in out


class TestCli:
    @pytest.fixture()
    def baseline_path(self, tmp_path):
        path = tmp_path / "BENCH_learning.json"
        path.write_text(json.dumps(_payload()))
        return path

    def test_identity_exits_zero(self, baseline_path, capsys):
        assert bench_compare.main([
            "--baseline", str(baseline_path),
            "--candidate", str(baseline_path),
        ]) == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_injected_regression_exits_nonzero(self, baseline_path,
                                               tmp_path, capsys):
        tampered = _payload(**{"sequential.verify_calls": 600})
        candidate = tmp_path / "candidate.json"
        candidate.write_text(json.dumps(tampered))
        assert bench_compare.main([
            "--baseline", str(baseline_path),
            "--candidate", str(candidate),
        ]) == 1
        assert "verdict: REGRESSION" in capsys.readouterr().out

    def test_json_verdict_shape(self, baseline_path, tmp_path, capsys):
        tampered = _payload(**{"rules": 100})
        candidate = tmp_path / "candidate.json"
        candidate.write_text(json.dumps(tampered))
        assert bench_compare.main([
            "--baseline", str(baseline_path),
            "--candidate", str(candidate), "--json",
        ]) == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] is False
        assert verdict["regressions"] == 1
        assert any(r["metric"] == "rules"
                   and r["verdict"] == "regression"
                   for r in verdict["results"])

    def test_dir_mode_pairs_by_name(self, tmp_path, capsys):
        baseline_dir = tmp_path / "base"
        candidate_dir = tmp_path / "fresh"
        baseline_dir.mkdir()
        candidate_dir.mkdir()
        (baseline_dir / "BENCH_learning.json").write_text(
            json.dumps(_payload())
        )
        (candidate_dir / "BENCH_learning.json").write_text(
            json.dumps(_payload())
        )
        # A baseline with no fresh counterpart is simply not compared.
        (baseline_dir / "BENCH_other.json").write_text("{}")
        assert bench_compare.main([
            "--baseline-dir", str(baseline_dir),
            "--candidate-dir", str(candidate_dir),
        ]) == 0
        assert "1 payload(s)" in capsys.readouterr().out

    def test_no_pairs_is_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert bench_compare.main([
            "--baseline-dir", str(empty),
            "--candidate-dir", str(empty),
        ]) == 2
        assert "no baseline/candidate" in capsys.readouterr().err

    def test_committed_baseline_vs_itself_is_clean(self, capsys):
        root = Path(__file__).resolve().parents[2]
        baseline = root / "BENCH_learning.json"
        assert bench_compare.main([
            "--baseline", str(baseline), "--candidate", str(baseline),
        ]) == 0
