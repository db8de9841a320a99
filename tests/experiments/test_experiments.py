"""Experiment harness smoke tests on a reduced benchmark subset.

The full regenerations live in benchmarks/; here a two-benchmark
context checks the plumbing cheaply.
"""

import pytest

from repro.experiments import fig8, fig10, fig11, fig12, table1
from repro.experiments.common import (
    ExperimentContext,
    geometric_mean,
    render_table,
)


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(benchmarks=("mcf", "libquantum"))


class TestContext:
    def test_builds_cached(self, context):
        first = context.build("mcf", "arm")
        assert context.build("mcf", "arm") is first

    def test_leave_one_out_excludes_self(self, context):
        store = context.rule_store_excluding("mcf")
        assert all(rule.origin != "mcf" for rule in store.all_rules())

    def test_runs_cached_and_consistent(self, context):
        first = context.run("mcf", "qemu", "test")
        assert context.run("mcf", "qemu", "test") is first

    def test_modes_agree_on_result(self, context):
        qemu = context.run("mcf", "qemu", "test")
        rules = context.run("mcf", "rules", "test")
        assert qemu.return_value == rules.return_value


class TestFigures:
    def test_table1(self, context):
        result = table1.run(context)
        assert set(result.reports) == {"mcf", "libquantum"}
        text = table1.render(result)
        assert "mcf" in text and "TOTAL" in text

    def test_fig8_speedups_positive(self, context):
        result = fig8.run(context)
        for per_bench in result.speedups.values():
            for value in per_bench.values():
                assert value > 0
        assert "GEOMEAN" in fig8.render(result)

    def test_fig10_reduction(self, context):
        result = fig10.run(context)
        assert set(result.reductions) == {"mcf", "libquantum"}
        assert all(-1 < frac < 1 for frac in result.reductions.values())

    def test_fig11_coverage(self, context):
        result = fig11.run(context)
        for static, dynamic in result.coverage.values():
            assert 0 <= static <= 1
            assert 0 <= dynamic <= 1

    def test_fig12_lengths(self, context):
        result = fig12.run(context)
        for dist in result.distributions.values():
            assert all(length >= 1 for length in dist)


class TestHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0

    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]], "T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert all(len(line) == len(lines[1]) for line in lines[2:])


class TestCli:
    def test_cli_runs_one_experiment(self, capsys, monkeypatch, tmp_path):
        import repro.experiments.cli as cli
        import repro.experiments.common as common

        monkeypatch.setattr(
            common, "_SHARED", ExperimentContext(benchmarks=("mcf",))
        )
        assert cli.main(["table1", "--cache-dir",
                         str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
