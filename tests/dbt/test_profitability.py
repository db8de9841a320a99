"""Per-rule profitability ledgers and their reconciliation with the
engine's rule-hit counters."""

import hashlib
import io
import itertools

import pytest

from repro.benchsuite import BENCHMARK_NAMES, benchmark_source
from repro.dbt import engine as engine_module
from repro.dbt import ruletrans
from repro.dbt.engine import DBTEngine
from repro.dbt.guard import GuardPolicy
from repro.dbt.perf import (
    INDEXED_LOOKUP_COST,
    RULE_EMIT_COST,
    RULE_LOOKUP_COST,
    TCG_OP_COST,
)
from repro.experiments.common import ExperimentContext
from repro.faults.plan import corrupt_rule
from repro.learning import learn_rules
from repro.learning.serialize import rule_digest
from repro.learning.store import RuleStore
from repro.minic import compile_source
from repro.obs.trace import read_trace, tracing

SOURCE = """
int a[24];
int acc(int *p, int n) {
  int s = 0;
  int i = 0;
  while (i < n) {
    s = s + p[i];
    i += 1;
  }
  return s;
}
int main(void) {
  int i = 0;
  while (i < 24) {
    a[i] = i * 3 - (i & 1);
    i += 1;
  }
  int total = acc(a, 24) + acc(a, 12);
  if (total < 0) { total = 0 - total; }
  return total;
}
"""


@pytest.fixture(scope="module")
def guest():
    return compile_source(SOURCE, "arm", 2, "llvm")


@pytest.fixture(scope="module")
def rules(guest):
    host = compile_source(SOURCE, "x86", 2, "llvm")
    return learn_rules(guest, host).rules


@pytest.fixture()
def engine(guest, rules):
    engine = DBTEngine(guest, "rules", RuleStore.from_rules(rules))
    engine.run()
    return engine


class TestRuleDigest:
    def test_digest_is_stable_and_short_hex(self, rules):
        digest = rule_digest(rules[0])
        assert digest == rule_digest(rules[0])
        assert len(digest) == 16
        int(digest, 16)

    def test_digest_ignores_provenance(self, rules):
        from dataclasses import replace

        rule = rules[0]
        relabeled = replace(rule, origin="elsewhere", line=999)
        assert rule_digest(relabeled) == rule_digest(rule)

    def test_distinct_rules_get_distinct_digests(self, rules):
        digests = {rule_digest(rule) for rule in rules}
        assert len(digests) == len(set(rules))


class TestLedgers:
    def test_hits_reconcile_with_hit_rule_lengths(self, engine):
        profiles = engine.rule_profitability()
        assert profiles, "the benchmark should hit at least one rule"
        assert sum(p.hits for p in profiles) \
            == sum(engine.lifetime.hit_rule_lengths.values())
        assert sum(p.guest_covered for p in profiles) == sum(
            length * count
            for length, count in engine.lifetime.hit_rule_lengths.items()
        )
        assert set(p.rule for p in profiles) == engine.lifetime.hit_rules

    def test_exec_hits_follow_block_exec_counts(self, engine):
        expected: dict = {}
        for tb in engine._cache.values():
            for hit in tb.hit_profiles:
                expected[hit.rule] = (
                    expected.get(hit.rule, 0) + tb.exec_count
                )
        for profile in engine.rule_profitability():
            assert profile.exec_hits == expected.get(profile.rule, 0)

    def test_cost_model_arithmetic(self, engine):
        for p in engine.rule_profitability():
            assert p.lookup_cost == INDEXED_LOOKUP_COST * p.hits
            assert p.translation_cycles_saved == pytest.approx(
                TCG_OP_COST * p.tcg_ops_avoided
                - RULE_EMIT_COST * p.host_emitted
            )
            assert p.net_cycles == pytest.approx(
                p.cycles_saved - p.lookup_cost
            )
            assert p.profitable == (p.net_cycles > 0)

    def test_hash_matcher_charges_its_probe_cost(self, guest, rules):
        """Each hit pays the probe its store's matcher pays at
        translation time, not the indexed store's."""
        engine = DBTEngine(guest, "rules",
                           RuleStore.from_rules(rules, matcher="hash"))
        engine.run()
        profiles = engine.rule_profitability()
        assert profiles
        for p in profiles:
            assert p.lookup_cost == RULE_LOOKUP_COST * p.hits
            assert p.net_cycles == pytest.approx(
                p.cycles_saved - p.lookup_cost
            )

    def test_sorted_most_profitable_first(self, engine):
        nets = [p.net_cycles for p in engine.rule_profitability()]
        assert nets == sorted(nets, reverse=True)

    def test_repeated_runs_accumulate_not_reset(self, engine):
        before = {
            p.digest: (p.hits, p.exec_hits)
            for p in engine.rule_profitability()
        }
        engine.run()
        for p in engine.rule_profitability():
            hits, exec_hits = before[p.digest]
            # Warm cache: no re-translation, but execution recurs.
            assert p.hits == hits
            assert p.exec_hits >= exec_hits


class TestTraceRecords:
    def test_rule_profile_events_match_ledgers(self, guest, rules):
        sink = io.StringIO()
        with tracing(sink):
            engine = DBTEngine(guest, "rules", RuleStore.from_rules(rules))
            engine.run()
            engine.run()
        records = [
            r for r in read_trace(io.StringIO(sink.getvalue()))
            if r.name == "dbt.rule_profile"
        ]
        assert records
        # Lifetime-cumulative: the last record per digest is the ledger.
        latest = {r.fields["digest"]: r.fields for r in records}
        ledgers = {p.digest: p for p in engine.rule_profitability()}
        assert set(latest) == set(ledgers)
        for digest, fields in latest.items():
            expected = ledgers[digest].count_fields()
            assert {key: fields[key] for key in expected} == expected


class TestLazyLedgers:
    """A hit is priced against TCG only when its ledger is read."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = []
        counterfactual = ruletrans._counterfactual_tcg
        digest = engine_module.rule_digest

        def counting_counterfactual(*args):
            calls.append("counterfactual")
            return counterfactual(*args)

        def counting_digest(rule):
            calls.append("digest")
            return digest(rule)

        monkeypatch.setattr(ruletrans, "_counterfactual_tcg",
                            counting_counterfactual)
        monkeypatch.setattr(engine_module, "rule_digest", counting_digest)
        return calls

    def test_untraced_run_prices_nothing(self, guest, rules, calls,
                                         monkeypatch):
        engine = DBTEngine(guest, "rules", RuleStore.from_rules(rules))
        engine.run()
        engine.run()
        assert calls == []
        lazy = [p.count_fields() for p in engine.rule_profitability()]
        assert {"counterfactual", "digest"} <= set(calls)

        translate = engine_module.translate_block_with_rules

        def priced_at_hit(*args, **kwargs):
            result = translate(*args, **kwargs)
            for hit in result.hit_profiles:
                hit.tcg_ops, hit.tcg_host_cycles, hit.host_cycles
            return result

        monkeypatch.setattr(engine_module, "translate_block_with_rules",
                            priced_at_hit)
        eager = DBTEngine(guest, "rules", RuleStore.from_rules(rules))
        eager.run()
        eager.run()
        assert [p.count_fields() for p in eager.rule_profitability()] \
            == lazy

    def test_traced_run_prices_its_records(self, guest, rules, calls):
        sink = io.StringIO()
        with tracing(sink):
            DBTEngine(guest, "rules", RuleStore.from_rules(rules)).run()
        assert "counterfactual" in calls
        assert any(r.name == "dbt.rule_profile"
                   for r in read_trace(io.StringIO(sink.getvalue())))


#: sha256 of every ledger's ``count_fields()`` (in
#: ``rule_profitability()`` order) and ``lifetime.count_fields()``
#: after each of two runs per engine: every benchmark x both styles at
#: ``test`` inputs with its leave-one-out store, one guard run that
#: quarantines a corrupted rule and one run with a mid-run hot-install.
LEDGER_SHA256 = (
    "ed28f95dc582d0884498bf170a59bd3f6b767d0ac629c2911ab46bb45f0a96ca"
)


def _hash_ledgers(digest, label, engine) -> None:
    for run in range(2):
        engine.run()
        digest.update(repr((label, run)).encode())
        for profile in engine.rule_profitability():
            digest.update(repr(sorted(profile.count_fields().items()))
                          .encode())
        digest.update(repr(sorted(engine.lifetime.count_fields().items()))
                      .encode())


class TestGoldenLedgers:
    """The ledgers are pinned: a change that alters any count or cycle
    figure must update the digest on purpose."""

    def test_ledger_digest(self):
        context = ExperimentContext()
        stores = {name: context.rule_store_excluding(name)
                  for name in BENCHMARK_NAMES}
        digest = hashlib.sha256()
        for name in BENCHMARK_NAMES:
            for style in ("llvm", "gcc"):
                program = compile_source(
                    benchmark_source(name, "test"), "arm", 2, style)
                _hash_ledgers(digest, (name, style),
                              DBTEngine(program, "rules", stores[name]))

        program = compile_source(benchmark_source("mcf", "test"), "arm", 2,
                                 "llvm")
        rules = stores["mcf"].all_rules()
        clean = DBTEngine(program, "rules", RuleStore.from_rules(rules))
        clean.run()
        hit_rules = [hit.rule for addr in sorted(clean._cache)
                     for hit in clean._cache[addr].hit_profiles]
        bad = None
        for rule in hit_rules:
            try:
                bad = corrupt_rule(rule)
            except ValueError:
                continue
            rules = [bad if r == rule else r for r in rules]
            break
        guarded = DBTEngine(program, "rules", RuleStore.from_rules(rules),
                            guard=GuardPolicy())
        _hash_ledgers(digest, "guard", guarded)
        assert bad in guarded.quarantined_rules

        program = compile_source(benchmark_source("sjeng", "test"), "arm",
                                 2, "gcc")
        rules = stores["sjeng"].all_rules()
        live = DBTEngine(program, "rules", RuleStore.from_rules(rules[::2]))
        dispatches = itertools.count(1)
        retired = []

        def tick(eng):
            if next(dispatches) == 256:
                eng.hot_install(rules)
                retired.extend(eng._retired_blocks)

        live.tick = tick
        _hash_ledgers(digest, "hot_install", live)
        assert any(tb.hit_profiles for tb in retired)
        assert digest.hexdigest() == LEDGER_SHA256
