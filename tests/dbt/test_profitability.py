"""Per-rule profitability ledgers and their reconciliation with the
engine's rule-hit counters."""

import io

import pytest

from repro.dbt.engine import DBTEngine
from repro.dbt.perf import (
    INDEXED_LOOKUP_COST,
    RULE_EMIT_COST,
    RULE_LOOKUP_COST,
    TCG_OP_COST,
)
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
            ledger = ledgers[digest]
            assert fields["hits"] == ledger.hits
            assert fields["exec_hits"] == ledger.exec_hits
            assert fields["net_cycles"] == pytest.approx(ledger.net_cycles)
            assert fields["profitable"] == ledger.profitable
