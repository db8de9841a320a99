"""Ablation: mnemonic-trie index vs. opcode-mean hash vs. linear scan.

Counts how many rule-sequence comparison attempts each indexing scheme
performs while translating a benchmark — the cost the paper's Section 4
hash table is meant to bound, and the cost the mnemonic-trie index
(DESIGN.md Section 9) bounds tighter still.  Every matcher funnels its
comparisons through ``RuleStore._compare``, so one counting subclass
measures them all.
"""

from benchmarks.conftest import run_once
from repro.learning.rule import match_rule
from repro.learning.store import RuleMatch, RuleStore


class CountingStore(RuleStore):
    """Counts rule-sequence comparisons for whichever matcher runs."""

    comparisons = 0

    def _compare(self, rule, instrs, start, length):
        type(self).comparisons += 1
        return super()._compare(rule, instrs, start, length)


class LinearStore(RuleStore):
    """No index at all: every rule of each length is tried."""

    comparisons = 0

    def match_at(self, instrs, start, limit=None):
        max_len = len(instrs) - start
        if limit is not None:
            max_len = min(max_len, limit)
        max_len = min(max_len, self._max_length)
        all_rules = self.all_rules()
        for length in range(max_len, 0, -1):
            for rule in all_rules:
                if rule.length != length:
                    continue
                type(self).comparisons += 1
                binding = match_rule(rule, instrs[start:start + length])
                if binding is not None:
                    return RuleMatch(rule, binding, length)
        return None


def _translate_all(context, store_cls, matcher, name="gcc"):
    store_cls.comparisons = 0
    base = context.rule_store_excluding(name)
    store = store_cls.from_rules(base.all_rules(), matcher=matcher)
    guest = context.build(name, "arm", workload="test")
    from repro.dbt.engine import DBTEngine

    result = DBTEngine(guest, "rules", store).run()
    return store_cls.comparisons, result.return_value


def test_ablation_hash(benchmark, context):
    def ablate():
        return {
            "mnemonic-trie": _translate_all(context, CountingStore,
                                            "indexed"),
            "opcode-mean": _translate_all(context, CountingStore, "hash"),
            "linear-scan": _translate_all(context, LinearStore, "hash"),
        }

    results = run_once(benchmark, ablate)
    print()
    for scheme, (count, _) in results.items():
        print(f"{scheme:>13s}: {count} rule comparisons")

    # Correctness is index-independent ...
    assert len({ret for _, ret in results.values()}) == 1
    # ... the paper's hash prunes most comparisons ...
    assert results["opcode-mean"][0] * 3 < results["linear-scan"][0]
    # ... and the trie's candidates are mnemonic-exact, a subset of the
    # hash bucket's (opcode ids depend only on the base mnemonic).
    assert results["mnemonic-trie"][0] <= results["opcode-mean"][0]
