"""Ablation: longest-first vs. shortest-first vs. length-1-only matching.

DESIGN.md calls out the Section 4 greedy longest-first match as a design
choice; this bench shows why: restricting rules to single guest
instructions (the one-to-one/one-to-many world of hand-written rules)
or matching shortest-first loses a measurable part of the dynamic
host-instruction reduction.

Parametrized over the store's matcher mode (mnemonic-trie index vs. the
paper's opcode-mean hash): the match *order* ablation must come out the
same under either lookup structure, because the matchers are exact.
"""

import pytest

from benchmarks.conftest import run_once
from repro.dbt.engine import DBTEngine
from repro.learning.store import MATCHER_MODES, RuleStore


class ShortestFirstStore(RuleStore):
    """Match shortest sequences first (inverted Section 4 order)."""

    def match_at(self, instrs, start, limit=None):
        max_len = len(instrs) - start
        if limit is not None:
            max_len = min(max_len, limit)
        best = None
        for length in range(1, max_len + 1):
            best = super().match_at(instrs, start, limit=length)
            if best is not None:
                return best
        return None


class LengthOneStore(RuleStore):
    """Only one-to-many rules (no learned multi-instruction mappings)."""

    def match_at(self, instrs, start, limit=None):
        return super().match_at(instrs, start, limit=1)


def _dyn_instrs(context, store_cls, matcher, name="libquantum"):
    base = context.rule_store_excluding(name)
    store = store_cls.from_rules(base.all_rules(), matcher=matcher)
    guest = context.build(name, "arm", workload="ref")
    result = DBTEngine(guest, "rules", store).run()
    return result.stats.dynamic_host_instructions, result.return_value


@pytest.mark.parametrize("matcher", MATCHER_MODES)
def test_ablation_matching(benchmark, context, matcher):
    def ablate():
        return {
            "longest": _dyn_instrs(context, RuleStore, matcher),
            "shortest": _dyn_instrs(context, ShortestFirstStore, matcher),
            "length1": _dyn_instrs(context, LengthOneStore, matcher),
        }

    results = run_once(benchmark, ablate)
    print()
    for scheme, (dyn, _) in results.items():
        print(f"{scheme:>8s} [{matcher}]: {dyn} dynamic host instructions")

    # All strategies are CORRECT (verified rules compose safely) ...
    values = {ret for _, ret in results.values()}
    assert len(values) == 1
    # ... but longest-first generates the best code:
    assert results["longest"][0] <= results["shortest"][0]
    assert results["longest"][0] < results["length1"][0]
