"""Rule-enhanced block translation: matching, cc analysis, integration."""

import dataclasses

import pytest

from repro.benchsuite import benchmark_source
from repro.dbt import perf
from repro.dbt.engine import DBTEngine
from repro.dbt.ruletrans import (
    MAX_GAP_LENGTH,
    MISS_FLAGS_LIVE,
    flags_dead_after,
    translate_block_with_rules,
)
from repro.guest_arm import parse_instruction as parse_arm
from repro.host_x86 import parse_instruction as parse_x86
from repro.learning.extract import SnippetPair
from repro.learning.paramize import analyze_pair, generate_mappings
from repro.learning.store import RuleStore
from repro.learning.verify import verify_candidate
from repro.minic import compile_source


def learn_rule(guest_lines, host_lines):
    pair = SnippetPair(
        "t", 1,
        [parse_arm(line) for line in guest_lines],
        [parse_x86(line) for line in host_lines],
    )
    context = analyze_pair(pair)
    mappings, _ = generate_mappings(context)
    for mapping in mappings:
        result = verify_candidate(context, mapping)
        if result.rule is not None:
            return result.rule
    raise AssertionError("did not learn")


CMP_RULE = learn_rule(["cmp r2, r3", "blt .L"],
                      ["cmpl %ecx, %edx", "jl .L"])
CMP_ONLY_RULE = learn_rule(["cmp r2, r3"], ["cmpl %ecx, %edx"])
ADD_RULE = learn_rule(["add r1, r1, r0", "sub r1, r1, #1"],
                      ["leal -1(%edx,%eax), %edx"])
MOV_RULE = learn_rule(["mov r1, r0"], ["movl %eax, %edx"])
#: Writes the guest flags without branching on them.
MOV_CMP_RULE = learn_rule(["mov r1, r0", "cmp r2, r3"],
                          ["movl %eax, %edx", "cmpl %ecx, %ebx"])


class TestFlagsDeadAnalysis:
    def test_branch_rules_always_ok(self):
        assert flags_dead_after(CMP_RULE, [], 0)

    def test_cmp_followed_by_branch_blocks_rule(self):
        # A bare cmp rule cannot be applied when the branch that
        # consumes the flags is translated by TCG (the rule does not
        # materialize env flags).
        block = [parse_arm("cmp r2, r3"), parse_arm("blt .L")]
        assert not flags_dead_after(CMP_ONLY_RULE, block, 1)

    def test_flags_overwritten_ok(self):
        block = [
            parse_arm("cmp r2, r3"),
            parse_arm("cmp r4, r5"),  # rewrites all flags
            parse_arm("blt .L"),
        ]
        assert flags_dead_after(CMP_ONLY_RULE, block, 1)

    def test_flagless_rule_always_ok(self):
        block = [parse_arm("add r1, r1, r0"), parse_arm("blt .L")]
        assert flags_dead_after(ADD_RULE, block, 1)


class TestBlockTranslation:
    def _program(self):
        return compile_source("""
        int main(void) {
          int acc = 10;
          int bound = 3;
          int i = 0;
          while (i < bound) {
            acc = acc + i;
            acc -= 1;
            i += 1;
          }
          return acc;
        }
        """, "arm", 2, "llvm")

    def test_rule_coverage_marked(self):
        program = self._program()
        store = RuleStore.from_rules([CMP_RULE, ADD_RULE])
        covered_any = False
        for start in sorted(set(program.labels.values())):
            if start >= len(program.code):
                continue
            result = translate_block_with_rules(program, start, store)
            assert len(result.rule_covered) == len(result.guest_instrs)
            covered_any |= any(result.rule_covered)
        assert covered_any
        # The engine agrees with qemu mode, run after run on one cache.
        expected = DBTEngine(program, "qemu").run().return_value
        engine = DBTEngine(program, "rules", store)
        assert engine.run().return_value == expected
        first = engine.last_run.dynamic_coverage
        assert first > 0
        assert engine.run().return_value == expected
        assert engine.last_run.dynamic_coverage == first

    def test_no_rules_means_no_coverage(self):
        program = self._program()
        for start in sorted(set(program.labels.values())):
            if start >= len(program.code):
                continue
            for store in (RuleStore(), None):
                result = translate_block_with_rules(program, start, store)
                assert not any(result.rule_covered)

    def test_host_code_smaller_with_rules(self):
        program = self._program()
        store = RuleStore.from_rules([CMP_RULE, ADD_RULE])
        with_rules = 0
        without = 0
        for start in sorted(set(program.labels.values())):
            if start >= len(program.code):
                continue
            with_rules += len(
                translate_block_with_rules(program, start, store).host_instrs
            )
            without += len(
                translate_block_with_rules(program, start, None).host_instrs
            )
        assert with_rules < without

    def test_longest_match_with_live_flags_misses(self):
        """The cover takes the longest match only: when its flags are
        live the position misses, even though a shorter rule applies."""
        block = [parse_arm(line)
                 for line in ("mov r4, r5", "cmp r6, r7", "blt .Lt")]
        base = self._program()
        program = dataclasses.replace(
            base, code=block + [parse_arm("bx lr")],
            labels={"main": 0, ".Lt": 3},
        )
        store = RuleStore.from_rules([MOV_RULE, MOV_CMP_RULE])
        assert store.match_at(block, 0).rule == MOV_CMP_RULE
        assert MOV_RULE in [m.rule for m in store.matches_at(block, 0)]
        gaps = []
        result = translate_block_with_rules(program, 0, store,
                                            gap_sink=gaps.append)
        assert not any(result.rule_covered)
        assert result.miss_reasons[MISS_FLAGS_LIVE] == 1
        assert gaps[0] == block[:MAX_GAP_LENGTH]


class TestEmptyTableIsQemu:
    """With an empty rule table the rule translator is the qemu
    baseline: same host code, same TCG charges (the synthesized
    fall-through exit included), same dynamic counts."""

    @pytest.mark.parametrize("name", ("mcf", "sjeng", "libquantum"))
    def test_rules_engine_matches_qemu(self, name):
        engines = {}
        for mode, store in (("qemu", None), ("rules", RuleStore())):
            program = compile_source(benchmark_source(name, "test"),
                                     "arm", 2, "llvm")
            engines[mode] = DBTEngine(program, mode, store)
            engines[mode].run()
        qemu, rules = engines["qemu"], engines["rules"]
        assert qemu._cache.keys() == rules._cache.keys()
        # An empty table still pays one lookup per guest position.
        lookup = perf.lookup_cost(rules.rule_store.matcher)
        for addr, tb in qemu._cache.items():
            other = rules._cache[addr]
            assert list(map(str, other.host_instrs)) == \
                list(map(str, tb.host_instrs)), hex(addr)
            assert other.translation_cost == \
                tb.translation_cost + lookup * tb.guest_length, hex(addr)
        assert rules.last_run.perf.dispatches == \
            qemu.last_run.perf.dispatches
        assert rules.last_run.dynamic_host_instructions == \
            qemu.last_run.dynamic_host_instructions
