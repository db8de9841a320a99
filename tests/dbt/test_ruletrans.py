"""Rule-enhanced block translation: matching, cc analysis, integration."""

import dataclasses

import pytest

from repro.benchsuite import benchmark_source
from repro.dbt import perf
from repro.dbt.codegen import BlockAssembler
from repro.dbt.engine import DBTEngine
from repro.dbt.ruletrans import (
    _COUNTERFACTUAL_ATTR,
    MAX_GAP_LENGTH,
    MISS_APPLY_ERROR,
    MISS_FLAGS_LIVE,
    _counterfactual_tcg,
    flags_dead_after,
    instantiate_host,
    translate_block_with_rules,
)
from repro.guest_arm import parse_instruction as parse_arm
from repro.host_x86 import parse_instruction as parse_x86
from repro.isa.instruction import Instruction
from repro.isa.operands import Mem, Reg
from repro.learning import rule as rule_template
from repro.learning.direction import HostConstraintError
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


class TestInstantiateHost:
    def _bind(self, rule, guest_lines):
        store = RuleStore.from_rules([rule])
        match = store.match_at([parse_arm(s) for s in guest_lines], 0)
        assert match is not None
        return match

    def test_emits_bound_template(self):
        match = self._bind(ADD_RULE, ["add r4, r4, r5", "sub r4, r4, #1"])
        assembler = BlockAssembler()
        emitted, branch_cc = instantiate_host(
            ADD_RULE, match.binding, assembler
        )
        assert branch_cc is None
        assert [i.mnemonic for i in emitted] == \
            [t.mnemonic for t in ADD_RULE.host]
        assert assembler.instrs[-len(emitted):] == emitted
        # Written params propagate to the assembler's dirty set.
        vreg = assembler.guest_vreg("r4")
        assert any(vreg in str(i) for i in emitted)
        assert assembler._dirty == {"r4"}

    def test_branch_cc_returned(self):
        match = self._bind(CMP_RULE, ["cmp r2, r3", "blt .L"])
        assembler = BlockAssembler()
        emitted, branch_cc = instantiate_host(
            CMP_RULE, match.binding, assembler
        )
        assert branch_cc == "jl"
        # The branch goes to the caller, after the block's write-back.
        assert [i.mnemonic for i in emitted] == ["cmpl"]

    def test_learned_rules_pass_host_constraints(self):
        for rule, lines in (
            (ADD_RULE, ["add r4, r4, r5", "sub r4, r4, #1"]),
            (MOV_RULE, ["mov r7, r2"]),
            (CMP_RULE, ["cmp r2, r3", "blt .L"]),
        ):
            match = self._bind(rule, lines)
            instantiate_host(rule, match.binding, BlockAssembler())

    def test_binds_through_the_learning_instantiation(self):
        """The DBT binds a hit with the learner's template instantiation
        over the assembler's vregs: one implementation of the step."""
        match = self._bind(MOV_RULE, ["mov r7, r2"])
        assembler = BlockAssembler()
        emitted, _ = instantiate_host(MOV_RULE, match.binding, assembler)
        reg_map = {
            param: assembler._cached[guest_reg]
            for param, guest_reg in match.binding.regs.items()
        }
        assert emitted == rule_template.instantiate_host(
            MOV_RULE, match.binding, reg_map
        )

    def test_constraint_check_precedes_binding(self):
        """A violating rule raises before any guest register is loaded:
        no env load, no cached vreg, nothing marked dirty."""
        match = self._bind(MOV_RULE, ["mov r7, r2"])
        assembler = BlockAssembler()
        with pytest.raises(HostConstraintError):
            instantiate_host(_scale16(MOV_RULE), match.binding, assembler)
        assert assembler.instrs == []
        assert assembler._cached == {}
        assert assembler._dirty == set()


def _scale16(rule):
    """``rule`` with a host template x86 cannot encode (SIB scale 16)."""
    return dataclasses.replace(rule, host=(Instruction(
        "movl", (Mem(Reg("p0"), Reg("p1"), 16, 0), Reg("p1")),
    ),))


class TestConstraintViolationMisses:
    def test_position_misses_as_apply_error(self):
        """A rule whose host template breaks an x86 encoding limit
        misses cleanly: the window goes to the gap sink and the block's
        host code is exactly the qemu-mode translation."""
        block = [parse_arm(line)
                 for line in ("mov r4, r5", "add r4, r4, r6", "bx lr")]
        base = TestBlockTranslation()._program()
        program = dataclasses.replace(base, code=block,
                                      labels={"main": 0})
        store = RuleStore.from_rules([_scale16(MOV_RULE)])
        assert store.match_at(block, 0) is not None
        gaps = []
        result = translate_block_with_rules(program, 0, store,
                                            gap_sink=gaps.append)
        assert not any(result.rule_covered)
        assert result.hit_profiles == []
        assert result.miss_reasons[MISS_APPLY_ERROR] == 1
        assert gaps[0] == block[:MAX_GAP_LENGTH]
        reference = translate_block_with_rules(program, 0, None)
        assert result.host_instrs == reference.host_instrs
        assert result.tcg_op_count == reference.tcg_op_count


class TestCounterfactualMemo:
    def test_repeat_windows_hit_the_cache(self):
        program = compile_source("""
        int main(void) {
          int a = 1;
          int b = 2;
          return a + b;
        }
        """, "arm", 2, "llvm")
        block = program.code[:2]
        first = _counterfactual_tcg(program, block, 0, 1, 0x8000)
        cache = getattr(program, _COUNTERFACTUAL_ATTR)
        assert len(cache) == 1
        again = _counterfactual_tcg(program, block, 0, 1, 0x8000)
        assert again is first
        assert len(cache) == 1


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
