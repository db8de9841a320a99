"""Precompiled bound emitters: equivalence, memoization, constraints."""

import pytest

from repro.dbt.codegen import BlockAssembler
from repro.dbt.emitter import (
    RuleApplicationError,
    compile_emitter,
    get_emitter,
)
from repro.dbt.ruletrans import _COUNTERFACTUAL_ATTR, _counterfactual_tcg
from repro.guest_arm import parse_instruction as parse_arm
from repro.isa.instruction import Instruction
from repro.isa.operands import Mem, Reg
from repro.learning.rule import Rule
from repro.learning.store import RuleStore
from repro.minic import compile_source

from tests.dbt.test_ruletrans import ADD_RULE, CMP_RULE, MOV_RULE


class TestCompile:
    def test_memoized_per_rule(self):
        assert get_emitter(ADD_RULE) is get_emitter(ADD_RULE)

    def test_branch_cc_hoisted(self):
        assert get_emitter(CMP_RULE).branch_cc == "jl"
        assert get_emitter(ADD_RULE).branch_cc is None

    def test_static_ok_for_learned_rules(self):
        for rule in (ADD_RULE, MOV_RULE, CMP_RULE):
            assert get_emitter(rule).static_ok


class TestApply:
    def _bind(self, rule, guest_lines):
        store = RuleStore.from_rules([rule])
        match = store.match_at([parse_arm(s) for s in guest_lines], 0)
        assert match is not None
        return match

    def test_emits_bound_template(self):
        match = self._bind(ADD_RULE, ["add r4, r4, r5", "sub r4, r4, #1"])
        assembler = BlockAssembler()
        emitted, branch_cc = get_emitter(ADD_RULE)(
            match.binding, assembler
        )
        assert branch_cc is None
        assert [i.mnemonic for i in emitted] == \
            [t.mnemonic for t in ADD_RULE.host]
        assert assembler.instrs[-len(emitted):] == emitted
        # Written params propagate to the assembler's dirty set.
        vreg = assembler.guest_vreg("r4")
        assert any(vreg in str(i) for i in emitted)

    def test_same_host_code_as_fresh_compile(self):
        """A memoized emitter and a fresh compile agree on output."""
        match = self._bind(MOV_RULE, ["mov r7, r2"])
        a1, a2 = BlockAssembler(), BlockAssembler()
        out1, _ = get_emitter(MOV_RULE)(match.binding, a1)
        out2, _ = compile_emitter(MOV_RULE)(match.binding, a2)
        assert [str(i) for i in out1] == [str(i) for i in out2]

    def test_static_constraint_raises_on_apply(self):
        bad = Rule(
            guest=(parse_arm("mov r1, r0"),),
            host=(Instruction(
                "movl",
                (Mem(Reg("p0"), Reg("p1"), 16, 0), Reg("p1")),
            ),),
            params=("p0", "p1"),
            written_params=("p1",),
            temps=(),
        )
        emitter = compile_emitter(bad)
        assert not emitter.static_ok
        match = self._bind(bad, ["mov r1, r0"])
        with pytest.raises(RuleApplicationError):
            emitter(match.binding, BlockAssembler())


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
