"""Rule matching / binding / deduplication (Section 4)."""

from repro.guest_arm import parse_instruction as parse_arm
from repro.host_x86 import parse_instruction as parse_x86
from repro.learning.extract import SnippetPair
from repro.learning.paramize import analyze_pair, generate_mappings
from repro.isa.instruction import Instruction
from repro.isa.operands import Reg
from repro.learning.rule import (
    Binding,
    Rule,
    dedup_rules,
    instantiate_host,
    match_rule,
)
from repro.learning.store import RuleStore
from repro.learning.verify import verify_candidate


def learn_rule(guest_lines, host_lines):
    pair = SnippetPair(
        "t", 1,
        [parse_arm(line) for line in guest_lines],
        [parse_x86(line) for line in host_lines],
    )
    context = analyze_pair(pair)
    mappings, failure = generate_mappings(context)
    assert failure is None
    for mapping in mappings:
        result = verify_candidate(context, mapping)
        if result.rule is not None:
            return result.rule
    raise AssertionError("rule did not verify")


LEA_RULE = learn_rule(
    ["add r1, r1, r0", "sub r1, r1, #1"],
    ["leal -1(%edx,%eax), %edx"],
)


class TestMatching:
    def test_matches_same_registers(self):
        binding = match_rule(LEA_RULE, [
            parse_arm("add r1, r1, r0"), parse_arm("sub r1, r1, #1"),
        ])
        assert binding is not None

    def test_matches_renamed_registers(self):
        binding = match_rule(LEA_RULE, [
            parse_arm("add r5, r5, r7"), parse_arm("sub r5, r5, #1"),
        ])
        assert binding is not None
        assert set(binding.regs.values()) == {"r5", "r7"}

    def test_matches_different_immediate(self):
        binding = match_rule(LEA_RULE, [
            parse_arm("add r5, r5, r7"), parse_arm("sub r5, r5, #99"),
        ])
        assert binding is not None
        assert 99 in binding.slots.values()

    def test_rejects_inconsistent_destination(self):
        # add writes r5 but sub operates on r6: params can't bind.
        binding = match_rule(LEA_RULE, [
            parse_arm("add r5, r5, r7"), parse_arm("sub r6, r6, #1"),
        ])
        assert binding is None

    def test_rejects_wrong_mnemonic(self):
        binding = match_rule(LEA_RULE, [
            parse_arm("add r5, r5, r7"), parse_arm("add r5, r5, #1"),
        ])
        assert binding is None

    def test_rejects_wrong_shape(self):
        binding = match_rule(LEA_RULE, [
            parse_arm("add r5, r5, r7, lsl #1"), parse_arm("sub r5, r5, #1"),
        ])
        assert binding is None

    def test_length_mismatch(self):
        assert match_rule(LEA_RULE, [parse_arm("add r1, r1, r0")]) is None

    def test_immediate_binding_used_by_host(self):
        binding = match_rule(LEA_RULE, [
            parse_arm("add r5, r5, r7"), parse_arm("sub r5, r5, #7"),
        ])
        # host disp = -bound immediate
        from repro.isa.operands import Mem

        (mem_op,) = [op for op in LEA_RULE.host[0].operands
                     if isinstance(op, Mem)]
        disp = (mem_op.disp + binding.immediate(mem_op.disp_param)) \
            & 0xFFFFFFFF if mem_op.disp_param else mem_op.disp
        assert disp == (-7) & 0xFFFFFFFF

    def test_aliasing_allowed_when_single_writer(self):
        rule = learn_rule(["add r0, r1, r2"],
                          ["movl %ecx, %eax", "addl %edx, %eax"])
        binding = match_rule(rule, [parse_arm("add r3, r4, r4")])
        assert binding is not None


class TestLabelBinding:
    def test_branch_target_bound(self):
        rule = learn_rule(["cmp r2, r3", "beq .L1"],
                          ["cmpl %ecx, %edx", "je .L1"])
        binding = match_rule(rule, [
            parse_arm("cmp r9, r10"), parse_arm("beq .elsewhere"),
        ])
        assert binding is not None
        assert binding.label == ".elsewhere"


class TestInstantiateHost:
    #: Zero-extends the low byte of p0 into p1.
    LOW8_RULE = Rule(
        guest=(parse_arm("and r1, r0, #255"),),
        host=(Instruction("movzbl", (Reg("p0.b"), Reg("p1"))),),
        params=("p0", "p1"),
        written_params=("p1",),
        temps=(),
    )

    def test_low8_operand_carries_needs_low8(self):
        instrs = instantiate_host(self.LOW8_RULE, Binding(),
                                  {"p0": "%v1", "p1": "%v2"})
        assert instrs[0].operands == (Reg("%v1.b"), Reg("%v2"))
        assert instrs[0].meta == {"needs_low8": ("%v1",)}

    def test_physical_parent_uses_its_alias(self):
        instrs = instantiate_host(self.LOW8_RULE, Binding(),
                                  {"p0": "eax", "p1": "esi"})
        assert instrs[0].meta == {"needs_low8": ("eax",)}
        # Meta is an allocator hint, not part of instruction equality.
        assert instrs[0] == Instruction("movzbl", (Reg("al"), Reg("esi")))

    def test_plain_operands_carry_no_meta(self):
        instrs = instantiate_host(LEA_RULE, Binding(slots={"ig0": 1}),
                                  {"p0": "edx", "p1": "eax"})
        assert instrs[0].meta is None


class TestDedup:
    def test_keeps_smallest_host_count(self):
        fat = learn_rule(["add r0, r1, r2"],
                         ["movl %ecx, %eax", "addl %edx, %eax"])
        slim = learn_rule(["add r0, r1, r2"], ["leal (%ecx,%edx), %eax"])
        kept = dedup_rules([fat, slim])
        assert len(kept) == 1
        assert len(kept[0].host) == 1


class TestStore:
    def test_longest_first(self):
        short = learn_rule(["add r1, r1, r0"],
                           ["addl %eax, %edx"])
        store = RuleStore.from_rules([LEA_RULE, short])
        match = store.match_at([
            parse_arm("add r1, r1, r0"), parse_arm("sub r1, r1, #1"),
        ], 0)
        assert match is not None
        assert match.length == 2

    def test_falls_back_to_shorter(self):
        short = learn_rule(["add r1, r1, r0"], ["addl %eax, %edx"])
        store = RuleStore.from_rules([LEA_RULE, short])
        match = store.match_at([
            parse_arm("add r1, r1, r0"), parse_arm("mov r2, r3"),
        ], 0)
        assert match is not None
        assert match.length == 1

    def test_limit_parameter(self):
        store = RuleStore.from_rules([LEA_RULE])
        match = store.match_at([
            parse_arm("add r1, r1, r0"), parse_arm("sub r1, r1, #1"),
        ], 0, limit=1)
        assert match is None

    def test_no_match(self):
        store = RuleStore.from_rules([LEA_RULE])
        assert store.match_at([parse_arm("mvn r0, r1")], 0) is None

    def test_hash_key_is_opcode_mean(self):
        assert LEA_RULE.hash_key() == (
            sum([1, 2]) // 2  # add=1, sub=2 in the ARM opcode table
        )
