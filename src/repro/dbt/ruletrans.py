"""Rule-enhanced block translation (paper Sections 4-5).

For each guest block the translator selects a *cover*: which guest
instructions are translated by learned rules (instantiating the rule's
host template, bypassing TCG) and which go through the normal TCG
path.  The cover is the paper's Section 4 scheme: at every
position take the longest matching rule, and on a miss send one
instruction through TCG.  With no rule table every instruction misses,
so this translator *is* the QEMU baseline: the engine's ``qemu`` mode
and the guard's reference translation both call it with ``store=None``.

Register allocation cooperates through the shared
:class:`~repro.dbt.codegen.BlockAssembler` (guest registers cached in
host registers, liveness write-back), and a lightweight
translation-time analysis checks that guest condition codes the rule
does not materialize are dead before applying it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.guest_arm import isa as arm_isa
from repro.host_x86 import isa as x86_isa
from repro.isa.instruction import Instruction
from repro.isa.operands import Label
from repro.learning import rule as rule_template
from repro.learning.direction import HostConstraintError, \
    x86_host_constraints
from repro.learning.rule import Binding, Rule
from repro.learning.store import RuleMatch, RuleStore
from repro.minic.compile import CompiledProgram
from repro.dbt import codegen
from repro.dbt.codegen import BlockAssembler, tb_label
from repro.dbt.frontend import discover_block, translate_instruction
from repro.dbt.perf import instruction_cycles
from repro.dbt.tcg import TcgBlock, TcgOp

__all__ = [
    "BlockTranslation", "HitProfile",
    "translate_block_with_rules", "instantiate_host", "flags_dead_after",
    "MISS_REASONS", "MAX_GAP_LENGTH",
]

#: Why a rule lookup failed to cover a guest position (Table 1's
#: translate-time counterpart; ranked by the obs report CLI).
MISS_NO_MATCH = "no_match"       # store had no matching rule
MISS_FLAGS_LIVE = "flags_live"   # condition-code analysis rejected it
MISS_BINDING = "binding"         # binding touches reserved registers
MISS_APPLY_ERROR = "apply_error"  # host-ISA constraint failed at emit

MISS_REASONS = (
    MISS_NO_MATCH, MISS_FLAGS_LIVE, MISS_BINDING, MISS_APPLY_ERROR,
)

#: Longest guest suffix a translation-gap report captures per miss;
#: matches the longest rules the learner produces, so a gap window is
#: exactly the context an online learner needs to close it.
MAX_GAP_LENGTH = 8


@dataclass(frozen=True, eq=False)
class HitProfile:
    """One rule application and its profitability evidence; a block's
    list of these is its only record of the rules it used.

    Recorded at the hit: the rule, the span it covered, the host code
    it actually emitted, and where the span sits (program, block, start
    index, guest address).  Derived on first read: the cycles of that
    host code and what TCG *would have* emitted for the same guest
    instructions (the counterfactual, through the per-program memo).
    The engine combines these with per-block execution counts to
    attribute cycles saved (or wasted) per rule — the "did this rule
    pay for its lookup probe" question the evaluation turns on.
    Compared by identity: each instance is one application.
    """

    rule: Rule
    length: int                #: guest instructions the rule covered
    rule_host_len: int         #: host template length (emit-cost basis)
    host: list[Instruction]    #: host code the hit emitted (pre-regalloc)
    program: CompiledProgram = field(repr=False)
    block: list[Instruction] = field(repr=False)
    start: int                 #: index of the span in ``block``
    guest_addr: int            #: guest address of ``block``

    @cached_property
    def host_cycles(self) -> float:  # exec cycles/visit of ``host``
        return sum(map(instruction_cycles, self.host))

    @cached_property
    def _counterfactual(self) -> tuple[int, float]:
        return _counterfactual_tcg(self.program, self.block, self.start,
                                   self.length, self.guest_addr)

    @property
    def tcg_ops(self) -> int:  # TCG micro-ops the rule avoided
        return self._counterfactual[0]

    @property
    def tcg_host_cycles(self) -> float:  # exec cycles/visit of TCG's code
        return self._counterfactual[1]


@dataclass
class BlockTranslation:
    """Result of translating one guest block with rules."""

    host_instrs: list[Instruction]
    guest_instrs: list[Instruction]
    rule_covered: list[bool]
    tcg_op_count: int
    lookup_attempts: int
    miss_reasons: dict[str, int] = field(default_factory=dict)
    hit_profiles: list[HitProfile] = field(default_factory=list)


def flags_dead_after(rule: Rule, block: list[Instruction],
                     next_index: int) -> bool:
    """Translation-time condition-code analysis (Section 5).

    The rule's host code leaves the guest's env flag slots untouched, so
    every guest flag the rule's guest sequence writes must be dead: not
    read by any following instruction in the block before being written
    again.  Flags are assumed dead across block boundaries (compilers
    set flags immediately before using them).
    """
    pending = set(rule.guest_flags_written)
    if not pending:
        return True
    if rule.has_branch:
        # The rule ends the block; its own branch is the only consumer.
        return True
    for instr in block[next_index:]:
        used = set(arm_isa.used_flags(instr))
        if used & pending:
            return False
        pending -= set(arm_isa.defined_flags(instr))
        if not pending:
            return True
    return True


def instantiate_host(
    rule: Rule,
    binding: Binding,
    assembler: BlockAssembler,
) -> tuple[list[Instruction], str | None]:
    """Materialize the rule's host template into the assembler's vregs.

    Returns (non-branch host instructions appended, taken-branch
    condition mnemonic or None).  Branch instructions are returned to
    the caller (they must go after the block's write-back).

    The x86 host constraints are checked on the static template first
    (binding never changes a ``Mem.scale``), so a violating rule raises
    :class:`~repro.learning.direction.HostConstraintError` before any
    guest register is loaded into the assembler.
    """
    for template in rule.host:
        x86_host_constraints(template)
    reg_map = {
        param: assembler.guest_vreg(guest_reg)
        for param, guest_reg in binding.regs.items()
    }
    for temp in rule.temps:
        reg_map[temp] = assembler.new_vreg()
    emitted = []
    branch_cc = None
    for instr in rule_template.instantiate_host(
        rule, binding, reg_map, check_constraints=False
    ):
        if x86_isa.is_branch(instr):
            branch_cc = instr.mnemonic
        else:
            emitted.append(instr)
    assembler.instrs.extend(emitted)
    for param in rule.written_params:
        assembler.mark_dirty(binding.regs[param])
    return emitted, branch_cc


#: Attribute on the program holding { (window signature, ends_block)
#: -> (tcg_ops, host_cycles) }.  The TCG counterfactual for a covered
#: window depends only on the window's instructions and whether it
#: ends its block (addresses only rename branch labels), so
#: profitability evidence is computed once per distinct window — not
#: per rule application — and only when a ledger is read.  Living on
#: the program object, the cache has exactly the program's lifetime
#: (CompiledProgram is unhashable, so a WeakKeyDictionary cannot key
#: it).
_COUNTERFACTUAL_ATTR = "_tcg_counterfactuals"


def _counterfactual_tcg(
    program: CompiledProgram,
    block: list[Instruction],
    start: int,
    length: int,
    guest_addr: int,
) -> tuple[int, float]:
    """What TCG would have produced for ``block[start:start+length]``.

    Lowers the covered guest instructions through the miss path,
    :func:`_emit_tcg_instruction`, into a throwaway assembler, so
    branch rules are compared against the branch lowering they
    displaced.  Returns ``(tcg_ops, host_cycles)``.
    Memoized per (program, window, ends-block): the first read of a
    window pays one extra translation, repeats are a dict hit.
    """
    cache = vars(program).setdefault(_COUNTERFACTUAL_ATTR, {})
    key = (
        tuple(str(instr) for instr in block[start : start + length]),
        start + length == len(block),
    )
    if key not in cache:
        shadow, tcg = BlockAssembler(), TcgBlock(guest_start=guest_addr)
        ops = sum(
            _emit_tcg_instruction(program, block, shadow, tcg, j)[0]
            for j in range(start, start + length)
        )
        cache[key] = (ops, sum(map(instruction_cycles, shadow.instrs)))
    return cache[key]


def translate_block_with_rules(
    program: CompiledProgram,
    start_index: int,
    store: RuleStore | None,
    gap_sink=None,
) -> BlockTranslation:
    """Translate one guest block, using rules where they match.

    ``gap_sink`` (optional) is called with the guest-instruction suffix
    (capped at :data:`MAX_GAP_LENGTH`) at every position the rule table
    failed to cover — the translation-gap capture hook the rule-service
    client uses to drive online learning.
    """
    block = discover_block(program, start_index)
    guest_addr = 0x8000 + 4 * start_index
    assembler = BlockAssembler()
    tcg = TcgBlock(guest_start=guest_addr)
    covered = [False] * len(block)
    hit_profiles: list[HitProfile] = []
    miss_reasons: dict[str, int] = {}
    tcg_ops_total = 0
    lookups = 0

    i = 0
    ended = False
    while i < len(block):
        match: RuleMatch | None = None
        reason: str | None = None
        if store is not None:
            lookups += 1
            match = store.match_at(block, i)
            if match is None:
                reason = MISS_NO_MATCH
            elif not flags_dead_after(
                match.rule, block, i + match.length
            ):
                match, reason = None, MISS_FLAGS_LIVE
            elif "pc" in match.binding.regs.values():
                match, reason = None, MISS_BINDING
        if match is not None:
            hit_host_start = len(assembler.instrs)
            try:
                _, branch_cc = instantiate_host(
                    match.rule, match.binding, assembler
                )
            except HostConstraintError:
                match, reason = None, MISS_APPLY_ERROR
            else:
                length = match.length
                covered[i : i + length] = [True] * length
                if match.rule.has_branch:
                    taken = program.addr_of(match.binding.label)
                    fallthrough = guest_addr + 4 * (i + length)
                    assembler.writeback()
                    assembler.emit(branch_cc, Label(tb_label(taken)))
                    assembler.emit("jmp", Label(tb_label(fallthrough)))
                    ended = True
                # Profitability evidence: the rule's actual host code
                # (including any block-ending writeback + branch it
                # forced); it is priced against TCG when read.
                hit_profiles.append(HitProfile(
                    rule=match.rule,
                    length=length,
                    rule_host_len=len(match.rule.host),
                    host=assembler.instrs[hit_host_start:],
                    program=program,
                    block=block,
                    start=i,
                    guest_addr=guest_addr,
                ))
                i += length
                continue
        if reason is not None:
            miss_reasons[reason] = miss_reasons.get(reason, 0) + 1
            if gap_sink is not None:
                gap_sink(block[i : i + MAX_GAP_LENGTH])
        ops, instr_ended = _emit_tcg_instruction(
            program, block, assembler, tcg, i
        )
        tcg_ops_total += ops
        ended |= instr_ended
        i += 1
    if not ended:
        # Fall-through into the next block (split at a label): an exit
        # TCG op, charged like every other.
        exit_op = TcgOp("goto_tb", taken=guest_addr + 4 * len(block))
        codegen.lower_tcg_op(assembler, exit_op)
        tcg_ops_total += 1
    translated = codegen.finalize_block(assembler, guest_addr)
    return BlockTranslation(
        host_instrs=translated.host_instrs,
        guest_instrs=block,
        rule_covered=covered,
        tcg_op_count=tcg_ops_total,
        lookup_attempts=lookups,
        miss_reasons=miss_reasons,
        hit_profiles=hit_profiles,
    )


def _emit_tcg_instruction(
    program: CompiledProgram,
    block: list[Instruction],
    assembler: BlockAssembler,
    tcg: TcgBlock,
    i: int,
) -> tuple[int, bool]:
    """TCG path for ``block[i]``: its ops go into ``tcg``, the guest
    block's one TCG block (so their temps are unique in ``assembler``),
    and are lowered into ``assembler``; returns (ops, block_ended)."""
    first = len(tcg.ops)
    translate_instruction(program, tcg, block[i], tcg.guest_start + 4 * i)
    ended = False
    for op in tcg.ops[first:]:
        codegen.lower_tcg_op(assembler, op)
        if op.op in ("brcond", "goto_tb", "exit_indirect"):
            ended = True
    return len(tcg.ops) - first, ended
