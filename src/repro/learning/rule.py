"""Learned translation rules: representation, matching, binding.

A :class:`Rule` maps a parameterized guest (ARM) instruction sequence
to a parameterized host (x86) sequence (Section 4).  ``match_rule``
implements the binding step used by the DBT at translation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import Instruction
from repro.isa.operands import (
    INT_IMMEXPR_OPS,
    Imm,
    Label,
    Mem,
    Reg,
    ShiftedReg,
    SymImm,
    eval_immexpr,
)


@dataclass(frozen=True)
class Rule:
    """One verified translation rule.

    Attributes:
        guest: Parameterized guest instruction sequence.
        host: Parameterized host instruction sequence.
        params: Register parameters shared by guest and host.
        written_params: Params whose register is written by the guest.
        temps: Host-only scratch register parameters.
        guest_flags_written: Guest condition codes the guest sequence
            defines.
        cc_info: guest flag -> "direct"/"inverted" for flags the host
            sequence emulates in the corresponding x86 flag; guest flags
            written but absent here are NOT emulated (Section 5's
            translation-time liveness analysis must prove them dead).
        has_branch: The sequences end in (equivalent) branches.
        origin: Benchmark the rule was learned from.
        line: Source line it came from.
    """

    guest: tuple[Instruction, ...]
    host: tuple[Instruction, ...]
    params: tuple[str, ...]
    written_params: tuple[str, ...]
    temps: tuple[str, ...]
    guest_flags_written: tuple[str, ...] = ()
    cc_info: dict[str, str] = field(default_factory=dict, compare=False,
                                    hash=False)
    has_branch: bool = False
    origin: str = field(default="", compare=False, hash=False)
    line: int = field(default=0, compare=False, hash=False)
    direction: str = "arm-x86"

    @property
    def length(self) -> int:
        """Number of guest instructions (the paper's rule *length*)."""
        return len(self.guest)

    def guest_signature(self) -> tuple[str, ...]:
        return tuple(str(instr) for instr in self.guest)

    def hash_key(self) -> int:
        """The paper's scheme: arithmetic mean of the guest opcodes."""
        from repro.learning.direction import DIRECTIONS

        opcode_id = DIRECTIONS[self.direction].guest_opcode_id
        ids = [opcode_id(instr) for instr in self.guest]
        return sum(ids) // len(ids)

    @property
    def unemulated_flags(self) -> tuple[str, ...]:
        return tuple(
            flag for flag in self.guest_flags_written
            if flag not in self.cc_info
        )

    def __str__(self) -> str:
        guest = "; ".join(str(i) for i in self.guest)
        host = "; ".join(str(i) for i in self.host)
        return f"[{guest}]  =>  [{host}]"


@dataclass
class Binding:
    """Result of matching a rule against concrete guest instructions."""

    regs: dict[str, str] = field(default_factory=dict)  # param -> guest reg
    slots: dict[str, int] = field(default_factory=dict)  # slot -> value
    label: str | None = None

    def immediate(self, expr: tuple) -> int:
        """Evaluate a host immediate AST under this binding."""
        return eval_immexpr(expr, self.slots, INT_IMMEXPR_OPS)


def match_rule(rule: Rule, instrs: list[Instruction]) -> Binding | None:
    """Try to bind ``rule`` against a concrete guest sequence.

    The sequence length must equal the rule length.  Returns the binding
    or None.  Distinct register parameters may bind the same concrete
    register only if at most one of them is written (otherwise write
    ordering could differ between guest and host).
    """
    if len(instrs) != rule.length:
        return None
    binding = Binding()
    for template, concrete in zip(rule.guest, instrs):
        if template.mnemonic != concrete.mnemonic:
            return None
        if len(template.operands) != len(concrete.operands):
            return None
        for top, cop in zip(template.operands, concrete.operands):
            if not _match_operand(top, cop, binding):
                return None
    if not _aliasing_ok(rule, binding):
        return None
    return binding


def _bind_reg(binding: Binding, param: str, name: str) -> bool:
    bound = binding.regs.get(param)
    if bound is None:
        binding.regs[param] = name
        return True
    return bound == name


def _bind_slot(binding: Binding, slot: str, value: int) -> bool:
    value &= 0xFFFFFFFF
    bound = binding.slots.get(slot)
    if bound is None:
        binding.slots[slot] = value
        return True
    return bound == value


def _match_operand(top, cop, binding: Binding) -> bool:
    if isinstance(top, Reg):
        if not isinstance(cop, Reg):
            return False
        if top.name.endswith(".b"):
            # Low-byte parameter (x86-guest templates): the concrete
            # operand must be a low-8 alias; bind its parent register.
            from repro.host_x86.registers import is_low8, parent_of

            if not is_low8(cop.name):
                return False
            return _bind_reg(binding, top.name[:-2], parent_of(cop.name))
        return _bind_reg(binding, top.name, cop.name)
    if isinstance(top, Imm):
        return isinstance(cop, Imm) and (top.value & 0xFFFFFFFF) == (
            cop.value & 0xFFFFFFFF
        )
    if isinstance(top, SymImm):
        if not isinstance(cop, Imm):
            return False
        assert top.expr[0] == "slot", "guest templates only use plain slots"
        return _bind_slot(binding, top.expr[1], cop.value)
    if isinstance(top, ShiftedReg):
        return (
            isinstance(cop, ShiftedReg)
            and top.shift == cop.shift
            and top.amount == cop.amount
            and _bind_reg(binding, top.reg.name, cop.reg.name)
        )
    if isinstance(top, Label):
        if not isinstance(cop, Label):
            return False
        if binding.label is None:
            binding.label = cop.name
            return True
        return binding.label == cop.name
    if isinstance(top, Mem):
        if not isinstance(cop, Mem):
            return False
        if (top.base is None) != (cop.base is None):
            return False
        if (top.index is None) != (cop.index is None):
            return False
        if top.index is not None and top.scale != cop.scale:
            return False
        if top.base is not None and not _bind_reg(
            binding, top.base.name, cop.base.name
        ):
            return False
        if top.index is not None and not _bind_reg(
            binding, top.index.name, cop.index.name
        ):
            return False
        if top.disp_param is not None:
            assert top.disp_param[0] == "slot"
            return _bind_slot(binding, top.disp_param[1], cop.disp - top.disp)
        return top.disp == cop.disp
    return False


def _aliasing_ok(rule: Rule, binding: Binding) -> bool:
    by_concrete: dict[str, list[str]] = {}
    for param, concrete in binding.regs.items():
        by_concrete.setdefault(concrete, []).append(param)
    written = set(rule.written_params)
    for params in by_concrete.values():
        if len(params) > 1 and sum(1 for p in params if p in written) > 1:
            return False
    return True


def instantiate_host(rule: Rule, binding: Binding,
                     reg_assignment: dict[str, str],
                     check_constraints: bool = True) -> list[Instruction]:
    """Materialize the rule's host side as concrete instructions.

    ``reg_assignment`` maps every rule parameter (including temps) to a
    concrete *host* register name.  An instruction that selects a
    parameter's low-8 alias (``p0.b``) carries that parameter's
    register in its ``needs_low8`` meta, the allocator's hint (meta is
    not part of instruction equality).  Host-ISA encoding constraints
    (paper Section 5) are checked unless disabled — e.g. an
    ARM-as-host rule binding an immediate outside the modified-immediate
    range raises :class:`~repro.learning.direction.HostConstraintError`.
    """
    host_constraints = None
    if check_constraints:
        from repro.learning.direction import DIRECTIONS

        host_constraints = DIRECTIONS[rule.direction].host_constraints

    def reg(name: str) -> Reg:
        if name.endswith(".b"):
            from repro.host_x86.registers import LOW8_TO_PARENT

            parent = reg_assignment[name[:-2]]
            for low8, parent_name in LOW8_TO_PARENT.items():
                if parent_name == parent:
                    return Reg(low8)
            return Reg(f"{parent}.b")
        return Reg(reg_assignment[name])

    result: list[Instruction] = []
    for template in rule.host:
        operands = []
        low8_parents: list[str] = []
        for op in template.operands:
            if isinstance(op, Reg):
                if op.name.endswith(".b"):
                    low8_parents.append(reg_assignment[op.name[:-2]])
                operands.append(reg(op.name))
            elif isinstance(op, SymImm):
                operands.append(Imm(binding.immediate(op.expr)))
            elif isinstance(op, ShiftedReg):
                operands.append(ShiftedReg(reg(op.reg.name), op.shift,
                                           op.amount))
            elif isinstance(op, Mem):
                disp = op.disp
                if op.disp_param is not None:
                    disp = (disp + binding.immediate(op.disp_param)) \
                        & 0xFFFFFFFF
                    if disp >= 0x8000_0000:
                        disp -= 0x1_0000_0000
                operands.append(Mem(
                    reg(op.base.name) if op.base else None,
                    reg(op.index.name) if op.index else None,
                    op.scale, disp,
                ))
            elif isinstance(op, Label):
                operands.append(Label(binding.label or op.name))
            else:
                operands.append(op)
        meta = {"needs_low8": tuple(low8_parents)} if low8_parents \
            else None
        instr = Instruction(template.mnemonic, tuple(operands), meta=meta)
        if host_constraints is not None:
            host_constraints(instr)
        result.append(instr)
    return result


def has_window(haystack: tuple[str, ...], needle: tuple[str, ...]) -> bool:
    """Does the mnemonic sequence ``needle`` occur contiguously inside
    ``haystack``?  Rule matching binds operands but never mnemonics, so
    this is the necessary condition for a rule with guest mnemonics
    ``needle`` to match inside ``haystack``."""
    span = len(needle)
    if not span or span > len(haystack):
        return False
    return any(
        haystack[start : start + span] == needle
        for start in range(len(haystack) - span + 1)
    )


def dedup_rules(rules: list[Rule]) -> list[Rule]:
    """Among rules with identical guest sequences keep the one with the
    fewest host instructions (Section 6.1)."""
    best: dict[tuple[str, ...], Rule] = {}
    for rule in rules:
        key = rule.guest_signature()
        existing = best.get(key)
        if existing is None or len(rule.host) < len(existing.host):
            best[key] = rule
    return list(best.values())
