"""The instruction record shared by both ISA models.

Instructions are plain data: a mnemonic plus an operand tuple.  All
per-opcode knowledge (operand roles, defs/uses, flag behaviour,
semantics) lives in the ISA modules' tables, keeping this record
ISA-neutral so the learner and the DBT can treat guest and host
uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.isa.operands import Imm, Label, Mem, Operand, Reg, ShiftedReg


@dataclass(frozen=True)
class Instruction:
    """One machine instruction.

    Attributes:
        mnemonic: Lower-case opcode name (e.g. ``"add"``, ``"movl"``).
        operands: Operand tuple in the ISA's canonical order (ARM:
            destination first; x86 AT&T: source first).
        line: Source line this instruction was compiled from (debug
            info; metadata, not part of equality).
        block: Id of the machine basic block the instruction belongs to
            (metadata; lets the learner detect multi-block source lines).
    """

    mnemonic: str
    operands: tuple[Operand, ...] = ()
    line: int | None = field(default=None, compare=False)
    block: int | None = field(default=None, compare=False)
    meta: dict | None = field(default=None, compare=False, hash=False)

    def with_operands(self, operands: tuple[Operand, ...]) -> "Instruction":
        return replace(self, operands=operands)

    def registers(self) -> tuple[Reg, ...]:
        """Every register mentioned by any operand, in operand order."""
        regs: list[Reg] = []
        for op in self.operands:
            if isinstance(op, Reg):
                regs.append(op)
            elif isinstance(op, ShiftedReg):
                regs.append(op.reg)
            elif isinstance(op, Mem):
                regs.extend(op.registers())
        return tuple(regs)

    def immediates(self) -> tuple[int, ...]:
        """Every immediate value mentioned (excluding Mem disp/scale)."""
        return tuple(op.value for op in self.operands if isinstance(op, Imm))

    def labels(self) -> tuple[Label, ...]:
        return tuple(op for op in self.operands if isinstance(op, Label))

    def __str__(self) -> str:
        if not self.operands:
            return self.mnemonic
        return f"{self.mnemonic} " + ", ".join(str(op) for op in self.operands)
