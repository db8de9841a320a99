"""Machine-code containers and target descriptions for the backends.

During instruction selection the backends emit :class:`Instruction`
objects whose register operands may be *virtual* (names starting with
``%``); the register allocator later rewrites them to physical names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.isa.instruction import Instruction
from repro.isa.operands import Mem, Reg, ShiftedReg


def is_vreg(name: str) -> bool:
    return name.startswith("%")


@dataclass
class TargetInfo:
    """Everything the shared register allocator needs to know about an
    ISA + ABI + codegen style combination."""

    name: str
    alloc_order: tuple[str, ...]
    callee_saved: tuple[str, ...]
    caller_saved: tuple[str, ...]
    low8_regs: tuple[str, ...]  # empty on ARM
    defs: Callable[[Instruction], tuple[str, ...]]
    uses: Callable[[Instruction], tuple[str, ...]]
    is_branch: Callable[[Instruction], bool]
    branch_condition: Callable[[Instruction], str | None]
    is_call: Callable[[Instruction], bool]
    spill_load: Callable[[str, int], Instruction]  # (reg, frame offset)
    spill_store: Callable[[str, int], Instruction]
    word_size: int = 4


@dataclass
class MachineFunction:
    """Machine code for one function, before or after allocation."""

    name: str
    instrs: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    frame_slots: int = 0  # bytes of local-slot area (fixed at ISel)
    spill_bytes: int = 0  # bytes of spill area (set by the allocator)
    used_callee_saved: tuple[str, ...] = ()
    returns_value: bool = True
    line: int = 0


class MachineBuilder:
    """Accumulates instructions and label marks during ISel."""

    def __init__(self, name: str, line: int = 0) -> None:
        self.func = MachineFunction(name, line=line)
        self._block = 0

    def emit(self, mnemonic: str, *operands, line: int | None = None,
             meta: dict | None = None) -> Instruction:
        instr = Instruction(
            mnemonic, tuple(operands), line=line, block=self._block, meta=meta
        )
        self.func.instrs.append(instr)
        return instr

    def mark(self, label: str) -> None:
        self.func.labels[label] = len(self.func.instrs)
        self._block += 1

    def next_block(self) -> None:
        self._block += 1


_PARENT_TO_LOW8 = {"eax": "al", "ecx": "cl", "edx": "dl", "ebx": "bl"}


def _sub_reg(reg: Reg, mapping: dict[str, str],
             renamed: dict[str, Reg]) -> Reg:
    name = reg.name
    new_reg = renamed.get(name)
    if new_reg is not None:
        return new_reg
    if name.endswith(".b"):
        parent = mapping.get(name[:-2])
        if parent is None:
            return reg
        new = _PARENT_TO_LOW8.get(parent, f"{parent}.b")
    else:
        new = mapping.get(name, name)
    if new == name:
        return reg
    new_reg = renamed[name] = Reg(new)
    return new_reg


def rewrite_registers(instr: Instruction,
                      mapping: dict[str, str]) -> Instruction:
    """Return ``instr`` with virtual register names replaced.

    A virtual low-byte reference ``%t5.b`` follows its parent: when
    ``%t5`` maps to ``eax`` the reference becomes ``al``.  The
    ``needs_low8`` meta hint is renamed the same way, in a fresh meta
    dict: ``instr`` itself is never modified.
    """
    return _rewrite(instr, mapping, {})


def renamer(mapping: dict[str, str]
            ) -> Callable[[Instruction], Instruction]:
    """:func:`rewrite_registers` under one ``mapping``, sharing one
    ``Reg`` per renamed name across every instruction it renames."""
    renamed: dict[str, Reg] = {}
    return lambda instr: _rewrite(instr, mapping, renamed)


def _rewrite(instr: Instruction, mapping: dict[str, str],
             renamed: dict[str, Reg]) -> Instruction:
    changed = False
    new_ops = []
    for op in instr.operands:
        if isinstance(op, Reg):
            new = _sub_reg(op, mapping, renamed)
        elif isinstance(op, ShiftedReg):
            reg = _sub_reg(op.reg, mapping, renamed)
            new = op if reg is op.reg else ShiftedReg(reg, op.shift, op.amount)
        elif isinstance(op, Mem) and (op.base or op.index):
            base = op.base and _sub_reg(op.base, mapping, renamed)
            index = op.index and _sub_reg(op.index, mapping, renamed)
            new = op if base is op.base and index is op.index else Mem(
                base, index, op.scale, op.disp, op.var, op.disp_param)
        else:
            new = op
        if new is not op:
            changed = True
        new_ops.append(new)
    if not changed:
        return instr
    meta = instr.meta
    if meta and "needs_low8" in meta:
        meta = {**meta, "needs_low8": tuple(
            mapping.get(name, name) for name in meta["needs_low8"])}
    return Instruction(instr.mnemonic, tuple(new_ops), instr.line,
                       instr.block, meta)
