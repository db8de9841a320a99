"""ARM32 opcode metadata: mnemonic structure, defs/uses, flags.

Mnemonics follow UAL: a base opcode, an optional condition suffix, and
an optional ``s`` (set-flags) suffix, e.g. ``subs``, ``movne``, ``ble``.
"""

from __future__ import annotations

from functools import cache

from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Label, Mem, Reg, ShiftedReg

# Base opcode groups (operand shapes).
DATA3 = ("add", "sub", "rsb", "and", "orr", "eor", "bic")  # rd, rn, op2
MULDIV = ("mul", "sdiv", "udiv")  # rd, rn, rm
SHIFTS = ("lsl", "lsr", "asr")  # rd, rm, #imm|rs
MOVES = ("mov", "mvn")  # rd, op2
COMPARES = ("cmp", "cmn", "tst", "teq")  # rn, op2
LOADS = ("ldr", "ldrb")
STORES = ("str", "strb")
BRANCHES = ("b", "bl", "bx")
STACK = ("push", "pop")

BASE_OPCODES = (
    DATA3 + MULDIV + SHIFTS + MOVES + COMPARES + LOADS + STORES + BRANCHES + STACK
)

CONDITIONS = ("eq", "ne", "hs", "lo", "mi", "pl", "hi", "ls", "ge", "lt", "gt", "le")

# Flags each condition reads.
CONDITION_FLAGS: dict[str, tuple[str, ...]] = {
    "eq": ("Z",),
    "ne": ("Z",),
    "mi": ("N",),
    "pl": ("N",),
    "lo": ("C",),
    "hs": ("C",),
    "hi": ("C", "Z"),
    "ls": ("C", "Z"),
    "ge": ("N", "V"),
    "lt": ("N", "V"),
    "gt": ("N", "Z", "V"),
    "le": ("N", "Z", "V"),
}

_OPCODE_IDS = {name: index + 1 for index, name in enumerate(BASE_OPCODES)}


@cache  # pure, and called for every footprint the allocator takes
def split_mnemonic(mnemonic: str) -> tuple[str, str | None, bool]:
    """Split a UAL mnemonic into (base, condition, set_flags).

    ``bls`` parses as ``b`` + ``ls`` (branch if lower-or-same), never as
    ``bl`` + ``s``; ``bl`` alone is the call instruction.
    """
    mnemonic = mnemonic.lower()
    if mnemonic.startswith("b") and mnemonic[1:] in CONDITIONS:
        return "b", mnemonic[1:], False
    if mnemonic in BASE_OPCODES:
        return mnemonic, None, False
    # base + cond (+ optional s is not valid ARM order; UAL is base+s+cond,
    # but compilers emit e.g. "movne", "addeq"; we accept base+cond and
    # base+s forms).
    for base in BASE_OPCODES:
        if not mnemonic.startswith(base):
            continue
        rest = mnemonic[len(base):]
        if rest == "s":
            return base, None, True
        if rest in CONDITIONS:
            return base, rest, False
        if rest.startswith("s") and rest[1:] in CONDITIONS:
            return base, rest[1:], True
    raise ValueError(f"unknown ARM mnemonic {mnemonic!r}")


def opcode_id(instr: Instruction) -> int:
    """Stable small integer for the base opcode (rule-store hash key)."""
    base, _, _ = split_mnemonic(instr.mnemonic)
    return _OPCODE_IDS[base]


def is_branch(instr: Instruction) -> bool:
    base, _, _ = split_mnemonic(instr.mnemonic)
    if base in BRANCHES:
        return True
    if base == "pop":
        return any(isinstance(op, Reg) and op.name == "pc" for op in instr.operands)
    return False


def is_call(instr: Instruction) -> bool:
    base, _, _ = split_mnemonic(instr.mnemonic)
    return base == "bl"


def is_return(instr: Instruction) -> bool:
    base, _, _ = split_mnemonic(instr.mnemonic)
    if base == "bx":
        return bool(instr.operands) and instr.operands[0] == Reg("lr")
    if base == "pop":
        return any(isinstance(op, Reg) and op.name == "pc" for op in instr.operands)
    return False


def is_indirect_branch(instr: Instruction) -> bool:
    base, _, _ = split_mnemonic(instr.mnemonic)
    return base == "bx" or (base == "pop" and is_return(instr))


def is_predicated(instr: Instruction) -> bool:
    """True for conditionally-executed non-branch instructions."""
    base, cond, _ = split_mnemonic(instr.mnemonic)
    return cond is not None and base != "b"


def branch_condition(instr: Instruction) -> str | None:
    """Condition suffix of a conditional branch (None if unconditional
    or not a branch)."""
    base, cond, _ = split_mnemonic(instr.mnemonic)
    if base == "b":
        return cond
    return None


def _operand_registers(op) -> tuple[str, ...]:
    if isinstance(op, Reg):
        return (op.name,)
    if isinstance(op, ShiftedReg):
        return (op.reg.name,)
    if isinstance(op, Mem):
        return tuple(reg.name for reg in op.registers())
    return ()


def defined_registers(instr: Instruction) -> tuple[str, ...]:
    """Registers written by the instruction, in a stable order."""
    base, _, _ = split_mnemonic(instr.mnemonic)
    ops = instr.operands
    if base in DATA3 + MULDIV + SHIFTS + MOVES or base in LOADS:
        return (ops[0].name,) if ops and isinstance(ops[0], Reg) else ()
    if base in COMPARES or base in STORES or base == "b" or base == "bx":
        return ()
    if base == "bl":
        return ("lr",)
    if base == "push":
        return ("sp",)
    if base == "pop":
        regs = tuple(op.name for op in ops if isinstance(op, Reg))
        return ("sp",) + regs
    return ()


def used_registers(instr: Instruction) -> tuple[str, ...]:
    """Registers read by the instruction, in operand order (dupes kept
    out, order preserved)."""
    base, _, _ = split_mnemonic(instr.mnemonic)
    ops = instr.operands
    used: list[str] = []

    def add(names) -> None:
        for name in names:
            if name not in used:
                used.append(name)

    if base in DATA3 + MULDIV + SHIFTS:
        for op in ops[1:]:
            add(_operand_registers(op))
    elif base in MOVES:
        for op in ops[1:]:
            add(_operand_registers(op))
    elif base in COMPARES:
        for op in ops:
            add(_operand_registers(op))
    elif base in LOADS:
        for op in ops[1:]:
            add(_operand_registers(op))
    elif base in STORES:
        for op in ops:
            add(_operand_registers(op))
    elif base == "bx":
        for op in ops:
            add(_operand_registers(op))
    elif base == "push":
        add(("sp",))
        add(op.name for op in ops if isinstance(op, Reg))
    elif base == "pop":
        add(("sp",))
    if is_predicated(instr):
        # A predicated write leaves the old value when untaken: the
        # destination is also an input.
        add(defined_registers(instr))
    return tuple(used)


def defined_flags(instr: Instruction) -> tuple[str, ...]:
    """Condition-code flags the instruction writes."""
    base, _, sets_flags = split_mnemonic(instr.mnemonic)
    if base in ("cmp", "cmn"):
        return ("N", "Z", "C", "V")
    if base in ("tst", "teq"):
        return ("N", "Z")
    if sets_flags and base in ("add", "sub", "rsb"):
        return ("N", "Z", "C", "V")
    if sets_flags and base in ("and", "orr", "eor", "bic", "mov", "mvn", "mul"):
        return ("N", "Z")
    return ()


def used_flags(instr: Instruction) -> tuple[str, ...]:
    """Condition-code flags the instruction reads."""
    _, cond, _ = split_mnemonic(instr.mnemonic)
    if cond is None:
        return ()
    return CONDITION_FLAGS[cond]
