"""IA-32 opcode metadata: classification, defs/uses, flag behaviour.

Operand order is AT&T: source first, destination last.
"""

from __future__ import annotations

from repro.host_x86.registers import parent_of
from repro.isa.instruction import Instruction
from repro.isa.operands import Label, Mem, Reg

CONDITIONS = ("e", "ne", "s", "ns", "l", "ge", "g", "le", "b", "ae", "a",
              "be", "o", "no")

CONDITION_FLAGS: dict[str, tuple[str, ...]] = {
    "o": ("OF",),
    "no": ("OF",),
    "e": ("ZF",),
    "ne": ("ZF",),
    "s": ("SF",),
    "ns": ("SF",),
    "l": ("SF", "OF"),
    "ge": ("SF", "OF"),
    "g": ("ZF", "SF", "OF"),
    "le": ("ZF", "SF", "OF"),
    "b": ("CF",),
    "ae": ("CF",),
    "a": ("CF", "ZF"),
    "be": ("CF", "ZF"),
}

# src, dst two-operand ALU forms (dst also read except for movl).
BINARY_OPS = ("movl", "addl", "subl", "imull", "andl", "orl", "xorl")
UNARY_OPS = ("negl", "notl", "incl", "decl")
SHIFT_OPS = ("shll", "shrl", "sarl")
EXTEND_OPS = ("movzbl", "movsbl")
BYTE_OPS = ("movb",)
COMPARE_OPS = ("cmpl", "testl")
LEA_OPS = ("leal",)
DIV_OPS = ("cltd", "idivl")
STACK_OPS = ("pushl", "popl")
FLOW_OPS = ("jmp", "call", "ret")
JCC_OPS = tuple(f"j{cond}" for cond in CONDITIONS)
CMOV_OPS = tuple(f"cmov{cond}" for cond in CONDITIONS)
SETCC_OPS = tuple(f"set{cond}" for cond in CONDITIONS)

ALL_OPCODES = (
    BINARY_OPS + UNARY_OPS + SHIFT_OPS + EXTEND_OPS + BYTE_OPS + COMPARE_OPS
    + LEA_OPS + DIV_OPS + STACK_OPS + FLOW_OPS + JCC_OPS + CMOV_OPS
    + SETCC_OPS
)

_OPCODE_IDS = {name: index + 1 for index, name in enumerate(ALL_OPCODES)}
_JCCS = frozenset(JCC_OPS)
_BRANCHES = frozenset(FLOW_OPS + JCC_OPS)

# Everything that writes OF/SF/ZF/CF "normally" (the full set).
_FULL_FLAG_WRITERS = (
    "addl", "subl", "cmpl", "negl",
)
_LOGIC_FLAG_WRITERS = ("andl", "orl", "xorl", "testl")  # OF=CF=0, SF/ZF real


def opcode_id(instr: Instruction) -> int:
    """Stable small integer per opcode (rule-store hash key)."""
    return _OPCODE_IDS[instr.mnemonic]


def branch_condition(instr: Instruction) -> str | None:
    if instr.mnemonic in _JCCS:
        return instr.mnemonic[1:]
    return None


def is_branch(instr: Instruction) -> bool:
    return instr.mnemonic in _BRANCHES


def is_call(instr: Instruction) -> bool:
    return instr.mnemonic == "call"


def is_return(instr: Instruction) -> bool:
    return instr.mnemonic == "ret"


def is_indirect_branch(instr: Instruction) -> bool:
    if instr.mnemonic == "ret":
        return True
    if instr.mnemonic in ("jmp", "call"):
        return bool(instr.operands) and not isinstance(instr.operands[0], Label)
    return False


def is_predicated(instr: Instruction) -> bool:
    """cmovCC is x86's analogue of ARM predication."""
    return instr.mnemonic in CMOV_OPS


#: Opcodes whose destination is the last operand (two-operand ALU,
#: shift, extend, byte move, lea and cmov forms).
_DEST_LAST = frozenset(
    BINARY_OPS + SHIFT_OPS + EXTEND_OPS + BYTE_OPS + LEA_OPS + CMOV_OPS
)
#: Opcodes whose only operand is the destination.
_DEST_FIRST = frozenset(UNARY_OPS + SETCC_OPS)
#: Opcodes that read every operand; a cmov reads its destination too,
#: since it may keep the old value.
_READS_ALL = frozenset(
    BINARY_OPS[1:] + UNARY_OPS + SHIFT_OPS + COMPARE_OPS + CMOV_OPS
)
#: Plain moves: they read the source, and the address registers of a
#: memory destination.
_READS_SOURCE = frozenset(("movl",) + EXTEND_OPS + BYTE_OPS + LEA_OPS)
#: Opcodes that read their first operand, after the registers they read
#: implicitly (setcc writes one byte: the rest of the destination
#: survives).
_READS_FIRST = frozenset(SETCC_OPS + ("idivl", "pushl", "jmp"))
#: Registers an opcode reads or writes beside its operands.
_IMPLICIT_USES = {
    "cltd": ("eax",), "idivl": ("eax", "edx"), "pushl": ("esp",),
    "popl": ("esp",), "ret": ("esp",),
}
_IMPLICIT_DEFS = {
    "cltd": ("edx",), "idivl": ("eax", "edx"), "pushl": ("esp",),
    "call": ("esp",), "ret": ("esp",),
}


def _operand_regs(op) -> tuple[str, ...]:
    """The registers one operand names: a register by its 32-bit
    parent, a memory operand by its base and index."""
    if isinstance(op, Reg):
        return (parent_of(op.name),)
    if isinstance(op, Mem):
        base, index = op.base, op.index
        if base is None:
            return () if index is None else (index.name,)
        if index is None or index.name == base.name:
            return (base.name,)
        return (base.name, index.name)
    return ()


def _joined(first: tuple[str, ...], second: tuple[str, ...]
            ) -> tuple[str, ...]:
    """``first`` then ``second``, each name once, in first-seen order."""
    if not second:
        return first
    if not first:
        return second
    return tuple(dict.fromkeys(first + second))


def defined_registers(instr: Instruction) -> tuple[str, ...]:
    name = instr.mnemonic
    ops = instr.operands
    if name in _DEST_LAST:
        dst = ops[-1]
        return (parent_of(dst.name),) if isinstance(dst, Reg) else ()
    if name in _DEST_FIRST:
        dst = ops[0]
        return (parent_of(dst.name),) if isinstance(dst, Reg) else ()
    if name == "popl":
        if ops and isinstance(ops[0], Reg):
            return ("esp", parent_of(ops[0].name))
        return ("esp",)
    return _IMPLICIT_DEFS.get(name, ())


def used_registers(instr: Instruction) -> tuple[str, ...]:
    name = instr.mnemonic
    ops = instr.operands
    if name in _READS_ALL:
        names: tuple[str, ...] = ()
        for op in ops:
            names = _joined(names, _operand_regs(op))
        return names
    if name in _READS_SOURCE:
        names = _operand_regs(ops[0])
        if isinstance(ops[-1], Mem):
            return _joined(names, _operand_regs(ops[-1]))
        return names
    first = _operand_regs(ops[0]) if ops else ()
    if name in _READS_FIRST:
        return _joined(_IMPLICIT_USES.get(name, ()), first)
    if name == "call":
        return _joined(first, ("esp",))
    return _IMPLICIT_USES.get(name, ())


def defined_flags(instr: Instruction) -> tuple[str, ...]:
    name = instr.mnemonic
    if name in _FULL_FLAG_WRITERS:
        return ("OF", "SF", "ZF", "CF")
    if name in _LOGIC_FLAG_WRITERS:
        return ("OF", "SF", "ZF", "CF")  # OF/CF cleared = still written
    if name in ("incl", "decl"):
        return ("OF", "SF", "ZF")  # CF preserved
    if name in SHIFT_OPS:
        return ("SF", "ZF", "CF")  # OF left unmodeled/undefined
    if name == "imull":
        return ("OF", "CF")
    if name == "notl":
        return ()
    return ()


def used_flags(instr: Instruction) -> tuple[str, ...]:
    cond = branch_condition(instr)
    if cond is not None:
        return CONDITION_FLAGS[cond]
    if instr.mnemonic in CMOV_OPS:
        return CONDITION_FLAGS[instr.mnemonic[4:]]
    if instr.mnemonic in SETCC_OPS:
        return CONDITION_FLAGS[instr.mnemonic[3:]]
    return ()
