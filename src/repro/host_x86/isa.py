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

# Everything that writes OF/SF/ZF/CF "normally" (the full set).
_FULL_FLAG_WRITERS = (
    "addl", "subl", "cmpl", "negl",
)
_LOGIC_FLAG_WRITERS = ("andl", "orl", "xorl", "testl")  # OF=CF=0, SF/ZF real


def opcode_id(instr: Instruction) -> int:
    """Stable small integer per opcode (rule-store hash key)."""
    return _OPCODE_IDS[instr.mnemonic]


def branch_condition(instr: Instruction) -> str | None:
    if instr.mnemonic in JCC_OPS:
        return instr.mnemonic[1:]
    return None


def is_branch(instr: Instruction) -> bool:
    return instr.mnemonic in FLOW_OPS or instr.mnemonic in JCC_OPS


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


def _operand_regs(op) -> tuple[str, ...]:
    if isinstance(op, Reg):
        return (parent_of(op.name),)
    if isinstance(op, Mem):
        return tuple(reg.name for reg in op.registers())
    return ()


def defined_registers(instr: Instruction) -> tuple[str, ...]:
    name = instr.mnemonic
    ops = instr.operands
    if name in BINARY_OPS or name in SHIFT_OPS or name in EXTEND_OPS or (
        name in BYTE_OPS
    ) or name in LEA_OPS or name in CMOV_OPS:
        dst = ops[-1]
        if isinstance(dst, Reg):
            return (parent_of(dst.name),)
        return ()
    if name in UNARY_OPS:
        return (parent_of(ops[0].name),) if isinstance(ops[0], Reg) else ()
    if name in SETCC_OPS:
        return (parent_of(ops[0].name),) if isinstance(ops[0], Reg) else ()
    if name == "cltd":
        return ("edx",)
    if name == "idivl":
        return ("eax", "edx")
    if name == "pushl":
        return ("esp",)
    if name == "popl":
        dst = (parent_of(ops[0].name),) if ops and isinstance(ops[0], Reg) else ()
        return ("esp",) + dst
    if name == "call":
        return ("esp",)
    if name == "ret":
        return ("esp",)
    return ()


def used_registers(instr: Instruction) -> tuple[str, ...]:
    name = instr.mnemonic
    ops = instr.operands
    used: list[str] = []

    def add(names) -> None:
        for reg in names:
            if reg not in used:
                used.append(reg)

    if name == "movl" or name in EXTEND_OPS or name in BYTE_OPS or name in LEA_OPS:
        add(_operand_regs(ops[0]))
        if isinstance(ops[-1], Mem):
            add(_operand_regs(ops[-1]))
    elif name in BINARY_OPS:  # add/sub/... read both operands
        for op in ops:
            add(_operand_regs(op))
    elif name in UNARY_OPS:
        for op in ops:
            add(_operand_regs(op))
    elif name in SHIFT_OPS:
        for op in ops:
            add(_operand_regs(op))
    elif name in COMPARE_OPS:
        for op in ops:
            add(_operand_regs(op))
    elif name in CMOV_OPS:
        for op in ops:
            add(_operand_regs(op))  # dst read too (may keep old value)
    elif name in SETCC_OPS:
        add(_operand_regs(ops[0]))  # byte write: the rest of dst survives
    elif name == "cltd":
        add(("eax",))
    elif name == "idivl":
        add(("eax", "edx"))
        add(_operand_regs(ops[0]))
    elif name == "pushl":
        add(("esp",))
        add(_operand_regs(ops[0]))
    elif name == "popl":
        add(("esp",))
    elif name in ("jmp", "call"):
        if ops and not isinstance(ops[0], Label):
            add(_operand_regs(ops[0]))
        if name == "call":
            add(("esp",))
    elif name == "ret":
        add(("esp",))
    return tuple(used)


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
