"""ARM guest frontend: decode a guest block into TCG ops.

One guest instruction becomes several TCG micro-ops — register loads,
the operation itself, eager NZCV computation for flag-setting
instructions, register/flag stores — reproducing the expansion that
makes QEMU-translated code slower than rule-translated code.

The ops come from the ARM semantics the verifier proves rules against:
:func:`translate_instruction` runs :func:`repro.guest_arm.execute` on a
:class:`TcgState` with a :class:`TcgALU`, which emit ops instead of
computing values.
"""

from __future__ import annotations

from repro.guest_arm.semantics import execute
from repro.isa.alu import ConcreteALU
from repro.isa.instruction import Instruction
from repro.isa.operands import Label
from repro.minic.compile import CompiledProgram
from repro.dbt.tcg import TcgBlock, TcgCond, TcgOp

_WORD = 4


class FrontendError(Exception):
    """The guest instruction cannot be translated."""


def discover_block(program: CompiledProgram, start_index: int
                   ) -> list[Instruction]:
    """Guest basic block: instructions up to and including the first
    branch (QEMU's translation unit)."""
    from repro.guest_arm import isa as arm_isa

    block: list[Instruction] = []
    index = start_index
    label_positions = set(program.labels.values())
    while index < len(program.code):
        instr = program.code[index]
        block.append(instr)
        if arm_isa.is_branch(instr):
            break
        index += 1
        if index in label_positions:
            break  # a label starts a new block (join point)
    return block


def translate_block(program: CompiledProgram, start_index: int
                    ) -> tuple[TcgBlock, list[Instruction]]:
    """Translate the guest block at ``start_index`` into TCG ops."""
    instrs = discover_block(program, start_index)
    guest_addr = 0x8000 + _WORD * start_index
    block = TcgBlock(guest_start=guest_addr)
    for offset, instr in enumerate(instrs):
        translate_instruction(program, block, instr,
                              guest_addr + _WORD * offset)
    if not block.ops or block.ops[-1].op not in (
        "brcond", "goto_tb", "exit_indirect"
    ):
        # Fall-through into the next block (split at a label).
        block.emit(op="goto_tb", taken=guest_addr + _WORD * len(instrs))
    return block, instrs


def translate_instruction(
    program: CompiledProgram,
    block: TcgBlock,
    instr: Instruction,
    pc: int,
) -> None:
    """Append the TCG ops of ``instr``, at guest address ``pc``, to
    ``block``."""
    state = TcgState(block, pc)
    branch = execute(instr, state, _TCG_ALU).branch
    if branch is None:
        return
    if not isinstance(branch.target, Label):
        block.emit(op="exit_indirect", a=state.temp(branch.target))
        return
    taken = program.addr_of(branch.target.name)
    if type(branch.cond) is int:
        block.emit(op="goto_tb", taken=taken)
    else:
        block.emit(op="brcond", cond=TcgCond.NE,
                   a=state.operand(branch.cond), b=0, taken=taken,
                   fallthrough=pc + _WORD)


class _Node:
    """A TCG value: the op ``op`` on its ``fields`` (ints, names or
    nodes), given a temp when :meth:`TcgState.operand` emits it."""

    __slots__ = ("op", "fields", "temp")

    def __init__(self, op: str, **fields) -> None:
        self.op = op
        self.fields = fields
        self.temp: str | None = None


_CONCRETE = ConcreteALU()


def _op(name: str, op: str, a, b, **fields):
    """``ConcreteALU.<name>(a, b)`` when both are constants, else a node
    for the TCG op ``op``."""
    if type(a) is int and type(b) is int:
        return getattr(_CONCRETE, name)(a, b)
    return _Node(op, **fields, a=a, b=b)


def _copied(value):
    """A register copied into a register goes through a ``mov`` temp
    (QEMU's expansion of ``mov``)."""
    if type(value) is _Node and value.op == "ld_reg":
        return _Node("mov", a=value)
    return value


class TcgALU:
    """The ALU :func:`execute` runs on to emit TCG: an operation on a
    node is a node for its TCG op, and one on constants folds through
    ``ConcreteALU``.  It folds no identities: ``x + 0`` stays an
    ``add``."""

    def const(self, width: int, value: int) -> int:
        return value & (1 << width) - 1

    def add(self, a, b):
        return _op("add", "add", a, b)

    def sub(self, a, b):
        return _op("sub", "sub", a, b)

    def mul(self, a, b):
        return _op("mul", "mul", a, b)

    def sdiv(self, a, b):
        raise FrontendError("TCG has no division op")

    udiv = sdiv

    def and_(self, a, b):
        return _op("and_", "and", a, b)

    def or_(self, a, b):
        return _op("or_", "or", a, b)

    def xor(self, a, b):
        return _op("xor", "xor", a, b)

    bool_and, bool_or = and_, or_

    def bool_not(self, a):
        return self.xor(a, 1)

    def not_(self, a):
        return _CONCRETE.not_(a) if type(a) is int else _Node("not", a=a)

    def shl(self, a, b):
        return _op("shl", "shl", a, b)

    def lshr(self, a, b):
        return _op("lshr", "shr", a, b)

    def ashr(self, a, b):
        return _op("ashr", "sar", a, b)

    def eq(self, a, b):
        return _op("eq", "setcond", a, b, cond=TcgCond.EQ)

    def ult(self, a, b):
        return _op("ult", "setcond", a, b, cond=TcgCond.LTU)

    def ite(self, cond, then, other):
        if type(cond) is int:
            return then if cond else other
        return _Node("movcond", a=cond, b=_copied(then), c=other)

    def extract(self, hi: int, lo: int, a):
        if type(a) is int:
            return _CONCRETE.extract(hi, lo, a)
        if (hi, lo) == (31, 31):
            return _Node("setcond", cond=TcgCond.LT, a=a, b=0)
        if (hi, lo) == (7, 0):
            return _Node("and", a=a, b=0xFF)
        raise FrontendError(f"no TCG op extracts bits {hi}:{lo}")

    def zext(self, width: int, a):
        return a


_TCG_ALU = TcgALU()

#: The flags one ``cmp_flags`` of each kind sets.
_CMP_FLAGS = {"add": "NZCV", "sub": "NZCV", "and": "NZ", "xor": "NZ"}


class TcgState:
    """The machine state :func:`execute` runs one instruction at guest
    address ``pc`` on, emitting its ops into ``block``.

    A register read is a node, emitted only when something consumes it;
    ``pc`` reads as the constant ``pc``.  A flag read or a load emits
    its op at once, and so does a write, after the pending ops of its
    value in post-order.  N and Z (and C and V) set from an ``add``,
    ``sub``, ``and`` or ``xor`` no register received become one
    ``cmp_flags``."""

    def __init__(self, block: TcgBlock, pc: int) -> None:
        self.block = block
        self.pc = pc
        #: The flags this instruction's ``cmp_flags`` set.
        self.compared = ""

    def operand(self, value):
        """``value`` as an op operand: an immediate, or the temp of a
        node, emitting the node's pending ops first."""
        if type(value) is not _Node:
            return value
        if value.temp is None:
            fields = value.fields
            for key, arg in fields.items():
                if type(arg) is _Node:
                    fields[key] = self.operand(arg)
            value.temp = self.block.new_temp()
            self.block.ops.append(TcgOp(value.op, value.temp, **fields))
        return value.temp

    def temp(self, value) -> str:
        """``value`` in a temp: a ``movi`` for a constant."""
        return self.operand(_Node("movi", a=value)
                            if type(value) is int else value)

    def _emitted(self, op: str, **fields) -> _Node:
        node = _Node(op, **fields)
        self.operand(node)
        return node

    def get_reg(self, name: str):
        return self.pc if name == "pc" else _Node("ld_reg", reg=name)

    def get_flag(self, name: str) -> _Node:
        return self._emitted("ld_flag", flag=name)

    def load(self, addr, size: int) -> _Node:
        return self._emitted("qemu_ld", a=self.temp(addr), size=size)

    def set_reg(self, name: str, value) -> None:
        self.block.emit(op="st_reg", reg=name, a=self.temp(_copied(value)))

    def set_flag(self, name: str, value) -> None:
        if name in self.compared:
            return
        if name == "N" and type(value) is _Node and value.op == "setcond":
            result = value.fields["a"]
            if (type(result) is _Node and result.op in _CMP_FLAGS
                    and result.temp is None):
                self.compared = _CMP_FLAGS[result.op]
                self.block.emit(op="cmp_flags", flag=result.op,
                                a=self.operand(result.fields["a"]),
                                b=self.operand(result.fields["b"]))
                return
        self.block.emit(op="st_flag", flag=name, a=self.temp(value))

    def store(self, addr, value, size: int) -> None:
        if (size == 1 and type(value) is _Node and value.op == "and"
                and value.fields["b"] == 0xFF):
            value = value.fields["a"]  # a 1-byte store truncates anyway
        value = self.temp(value)
        self.block.emit(op="qemu_st", a=self.temp(addr), b=value, size=size)
