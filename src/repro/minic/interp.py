"""TAC interpreter: the ground-truth oracle for MiniC programs.

Used by tests to check that both backends (and the DBT on top of them)
compute exactly what the source program means.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.expr import to_signed
from repro.minic.tac import Instr, TacFunction, TacProgram, TAddr

_GLOBAL_BASE = 0x1000
_STACK_TOP = 0x0100_0000
_MASK = 0xFFFFFFFF


class TacRuntimeError(Exception):
    """Runtime fault in the TAC interpreter (bad memory access, ...)."""


@dataclass
class _Machine:
    memory: dict[int, int] = field(default_factory=dict)  # byte -> value
    global_addrs: dict[str, int] = field(default_factory=dict)
    sp: int = _STACK_TOP
    steps: int = 0
    step_limit: int = 500_000_000

    def load(self, addr: int, size: int) -> int:
        value = 0
        for i in range(size):
            value |= self.memory.get(addr + i, 0) << (8 * i)
        return value

    def store(self, addr: int, value: int, size: int) -> None:
        for i in range(size):
            self.memory[addr + i] = (value >> (8 * i)) & 0xFF


def run_tac(program: TacProgram, entry: str = "main",
            args: tuple[int, ...] = ()) -> int:
    """Interpret ``program`` starting from ``entry``; returns its result."""
    machine = _Machine()
    addr = _GLOBAL_BASE
    for data in program.globals.values():
        machine.global_addrs[data.name] = addr
        for i, value in enumerate(data.init):
            machine.store(addr + i * data.elem_size, value & _MASK,
                          data.elem_size)
        addr += (data.size + 3) & ~3
    func = program.functions.get(entry)
    if func is None:
        raise TacRuntimeError(f"no function named {entry!r}")
    return _call(program, machine, func, tuple(arg & _MASK for arg in args))


def binop(op: str, a: int, b: int) -> int:
    """The word ``a <op> b`` computes (the constant folder's semantics
    too); raises :class:`TacRuntimeError` where it has none."""
    sa, sb = to_signed(a, 32), to_signed(b, 32)
    if op == "+":
        return (a + b) & _MASK
    if op == "-":
        return (a - b) & _MASK
    if op == "*":
        return (a * b) & _MASK
    if op == "/":
        if sb == 0:
            raise TacRuntimeError("division by zero")
        quotient = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            quotient = -quotient
        return quotient & _MASK
    if op == "%":
        if sb == 0:
            raise TacRuntimeError("modulo by zero")
        quotient = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            quotient = -quotient
        return (sa - quotient * sb) & _MASK
    if op == "&":
        return a & b
    if op == "|":
        return a | b
    if op == "^":
        return a ^ b
    if op == "<<":
        return 0 if b >= 32 else (a << b) & _MASK
    if op == ">>":
        return (sa >> min(b, 31)) & _MASK
    if op == "u>>":
        return 0 if b >= 32 else (a & _MASK) >> b
    raise TacRuntimeError(f"unknown binary op {op!r}")


def compare(op: str, a: int, b: int) -> bool:
    """Does the comparison ``a <op> b`` hold?"""
    sa, sb = to_signed(a, 32), to_signed(b, 32)
    table = {
        "==": a == b, "!=": a != b,
        "<": sa < sb, "<=": sa <= sb, ">": sa > sb, ">=": sa >= sb,
        "u<": a < b, "u<=": a <= b, "u>": a > b, "u>=": a >= b,
    }
    if op not in table:
        raise TacRuntimeError(f"unknown comparison {op!r}")
    return table[op]


def _call(program: TacProgram, machine: _Machine, func: TacFunction,
          args: tuple[int, ...]) -> int:
    env: dict[str, int] = {}
    for vreg, value in zip(func.params, args):
        env[vreg] = value
    # Allocate stack slots for this frame.
    saved_sp = machine.sp
    slot_addrs: dict[str, int] = {}
    for slot in func.slots.values():
        machine.sp -= (slot.size + 3) & ~3
        slot_addrs[slot.name] = machine.sp
    labels = {
        instr.label: index
        for index, instr in enumerate(func.instrs)
        if instr.op == "label"
    }

    def value_of(value) -> int:
        if isinstance(value, int):
            return value & _MASK
        try:
            return env[value]
        except KeyError as exc:
            raise TacRuntimeError(f"use of undefined value {value}") from exc

    def addr_of(taddr: TAddr) -> int:
        addr = taddr.disp
        if taddr.symbol is not None:
            if taddr.symbol in slot_addrs:
                addr += slot_addrs[taddr.symbol]
            elif taddr.symbol in machine.global_addrs:
                addr += machine.global_addrs[taddr.symbol]
            else:
                raise TacRuntimeError(f"unknown symbol {taddr.symbol!r}")
        if taddr.base is not None:
            addr += value_of(taddr.base)
        if taddr.index is not None:
            addr += value_of(taddr.index) * taddr.scale
        return addr & _MASK

    pc = 0
    result = 0
    while pc < len(func.instrs):
        machine.steps += 1
        if machine.steps > machine.step_limit:
            raise TacRuntimeError("step limit exceeded")
        instr: Instr = func.instrs[pc]
        op = instr.op
        if op in ("label",):
            pc += 1
            continue
        if op == "const":
            env[instr.dest] = value_of(instr.a)
        elif op == "copy":
            env[instr.dest] = value_of(instr.a)
        elif op == "bin":
            env[instr.dest] = binop(instr.bin_op, value_of(instr.a),
                                    value_of(instr.b))
        elif op == "un":
            value = value_of(instr.a)
            env[instr.dest] = (-value if instr.bin_op == "neg" else ~value) & _MASK
        elif op == "load":
            env[instr.dest] = machine.load(addr_of(instr.addr), instr.size)
        elif op == "store":
            machine.store(addr_of(instr.addr), value_of(instr.a), instr.size)
        elif op == "la":
            env[instr.dest] = addr_of(instr.addr)
        elif op == "call":
            callee = program.functions.get(instr.name)
            if callee is None:
                raise TacRuntimeError(f"call to unknown function {instr.name!r}")
            call_args = tuple(value_of(arg) for arg in instr.args)
            value = _call(program, machine, callee, call_args)
            if instr.dest is not None:
                env[instr.dest] = value
        elif op == "ret":
            result = value_of(instr.a) if instr.a is not None else 0
            break
        elif op == "jmp":
            pc = labels[instr.label]
            continue
        elif op == "cbr":
            taken = compare(instr.bin_op, value_of(instr.a), value_of(instr.b))
            pc = labels[instr.label if taken else instr.label2]
            continue
        elif op == "select":
            taken = compare(instr.bin_op, value_of(instr.a), value_of(instr.b))
            env[instr.dest] = value_of(instr.tval if taken else instr.fval)
        else:
            raise TacRuntimeError(f"unknown TAC op {op!r}")
        pc += 1
    machine.sp = saved_sp
    return result
