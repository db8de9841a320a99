"""Closure-compiled host-code execution (the engine's fast path).

The generic path interprets every host instruction through the
single-source semantics; that is the oracle, but it costs several
dict/dataclass hops per instruction.  For the benchmark harness each
translated block is instead *pre-compiled* into a list of Python
closures — one per host instruction — operating directly on the
register/flag/memory dicts.  A differential test
(``tests/dbt/test_fastexec.py``) checks the two paths instruction by
instruction.

Each step closure returns ``None`` to fall through or a branch-target
token (the ``Label`` name) when a (taken) control transfer occurs.

Blocks the engine finds hot are then *fused* (:func:`fuse_block`): the
whole block becomes one generated Python function, compiled once, that
keeps registers, flags and static 4-byte memory words in locals, writes
them back at each exit, and returns ``(next guest pc, exit index)``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.dbt.codegen import ENV_BASE, EXIT_LABEL, NEXT_PC_OFFSET
from repro.host_x86.isa import (
    CMOV_OPS,
    CONDITION_FLAGS,
    JCC_OPS,
    SETCC_OPS,
    defined_flags,
    used_flags,
)
from repro.host_x86.registers import is_low8, parent_of
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Label, Mem, Reg

_MASK = 0xFFFFFFFF

Step = Callable[[dict, dict, dict], str | None]


class FastExecError(Exception):
    """An instruction form the fast path cannot compile."""


def _reader(op) -> Callable[[dict, dict, dict], int]:
    """Closure producing a 32-bit source value."""
    if isinstance(op, Imm):
        value = op.value & _MASK
        return lambda regs, flags, mem: value
    if isinstance(op, Reg):
        if is_low8(op.name):
            parent = parent_of(op.name)
            return lambda regs, flags, mem: regs.get(parent, 0) & 0xFF
        name = op.name
        return lambda regs, flags, mem: regs.get(name, 0)
    if isinstance(op, Mem):
        addr = _addr_fn(op)
        return lambda regs, flags, mem: (
            mem.get((a := addr(regs)), 0)
            | mem.get(a + 1, 0) << 8
            | mem.get(a + 2, 0) << 16
            | mem.get(a + 3, 0) << 24
        )
    raise FastExecError(f"unreadable operand {op!r}")


def _byte_reader(op) -> Callable[[dict, dict, dict], int]:
    if isinstance(op, Imm):
        value = op.value & 0xFF
        return lambda regs, flags, mem: value
    if isinstance(op, Reg):
        parent = parent_of(op.name)
        return lambda regs, flags, mem: regs.get(parent, 0) & 0xFF
    if isinstance(op, Mem):
        addr = _addr_fn(op)
        return lambda regs, flags, mem: mem.get(addr(regs), 0)
    raise FastExecError(f"unreadable byte operand {op!r}")


def _addr_fn(mem_op: Mem) -> Callable[[dict], int]:
    base = mem_op.base.name if mem_op.base else None
    index = mem_op.index.name if mem_op.index else None
    scale = mem_op.scale
    disp = mem_op.disp & _MASK
    if base and index:
        return lambda regs: (
            regs.get(base, 0) + regs.get(index, 0) * scale + disp
        ) & _MASK
    if base:
        return lambda regs: (regs.get(base, 0) + disp) & _MASK
    if index:
        return lambda regs: (regs.get(index, 0) * scale + disp) & _MASK
    return lambda regs: disp


def _writer(op) -> Callable[[dict, dict, dict, int], None]:
    """Closure storing a 32-bit value into a destination."""
    if isinstance(op, Reg):
        if is_low8(op.name):
            parent = parent_of(op.name)

            def write_low8(regs, flags, mem, value):
                regs[parent] = (regs.get(parent, 0) & 0xFFFFFF00) | (
                    value & 0xFF
                )

            return write_low8
        name = op.name
        def write_reg(regs, flags, mem, value):
            regs[name] = value
        return write_reg
    if isinstance(op, Mem):
        addr = _addr_fn(op)

        def write_mem(regs, flags, mem, value):
            a = addr(regs)
            mem[a] = value & 0xFF
            mem[a + 1] = (value >> 8) & 0xFF
            mem[a + 2] = (value >> 16) & 0xFF
            mem[a + 3] = (value >> 24) & 0xFF

        return write_mem
    raise FastExecError(f"unwritable operand {op!r}")


def _byte_writer(op) -> Callable[[dict, dict, dict, int], None]:
    if isinstance(op, Reg):
        parent = parent_of(op.name)

        def write_low8(regs, flags, mem, value):
            regs[parent] = (regs.get(parent, 0) & 0xFFFFFF00) | (value & 0xFF)

        return write_low8
    if isinstance(op, Mem):
        addr = _addr_fn(op)

        def write_mem(regs, flags, mem, value):
            mem[addr(regs)] = value & 0xFF

        return write_mem
    raise FastExecError(f"unwritable byte operand {op!r}")


def _cond_fn(cc: str) -> Callable[[dict], bool]:
    if cc == "o":
        return lambda flags: flags.get("OF", 0) == 1
    if cc == "no":
        return lambda flags: flags.get("OF", 0) == 0
    if cc == "e":
        return lambda flags: flags.get("ZF", 0) == 1
    if cc == "ne":
        return lambda flags: flags.get("ZF", 0) == 0
    if cc == "s":
        return lambda flags: flags.get("SF", 0) == 1
    if cc == "ns":
        return lambda flags: flags.get("SF", 0) == 0
    if cc == "b":
        return lambda flags: flags.get("CF", 0) == 1
    if cc == "ae":
        return lambda flags: flags.get("CF", 0) == 0
    if cc == "a":
        return lambda flags: flags.get("CF", 0) == 0 and \
            flags.get("ZF", 0) == 0
    if cc == "be":
        return lambda flags: flags.get("CF", 0) == 1 or \
            flags.get("ZF", 0) == 1
    if cc == "l":
        return lambda flags: flags.get("SF", 0) != flags.get("OF", 0)
    if cc == "ge":
        return lambda flags: flags.get("SF", 0) == flags.get("OF", 0)
    if cc == "g":
        return lambda flags: flags.get("ZF", 0) == 0 and \
            flags.get("SF", 0) == flags.get("OF", 0)
    if cc == "le":
        return lambda flags: flags.get("ZF", 0) == 1 or \
            flags.get("SF", 0) != flags.get("OF", 0)
    raise FastExecError(f"unknown condition {cc!r}")


def compile_instruction(instr: Instruction) -> Step:
    """Compile one host instruction into a step closure."""
    name = instr.mnemonic
    ops = instr.operands

    if name == "movl":
        read = _reader(ops[0])
        write = _writer(ops[1])

        def step_movl(regs, flags, mem):
            write(regs, flags, mem, read(regs, flags, mem))
        return step_movl

    if name in ("addl", "subl", "imull", "andl", "orl", "xorl"):
        read_src = _reader(ops[0])
        read_dst = _reader(ops[1])
        write = _writer(ops[1])
        if name == "addl":
            def step_addl(regs, flags, mem):
                dst = read_dst(regs, flags, mem)
                src = read_src(regs, flags, mem)
                result = (dst + src) & _MASK
                write(regs, flags, mem, result)
                flags["SF"] = result >> 31
                flags["ZF"] = 1 if result == 0 else 0
                flags["CF"] = 1 if result < dst else 0
                flags["OF"] = ((dst ^ result) & ~(dst ^ src)) >> 31 & 1
            return step_addl
        if name == "subl":
            def step_subl(regs, flags, mem):
                dst = read_dst(regs, flags, mem)
                src = read_src(regs, flags, mem)
                result = (dst - src) & _MASK
                write(regs, flags, mem, result)
                flags["SF"] = result >> 31
                flags["ZF"] = 1 if result == 0 else 0
                flags["CF"] = 1 if dst < src else 0
                flags["OF"] = ((dst ^ src) & (dst ^ result)) >> 31 & 1
            return step_subl
        if name == "imull":
            def step_imull(regs, flags, mem):
                dst = read_dst(regs, flags, mem)
                src = read_src(regs, flags, mem)
                sd = dst - (1 << 32) if dst >> 31 else dst
                ss = src - (1 << 32) if src >> 31 else src
                product = sd * ss
                write(regs, flags, mem, product & _MASK)
                overflow = 0 if -(1 << 31) <= product < (1 << 31) else 1
                flags["OF"] = overflow
                flags["CF"] = overflow
            return step_imull
        pyop = {"andl": "&", "orl": "|", "xorl": "^"}[name]

        def step_logic(regs, flags, mem, _op=pyop):
            dst = read_dst(regs, flags, mem)
            src = read_src(regs, flags, mem)
            if _op == "&":
                result = dst & src
            elif _op == "|":
                result = dst | src
            else:
                result = dst ^ src
            write(regs, flags, mem, result)
            flags["SF"] = result >> 31
            flags["ZF"] = 1 if result == 0 else 0
            flags["CF"] = 0
            flags["OF"] = 0
        return step_logic

    if name in ("cmpl", "testl"):
        read_src = _reader(ops[0])
        read_dst = _reader(ops[1])
        if name == "cmpl":
            def step_cmpl(regs, flags, mem):
                dst = read_dst(regs, flags, mem)
                src = read_src(regs, flags, mem)
                result = (dst - src) & _MASK
                flags["SF"] = result >> 31
                flags["ZF"] = 1 if result == 0 else 0
                flags["CF"] = 1 if dst < src else 0
                flags["OF"] = ((dst ^ src) & (dst ^ result)) >> 31 & 1
            return step_cmpl

        def step_testl(regs, flags, mem):
            result = read_dst(regs, flags, mem) & read_src(regs, flags, mem)
            flags["SF"] = result >> 31
            flags["ZF"] = 1 if result == 0 else 0
            flags["CF"] = 0
            flags["OF"] = 0
        return step_testl

    if name == "leal":
        addr = _addr_fn(ops[0])
        write = _writer(ops[1])

        def step_leal(regs, flags, mem):
            write(regs, flags, mem, addr(regs))
        return step_leal

    if name in ("movzbl", "movsbl"):
        read = _byte_reader(ops[0])
        write = _writer(ops[1])
        signed = name == "movsbl"

        def step_movxbl(regs, flags, mem):
            value = read(regs, flags, mem)
            if signed and value & 0x80:
                value |= 0xFFFFFF00
            write(regs, flags, mem, value)
        return step_movxbl

    if name == "movb":
        read = _byte_reader(ops[0])
        write = _byte_writer(ops[1])

        def step_movb(regs, flags, mem):
            write(regs, flags, mem, read(regs, flags, mem))
        return step_movb

    if name in ("negl", "notl", "incl", "decl"):
        read = _reader(ops[0])
        write = _writer(ops[0])
        if name == "negl":
            def step_negl(regs, flags, mem):
                value = read(regs, flags, mem)
                result = (-value) & _MASK
                write(regs, flags, mem, result)
                flags["SF"] = result >> 31
                flags["ZF"] = 1 if result == 0 else 0
                flags["CF"] = 1 if 0 < value else 0
                flags["OF"] = (value & result) >> 31 & 1
            return step_negl
        if name == "notl":
            def step_notl(regs, flags, mem):
                write(regs, flags, mem, ~read(regs, flags, mem) & _MASK)
            return step_notl
        delta = 1 if name == "incl" else -1

        def step_incdec(regs, flags, mem, _d=delta):
            value = read(regs, flags, mem)
            result = (value + _d) & _MASK
            write(regs, flags, mem, result)
            flags["SF"] = result >> 31
            flags["ZF"] = 1 if result == 0 else 0
            if _d == 1:
                flags["OF"] = 1 if value == 0x7FFFFFFF else 0
            else:
                flags["OF"] = 1 if value == 0x80000000 else 0
        return step_incdec

    if name in ("shll", "shrl", "sarl"):
        return _compile_shift(name, ops)

    if name in SETCC_OPS:
        cond = _cond_fn(name[3:])
        write = _byte_writer(ops[0])

        def step_setcc(regs, flags, mem):
            write(regs, flags, mem, 1 if cond(flags) else 0)
        return step_setcc

    if name in CMOV_OPS:
        cond = _cond_fn(name[4:])
        read = _reader(ops[0])
        write = _writer(ops[1])

        def step_cmov(regs, flags, mem):
            if cond(flags):
                write(regs, flags, mem, read(regs, flags, mem))
        return step_cmov

    if name in JCC_OPS and isinstance(ops[0], Label):
        cond = _cond_fn(name[1:])
        target = ops[0].name

        def step_jcc(regs, flags, mem):
            return target if cond(flags) else None
        return step_jcc

    if name == "jmp" and isinstance(ops[0], Label):
        target = ops[0].name

        def step_jmp(regs, flags, mem):
            return target
        return step_jmp

    if name == "cltd":
        def step_cltd(regs, flags, mem):
            regs["edx"] = _MASK if regs.get("eax", 0) >> 31 else 0
        return step_cltd

    if name == "idivl":
        read = _reader(ops[0])

        def step_idivl(regs, flags, mem):
            lo = regs.get("eax", 0)
            hi = regs.get("edx", 0)
            dividend = (hi << 32) | lo
            if dividend >> 63:
                dividend -= 1 << 64
            divisor = read(regs, flags, mem)
            if divisor >> 31:
                divisor -= 1 << 32
            if divisor == 0:
                regs["eax"] = _MASK
                regs["edx"] = lo
                return None
            quotient = abs(dividend) // abs(divisor)
            if (dividend < 0) != (divisor < 0):
                quotient = -quotient
            remainder = dividend - quotient * divisor
            regs["eax"] = quotient & _MASK
            regs["edx"] = remainder & _MASK
        return step_idivl

    raise FastExecError(f"fast path cannot compile {instr}")


def _compile_shift(name: str, ops) -> Step:
    dest_read = _reader(ops[1])
    dest_write = _writer(ops[1])
    if isinstance(ops[0], Imm):
        count = ops[0].value & 31

        def step_shift_imm(regs, flags, mem):
            if count == 0:
                return None
            value = dest_read(regs, flags, mem)
            if name == "shll":
                result = (value << count) & _MASK
                last_out = (value >> (32 - count)) & 1
            elif name == "shrl":
                result = value >> count
                last_out = (value >> (count - 1)) & 1
            else:
                signed = value - (1 << 32) if value >> 31 else value
                result = (signed >> count) & _MASK
                last_out = (signed >> (count - 1)) & 1
            dest_write(regs, flags, mem, result)
            flags["SF"] = result >> 31
            flags["ZF"] = 1 if result == 0 else 0
            flags["CF"] = last_out
        return step_shift_imm

    def step_shift_cl(regs, flags, mem):
        count = regs.get("ecx", 0) & 31
        if count == 0:
            return None
        value = dest_read(regs, flags, mem)
        if name == "shll":
            result = (value << count) & _MASK
            last_out = (value >> (32 - count)) & 1
        elif name == "shrl":
            result = value >> count
            last_out = (value >> (count - 1)) & 1
        else:
            signed = value - (1 << 32) if value >> 31 else value
            result = (signed >> count) & _MASK
            last_out = (signed >> (count - 1)) & 1
        dest_write(regs, flags, mem, result)
        flags["SF"] = result >> 31
        flags["ZF"] = 1 if result == 0 else 0
        flags["CF"] = last_out
    return step_shift_cl


def compile_block(instrs: list[Instruction]) -> list[Step]:
    """Compile a translated block's host code into step closures."""
    return [compile_instruction(instr) for instr in instrs]


# -- fused blocks ---------------------------------------------------------------

_FLAGS = ("OF", "SF", "ZF", "CF")

#: Python source of each condition code over the flag locals; the same
#: comparisons as :func:`_cond_fn`.
_COND_SOURCE = {
    "o": "f_OF == 1",
    "no": "f_OF == 0",
    "e": "f_ZF == 1",
    "ne": "f_ZF == 0",
    "s": "f_SF == 1",
    "ns": "f_SF == 0",
    "b": "f_CF == 1",
    "ae": "f_CF == 0",
    "a": "f_CF == 0 and f_ZF == 0",
    "be": "f_CF == 1 or f_ZF == 1",
    "l": "f_SF != f_OF",
    "ge": "f_SF == f_OF",
    "g": "f_ZF == 0 and f_SF == f_OF",
    "le": "f_ZF == 1 or f_SF != f_OF",
}

_LOGIC_SOURCE = {"andl": "&", "orl": "|", "xorl": "^", "testl": "&"}


class FusedBlock(NamedTuple):
    """One hot block compiled into a single function.

    ``run(regs, flags, mem)`` executes the block and returns ``(next
    guest pc, exit index)``, or ``(None, len - 1)`` if control falls
    off the end.  ``exit_cycles[i]`` is the cycle cost of a pass that
    leaves at instruction ``i``, summed in instruction order exactly as
    the per-instruction loop sums it.
    """

    run: Callable[[dict, dict, dict], tuple[int | None, int]]
    exit_cycles: list[float]


def fuse_block(instrs: list[Instruction], steps: list[Step],
               cycles: list[float]) -> FusedBlock:
    """Fuse a block's host code into one generated function.

    ``steps`` are the block's closures from :func:`compile_block`;
    the forms the generator does not inline (``idivl``, shifts by
    ``%cl``) call theirs.  Raises
    :class:`FastExecError` for a branch to anything but the exit stub
    or another translated block.
    """
    fuser = _Fuser(steps)
    live = _live_flags(instrs)
    for index, instr in enumerate(instrs):
        fuser.instruction(index, instr, live[index])
    if not instrs or instrs[-1].mnemonic != "jmp":
        fuser.exit(f"(None, {len(instrs) - 1})")
    namespace = fuser.namespace
    exec(compile("\n".join(fuser.lines), "<fused block>", "exec"), namespace)
    exit_cycles = []
    cycle_sum = 0.0
    for cost in cycles:
        cycle_sum += cost
        exit_cycles.append(cycle_sum)
    return FusedBlock(namespace["fused"], exit_cycles)


def _always_set_flags(instr: Instruction) -> tuple[str, ...]:
    """Flags an instruction sets on every execution."""
    if instr.mnemonic in ("shll", "shrl", "sarl"):
        count = instr.operands[0]
        if not isinstance(count, Imm) or not count.value & 31:
            return ()  # a zero count sets nothing
    return defined_flags(instr)


def _live_flags(instrs: list[Instruction]) -> list[frozenset]:
    """Flags live after each instruction: all of them at every exit,
    and none that a later instruction always sets before any read."""
    every = frozenset(_FLAGS)
    live = every
    out = []
    for instr in reversed(instrs):
        out.append(live)
        if instr.mnemonic in JCC_OPS or instr.mnemonic == "jmp":
            live = every
        else:
            live = live.difference(_always_set_flags(instr)).union(
                used_flags(instr))
    out.reverse()
    return out


class _Fuser:
    """Emits one block's Python source, instruction by instruction.

    Registers live in locals ``r_<name>``, flags in ``f_<name>`` and the
    4-byte word at each static address (env slots, spill slots,
    ``NEXT_PC``) in ``m_<addr>``.  A local is loaded on first read
    (``valid``); a written local is *dirty* until every exit writes it
    back.  Temporaries (``x``, ``t<n>``) never collide with any of them.

    Word locals must never disagree with memory read another way: a
    computed-address or byte load writes the dirty words back first, a
    computed-address or byte store also forgets every word, and a word
    forgets any tracked word it overlaps by 1-3 bytes.
    """

    def __init__(self, steps: list[Step]) -> None:
        self.steps = steps
        self.lines = ["def fused(regs, flags, mem):"]
        self.namespace: dict = {}
        self.valid: set[str] = set()
        #: local -> the statement writing it back, for locals newer than
        #: their dict.
        self.dirty: dict[str, str] = {}
        self.temps = 0

    def emit(self, line: str, depth: int = 1) -> None:
        self.lines.append("    " * depth + line)

    # -- state ----------------------------------------------------------------

    def _load(self, local: str, source: str) -> str:
        if local not in self.valid:
            self.emit(f"{local} = {source}")
            self.valid.add(local)
        return local

    def reg(self, name: str) -> str:
        if not name.isidentifier():
            raise FastExecError(f"cannot fuse register {name!r}")
        return self._load(f"r_{name}", f"regs.get({name!r}, 0)")

    def flag(self, name: str) -> str:
        return self._load(f"f_{name}", f"flags.get({name!r}, 0)")

    def word(self, addr: int) -> str:
        return self._load(self._word_local(addr), _word_source(str(addr)))

    def _set(self, local: str, writeback: str, expr: str) -> None:
        self.emit(f"{local} = {expr}")
        self.valid.add(local)
        self.dirty[local] = writeback

    def set_reg(self, name: str, expr: str) -> None:
        self._set(f"r_{name}", f"regs[{name!r}] = r_{name}", expr)

    def set_flags(self, live: frozenset, **exprs: str) -> None:
        """Set the flags in ``live``; the rest are dead here."""
        for name, expr in exprs.items():
            if name in live:
                self._set(f"f_{name}", f"flags[{name!r}] = f_{name}", expr)

    def set_word(self, addr: int, expr: str) -> None:
        local = self._word_local(addr)
        self._set(local, "; ".join(_word_bytes(str(addr), local)), expr)

    def _word_local(self, addr: int) -> str:
        """``m_<addr>``, once no tracked word overlaps it in part."""
        self.drop_words(near=addr)
        return f"m_{addr}"

    def flush_words(self) -> None:
        """Write the dirty words back; they stay valid."""
        for local in [local for local in self.dirty if local[0] == "m"]:
            self.emit(self.dirty.pop(local))

    def drop_words(self, near: int | None = None) -> None:
        """Write back and forget every word local, or only those that
        overlap the word at ``near`` by 1-3 bytes."""
        for local in sorted(self.valid):
            if local[0] != "m" or near is not None and \
                    not 0 < abs(int(local[2:]) - near) < 4:
                continue
            if local in self.dirty:
                self.emit(self.dirty.pop(local))
            self.valid.discard(local)

    def cond(self, cc: str) -> str:
        for name in CONDITION_FLAGS[cc]:
            self.flag(name)
        return _COND_SOURCE[cc]

    def flush(self, depth: int = 1) -> None:
        """Write every dirty local back to its dict."""
        for writeback in self.dirty.values():
            self.emit(writeback, depth)

    def exit(self, result: str, depth: int = 1) -> None:
        self.flush(depth)
        self.emit(f"return {result}", depth)

    def bind(self, expr: str) -> str:
        """A name or literal for ``expr``, so it can be used twice."""
        if expr.isidentifier() or expr.isdigit():
            return expr
        self.temps += 1
        temp = f"t{self.temps}"
        self.emit(f"{temp} = {expr}")
        return temp

    # -- operands -------------------------------------------------------------

    def addr(self, op: Mem) -> str:
        """Address source: a literal when static, else a bound temp."""
        disp = op.disp & _MASK
        base = op.base.name if op.base else None
        index = op.index.name if op.index else None
        if base is None and index is None:
            return str(disp)
        terms = []
        if base:
            terms.append(self.reg(base))
        if index:
            terms.append(f"{self.reg(index)} * {op.scale}")
        terms.append(str(disp))
        return self.bind(f"({' + '.join(terms)}) & {_MASK}")

    def value(self, op) -> str:
        """A 32-bit source operand, as in :func:`_reader`."""
        if isinstance(op, Imm):
            return str(op.value & _MASK)
        if isinstance(op, Reg):
            if is_low8(op.name):
                return f"({self.reg(parent_of(op.name))} & 255)"
            return self.reg(op.name)
        if isinstance(op, Mem):
            if _static(op):
                return self.word(op.disp & _MASK)
            self.flush_words()
            return _word_source(self.addr(op))
        raise FastExecError(f"unreadable operand {op!r}")

    def byte(self, op) -> str:
        """An 8-bit source operand, as in :func:`_byte_reader`."""
        if isinstance(op, Imm):
            return str(op.value & 0xFF)
        if isinstance(op, Reg):
            return f"({self.reg(parent_of(op.name))} & 255)"
        if isinstance(op, Mem):
            self.flush_words()
            return f"mem.get({self.addr(op)}, 0)"
        raise FastExecError(f"unreadable byte operand {op!r}")

    def store(self, op, expr: str) -> None:
        """Write a 32-bit value, as in :func:`_writer`."""
        if isinstance(op, Reg):
            if is_low8(op.name):
                self.store_byte(op, expr)
            else:
                self.set_reg(op.name, expr)
            return
        if isinstance(op, Mem):
            if _static(op):
                self.set_word(op.disp & _MASK, expr)
                return
            value = self.bind(expr)
            self.drop_words()
            for line in _word_bytes(self.addr(op), value):
                self.emit(line)
            return
        raise FastExecError(f"unwritable operand {op!r}")

    def store_byte(self, op, expr: str) -> None:
        """Write the low byte of a value, as in :func:`_byte_writer`."""
        if isinstance(op, Reg):
            parent = parent_of(op.name)
            self.set_reg(parent,
                         f"{self.reg(parent)} & 4294967040 | ({expr}) & 255")
            return
        if isinstance(op, Mem):
            self.drop_words()
            self.emit(f"mem[{self.addr(op)}] = ({expr}) & 255")
            return
        raise FastExecError(f"unwritable byte operand {op!r}")

    # -- instructions ---------------------------------------------------------

    def call_step(self, index: int) -> None:
        """Run an instruction through its closure, which works on the
        dicts: flush first, and reload every local read afterwards."""
        self.flush()
        self.dirty.clear()
        self.valid.clear()
        self.namespace[f"s{index}"] = self.steps[index]
        self.emit(f"s{index}(regs, flags, mem)")

    def target(self, label) -> str:
        if not isinstance(label, Label):
            raise FastExecError(f"cannot fuse a branch to {label!r}")
        if label.name == EXIT_LABEL:
            return self.value(Mem(base=None, disp=ENV_BASE + NEXT_PC_OFFSET))
        if label.name.startswith("TB@"):
            return str(int(label.name[3:], 16))
        raise FastExecError(f"unexpected host branch target {label.name!r}")

    def instruction(self, index: int, instr: Instruction,
                    live: frozenset) -> None:
        name = instr.mnemonic
        ops = instr.operands

        if name == "movl":
            self.store(ops[1], self.value(ops[0]))
        elif name in ("addl", "subl", "cmpl", "andl", "orl", "xorl",
                      "testl"):
            src = self.bind(self.value(ops[0]))
            dst = self.bind(self.value(ops[1]))
            if name in ("addl", "subl", "cmpl"):
                sign = "+" if name == "addl" else "-"
                self.emit(f"x = ({dst} {sign} {src}) & {_MASK}")
                if name == "addl":
                    carry = f"1 if x < {dst} else 0"
                    overflow = f"(({dst} ^ x) & ~({dst} ^ {src})) >> 31 & 1"
                else:
                    carry = f"1 if {dst} < {src} else 0"
                    overflow = f"(({dst} ^ {src}) & ({dst} ^ x)) >> 31 & 1"
            else:
                self.emit(f"x = {dst} {_LOGIC_SOURCE[name]} {src}")
                carry = overflow = "0"
            self.set_flags(live, SF="x >> 31", ZF="1 if x == 0 else 0",
                           CF=carry, OF=overflow)
            if name not in ("cmpl", "testl"):
                self.store(ops[1], "x")
        elif name == "imull":
            src = self.bind(self.value(ops[0]))
            dst = self.bind(self.value(ops[1]))
            self.emit(
                f"x = ({dst} - 4294967296 if {dst} >> 31 else {dst})"
                f" * ({src} - 4294967296 if {src} >> 31 else {src})"
            )
            overflow = "0 if -2147483648 <= x < 2147483648 else 1"
            self.set_flags(live, OF=overflow, CF=overflow)
            self.store(ops[1], f"x & {_MASK}")
        elif name == "leal":
            self.store(ops[1], self.addr(ops[0]))
        elif name in ("movzbl", "movsbl"):
            value = self.byte(ops[0])
            if name == "movsbl":
                value = self.bind(value)
                value = f"{value} | 4294967040 if {value} & 128 else {value}"
            self.store(ops[1], value)
        elif name == "movb":
            self.store_byte(ops[1], self.byte(ops[0]))
        elif name == "negl":
            value = self.bind(self.value(ops[0]))
            self.emit(f"x = -{value} & {_MASK}")
            self.set_flags(live, SF="x >> 31", ZF="1 if x == 0 else 0",
                           CF=f"1 if 0 < {value} else 0",
                           OF=f"({value} & x) >> 31 & 1")
            self.store(ops[0], "x")
        elif name == "notl":
            self.store(ops[0], f"~{self.value(ops[0])} & {_MASK}")
        elif name in ("incl", "decl"):
            value = self.bind(self.value(ops[0]))
            delta, edge = (1, 0x7FFFFFFF) if name == "incl" else \
                (-1, 0x80000000)
            self.emit(f"x = ({value} + {delta}) & {_MASK}")
            self.set_flags(live, SF="x >> 31", ZF="1 if x == 0 else 0",
                           OF=f"1 if {value} == {edge} else 0")
            self.store(ops[0], "x")
        elif name in ("shll", "shrl", "sarl") and isinstance(ops[0], Imm):
            count = ops[0].value & 31
            if count:
                value = self.bind(self.value(ops[1]))
                if name == "shll":
                    self.emit(f"x = ({value} << {count}) & {_MASK}")
                    carry = f"({value} >> {32 - count}) & 1"
                elif name == "shrl":
                    self.emit(f"x = {value} >> {count}")
                    carry = f"({value} >> {count - 1}) & 1"
                else:
                    signed = self.bind(
                        f"{value} - 4294967296 if {value} >> 31 else {value}"
                    )
                    self.emit(f"x = ({signed} >> {count}) & {_MASK}")
                    carry = f"({signed} >> {count - 1}) & 1"
                self.set_flags(live, SF="x >> 31",
                               ZF="1 if x == 0 else 0", CF=carry)
                self.store(ops[1], "x")
        elif name in SETCC_OPS:
            self.store_byte(ops[0], f"1 if {self.cond(name[3:])} else 0")
        elif name in CMOV_OPS:
            value = self.bind(self.value(ops[0]))
            old = self.value(ops[1])
            self.store(ops[1],
                       f"{value} if {self.cond(name[4:])} else {old}")
        elif name in JCC_OPS:
            target = self.target(ops[0])
            self.emit(f"if {self.cond(name[1:])}:")
            self.exit(f"({target}, {index})", 2)
        elif name == "jmp":
            self.exit(f"({self.target(ops[0])}, {index})")
        elif name == "cltd":
            self.set_reg("edx",
                         f"{_MASK} if {self.reg('eax')} >> 31 else 0")
        else:
            self.call_step(index)


def _static(op: Mem) -> bool:
    return op.base is None and op.index is None


def _word_source(addr: str) -> str:
    """Source reading the 4-byte little-endian word at ``addr``."""
    return " | ".join(
        [f"(mem.get({addr}, 0)"]
        + [f"mem.get({_offset(addr, k)}, 0) << {8 * k}" for k in (1, 2, 3)]
    ) + ")"


def _word_bytes(addr: str, value: str) -> list[str]:
    """Statements storing the four bytes of ``value`` at ``addr``."""
    return [f"mem[{addr}] = {value} & 255"] + [
        f"mem[{_offset(addr, k)}] = {value} >> {8 * k} & 255"
        for k in (1, 2, 3)
    ]


def _offset(addr: str, k: int) -> str:
    """Source for ``addr + k`` (folded when ``addr`` is a literal)."""
    if addr.isdigit():
        return str(int(addr) + k)
    return f"{addr} + {k}" if k else addr
