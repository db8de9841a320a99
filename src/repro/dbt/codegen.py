"""Host (x86) code generation for translation blocks.

The :class:`BlockAssembler` is shared between the TCG backend and the
rule-enhanced translator (paper Section 5, "Register Allocation"): both
obtain host virtual registers for guest registers through it, so guest
values loaded by TCG-translated code are reused by rule-translated code
and vice versa.  Guest registers and flags live in the in-memory CPU
env; they are loaded lazily, cached in host registers for the duration
of the block, and written back (liveness-driven: only dirty ones)
before every block exit.

After lowering, a copy-propagation + dead-mov peephole models TCG's
register-allocator coalescing, and the shared linear-scan allocator
maps virtual registers onto the six usable x86 registers (spills go to
an env scratch area).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.host_x86 import isa as x86_isa
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.minic.backend.mach import (
    MachineFunction,
    TargetInfo,
    is_vreg,
    rewrite_registers,
)
from repro.minic.backend.regalloc import allocate
from repro.dbt.tcg import TcgCond, TcgOp

# CPU env layout (absolute addresses in the shared flat memory).
ENV_BASE = 0x7F00_0000
_REG_ORDER = tuple(f"r{i}" for i in range(13)) + ("sp", "lr", "pc")
REG_OFFSET = {name: i * 4 for i, name in enumerate(_REG_ORDER)}
FLAG_OFFSET = {name: 0x40 + i * 4 for i, name in enumerate("NZCV")}
NEXT_PC_OFFSET = 0x58
SPILL_BASE = 0x100  # spill slots start here (offsets from ENV_BASE)

EXIT_LABEL = "EXIT"

_COND_TO_CC = {
    TcgCond.EQ: "e", TcgCond.NE: "ne",
    TcgCond.LT: "l", TcgCond.LE: "le", TcgCond.GT: "g", TcgCond.GE: "ge",
    TcgCond.LTU: "b", TcgCond.LEU: "be", TcgCond.GTU: "a", TcgCond.GEU: "ae",
}


def tb_label(guest_addr: int) -> str:
    return f"TB@{guest_addr:#x}"


def env_mem(offset: int) -> Mem:
    return Mem(base=None, disp=ENV_BASE + offset, var="env")


# esi/edi first: they cannot serve setcc/movb byte operands, so keeping
# unconstrained values there leaves the low8-capable registers free for
# flag materialization.
DBT_TARGET = TargetInfo(
    name="dbt-x86",
    alloc_order=("esi", "edi", "eax", "ecx", "edx", "ebx"),
    callee_saved=(),
    caller_saved=(),
    low8_regs=("eax", "ecx", "edx", "ebx"),
    defs=x86_isa.defined_registers,
    uses=x86_isa.used_registers,
    is_branch=x86_isa.is_branch,
    branch_condition=x86_isa.branch_condition,
    is_call=x86_isa.is_call,
    spill_load=lambda reg, off: Instruction(
        "movl", (env_mem(SPILL_BASE + off), Reg(reg))
    ),
    spill_store=lambda reg, off: Instruction(
        "movl", (Reg(reg), env_mem(SPILL_BASE + off))
    ),
)


@dataclass
class BlockAssembler:
    """Accumulates host instructions for one translation block."""

    instrs: list[Instruction] = field(default_factory=list)
    _cached: dict[str, str] = field(default_factory=dict)
    _dirty: set[str] = field(default_factory=set)
    _counter: int = 0
    _temp_vregs: dict[str, str] = field(default_factory=dict)

    def emit(self, mnemonic: str, *operands, meta=None) -> Instruction:
        instr = Instruction(mnemonic, tuple(operands), meta=meta)
        self.instrs.append(instr)
        return instr

    def new_vreg(self) -> str:
        self._counter += 1
        return f"%v{self._counter}"

    # -- guest-state caching ---------------------------------------------------

    def _env_offset(self, key: str) -> int:
        if key.startswith("flag:"):
            return FLAG_OFFSET[key[5:]]
        return REG_OFFSET[key]

    def guest_vreg(self, key: str, load: bool = True) -> str:
        """Host vreg caching guest register/flag ``key`` (``"r3"`` or
        ``"flag:N"``), loading it from the env on first touch."""
        vreg = self._cached.get(key)
        if vreg is None:
            vreg = self.new_vreg()
            self._cached[key] = vreg
            if load:
                self.emit("movl", env_mem(self._env_offset(key)), Reg(vreg))
        return vreg

    def mark_dirty(self, key: str) -> None:
        self._dirty.add(key)

    def writeback(self) -> None:
        """Flush dirty guest state to the env (kept consistent at block
        boundaries, per QEMU's model)."""
        for key in sorted(self._dirty):
            vreg = self._cached[key]
            self.emit("movl", Reg(vreg), env_mem(self._env_offset(key)))
        self._dirty.clear()

    # -- TCG temps ----------------------------------------------------------------

    def temp_vreg(self, temp: str) -> str:
        vreg = self._temp_vregs.get(temp)
        if vreg is None:
            vreg = self.new_vreg()
            self._temp_vregs[temp] = vreg
        return vreg

    def value_operand(self, value: str | int):
        if isinstance(value, int):
            return Imm(value)
        return Reg(self.temp_vreg(value))

    def value_vreg(self, value: str | int) -> str:
        """Force a value into a vreg (for operands that reject imms)."""
        if isinstance(value, str):
            return self.temp_vreg(value)
        vreg = self.new_vreg()
        self.emit("movl", Imm(value), Reg(vreg))
        return vreg


def lower_tcg_op(assembler: BlockAssembler, op: TcgOp,
                 optimized: bool = False) -> None:
    """Lower one TCG micro-op to host instructions.

    ``optimized`` selects the LLVM-JIT-quality instruction selection
    (three-operand adds via ``leal``), modelling the better isel an
    optimizing backend gets over plain TCG.
    """
    name = op.op
    if name == "movi":
        assembler.emit("movl", Imm(op.a), Reg(assembler.temp_vreg(op.out)))
        return
    if name == "mov":
        assembler.emit(
            "movl", assembler.value_operand(op.a),
            Reg(assembler.temp_vreg(op.out)),
        )
        return
    if optimized and name in ("add", "sub") and isinstance(op.a, str):
        out = Reg(assembler.temp_vreg(op.out))
        base = Reg(assembler.temp_vreg(op.a))
        if isinstance(op.b, int):
            disp = op.b if name == "add" else -op.b
            disp &= 0xFFFFFFFF
            if disp >= 0x8000_0000:
                disp -= 0x1_0000_0000
            assembler.emit("leal", Mem(base=base, disp=disp), out)
            return
        if name == "add":
            index = Reg(assembler.temp_vreg(op.b))
            assembler.emit("leal", Mem(base=base, index=index), out)
            return
    if name in ("add", "sub", "mul", "and", "or", "xor"):
        mnemonic = {
            "add": "addl", "sub": "subl", "mul": "imull",
            "and": "andl", "or": "orl", "xor": "xorl",
        }[name]
        out = Reg(assembler.temp_vreg(op.out))
        assembler.emit("movl", assembler.value_operand(op.a), out)
        assembler.emit(mnemonic, assembler.value_operand(op.b), out)
        return
    if name in ("shl", "shr", "sar"):
        mnemonic = {"shl": "shll", "shr": "shrl", "sar": "sarl"}[name]
        out = Reg(assembler.temp_vreg(op.out))
        assembler.emit("movl", assembler.value_operand(op.a), out)
        if isinstance(op.b, int):
            assembler.emit(mnemonic, Imm(op.b & 31), out)
        else:
            assembler.emit("movl", assembler.value_operand(op.b), Reg("ecx"))
            assembler.emit(mnemonic, Reg("cl"), out)
        return
    if name in ("neg", "not"):
        out = Reg(assembler.temp_vreg(op.out))
        assembler.emit("movl", assembler.value_operand(op.a), out)
        assembler.emit("negl" if name == "neg" else "notl", out)
        return
    if name == "ld_reg":
        cached = assembler.guest_vreg(op.reg)
        assembler.emit("movl", Reg(cached), Reg(assembler.temp_vreg(op.out)))
        return
    if name == "st_reg":
        cached = assembler.guest_vreg(op.reg, load=False)
        assembler.emit("movl", assembler.value_operand(op.a), Reg(cached))
        assembler.mark_dirty(op.reg)
        return
    if name == "ld_flag":
        cached = assembler.guest_vreg(f"flag:{op.flag}")
        assembler.emit("movl", Reg(cached), Reg(assembler.temp_vreg(op.out)))
        return
    if name == "st_flag":
        cached = assembler.guest_vreg(f"flag:{op.flag}", load=False)
        assembler.emit("movl", assembler.value_operand(op.a), Reg(cached))
        assembler.mark_dirty(f"flag:{op.flag}")
        return
    if name == "qemu_ld":
        address = Mem(base=Reg(assembler.value_vreg(op.a)))
        out = Reg(assembler.temp_vreg(op.out))
        assembler.emit("movl" if op.size == 4 else "movzbl", address, out)
        return
    if name == "qemu_st":
        value = assembler.value_vreg(op.b)
        address = Mem(base=Reg(assembler.value_vreg(op.a)))
        if op.size == 4:
            assembler.emit("movl", Reg(value), address)
        else:
            assembler.emit("movb", Reg(f"{value}.b"), address,
                           meta={"needs_low8": (value,)})
        return
    if name == "setcond":
        left = assembler.value_vreg(op.a)
        out_name = assembler.temp_vreg(op.out)
        out = Reg(out_name)
        assembler.emit("cmpl", assembler.value_operand(op.b), Reg(left))
        assembler.emit("movl", Imm(0), out)
        assembler.emit(f"set{_COND_TO_CC[op.cond]}", Reg(f"{out_name}.b"),
                       meta={"needs_low8": (out_name,)})
        return
    if name == "cmp_flags":
        _lower_cmp_flags(assembler, op)
        return
    if name == "movcond":
        out = Reg(assembler.temp_vreg(op.out))
        assembler.emit("movl", assembler.value_operand(op.c), out)
        cond = assembler.value_vreg(op.a)
        then_value = assembler.value_vreg(op.b)
        assembler.emit("cmpl", Imm(0), Reg(cond))
        assembler.emit("cmovne", Reg(then_value), out)
        return
    if name == "brcond":
        left = assembler.value_vreg(op.a)
        assembler.emit("cmpl", assembler.value_operand(op.b), Reg(left))
        assembler.writeback()  # movl does not disturb EFLAGS
        assembler.emit(f"j{_COND_TO_CC[op.cond]}", Label(tb_label(op.taken)))
        assembler.emit("jmp", Label(tb_label(op.fallthrough)))
        return
    if name == "goto_tb":
        assembler.writeback()
        assembler.emit("jmp", Label(tb_label(op.taken)))
        return
    if name == "exit_indirect":
        assembler.emit(
            "movl", assembler.value_operand(op.a), env_mem(NEXT_PC_OFFSET)
        )
        assembler.writeback()
        assembler.emit("jmp", Label(EXIT_LABEL))
        return
    raise ValueError(f"unhandled TCG op {name!r}")


def _lower_cmp_flags(assembler: BlockAssembler, op: TcgOp) -> None:
    """Materialize guest NZCV from one host compare via setcc.

    This mirrors QEMU's condition-code materialization: a single host
    comparison followed by setcc into the cached flag registers.  Note
    the carry-polarity fixups: ARM's C after subtraction is NOT-borrow
    (``setae``) while after addition it is the plain carry (``setb``
    would be borrow — carry-out is CF itself, read with ``setb`` after
    an add since x86 CF then *is* the carry).
    """
    kind = op.flag
    left = assembler.value_vreg(op.a)
    if kind == "sub":
        assembler.emit("cmpl", assembler.value_operand(op.b), Reg(left))
        flag_ccs = (("N", "s"), ("Z", "e"), ("C", "ae"), ("V", "o"))
    elif kind == "add":
        scratch = assembler.new_vreg()
        assembler.emit("movl", Reg(left), Reg(scratch))
        assembler.emit("addl", assembler.value_operand(op.b), Reg(scratch))
        flag_ccs = (("N", "s"), ("Z", "e"), ("C", "b"), ("V", "o"))
    else:
        scratch = assembler.new_vreg()
        assembler.emit("movl", Reg(left), Reg(scratch))
        mnemonic = "andl" if kind == "and" else "xorl"
        assembler.emit(mnemonic, assembler.value_operand(op.b), Reg(scratch))
        flag_ccs = (("N", "s"), ("Z", "e"))
    # setcc must come before any flag-clobbering instruction: emit the
    # zeroing movs via registers only (movl does not touch EFLAGS).
    targets = []
    for guest_flag, cc in flag_ccs:
        vreg = assembler.guest_vreg(f"flag:{guest_flag}", load=False)
        assembler.emit("movl", Imm(0), Reg(vreg))
        targets.append((vreg, cc, guest_flag))
    for vreg, cc, guest_flag in targets:
        assembler.emit(f"set{cc}", Reg(f"{vreg}.b"),
                       meta={"needs_low8": (vreg,)})
        assembler.mark_dirty(f"flag:{guest_flag}")


# -- peephole -------------------------------------------------------------------


def peephole(instrs: list[Instruction]) -> list[Instruction]:
    """Copy propagation + dead-mov elimination over vreg host code.

    Models TCG's register-allocator move coalescing: ``movl %a, %b``
    makes later uses of ``%b`` read ``%a`` (until either is redefined),
    after which unused pure ``movl`` destinations are dropped.  Only
    ``movl`` is touched — everything else may set EFLAGS that a later
    jcc/setcc consumes.
    """
    replacement: dict[str, str] = {}
    copies_of: dict[str, set[str]] = {}  # reverse index of replacement

    def invalidate(name: str) -> None:
        source = replacement.pop(name, None)
        if source is not None:
            copies_of[source].discard(name)
        for copy in copies_of.pop(name, ()):
            del replacement[copy]

    rewritten: list[Instruction] = []
    for instr in instrs:
        defs = x86_isa.defined_registers(instr)
        if replacement:
            # Never substitute a register the instruction *writes* — on
            # two-address x86 the destination is read-modify-write, and
            # redirecting it would move the result into the wrong
            # register.
            mapping = {}
            for reg in instr.registers():
                base = reg.name[:-2] if reg.name.endswith(".b") else reg.name
                if base in replacement and base not in defs:
                    mapping[base] = replacement[base]
            if mapping:
                instr = rewrite_registers(instr, mapping)
        if x86_isa.is_branch(instr):
            rewritten.append(instr)
            replacement.clear()
            copies_of.clear()
            continue
        if (
            instr.mnemonic == "movl"
            and isinstance(instr.operands[0], Reg)
            and isinstance(instr.operands[1], Reg)
        ):
            src, dst = instr.operands[0].name, instr.operands[1].name
            if src == dst:
                continue  # self-move: drop
            invalidate(dst)
            if is_vreg(dst):
                replacement[dst] = src
                copies_of.setdefault(src, set()).add(dst)
            rewritten.append(instr)
            continue
        for reg in defs:
            invalidate(reg)
        rewritten.append(instr)
    return _drop_dead_movs(rewritten)


def _drop_dead_movs(instrs: list[Instruction]) -> list[Instruction]:
    """Drop every ``movl`` into a vreg nothing reads, including those
    whose only readers are themselves dropped."""
    uses = [x86_isa.used_registers(instr) for instr in instrs]
    readers: dict[str, int] = {}
    for names in uses:
        for name in names:
            readers[name] = readers.get(name, 0) + 1
    movs_into: dict[str, list[int]] = {}
    for index, instr in enumerate(instrs):
        if (
            instr.mnemonic == "movl"
            and isinstance(instr.operands[1], Reg)
            and is_vreg(instr.operands[1].name)
        ):
            movs_into.setdefault(instr.operands[1].name, []).append(index)
    worklist = [name for name in movs_into if name not in readers]
    dead: set[int] = set()
    while worklist:
        for index in movs_into.pop(worklist.pop()):
            dead.add(index)
            for name in uses[index]:
                readers[name] -= 1
                if not readers[name] and name in movs_into:
                    worklist.append(name)
    return [instr for index, instr in enumerate(instrs) if index not in dead]


def finalize_block(assembler: BlockAssembler, guest_start: int
                   ) -> "TranslatedBlock":
    """Peephole + register allocation for an assembled block."""
    code = peephole(assembler.instrs)
    func = MachineFunction(f"tb_{guest_start:#x}", instrs=code)
    allocate(func, DBT_TARGET)
    return TranslatedBlock(guest_start, func.instrs)


@dataclass
class TranslatedBlock:
    """One translation block: its final host code, the forms the engine
    compiled it into, and its counters.  Retiring the block drops them
    all."""

    guest_start: int
    host_instrs: list[Instruction]
    guest_length: int = 0
    rule_covered: list[bool] = field(default_factory=list)
    hit_profiles: list = field(default_factory=list)  # ruletrans.HitProfile
    translation_cost: float = 0.0
    #: ``exit_cycles[i]``: the cycle cost of a pass that leaves at host
    #: instruction ``i``, summed in instruction order.
    exit_cycles: list[float] = field(default_factory=list)
    steps: list | None = None  # fastexec steps (fast engines)
    fused: Callable | None = None  # fastexec.fuse_block's function, once hot
    exec_count: int = 0
    exec_cycles: float = 0.0  # host cycles attributed to this block (per run)
