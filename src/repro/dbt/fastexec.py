"""Host code compiled from the x86 semantics (the engine's fast path).

The generic path interprets every host instruction through the
single-source semantics; that is the oracle, but it costs several
dict/dataclass hops per instruction.  The fast path runs code generated
from that same semantics: each instruction runs through
``host_x86.execute`` on a :class:`SourceState` with a
:class:`SourceALU`, whose values are Python source.  There is no
hand-written copy of the x86 semantics.

Each translated block is *compiled* into a list of steps, one per host
instruction (:func:`compile_block`), operating directly on the
register/flag/memory dicts.  A step returns ``None`` to fall through or
the ``Label`` name a taken control transfer leads to.  Steps share
compiled code by instruction *shape* (see :func:`compile_instruction`):
each shape's factory is generated and compiled once per process, and
building a step costs one factory call.

Blocks the engine finds hot are then *fused* (:func:`fuse_block`): the
whole block becomes one generated Python function, compiled once, that
keeps registers, flags and static 4-byte memory words in locals, writes
them back at each exit, and returns ``(next guest pc, exit index)``.
The hottest fused blocks and their successors are then fused again,
into one *region* (:func:`fuse_region`) that keeps those locals across
the edges between its blocks and writes them back only when control
leaves it.

This module only compiles.  The engine keeps a block's steps and fused
function on its :class:`~repro.dbt.codegen.TranslatedBlock`, so retiring
the block drops them, and every tier, regions included, charges a pass
the block's ``exit_cycles[exit index]``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.dbt.codegen import ENV_BASE, EXIT_LABEL, NEXT_PC_OFFSET
from repro.host_x86.isa import JCC_OPS, defined_flags, used_flags
from repro.host_x86.registers import is_low8
from repro.host_x86.semantics import execute
from repro.ir.expr import mask
from repro.isa.alu import ConcreteALU
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Label, Mem, Reg, SymImm

_MASK = 0xFFFFFFFF

Step = Callable[[dict, dict, dict], str | None]


class FastExecError(Exception):
    """An instruction form the fast path cannot compile."""


def compile_instruction(instr: Instruction) -> Step:
    """Compile one host instruction into a step.

    The instruction is reduced to its *shape*: registers become
    placeholders ``R0, R1, ...`` by first appearance (so the shape keeps
    which operands name the same register), and immediates,
    displacements and branch labels become parameters ``K0, K1, ...``.
    Low-8 register names, shift counts and the registers the semantics
    name implicitly stay in the shape.  Each shape's step factory is
    generated from :func:`execute` once per process (:class:`_StepFuser`);
    every instruction of that shape is then one factory call.
    """
    name = instr.mnemonic
    if name in _STACK_OPS:
        raise FastExecError(f"fast path cannot compile {instr}")
    implicit = _IMPLICIT.get(name, ())
    regs: list[str] = []
    params: list = []
    key: list = [name]
    for op in instr.operands:
        kind = type(op)
        if kind is Reg:
            key.append(_slot(op, regs, implicit))
        elif kind is Mem and op.disp_param is None:
            key.append((_slot(op.base, regs, implicit),
                        _slot(op.index, regs, implicit), op.scale))
            params.append(op.disp & _MASK)
        elif kind is Imm and name in _SHIFTS:
            key.append(f"${op.value & 31}")
        elif kind is Imm:
            key.append("$")
            params.append(op.value & _MASK)
        elif kind is Label:
            key.append("@")
            params.append(op.name)
        else:
            raise FastExecError(f"fast path cannot compile {instr}")
    shape = tuple(key)
    make = _SHAPES.get(shape)
    if make is None:
        make = _SHAPES[shape] = _step_factory(shape, len(regs))
    return make(*regs, *params)


def _slot(reg: Reg | None, regs: list[str], implicit: tuple):
    """The shape token of a register operand: its name if it stays
    concrete, else its placeholder's index in ``regs`` (added on first
    appearance)."""
    if reg is None:
        return None
    name = reg.name
    if name in implicit or is_low8(name):
        return name
    if name not in regs:
        regs.append(name)
    return regs.index(name)


#: Step factories by instruction shape, built on first use.  The shape
#: holds a mnemonic and operand kinds, so the x86 subset bounds it.
_SHAPES: dict[tuple, Callable[..., Step]] = {}

_SHIFTS = ("shll", "shrl", "sarl")
#: The stack forms, which the engine never emits.
_STACK_OPS = ("pushl", "popl", "call", "ret")
#: Registers the semantics name besides the operands: a placeholder
#: never stands for one of them.
_IMPLICIT = {"idivl": ("eax", "edx"), "shll": ("ecx",), "shrl": ("ecx",),
             "sarl": ("ecx",)}


def _step_factory(shape: tuple, placeholders: int) -> Callable[..., Step]:
    """Generate and compile the step factory of ``shape``, whose
    registers include ``placeholders`` placeholders (see
    :func:`compile_instruction`)."""
    regs = [f"R{k}" for k in range(placeholders)]
    params: list[str] = []

    def reg(token) -> Reg | None:
        if token is None:
            return None
        return Reg(token if type(token) is str else regs[token])

    def param() -> str:
        params.append(f"K{len(params)}")
        return params[-1]

    operands = []
    for token in shape[1:]:
        if type(token) is tuple:
            base, index, scale = token
            operands.append(Mem(reg(base), reg(index), scale,
                                disp_param=("slot", param())))
        elif token == "$":
            operands.append(SymImm(("slot", param())))
        elif token == "@":
            operands.append(Label(param()))
        elif type(token) is str and token[0] == "$":
            operands.append(Imm(int(token[1:])))
        else:
            operands.append(reg(token))
    fuser = _StepFuser(regs + params)
    fuser.step(Instruction(shape[0], tuple(operands)))
    namespace = fuser.namespace
    exec(compile("\n".join(fuser.lines), "<step>", "exec"), namespace)
    return namespace["make"]


def compile_block(instrs: list[Instruction]) -> list[Step]:
    """Compile a translated block's host code into steps."""
    return [compile_instruction(instr) for instr in instrs]


# -- fused blocks and regions ---------------------------------------------------

_FLAGS = ("OF", "SF", "ZF", "CF")


class Region(NamedTuple):
    """Hot blocks compiled into one function.

    ``run(regs, flags, mem, start, budget, exec_cycles)`` dispatches the
    member at index ``start``, then every member an exit leads to, until
    control leaves for a non-member or ``budget`` dispatches are done.
    It returns ``(next guest pc, dispatches, host instructions,
    exec_cycles)``: ``exec_cycles`` grows by each dispatch's cycle cost
    in dispatch order, and each member block's ``exec_count`` and
    ``exec_cycles`` grow as one dispatch at a time would grow them.  It
    returns ``None``, having changed nothing, when a register, flag or
    memory byte it preloads is absent.
    """

    run: Callable
    members: tuple[int, ...]


def fuse_block(instrs: list[Instruction]
               ) -> Callable[[dict, dict, dict], tuple[int | None, int]]:
    """Fuse a block's host code into one generated function
    ``fused(regs, flags, mem)``, which runs the block and returns
    ``(next guest pc, exit index)``, or ``(None, len - 1)`` if control
    falls off the end.

    Raises :class:`FastExecError` for a branch to anything but the exit
    stub or another translated block.
    """
    fuser = _Fuser()
    fuser.block(instrs)
    namespace = fuser.namespace
    exec(compile("\n".join(fuser.lines), "<fused block>", "exec"), namespace)
    return namespace["fused"]


def fuse_region(blocks: list, state: tuple[dict, dict, dict]) -> Region:
    """Fuse hot blocks into one :class:`Region` function.

    ``blocks`` are translated blocks (``guest_start``, ``host_instrs``,
    ``exit_cycles`` and the ``exec_count``/``exec_cycles`` counters the
    region updates), each ending in a ``jmp``.  An exit to a member,
    through ``TB@`` or through ``NEXT_PC``, stays inside the function.

    Every register, flag and static word the members touch whose keys
    ``state`` (``regs, flags, memory``) holds is *carried*: preloaded
    at entry, valid at the start of every member, and written back only
    when control leaves the region.  Keys are never deleted, so a later
    entry finds them too, or returns ``None`` (see :class:`Region`).
    """
    for tb in blocks:
        if not tb.host_instrs or tb.host_instrs[-1].mnemonic != "jmp":
            raise FastExecError(
                f"region member {tb.guest_start:#x} does not end in a jmp")
    probe = _RegionFuser(blocks, frozenset(), frozenset())
    probe.region()
    carried = _carriable(probe.touched, state)
    fuser = _RegionFuser(blocks, carried,
                         carried.intersection(probe.written))
    fuser.region()
    namespace = fuser.namespace
    exec(compile("\n".join(fuser.lines), "<fused region>", "exec"),
         namespace)
    return Region(namespace["region"],
                  tuple(tb.guest_start for tb in blocks))


def _carriable(touched: set[str], state: tuple[dict, dict, dict]
               ) -> frozenset[str]:
    """The touched locals whose keys are all present in ``state``,
    less the words that overlap another touched word in part."""
    regs, flags, mem = state
    words = [int(local[2:]) for local in touched if local[0] == "m"]
    carried = set()
    for local in touched:
        kind, name = local[0], local[2:]
        if kind == "r":
            present = name in regs
        elif kind == "f":
            present = name in flags
        else:
            addr = int(name)
            present = all(addr + k in mem for k in range(4)) and not any(
                0 < abs(other - addr) < 4 for other in words)
        if present:
            carried.add(local)
    return frozenset(carried)


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


class _Value:
    """A value of the generated code.  ``template`` formats the rendered
    ``args`` into its source or, when callable, returns the source of a
    read (emitting its load); see :meth:`SourceState.render`."""

    __slots__ = ("template", "args", "ring", "uses", "source")

    def __init__(self, template, args: tuple, ring: bool = False) -> None:
        self.template = template
        self.args = args
        #: Arithmetic mod 2**32: the template is exact once masked, and
        #: its args may be rendered unmasked.
        self.ring = ring
        self.uses = 0
        self.source: str | None = None


_CONCRETE = ConcreteALU()
_SIGNED = "(({} ^ 2147483648) - 2147483648)"


def _op(name: str, template: str, *args, ring: bool = False):
    """``ConcreteALU.<name>(*args)`` when every operand is a constant,
    else a :class:`_Value`."""
    for arg in args:
        if type(arg) is _Value:
            return _Value(template, args, ring)
    return getattr(_CONCRETE, name)(*args)


class SourceALU:
    """:class:`ConcreteALU`'s operations written as Python source: the
    ALU the fused tiers run :func:`execute` on.

    A value is an ``int`` constant or a :class:`_Value`.  Operations on
    constants fold through ``ConcreteALU``, so a static address stays a
    digit literal, and every rendered operation evaluates to what
    ``ConcreteALU`` computes from the same operands, which keep its
    discipline: words are 32-bit and conditions 1-bit.  So identities
    fold too: ``x + 0``, ``x - 0``, ``x ^ 0`` and ``x | 0`` are ``x``;
    ``x & 0``, ``ult(x, 0)``, ``ult(x, x)`` and ``x ^ x`` are 0."""

    def const(self, width: int, value: int) -> int:
        return value & (1 << width) - 1

    def add(self, a, b):
        if b == 0:
            return a
        if a == 0:
            return b
        return _op("add", "{} + {}", a, b, ring=True)

    def sub(self, a, b):
        if b == 0:
            return a
        return _op("sub", "{} - {}", a, b, ring=True)

    def mul(self, a, b):
        return _op("mul", "{} * {}", a, b, ring=True)

    def neg(self, a):
        return _op("neg", "-{}", a, ring=True)

    def not_(self, a):
        return _op("not_", "~{}", a, ring=True)

    def and_(self, a, b):
        if a == 0 or b == 0:
            return 0
        return _op("and_", "{} & {}", a, b)

    def or_(self, a, b):
        if b == 0:
            return a
        if a == 0:
            return b
        return _op("or_", "{} | {}", a, b)

    def xor(self, a, b):
        if a is b:
            return 0
        if b == 0:
            return a
        if a == 0:
            return b
        return _op("xor", "{} ^ {}", a, b)

    bool_and, bool_or = and_, or_

    def bool_not(self, a):
        return _op("bool_not", "{} ^ 1", a)

    def shl(self, a, b):
        if type(b) is not int or type(a) is int:
            # min: a count of 0xffffffff would build a 4 GiB int.
            return _op("shl", "({} << min({}, 32)) & 4294967295", a, b)
        return _Value(f"{{}} << {b}", (a,), ring=True) if b < 32 else 0

    def lshr(self, a, b):
        return _op("lshr", "{} >> {}", a, b)

    def ashr(self, a, b):
        return _op("ashr", f"({_SIGNED} >> {{}}) & 4294967295", a, b)

    def eq(self, a, b):
        return _op("eq", "1 if {} == {} else 0", a, b)

    def ult(self, a, b):
        if b == 0 or a is b:
            return 0
        return _op("ult", "1 if {} < {} else 0", a, b)

    def ite(self, cond, then, other):
        if type(cond) is int:
            return then if cond else other
        if (then, other) == (1, 0):
            return cond
        return _Value("{1} if {0} else {2}", (cond, then, other))

    def extract(self, hi: int, lo: int, a):
        if type(a) is int:
            return _CONCRETE.extract(hi, lo, a)
        template = (f"{{}} >> {lo}" if lo else "{}") + (
            f" & {mask(hi - lo + 1)}" if hi < 31 else "")
        return a if template == "{}" else _Value(template, (a,))

    def zext(self, width: int, a):
        return a

    def sext_from(self, src_width: int, dst_width: int, a):
        sign = 1 << src_width - 1
        return _op("sext_from", f"((({{2}} & {2 * sign - 1}) ^ {sign}) - "
                   f"{sign}) & {mask(dst_width)}", src_width, dst_width, a)

    def mul_overflow_signed(self, a, b):
        return _op("mul_overflow_signed",
                   f"0 if -2147483648 <= {_SIGNED} * {_SIGNED} < 2147483648"
                   " else 1", a, b)

    def divmod_signed_64(self, hi, lo, divisor):
        pair = _op("divmod_signed_64", "DIV({}, {}, {})", hi, lo, divisor)
        if type(pair) is tuple:
            return pair
        return _Value("{}[0]", (pair,)), _Value("{}[1]", (pair,))


_SOURCE_ALU = SourceALU()


def _count(value) -> None:
    """Count one more use of ``value``, and of its operands the first
    time."""
    if type(value) is _Value:
        value.uses += 1
        if value.uses == 1:
            for arg in value.args:
                if type(arg) is _Value:
                    _count(arg)


class SourceState:
    """The machine state :func:`execute` writes one instruction of a
    :class:`_Fuser` through, with :class:`SourceALU`.

    A read is a :class:`_Value` that loads its local only when rendered,
    so a read nothing consumes loads nothing.  Reading a local again
    gives the same value, so ``x ^ x`` folds, until the instruction
    writes a register (or, for a flag, that flag).  A write is kept as an
    effect (a write to a flag dead after the instruction, or of a local's
    own read back to it, is dropped) until the instruction is done; then
    :meth:`render` writes each effect's value, binding a value used more
    than once to a temp."""

    def __init__(self, fuser: "_Fuser") -> None:
        self.fuser = fuser
        self.live: frozenset = frozenset()
        self.effects: list = []
        #: The locals this instruction has set so far.
        self.assigned: set[str] = set()
        #: local -> its read, for the locals read since this instruction
        #: last wrote a register (or that flag).
        self.reads: dict[str, _Value] = {}

    def _read(self, local: str, load, name: str) -> _Value:
        value = self.reads.get(local)
        if value is None:
            value = self.reads[local] = _Value(load, (name,))
        return value

    def get_reg(self, name: str) -> _Value:
        return self._read(f"r_{name}", self.fuser.reg, name)

    def get_flag(self, name: str) -> _Value:
        return self._read(f"f_{name}", self.fuser.flag, name)

    def imm_value(self, expr: tuple) -> _Value:
        """A parameter slot ``("slot", name)``: read by its name."""
        return _Value(expr[1], ())

    def load(self, addr, size: int) -> _Value:
        if type(addr) is int and size == 4:
            return _Value(self.fuser.word, (addr,))
        return _Value(self.load_source, (addr, size))

    # An effect (write, args, value) runs write(*args, <value's source>).

    def set_reg(self, name: str, value) -> None:
        if self.reads.get(f"r_{name}") is not value:
            # A step's register placeholder may stand for another name's
            # register: forget every register read.
            self.reads = {local: read for local, read in self.reads.items()
                          if local[0] == "f"}
            self._write(f"r_{name}", value)

    def set_flag(self, name: str, value) -> None:
        if (name in self.live
                and self.reads.pop(f"f_{name}", None) is not value):
            self._write(f"f_{name}", value)

    def _write(self, local: str, value) -> None:
        _count(value)
        self.effects.append((self.fuser._set, (local,), value))

    def store(self, addr, value, size: int) -> None:
        _count(value)
        if type(addr) is int and size == 4:
            self.effects.append((self.fuser.set_word, (addr,), value))
        else:
            _count(addr)
            self.effects.append((self.store_source, (addr, size), value))

    def load_source(self, addr, size: int) -> str:
        addr = self.fuser.bind(self.render(addr))
        self.fuser.before_load(addr, size)
        return _word_source(addr) if size == 4 else f"mem.get({addr}, 0)"

    def store_source(self, addr, size: int, value: str) -> None:
        addr = self.fuser.bind(self.render(addr))
        if size == 4:
            value = self.fuser.bind(value)
        self.fuser.guarded_store(addr, size, value)

    def render(self, value, loose: bool = False) -> str:
        """Source for ``value``: a temp once it is used twice, and equal
        to it only mod 2**32 when ``loose`` and nothing else reads it."""
        if type(value) is int:
            return str(value)
        if value.source is not None:
            return value.source
        template = value.template
        if type(template) is not str:
            source = template(*value.args)
        else:
            args = []
            for arg in value.args:
                text = self.render(arg, value.ring)
                args.append(text if text.isidentifier() or text.isdigit()
                            else f"({text})")
            source = template.format(*args)
            if value.ring and not (loose and value.uses <= 1):
                source = f"({source}) & {_MASK}"
        if value.uses > 1:
            value.source = source = self.fuser.bind(source)
        return source


class _Fuser:
    """Emits one block's Python source, instruction by instruction.

    Registers live in locals ``r_<name>``, flags in ``f_<name>`` and the
    4-byte word at each static address (env slots, spill slots,
    ``NEXT_PC``) in ``m_<addr>``.  A local is loaded on first read
    (``valid``); a written local is *dirty* until every exit writes it
    back.  Temporaries (``t<n>``) never collide with any of them.

    Word locals must never disagree with memory read another way.  A
    load through a computed address first writes back the dirty words
    when its address, at run time, falls in their span; a store through
    one that lands in the span of the tracked words also writes them
    back before and reloads them after.  A static byte access does the
    same, decided when the code is generated, for the words it
    overlaps, and a word forgets any tracked word it overlaps by 1-3
    bytes.
    """

    def __init__(self) -> None:
        self.lines = ["def fused(regs, flags, mem):"]
        self.indent = 1
        self.namespace: dict = {"SW": _store_words, "LW": _load_words,
                                "FW": _flush_words,
                                "DIV": _CONCRETE.divmod_signed_64}
        self.consts: dict = {}
        self.valid: set[str] = set()
        #: local -> the statement writing it back, for locals newer than
        #: their dict.
        self.dirty: dict[str, str] = {}
        #: Every local the code loads or sets, and every one it sets.
        self.touched: set[str] = set()
        self.written: set[str] = set()
        self.temps = 0
        self.state = SourceState(self)

    def emit(self, line: str, depth: int = 0) -> None:
        self.lines.append("    " * (self.indent + depth) + line)

    def block(self, instrs: list[Instruction]) -> None:
        live = _live_flags(instrs)
        self.last = len(instrs) - 1
        for index, instr in enumerate(instrs):
            self.instruction(index, instr, live[index])
        if not instrs or instrs[-1].mnemonic != "jmp":
            self.leave("None", len(instrs) - 1)

    # -- state ----------------------------------------------------------------

    def _load(self, local: str) -> str:
        if local in self.state.assigned:
            # Rendered this late, a read would see the new value.
            raise FastExecError(f"{local} is read after it is set")
        if local not in self.valid:
            self.emit(f"{local} = {_load_source(local)}")
            self.valid.add(local)
            self.touched.add(local)
        return local

    def reg(self, name: str) -> str:
        if not name.isidentifier():
            raise FastExecError(f"cannot fuse register {name!r}")
        return self._load(f"r_{name}")

    def flag(self, name: str) -> str:
        return self._load(f"f_{name}")

    def word(self, addr: int) -> str:
        return self._load(self._word_local(addr))

    def _set(self, local: str, expr: str) -> None:
        self.emit(f"{local} = {expr}")
        self.valid.add(local)
        self.touched.add(local)
        self.written.add(local)
        if local not in self.dirty:
            self.dirty[local] = _writeback(local)
        self.state.assigned.add(local)

    def set_word(self, addr: int, expr: str) -> None:
        self._set(self._word_local(addr), expr)

    def _word_local(self, addr: int) -> str:
        """``m_<addr>``, once no tracked word overlaps it in part."""
        for near in (-3, -2, -1, 1, 2, 3):
            if f"m_{addr + near}" in self.valid:
                self._forget(f"m_{addr + near}")
        return f"m_{addr}"

    def _words(self, overlaps) -> list[str]:
        """The tracked word locals whose address ``overlaps`` accepts."""
        return sorted(local for local in self.valid
                      if local[0] == "m" and overlaps(int(local[2:])))

    def _forget(self, local: str) -> None:
        """Write ``local`` back if it is dirty, and stop tracking it."""
        if local in self.dirty:
            self.emit(self.dirty.pop(local))
        self.valid.discard(local)

    def before_load(self, addr: str, width: int) -> None:
        """Write back the dirty words a ``width``-byte load at ``addr``
        may read."""
        words = [local for local in self.dirty if local[0] == "m"]
        if addr.isdigit():
            for local in words:
                if _overlap(int(local[2:]), int(addr), width):
                    self.emit(self.dirty.pop(local))
        elif words:
            self.emit(f"if {_span(words, width, addr)}:")
            self.emit(self.cold_flush(words), 1)

    def guarded_store(self, addr: str, width: int, value: str) -> None:
        """Store ``value`` (a name or literal when ``width`` is 4, an
        expression when it is 1) at ``addr``, keeping every tracked word
        equal to memory."""
        if width == 4:
            stores = _word_bytes(addr, value)
            cold_store = f"SW(mem, ({addr},), {value})"
        else:
            stores = [f"mem[{addr}] = ({value}) & 255"]
            cold_store = stores[0]
        if addr.isdigit():
            for local in self._words(
                    lambda word: _overlap(word, int(addr), width)):
                self._forget(local)
            words = []
        else:
            words = self._words(lambda word: True)
        if not words:
            for line in stores:
                self.emit(line)
            return
        self.emit(f"if {_span(words, width, addr)}:")
        dirty = [local for local in words if local in self.dirty]
        if dirty:
            self.emit(self.cold_flush(dirty), 1)
        self.emit(cold_store, 1)
        self.emit(f"{', '.join(words)}, = LW(mem, {self.addrs(words)})", 1)
        self.emit("else:")
        for line in stores:
            self.emit(line, 1)

    def const(self, value) -> str:
        """A name the generated code reads ``value`` by."""
        name = self.consts.get(value)
        if name is None:
            name = self.consts[value] = f"K{len(self.consts)}"
            self.namespace[name] = value
        return name

    def addrs(self, words: list[str]) -> str:
        """A name for the addresses of the word locals ``words``."""
        return self.const(tuple(int(local[2:]) for local in words))

    def cold_flush(self, words: list[str]) -> str:
        """One statement writing the word locals ``words`` back (slowly:
        for code that seldom runs)."""
        return f"FW(mem, locals(), {self.const(tuple(words))})"

    def leave(self, target: str, index: int, depth: int = 0) -> None:
        """Leave the block at instruction ``index`` for guest pc
        ``target``, writing every dirty local back first."""
        for writeback in self.dirty.values():
            self.emit(writeback, depth)
        self.emit(f"return ({target}, {index})", depth)

    def bind(self, expr: str) -> str:
        """A name or literal for ``expr``, so it can be used twice."""
        if expr.isidentifier() or expr.isdigit():
            return expr
        self.temps += 1
        temp = f"t{self.temps}"
        self.emit(f"{temp} = {expr}")
        return temp

    def target(self, label) -> str:
        if not isinstance(label, Label):
            raise FastExecError(f"cannot fuse a branch to {label!r}")
        if label.name == EXIT_LABEL:
            return self.word(ENV_BASE + NEXT_PC_OFFSET)
        if label.name.startswith("TB@"):
            return str(int(label.name[3:], 16))
        raise FastExecError(f"unexpected host branch target {label.name!r}")

    def instruction(self, index: int, instr: Instruction,
                    live: frozenset) -> None:
        """Write ``instr`` as :func:`execute` runs it on a
        :class:`SourceState`, with ``live`` the flags live after it; a
        branch's target is computed before its ``if``."""
        state = self.state
        state.live, state.effects = live, []
        state.assigned.clear()
        state.reads = {}
        branch = execute(instr, state, _SOURCE_ALU).branch
        for write, args, value in state.effects:
            write(*args, state.render(value))
        if branch is None:
            return
        target = self.target(branch.target)
        if type(branch.cond) is int:
            self.leave(target, index)
        else:
            _count(branch.cond)
            self.emit(f"if {state.render(branch.cond)}:")
            self.leave(target, index, 1)


class _RegionFuser(_Fuser):
    """Emits a :class:`Region`: each member's code, as :class:`_Fuser`
    writes it, under ``if b == <index>:`` in one ``while`` loop.

    Every member starts with the ``carried`` locals valid and the
    carried ones the region ever sets (``stored``) dirty: whichever
    path led there, they hold the values memory should hold, and a
    write-back of one that is in fact clean stores what its keys already
    hold.  Every exit writes back the uncarried dirty locals and reloads
    the carried words a byte store or an overlapping word made invalid;
    leaving the region then writes back ``stored``.
    """

    def __init__(self, blocks: list, carried: frozenset,
                 stored: frozenset) -> None:
        super().__init__()
        self.blocks = blocks
        self.members = {tb.guest_start: k for k, tb in enumerate(blocks)}
        self.carried = carried
        self.stored = sorted(stored)
        self.lines = ["def region(regs, flags, mem, b, budget, c):"]
        self.namespace["M"] = self.members
        self.namespace["PL"] = _preload_words

    def region(self) -> None:
        self.indent = 1
        if self.carried:
            words = sorted(local for local in self.carried if local[0] == "m")
            self.emit("try:")
            for local in sorted(self.carried):
                if local[0] != "m":
                    table = "regs" if local[0] == "r" else "flags"
                    self.emit(f"{local} = {table}[{local[2:]!r}]", 1)
            if words:
                self.emit(
                    f"{', '.join(words)}, = PL(mem, {self.addrs(words)})", 1)
            self.emit("except KeyError:")
            self.emit("return None", 1)
        self.namespace["T"] = tuple(self.blocks)
        counts = ", ".join(f"n{k}" for k in range(len(self.blocks)))
        cycles = ", ".join(f"y{k}" for k in range(len(self.blocks)))
        self.emit(f"{counts}, = [tb.exec_count for tb in T]")
        self.emit(f"{cycles}, = [tb.exec_cycles for tb in T]")
        self.emit("d = h = 0")
        self.emit("while True:")
        for k, tb in enumerate(self.blocks):
            self.indent = 2
            self.emit(f"if b == {k}:")
            self.indent = 3
            self.emit("if d >= budget:")
            self.emit(f"pc = {tb.guest_start}", 1)
            self.emit("break", 1)
            self.emit(f"n{k} += 1")
            self.emit("d += 1")
            self.k = k
            self.temps = 0
            self.exit_cycles = tb.exit_cycles
            self.valid = set(self.carried)
            self.dirty = {local: _writeback(local) for local in self.stored}
            self.block(tb.host_instrs)
        self.indent = 1
        words = [local for local in self.stored if local[0] == "m"]
        for local in self.stored:
            if local[0] != "m":
                self.emit(_writeback(local))
        if words:
            self.emit(f"SW(mem, {self.addrs(words)}, {', '.join(words)})")
        self.emit(f"for tb, n, y in zip(T, ({counts},), ({cycles},)):")
        self.emit("tb.exec_count = n", 1)
        self.emit("tb.exec_cycles = y", 1)
        self.emit("return pc, d, h, c")

    def leave(self, target: str, index: int, depth: int = 0) -> None:
        cost = repr(self.exit_cycles[index])
        self.emit(f"h += {index + 1}", depth)
        self.emit(f"c += {cost}", depth)
        self.emit(f"y{self.k} += {cost}", depth)
        for local, writeback in self.dirty.items():
            if local not in self.carried:
                self.emit(writeback, depth)
        for local in sorted(self.carried - self.valid):
            self.emit(f"{local} = {_load_source(local)}", depth)
        if not target.isdigit():
            # An exit through ``NEXT_PC`` stays inside when it names a
            # member, which may be any of them.
            self.emit(f"pc = {target}", depth)
            self.emit("b = M.get(pc)", depth)
            self.emit("if b is None:", depth)
            self.emit("break", depth + 1)
            self.emit("continue", depth)
            return
        member = self.members.get(int(target))
        if member is None:
            self.emit(f"pc = {target}", depth)
            self.emit("break", depth)
            return
        self.emit(f"b = {member}", depth)
        if depth or index != self.last or member <= self.k:
            self.emit("continue", depth)


class _StepFuser(_Fuser):
    """Emits the step factory of one instruction shape: ``make(R0, ...,
    K0, ...)`` returns a step that reads ``regs``, ``flags`` and ``mem``
    where the instruction reads them, writes every result straight back
    to them, and returns the label name it branches to or ``None``."""

    def __init__(self, params: list[str]) -> None:
        super().__init__()
        self.params = frozenset(params)
        self.lines = [f"def make({', '.join(params)}):",
                      "    def step(regs, flags, mem):"]
        self.indent = 2

    def step(self, instr: Instruction) -> None:
        self.instruction(0, instr, frozenset(_FLAGS))
        if len(self.lines) == 2:
            self.emit("pass")  # a shift by 0 does nothing
        self.indent = 1
        self.emit("return step")

    def _key(self, name: str) -> str:
        return name if name in self.params else repr(name)

    def reg(self, name: str) -> str:
        if any(local[0] == "r" for local in self.state.assigned):
            # A placeholder may stand for the register already set.
            raise FastExecError(f"{name} is read after a register is set")
        return f"regs.get({self._key(name)}, 0)"

    def flag(self, name: str) -> str:
        if f"f_{name}" in self.state.assigned:
            raise FastExecError(f"{name} is read after it is set")
        return f"flags.get({name!r}, 0)"

    def _set(self, local: str, expr: str) -> None:
        table = "regs" if local[0] == "r" else "flags"
        self.emit(f"{table}[{self._key(local[2:])}] = {expr}")
        self.state.assigned.add(local)

    def target(self, label) -> str:
        if not isinstance(label, Label):
            raise FastExecError(f"cannot compile a branch to {label!r}")
        return label.name

    def leave(self, target: str, index: int, depth: int = 0) -> None:
        self.emit(f"return {target}", depth)


def _store_words(mem: dict, addrs: tuple[int, ...], *values: int) -> None:
    """Store each 4-byte ``values[i]`` little-endian at ``addrs[i]``."""
    for addr, value in zip(addrs, values):
        mem[addr] = value & 255
        mem[addr + 1] = value >> 8 & 255
        mem[addr + 2] = value >> 16 & 255
        mem[addr + 3] = value >> 24 & 255


def _load_words(mem: dict, addrs: tuple[int, ...]) -> list[int]:
    """The 4-byte little-endian word at each of ``addrs``."""
    return [mem.get(addr, 0) | mem.get(addr + 1, 0) << 8
            | mem.get(addr + 2, 0) << 16 | mem.get(addr + 3, 0) << 24
            for addr in addrs]


def _preload_words(mem: dict, addrs: tuple[int, ...]) -> list[int]:
    """As :func:`_load_words`, raising ``KeyError`` for an absent
    byte."""
    return [mem[addr] | mem[addr + 1] << 8 | mem[addr + 2] << 16
            | mem[addr + 3] << 24 for addr in addrs]


def _flush_words(mem: dict, values: dict, words: tuple[str, ...]) -> None:
    """Write the word locals ``words`` back from ``values``, the
    generated function's ``locals()``."""
    _store_words(mem, tuple(int(local[2:]) for local in words),
                 *[values[local] for local in words])


def _overlap(word: int, addr: int, width: int) -> bool:
    """Does a ``width``-byte access at ``addr`` touch the word at
    ``word``?"""
    return addr < word + 4 and word < addr + width


def _span(words: list[str], width: int, addr: str) -> str:
    """Source testing whether a ``width``-byte access at ``addr`` may
    touch any of the word locals ``words``."""
    addrs = [int(local[2:]) for local in words]
    return f"{min(addrs) - width + 1} <= {addr} < {max(addrs) + 4}"


def _load_source(local: str) -> str:
    """Source reading a local's value from its dict."""
    name = local[2:]
    if local[0] == "r":
        return f"regs.get({name!r}, 0)"
    if local[0] == "f":
        return f"flags.get({name!r}, 0)"
    return _word_source(name)


def _writeback(local: str) -> str:
    """The statement writing a local back to its dict."""
    name = local[2:]
    if local[0] == "r":
        return f"regs[{name!r}] = {local}"
    if local[0] == "f":
        return f"flags[{name!r}] = {local}"
    return "; ".join(_word_bytes(name, local))


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
