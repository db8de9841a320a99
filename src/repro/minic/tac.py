"""MiniC three-address intermediate representation (TAC).

TAC is the compiler's analogue of LLVM's machine-specific IR in the
paper: it is what the optimization passes transform, what the backends
select instructions from, and the layer where memory operands carry the
*IR variable names* the learner later uses to map guest and host memory
operands (paper Section 3.2).

Values are virtual registers (strings like ``%t3``) or Python int
immediates.  Memory addresses are structured (:class:`TAddr`) so
backends can fuse them into real addressing modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

Value = str | int  # virtual register name or immediate

BIN_OPS = ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", "u>>")
CMP_OPS = ("==", "!=", "<", "<=", ">", ">=", "u<", "u<=", "u>", "u>=")
UN_OPS = ("neg", "not")


@dataclass(frozen=True)
class TAddr:
    """A structured address: ``symbol/base + index * scale + disp``.

    ``symbol`` names a global or stack slot (resolved by the backend);
    ``base``/``index`` are virtual registers.  ``var`` is the IR
    variable name attached for the learner.
    """

    base: str | None = None
    index: str | None = None
    scale: int = 1
    disp: int = 0
    symbol: str | None = None
    var: str | None = None

    def with_disp(self, disp: int) -> "TAddr":
        return replace(self, disp=disp)

    def values(self) -> tuple[str, ...]:
        regs = []
        if self.base is not None:
            regs.append(self.base)
        if self.index is not None:
            regs.append(self.index)
        return tuple(regs)

    def __str__(self) -> str:
        parts = []
        if self.symbol:
            parts.append(self.symbol)
        if self.base:
            parts.append(self.base)
        if self.index:
            parts.append(f"{self.index}*{self.scale}" if self.scale != 1 else
                         self.index)
        body = "+".join(parts) or "0"
        if self.disp:
            body += f"{self.disp:+d}"
        return f"[{body}]"


@dataclass
class Instr:
    """One TAC instruction.

    ``op`` determines which fields are meaningful:

    ======== ==========================================================
    op       fields
    ======== ==========================================================
    const    dest, a (int)
    copy     dest, a
    bin      dest, bin_op, a, b
    un       dest, bin_op (the unary op), a
    load     dest, addr, size
    store    addr, a, size
    la       dest, addr (symbol-only address)
    call     dest (or None), name, args
    ret      a (or None)
    jmp      label
    cbr      bin_op (a CMP op), a, b, label (true), label2 (false)
    select   dest, bin_op (CMP), a, b, tval, fval
    label    label
    ======== ==========================================================
    """

    op: str
    line: int
    dest: str | None = None
    bin_op: str | None = None
    a: Value | None = None
    b: Value | None = None
    addr: TAddr | None = None
    size: int = 4
    name: str | None = None
    args: tuple[Value, ...] = ()
    label: str | None = None
    label2: str | None = None
    tval: Value | None = None
    fval: Value | None = None

    def uses(self) -> tuple[str, ...]:
        """Virtual registers this instruction reads, each once, in
        operand order (``a``, ``b``, ``tval``, ``fval``, ``args``, then
        the address's base and index)."""
        a = self.a
        b = self.b
        if (not self.args and self.addr is None and self.tval is None
                and self.fval is None):
            # Most instructions read at most ``a`` and ``b``.
            if isinstance(a, str):
                if isinstance(b, str) and b != a:
                    return a, b
                return (a,)
            if isinstance(b, str):
                return (b,)
            return ()
        used: list[str] = []
        for value in (a, b, self.tval, self.fval, *self.args):
            if isinstance(value, str) and value not in used:
                used.append(value)
        addr = self.addr
        if addr is not None:
            for value in (addr.base, addr.index):
                if isinstance(value, str) and value not in used:
                    used.append(value)
        return tuple(used)

    def replace_uses(self, mapping: dict[str, Value]) -> None:
        """Rewrite register uses in place via ``mapping``."""
        get = mapping.get
        a = self.a
        if isinstance(a, str):
            self.a = get(a, a)
        b = self.b
        if isinstance(b, str):
            self.b = get(b, b)
        tval = self.tval
        if isinstance(tval, str):
            self.tval = get(tval, tval)
        fval = self.fval
        if isinstance(fval, str):
            self.fval = get(fval, fval)
        if self.args:
            self.args = tuple([get(arg, arg) if isinstance(arg, str) else arg
                               for arg in self.args])
        if self.addr is not None:
            base = self.addr.base
            index = self.addr.index
            new_base = get(base, base) if base else base
            new_index = get(index, index) if index else index
            if new_base is not base or new_index is not index:
                # Addresses can only hold registers; constant folds into
                # disp when possible.
                addr = self.addr
                if isinstance(new_base, int):
                    addr = replace(addr, base=None, disp=addr.disp + new_base)
                elif new_base is not base:
                    addr = replace(addr, base=new_base)
                if isinstance(new_index, int):
                    addr = replace(
                        addr, index=None, disp=addr.disp + new_index * addr.scale
                    )
                elif new_index is not index:
                    addr = replace(addr, index=new_index)
                self.addr = addr

    def __str__(self) -> str:
        if self.op == "const":
            return f"{self.dest} = {self.a}"
        if self.op == "copy":
            return f"{self.dest} = {self.a}"
        if self.op == "bin":
            return f"{self.dest} = {self.a} {self.bin_op} {self.b}"
        if self.op == "un":
            return f"{self.dest} = {self.bin_op} {self.a}"
        if self.op == "load":
            return f"{self.dest} = load{self.size} {self.addr}"
        if self.op == "store":
            return f"store{self.size} {self.a} -> {self.addr}"
        if self.op == "la":
            return f"{self.dest} = la {self.addr}"
        if self.op == "call":
            prefix = f"{self.dest} = " if self.dest else ""
            args = ", ".join(str(arg) for arg in self.args)
            return f"{prefix}call {self.name}({args})"
        if self.op == "ret":
            return f"ret {self.a}" if self.a is not None else "ret"
        if self.op == "jmp":
            return f"jmp {self.label}"
        if self.op == "cbr":
            return (f"if {self.a} {self.bin_op} {self.b} "
                    f"goto {self.label} else {self.label2}")
        if self.op == "select":
            return (f"{self.dest} = ({self.a} {self.bin_op} {self.b}) "
                    f"? {self.tval} : {self.fval}")
        if self.op == "label":
            return f"{self.label}:"
        return self.op


@dataclass
class StackSlot:
    """A stack-allocated object (local array or unpromoted scalar)."""

    name: str
    size: int
    elem_size: int
    is_array: bool
    var: str  # source variable name (learner annotation)


@dataclass
class TacFunction:
    """One function in TAC form."""

    name: str
    params: list[str]  # virtual registers holding incoming arguments
    instrs: list[Instr] = field(default_factory=list)
    slots: dict[str, StackSlot] = field(default_factory=dict)
    temp_counter: int = 0
    label_counter: int = 0
    line: int = 0
    returns_value: bool = True

    def new_temp(self) -> str:
        self.temp_counter += 1
        return f"%t{self.temp_counter}"

    def new_label(self, hint: str = "L") -> str:
        self.label_counter += 1
        return f".{hint}{self.label_counter}_{self.name}"


@dataclass
class GlobalData:
    """A global object and its initial contents."""

    name: str
    size: int
    elem_size: int
    init: list[int] = field(default_factory=list)


@dataclass
class TacProgram:
    functions: dict[str, TacFunction] = field(default_factory=dict)
    globals: dict[str, GlobalData] = field(default_factory=dict)

    def dump(self) -> str:
        lines: list[str] = []
        for func in self.functions.values():
            params = ", ".join(func.params)
            lines.append(f"func {func.name}({params}):")
            for slot in func.slots.values():
                lines.append(f"    slot {slot.name}[{slot.size}]")
            for instr in func.instrs:
                indent = "" if instr.op == "label" else "    "
                lines.append(f"{indent}{instr}")
        return "\n".join(lines)
