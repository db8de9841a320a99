"""TCG-like micro-op IR (the QEMU tiny code generator model).

The ARM frontend translates each guest instruction into several TCG
ops by running the ARM semantics on a state and ALU that emit them
(:mod:`repro.dbt.frontend`); the x86 backend lowers each TCG op into
one or more host instructions.  This two-step, per-op translation is
what produces QEMU's characteristic code expansion (paper Section 1)
that learned rules bypass.

Temps are strings ``%tN``; guest registers and guest condition flags
live in the in-memory CPU env and are accessed via ``ld_reg``/
``st_reg`` / ``ld_flag``/``st_flag`` (the backend caches them in host
registers within a block and writes dirty values back at block ends,
like QEMU's TCG register allocator).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class TcgCond(enum.Enum):
    """Comparison conditions for setcond/brcond."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"  # signed
    LE = "le"
    GT = "gt"
    GE = "ge"
    LTU = "ltu"
    LEU = "leu"
    GTU = "gtu"
    GEU = "geu"


@dataclass
class TcgOp:
    """One TCG micro-op.

    Operand conventions (``out`` is the defined temp):

    ========== ===========================================================
    op         fields used
    ========== ===========================================================
    movi       out, a               (a is the immediate)
    mov        out, a
    add..sar   out, a, b            (binary ALU; b may be temp or imm)
    neg/not    out, a
    ld_reg     out, reg             (guest register -> temp)
    st_reg     reg, a
    ld_flag    out, flag            (guest N/Z/C/V -> temp, value 0/1)
    st_flag    flag, a
    qemu_ld    out, a (address), size
    qemu_st    a (address), b (value), size
    setcond    out, cond, a, b      (out = a <cond> b ? 1 : 0)
    movcond    out, a (0/1 temp), b (then), c (else)
    cmp_flags  flag (kind: "sub"/"add"/"and"/"xor"), a, b —
               compute the guest NZCV for ``a <kind> b`` into the env
               flags (lowered to one host compare + setcc sequence,
               like QEMU's materialized condition codes)
    brcond     cond, a, b, taken, fallthrough   (guest addresses)
    goto_tb    taken                (guest address)
    exit_indirect  a                (temp holding the guest target addr)
    ========== ===========================================================
    """

    op: str
    out: str | None = None
    a: str | int | None = None
    b: str | int | None = None
    c: str | int | None = None
    reg: str | None = None
    flag: str | None = None
    cond: TcgCond | None = None
    size: int = 4
    taken: int | None = None
    fallthrough: int | None = None

    def temps_used(self) -> tuple[str, ...]:
        used = []
        for value in (self.a, self.b, self.c):
            if isinstance(value, str):
                used.append(value)
        return tuple(used)

    def __str__(self) -> str:
        if self.op == "movi":
            return f"movi {self.out}, {self.a}"
        if self.op == "ld_reg":
            return f"{self.out} = env.{self.reg}"
        if self.op == "st_reg":
            return f"env.{self.reg} = {self.a}"
        if self.op == "ld_flag":
            return f"{self.out} = env.flag_{self.flag}"
        if self.op == "st_flag":
            return f"env.flag_{self.flag} = {self.a}"
        if self.op == "qemu_ld":
            return f"{self.out} = ld{self.size} [{self.a}]"
        if self.op == "qemu_st":
            return f"st{self.size} [{self.a}] = {self.b}"
        if self.op == "setcond":
            return f"{self.out} = {self.a} {self.cond.value} {self.b}"
        if self.op == "brcond":
            return (f"brcond {self.a} {self.cond.value} {self.b} "
                    f"-> {self.taken:#x} / {self.fallthrough:#x}")
        if self.op == "goto_tb":
            return f"goto_tb {self.taken:#x}"
        if self.op == "exit_indirect":
            return f"exit_indirect {self.a}"
        if self.out is not None and self.b is not None:
            return f"{self.out} = {self.a} {self.op} {self.b}"
        if self.out is not None:
            return f"{self.out} = {self.op} {self.a}"
        return self.op


@dataclass
class TcgBlock:
    """The TCG ops of one translation block."""

    guest_start: int  # guest address
    ops: list[TcgOp] = field(default_factory=list)
    temp_counter: int = 0

    def new_temp(self) -> str:
        self.temp_counter += 1
        return f"%t{self.temp_counter}"

    def emit(self, **kwargs) -> TcgOp:
        op = TcgOp(**kwargs)
        self.ops.append(op)
        return op

    def dump(self) -> str:
        return "\n".join(str(op) for op in self.ops)
