"""Smart constructors for IR expressions.

These perform *light* peephole folding (constant folding plus trivial
identities) so that the symbolic executor produces compact trees.  Deeper
rewriting lives in :mod:`repro.ir.simplify`.
"""

from __future__ import annotations

from repro.ir.expr import (
    BinOp,
    Binary,
    CmpKind,
    CmpOp,
    Concat,
    Const,
    Expr,
    Extend,
    Extract,
    Ite,
    Sym,
    UnOp,
    Unary,
    mask,
    to_signed,
)

TRUE = Const(1, 1)
FALSE = Const(1, 0)


def bv(width: int, value: int) -> Const:
    """Build a constant bitvector."""
    return Const(width, value)


def sym(width: int, name: str) -> Sym:
    """Build a symbolic variable."""
    return Sym(width, name)


def _fold_binary(op: Binary, a: int, b: int, width: int) -> int:
    """Concrete semantics of every binary operator, on canonical ints."""
    if op is Binary.ADD:
        return a + b
    if op is Binary.SUB:
        return a - b
    if op is Binary.MUL:
        return a * b
    if op is Binary.UDIV:
        return mask(width) if b == 0 else a // b
    if op is Binary.SDIV:
        sa, sb = to_signed(a, width), to_signed(b, width)
        if sb == 0:
            return -1
        quotient = abs(sa) // abs(sb)
        return quotient if (sa < 0) == (sb < 0) else -quotient
    if op is Binary.UREM:
        return a if b == 0 else a % b
    if op is Binary.SREM:
        sa, sb = to_signed(a, width), to_signed(b, width)
        if sb == 0:
            return sa
        remainder = abs(sa) % abs(sb)
        return -remainder if sa < 0 else remainder
    if op is Binary.AND:
        return a & b
    if op is Binary.OR:
        return a | b
    if op is Binary.XOR:
        return a ^ b
    if op is Binary.SHL:
        return 0 if b >= width else a << b
    if op is Binary.LSHR:
        return 0 if b >= width else a >> b
    if op is Binary.ASHR:
        sa = to_signed(a, width)
        return sa >> min(b, width - 1)
    raise AssertionError(f"unhandled binary op {op}")


def _fold_cmp(kind: CmpKind, a: int, b: int, width: int) -> bool:
    """Concrete semantics of every comparison operator."""
    sa, sb = to_signed(a, width), to_signed(b, width)
    table = {
        CmpKind.EQ: a == b,
        CmpKind.NE: a != b,
        CmpKind.ULT: a < b,
        CmpKind.ULE: a <= b,
        CmpKind.UGT: a > b,
        CmpKind.UGE: a >= b,
        CmpKind.SLT: sa < sb,
        CmpKind.SLE: sa <= sb,
        CmpKind.SGT: sa > sb,
        CmpKind.SGE: sa >= sb,
    }
    return table[kind]


def _binop(op: Binary, a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.width, _fold_binary(op, a.value, b.value, a.width))
    # Trivial identities that keep symbolic trees small.
    if isinstance(b, Const):
        if b.value == 0 and op in (
            Binary.ADD,
            Binary.SUB,
            Binary.OR,
            Binary.XOR,
            Binary.SHL,
            Binary.LSHR,
            Binary.ASHR,
        ):
            return a
        if b.value == 0 and op is Binary.AND:
            return Const(a.width, 0)
        if b.value == mask(a.width) and op is Binary.AND:
            return a
        if b.value == 1 and op is Binary.MUL:
            return a
        if b.value == 0 and op is Binary.MUL:
            return Const(a.width, 0)
    if isinstance(a, Const):
        if a.value == 0 and op in (Binary.ADD, Binary.OR, Binary.XOR):
            return b
        if a.value == 0 and op in (Binary.AND, Binary.MUL, Binary.SHL, Binary.LSHR):
            return Const(a.width, 0)
    return BinOp(a.width, op, a, b)


def add(a: Expr, b: Expr) -> Expr:
    return _binop(Binary.ADD, a, b)


def sub(a: Expr, b: Expr) -> Expr:
    return _binop(Binary.SUB, a, b)


def mul(a: Expr, b: Expr) -> Expr:
    return _binop(Binary.MUL, a, b)


def udiv(a: Expr, b: Expr) -> Expr:
    return _binop(Binary.UDIV, a, b)


def sdiv(a: Expr, b: Expr) -> Expr:
    return _binop(Binary.SDIV, a, b)


def urem(a: Expr, b: Expr) -> Expr:
    return _binop(Binary.UREM, a, b)


def srem(a: Expr, b: Expr) -> Expr:
    return _binop(Binary.SREM, a, b)


def and_(a: Expr, b: Expr) -> Expr:
    return _binop(Binary.AND, a, b)


def or_(a: Expr, b: Expr) -> Expr:
    return _binop(Binary.OR, a, b)


def xor(a: Expr, b: Expr) -> Expr:
    return _binop(Binary.XOR, a, b)


def shl(a: Expr, b: Expr) -> Expr:
    return _binop(Binary.SHL, a, b)


def lshr(a: Expr, b: Expr) -> Expr:
    return _binop(Binary.LSHR, a, b)


def ashr(a: Expr, b: Expr) -> Expr:
    return _binop(Binary.ASHR, a, b)


def not_(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(a.width, ~a.value)
    if isinstance(a, UnOp) and a.op is Unary.NOT:
        return a.a
    return UnOp(a.width, Unary.NOT, a)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(a.width, -a.value)
    if isinstance(a, UnOp) and a.op is Unary.NEG:
        return a.a
    return UnOp(a.width, Unary.NEG, a)


def _cmp(kind: CmpKind, a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return TRUE if _fold_cmp(kind, a.value, b.value, a.width) else FALSE
    if a == b:
        reflexive_true = kind in (CmpKind.EQ, CmpKind.ULE, CmpKind.UGE,
                                  CmpKind.SLE, CmpKind.SGE)
        reflexive_false = kind in (CmpKind.NE, CmpKind.ULT, CmpKind.UGT,
                                   CmpKind.SLT, CmpKind.SGT)
        if reflexive_true:
            return TRUE
        if reflexive_false:
            return FALSE
    return CmpOp(1, kind, a, b)


def eq(a: Expr, b: Expr) -> Expr:
    return _cmp(CmpKind.EQ, a, b)


def ne(a: Expr, b: Expr) -> Expr:
    return _cmp(CmpKind.NE, a, b)


def ult(a: Expr, b: Expr) -> Expr:
    return _cmp(CmpKind.ULT, a, b)


def ule(a: Expr, b: Expr) -> Expr:
    return _cmp(CmpKind.ULE, a, b)


def ugt(a: Expr, b: Expr) -> Expr:
    return _cmp(CmpKind.UGT, a, b)


def uge(a: Expr, b: Expr) -> Expr:
    return _cmp(CmpKind.UGE, a, b)


def slt(a: Expr, b: Expr) -> Expr:
    return _cmp(CmpKind.SLT, a, b)


def sle(a: Expr, b: Expr) -> Expr:
    return _cmp(CmpKind.SLE, a, b)


def sgt(a: Expr, b: Expr) -> Expr:
    return _cmp(CmpKind.SGT, a, b)


def sge(a: Expr, b: Expr) -> Expr:
    return _cmp(CmpKind.SGE, a, b)


def extract(hi: int, lo: int, a: Expr) -> Expr:
    if hi == a.width - 1 and lo == 0:
        return a
    if isinstance(a, Const):
        return Const(hi - lo + 1, a.value >> lo)
    if isinstance(a, Extract):
        return extract(a.lo + hi, a.lo + lo, a.a)
    if isinstance(a, Concat):
        if lo >= a.b.width:
            return extract(hi - a.b.width, lo - a.b.width, a.a)
        if hi < a.b.width:
            return extract(hi, lo, a.b)
    if isinstance(a, Extend) and hi < a.a.width:
        return extract(hi, lo, a.a)
    if isinstance(a, Extend) and not a.signed and lo >= a.a.width:
        return Const(hi - lo + 1, 0)
    return Extract(hi - lo + 1, hi, lo, a)


def zext(width: int, a: Expr) -> Expr:
    if width == a.width:
        return a
    if isinstance(a, Const):
        return Const(width, a.value)
    return Extend(width, False, a)


def sext(width: int, a: Expr) -> Expr:
    if width == a.width:
        return a
    if isinstance(a, Const):
        return Const(width, to_signed(a.value, a.width))
    return Extend(width, True, a)


def concat(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.width + b.width, (a.value << b.width) | b.value)
    if isinstance(a, Const) and a.value == 0:
        return zext(a.width + b.width, b)
    return Concat(a.width + b.width, a, b)


def ite(cond: Expr, then: Expr, other: Expr) -> Expr:
    if isinstance(cond, Const):
        return then if cond.value else other
    if then == other:
        return then
    # (ite c 1 0) over 1-bit arms is just the condition itself.
    if (
        then.width == 1
        and isinstance(then, Const)
        and isinstance(other, Const)
        and then.value == 1
        and other.value == 0
    ):
        return cond
    return Ite(then.width, cond, then, other)
