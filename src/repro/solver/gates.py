"""Word-level circuit construction over ROBDD bits.

The adder / shifter / multiplier / divider / comparator circuits the
equivalence checker needs, built from the three gates a
:class:`~repro.solver.bdd.BddBackend` supplies (NOT, AND, XOR).  A bit
is a BDD node handle; vectors are LSB-first.
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
)
from repro.solver.bdd import BddBackend

#: A bit is a BDD node handle.
Bit = int


class CircuitBuilder:
    """Lowers IR expressions to BDD bit vectors.

    Vectors are LSB-first.  Expression nodes are cached so shared
    subtrees are lowered once.
    """

    def __init__(self, backend: BddBackend) -> None:
        self.backend = backend
        self._cache: dict[Expr, list[Bit]] = {}

    # -- gate sugar ---------------------------------------------------------

    def _and(self, a: Bit, b: Bit) -> Bit:
        return self.backend.and_gate(a, b)

    def _or(self, a: Bit, b: Bit) -> Bit:
        backend = self.backend
        return backend.not_gate(
            backend.and_gate(backend.not_gate(a), backend.not_gate(b))
        )

    def _xor(self, a: Bit, b: Bit) -> Bit:
        return self.backend.xor_gate(a, b)

    def _not(self, a: Bit) -> Bit:
        return self.backend.not_gate(a)

    def _mux(self, sel: Bit, then: Bit, other: Bit) -> Bit:
        return self._or(self._and(sel, then), self._and(self._not(sel), other))

    @property
    def _true(self) -> Bit:
        return self.backend.true_bit

    @property
    def _false(self) -> Bit:
        return self.backend.false_bit

    # -- word-level circuits --------------------------------------------------

    def const_word(self, width: int, value: int) -> list[Bit]:
        return [self._true if value >> i & 1 else self._false for i in range(width)]

    def adder(self, a: list[Bit], b: list[Bit], cin: Bit) -> list[Bit]:
        out: list[Bit] = []
        carry = cin
        for abit, bbit in zip(a, b):
            axb = self._xor(abit, bbit)
            out.append(self._xor(axb, carry))
            carry = self._or(self._and(abit, bbit), self._and(axb, carry))
        return out

    def negate(self, a: list[Bit]) -> list[Bit]:
        inverted = [self._not(bit) for bit in a]
        return self.adder(inverted, self.const_word(len(a), 0), self._true)

    def mux_word(self, sel: Bit, then: list[Bit], other: list[Bit]) -> list[Bit]:
        return [self._mux(sel, t, o) for t, o in zip(then, other)]

    def eq_bit(self, a: list[Bit], b: list[Bit]) -> Bit:
        result = self._true
        for abit, bbit in zip(a, b):
            result = self._and(result, self._not(self._xor(abit, bbit)))
        return result

    def ult_bit(self, a: list[Bit], b: list[Bit]) -> Bit:
        result = self._false
        for abit, bbit in zip(a, b):  # fold LSB..MSB so the MSB dominates
            eq_here = self._not(self._xor(abit, bbit))
            lt_here = self._and(self._not(abit), bbit)
            result = self._or(lt_here, self._and(eq_here, result))
        return result

    def slt_bit(self, a: list[Bit], b: list[Bit]) -> Bit:
        flipped_a = a[:-1] + [self._not(a[-1])]
        flipped_b = b[:-1] + [self._not(b[-1])]
        return self.ult_bit(flipped_a, flipped_b)

    def shifter(self, a: list[Bit], amount: list[Bit], kind: Binary) -> list[Bit]:
        """Barrel shifter; amounts >= width give 0 (sign fill for ASHR)."""
        width = len(a)
        fill = a[-1] if kind is Binary.ASHR else self._false
        current = list(a)
        stages = max(1, (width - 1).bit_length())
        for stage in range(stages):
            step = 1 << stage
            sel = amount[stage] if stage < len(amount) else self._false
            if kind is Binary.SHL:
                shifted = [self._false] * min(step, width) + current[: width - step]
            else:
                shifted = current[step:] + [fill] * min(step, width)
            shifted = shifted[:width]
            while len(shifted) < width:
                shifted.append(fill)
            current = self.mux_word(sel, shifted, current)
        overflow = self._false
        for bit in amount[stages:]:
            overflow = self._or(overflow, bit)
        if width & (width - 1):  # non-power-of-two width: amount >= width
            width_word = self.const_word(len(amount), width)
            overflow = self._or(overflow, self._not(self.ult_bit(amount, width_word)))
        return self.mux_word(overflow, [fill] * width, current)

    def _constant_value(self, bits: list[Bit]) -> int | None:
        """If every bit handle is the constant true/false, decode it."""
        value = 0
        for i, bit in enumerate(bits):
            if bit == self._true:
                value |= 1 << i
            elif bit != self._false:
                return None
        return value

    def multiplier(self, a: list[Bit], b: list[Bit]) -> list[Bit]:
        width = len(a)
        const_b = self._constant_value(b)
        if const_b is None and self._constant_value(a) is not None:
            a, b = b, a
            const_b = self._constant_value(b)
        if const_b is not None:
            return self._multiply_by_constant(a, const_b)
        accum = self.const_word(width, 0)
        for i in range(width):
            partial = [
                self._and(b[i], a[j - i]) if j >= i else self._false
                for j in range(width)
            ]
            accum = self.adder(accum, partial, self._false)
        return accum

    def _multiply_by_constant(self, a: list[Bit], value: int) -> list[Bit]:
        """Shift-add over set bits; negate first when that is cheaper."""
        width = len(a)
        value &= (1 << width) - 1
        complement = (-value) & ((1 << width) - 1)
        if bin(complement).count("1") < bin(value).count("1"):
            return self.negate(self._multiply_by_constant(a, complement))
        accum = self.const_word(width, 0)
        for i in range(width):
            if value >> i & 1:
                shifted = [self._false] * i + a[: width - i]
                accum = self.adder(accum, shifted, self._false)
        return accum

    def divider(self, a: list[Bit], b: list[Bit]) -> tuple[list[Bit], list[Bit]]:
        """Restoring unsigned division -> (quotient, remainder).

        Division by zero: quotient all-ones, remainder = a (IR convention).
        """
        width = len(a)
        remainder = self.const_word(width, 0)
        quotient: list[Bit] = [self._false] * width
        for i in range(width - 1, -1, -1):
            remainder = [a[i]] + remainder[:-1]
            can_sub = self._not(self.ult_bit(remainder, b))
            diff = self.adder(remainder, [self._not(bit) for bit in b], self._true)
            remainder = self.mux_word(can_sub, diff, remainder)
            quotient[i] = can_sub
        b_is_zero = self.eq_bit(b, self.const_word(width, 0))
        quotient = self.mux_word(b_is_zero, [self._true] * width, quotient)
        remainder = self.mux_word(b_is_zero, a, remainder)
        return quotient, remainder

    def abs_word(self, a: list[Bit]) -> list[Bit]:
        return self.mux_word(a[-1], self.negate(a), a)

    # -- expression lowering ----------------------------------------------------

    def lower(self, expr: Expr) -> list[Bit]:
        cached = self._cache.get(expr)
        if cached is not None:
            return cached
        bits = self._lower(expr)
        self._cache[expr] = bits
        return bits

    def _lower(self, expr: Expr) -> list[Bit]:
        if isinstance(expr, Const):
            return self.const_word(expr.width, expr.value)
        if isinstance(expr, Sym):
            return self.backend.symbol_bits(expr.name, expr.width)
        if isinstance(expr, UnOp):
            a = self.lower(expr.a)
            if expr.op is Unary.NOT:
                return [self._not(bit) for bit in a]
            return self.negate(a)
        if isinstance(expr, BinOp):
            return self._lower_binop(expr)
        if isinstance(expr, CmpOp):
            return [self._lower_cmp(expr)]
        if isinstance(expr, Extract):
            return self.lower(expr.a)[expr.lo : expr.hi + 1]
        if isinstance(expr, Extend):
            a = self.lower(expr.a)
            fill = a[-1] if expr.signed else self._false
            return a + [fill] * (expr.width - expr.a.width)
        if isinstance(expr, Concat):
            high = self.lower(expr.a)
            low = self.lower(expr.b)
            return low + high
        if isinstance(expr, Ite):
            sel = self.lower(expr.cond)[0]
            return self.mux_word(sel, self.lower(expr.then), self.lower(expr.other))
        raise AssertionError(f"unhandled expr {type(expr).__name__}")

    def _lower_binop(self, expr: BinOp) -> list[Bit]:
        a = self.lower(expr.a)
        b = self.lower(expr.b)
        op = expr.op
        if op is Binary.ADD:
            return self.adder(a, b, self._false)
        if op is Binary.SUB:
            return self.adder(a, [self._not(bit) for bit in b], self._true)
        if op is Binary.MUL:
            return self.multiplier(a, b)
        if op is Binary.AND:
            return [self._and(x, y) for x, y in zip(a, b)]
        if op is Binary.OR:
            return [self._or(x, y) for x, y in zip(a, b)]
        if op is Binary.XOR:
            return [self._xor(x, y) for x, y in zip(a, b)]
        if op in (Binary.SHL, Binary.LSHR, Binary.ASHR):
            return self.shifter(a, b, op)
        if op is Binary.UDIV:
            return self.divider(a, b)[0]
        if op is Binary.UREM:
            return self.divider(a, b)[1]
        if op in (Binary.SDIV, Binary.SREM):
            return self._lower_signed_div(a, b, op)
        raise AssertionError(f"unhandled binop {op}")

    def _lower_signed_div(self, a: list[Bit], b: list[Bit], op: Binary) -> list[Bit]:
        width = len(a)
        quotient, remainder = self.divider(self.abs_word(a), self.abs_word(b))
        b_is_zero = self.eq_bit(b, self.const_word(width, 0))
        if op is Binary.SDIV:
            flip = self._xor(a[-1], b[-1])
            result = self.mux_word(flip, self.negate(quotient), quotient)
            return self.mux_word(b_is_zero, [self._true] * width, result)
        result = self.mux_word(a[-1], self.negate(remainder), remainder)
        return self.mux_word(b_is_zero, a, result)

    def _lower_cmp(self, expr: CmpOp) -> Bit:
        a = self.lower(expr.a)
        b = self.lower(expr.b)
        kind = expr.kind
        if kind is CmpKind.EQ:
            return self.eq_bit(a, b)
        if kind is CmpKind.NE:
            return self._not(self.eq_bit(a, b))
        if kind is CmpKind.ULT:
            return self.ult_bit(a, b)
        if kind is CmpKind.UGE:
            return self._not(self.ult_bit(a, b))
        if kind is CmpKind.UGT:
            return self.ult_bit(b, a)
        if kind is CmpKind.ULE:
            return self._not(self.ult_bit(b, a))
        if kind is CmpKind.SLT:
            return self.slt_bit(a, b)
        if kind is CmpKind.SGE:
            return self._not(self.slt_bit(a, b))
        if kind is CmpKind.SGT:
            return self.slt_bit(b, a)
        if kind is CmpKind.SLE:
            return self._not(self.slt_bit(b, a))
        raise AssertionError(f"unhandled cmp {kind}")
