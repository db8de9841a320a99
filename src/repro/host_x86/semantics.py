"""Single-source semantics for the IA-32 subset.

Flag conventions implemented (Intel SDM, restricted to OF/SF/ZF/CF):

* ``add``: CF = carry out; OF = signed overflow.
* ``sub``/``cmp``/``neg``: CF = *borrow* (1 when unsigned a < b) — the
  opposite polarity of ARM's C — and OF = signed overflow.
* logic ops and ``test``: CF = OF = 0.
* ``inc``/``dec``: CF preserved, OF/SF/ZF updated.
* shifts: CF = last bit shifted out; OF is left unmodeled (undefined
  for counts > 1 architecturally, and nothing in our corpus reads it
  after a shift); a zero count leaves all flags unchanged.
* ``imul``: OF = CF = high-part-significant; SF/ZF architecturally
  undefined and left unchanged.
"""

from __future__ import annotations

from repro.host_x86.isa import (
    CMOV_OPS,
    SETCC_OPS,
    branch_condition,
)
from repro.host_x86.registers import is_low8, parent_of
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Label, Mem, Reg, SymImm
from repro.isa.state import BranchKind, BranchOutcome, StepOutcome

_WORD = 4


def conditions(cond: str, state, alu):
    """Evaluate an x86 condition code to a 1-bit truth value."""
    flag_of = state.get_flag("OF")
    flag_sf = state.get_flag("SF")
    flag_zf = state.get_flag("ZF")
    flag_cf = state.get_flag("CF")
    if cond == "o":
        return flag_of
    if cond == "no":
        return alu.bool_not(flag_of)
    if cond == "e":
        return flag_zf
    if cond == "ne":
        return alu.bool_not(flag_zf)
    if cond == "s":
        return flag_sf
    if cond == "ns":
        return alu.bool_not(flag_sf)
    if cond == "b":
        return flag_cf
    if cond == "ae":
        return alu.bool_not(flag_cf)
    if cond == "a":
        return alu.bool_and(alu.bool_not(flag_cf), alu.bool_not(flag_zf))
    if cond == "be":
        return alu.bool_or(flag_cf, flag_zf)
    if cond == "l":
        return alu.xor(flag_sf, flag_of)
    if cond == "ge":
        return alu.bool_not(alu.xor(flag_sf, flag_of))
    if cond == "g":
        return alu.bool_and(
            alu.bool_not(flag_zf), alu.bool_not(alu.xor(flag_sf, flag_of))
        )
    if cond == "le":
        return alu.bool_or(flag_zf, alu.xor(flag_sf, flag_of))
    raise ValueError(f"unknown condition {cond!r}")


def _address(mem: Mem, state, alu):
    if mem.base is not None:
        addr = state.get_reg(mem.base.name)
    else:
        addr = alu.const(32, 0)
    if mem.index is not None:
        index = state.get_reg(mem.index.name)
        if mem.scale != 1:
            index = alu.shl(index, alu.const(32, mem.scale.bit_length() - 1))
        addr = alu.add(addr, index)
    if mem.disp:
        addr = alu.add(addr, alu.const(32, mem.disp))
    if mem.disp_param is not None:
        addr = alu.add(addr, state.imm_value(mem.disp_param))
    return addr


def _read(op, state, alu, size: int = 4):
    """Read a source operand (register / immediate / memory)."""
    if isinstance(op, Imm):
        return alu.const(32, op.value) if size == 4 else alu.const(8, op.value)
    if isinstance(op, SymImm):
        value = state.imm_value(op.expr)
        return value if size == 4 else alu.extract(7, 0, value)
    if isinstance(op, Reg):
        if is_low8(op.name):
            return alu.extract(7, 0, state.get_reg(parent_of(op.name)))
        return state.get_reg(op.name)
    if isinstance(op, Mem):
        return state.load(_address(op, state, alu), size)
    raise TypeError(f"bad source operand {op!r}")


def _write(op, value, state, alu, size: int = 4) -> None:
    """Write a destination operand (register / memory)."""
    if isinstance(op, Reg):
        if is_low8(op.name):
            parent = parent_of(op.name)
            old = state.get_reg(parent)
            high = alu.and_(old, alu.const(32, 0xFFFFFF00))
            state.set_reg(parent, alu.or_(high, alu.zext(32, value)))
        else:
            state.set_reg(op.name, value)
        return
    if isinstance(op, Mem):
        state.store(_address(op, state, alu), value, size)
        return
    raise TypeError(f"bad destination operand {op!r}")


def _set_szf(state, alu, result) -> None:
    state.set_flag("SF", alu.extract(31, 31, result))
    state.set_flag("ZF", alu.eq(result, alu.const(32, 0)))


def _set_add_flags(state, alu, a, b, result) -> None:
    _set_szf(state, alu, result)
    state.set_flag("CF", alu.ult(result, a))
    overflow = alu.and_(alu.xor(a, result), alu.not_(alu.xor(a, b)))
    state.set_flag("OF", alu.extract(31, 31, overflow))


def _set_sub_flags(state, alu, a, b, result) -> None:
    _set_szf(state, alu, result)
    state.set_flag("CF", alu.ult(a, b))  # borrow — inverse of ARM C
    overflow = alu.and_(alu.xor(a, b), alu.xor(a, result))
    state.set_flag("OF", alu.extract(31, 31, overflow))


def _set_logic_flags(state, alu, result) -> None:
    _set_szf(state, alu, result)
    state.set_flag("CF", alu.const(1, 0))
    state.set_flag("OF", alu.const(1, 0))


def execute(instr: Instruction, state, alu) -> StepOutcome:
    """Execute one x86 instruction against ``state`` via ``alu``."""
    name = instr.mnemonic
    ops = instr.operands

    cond = branch_condition(instr)
    if cond is not None:
        taken = conditions(cond, state, alu)
        return StepOutcome(BranchOutcome(taken, ops[0], BranchKind.JUMP))
    if name == "jmp":
        if isinstance(ops[0], Label):
            return StepOutcome(BranchOutcome(alu.const(1, 1), ops[0], BranchKind.JUMP))
        target = _read(ops[0], state, alu)
        return StepOutcome(BranchOutcome(alu.const(1, 1), target, BranchKind.INDIRECT))
    if name == "call":
        esp = alu.sub(state.get_reg("esp"), alu.const(32, _WORD))
        state.set_reg("esp", esp)
        return_addr = alu.add(state.get_reg("pc"), alu.const(32, 1))
        state.store(esp, return_addr, _WORD)
        if isinstance(ops[0], Label):
            return StepOutcome(BranchOutcome(alu.const(1, 1), ops[0], BranchKind.CALL))
        target = _read(ops[0], state, alu)
        return StepOutcome(BranchOutcome(alu.const(1, 1), target, BranchKind.CALL))
    if name == "ret":
        esp = state.get_reg("esp")
        target = state.load(esp, _WORD)
        state.set_reg("esp", alu.add(esp, alu.const(32, _WORD)))
        return StepOutcome(BranchOutcome(alu.const(1, 1), target, BranchKind.RETURN))

    if name == "pushl":
        esp = alu.sub(state.get_reg("esp"), alu.const(32, _WORD))
        state.set_reg("esp", esp)
        state.store(esp, _read(ops[0], state, alu), _WORD)
        return StepOutcome()
    if name == "popl":
        esp = state.get_reg("esp")
        _write(ops[0], state.load(esp, _WORD), state, alu)
        state.set_reg("esp", alu.add(esp, alu.const(32, _WORD)))
        return StepOutcome()

    if name == "movl":
        _write(ops[1], _read(ops[0], state, alu), state, alu)
        return StepOutcome()
    if name == "movb":
        value = _read(ops[0], state, alu, size=1)
        _write(ops[1], value, state, alu, size=1)
        return StepOutcome()
    if name in ("movzbl", "movsbl"):
        value = _read(ops[0], state, alu, size=1)
        if name == "movzbl":
            extended = alu.zext(32, value)
        else:
            extended = alu.sext_from(8, 32, value)
        _write(ops[1], extended, state, alu)
        return StepOutcome()
    if name == "leal":
        _write(ops[1], _address(ops[0], state, alu), state, alu)
        return StepOutcome()

    if name in ("addl", "subl", "imull", "andl", "orl", "xorl"):
        src = _read(ops[0], state, alu)
        dst = _read(ops[1], state, alu)
        if name == "addl":
            result = alu.add(dst, src)
            _set_add_flags(state, alu, dst, src, result)
        elif name == "subl":
            result = alu.sub(dst, src)
            _set_sub_flags(state, alu, dst, src, result)
        elif name == "imull":
            result = alu.mul(dst, src)
            # OF/CF: set when the full signed product does not fit.
            significant = alu.mul_overflow_signed(dst, src)
            state.set_flag("OF", significant)
            state.set_flag("CF", significant)
        else:
            result = {
                "andl": alu.and_,
                "orl": alu.or_,
                "xorl": alu.xor,
            }[name](dst, src)
            _set_logic_flags(state, alu, result)
        _write(ops[1], result, state, alu)
        return StepOutcome()

    if name in ("cmpl", "testl"):
        src = _read(ops[0], state, alu)
        dst = _read(ops[1], state, alu)
        if name == "cmpl":
            _set_sub_flags(state, alu, dst, src, alu.sub(dst, src))
        else:
            _set_logic_flags(state, alu, alu.and_(dst, src))
        return StepOutcome()

    if name in ("negl", "notl", "incl", "decl"):
        value = _read(ops[0], state, alu)
        if name == "negl":
            result = alu.neg(value)
            _set_sub_flags(state, alu, alu.const(32, 0), value, result)
        elif name == "notl":
            result = alu.not_(value)
        elif name == "incl":
            result = alu.add(value, alu.const(32, 1))
            _set_szf(state, alu, result)
            overflow = alu.eq(value, alu.const(32, 0x7FFFFFFF))
            state.set_flag("OF", overflow)
        else:
            result = alu.sub(value, alu.const(32, 1))
            _set_szf(state, alu, result)
            overflow = alu.eq(value, alu.const(32, 0x80000000))
            state.set_flag("OF", overflow)
        _write(ops[0], result, state, alu)
        return StepOutcome()

    if name in ("shll", "shrl", "sarl"):
        return _execute_shift(name, ops, state, alu)

    if name == "cltd":
        eax = state.get_reg("eax")
        sign = alu.ashr(eax, alu.const(32, 31))
        state.set_reg("edx", sign)
        return StepOutcome()
    if name == "idivl":
        divisor = _read(ops[0], state, alu)
        quotient, remainder = alu.divmod_signed_64(
            state.get_reg("edx"), state.get_reg("eax"), divisor
        )
        state.set_reg("eax", quotient)
        state.set_reg("edx", remainder)
        return StepOutcome()

    if name in CMOV_OPS:
        taken = conditions(name[4:], state, alu)
        src = _read(ops[0], state, alu)
        dst = _read(ops[1], state, alu)
        _write(ops[1], alu.ite(taken, src, dst), state, alu)
        return StepOutcome()

    if name in SETCC_OPS:
        taken = conditions(name[3:], state, alu)
        value = alu.ite(taken, alu.const(8, 1), alu.const(8, 0))
        _write(ops[0], value, state, alu, size=1)
        return StepOutcome()

    raise ValueError(f"unhandled x86 opcode {name!r}")


def _execute_shift(name: str, ops, state, alu) -> StepOutcome:
    count_op, dest = ops
    value = _read(dest, state, alu)
    if isinstance(count_op, SymImm):
        # Parameterized shift count (rule templates): general form with
        # the zero-count flag-preservation handled via ite.
        count = alu.and_(state.imm_value(count_op.expr), alu.const(32, 31))
        shifter = {"shll": alu.shl, "shrl": alu.lshr, "sarl": alu.ashr}[name]
        result = shifter(value, count)
        is_zero = alu.eq(count, alu.const(32, 0))
        prior = alu.sub(count, alu.const(32, 1))
        if name == "shll":
            last_out = alu.extract(31, 31, alu.shl(value, prior))
        else:
            last_out = alu.extract(0, 0, shifter(value, prior))
        _set_szf_conditional(state, alu, result, is_zero)
        state.set_flag("CF", alu.ite(is_zero, state.get_flag("CF"), last_out))
        _write(dest, alu.ite(is_zero, value, result), state, alu)
        return StepOutcome()
    if isinstance(count_op, Imm):
        count = count_op.value & 31
        if count == 0:
            return StepOutcome()
        count_val = alu.const(32, count)
        if name == "shll":
            result = alu.shl(value, count_val)
            last_out = alu.extract(31, 31, alu.shl(value, alu.const(32, count - 1)))
        elif name == "shrl":
            result = alu.lshr(value, count_val)
            last_out = alu.extract(0, 0, alu.lshr(value, alu.const(32, count - 1)))
        else:
            result = alu.ashr(value, count_val)
            last_out = alu.extract(0, 0, alu.ashr(value, alu.const(32, count - 1)))
        _set_szf(state, alu, result)
        state.set_flag("CF", last_out)
        _write(dest, result, state, alu)
        return StepOutcome()
    # Count in %cl: mask to 5 bits; zero count leaves flags unchanged.
    count = alu.and_(
        alu.zext(32, alu.extract(7, 0, state.get_reg("ecx"))), alu.const(32, 31)
    )
    shifter = {"shll": alu.shl, "shrl": alu.lshr, "sarl": alu.ashr}[name]
    result = shifter(value, count)
    is_zero_count = alu.eq(count, alu.const(32, 0))
    prior = alu.sub(count, alu.const(32, 1))
    if name == "shll":
        last_out = alu.extract(31, 31, alu.shl(value, prior))
    else:
        last_out = alu.extract(0, 0, shifter(value, prior))
    _set_szf_conditional(state, alu, result, is_zero_count)
    state.set_flag(
        "CF", alu.ite(is_zero_count, state.get_flag("CF"), last_out)
    )
    _write(dest, alu.ite(is_zero_count, value, result), state, alu)
    return StepOutcome()


def _set_szf_conditional(state, alu, result, skip) -> None:
    new_sf = alu.extract(31, 31, result)
    new_zf = alu.eq(result, alu.const(32, 0))
    state.set_flag("SF", alu.ite(skip, state.get_flag("SF"), new_sf))
    state.set_flag("ZF", alu.ite(skip, state.get_flag("ZF"), new_zf))
