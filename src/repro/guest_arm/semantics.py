"""Single-source semantics for the ARM32 subset.

``execute(instr, state, alu)`` mutates ``state`` through the
:class:`~repro.isa.state.MachineState` protocol and returns a
:class:`~repro.isa.state.StepOutcome`.  The same code runs concretely
(ints) and symbolically (IR expressions) depending on the ALU passed in.

Flag conventions implemented (ARM ARM):

* ``N`` = bit 31 of the result, ``Z`` = result == 0.
* addition: ``C`` = carry out, ``V`` = signed overflow.
* subtraction (including ``cmp``): ``C`` = NOT borrow (1 when the
  unsigned first operand >= second), ``V`` = signed overflow.  Note this
  is the *opposite* C polarity from x86 — the mismatch the paper's
  condition-code analysis has to reason about.
* flag-setting logical ops update only ``N`` and ``Z`` (shifter carry is
  not modeled; our compiler never emits flag-setting shifted logicals).
"""

from __future__ import annotations

from repro.guest_arm.isa import CONDITION_FLAGS, split_mnemonic
from repro.guest_arm.registers import register_number
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Mem, Reg, ShiftedReg, SymImm
from repro.isa.state import BranchKind, BranchOutcome, StepOutcome

_WORD = 4


def conditions(cond: str, state, alu):
    """Evaluate an ARM condition code to a 1-bit truth value, reading
    only the flags it needs, in :data:`CONDITION_FLAGS` order."""
    flags = {name: state.get_flag(name) for name in CONDITION_FLAGS[cond]}
    flag_n, flag_z = flags.get("N"), flags.get("Z")
    flag_c, flag_v = flags.get("C"), flags.get("V")
    if cond == "eq":
        return flag_z
    if cond == "ne":
        return alu.bool_not(flag_z)
    if cond == "mi":
        return flag_n
    if cond == "pl":
        return alu.bool_not(flag_n)
    if cond == "hs":
        return flag_c
    if cond == "lo":
        return alu.bool_not(flag_c)
    if cond == "hi":
        return alu.bool_and(flag_c, alu.bool_not(flag_z))
    if cond == "ls":
        return alu.bool_or(alu.bool_not(flag_c), flag_z)
    if cond == "ge":
        return alu.bool_not(alu.xor(flag_n, flag_v))
    if cond == "lt":
        return alu.xor(flag_n, flag_v)
    if cond == "gt":
        return alu.bool_and(
            alu.bool_not(flag_z), alu.bool_not(alu.xor(flag_n, flag_v))
        )
    return alu.bool_or(flag_z, alu.xor(flag_n, flag_v))  # le


def _operand_value(op, state, alu):
    """Value of a register / immediate / flexible second operand."""
    if isinstance(op, Imm):
        return alu.const(32, op.value)
    if isinstance(op, SymImm):
        return state.imm_value(op.expr)
    if isinstance(op, Reg):
        return state.get_reg(op.name)
    if isinstance(op, ShiftedReg):
        value = state.get_reg(op.reg.name)
        amount = alu.const(32, op.amount)
        if op.shift == "lsl":
            return alu.shl(value, amount)
        if op.shift == "lsr":
            return alu.lshr(value, amount)
        return alu.ashr(value, amount)
    raise TypeError(f"bad data operand {op!r}")


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


def _set_nz(state, alu, result) -> None:
    state.set_flag("N", alu.extract(31, 31, result))
    state.set_flag("Z", alu.eq(result, alu.const(32, 0)))


def _set_add_flags(state, alu, a, b, result) -> None:
    _set_nz(state, alu, result)
    state.set_flag("C", alu.ult(result, a))
    overflow = alu.and_(alu.xor(a, result), alu.not_(alu.xor(a, b)))
    state.set_flag("V", alu.extract(31, 31, overflow))


def _set_sub_flags(state, alu, a, b, result) -> None:
    _set_nz(state, alu, result)
    state.set_flag("C", alu.bool_not(alu.ult(a, b)))  # NOT borrow
    overflow = alu.and_(alu.xor(a, b), alu.xor(a, result))
    state.set_flag("V", alu.extract(31, 31, overflow))


def execute(instr: Instruction, state, alu) -> StepOutcome:
    """Execute one ARM instruction against ``state`` via ``alu``."""
    base, cond, sets_flags = split_mnemonic(instr.mnemonic)
    ops = instr.operands

    if base == "b":
        taken = alu.const(1, 1) if cond is None else conditions(cond, state, alu)
        return StepOutcome(BranchOutcome(taken, ops[0], BranchKind.JUMP))
    if base == "bl":
        return_addr = alu.add(state.get_reg("pc"), alu.const(32, _WORD))
        state.set_reg("lr", return_addr)
        return StepOutcome(BranchOutcome(alu.const(1, 1), ops[0], BranchKind.CALL))
    if base == "bx":
        target = state.get_reg(ops[0].name)
        kind = BranchKind.RETURN if ops[0] == Reg("lr") else BranchKind.INDIRECT
        return StepOutcome(BranchOutcome(alu.const(1, 1), target, kind))

    if base == "push":
        regs = sorted((op.name for op in ops if isinstance(op, Reg)),
                      key=register_number)
        sp = state.get_reg("sp")
        sp = alu.sub(sp, alu.const(32, _WORD * len(regs)))
        state.set_reg("sp", sp)
        for i, name in enumerate(regs):
            slot = alu.add(sp, alu.const(32, _WORD * i))
            state.store(slot, state.get_reg(name), _WORD)
        return StepOutcome()
    if base == "pop":
        regs = sorted((op.name for op in ops if isinstance(op, Reg)),
                      key=register_number)
        sp = state.get_reg("sp")
        branch = None
        for i, name in enumerate(regs):
            slot = alu.add(sp, alu.const(32, _WORD * i))
            value = state.load(slot, _WORD)
            if name == "pc":
                branch = BranchOutcome(alu.const(1, 1), value, BranchKind.RETURN)
            else:
                state.set_reg(name, value)
        state.set_reg("sp", alu.add(sp, alu.const(32, _WORD * len(regs))))
        return StepOutcome(branch)

    if base in ("ldr", "ldrb"):
        dest = ops[0]
        mem = ops[1]
        addr = _address(mem, state, alu)
        if base == "ldr":
            value = state.load(addr, 4)
        else:
            value = alu.zext(32, state.load(addr, 1))
        state.set_reg(dest.name, value)
        return StepOutcome()
    if base in ("str", "strb"):
        source = state.get_reg(ops[0].name)
        addr = _address(ops[1], state, alu)
        if base == "str":
            state.store(addr, source, 4)
        else:
            state.store(addr, alu.extract(7, 0, source), 1)
        return StepOutcome()

    if base in ("cmp", "cmn", "tst", "teq"):
        a = state.get_reg(ops[0].name)
        b = _operand_value(ops[1], state, alu)
        if base == "cmp":
            _set_sub_flags(state, alu, a, b, alu.sub(a, b))
        elif base == "cmn":
            _set_add_flags(state, alu, a, b, alu.add(a, b))
        elif base == "tst":
            _set_nz(state, alu, alu.and_(a, b))
        else:  # teq
            _set_nz(state, alu, alu.xor(a, b))
        return StepOutcome()

    # Remaining bases are register-writing data instructions; handle the
    # optional predication by blending with the old destination value.
    result, flag_setter = _data_result(base, ops, state, alu)
    dest: Reg = ops[0]
    if cond is not None:
        taken = conditions(cond, state, alu)
        result = alu.ite(taken, result, state.get_reg(dest.name))
        state.set_reg(dest.name, result)
        return StepOutcome()
    state.set_reg(dest.name, result)
    if sets_flags and flag_setter is not None:
        flag_setter()
    return StepOutcome()


def _data_result(base: str, ops, state, alu):
    """Compute the result value of a data instruction.

    Returns ``(result, flag_setter)`` where ``flag_setter`` applies the
    flag updates for the ``s`` form (or None when the form has none).
    """
    if base in ("mov", "mvn"):
        value = _operand_value(ops[1], state, alu)
        if base == "mvn":
            value = alu.not_(value)
        return value, lambda: _set_nz(state, alu, value)

    if base in ("lsl", "lsr", "asr"):
        value = state.get_reg(ops[1].name)
        amount = _operand_value(ops[2], state, alu)
        if isinstance(ops[2], Reg):
            # Register-specified shifts use the low byte of the register.
            amount = alu.zext(32, alu.extract(7, 0, amount))
        shifted = {
            "lsl": alu.shl,
            "lsr": alu.lshr,
            "asr": alu.ashr,
        }[base](value, amount)
        return shifted, lambda: _set_nz(state, alu, shifted)

    a = state.get_reg(ops[1].name)
    b = _operand_value(ops[2], state, alu)
    if base == "add":
        result = alu.add(a, b)
        return result, lambda: _set_add_flags(state, alu, a, b, result)
    if base == "sub":
        result = alu.sub(a, b)
        return result, lambda: _set_sub_flags(state, alu, a, b, result)
    if base == "rsb":
        result = alu.sub(b, a)
        return result, lambda: _set_sub_flags(state, alu, b, a, result)
    if base == "mul":
        result = alu.mul(a, b)
        return result, lambda: _set_nz(state, alu, result)
    if base == "sdiv":
        return alu.sdiv(a, b), None
    if base == "udiv":
        return alu.udiv(a, b), None
    if base in ("and", "orr", "eor", "bic"):
        result = {
            "and": alu.and_,
            "orr": alu.or_,
            "eor": alu.xor,
            "bic": lambda x, y: alu.and_(x, alu.not_(y)),
        }[base](a, b)
        return result, lambda: _set_nz(state, alu, result)
    raise ValueError(f"unhandled ARM data opcode {base!r}")
