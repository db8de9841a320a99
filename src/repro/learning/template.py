"""Template construction: turn a snippet pair + mappings into
parameterized guest/host instruction templates.

Parameter names:

* ``p0, p1, ...`` — register parameters shared between guest and host
  (one per equivalence class formed by the initial live-in mapping and
  the final defined-register mapping),
* ``t0, t1, ...`` — host-only temporaries (host registers written but
  matched to no guest register; the DBT allocates scratch registers for
  them at application time),
* ``ig<N>`` / ``ih<N>`` — immediate slots; parameterized guest slots
  appear as ``SymImm(("slot", name))``, host immediates as ``SymImm``
  ASTs over guest slots,
* ``L0`` — the branch-target label parameter (at most one: snippets end
  at their first branch).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.host_x86.registers import is_low8, parent_of
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Label, Mem, Reg, ShiftedReg, SymImm
from repro.learning.paramize import InitialMapping, ParamContext


class TemplateError(Exception):
    """The pair cannot be templated (e.g. unmapped guest register)."""


@dataclass
class Templates:
    """Parameterized guest/host instruction sequences plus metadata."""

    guest: tuple[Instruction, ...]
    host: tuple[Instruction, ...]
    params: tuple[str, ...]
    written_params: tuple[str, ...]
    temps: tuple[str, ...]
    guest_of_param: dict[str, str]
    host_of_param: dict[str, str]
    has_branch: bool


def build_templates(
    context: ParamContext,
    mapping: InitialMapping,
    final_pairs: dict[str, str],
    host_temp_regs: tuple[str, ...],
    written_guest_regs: tuple[str, ...],
) -> Templates:
    """Build guest/host templates.

    ``final_pairs`` maps defined guest regs to their matched defined
    host regs (the verification's final mapping); ``host_temp_regs`` are
    host-written registers with no guest counterpart.
    """
    pair = context.pair
    # Build parameter classes: guest reg <-> host reg unions.
    guest_param: dict[str, str] = {}
    host_param: dict[str, str] = {}
    counter = 0

    def new_param(guest_reg: str | None, host_reg: str | None) -> None:
        nonlocal counter
        name = f"p{counter}"
        counter += 1
        if guest_reg is not None:
            guest_param[guest_reg] = name
        if host_reg is not None:
            host_param[host_reg] = name

    for guest_reg, host_reg in mapping.reg_map.items():
        if guest_reg in final_pairs and final_pairs[guest_reg] != host_reg:
            raise TemplateError(
                f"initial/final conflict on {guest_reg}: "
                f"{host_reg} vs {final_pairs[guest_reg]}"
            )
        new_param(guest_reg, host_reg)
    for guest_reg, host_reg in final_pairs.items():
        if guest_reg in guest_param:
            continue
        if host_reg in host_param:
            # Two guest regs mapping to one host reg is a conflict the
            # verifier should have rejected already.
            raise TemplateError(f"host register {host_reg} mapped twice")
        new_param(guest_reg, host_reg)
    temps = []
    for i, host_reg in enumerate(host_temp_regs):
        temps.append(f"t{i}")
        host_param[host_reg] = f"t{i}"

    direction = context.direction
    guest_slots = mapping.guest_param_slots
    guest_instrs = tuple(
        _template_instr(
            instr, index, guest_param, context.guest_namer, guest_slots,
            None, low8=direction.guest_has_low8,
        )
        for index, instr in enumerate(pair.guest)
    )
    host_instrs = tuple(
        _template_instr(
            instr, index, host_param, context.host_namer, set(),
            mapping.imm_asts, low8=direction.host_has_low8,
        )
        for index, instr in enumerate(pair.host)
    )
    written = tuple(
        guest_param[reg] for reg in written_guest_regs if reg in guest_param
    )
    has_branch = bool(pair.guest) and \
        direction.guest_isa.is_branch(pair.guest[-1])
    return Templates(
        guest=guest_instrs,
        host=host_instrs,
        params=tuple(sorted(set(guest_param.values()) | set(host_param.values())
                            - set(temps))),
        written_params=written,
        temps=tuple(temps),
        guest_of_param={v: k for k, v in guest_param.items()},
        host_of_param={v: k for k, v in host_param.items()},
        has_branch=has_branch,
    )


def _template_instr(
    instr: Instruction,
    index: int,
    reg_param: dict[str, str],
    namer,
    guest_slots: set[str],
    imm_asts: dict[str, tuple] | None,
    low8: bool,
) -> Instruction:
    operands = []
    for op_index, op in enumerate(instr.operands):
        operands.append(
            _template_operand(
                op, index, op_index, reg_param, namer, guest_slots,
                imm_asts, low8,
            )
        )
    return replace(
        instr, operands=tuple(operands), line=None, block=None, meta=None
    )


def _param_reg(name: str, reg_param: dict[str, str], low8: bool) -> Reg:
    if low8 and is_low8(name):
        parent = parent_of(name)
        param = reg_param.get(parent)
        if param is None:
            raise TemplateError(f"unmapped register {parent}")
        return Reg(f"{param}.b")
    param = reg_param.get(name)
    if param is None:
        raise TemplateError(f"unmapped register {name}")
    return Reg(param)


def _template_operand(
    op, index: int, op_index: int, reg_param, namer, guest_slots,
    imm_asts, low8: bool,
):
    is_host = imm_asts is not None
    if isinstance(op, Reg):
        return _param_reg(op.name, reg_param, low8)
    if isinstance(op, ShiftedReg):
        return ShiftedReg(
            _param_reg(op.reg.name, reg_param, low8), op.shift, op.amount
        )
    if isinstance(op, Label):
        return Label("L0")
    if isinstance(op, Imm):
        slot = namer.slots.get((index, op_index))
        if slot is None:
            return op
        if is_host:
            ast = imm_asts.get(slot) if imm_asts else None
            return SymImm(ast) if ast is not None else op
        return SymImm(("slot", slot)) if slot in guest_slots else op
    if isinstance(op, Mem):
        base = _param_reg(op.base.name, reg_param, low8) if op.base else None
        index_reg = (
            _param_reg(op.index.name, reg_param, low8) if op.index else None
        )
        slot = namer.slots.get((index, -(op_index + 1)))
        disp_param = None
        disp = op.disp
        if slot is not None:
            if is_host:
                ast = imm_asts.get(slot) if imm_asts else None
                if ast is not None:
                    disp_param, disp = ast, 0
            elif slot in guest_slots:
                disp_param, disp = ("slot", slot), 0
        return Mem(base, index_reg, op.scale, disp, None, disp_param)
    raise TemplateError(f"cannot template operand {op!r}")
