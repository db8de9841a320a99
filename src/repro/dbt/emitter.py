"""Precompiled bound emitters for learned rules (translate-path speed).

``ruletrans.instantiate_host`` used to re-walk the rule's host template
on every hit: per-operand ``isinstance`` dispatch, dict lookups, a
``from repro.host_x86 import isa`` import *inside* the template loop,
and a dynamic host-constraint check whose inputs are entirely static.
This module moves all of that to install time: :func:`compile_emitter`
turns a rule's host template into a specialized closure per template
instruction — operand slots resolved to positional builders, the x86
encoding constraints (SIB scale) checked once against the static
template — so the per-hit path is a straight loop of closure calls.

Emitters are memoized per :class:`~repro.learning.rule.Rule` (rules are
frozen and hash by semantic identity, so re-learned equal rules share
one compiled emitter).  :meth:`RuleStore.insert
<repro.learning.store.RuleStore.insert>` warms the cache at install /
hot-install time; a cold :func:`get_emitter` call compiles lazily.

Only the ``arm-x86`` direction is compiled — the DBT engine executes
ARM guests on the x86 host model.
"""

from __future__ import annotations

from repro.host_x86 import isa as x86_isa
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Label, Mem, Reg, SymImm


class RuleApplicationError(Exception):
    """The bound rule violates a host-ISA constraint (Section 5)."""


class BoundEmitter:
    """One rule's host template, compiled to per-instruction closures.

    Calling the emitter with a binding and a
    :class:`~repro.dbt.codegen.BlockAssembler` appends the bound
    non-branch host instructions and returns ``(emitted, branch_cc)``
    exactly like the interpretive path did.
    """

    __slots__ = ("rule", "temps", "written_params", "branch_cc",
                 "_builders", "_static_error")

    def __init__(self, rule, temps, written_params, branch_cc,
                 builders, static_error):
        self.rule = rule
        self.temps = temps
        self.written_params = written_params
        #: Taken-branch condition mnemonic, or None for straight-line
        #: rules (precomputed: branches are static template facts).
        self.branch_cc = branch_cc
        self._builders = builders
        #: Host-constraint violation found at compile time (hoisted
        #: from the per-hit path; raised on application so the miss
        #: accounting sees the same ``RuleApplicationError`` as before).
        self._static_error = static_error

    @property
    def static_ok(self) -> bool:
        """True when every hoisted host-constraint check passed — an
        application of this emitter cannot raise."""
        return self._static_error is None

    def __call__(self, binding, assembler):
        if self._static_error is not None:
            raise RuleApplicationError(self._static_error)
        reg_map: dict[str, str] = {}
        guest_vreg = assembler.guest_vreg
        for param, guest_reg in binding.regs.items():
            reg_map[param] = guest_vreg(guest_reg)
        for temp in self.temps:
            reg_map[temp] = assembler.new_vreg()
        emitted = [build(binding, reg_map) for build in self._builders]
        assembler.instrs.extend(emitted)
        regs = binding.regs
        mark_dirty = assembler.mark_dirty
        for param in self.written_params:
            mark_dirty(regs[param])
        return emitted, self.branch_cc


def _compile_operand(op):
    """One operand slot -> ``(binding, reg_map) -> operand`` closure.

    The ``isinstance`` dispatch runs here, once per template operand at
    compile time — never again on the per-hit path.  Returns ``(builder,
    low8_parent_param)``; the second element names the parameter whose
    low-8 alias this operand selects (the ``needs_low8`` meta hint).
    """
    if isinstance(op, Reg):
        name = op.name
        if name.endswith(".b"):
            param = name[:-2]
            return (lambda binding, reg_map:
                    Reg(f"{reg_map[param]}.b")), param
        return (lambda binding, reg_map: Reg(reg_map[name])), None
    if isinstance(op, Imm):
        return (lambda binding, reg_map: op), None
    if isinstance(op, SymImm):
        expr = op.expr
        return (lambda binding, reg_map:
                Imm(binding.immediate(expr))), None
    if isinstance(op, Mem):
        base = op.base.name if op.base else None
        index = op.index.name if op.index else None
        scale, static_disp, disp_param = op.scale, op.disp, op.disp_param

        def build_mem(binding, reg_map):
            disp = static_disp
            if disp_param is not None:
                disp = (disp + binding.immediate(disp_param)) & 0xFFFFFFFF
                if disp >= 0x8000_0000:
                    disp -= 0x1_0000_0000
            return Mem(
                Reg(reg_map[base]) if base is not None else None,
                Reg(reg_map[index]) if index is not None else None,
                scale,
                disp,
            )
        return build_mem, None
    if isinstance(op, Label):
        return (lambda binding, reg_map: op), None
    raise _UncompilableOperand(f"cannot bind operand {op!r}")


class _UncompilableOperand(Exception):
    """Template operand kind the x86 emitter cannot bind."""


def compile_emitter(rule) -> BoundEmitter:
    """Compile one rule's host template into a :class:`BoundEmitter`."""
    builders = []
    branch_cc = None
    static_error = None
    try:
        for template in rule.host:
            if x86_isa.is_branch(template):
                # The caller emits the control transfer.
                branch_cc = template.mnemonic
                continue
            error = _static_constraint_error(template)
            if error is not None and static_error is None:
                static_error = error
            mnemonic = template.mnemonic
            op_builders = []
            low8_parent = None
            for op in template.operands:
                builder, parent = _compile_operand(op)
                op_builders.append(builder)
                if parent is not None:
                    low8_parent = parent
            builders.append(
                _compile_instruction(mnemonic, op_builders, low8_parent)
            )
    except _UncompilableOperand as exc:
        if static_error is None:
            static_error = str(exc)
    return BoundEmitter(
        rule=rule,
        temps=rule.temps,
        written_params=rule.written_params,
        branch_cc=branch_cc,
        builders=tuple(builders),
        static_error=static_error,
    )


def _compile_instruction(mnemonic, op_builders, low8_parent):
    """One template instruction -> bound-instruction closure."""
    if low8_parent is None:
        if len(op_builders) == 2:
            # The dominant x86 shape: specialize away the inner loop.
            build_a, build_b = op_builders

            def build2(binding, reg_map):
                return Instruction(
                    mnemonic,
                    (build_a(binding, reg_map), build_b(binding, reg_map)),
                )
            return build2

        def build(binding, reg_map):
            return Instruction(
                mnemonic,
                tuple(b(binding, reg_map) for b in op_builders),
            )
        return build

    def build_low8(binding, reg_map):
        return Instruction(
            mnemonic,
            tuple(b(binding, reg_map) for b in op_builders),
            meta={"needs_low8": (reg_map[low8_parent],)},
        )
    return build_low8


def _static_constraint_error(template) -> str | None:
    """x86 encoding limits checkable against the raw template.

    The only x86 host constraint (SIB scale in 1/2/4/8) depends on
    ``Mem.scale``, which binding never changes — so the whole check
    hoists to compile time and the per-hit path does none.
    """
    for op in template.operands:
        if isinstance(op, Mem) and op.index is not None and \
                op.scale not in (1, 2, 4, 8):
            return f"x86 scale {op.scale} not encodable in {template}"
    return None


#: rule -> compiled emitter.  Rules hash by semantic identity
#: (provenance excluded), so equal rules from different origins share
#: one entry; quarantined rules simply stop being looked up.
_EMITTERS: dict = {}


def get_emitter(rule) -> BoundEmitter:
    """The memoized compiled emitter for ``rule``."""
    emitter = _EMITTERS.get(rule)
    if emitter is None:
        emitter = _EMITTERS[rule] = compile_emitter(rule)
    return emitter
