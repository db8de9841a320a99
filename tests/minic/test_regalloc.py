"""Register allocator unit tests on hand-built machine code, a
differential oracle for liveness over random machine functions, and
checks that the liveness ``allocate`` keeps across spill rounds, and the
footprints the DBT peephole and ``allocate`` carry, equal a rebuild."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchsuite import BENCHMARK_NAMES, benchmark_source
from repro.dbt import codegen
from repro.dbt.ruletrans import translate_block_with_rules
from repro.experiments.common import ExperimentContext
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.minic.backend import regalloc
from repro.minic.backend.arm_backend import ArmSelector, arm_imm_ok
from repro.minic.backend.arm_backend import target_info as arm_ti
from repro.minic.backend.mach import (
    MachineFunction,
    is_vreg,
    rewrite_registers,
)
from repro.minic.backend.regalloc import (
    _blocks,
    _build_intervals,
    _footprint,
    _liveness,
    _successors,
    allocate,
)
from repro.minic.backend.x86_backend import X86Selector
from repro.minic.backend.x86_backend import target_info as x86_ti
from repro.minic.compile import (
    compile_frontend,
    compile_source,
    layout_globals,
)


def instr(mnemonic, *ops, meta=None):
    return Instruction(mnemonic, tuple(ops), meta=meta)


class TestArmImmediates:
    def test_small_values_ok(self):
        assert arm_imm_ok(0)
        assert arm_imm_ok(255)

    def test_rotated_ok(self):
        assert arm_imm_ok(0xFF000000)
        assert arm_imm_ok(0x3FC00)

    def test_arbitrary_not_ok(self):
        assert not arm_imm_ok(0x12345678)
        assert not arm_imm_ok(257)


class TestRewriteRegisters:
    def test_plain_and_mem(self):
        original = instr(
            "movl", Mem(base=Reg("%a"), index=Reg("%b"), scale=4), Reg("%c")
        )
        rewritten = rewrite_registers(
            original, {"%a": "eax", "%b": "ecx", "%c": "edx"}
        )
        assert rewritten.operands[0] == Mem(Reg("eax"), Reg("ecx"), 4)
        assert rewritten.operands[1] == Reg("edx")

    def test_low8_follows_parent(self):
        original = instr("sete", Reg("%t.b"))
        rewritten = rewrite_registers(original, {"%t": "eax"})
        assert rewritten.operands[0] == Reg("al")

    def test_untouched_instruction_identical(self):
        original = instr("movl", Reg("eax"), Reg("edx"))
        assert rewrite_registers(original, {"%x": "ecx"}) is original

    def test_needs_low8_renamed_in_fresh_meta(self):
        meta = {"needs_low8": ("%t",), "clobbers": ("eax",)}
        original = instr("sete", Reg("%t.b"), meta=meta)
        rewritten = rewrite_registers(original, {"%t": "%u"})
        assert rewritten.operands == (Reg("%u.b"),)
        assert rewritten.meta == {"needs_low8": ("%u",), "clobbers": ("eax",)}
        assert original.meta is meta
        assert meta == {"needs_low8": ("%t",), "clobbers": ("eax",)}


class TestAllocation:
    def test_simple_chain(self):
        func = MachineFunction("f", instrs=[
            instr("movl", Imm(1), Reg("%a")),
            instr("movl", Imm(2), Reg("%b")),
            instr("addl", Reg("%a"), Reg("%b")),
            instr("movl", Reg("%b"), Mem(base=None, disp=0x1000)),
        ])
        mapping = allocate(func, x86_ti("llvm"))
        assert set(mapping) == {"%a", "%b"}
        assert mapping["%a"] != mapping["%b"]

    def test_non_overlapping_reuse(self):
        func = MachineFunction("f", instrs=[
            instr("movl", Imm(1), Reg("%a")),
            instr("movl", Reg("%a"), Mem(base=None, disp=0x1000)),
            instr("movl", Imm(2), Reg("%b")),
            instr("movl", Reg("%b"), Mem(base=None, disp=0x1004)),
        ])
        mapping = allocate(func, x86_ti("llvm"))
        assert mapping["%a"] == mapping["%b"]  # intervals do not overlap

    def test_values_live_across_call_get_callee_saved(self):
        target = arm_ti("llvm")
        func = MachineFunction("f", instrs=[
            instr("mov", Reg("%x"), Imm(5)),
            instr("bl", Label("g"),
                  meta={"clobbers": ("r0", "r1", "r2", "r3", "r12")}),
            instr("add", Reg("%y"), Reg("%x"), Imm(1)),
            instr("mov", Reg("r0"), Reg("%y")),
        ])
        mapping = allocate(func, target)
        assert mapping["%x"] in target.callee_saved

    def test_spilling_when_out_of_registers(self):
        # 9 simultaneously live values on x86 (6 registers available).
        target = x86_ti("llvm")
        n = 9
        instrs = [instr("movl", Imm(i), Reg(f"%v{i}")) for i in range(n)]
        for i in range(n):
            instrs.append(
                instr("movl", Reg(f"%v{i}"), Mem(base=None, disp=0x1000 + 4 * i))
            )
        # Interleave so all are live at once: uses come after all defs.
        func = MachineFunction("f", instrs=instrs)
        mapping = allocate(func, target)
        # Spill code was inserted and everything got a register.
        assert func.spill_bytes > 0
        for i in func.instrs:
            for reg in i.registers():
                assert not reg.name.startswith("%"), i

    def test_low8_constraint_respected(self):
        target = x86_ti("llvm")
        func = MachineFunction("f", instrs=[
            instr("movl", Imm(0), Reg("%flag")),
            instr("sete", Reg("%flag.b"), meta={"needs_low8": ("%flag",)}),
            instr("movl", Reg("%flag"), Mem(base=None, disp=0x1000)),
        ])
        mapping = allocate(func, target)
        assert mapping["%flag"] in target.low8_regs

    def test_labels_updated_after_spill(self):
        target = x86_ti("llvm")
        n = 9
        instrs = [instr("movl", Imm(i), Reg(f"%v{i}")) for i in range(n)]
        for i in range(n):
            instrs.append(
                instr("movl", Reg(f"%v{i}"), Mem(base=None, disp=0x1000 + 4 * i))
            )
        instrs.append(instr("ret"))
        func = MachineFunction("f", instrs=instrs, labels={"end": len(instrs) - 1})
        allocate(func, target)
        assert func.instrs[func.labels["end"]].mnemonic == "ret"


# -- liveness oracle ---------------------------------------------------------------

X86 = x86_ti("llvm")
_REGS = ("%a", "%b", "%c", "%d", "eax", "ecx", "edx")


@st.composite
def machine_functions(draw, loops: bool) -> MachineFunction:
    """Random x86 machine code: straight-line ALU and memory ops, byte
    setcc, calls with ABI meta, side exits to unknown labels and
    forward branches; with ``loops`` a final backward jump as well."""
    length = draw(st.integers(1, 20))
    positions = draw(st.lists(st.integers(0, length), min_size=1,
                              max_size=4))
    labels = {f"L{i}": pos for i, pos in enumerate(positions)}

    def reg() -> Reg:
        return Reg(draw(st.sampled_from(_REGS)))

    instrs = []
    for index in range(length):
        kind = draw(st.sampled_from(
            ("movi", "mov", "add", "cmp", "store", "setcc", "call", "exit",
             "branch")))
        if kind == "movi":
            instrs.append(instr("movl", Imm(index), reg()))
        elif kind in ("mov", "add", "cmp"):
            mnemonic = {"mov": "movl", "add": "addl", "cmp": "cmpl"}[kind]
            instrs.append(instr(mnemonic, reg(), reg()))
        elif kind == "store":
            instrs.append(instr("movl", reg(), Mem(base=reg(), disp=4)))
        elif kind == "setcc":
            vreg = draw(st.sampled_from(_REGS[:4]))
            instrs.append(instr("sete", Reg(f"{vreg}.b"),
                                meta={"needs_low8": (vreg,)}))
        elif kind == "call":
            instrs.append(instr("call", Label("callee"), meta={
                "uses_regs": ("eax",), "clobbers": ("eax", "ecx", "edx")}))
        else:
            forward = sorted(name for name, pos in labels.items()
                             if pos > index)
            target = (draw(st.sampled_from(forward))
                      if kind == "branch" and forward else "unknown")
            instrs.append(instr(draw(st.sampled_from(("jne", "jmp"))),
                                Label(target)))
    if loops:
        instrs.append(instr(draw(st.sampled_from(("jne", "jmp"))),
                            Label(draw(st.sampled_from(sorted(labels))))))
    return MachineFunction("f", instrs=instrs, labels=labels)


def _oracle(func: MachineFunction):
    """Per-instruction live-in/live-out by round-robin iteration."""
    n = len(func.instrs)
    uses, defs, succ = [], [], []
    for index, ins in enumerate(func.instrs):
        meta = ins.meta or {}
        uses.append(set(X86.uses(ins)) | set(meta.get("uses_regs", ())))
        defs.append(set(X86.defs(ins)) | set(meta.get("clobbers", ())))
        nexts = []
        if X86.is_branch(ins) and not X86.is_call(ins):
            nexts += [func.labels[op.name] for op in ins.operands
                      if isinstance(op, Label) and op.name in func.labels]
            falls = X86.branch_condition(ins) is not None
        else:
            falls = True
        if falls:
            nexts.append(index + 1)
        succ.append([s for s in nexts if s < n])
    live_in = [set() for _ in range(n)]
    live_out = [set() for _ in range(n)]
    changed = True
    while changed:
        changed = False
        for index in range(n):
            out = set().union(*(live_in[s] for s in succ[index]))
            new_in = uses[index] | (out - defs[index])
            if (out, new_in) != (live_out[index], live_in[index]):
                live_out[index], live_in[index] = out, new_in
                changed = True
    return live_in, live_out, uses, defs


def _has_back_edge(func: MachineFunction) -> bool:
    blocks = _blocks(func, X86)
    succ = _successors(func, X86, blocks)
    return any(t <= start for start, targets in succ.items() for t in targets)


def _check_against_oracle(func: MachineFunction) -> None:
    footprints = [_footprint(ins, X86) for ins in func.instrs]
    live_in, live_out, uses, defs = _oracle(func)
    blocks, block_in, block_out = _liveness(func, X86, footprints)
    for (start, end), got_in, got_out in zip(blocks, block_in, block_out):
        assert got_in == live_in[start]
        assert got_out == live_out[end - 1]
    spans: dict[str, list[int]] = {}
    busy: dict[str, list[int]] = {}
    for index in range(len(func.instrs)):
        for name in live_in[index] | uses[index] | defs[index]:
            if is_vreg(name):
                spans.setdefault(name, []).append(index)
            elif name in X86.alloc_order:
                busy.setdefault(name, []).append(index)
    low8 = {name for ins in func.instrs if ins.meta
            for name in ins.meta.get("needs_low8", ())}
    intervals, phys_busy = _build_intervals(
        func, X86, footprints, (blocks, block_in, block_out))
    assert {iv.name: (iv.start, iv.end, iv.needs_low8)
            for iv in intervals} == {
        name: (positions[0], positions[-1], name in low8)
        for name, positions in spans.items()}
    assert [(iv.start, iv.end) for iv in intervals] == sorted(
        (iv.start, iv.end) for iv in intervals)
    assert phys_busy == busy


class TestLivenessOracle:
    @settings(max_examples=150, deadline=None)
    @given(machine_functions(loops=False))
    def test_acyclic_single_pass(self, func):
        assert not _has_back_edge(func)
        _check_against_oracle(func)

    @settings(max_examples=150, deadline=None)
    @given(machine_functions(loops=True))
    def test_cyclic_fixed_point(self, func):
        assert _has_back_edge(func)
        _check_against_oracle(func)


# -- liveness kept across spill rounds -------------------------------------------


def _tight(target, registers: int = 3):
    """``target`` with only the last few allocatable registers, so that
    ordinary code spills."""
    return replace(target, alloc_order=target.alloc_order[-registers:])


def _tracked(liveness, target):
    """Blocks and live sets restricted to what allocation reads: vregs
    and allocatable registers (spill code adds frame bases such as
    ``sp`` and ``FRAME`` that the kept sets do not track)."""
    blocks, live_in, live_out = liveness

    def keep(names):
        return {name for name in names
                if is_vreg(name) or name in target.alloc_order}

    return blocks, [keep(s) for s in live_in], [keep(s) for s in live_out]


def _interval_view(built):
    intervals, phys_busy = built
    return ([(iv.name, iv.start, iv.end, iv.needs_low8) for iv in intervals],
            phys_busy)


def _checked_allocate(func: MachineFunction, target) -> dict:
    """``allocate`` with every round's liveness and intervals compared
    against a rebuild; counts rounds and liveness rebuilds."""
    liveness = regalloc._liveness
    build = regalloc._build_intervals
    stats = {"rounds": 0, "rebuilds": -1}  # the first _liveness is no rebuild

    def counting_liveness(*args):
        stats["rebuilds"] += 1
        return liveness(*args)

    def checking_build(func, target, footprints, kept):
        assert footprints == [_footprint(ins, target) for ins in func.instrs]
        fresh = liveness(func, target, footprints)
        assert _tracked(kept, target) == _tracked(fresh, target)
        built = build(func, target, footprints, kept)
        assert _interval_view(built) == _interval_view(
            build(func, target, footprints, fresh))
        stats["rounds"] += 1
        return built

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regalloc, "_liveness", counting_liveness)
        patch.setattr(regalloc, "_build_intervals", checking_build)
        allocate(func, target)
    return stats


class TestKeptLiveness:
    @pytest.mark.parametrize("target_name", ["arm", "x86"])
    def test_benchmark_suite(self, target_name):
        selector, target_info = {"arm": (ArmSelector, arm_ti),
                                 "x86": (X86Selector, x86_ti)}[target_name]
        functions = spill_rounds = 0
        for name in BENCHMARK_NAMES:
            tac = compile_frontend(benchmark_source(name, "test"), 2)
            global_addrs = layout_globals(tac)
            for style in ("llvm", "gcc"):
                for target in (target_info(style), _tight(target_info(style))):
                    for tac_func in tac.functions.values():
                        func = selector(tac_func, style, 2,
                                        global_addrs).select()
                        stats = _checked_allocate(func, target)
                        functions += 1
                        spill_rounds += stats["rounds"] - 1
        assert spill_rounds > functions  # the kept path is exercised

    @settings(max_examples=100, deadline=None)
    @given(machine_functions(loops=False))
    def test_random_acyclic(self, func):
        _checked_allocate(func, _tight(X86, 2))

    @settings(max_examples=100, deadline=None)
    @given(machine_functions(loops=True))
    def test_random_cyclic(self, func):
        _checked_allocate(func, _tight(X86, 2))

    def test_block_ending_definition_rebuilds(self):
        # ``popl`` made a conditional block end: spilling ``%x`` puts
        # its store after the block's last instruction, in a block of
        # its own, so the kept blocks no longer match.
        target = replace(
            X86, alloc_order=("ebx", "esi"),
            is_branch=lambda ins: X86.is_branch(ins) or ins.mnemonic == "popl",
            branch_condition=lambda ins: (
                "ne" if ins.mnemonic == "popl" else X86.branch_condition(ins)),
        )
        func = MachineFunction("f", instrs=[
            instr("movl", Imm(1), Reg("%y")),
            instr("movl", Imm(2), Reg("%z")),
            instr("popl", Reg("%x")),
            instr("addl", Reg("%y"), Reg("%x")),
            instr("addl", Reg("%z"), Reg("%x")),
            instr("movl", Reg("%x"), Mem(base=None, disp=0x1000)),
        ])
        stats = _checked_allocate(func, target)
        assert stats == {"rounds": 3, "rebuilds": 1}


# -- footprints carried through the peephole and across spill rounds -------------


def _dbt_blocks() -> list[list[Instruction]]:
    """The distinct lowered blocks (the peephole's input) of every
    label-start block of the benchmark suite at ``test`` inputs, both
    styles, TCG-only and with leave-one-out rule stores."""
    blocks: dict[tuple, None] = {}
    finalize = codegen.finalize_block

    def recording(assembler, guest_start):
        blocks[tuple(assembler.instrs)] = None
        return finalize(assembler, guest_start)

    context = ExperimentContext()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codegen, "finalize_block", recording)
        for name in BENCHMARK_NAMES:
            store = context.rule_store_excluding(name)
            for style in ("llvm", "gcc"):
                program = compile_source(benchmark_source(name, "test"),
                                         "arm", 2, style)
                for start in sorted(set(program.labels.values())):
                    if start < len(program.code):
                        for mode_store in (None, store):
                            translate_block_with_rules(program, start,
                                                       mode_store)
    return [list(block) for block in blocks]


class TestCarriedFootprints:
    """The peephole derives each instruction's footprint once and
    re-derives it only where copy propagation rewrites it; ``_spill``
    maps a rewritten access's footprint instead of re-deriving it.  The
    carried footprints must equal fresh ones."""

    def test_benchmark_suite(self):
        targets = (codegen.DBT_TARGET, _tight(codegen.DBT_TARGET))
        spill_rounds = 0
        blocks = _dbt_blocks()
        for instrs in blocks:
            code, footprints = codegen._propagate_copies(instrs)
            assert footprints == [_footprint(ins, codegen.DBT_TARGET)
                                  for ins in code]
            code = codegen.peephole(instrs)
            for target in targets:
                func = MachineFunction("tb", instrs=list(code))
                spill_rounds += _checked_allocate(func, target)["rounds"] - 1
        assert spill_rounds > len(blocks)  # the spill path is exercised
