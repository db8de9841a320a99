"""Register allocator unit tests on hand-built machine code, a
differential oracle for liveness over random machine functions, checks
that every spill round's intervals and scan, and the footprints the DBT
peephole and ``allocate`` carry, equal a rebuild of the code written so
far, and a golden digest of allocation under register pressure."""

import hashlib
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
    renamer,
    rewrite_registers,
)
from repro.minic.backend.regalloc import (
    RegisterAllocationError,
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
        slot = index * regalloc._SLOTS  # intervals are built on slots
        for name in live_in[index] | uses[index] | defs[index]:
            if is_vreg(name):
                spans.setdefault(name, []).append(slot)
            elif name in X86.alloc_order:
                busy.setdefault(name, []).append(slot)
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


# -- spill rounds on fixed slots, checked against a rebuild ---------------------


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


def _reference_spill(func: MachineFunction, target, victim: str,
                     footprints) -> None:
    """One spill round as a rewrite of the code: a fresh temp for each
    instruction that touches ``victim``, reloaded right before it when
    it reads ``victim`` and stored right after it when it writes it."""
    offset = func.frame_slots + func.spill_bytes
    func.spill_bytes += target.word_size
    instrs, moved, temps = [], [], 0
    for ins, (uses, defs) in zip(func.instrs, footprints):
        moved.append(len(instrs))
        if victim not in uses and victim not in defs:
            instrs.append(ins)
            continue
        temps += 1
        temp = f"%spill{offset}_{temps}"
        if victim in uses:
            instrs.append(target.spill_load(temp, offset))
        instrs.append(rewrite_registers(ins, {victim: temp}))
        if victim in defs:
            instrs.append(target.spill_store(temp, offset))
    moved.append(len(instrs))
    func.labels = {name: moved[pos] if pos < len(moved) else len(instrs)
                   for name, pos in func.labels.items()}
    func.instrs = instrs


def _checked_allocate(func: MachineFunction, target,
                      stats: dict | None = None) -> dict:
    """``allocate`` with every spill round checked against a rebuild of
    the code written so far: the round's intervals, mapped to positions
    of that code, and its scan outcome.  The code written so far must
    equal the spill rounds applied one by one as rewrites; each interval
    build also checks the footprints and the liveness carried into it,
    and the final code must be the last round's written code renamed.
    The victim of each round must be the one chosen on the rebuild.
    Counts rounds, interval builds, rebases and liveness rebuilds into
    ``stats``, which it returns."""
    liveness = regalloc._liveness
    build = regalloc._build_intervals
    scan = regalloc._SlotCode.scan
    spill = regalloc._SlotCode.spill
    rebase = regalloc._SlotCode._rebase
    if stats is None:
        stats = {}
    stats.update(rounds=0, builds=0, rebases=0,
                 rebuilds=-1)  # the first _liveness is no rebuild
    written, victims, fresh_footprints = [], [], []
    reference = replace(func, instrs=list(func.instrs),
                        labels=dict(func.labels))

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
        stats["builds"] += 1
        return built

    derived = {}  # id -> (instruction, footprint), for the call's code

    def fresh_footprint(ins):
        if id(ins) not in derived:
            derived[id(ins)] = ins, _footprint(ins, target)
        return derived[id(ins)][1]

    def rewriting_spill(code, victim):
        assert victim.name == victims.pop()
        _reference_spill(reference, target, victim.name, fresh_footprints)
        return spill(code, victim)

    def counting_rebase(code, keep_liveness):
        stats["rebases"] += 1
        return rebase(code, keep_liveness)

    def checking_scan(code):
        mapping, failed = scan(code)
        stats["rounds"] += 1
        if not code.spills:  # the intervals are the checked build's
            now = replace(code.func, instrs=list(code.func.instrs),
                          labels=dict(code.func.labels))
            fresh_footprints[:] = code.footprints
            intervals, fresh_mapping, fresh_failed = (
                code.intervals, mapping, failed)
        else:
            instrs, footprints, moved = code._written(None)
            fresh_footprints[:] = map(fresh_footprint, instrs)
            assert footprints == fresh_footprints
            now = MachineFunction(func.name, instrs=instrs, labels=(
                regalloc._moved_labels(code.func.labels, moved, len(instrs))))
            intervals, phys_busy = build(
                now, target, footprints, liveness(now, target, footprints))
            assert [(iv.name, code._real(iv.start), code._real(iv.end),
                     iv.needs_low8) for iv in code.intervals] == [
                (iv.name, iv.start // regalloc._SLOTS,
                 iv.end // regalloc._SLOTS, iv.needs_low8)
                for iv in intervals]
            fresh_mapping, fresh_failed = regalloc._linear_scan(
                intervals, phys_busy, target)
            assert mapping == fresh_mapping
            assert getattr(failed, "name", None) == getattr(
                fresh_failed, "name", None)
        assert now.instrs == reference.instrs
        assert now.labels == reference.labels
        if failed is not None:
            victims.append(regalloc._choose_victim(
                intervals, fresh_mapping, fresh_failed, target,
                lambda iv: (iv.end - iv.start) // regalloc._SLOTS).name)
        written[:] = [now]
        return mapping, failed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regalloc, "_liveness", counting_liveness)
        patch.setattr(regalloc, "_build_intervals", checking_build)
        patch.setattr(regalloc._SlotCode, "spill", rewriting_spill)
        patch.setattr(regalloc._SlotCode, "_rebase", counting_rebase)
        patch.setattr(regalloc._SlotCode, "scan", checking_scan)
        mapping = allocate(func, target)
    last, = written
    rename = renamer(mapping)
    assert [str(ins) for ins in func.instrs] == [
        str(rename(ins)) for ins in last.instrs]
    assert func.labels == last.labels
    assert stats["builds"] == 1 + stats["rebases"]
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
                full = target_info(style)
                for target in (full, _tight(full)):
                    for tac_func in tac.functions.values():
                        func = selector(tac_func, style, 2,
                                        global_addrs).select()
                        stats = _checked_allocate(func, target)
                        functions += 1
                        spill_rounds += stats["rounds"] - 1
                        if target is full:  # one build per call
                            assert stats["builds"] == 1
        assert spill_rounds > functions  # the spill path is exercised

    @settings(max_examples=100, deadline=None)
    @given(machine_functions(loops=False))
    def test_random_acyclic(self, func):
        _checked_allocate(func, _tight(X86, 2))

    @settings(max_examples=100, deadline=None)
    @given(machine_functions(loops=True))
    def test_random_cyclic(self, func):
        _checked_allocate(func, _tight(X86, 2))

    def test_spills_nest_around_one_instruction(self):
        # Here ``xchgl`` reads and writes both operands, and both are
        # spilled: the later round's reload and store sit closer to it.
        def both(base):
            return lambda ins: (tuple(op.name for op in ins.operands)
                                if ins.mnemonic == "xchgl" else base(ins))

        target = replace(X86, alloc_order=("esi", "edi"),
                         uses=both(X86.uses), defs=both(X86.defs))
        names = [f"%v{i}" for i in range(4)]
        func = MachineFunction("f", instrs=[
            *(instr("movl", Imm(i), Reg(name))
              for i, name in enumerate(names)),
            instr("xchgl", Reg("%v0"), Reg("%v1")),
            *(instr("movl", Reg(name), Mem(base=None, disp=4 * i))
              for i, name in enumerate(names)),
        ])
        _checked_allocate(func, target)
        code = [str(ins) for ins in func.instrs]
        at = code.index("xchgl esi, edi")
        assert code[at - 2:at + 3] == [
            "movl [FRAME + 4], esi", "movl [FRAME + 8], edi",
            "xchgl esi, edi",
            "movl edi, [FRAME + 8]", "movl esi, [FRAME + 4]"]

    def test_spilling_spill_temps_rebases(self):
        # Two registers do not fit sjeng's ``evaluate``: the rounds go
        # on to spill pending temps, each a rebase, until they give up.
        tac = compile_frontend(benchmark_source("sjeng", "test"), 2)
        func = ArmSelector(tac.functions["evaluate"], "llvm", 2,
                           layout_globals(tac)).select()
        stats = {}
        with pytest.raises(RegisterAllocationError):
            _checked_allocate(func, _tight(arm_ti("llvm"), 2), stats)
        assert stats["rounds"] == regalloc._MAX_ROUNDS
        assert stats["rebases"] > 10

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
        assert stats == {"rounds": 3, "builds": 2, "rebases": 1,
                         "rebuilds": 1}


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
    re-derives it only where copy propagation rewrites it; writing the
    pending spill code maps a rewritten access's footprint instead of
    re-deriving it.  The carried footprints must equal fresh ones."""

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
                stats = _checked_allocate(func, target)
                spill_rounds += stats["rounds"] - 1
                if target is codegen.DBT_TARGET:  # one build per call
                    assert stats["builds"] == 1
        assert spill_rounds > len(blocks)  # the spill path is exercised


# -- golden output under register pressure ---------------------------------------

PRESSURE_BENCHMARKS = ("bzip2", "mcf", "sjeng", "libquantum")
PRESSURE_REGISTERS = (2, 3, 4)
#: sha256 of every ``allocate`` result (code, labels, spill bytes,
#: callee-saved registers, or the error) with targets cut to 2, 3 and 4
#: registers: the MiniC functions of the slice above (``test`` inputs,
#: both styles, both targets) and its qemu-mode DBT blocks.  Spilling
#: spill temps and allocation failures happen only here.
PRESSURE_SHA256 = (
    "2787854f47251c8c1347c710f0ebad3301f705cc3798538208686f0d618646eb"
)


def _pressure_inputs() -> list[tuple]:
    """(target, function) for every ``allocate`` call the slice makes,
    each function copied before allocation."""
    inputs = []
    allocate_ = regalloc.allocate
    finalize = codegen.finalize_block

    def recording(func, target):
        inputs.append((target, replace(func, instrs=list(func.instrs),
                                       labels=dict(func.labels))))
        return allocate_(func, target)

    def recording_block(assembler, guest_start):
        inputs.append((codegen.DBT_TARGET, MachineFunction(
            f"tb_{guest_start:#x}", instrs=codegen.peephole(assembler.instrs))))
        return finalize(assembler, guest_start)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regalloc, "allocate", recording)
        for name in PRESSURE_BENCHMARKS:
            for style in ("llvm", "gcc"):
                for target in ("arm", "x86"):
                    compile_source(benchmark_source(name, "test"), target, 2,
                                   style)
        patch.setattr(regalloc, "allocate", allocate_)
        patch.setattr(codegen, "finalize_block", recording_block)
        for name in PRESSURE_BENCHMARKS:
            for style in ("llvm", "gcc"):
                program = compile_source(benchmark_source(name, "test"),
                                         "arm", 2, style)
                for start in sorted(set(program.labels.values())):
                    if start < len(program.code):
                        translate_block_with_rules(program, start, None)
    return inputs


def test_register_pressure_golden():
    digest = hashlib.sha256()
    failures = 0
    for target, func in _pressure_inputs():
        for registers in PRESSURE_REGISTERS:
            copy = replace(func, instrs=list(func.instrs),
                           labels=dict(func.labels))
            try:
                allocate(copy, _tight(target, registers))
            except RegisterAllocationError as error:
                failures += 1
                digest.update(f"{registers} {error}\n".encode())
                continue
            digest.update(repr((
                target.name, registers, copy.name, sorted(copy.labels.items()),
                copy.spill_bytes, copy.used_callee_saved,
            )).encode())
            digest.update("".join(f"{ins}\n" for ins in copy.instrs).encode())
    assert failures  # the error path is pinned too
    assert digest.hexdigest() == PRESSURE_SHA256
