"""TCG lowering, peephole, env caching, llvmjit TCG optimizer, and the
golden digests of emitted code."""

import hashlib

import pytest

from repro.benchsuite import BENCHMARK_NAMES, benchmark_source
from repro.dbt import codegen
from repro.dbt.codegen import BlockAssembler, env_mem, peephole, tb_label
from repro.dbt.engine import DBTEngine
from repro.dbt.llvmjit import optimize_tcg
from repro.dbt.ruletrans import translate_block_with_rules
from repro.dbt.tcg import TcgBlock, TcgCond, TcgOp
from repro.experiments.common import ExperimentContext
from repro.host_x86 import parse_instruction as parse
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Mem, Reg
from repro.minic.backend import regalloc
from repro.minic.compile import compile_source


class TestAssembler:
    def test_guest_reg_loaded_once(self):
        assembler = BlockAssembler()
        first = assembler.guest_vreg("r0")
        loads = [i for i in assembler.instrs if i.mnemonic == "movl"]
        assert len(loads) == 1
        assert assembler.guest_vreg("r0") == first
        assert len(assembler.instrs) == 1  # no second load

    def test_writeback_only_dirty(self):
        assembler = BlockAssembler()
        assembler.guest_vreg("r0")  # read-only
        dest = assembler.guest_vreg("r1", load=False)
        assembler.emit("movl", Imm(5), Reg(dest))
        assembler.mark_dirty("r1")
        before = len(assembler.instrs)
        assembler.writeback()
        writebacks = assembler.instrs[before:]
        assert len(writebacks) == 1
        assert writebacks[0].operands[1] == env_mem(codegen.REG_OFFSET["r1"])

    def test_flags_have_env_slots(self):
        assembler = BlockAssembler()
        assembler.guest_vreg("flag:N", load=False)
        assembler.mark_dirty("flag:N")
        assembler.writeback()
        assert assembler.instrs[-1].operands[1] == \
            env_mem(codegen.FLAG_OFFSET["N"])


class TestLowering:
    def lower(self, *ops):
        assembler = BlockAssembler()
        for op in ops:
            codegen.lower_tcg_op(assembler, op)
        return assembler

    def test_add_two_address(self):
        assembler = self.lower(
            TcgOp("movi", out="%t1", a=7),
            TcgOp("movi", out="%t2", a=8),
            TcgOp("add", out="%t3", a="%t1", b="%t2"),
        )
        mnemonics = [i.mnemonic for i in assembler.instrs]
        assert mnemonics == ["movl", "movl", "movl", "addl"]

    def test_optimized_add_uses_lea(self):
        assembler = BlockAssembler()
        codegen.lower_tcg_op(assembler, TcgOp("movi", out="%t1", a=7))
        codegen.lower_tcg_op(
            assembler, TcgOp("add", out="%t2", a="%t1", b=5), optimized=True
        )
        assert assembler.instrs[-1].mnemonic == "leal"

    def test_cmp_flags_sub_lowering(self):
        assembler = self.lower(
            TcgOp("movi", out="%t1", a=7),
            TcgOp("cmp_flags", flag="sub", a="%t1", b=3),
        )
        mnemonics = [i.mnemonic for i in assembler.instrs]
        assert "cmpl" in mnemonics
        for cc in ("sets", "sete", "setae", "seto"):
            assert cc in mnemonics
        # All four guest flags are dirty.
        assert {"flag:N", "flag:Z", "flag:C", "flag:V"} <= assembler._dirty

    def test_brcond_writes_back_before_exit(self):
        assembler = self.lower(
            TcgOp("movi", out="%t1", a=1),
            TcgOp("st_reg", reg="r0", a="%t1"),
            TcgOp("brcond", cond=TcgCond.NE, a="%t1", b=0,
                  taken=0x8100, fallthrough=0x8104),
        )
        mnemonics = [i.mnemonic for i in assembler.instrs]
        jcc_index = mnemonics.index("jne")
        writeback = [
            i for i, instr in enumerate(assembler.instrs)
            if instr.mnemonic == "movl"
            and instr.operands[1] == env_mem(codegen.REG_OFFSET["r0"])
        ]
        assert writeback and writeback[0] < jcc_index
        assert assembler.instrs[-1].operands[0].name == tb_label(0x8104)


class TestPeephole:
    def test_copy_propagation(self):
        instrs = [
            parse("movl %eax, %ecx").with_operands(
                (Reg("%v1"), Reg("%v2"))
            ),
            parse("addl %eax, %ecx").with_operands(
                (Reg("%v2"), Reg("%v3"))
            ),
        ]
        # %v2 is just a copy of %v1; the use should read %v1 and the
        # copy should disappear.
        result = peephole(instrs)
        assert len(result) == 1
        assert result[0].operands[0] == Reg("%v1")

    def test_destination_never_substituted(self):
        instrs = [
            parse("movl %eax, %ecx").with_operands((Reg("%v1"), Reg("%v2"))),
            parse("subl $1, %eax").with_operands((Imm(1), Reg("%v2"))),
            parse("movl %eax, %ecx").with_operands(
                (Reg("%v2"), Mem(base=None, disp=0x1000))
            ),
        ]
        result = peephole(instrs)
        # subl's destination %v2 must stay %v2 (two-address semantics).
        assert result[0].operands[1] == Reg("%v2") or \
            result[0].mnemonic == "movl"
        sub = [i for i in result if i.mnemonic == "subl"][0]
        assert sub.operands[1] == Reg("%v2")

    def test_self_move_dropped(self):
        instrs = [
            parse("movl %eax, %eax").with_operands((Reg("%v1"), Reg("%v1"))),
        ]
        assert peephole(instrs) == []

    def test_redefined_source_keeps_reading_copy(self):
        copy = Instruction("movl", (Reg("%v1"), Reg("%v2")))
        store = Instruction("movl", (Reg("%v2"), Mem(base=None, disp=0x1000)))
        for redefine in (
            Instruction("movl", (Imm(5), Reg("%v1"))),
            Instruction("addl", (Imm(5), Reg("%v1"))),
            Instruction("movl", (Reg("%v3"), Reg("%v1"))),
        ):
            keep_v1 = Instruction(
                "movl", (Reg("%v1"), Mem(base=None, disp=0x1004)))
            result = peephole([copy, redefine, store, keep_v1])
            # %v2 no longer equals %v1 once %v1 changes: the copy stays
            # and the store keeps reading %v2.
            assert result[:3] == [copy, redefine, store]

    def test_chained_dead_movs_all_dropped(self):
        instrs = [
            Instruction("movl", (Imm(0x1000), Reg("%v1"))),
            Instruction("movl", (Mem(base=Reg("%v1")), Reg("%v2"))),
            Instruction("movl", (Mem(base=Reg("%v2")), Reg("%v3"))),
            Instruction("movl", (Mem(base=Reg("%v3")), Reg("%v4"))),
            Instruction("movl", (Imm(7), Reg("%v5"))),
            Instruction("movl", (Reg("%v5"), Mem(base=None, disp=0x2000))),
        ]
        # Each load is read only by the next dead one.
        assert peephole(instrs) == instrs[4:]

    def test_needs_low8_follows_copy_propagation(self):
        meta = {"needs_low8": ("%v2",)}
        byte_store = Instruction(
            "movb", (Reg("%v2.b"), Mem(base=None, disp=0x1000)), meta=meta)
        result = peephole([
            Instruction("movl", (Reg("%v1"), Reg("%v2"))),
            byte_store,
        ])
        assert len(result) == 1
        assert result[0].operands[0] == Reg("%v1.b")
        assert result[0].meta == {"needs_low8": ("%v1",)}
        assert byte_store.meta == {"needs_low8": ("%v2",)}


class TestLlvmJitOptimizer:
    def test_redundant_reg_load_eliminated(self):
        block = TcgBlock(0x8000)
        block.emit(op="ld_reg", out="%t1", reg="r0")
        block.emit(op="ld_reg", out="%t2", reg="r0")
        block.emit(op="add", out="%t3", a="%t1", b="%t2")
        block.emit(op="st_reg", reg="r1", a="%t3")
        ops = optimize_tcg(block.ops)
        assert sum(1 for op in ops if op.op == "ld_reg") == 1

    def test_dead_store_eliminated(self):
        block = TcgBlock(0x8000)
        block.emit(op="movi", out="%t1", a=1)
        block.emit(op="st_reg", reg="r0", a="%t1")
        block.emit(op="movi", out="%t2", a=2)
        block.emit(op="st_reg", reg="r0", a="%t2")
        ops = optimize_tcg(block.ops)
        stores = [op for op in ops if op.op == "st_reg"]
        assert len(stores) == 1
        assert stores[0].a == "%t2" or isinstance(stores[0].a, int)

    def test_store_with_intervening_load_kept(self):
        block = TcgBlock(0x8000)
        block.emit(op="movi", out="%t1", a=1)
        block.emit(op="st_reg", reg="r0", a="%t1")
        block.emit(op="ld_reg", out="%t2", reg="r0")
        block.emit(op="st_reg", reg="r1", a="%t2")
        block.emit(op="movi", out="%t3", a=2)
        block.emit(op="st_reg", reg="r0", a="%t3")
        ops = optimize_tcg(block.ops)
        r0_stores = [op for op in ops if op.op == "st_reg" and op.reg == "r0"]
        assert len(r0_stores) == 2

    def test_dead_temp_removed(self):
        block = TcgBlock(0x8000)
        block.emit(op="movi", out="%t1", a=1)
        block.emit(op="movi", out="%t2", a=2)  # never used
        block.emit(op="st_reg", reg="r0", a="%t1")
        ops = optimize_tcg(block.ops)
        assert not any(op.out == "%t2" for op in ops)


# -- golden output ---------------------------------------------------------------

GOLDEN_BENCHMARKS = ("bzip2", "mcf", "sjeng", "libquantum")
GOLDEN_STYLES = ("llvm", "gcc")
#: sha256 of every block's host code the DBT emits for the golden slice
#: (test inputs, qemu and rules mode, leave-one-out rule stores).
DBT_HOST_CODE_SHA256 = (
    "50ebaa61f42951756b13a2582d43a988fea8a9ed00c89d0238ae50beb709723e"
)
#: sha256 of every label-start block's rule cover (host code, hit
#: lengths, miss reasons) over all benchmarks x both styles x ``test``
#: and ``ref`` inputs, leave-one-out rule stores.
RULE_COVER_SHA256 = (
    "7e93278709ac99fd4031cf4c115282ba124f4d2826293dc8a45af7318e5b45c2"
)
#: sha256 of every MiniC ``allocate`` result (code, labels, spill bytes,
#: callee-saved registers) when compiling the golden slice for both
#: targets.
MINIC_ALLOCATE_SHA256 = (
    "f7fe5e9f5fbd9971e88622fe55383dec67a681aa8648d49337db025a591cdfd3"
)


def _code_text(instrs) -> bytes:
    return "".join(f"{instr}\n" for instr in instrs).encode()


@pytest.fixture(scope="module")
def leave_one_out_stores():
    context = ExperimentContext()
    return {name: context.rule_store_excluding(name)
            for name in BENCHMARK_NAMES}


class TestGoldenOutput:
    """The emitted code is pinned: a change that alters it must update
    these digests on purpose."""

    def test_dbt_host_code(self, monkeypatch, leave_one_out_stores):
        digest = hashlib.sha256()
        finalize = codegen.finalize_block

        def recording(assembler, guest_start):
            block = finalize(assembler, guest_start)
            digest.update(f"TB {guest_start:#x}\n".encode())
            digest.update(_code_text(block.host_instrs))
            return block

        monkeypatch.setattr(codegen, "finalize_block", recording)
        for name in GOLDEN_BENCHMARKS:
            for style in GOLDEN_STYLES:
                for mode in ("qemu", "rules"):
                    program = compile_source(
                        benchmark_source(name, "test"), "arm", 2, style)
                    store = (leave_one_out_stores[name]
                             if mode == "rules" else None)
                    DBTEngine(program, mode, store).run()
        assert digest.hexdigest() == DBT_HOST_CODE_SHA256

    def test_rule_cover(self, leave_one_out_stores):
        digest = hashlib.sha256()
        for name in BENCHMARK_NAMES:
            store = leave_one_out_stores[name]
            for style in GOLDEN_STYLES:
                for workload in ("test", "ref"):
                    program = compile_source(
                        benchmark_source(name, workload), "arm", 2, style)
                    for start in sorted(set(program.labels.values())):
                        if start >= len(program.code):
                            continue
                        result = translate_block_with_rules(
                            program, start, store)
                        digest.update(repr((
                            name, style, workload, start,
                            [hit.length for hit in result.hit_profiles],
                            sorted(result.miss_reasons.items()),
                        )).encode())
                        digest.update(_code_text(result.host_instrs))
        assert digest.hexdigest() == RULE_COVER_SHA256

    def test_minic_allocate(self, monkeypatch):
        digest = hashlib.sha256()
        allocate = regalloc.allocate

        def recording(func, target):
            mapping = allocate(func, target)
            digest.update(repr((
                target.name, func.name, sorted(func.labels.items()),
                func.spill_bytes, func.used_callee_saved,
            )).encode())
            digest.update(_code_text(func.instrs))
            return mapping

        monkeypatch.setattr(regalloc, "allocate", recording)
        for name in GOLDEN_BENCHMARKS:
            for style in GOLDEN_STYLES:
                for target in ("arm", "x86"):
                    compile_source(benchmark_source(name, "test"), target, 2,
                                   style)
        assert digest.hexdigest() == MINIC_ALLOCATE_SHA256
