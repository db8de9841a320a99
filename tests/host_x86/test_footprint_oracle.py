"""Differential oracle for the x86 register footprint tables.

Every distinct host instruction the system really emits runs once
under the concrete semantics, on a state that records which registers
it reads and writes.  What it reads must be listed by
``used_registers``, what it writes by ``defined_registers``: the
peephole and the register allocator trust those tables for liveness.

The traffic is a fixed slice of DBT blocks (both modes, both codegen
styles, before and after allocation) plus MiniC x86 builds, not a
product of opcodes and operands: such products contain forms no
backend emits, which the tables need not describe.
"""

import pytest

from repro.benchsuite import benchmark_source
from repro.dbt import codegen
from repro.dbt.engine import DBTEngine
from repro.dbt.machine import ConcreteState
from repro.experiments.common import ExperimentContext
from repro.host_x86 import defined_registers, execute, used_registers
from repro.host_x86.registers import parent_of
from repro.isa.alu import ConcreteALU
from repro.minic.backend import regalloc
from repro.minic.compile import compile_source

SLICE = ("astar", "gobmk", "sjeng")
STYLES = ("llvm", "gcc")
#: The model's instruction pointer: ``call`` reads it for the return
#: address, and the footprint tables list general registers only.
PC = "pc"


class RecordingState(ConcreteState):
    """A concrete state that notes the 32-bit parent of every register
    read and written."""

    def __init__(self) -> None:
        super().__init__()
        self.reads: set[str] = set()
        self.writes: set[str] = set()

    def get_reg(self, name: str) -> int:
        self.reads.add(parent_of(name))
        return super().get_reg(name)

    def set_reg(self, name: str, value: int) -> None:
        self.writes.add(parent_of(name))
        super().set_reg(name, value)


def _collect_dbt(monkeypatch, stage: dict) -> None:
    peephole, allocate = codegen.peephole, codegen.allocate

    def recording_peephole(instrs):
        stage["dbt-input"].update(instrs)
        return peephole(instrs)

    def recording_allocate(func, target):
        stage["dbt-before-allocation"].update(func.instrs)
        mapping = allocate(func, target)
        stage["dbt-after-allocation"].update(func.instrs)
        return mapping

    monkeypatch.setattr(codegen, "peephole", recording_peephole)
    monkeypatch.setattr(codegen, "allocate", recording_allocate)
    context = ExperimentContext()
    for name in SLICE:
        store = context.rule_store_excluding(name)
        for style in STYLES:
            for mode in ("qemu", "rules"):
                program = compile_source(benchmark_source(name, "test"),
                                         "arm", 2, style)
                DBTEngine(program, mode,
                          store if mode == "rules" else None).run()


def _collect_minic(monkeypatch, stage: dict) -> None:
    allocate = regalloc.allocate

    def recording(func, target):
        stage["minic-before-allocation"].update(func.instrs)
        return allocate(func, target)

    monkeypatch.setattr(regalloc, "allocate", recording)
    for name in SLICE:
        for style in STYLES:
            program = compile_source(benchmark_source(name, "test"), "x86",
                                     2, style)
            stage["minic-linked"].update(program.code)


@pytest.fixture(scope="module")
def traffic():
    """stage -> the distinct instructions seen there."""
    stage: dict[str, set] = {name: set() for name in (
        "dbt-input", "dbt-before-allocation", "dbt-after-allocation",
        "minic-before-allocation", "minic-linked")}
    with pytest.MonkeyPatch.context() as monkeypatch:
        _collect_dbt(monkeypatch, stage)
        _collect_minic(monkeypatch, stage)
    return stage


def _footprint_violations(instrs) -> list[str]:
    alu = ConcreteALU()
    violations = []
    for instr in sorted(instrs, key=str):
        state = RecordingState()
        execute(instr, state, alu)
        unlisted_reads = state.reads - {PC} - set(used_registers(instr))
        unlisted_writes = state.writes - set(defined_registers(instr))
        if unlisted_reads or unlisted_writes:
            violations.append(f"{instr}: reads {sorted(unlisted_reads)}, "
                              f"writes {sorted(unlisted_writes)} unlisted")
    return violations


@pytest.mark.parametrize("stage", [
    "dbt-input", "dbt-before-allocation", "dbt-after-allocation",
    "minic-before-allocation", "minic-linked"])
def test_accesses_are_listed(traffic, stage):
    assert _footprint_violations(traffic[stage]) == []


def test_traffic_covers_the_register_forms(traffic):
    """The slice exercises the forms whose footprints go beyond their
    explicit operands: byte registers, shifts by ``cl``, division, the
    stack, and both physical and virtual names."""
    seen = set().union(*traffic.values())
    assert {"movl", "addl", "cmpl", "leal", "movzbl", "movb", "cmovne",
            "sete", "shll", "cltd", "idivl", "pushl", "popl", "call", "ret",
            "jmp"} <= {instr.mnemonic for instr in seen}
    names = {reg.name for instr in seen for reg in instr.registers()}
    assert any(name.startswith("%") for name in names)
    assert any(name.endswith(".b") for name in names)
    assert {"al", "cl", "esp"} <= names
    assert len(traffic["dbt-input"]) > 500
