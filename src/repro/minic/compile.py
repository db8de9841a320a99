"""MiniC compilation driver: source text -> linked machine program.

The front end (:func:`compile_frontend`: parse, lower, optimize)
depends only on the source and level; the back end (:func:`compile_tac`:
select, allocate, finalize, link) builds one target/style from that TAC
without mutating it.  ``compile_source`` composes the two for one
build, :func:`compile_pairs` shares one front end across every style's
(ARM guest, x86 host) pair.  A :class:`CompiledProgram`'s flattened
``code`` list plus label/address maps are directly loadable by the DBT,
the concrete interpreters, and the rule learner.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.guest_arm import parser as arm_parser
from repro.isa.instruction import Instruction
from repro.minic.backend import regalloc
from repro.minic.backend.arm_backend import ArmSelector
from repro.minic.backend.arm_backend import finalize as arm_finalize
from repro.minic.backend.arm_backend import target_info as arm_target
from repro.minic.backend.mach import MachineFunction
from repro.minic.backend.x86_backend import X86Selector
from repro.minic.backend.x86_backend import finalize as x86_finalize
from repro.minic.backend.x86_backend import target_info as x86_target
from repro.minic.errors import MiniCError
from repro.minic.lower import lower_program
from repro.minic.parser import parse
from repro.minic.passes import optimize_program
from repro.minic.runtime_arm import AEABI_DIVMOD_ASM
from repro.minic.tac import GlobalData, TacProgram

CODE_BASE = 0x8000
GLOBAL_BASE = 0x0010_0000
STACK_TOP = 0x0080_0000
HALT_ADDRESS = 0x0000_0004  # guest lr sentinel: reaching it ends the run

_WORD = 4


@dataclass(frozen=True)
class CompileOptions:
    """Knobs mirroring the paper's compiler matrix."""

    target: str = "arm"  # "arm" | "x86"
    opt_level: int = 2  # 0..3
    style: str = "llvm"  # "llvm" | "gcc"

    def __post_init__(self) -> None:
        if self.target not in ("arm", "x86"):
            raise ValueError(f"unknown target {self.target!r}")
        if not 0 <= self.opt_level <= 3:
            raise ValueError(f"bad optimization level {self.opt_level}")
        if self.style not in ("llvm", "gcc"):
            raise ValueError(f"unknown style {self.style!r}")


@dataclass
class CompiledProgram:
    """A linked program image.

    ``code`` is the flattened instruction list; instruction *i* lives at
    address ``CODE_BASE + 4 * i`` (both ISAs use 4-byte instruction
    granularity in this model).  ``labels`` maps every function entry
    and local label to its instruction index.
    """

    options: CompileOptions
    functions: dict[str, MachineFunction]
    code: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    global_addrs: dict[str, int] = field(default_factory=dict)
    globals: dict[str, GlobalData] = field(default_factory=dict)
    function_of_index: list[str] = field(default_factory=list)
    runtime_functions: tuple[str, ...] = ()
    tac: TacProgram | None = None

    @property
    def entry(self) -> str:
        return "main"

    def addr_of(self, label: str) -> int:
        return CODE_BASE + _WORD * self.labels[label]

    def index_of_addr(self, addr: int) -> int:
        offset = addr - CODE_BASE
        if offset % _WORD or not 0 <= offset < _WORD * len(self.code):
            raise ValueError(f"address 0x{addr:x} is outside the code image")
        return offset // _WORD

    def initial_memory(self) -> dict[int, int]:
        """Byte map holding the initialized data segment."""
        memory: dict[int, int] = {}
        for data in self.globals.values():
            base = self.global_addrs[data.name]
            for i, value in enumerate(data.init):
                for b in range(data.elem_size):
                    memory[base + i * data.elem_size + b] = (
                        value >> (8 * b)
                    ) & 0xFF
        return memory


def layout_globals(tac: TacProgram) -> dict[str, int]:
    """Assign data-segment addresses to every global."""
    addrs: dict[str, int] = {}
    cursor = GLOBAL_BASE
    for data in tac.globals.values():
        addrs[data.name] = cursor
        cursor += (data.size + 3) & ~3
    return addrs


def compile_frontend(source: str, opt_level: int = 2) -> TacProgram:
    """Parse, lower and optimize: the target- and style-independent
    half of compilation, shared by every build of one source."""
    tac = lower_program(parse(source))
    optimize_program(tac, opt_level)
    return tac


def compile_tac(tac: TacProgram, target: str = "arm", opt_level: int = 2,
                style: str = "llvm") -> CompiledProgram:
    """Back end: link one build of optimized ``tac`` (never mutated;
    every build of it keeps a reference in ``CompiledProgram.tac``)."""
    options = CompileOptions(target, opt_level, style)
    global_addrs = layout_globals(tac)
    arm = target == "arm"
    info = arm_target(style) if arm else x86_target(style)
    selector = ArmSelector if arm else X86Selector
    functions: dict[str, MachineFunction] = {}
    for tac_func in tac.functions.values():
        mfunc = selector(tac_func, style, opt_level, global_addrs).select()
        regalloc.allocate(mfunc, info)
        if arm:
            arm_finalize(mfunc, any(i.mnemonic == "bl" for i in mfunc.instrs))
        else:
            x86_finalize(mfunc, style)
        functions[tac_func.name] = mfunc
    runtime = _arm_runtime_functions() if arm else {}
    functions.update(runtime)

    program = CompiledProgram(
        options=options,
        functions=functions,
        global_addrs=global_addrs,
        globals=dict(tac.globals),
        runtime_functions=tuple(runtime),
        tac=tac,
    )
    _link(program)
    return program


def compile_source(source: str, target: str = "arm", opt_level: int = 2,
                   style: str = "llvm") -> CompiledProgram:
    """Compile MiniC source for one target; see :class:`CompileOptions`."""
    return compile_tac(compile_frontend(source, opt_level), target,
                       opt_level, style)


def compile_pairs(
    source: str, opt_level: int = 2, styles: Iterable[str] = ("llvm",)
) -> dict[str, tuple[CompiledProgram, CompiledProgram]]:
    """style -> (ARM guest, x86 host) learning pair, all from one
    front-end run."""
    tac = compile_frontend(source, opt_level)
    return {style: (compile_tac(tac, "arm", opt_level, style),
                    compile_tac(tac, "x86", opt_level, style))
            for style in styles}


def _arm_runtime_functions() -> dict[str, MachineFunction]:
    """The ARM runtime's functions, each build its own copies."""
    return {
        name: MachineFunction(name, instrs=list(instrs), labels=dict(labels))
        for name, instrs, labels in _arm_runtime_listing()
    }


@functools.cache
def _arm_runtime_listing() -> tuple[tuple[str, tuple[Instruction, ...],
                                          tuple[tuple[str, int], ...]], ...]:
    """The runtime listing parsed once per process and split into
    (name, instructions, local labels) per function."""
    parsed = arm_parser.parse_program(AEABI_DIVMOD_ASM)
    # Split the combined listing at the function-name labels (those not
    # starting with ".L").
    entries = sorted(
        (index, name)
        for name, index in parsed.labels.items()
        if not name.startswith(".L")
    )
    functions = []
    for i, (start, name) in enumerate(entries):
        end = entries[i + 1][0] if i + 1 < len(entries) else \
            len(parsed.instructions)
        labels = tuple(
            (label, pos - start)
            for label, pos in parsed.labels.items()
            if label.startswith(".L") and start <= pos <= end
        )
        functions.append(
            (name, tuple(parsed.instructions[start:end]), labels))
    return tuple(functions)


def _link(program: CompiledProgram) -> None:
    """Flatten functions into one image and globalize labels."""
    cursor = 0
    for name, func in program.functions.items():
        if name in program.labels:
            raise MiniCError(f"duplicate symbol {name!r}")
        program.labels[name] = cursor
        for label, pos in func.labels.items():
            if label in program.labels:
                raise MiniCError(f"duplicate label {label!r}")
            program.labels[label] = cursor + pos
        program.code.extend(func.instrs)
        program.function_of_index.extend([name] * len(func.instrs))
        cursor += len(func.instrs)
