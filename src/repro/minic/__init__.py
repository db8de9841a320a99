"""MiniC: the dual-compilation substrate.

A from-scratch compiler for a C subset with two backends (ARM32 and
IA-32), four optimization levels (``-O0``..``-O3``), and two codegen
styles (``llvm`` and ``gcc``).  It stands in for the paper's use of
LLVM 3.8 / GCC 4.7: the learner consumes the per-instruction source-line
debug info and the IR variable names it attaches to memory operands.

Public entry points::

    program = compile_source(source, target="arm", opt_level=2, style="llvm")
    guest, host = compile_pairs(source, opt_level=2, styles=["llvm"])["llvm"]
"""

from repro.minic.compile import CompileOptions, CompiledProgram, compile_source
from repro.minic.compile import compile_pairs
from repro.minic.errors import MiniCError, ParseError, SemanticError
from repro.minic.format import format_source
from repro.minic.interp import run_tac

__all__ = [
    "CompileOptions",
    "CompiledProgram",
    "compile_pairs",
    "compile_source",
    "format_source",
    "MiniCError",
    "ParseError",
    "SemanticError",
    "run_tac",
]
