"""Benchmark registry and build helpers."""

from __future__ import annotations

from dataclasses import dataclass
from string import Template

from repro.benchsuite.programs import (
    astar,
    bzip2,
    gcc,
    gobmk,
    h264ref,
    hmmer,
    libquantum,
    mcf,
    omnetpp,
    perlbench,
    sjeng,
    xalancbmk,
)
from repro.minic.compile import CompiledProgram, compile_pairs, compile_source

_MODULES = (
    perlbench, bzip2, gcc, mcf, gobmk, hmmer, sjeng, libquantum, h264ref,
    omnetpp, astar, xalancbmk,
)


@dataclass(frozen=True)
class Benchmark:
    """One synthetic CINT2006 component."""

    name: str
    description: str
    template: str
    test_params: dict
    ref_params: dict

    def source(self, workload: str = "ref") -> str:
        params = self.ref_params if workload == "ref" else self.test_params
        return Template(self.template).substitute(params)


BENCHMARKS: dict[str, Benchmark] = {
    module.NAME: Benchmark(
        module.NAME,
        module.DESCRIPTION,
        module.TEMPLATE,
        module.TEST_PARAMS,
        module.REF_PARAMS,
    )
    for module in _MODULES
}

BENCHMARK_NAMES = tuple(BENCHMARKS)


def benchmark_source(name: str, workload: str = "ref") -> str:
    """MiniC source text for one benchmark at one workload."""
    return BENCHMARKS[name].source(workload)


def build_benchmark(
    name: str,
    target: str = "arm",
    opt_level: int = 2,
    style: str = "llvm",
    workload: str = "ref",
) -> CompiledProgram:
    """Compile one benchmark for one target/level/style/workload."""
    return compile_source(
        benchmark_source(name, workload), target, opt_level, style
    )


def build_learning_pair(
    name: str,
    opt_level: int = 2,
    style: str = "llvm",
    workload: str = "ref",
) -> tuple[CompiledProgram, CompiledProgram]:
    """(guest ARM build, host x86 build) for rule learning."""
    return compile_pairs(benchmark_source(name, workload), opt_level,
                         [style])[style]
