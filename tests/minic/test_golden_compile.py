"""Golden output of the MiniC compiler.

The optimizer and the register allocator are rewritten for speed only:
their output must stay byte-identical.  These digests pin it at every
optimization level, style and target, over the benchmark suite and the
generated ``learn-corpus`` pool.  A change that alters compiler output
must update them on purpose.
"""

import dataclasses
import hashlib

from repro.benchsuite import BENCHMARK_NAMES, benchmark_source
from repro.corpus.generate import generate_program
from repro.corpus.grammar import REGIONS
from repro.minic.compile import compile_frontend, compile_source

LEVELS = range(4)
STYLES = ("llvm", "gcc")
TARGETS = ("arm", "x86")
#: The generated pool ``learn-corpus`` draws its programs from.
POOL_SEED = 2
POOL_PER_REGION = 4
POOL_LEVEL = 2

#: sha256 of the optimized TAC of every benchmark at O0-O3: every
#: instruction's fields (``line`` included), every function's slots and
#: temp/label counters, and the globals.
TAC_SHA256 = (
    "8a1c31882174cbe65b3b6594447a5a6a759ba5b828cb38312d77f419634964a3"
)
#: sha256 of every benchmark's ``compile_source`` build at O0-O3 for
#: both targets and both styles.
BENCHMARK_BUILD_SHA256 = (
    "dad3c58ec819cdc0478460769d3bd442e3876e806432b53f7a39adf22406b13a"
)
#: sha256 of every pool program's O2 build for both targets and styles.
POOL_BUILD_SHA256 = (
    "d2bb4fe20632ca17ad88d421e5e25b820e8935fdd8d6f25a7d7adfbeaed194c9"
)
#: sha256 of every pool program's optimized TAC at O0-O3, hashed as
#: ``TAC_SHA256`` is.
POOL_TAC_SHA256 = (
    "39c7a834db2476a02db77be0536ef4c614b0a27d37ddf4051db45dbeae794b7a"
)


def _update_tac(digest, tac) -> None:
    for func in tac.functions.values():
        digest.update(repr((
            func.name, func.params, func.temp_counter, func.label_counter,
            func.line, func.returns_value,
            [dataclasses.astuple(slot) for slot in func.slots.values()],
        )).encode())
        for instr in func.instrs:
            digest.update(f"{dataclasses.astuple(instr)!r}\n".encode())
    for data in tac.globals.values():
        digest.update(repr(dataclasses.astuple(data)).encode())


def _update_build(digest, program) -> None:
    for instr in program.code:
        meta = sorted(instr.meta.items()) if instr.meta else None
        digest.update(f"{instr}|{instr.line}|{instr.block}|{meta!r}\n"
                      .encode())
    for name, func in program.functions.items():
        digest.update(repr((name, sorted(func.labels.items()),
                            func.spill_bytes,
                            func.used_callee_saved)).encode())
    for table in (program.labels, program.global_addrs,
                  program.function_of_index):
        digest.update(repr(table).encode())


def pool_sources() -> dict[str, str]:
    return {
        f"{region}-{index}": generate_program(config, POOL_SEED, region,
                                              index)
        for region, config in REGIONS.items()
        for index in range(POOL_PER_REGION)
    }


def test_optimized_tac():
    digest = hashlib.sha256()
    for name in BENCHMARK_NAMES:
        for level in LEVELS:
            digest.update(f"{name} O{level}\n".encode())
            _update_tac(digest, compile_frontend(benchmark_source(name),
                                                 level))
    assert digest.hexdigest() == TAC_SHA256


def test_pool_optimized_tac():
    digest = hashlib.sha256()
    for name, source in pool_sources().items():
        for level in LEVELS:
            digest.update(f"{name} O{level}\n".encode())
            _update_tac(digest, compile_frontend(source, level))
    assert digest.hexdigest() == POOL_TAC_SHA256


def test_benchmark_builds():
    digest = hashlib.sha256()
    for name in BENCHMARK_NAMES:
        source = benchmark_source(name)
        for level in LEVELS:
            for style in STYLES:
                for target in TARGETS:
                    digest.update(f"{name} O{level} {style} {target}\n"
                                  .encode())
                    _update_build(digest, compile_source(source, target,
                                                         level, style))
    assert digest.hexdigest() == BENCHMARK_BUILD_SHA256


def test_pool_builds():
    sources = pool_sources()
    assert len(sources) == 44
    digest = hashlib.sha256()
    for name, source in sources.items():
        for style in STYLES:
            for target in TARGETS:
                digest.update(f"{name} {style} {target}\n".encode())
                _update_build(digest, compile_source(source, target,
                                                     POOL_LEVEL, style))
    assert digest.hexdigest() == POOL_BUILD_SHA256
