"""One front end per source: shared-TAC builds are the builds.

Every learning pair is built from one front-end run (parse, lower,
optimize) whose ``TacProgram`` the back ends share.  That is only
sound if the back ends and the interpreter oracle never mutate it, and
if a back-end build from shared TAC is identical to a full
``compile_source`` build.  The oracle checks both over the whole
benchmark suite at every optimization level, both styles and both
targets; the counting tests pin the callers to one front end per
program.
"""

import hashlib
import pickle

import pytest

from repro.benchsuite import BENCHMARK_NAMES, benchmark_source
from repro.corpus.dedup import SeenStore
from repro.corpus.generate import generate_program
from repro.corpus.grammar import REGIONS
from repro.corpus.pipeline import IngestPipeline
from repro.minic import compile as minic_compile
from repro.minic.compile import (
    compile_frontend,
    compile_pairs,
    compile_source,
    compile_tac,
)
from repro.minic.interp import run_tac
from repro.service.learner import OnlineLearner
from repro.service.repo import RuleRepository
from repro.service.server import RuleService

STYLES = ("llvm", "gcc")
TARGETS = ("arm", "x86")


def build_digest(program) -> str:
    """sha256 over every instruction's text and debug info plus the
    link maps: equal digests mean interchangeable builds."""
    digest = hashlib.sha256()
    for instr in program.code:
        meta = sorted(instr.meta.items()) if instr.meta else None
        digest.update(f"{instr}|{instr.line}|{instr.block}|{meta!r}\n"
                      .encode())
    for table in (program.labels, program.global_addrs,
                  program.function_of_index):
        digest.update(repr(table).encode())
    return digest.hexdigest()


def tac_digest(tac) -> str:
    return hashlib.sha256(pickle.dumps(tac)).hexdigest()


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_shared_tac_builds_match_compile_source(name):
    source = benchmark_source(name, "test")
    for level in range(4):
        tac = compile_frontend(source, level)
        before = tac_digest(tac)
        pairs = compile_pairs(source, level, STYLES)
        for style in STYLES:
            for target, paired in zip(TARGETS, pairs[style]):
                expected = build_digest(
                    compile_source(source, target, level, style))
                direct = compile_tac(tac, target, level, style)
                assert tac_digest(tac) == before, \
                    (name, level, style, target)
                assert build_digest(direct) == expected, \
                    (name, level, style, target)
                assert build_digest(paired) == expected, \
                    (name, level, style, target)
        run_tac(tac)
        assert tac_digest(tac) == before, (name, level, "run_tac")


def test_pair_builds_share_one_tac():
    source = benchmark_source("mcf", "test")
    pairs = compile_pairs(source, 2, STYLES)
    tacs = {id(build.tac) for pair in pairs.values() for build in pair}
    assert len(tacs) == 1
    assert [p.options.target for p in pairs["gcc"]] == list(TARGETS)
    assert {p.options.style for p in pairs["gcc"]} == {"gcc"}


@pytest.fixture
def front_end_calls(monkeypatch):
    """Counts of ``parse`` and ``optimize_program`` calls made through
    ``repro.minic.compile``."""
    calls = {"parse": 0, "optimize_program": 0}

    def counting(attr):
        original = getattr(minic_compile, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(minic_compile, attr, wrapper)

    counting("parse")
    counting("optimize_program")
    return calls


def _program_source() -> str:
    return generate_program(REGIONS["arith"], 13, "arith", 0)


def test_ingest_pipeline_stages_one_front_end_per_program(front_end_calls):
    program = IngestPipeline(SeenStore()).stage(_program_source())
    assert set(program.builds) == set(STYLES)
    assert front_end_calls == {"parse": 1, "optimize_program": 1}


def test_ingest_source_op_runs_one_front_end(front_end_calls, tmp_path):
    service = RuleService(RuleRepository(tmp_path / "repo"),
                          OnlineLearner({}))
    response = service.handle({"op": "ingest_source",
                               "source": _program_source()})
    assert response["ok"] is True, response
    assert front_end_calls == {"parse": 1, "optimize_program": 1}
