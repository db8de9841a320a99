"""The fast MiniC front end against its earlier bodies, pass by pass.

``reference_frontend`` keeps the lexer, parser, ``Instr.uses`` /
``replace_uses`` and every optimization pass as they were before the
speed rewrite.  Each rewritten pass is checked on the code it is
actually handed while ``optimize_function`` runs: the reference body
runs on a copy, and both results must pickle identically.  The inputs
are the benchmark sources and the generated ``learn-corpus`` pool at
O1-O3, random straight-line programs, random TAC, and hand-written
block corners.
"""

import contextlib
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchsuite import BENCHMARK_NAMES, benchmark_source
from repro.minic import passes
from repro.minic.lexer import tokenize
from repro.minic.lower import lower_program
from repro.minic.parser import parse
from repro.minic.tac import BIN_OPS, CMP_OPS, Instr, TacFunction, TAddr
from tests.minic import reference_frontend as reference
from tests.minic.test_golden_compile import pool_sources
from tests.minic.test_passes import arith_program

LEVELS = (1, 2, 3)
REWRITTEN = ("mem2reg", "fold_and_propagate", "local_cse",
             "coalesce_copies", "dead_code_elim", "if_convert")
POOL = pool_sources()


def _copy(value):
    return pickle.loads(pickle.dumps(value))


@contextlib.contextmanager
def checked_passes():
    """Route every rewritten pass ``optimize_function`` calls through a
    comparison with its reference body; yields the names that ran."""
    ran: set[str] = set()
    saved = {name: getattr(passes, name) for name in REWRITTEN}

    def checked(name):
        fast, slow = saved[name], getattr(reference, name)

        def run(func, *args):
            # Compare two copies: a pickle round trip changes which
            # strings are shared, so a copy never pickles like ``func``.
            expected, actual = _copy(func), _copy(func)
            slow(expected, *args)
            fast(actual, *args)
            assert pickle.dumps(actual) == pickle.dumps(expected), name
            fast(func, *args)
            ran.add(name)

        return run

    try:
        for name in REWRITTEN:
            setattr(passes, name, checked(name))
        yield ran
    finally:
        for name, fast in saved.items():
            setattr(passes, name, fast)


def check_instrs(instrs) -> None:
    """``uses`` and ``replace_uses`` agree with the reference bodies."""
    for instr in instrs:
        used = instr.uses()
        assert used == reference.instr_uses(instr), instr
        # Map each register to a new register or a constant in turn, so
        # both mapping kinds reach every field (addresses included).
        mapping = {name: (f"%r{i}" if i % 2 else i * 4)
                   for i, name in enumerate(used)}
        fast, slow = _copy(instr), _copy(instr)
        fast.replace_uses(mapping)
        reference.instr_replace_uses(slow, mapping)
        assert pickle.dumps(fast) == pickle.dumps(slow), instr


def check_source(source: str) -> None:
    assert tokenize(source) == reference.tokenize(source)
    program = parse(source)
    assert pickle.dumps(program) == pickle.dumps(reference.parse(source))
    lowered = lower_program(program)
    check_instrs(instr for func in lowered.functions.values()
                 for instr in func.instrs)
    for level in LEVELS:
        fast = _copy(lowered)
        passes.optimize_program(fast, level)
        check_instrs(instr for func in fast.functions.values()
                     for instr in func.instrs)
        slow = _copy(lowered)
        for func in slow.functions.values():
            reference.optimize_function(func, level)
        assert pickle.dumps(fast) == pickle.dumps(slow), level


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_sources(name):
    with checked_passes() as ran:
        check_source(benchmark_source(name))
    assert ran == set(REWRITTEN)


@pytest.mark.parametrize("name", sorted(POOL))
def test_pool_programs(name):
    with checked_passes():
        check_source(POOL[name])


@settings(max_examples=60, deadline=None)
@given(source=arith_program())
def test_random_programs(source):
    with checked_passes():
        check_source(source)


# -- random TAC -------------------------------------------------------------------
#
# Compiled sources rarely redefine a register inside a block, so the
# passes' invalidation paths see little use there.  Random instruction
# lists exercise them directly: over a few registers, so that they
# collide, or over many, so that some are defined once.

REGS = tuple(f"%t{i}" for i in range(1, 9))
#: Weighted so that blocks run several instructions.
OPS = ("const", "un", "load", "store", "la", "call", "select", "label",
       "jmp", "cbr", "ret") + ("copy",) * 4 + ("bin",) * 8
LABELS = (".L1", ".L2", ".L3")


@st.composite
def random_function(draw):
    regs = REGS[:draw(st.sampled_from((2, 3, 8)))]
    reg = st.sampled_from(regs)
    value = st.one_of(reg, st.integers(0, 2))
    maybe_reg = st.one_of(st.none(), reg)
    label = st.sampled_from(LABELS)
    bin_op = st.one_of(st.just("+"), st.sampled_from(BIN_OPS))
    instrs = []
    for _ in range(draw(st.integers(0, 24))):
        op = draw(st.sampled_from(OPS))
        line = draw(st.integers(1, 3))
        if op in ("load", "store"):
            addr = TAddr(base=draw(maybe_reg), index=draw(maybe_reg),
                         scale=draw(st.sampled_from((1, 4))),
                         disp=draw(st.integers(0, 8)),
                         symbol=draw(st.sampled_from((None, "g"))))
        if op == "const":
            instr = Instr(op=op, line=line, dest=draw(reg),
                          a=draw(st.integers(0, 2)))
        elif op == "copy":
            instr = Instr(op=op, line=line, dest=draw(reg), a=draw(value))
        elif op == "bin":
            instr = Instr(op=op, line=line, dest=draw(reg),
                          bin_op=draw(bin_op), a=draw(value), b=draw(value))
        elif op == "un":
            instr = Instr(op=op, line=line, dest=draw(reg),
                          bin_op=draw(st.sampled_from(("neg", "not"))),
                          a=draw(value))
        elif op == "load":
            instr = Instr(op=op, line=line, dest=draw(reg), addr=addr)
        elif op == "store":
            instr = Instr(op=op, line=line, a=draw(value), addr=addr)
        elif op == "la":
            instr = Instr(op=op, line=line, dest=draw(reg),
                          addr=TAddr(symbol="g", disp=draw(st.integers(0, 1))))
        elif op == "call":
            instr = Instr(op=op, line=line, dest=draw(maybe_reg), name="f",
                          args=tuple(draw(st.lists(value, max_size=2))))
        elif op == "select":
            instr = Instr(op=op, line=line, dest=draw(reg),
                          bin_op=draw(st.sampled_from(CMP_OPS)),
                          a=draw(value), b=draw(value), tval=draw(value),
                          fval=draw(value))
        elif op in ("label", "jmp"):
            instr = Instr(op=op, line=line, label=draw(label))
        elif op == "cbr":
            instr = Instr(op=op, line=line,
                          bin_op=draw(st.sampled_from(CMP_OPS)),
                          a=draw(value), b=draw(value), label=draw(label),
                          label2=draw(label))
        else:
            instr = Instr(op=op, line=line,
                          a=draw(st.one_of(st.none(), value)))
        instrs.append(instr)
    return TacFunction("f", params=[], instrs=instrs, temp_counter=9)


@settings(max_examples=1000, deadline=None)
@given(func=random_function(), name=st.sampled_from(REWRITTEN))
def test_random_tac(func, name):
    check_instrs(func.instrs)
    expected, actual = _copy(func), _copy(func)
    getattr(reference, name)(expected)
    getattr(passes, name)(actual)
    assert pickle.dumps(actual) == pickle.dumps(expected)


def _bin(dest, a, b, op="+"):
    return Instr(op="bin", line=1, dest=dest, bin_op=op, a=a, b=b)


def _copy_instr(dest, a):
    return Instr(op="copy", line=1, dest=dest, a=a)


RET = Instr(op="ret", line=1)
LABEL = Instr(op="label", line=1, label=".L1")

#: Corners of the block-local passes, each as a short instruction list.
CORNERS = {
    # local_cse: the holder, an operand, or a terminator ends reuse.
    "cse holder redefined": [_bin("%t1", "%a", "%b"), _copy_instr("%t1", 0),
                             _bin("%t2", "%a", "%b")],
    "cse operand redefined": [_bin("%t1", "%a", "%b"), _copy_instr("%a", 0),
                              _bin("%t2", "%a", "%b")],
    "cse across a return": [_bin("%t1", "%a", "%b"), RET,
                            _bin("%t2", "%a", "%b")],
    "cse across a label": [_bin("%t1", "%a", "%b"), LABEL,
                           _bin("%t2", "%a", "%b")],
    "cse self update": [_bin("%a", "%a", 1), _bin("%t2", "%a", 1)],
    "cse re-added": [_bin("%t1", "%a", "%b"), _copy_instr("%t1", 0),
                     _bin("%t1", "%a", "%b"), _bin("%t2", "%a", "%b")],
    # coalesce_copies: ``x`` touched between the def and the copy.
    "coalesce target written": [_bin("%t1", "%a", "%b"),
                                _copy_instr("%x", 1), _copy_instr("%x", "%t1"),
                                Instr(op="ret", line=1, a="%x")],
    "coalesce target read": [_bin("%t1", "%a", "%b"),
                             _copy_instr("%y", "%x"), _copy_instr("%x", "%t1"),
                             Instr(op="ret", line=1, a="%y")],
    "coalesce def reads target": [_bin("%t1", "%x", 1),
                                  _copy_instr("%x", "%t1")],
    "coalesce def in an earlier block": [_bin("%t1", "%a", "%b"), LABEL,
                                         _copy_instr("%x", "%t1")],
    "coalesce chain": [_bin("%t1", "%a", "%b"), _copy_instr("%t2", "%t1"),
                       _copy_instr("%x", "%t2")],
    "coalesce two copies, one target": [
        _bin("%t1", "%a", "%b"), _bin("%t2", "%a", 1),
        _copy_instr("%x", "%t1"), _copy_instr("%x", "%t2")],
    "coalesce target read by a dead copy": [
        _bin("%t1", "%a", "%b"), _bin("%t2", "%a", 1),
        _copy_instr("%x", "%t2"), _copy_instr("%y", "%x"),
        _copy_instr("%x", "%t1"), Instr(op="ret", line=1, a="%y")],
}


@pytest.mark.parametrize("corner", sorted(CORNERS))
@pytest.mark.parametrize("name", REWRITTEN)
def test_corners(corner, name):
    func = TacFunction("f", params=[], instrs=CORNERS[corner], temp_counter=9)
    expected, actual = _copy(func), _copy(func)
    getattr(reference, name)(expected)
    getattr(passes, name)(actual)
    assert pickle.dumps(actual) == pickle.dumps(expected)
