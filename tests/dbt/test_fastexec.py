"""Differential tests: per-instruction steps, fused-block and
fused-region fast paths vs. the oracle semantics."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchsuite import benchmark_source
from repro.dbt.codegen import (
    ENV_BASE,
    EXIT_LABEL,
    NEXT_PC_OFFSET,
    TranslatedBlock,
)
from repro.dbt import engine as engine_module
from repro.dbt.engine import DBTEngine
from repro.dbt.fastexec import (
    FastExecError,
    SourceALU,
    _Fuser,
    compile_block,
    compile_instruction,
    fuse_block,
    fuse_region,
)
from repro.dbt.machine import ConcreteState
from repro.experiments.common import ExperimentContext
from repro.host_x86 import execute, parse_instruction as parse
from repro.isa.alu import ConcreteALU
from repro.isa.operands import Label, Mem
from repro.minic import compile_source

ALU = ConcreteALU()

# One representative of every instruction form the DBT backend emits.
INSTRUCTIONS = [
    "movl $42, %eax",
    "movl $-1, %eax",
    "movl %ecx, %eax",
    "movl 0x1000(%esi), %eax",
    "movl %eax, 0x1000(%esi)",
    "movl 0x7f000000(), %edx",
    "movl (%esi,%edi,4), %eax",
    "addl %ecx, %eax",
    "addl $7, %eax",
    "subl %ecx, %eax",
    "imull %ecx, %eax",
    "imull $3, %eax",
    "andl %ecx, %eax",
    "orl $0xff, %eax",
    "xorl %ecx, %eax",
    "cmpl %ecx, %eax",
    "cmpl $0, %eax",
    "cmpl $-7, %eax",
    "testl %eax, %eax",
    "leal -0x4(%ecx,%eax,4), %edx",
    "movzbl %al, %edx",
    "movsbl %cl, %edx",
    "movb %cl, 0x1000(%esi)",
    "movb 0x1000(%esi), %al",
    "negl %eax",
    "notl %eax",
    "incl %eax",
    "decl %eax",
    "shll $3, %eax",
    "shrl $1, %eax",
    "sarl $2, %eax",
    "shll %cl, %eax",
    "sarl %cl, %eax",
    "sete %al",
    "setne %dl",
    "setae %bl",
    "seto %cl",
    "setl %al",
    "cmove %ecx, %eax",
    "cmovge %ecx, %eax",
    "cltd",
    "idivl %ebx",
    # Operands that name the same register (the shape keeps the
    # pattern), and operands that are the registers idivl and shifts by
    # %cl name implicitly.
    "xorl %eax, %eax",
    "imull %eax, %eax",
    "movl (%eax), %eax",
    "leal (%eax,%eax,2), %eax",
    "movb %al, (%eax)",
    "idivl %eax",
    "idivl %edx",
    "shll %cl, %ecx",
    "cmovne %eax, %eax",
]


# Values at the edges of the signed/unsigned ranges, where overflow,
# carry and sign flags change.
EDGE_VALUES = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)


def random_state(rng) -> ConcreteState:
    state = ConcreteState()
    for reg in ("eax", "ecx", "edx", "ebx", "esi", "edi"):
        if rng.random() < 0.5:
            state.set_reg(reg, rng.choice(EDGE_VALUES))
        else:
            state.set_reg(reg, rng.getrandbits(32))
    # keep addresses inside a small window for mem ops
    state.set_reg("esi", 0x2000 + rng.randrange(0, 64, 4))
    state.set_reg("edi", rng.randrange(0, 8))
    for flag in ("OF", "SF", "ZF", "CF"):
        state.set_flag(flag, rng.getrandbits(1))
    for addr in range(0x1000, 0x4000, 512):
        state.store(addr, rng.getrandbits(32), 4)
    return state


def clone(state: ConcreteState) -> ConcreteState:
    return ConcreteState(dict(state.regs), dict(state.flags),
                         dict(state.memory))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_fast_path_matches_semantics(seed):
    rng = random.Random(seed)
    for text in INSTRUCTIONS:
        instr = parse(text)
        step = compile_instruction(instr)
        slow = random_state(rng)
        fast = clone(slow)
        slow.regs["pc"] = 0
        outcome = execute(instr, slow, ALU)
        slow.regs.pop("pc", None)
        result = step(fast.regs, fast.flags, fast.memory)
        assert fast.regs == slow.regs, text
        assert fast.memory == slow.memory, text
        assert fast.flags == slow.flags, text
        assert result is None or isinstance(result, str)


def test_branches_return_targets():
    state = ConcreteState()
    state.set_flag("ZF", 1)
    steps = {
        "je .L1": ".L1",
        "jne .L1": None,
        "jmp .L2": ".L2",
    }
    for text, expected in steps.items():
        step = compile_instruction(parse(text))
        assert step(state.regs, state.flags, state.memory) == expected


def test_uncompilable_raises():
    with pytest.raises(FastExecError):
        compile_instruction(parse("pushl %eax"))  # engine never emits it


def test_steps_share_one_factory_per_shape():
    # Instructions differing only in registers, immediates,
    # displacements or labels run one compiled function...
    same = [
        ("addl %ecx, %eax", "addl %esi, %ebx"),
        ("cmpl $0, %eax", "cmpl $-7, %edi"),
        ("movl 0x1000(%esi), %eax", "movl -0x4(%ebp), %edx"),
        ("movl (%esi,%edi,4), %eax", "movl 0x8(%ebx,%ecx,4), %esi"),
        ("movl 0x7f000000(), %edx", "movl 0x7f000010(), %eax"),
        ("movb %cl, 0x1000(%esi)", "movb %cl, 0x8(%edi)"),
        ("jne TB@0x10", "jne .L1"),
        ("idivl %ebx", "idivl %esi"),
    ]
    for first, second in same:
        assert compile_instruction(parse(first)).__code__ is \
            compile_instruction(parse(second)).__code__, (first, second)
    # ...but not across a register-equality pattern, a low-8 name, a
    # shift count, a scale, or a register the semantics name implicitly.
    different = [
        ("xorl %ecx, %eax", "xorl %eax, %eax"),
        ("sete %al", "sete %cl"),
        ("shll $3, %eax", "shll $2, %eax"),
        ("movl (%esi,%edi,4), %eax", "movl (%esi,%edi,2), %eax"),
        ("idivl %ebx", "idivl %eax"),
        ("shll %cl, %eax", "shll %cl, %ecx"),
    ]
    for first, second in different:
        assert compile_instruction(parse(first)).__code__ is not \
            compile_instruction(parse(second)).__code__, (first, second)


# -- the source ALU ---------------------------------------------------------

WORDS = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF) + tuple(
    random.Random(7).getrandbits(32) for _ in range(5))
SHIFT_COUNTS = (0, 1, 31, 32, 33, 0xFFFFFFFF)
SOURCE_ALU = SourceALU()


def rendered(build):
    """Compile the values ``build(alu, state)`` returns as a fused block
    writes them, each into a register: a function from ``regs`` and
    ``flags`` (the operands' locals are loaded from them) to the
    values."""
    fuser = _Fuser()
    state = fuser.state
    values = build(SOURCE_ALU, state)
    for k, value in enumerate(values):
        state.set_reg(f"out{k}", value)
    for write, args, value in state.effects:
        write(*args, state.render(value))
    fuser.leave("None", 0)
    exec(compile("\n".join(fuser.lines), "<rendered>", "exec"),
         fuser.namespace)

    def run(regs, flags=()):
        regs = dict(regs)
        fuser.namespace["fused"](regs, dict(flags), {})
        return tuple(regs[f"out{k}"] for k in range(len(values)))
    return run


@pytest.mark.parametrize("op", ["add", "sub", "mul", "and_", "or_", "xor",
                                "eq", "ult", "mul_overflow_signed"])
def test_source_alu_word_ops_match_concrete(op):
    run = rendered(lambda alu, st: [getattr(alu, op)(st.get_reg("a"),
                                                     st.get_reg("b"))])
    for a in WORDS:
        for b in WORDS:
            expected = getattr(ALU, op)(a, b)
            assert run({"a": a, "b": b}) == (expected,), (op, a, b)
            assert getattr(SOURCE_ALU, op)(a, b) == expected, (op, a, b)


@pytest.mark.parametrize("op", ["add", "sub", "mul", "and_", "or_", "xor",
                                "eq", "ult", "mul_overflow_signed"])
def test_source_alu_zero_and_same_operands_match_concrete(op):
    # The identity folds: a literal 0 on either side, one value as both
    # operands, and one register read twice.
    def build(alu, st):
        a = st.get_reg("a")
        fn = getattr(alu, op)
        return [fn(a, alu.const(32, 0)), fn(alu.const(32, 0), a), fn(a, a),
                fn(a, st.get_reg("a"))]
    run = rendered(build)
    for a in WORDS:
        fn = getattr(ALU, op)
        assert run({"a": a}) == (fn(a, 0), fn(0, a), fn(a, a),
                                 fn(a, a)), (op, a)


def test_fused_compare_with_zero_renders_no_identity_ops():
    for block, identities in [
        (("cmpl $0, %eax", "je TB@0x10", "jmp TB@0x20"),
         ("- 0", "^ 0", "< 0")),
        # One register read twice is one value: x ^ x folds to 0, and
        # nothing loads eax.
        (("xorl %eax, %eax", "jmp TB@0x10"), ("r_eax ^", "regs.get('eax'")),
        # ult(x, x) folds to 0, and ecx, written with its own value, is
        # neither set nor written back.
        (("addl $0, %ecx", "jl TB@0x10", "jmp TB@0x20"),
         ("r_ecx < r_ecx", "r_ecx = r_ecx", "regs['ecx']")),
    ]:
        instrs = [parse(text) for text in block]
        fuser = _Fuser()
        fuser.block(instrs)
        source = "\n".join(fuser.lines)
        for identity in identities:
            assert identity not in source, source
        rng = random.Random(0)
        for _ in range(20):
            assert_fused_matches(instrs, rng)


@pytest.mark.parametrize("op", ["shl", "lshr", "ashr"])
def test_source_alu_shifts_match_concrete(op):
    run = rendered(lambda alu, st: [getattr(alu, op)(st.get_reg("a"),
                                                     st.get_reg("n"))])
    for count in SHIFT_COUNTS:
        by_literal = rendered(
            lambda alu, st: [getattr(alu, op)(st.get_reg("a"), count)])
        for a in WORDS:
            expected = getattr(ALU, op)(a, count)
            assert run({"a": a, "n": count}) == (expected,), (op, a, count)
            assert by_literal({"a": a}) == (expected,), (op, a, count)
            assert getattr(SOURCE_ALU, op)(a, count) == expected


@pytest.mark.parametrize("op, args", [
    ("neg", ()), ("not_", ()), ("zext", (32,)), ("sext_from", (8, 32)),
    ("extract", (31, 31)), ("extract", (31, 0)), ("extract", (7, 0)),
    ("extract", (0, 0)), ("extract", (15, 8)),
])
def test_source_alu_unary_ops_match_concrete(op, args):
    run = rendered(lambda alu, st: [getattr(alu, op)(*args,
                                                     st.get_reg("a"))])
    for a in WORDS:
        expected = getattr(ALU, op)(*args, a)
        assert run({"a": a}) == (expected,), (op, args, a)
        assert getattr(SOURCE_ALU, op)(*args, a) == expected, (op, args, a)


def test_source_alu_conditions_match_concrete():
    def build(alu, st):
        p, q = st.get_flag("P"), st.get_flag("Q")
        a, b = st.get_reg("a"), st.get_reg("b")
        one, zero = alu.const(8, 1), alu.const(8, 0)
        return [alu.bool_and(p, q), alu.bool_or(p, q), alu.bool_not(p),
                alu.ite(p, a, b), alu.ite(q, one, zero), alu.ite(q, zero, one)]
    run = rendered(build)
    for p in (0, 1):
        for q in (0, 1):
            for a, b in zip(WORDS, reversed(WORDS)):
                assert run({"a": a, "b": b}, {"P": p, "Q": q}) == (
                    ALU.bool_and(p, q), ALU.bool_or(p, q), ALU.bool_not(p),
                    ALU.ite(p, a, b), ALU.ite(q, 1, 0), ALU.ite(q, 0, 1))
                assert SOURCE_ALU.ite(p, a, b) == ALU.ite(p, a, b)


def test_source_alu_divmod_matches_concrete():
    run = rendered(lambda alu, st: alu.divmod_signed_64(
        st.get_reg("hi"), st.get_reg("lo"), st.get_reg("d")))
    for hi in WORDS:
        for lo in WORDS:
            for d in WORDS:
                expected = ALU.divmod_signed_64(hi, lo, d)
                assert run({"hi": hi, "lo": lo, "d": d}) == expected
                assert SOURCE_ALU.divmod_signed_64(hi, lo, d) == expected


def test_source_alu_nested_and_shared_values_match_concrete():
    # Sums of sums render unmasked inside one mask; a value read twice
    # is bound to a temp once, masked even when a sum reads it first.
    def build(alu, a, b):
        shared = alu.add(a, alu.shl(b, alu.const(32, 2)))
        total = alu.sub(alu.add(shared, alu.mul(alu.neg(a), alu.not_(b))),
                        a)
        return [total, alu.ult(shared, a), alu.xor(total, shared)]
    run = rendered(lambda alu, st: build(alu, st.get_reg("a"),
                                         st.get_reg("b")))
    for a in WORDS:
        for b in WORDS:
            assert run({"a": a, "b": b}) == tuple(build(ALU, a, b))
            assert tuple(build(SOURCE_ALU, a, b)) == tuple(build(ALU, a, b))


# -- fused blocks -----------------------------------------------------------

NEXT_PC = ENV_BASE + NEXT_PC_OFFSET

# More forms for the fused tests: zero-count shifts (no flag or register
# effect), a zeroed divisor for ``idivl %ebx``, a cmov from memory, and
# static-address accesses inside the window ``0x1000(%esi)`` reaches
# (0x3000..0x303c), which the fused code keeps in word locals: a store,
# a load, a load overlapping it by two bytes, a byte store into it, a
# read-modify-write, and a store to the env's next-pc slot.
EXTRA_FORMS = [
    "shll $0, %eax",
    "sarl $32, %edx",
    "movl $0, %ebx",
    "movl %ecx, %ebx",
    "cmovl 0x1000(%esi), %ecx",
    "movl %eax, 0x3000()",
    "movl 0x3000(), %ecx",
    "movl 0x3002(), %edx",
    "movb %cl, 0x3001()",
    "addl %ecx, 0x3004()",
    f"movl %ecx, {NEXT_PC:#x}()",
]

EXITS = ["jmp TB@0x8010", f"jmp {EXIT_LABEL}"] + [
    f"j{cc} {target}"
    for cc in ("e", "ne", "l", "ge", "g", "le", "b", "ae", "a", "be",
               "s", "ns", "o", "no")
    for target in ("TB@0x8020", EXIT_LABEL)
]


def oracle_block(instrs, state):
    """Run ``instrs`` through the semantics: ``(next pc, exit index)``,
    or ``(None, len - 1)`` when control falls off the end."""
    for index, instr in enumerate(instrs):
        state.regs["pc"] = 0
        outcome = execute(instr, state, ALU)
        state.regs.pop("pc", None)
        branch = outcome.branch
        if branch is not None and branch.cond:
            name = branch.target.name
            if name == EXIT_LABEL:
                return state.load(NEXT_PC, 4), index
            return int(name[3:], 16), index
    return None, len(instrs) - 1


def assert_fused_matches(instrs, rng):
    fused = fuse_block(instrs)
    slow = random_state(rng)
    slow.store(NEXT_PC, rng.getrandbits(32), 4)
    fast = clone(slow)
    expected = oracle_block(instrs, slow)
    label = "; ".join(str(instr) for instr in instrs)
    assert fused(fast.regs, fast.flags, fast.memory) == expected, label
    assert fast.regs == slow.regs, label
    assert fast.memory == slow.memory, label
    assert fast.flags == slow.flags, label


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_fused_single_instructions_match_semantics(seed):
    rng = random.Random(seed)
    for text in INSTRUCTIONS + EXTRA_FORMS + EXITS:
        assert_fused_matches([parse(text)], rng)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       body=st.lists(st.sampled_from(INSTRUCTIONS + EXTRA_FORMS + EXITS),
                     min_size=8, max_size=24),
       tail=st.sampled_from(EXITS))
def test_fused_blocks_match_semantics(seed, body, tail):
    instrs = [parse(text) for text in body + [tail]]
    assert_fused_matches(instrs, random.Random(seed))


# Forms that reach the words at 0x3000 and 0x3004 every way the fuser
# must keep coherent: as word locals (whole and overlapping), by the
# byte, through %esi once it is pinned to alias them, and as the
# operands of idivl and of shifts by %cl.
ALIAS_FORMS = [
    "movl $0x2000, %esi",
    "movl %eax, 0x3000()",
    "movl 0x3000(), %ecx",
    "movl 0x3002(), %edx",
    "movl %ebx, 0x3004()",
    "addl %ecx, 0x3000()",
    "movb %cl, 0x3001()",
    "movzbl 0x3003(), %ebx",
    "movl 0x1000(%esi), %eax",
    "movl %edx, 0x1002(%esi)",
    "movb 0x1001(%esi), %al",
    "movb %dl, 0x1004(%esi)",
    "idivl 0x3000()",
    "shll %cl, 0x3000()",
]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       body=st.lists(st.sampled_from(ALIAS_FORMS), min_size=4, max_size=12),
       tail=st.sampled_from(EXITS))
def test_fused_word_aliasing_matches_semantics(seed, body, tail):
    instrs = [parse(text) for text in body + [tail]]
    assert_fused_matches(instrs, random.Random(seed))


# Blocks where a flag, register or memory result must survive an
# instruction that may leave it alone: zero-count shifts, an untaken
# cmov, a shift by %cl (of count 0 too) and idivl (by zero too), and
# memory that a word local aliases.
EDGE_BLOCKS = [
    ("cmpl %ecx, %eax", "shll $0, %eax", "jmp TB@0x10"),
    ("cmpl %ebx, %eax", "movl $0, %ecx", "shll %cl, %eax", "jmp TB@0x10"),
    ("cmpl %ebx, %eax", "movl $32, %ecx", "sarl %cl, %eax", "jl TB@0x10",
     "jmp TB@0x20"),
    ("addl %ecx, %eax", "movl $0, %ebx", "idivl %ebx", "addl %eax, %edx",
     f"jmp {EXIT_LABEL}"),
    ("testl %eax, %eax", "cmove 0x1000(%esi), %ebx", "setne %al",
     "jmp TB@0x10"),
    ("cmpl %ecx, %eax", "cmovl %ebx, 0x1000(%esi)", "jmp TB@0x10"),
    # A static word kept in a local, aliased by memory reached another
    # way: a computed store over it (then a computed store overlapping
    # it), a computed load of it, a byte load of it, an overlapping
    # static word, idivl and a shift by %cl that read or write it, and
    # the next-pc slot read by the exit.
    ("movl %eax, 0x3000()", "movl $0x2000, %esi", "movl %ecx, 0x1000(%esi)",
     "movl 0x3000(), %edx", "jmp TB@0x10"),
    ("movl 0x3000(), %edx", "movl $0x2000, %esi", "movl %ecx, 0x1002(%esi)",
     "addl 0x3000(), %edx", "jmp TB@0x10"),
    ("movl %eax, 0x3000()", "movl $0x2000, %esi", "movl 0x1000(%esi), %edx",
     "jmp TB@0x10"),
    ("movl %eax, 0x3000()", "movzbl 0x3002(), %edx", "jmp TB@0x10"),
    ("movl %eax, 0x3000()", "movl 0x3002(), %edx", "movl %ecx, 0x3002()",
     "movl 0x3000(), %ebx", "jmp TB@0x10"),
    ("movl %ecx, 0x3000()", "cltd", "idivl 0x3000()", "movl 0x3000(), %ebx",
     "addl %eax, 0x3000()", f"jmp {EXIT_LABEL}"),
    ("movl %eax, 0x3000()", "movl $3, %ecx", "shll %cl, 0x3000()",
     "movl 0x3000(), %edx", "jmp TB@0x10"),
    (f"movl %ecx, {NEXT_PC:#x}()", "cmpl $0, %eax", f"je {EXIT_LABEL}",
     f"movl %edx, {NEXT_PC:#x}()", f"jmp {EXIT_LABEL}"),
]


@pytest.mark.parametrize("block", EDGE_BLOCKS, ids="; ".join)
def test_fused_edge_blocks_match_semantics(block):
    rng = random.Random(0)
    for _ in range(20):
        assert_fused_matches([parse(text) for text in block], rng)


def test_fused_exit_target_loads_before_its_branch():
    # The first EXIT loads NEXT_PC; the fall-through path reads it too.
    block = [parse(text) for text in ("cmpl $0, %eax", f"je {EXIT_LABEL}",
                                      "movl %ecx, %edx", f"jmp {EXIT_LABEL}")]
    rng = random.Random(3)
    for eax in (0, 1):
        for _ in range(5):
            slow = random_state(rng)
            slow.set_reg("eax", eax)
            slow.store(NEXT_PC, rng.getrandbits(32), 4)
            fast = clone(slow)
            fused = fuse_block(block)
            assert fused(fast.regs, fast.flags, fast.memory) == \
                oracle_block(block, slow)
            assert (fast.regs, fast.flags, fast.memory) == \
                (slow.regs, slow.flags, slow.memory)


def test_exit_cycles_sum_in_instruction_order(monkeypatch):
    # Every tier charges ``exit_cycles[exit index]``: it must add the
    # costs in the order the oracle loop did, with costs whose running
    # sums depend on that order.
    def cycles(instr):
        return CYCLE_COSTS[len(str(instr)) % len(CYCLE_COSTS)]

    monkeypatch.setattr(engine_module, "instruction_cycles", cycles)
    program = compile_source(benchmark_source("mcf", "test"), "arm", 2,
                             "llvm")
    engine = DBTEngine(program, "qemu")
    engine.run()
    order_matters = 0
    for tb in engine._cache.values():
        costs = [cycles(instr) for instr in tb.host_instrs]
        expected, total = [], 0.0
        for cost in costs:
            total += cost
            expected.append(total)
        assert tb.exit_cycles == expected, tb.guest_start
        backwards = 0.0
        for cost in reversed(costs):
            backwards += cost
        order_matters += backwards != total
    assert order_matters


def test_fuse_rejects_unknown_branch_targets():
    instrs = [parse("jne .L1"), parse("jmp TB@0x20")]
    with pytest.raises(FastExecError):
        fuse_block(instrs)


@pytest.fixture(scope="module")
def translated_blocks():
    """The host code of every block a qemu run and a leave-one-out rules
    run of mcf, sjeng and libquantum (test inputs, llvm) translate."""
    context = ExperimentContext()
    blocks = []
    for name in ("mcf", "sjeng", "libquantum"):
        program = compile_source(benchmark_source(name, "test"), "arm", 2,
                                 "llvm")
        for mode in ("qemu", "rules"):
            store = context.rule_store_excluding(name) \
                if mode == "rules" else None
            engine = DBTEngine(program, mode, store)
            engine.run()
            blocks += [tb.host_instrs for tb in engine._cache.values()]
    return blocks


def test_fused_translated_blocks_match_semantics(translated_blocks):
    rng = random.Random(0)
    assert len(translated_blocks) > 200
    for instrs in translated_blocks:
        fused = fuse_block(instrs)
        for _ in range(3):
            # The env words the block names hold values too.
            slow = random_state(rng)
            slow.store(NEXT_PC, rng.getrandbits(32), 4)
            for instr in instrs:
                for op in instr.operands:
                    if isinstance(op, Mem) and not (op.base or op.index):
                        slow.store(op.disp, rng.choice(WORDS), 4)
            fast = clone(slow)
            expected = oracle_block(instrs, slow)
            label = "; ".join(str(instr) for instr in instrs)
            assert fused(fast.regs, fast.flags, fast.memory) == \
                expected, label
            assert (fast.regs, fast.flags, fast.memory) == \
                (slow.regs, slow.flags, slow.memory), label


def run_steps(steps, state):
    """Run a block's steps as the dispatch loop does: ``(next pc, exit
    index)``, or ``(None, len - 1)`` when control falls off the end."""
    for index, step in enumerate(steps):
        target = step(state.regs, state.flags, state.memory)
        if target == EXIT_LABEL:
            return state.load(NEXT_PC, 4), index
        if target is not None:
            return int(target[3:], 16), index
    return None, len(steps) - 1


def test_steps_translated_blocks_match_semantics(translated_blocks):
    rng = random.Random(1)
    for instrs in translated_blocks:
        steps = compile_block(instrs)
        for _ in range(3):
            slow = random_state(rng)
            slow.store(NEXT_PC, rng.getrandbits(32), 4)
            for instr in instrs:
                for op in instr.operands:
                    if isinstance(op, Mem) and not (op.base or op.index):
                        slow.store(op.disp, rng.choice(WORDS), 4)
            fast = clone(slow)
            expected = oracle_block(instrs, slow)
            label = "; ".join(str(instr) for instr in instrs)
            assert run_steps(steps, fast) == expected, label
            assert (fast.regs, fast.flags, fast.memory) == \
                (slow.regs, slow.flags, slow.memory), label


# -- fused regions ----------------------------------------------------------

MEMBER_ADDRS = tuple(0x8000 + 0x40 * k for k in range(6))
OUTSIDE = 0x9000
#: Cycle costs whose sums depend on the order they are added in.
CYCLE_COSTS = (0.1, 0.7, 0.2, 1.3, 2.5)


def region_blocks(blocks, cycles=None, start_counts=3):
    """TranslatedBlocks at MEMBER_ADDRS for lists of instruction texts,
    their ``exit_cycles`` summed from ``cycles`` (1.0 an instruction by
    default), with counters already running."""
    tbs = []
    for k, (addr, texts) in enumerate(zip(MEMBER_ADDRS, blocks)):
        tb = TranslatedBlock(addr, [parse(text) for text in texts])
        total = 0.0
        for cost in cycles[k] if cycles else [1.0] * len(texts):
            total += cost
            tb.exit_cycles.append(total)
        tb.exec_count = start_counts
        tb.exec_cycles = 0.1 * start_counts
        tbs.append(tb)
    return tbs


def oracle_region(tbs, cycles, state, start, budget, exec_cycles):
    """Dispatch the members one block at a time through the semantics,
    as the engine's oracle loop would: ``(next pc, dispatches, host
    instructions, exec_cycles)``, and ``{addr: [count, cycles]}``."""
    members = {tb.guest_start: k for k, tb in enumerate(tbs)}
    counts = {tb.guest_start: [tb.exec_count, tb.exec_cycles] for tb in tbs}
    pc = tbs[start].guest_start
    dispatches = host_instrs = 0
    while pc in members:
        if dispatches >= budget:
            break
        k = members[pc]
        next_pc, index = oracle_block(tbs[k].host_instrs, state)
        cycle_sum = 0.0
        for cost in cycles[k][:index + 1]:
            cycle_sum += cost
        counts[pc][0] += 1
        counts[pc][1] += cycle_sum
        dispatches += 1
        host_instrs += index + 1
        exec_cycles += cycle_sum
        pc = next_pc
    return (pc, dispatches, host_instrs, exec_cycles), counts


def assert_region_matches(blocks, rng, start=0, budget=40, form=None,
                          state=None):
    """Fuse ``blocks`` into a region (its carried locals picked from
    ``form``, by default the run's own state) and check one run of it
    against :func:`oracle_region`: pc, counters, per-block counts and
    cycle sums, and dict-exact ``regs``, ``flags`` and ``memory``."""
    if state is None:
        state = random_state(rng)
        state.store(NEXT_PC, rng.getrandbits(32), 4)
    form = form or state
    cycles = [[rng.choice(CYCLE_COSTS) for _ in texts] for texts in blocks]
    fast_tbs = region_blocks(blocks, cycles)
    slow_tbs = region_blocks(blocks, cycles)
    region = fuse_region(fast_tbs, (form.regs, form.flags, form.memory))
    slow, fast = state, clone(state)
    expected, counts = oracle_region(slow_tbs, cycles, slow, start, budget,
                                     0.1)
    label = " || ".join("; ".join(texts) for texts in blocks)
    result = region.run(fast.regs, fast.flags, fast.memory, start, budget,
                        0.1)
    assert result == expected, label
    assert {tb.guest_start: [tb.exec_count, tb.exec_cycles]
            for tb in fast_tbs} == counts, label
    assert fast.regs == slow.regs, label
    assert fast.memory == slow.memory, label
    assert fast.flags == slow.flags, label
    return region


REGION_TARGETS = [f"TB@{addr:#x}" for addr in MEMBER_ADDRS] + [
    f"TB@{OUTSIDE:#x}", EXIT_LABEL]
#: Point ``NEXT_PC`` at a member, so an ``EXIT`` stays in the region.
NEXT_PC_FORMS = [f"movl ${addr:#x}, {NEXT_PC:#x}()" for addr in MEMBER_ADDRS]
REGION_FORMS = INSTRUCTIONS + EXTRA_FORMS + ALIAS_FORMS + NEXT_PC_FORMS
CONDITIONS = ("e", "ne", "l", "ge", "b", "ae", "s", "o")


@st.composite
def random_regions(draw):
    """2-6 blocks with branches between them, out of the region and to
    ``EXIT``, each ending in a ``jmp``."""
    size = draw(st.integers(2, 6))
    targets = REGION_TARGETS[:size] + REGION_TARGETS[-2:]
    branch = st.builds(lambda cc, target: f"j{cc} {target}",
                       st.sampled_from(CONDITIONS), st.sampled_from(targets))
    blocks = []
    for _ in range(size):
        body = draw(st.lists(
            st.one_of(st.sampled_from(REGION_FORMS), branch),
            min_size=1, max_size=10))
        body.append(f"jmp {draw(st.sampled_from(targets))}")
        blocks.append(body)
    start = draw(st.integers(0, size - 1))
    return blocks, start


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), region=random_regions(),
       budget=st.integers(1, 30))
def test_fused_regions_match_semantics(seed, region, budget):
    blocks, start = region
    assert_region_matches(blocks, random.Random(seed), start, budget)


# Regions for the exactness hazards: a local dirty on one path into a
# loop header and clean on the other, with its keys present (carried)
# and absent (not carried); a word loaded from absent bytes; and the
# run-time alias check, a computed load and store that hit a carried
# word, and ones that miss it.
LOOP_EXIT = f"jmp TB@{OUTSIDE:#x}"
EDGE_REGIONS = {
    "dirty-on-back-edge": [
        ["movl 0x3000(), %eax", "cmpl $0, %ecx", "je TB@0x9000",
         "jmp TB@0x8040"],
        ["movl %edx, 0x3000()", "decl %ecx", "addl $1, %edx",
         "jmp TB@0x8000"],
    ],
    "dirty-on-back-edge-absent-word": [
        ["movl 0x3004(), %eax", "cmpl $0, %ecx", "je TB@0x9000",
         "jmp TB@0x8040"],
        ["movl %edx, 0x3004()", "decl %ecx", "jmp TB@0x8000"],
    ],
    "word-from-absent-bytes": [
        ["movl 0x3008(), %eax", "addl %eax, %ebx", "jmp TB@0x8040"],
        ["movl 0x300c(), %edx", "decl %ecx", "jne TB@0x8000", LOOP_EXIT],
    ],
    "computed-load-hits-carried-word": [
        ["movl %eax, 0x3000()", "movl $0x2000, %esi",
         "movl 0x1000(%esi), %edx", "jmp TB@0x8040"],
        ["addl %edx, 0x3000()", "decl %ecx", "jne TB@0x8000", LOOP_EXIT],
    ],
    "computed-load-misses-carried-word": [
        ["movl %eax, 0x3000()", "movl $0x2400, %esi",
         "movl 0x1000(%esi), %edx", "jmp TB@0x8040"],
        ["addl %edx, 0x3000()", "decl %ecx", "jne TB@0x8000", LOOP_EXIT],
    ],
    "computed-store-hits-carried-word": [
        ["movl %eax, 0x3000()", "movl $0x2000, %esi",
         "movl %ecx, 0x1002(%esi)", "movb %cl, 0x1001(%esi)",
         "jmp TB@0x8040"],
        ["movl 0x3000(), %edx", "addl %edx, %eax", "decl %ecx",
         "jne TB@0x8000", LOOP_EXIT],
    ],
    "computed-store-misses-carried-word": [
        ["movl %eax, 0x3000()", "movl $0x2400, %esi",
         "movl %ecx, 0x1000(%esi)", "movb %cl, 0x1004(%esi)",
         "jmp TB@0x8040"],
        ["movl 0x3000(), %edx", "addl %edx, %eax", "decl %ecx",
         "jne TB@0x8000", LOOP_EXIT],
    ],
    "exit-to-member-through-next-pc": [
        [f"movl $0x8040, {NEXT_PC:#x}()", "decl %ecx",
         f"je {EXIT_LABEL}", "jmp TB@0x8040"],
        ["movl %ecx, 0x3000()", "cmpl $3, %ecx", "jl TB@0x9000",
         "jmp TB@0x8000"],
    ],
    "closure-between-carried-words": [
        ["movl %ecx, 0x3000()", "movl $7, %ebx", "cltd", "idivl %ebx",
         "jmp TB@0x8040"],
        ["addl 0x3000(), %eax", "decl %ecx", "jne TB@0x8000",
         f"jmp {EXIT_LABEL}"],
    ],
}


@pytest.mark.parametrize("name", EDGE_REGIONS)
@pytest.mark.parametrize("budget", [1, 3, 200])
def test_fused_edge_regions_match_semantics(name, budget):
    rng = random.Random(0)
    for _ in range(20):
        state = random_state(rng)
        state.store(NEXT_PC, rng.getrandbits(32), 4)
        state.set_reg("ecx", rng.randrange(1, 12))
        assert_region_matches(EDGE_REGIONS[name], rng, budget=budget,
                              state=state)


class CountingDict(dict):
    """A dict that counts stores per key."""

    def __init__(self, *args):
        super().__init__(*args)
        self.stores = {}

    def __setitem__(self, key, value):
        self.stores[key] = self.stores.get(key, 0) + 1
        super().__setitem__(key, value)


def test_fused_region_writes_carried_words_back_once_per_entry():
    blocks = EDGE_REGIONS["dirty-on-back-edge"]
    rng = random.Random(1)
    state = random_state(rng)
    state.set_reg("ecx", 10)
    tbs = region_blocks(blocks)
    region = fuse_region(tbs, (state.regs, state.flags, state.memory))
    regs, flags, mem = (CountingDict(state.regs), CountingDict(state.flags),
                        CountingDict(state.memory))
    pc, dispatches, _, _ = region.run(regs, flags, mem, 0, 100, 0.0)
    assert (pc, dispatches) == (OUTSIDE, 21)
    # Ten trips round the loop, one write-back of each word and register.
    assert {mem.stores[0x3000 + k] for k in range(4)} == {1}
    assert set(regs.stores.values()) == set(flags.stores.values()) == {1}


def test_fused_region_declines_entry_when_a_carried_key_is_absent():
    blocks = EDGE_REGIONS["dirty-on-back-edge"]
    rng = random.Random(2)
    form = random_state(rng)
    state = clone(form)
    del state.regs["ebx"]
    del state.memory[0x3001]
    tbs = region_blocks(blocks)
    region = fuse_region(tbs, (form.regs, form.flags, form.memory))
    before = clone(state)
    assert region.run(state.regs, state.flags, state.memory, 0, 10,
                      0.0) is None
    assert (state.regs, state.flags, state.memory) == \
        (before.regs, before.flags, before.memory)
    assert [tb.exec_count for tb in tbs] == [3, 3]
    # Formed from a state without them, the same blocks run exactly.
    assert_region_matches(blocks, rng, form=state, state=clone(state))


def test_fuse_region_needs_members_ending_in_jmp():
    tbs = region_blocks([["addl %ecx, %eax", "jne TB@0x8000"]])
    with pytest.raises(FastExecError):
        fuse_region(tbs, ({}, {}, {}))
