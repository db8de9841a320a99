"""Symbolic verification of rule candidates (Section 3.3)."""

import pytest

from repro import ir
from repro.benchsuite.suite import benchmark_source
from repro.faults.deadline import Deadline, DeadlineBudget, deadline_scope
from repro.guest_arm import parse_instruction as parse_arm
from repro.host_x86 import parse_instruction as parse_x86
from repro.learning import verify
from repro.learning.extract import SnippetPair
from repro.learning.paramize import analyze_pair, generate_mappings
from repro.learning.pipeline import learn_corpus
from repro.learning.verify import VerifyFailure, query_scope, verify_candidate
from repro.minic.compile import compile_pairs

#: A small fixed slice for the query-memo tests: four benchmarks at
#: O2, both codegen styles.
MEMO_SLICE = ("mcf", "sjeng", "libquantum", "bzip2")


def learn(guest_lines, host_lines, allow_param_failure=False):
    pair = SnippetPair(
        "t", 1,
        [parse_arm(line) for line in guest_lines],
        [parse_x86(line) for line in host_lines],
    )
    context = analyze_pair(pair)
    mappings, failure = generate_mappings(context)
    if failure is not None:
        assert allow_param_failure, failure
        from repro.learning.verify import VerifyResult

        return VerifyResult(rule=None, failure=None, detail=str(failure))
    last = None
    for mapping in mappings:
        last = verify_candidate(context, mapping)
        if last.rule is not None:
            return last
    return last


class TestAccepts:
    def test_figure1_lea(self):
        result = learn(
            ["add r1, r1, r0", "sub r1, r1, #1"],
            ["leal -1(%edx,%eax), %edx"],
        )
        assert result.rule is not None
        assert result.rule.length == 2
        assert len(result.rule.host) == 1

    def test_parameterized_immediate_holds_for_all_values(self):
        result = learn(["add r0, r0, #12"], ["addl $12, %eax"])
        rule = result.rule
        assert rule is not None
        # The immediate is a wildcard slot, not the literal 12.
        from repro.isa.operands import SymImm

        assert any(isinstance(op, SymImm) for op in rule.guest[0].operands)

    def test_memory_store_rule(self):
        result = learn(["str r1, [r6]"], ["movl %eax, 0x34(%esi)"])
        assert result.rule is not None

    def test_branch_rule_with_cc_info(self):
        result = learn(
            ["cmp r2, r3", "blo .L"],
            ["cmpl %ecx, %edx", "jb .L"],
        )
        rule = result.rule
        assert rule is not None
        assert rule.has_branch
        assert rule.cc_info.get("Z") == "direct"
        assert rule.cc_info.get("C") == "inverted"  # ARM C = NOT x86 CF
        assert rule.guest_flags_written == ("N", "Z", "C", "V")

    def test_host_temp_register(self):
        # Host needs a scratch the guest doesn't have.
        result = learn(
            ["sub r0, r8, r4", "add r0, r1, r0"],
            ["movl %ebp, %ecx", "subl %esi, %ecx", "addl %eax, %ecx"],
        )
        assert result.rule is not None


class TestRejects:
    def test_wrong_operation(self):
        result = learn(["add r0, r0, r1"], ["subl %ecx, %eax"])
        assert result.rule is None
        assert result.failure is VerifyFailure.REGISTERS

    def test_wrong_immediate_relation(self):
        result = learn(["add r0, r0, #5"], ["addl $6, %eax"])
        assert result.rule is None

    def test_different_branch_conditions(self):
        result = learn(
            ["cmp r2, r3", "blt .L"],
            ["cmpl %ecx, %edx", "jb .L"],  # signed vs unsigned!
        )
        assert result.rule is None
        assert result.failure is VerifyFailure.BRANCH

    def test_branch_condition_signedness_overflow_case(self):
        # N-flag (mi) is NOT signed-less-than; jl uses SF^OF.
        result = learn(
            ["cmp r2, r3", "bmi .L"],
            ["cmpl %ecx, %edx", "jl .L"],
        )
        assert result.rule is None

    def test_store_value_mismatch_rejected(self):
        # Rejected in parameterization already (live-in count mismatch);
        # either way no rule may come out of this pair.
        result = learn(["str r1, [r6]"], ["movl $0, (%esi)"],
                       allow_param_failure=True)
        assert result.rule is None

    def test_missing_store_on_host_rejected(self):
        result = learn(
            ["str r1, [r6]", "add r0, r1, r1"],
            ["leal (%eax,%eax), %ecx"],
            allow_param_failure=True,
        )
        assert result.rule is None

    def test_store_value_mismatch_in_verification(self):
        # Host stores the un-doubled value: rejected during symbolic
        # verification (as a memory or register mismatch, depending on
        # which check trips first).
        strict = learn(
            ["add r0, r1, r1", "str r0, [r6]"],
            ["leal (%eax,%eax), %ecx", "movl %eax, (%esi)"],
        )
        assert strict.rule is None
        assert strict.failure in (VerifyFailure.MEMORY,
                                  VerifyFailure.REGISTERS)

    def test_pure_memory_mismatch(self):
        # Identical register behaviour, only the stored VALUE differs.
        strict = learn(
            ["str r1, [r6]", "str r1, [r6, #4]"],
            ["movl %eax, (%esi)", "movl %esi, 0x4(%esi)"],
        )
        assert strict.rule is None
        assert strict.failure is VerifyFailure.MEMORY


class TestFlagAnalysis:
    def test_adds_carry_is_direct(self):
        result = learn(
            ["adds r0, r0, r1"],
            ["addl %ecx, %eax"],
        )
        rule = result.rule
        assert rule is not None
        # After addition, ARM C == x86 CF (both are the carry out).
        assert rule.cc_info.get("C") == "direct"
        assert rule.cc_info.get("V") == "direct"
        assert rule.cc_info.get("N") == "direct"
        assert rule.cc_info.get("Z") == "direct"

    def test_unemulated_flags_reported(self):
        # testl computes flags of AND; ARM cmp computes flags of SUB.
        result = learn(["cmp r0, #0", "beq .L"],
                       ["testl %eax, %eax", "je .L"])
        rule = result.rule
        assert rule is not None
        # Z and N agree (x - 0), but C is borrow-of-0 vs cleared-by-test:
        # ARM C after cmp #0 is always 1; x86 CF after test is 0.
        assert rule.cc_info.get("C") == "inverted" or \
            "C" in rule.unemulated_flags


@pytest.fixture(scope="module")
def slice_builds():
    builds = {}
    for name in MEMO_SLICE:
        pairs = compile_pairs(benchmark_source(name, "ref"), 2,
                              ("llvm", "gcc"))
        for style, pair in pairs.items():
            builds[f"{name}-{style}"] = pair
    return builds


def _rules(outcomes):
    return {name: outcome.rules for name, outcome in outcomes.items()}


class TestQueryMemo:
    def test_run_decides_each_query_once(self, slice_builds,
                                         solver_queries):
        learn_corpus(slice_builds)
        assert solver_queries
        assert len(set(solver_queries)) == len(solver_queries)

    def test_memo_does_not_outlive_a_run(self, slice_builds,
                                         solver_queries):
        first = learn_corpus(slice_builds)
        calls = len(solver_queries)
        assert verify._QUERIES is None
        second = learn_corpus(slice_builds)
        # A memo carried over would turn the second cold run warm.
        assert len(solver_queries) == 2 * calls
        assert _rules(second) == _rules(first)

    def test_no_memo_after_a_run_raises(self, slice_builds, monkeypatch):
        def broken(a, b, **kwargs):
            raise RuntimeError("solver down")

        monkeypatch.setattr(verify, "check_equal", broken)
        with pytest.raises(RuntimeError, match="solver down"):
            learn_corpus(slice_builds)
        assert verify._QUERIES is None

    def test_nested_scopes_share_one_memo(self):
        assert verify._QUERIES is None
        with query_scope() as outer:
            assert verify._QUERIES is outer
            with query_scope() as inner:
                assert inner is outer
            assert verify._QUERIES is outer
        assert verify._QUERIES is None

    def test_memo_hit_still_ticks_the_deadline(self, solver_queries):
        x = ir.sym(32, "x")
        a, b = ir.add(x, ir.bv(32, 1)), ir.sub(x, ir.bv(32, -1))
        deadline = Deadline(DeadlineBudget(max_steps=100))
        with deadline_scope(deadline), query_scope() as memo:
            assert verify._exprs_equal(a, b)
            assert verify._exprs_equal(a, b)
        assert solver_queries == [(a, b)]
        assert memo == {(a, b): True}
        assert deadline.steps == 2
