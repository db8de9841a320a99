"""Optimization passes: semantics preservation + specific transforms,
and identity with the reference schedule the fast one replaced."""

import hashlib
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus.generate import generate_program
from repro.corpus.grammar import REGIONS
from repro.minic import passes
from repro.minic.interp import run_tac
from repro.minic.lower import lower_program
from repro.minic.parser import parse
from repro.minic.passes import optimize_program


def _outputs(source: str) -> list[int]:
    results = []
    for level in range(4):
        tac = lower_program(parse(source))
        optimize_program(tac, level)
        results.append(run_tac(tac) & 0xFFFFFFFF)
    return results


class TestSemanticPreservation:
    SOURCES = [
        # mem2reg + folding
        "int main(void) { int a = 3; int b = a * 4; return b - a; }",
        # strength reduction: signed division by power of two, negatives
        "int main(void) { int x = -13; return x / 4 * 1000 + x % 4; }",
        # if-conversion shapes
        """int main(void) {
             int best = 0;
             for (int i = 0; i < 20; ++i) {
               int c = (i * 7) % 11;
               if (c > best) best = c;
               if (c == 3) { best += 100; } else { best += 1; }
             }
             return best;
           }""",
        # boolean materialization
        "int main(void) { int a = 5; int b = (a > 3) + (a < 3); return b; }",
        # CSE candidates
        """int a[4];
           int main(void) {
             a[1] = 7;
             return a[1] * a[1] + a[1];
           }""",
        # abs via one-sided if (speculated select)
        """int main(void) {
             int d = -42;
             if (d < 0) { d = 0 - d; }
             return d;
           }""",
    ]

    @pytest.mark.parametrize("source", SOURCES)
    def test_all_levels_agree(self, source):
        results = _outputs(source)
        assert len(set(results)) == 1, results


class TestSpecificTransforms:
    def test_mem2reg_removes_scalar_slots(self):
        tac = lower_program(parse(
            "int main(void) { int a = 1; int b = a + 2; return b; }"
        ))
        optimize_program(tac, 1)
        func = tac.functions["main"]
        assert not func.slots  # all scalars promoted

    def test_address_taken_scalar_stays_in_memory(self):
        tac = lower_program(parse(
            "int main(void) { int a = 1; int *p = &a; *p = 3; return a; }"
        ))
        optimize_program(tac, 1)
        assert len(tac.functions["main"].slots) == 1

    def test_arrays_never_promoted(self):
        tac = lower_program(parse(
            "int main(void) { int a[4]; a[0] = 1; return a[0]; }"
        ))
        optimize_program(tac, 2)
        assert len(tac.functions["main"].slots) == 1

    def test_constant_folding(self):
        tac = lower_program(parse("int main(void) { return 6 * 7; }"))
        optimize_program(tac, 1)
        instrs = tac.functions["main"].instrs
        assert any(i.op == "ret" and i.a == 42 for i in instrs)

    def test_mul_by_power_of_two_becomes_shift(self):
        tac = lower_program(parse(
            "int f(int x) { return x * 8; } int main(void) { return f(1); }"
        ))
        optimize_program(tac, 2)
        ops = [(i.op, i.bin_op) for i in tac.functions["f"].instrs]
        assert ("bin", "<<") in ops
        assert ("bin", "*") not in ops

    def test_sdiv_by_power_of_two_expanded(self):
        tac = lower_program(parse(
            "int f(int x) { return x / 4; } int main(void) { return f(8); }"
        ))
        optimize_program(tac, 2)
        ops = [(i.op, i.bin_op) for i in tac.functions["f"].instrs]
        assert ("bin", "/") not in ops
        assert ("bin", "u>>") in ops  # the bias sequence

    def test_if_conversion_produces_select(self):
        tac = lower_program(parse("""
            int f(int a, int b) {
              int r;
              if (a < b) { r = 1; } else { r = 2; }
              return r;
            }
            int main(void) { return f(1, 2); }
        """))
        optimize_program(tac, 2)
        assert any(i.op == "select" for i in tac.functions["f"].instrs)

    def test_no_select_at_o1(self):
        tac = lower_program(parse("""
            int f(int a, int b) {
              int r;
              if (a < b) { r = 1; } else { r = 2; }
              return r;
            }
            int main(void) { return f(1, 2); }
        """))
        optimize_program(tac, 1)
        assert not any(i.op == "select" for i in tac.functions["f"].instrs)

    def test_dead_code_removed(self):
        tac = lower_program(parse(
            "int main(void) { int unused = 3 * 14; return 1; }"
        ))
        optimize_program(tac, 1)
        instrs = tac.functions["main"].instrs
        assert all(i.op in ("ret",) for i in instrs)

    def test_copy_coalescing_shrinks(self):
        source = """
        int f(int s, int x) { s = s + x - 1; return s; }
        int main(void) { return f(10, 5); }
        """
        tac1 = lower_program(parse(source))
        optimize_program(tac1, 0)
        tac2 = lower_program(parse(source))
        optimize_program(tac2, 2)
        assert len(tac2.functions["f"].instrs) < \
            len(tac1.functions["f"].instrs)


@st.composite
def arith_program(draw):
    """Random straight-line arithmetic over three locals."""
    lines = ["int a = %d;" % draw(st.integers(-100, 100)),
             "int b = %d;" % draw(st.integers(-100, 100)),
             "int c = 1;"]
    variables = ["a", "b", "c"]
    for _ in range(draw(st.integers(1, 8))):
        dest = draw(st.sampled_from(variables))
        lhs = draw(st.sampled_from(variables))
        rhs = draw(st.sampled_from(variables + ["3", "7"]))
        op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^", "<<"]))
        if op == "<<":
            rhs = str(draw(st.integers(0, 8)))
        lines.append(f"{dest} = {lhs} {op} {rhs};")
    body = "\n  ".join(lines)
    return f"int main(void) {{\n  {body}\n  return a ^ b ^ c;\n}}"


@settings(max_examples=60, deadline=None)
@given(source=arith_program())
def test_random_programs_agree_across_levels(source):
    results = _outputs(source)
    assert len(set(results)) == 1, (source, results)


# -- reference schedule -----------------------------------------------------------


def reference_dead_code_elim(func) -> None:
    """Recount every use and sweep until a sweep removes nothing."""
    while True:
        use_counts: dict[str, int] = {}
        for instr in func.instrs:
            for use in instr.uses():
                use_counts[use] = use_counts.get(use, 0) + 1
        removed = False
        kept = []
        for instr in func.instrs:
            if (
                instr.op in passes._PURE_OPS
                and instr.dest is not None
                and use_counts.get(instr.dest, 0) == 0
            ):
                removed = True
                continue
            kept.append(instr)
        func.instrs = kept
        if not removed:
            return


def reference_optimize_function(func, level: int) -> None:
    """Always three fold/CSE/strength-reduce/DCE rounds."""
    dce = reference_dead_code_elim
    if level <= 0:
        passes.cleanup_cfg(func)
        return
    passes.mem2reg(func)
    for _ in range(3):
        passes.fold_and_propagate(func)
        if level >= 2:
            passes.local_cse(func)
            passes.strength_reduce(func, aggressive=level >= 3)
        dce(func)
    passes.coalesce_copies(func)
    dce(func)
    if level >= 2:
        passes.if_convert(func)
        passes.fold_and_propagate(func)
        dce(func)
        passes.coalesce_copies(func)
        dce(func)
    passes.cleanup_cfg(func)


def _tac_digest(tac) -> str:
    return hashlib.sha256(pickle.dumps(tac)).hexdigest()


def assert_matches_reference(source: str) -> None:
    for level in (1, 2, 3):
        fast = lower_program(parse(source))
        optimize_program(fast, level)
        reference = lower_program(parse(source))
        for func in reference.functions.values():
            reference_optimize_function(func, level)
        assert _tac_digest(fast) == _tac_digest(reference), (source, level)


class TestMatchesReference:
    @pytest.mark.parametrize("source", TestSemanticPreservation.SOURCES)
    def test_fixed_sources(self, source):
        assert_matches_reference(source)

    @settings(max_examples=60, deadline=None)
    @given(source=arith_program())
    def test_random_programs(self, source):
        assert_matches_reference(source)

    @pytest.mark.parametrize("region", sorted(REGIONS))
    def test_corpus_regions(self, region):
        for index in range(3):
            assert_matches_reference(
                generate_program(REGIONS[region], 5, region, index))

    def test_dead_chain_removed_in_one_call(self):
        # Each definition only feeds the next; the last is unused.
        tac = lower_program(parse(
            "int main(void) { int a = 1; int b = a + 2; int c = b * 3; "
            "return 0; }"))
        func = tac.functions["main"]
        passes.mem2reg(func)
        reference = pickle.loads(pickle.dumps(func))
        passes.dead_code_elim(func)
        reference_dead_code_elim(reference)
        assert pickle.dumps(func) == pickle.dumps(reference)
        assert all(instr.op == "ret" for instr in func.instrs)
