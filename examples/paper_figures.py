"""Replay the paper's worked examples (Figures 1-5 and 7).

Each figure's exact guest/host instruction sequences are pushed through
the learner's machinery (operand parameterization + symbolic
verification) to show that the pipeline reproduces the paper's
reasoning on its own examples.

Run with::

    python examples/paper_figures.py
"""

from repro import ir
from repro.guest_arm import execute as execute_arm
from repro.guest_arm import parse_instruction as parse_arm
from repro.host_x86 import execute as execute_x86
from repro.host_x86 import parse_instruction as parse_x86
from repro.learning.extract import SnippetPair
from repro.learning.paramize import analyze_pair, generate_mappings
from repro.learning.verify import verify_candidate
from repro.minic import compile_pairs
from repro.solver import check_equal
from repro.symexec import SharedSymbolicMemory, SymbolicState, run_snippet


def learn_pair(title: str, guest_asm: list[str], host_asm: list[str]) -> None:
    print(f"--- {title} ---")
    pair = SnippetPair(
        "example", 0,
        [parse_arm(text) for text in guest_asm],
        [parse_x86(text) for text in host_asm],
    )
    context = analyze_pair(pair)
    mappings, failure = generate_mappings(context)
    if failure is not None:
        print(f"  parameterization failed: {failure.value}")
        return
    for mapping in mappings:
        result = verify_candidate(context, mapping)
        if result.rule is not None:
            print(f"  initial mapping: {mapping.reg_map}")
            print(f"  learned rule:    {result.rule}")
            if result.rule.cc_info:
                print(f"  condition codes: {result.rule.cc_info}")
            return
    print(f"  verification failed: {result.failure.value} ({result.detail})")


def figure_1() -> None:
    """add+sub -> lea: the paper's motivating many-to-one rule."""
    learn_pair(
        "Figure 1: add r1,r1,r0; sub r1,r1,#1  =>  leal -1(rX,rY), rX",
        ["add r1, r1, r0", "sub r1, r1, #1"],
        ["leal -1(%edx,%eax), %edx"],
    )


def figure_2() -> None:
    """Live-in register mapping via normalized memory addresses."""
    learn_pair(
        "Figure 2(a): scaled-index address normalization",
        ["add r0, r1, r0, lsl #2", "ldr r0, [r0, #-4]"],
        ["movl -0x4(%ecx,%eax,4), %eax"],
    )
    learn_pair(
        "Figure 2(b): base-register mapping through a load",
        ["ldr r1, [r5]", "ldr r4, [r1]"],
        ["movl (%edi), %eax", "movl (%eax), %esi"],
    )


def figure_3() -> None:
    """Live-in register mapping by operations (3a) and the movzbl
    special case (3b: the 255 immediate must NOT be parameterized)."""
    learn_pair(
        "Figure 3(a): operation-based mapping",
        ["sub r0, r8, r4", "add r0, r1, r0"],
        ["movl %ebp, %ecx", "subl %esi, %ecx", "addl %eax, %ecx"],
    )
    learn_pair(
        "Figure 3(b): movzbl vs and #255 + additive-inverse immediate",
        ["and r0, r0, #255", "sub r2, r1, #14"],
        ["movzbl %al, %eax", "movl %ebx, %esi",
         "addl $-14, %esi"],
    )


def figure_4() -> None:
    """Immediate operand mapping with arithmetic/logical relations."""
    learn_pair(
        "Figure 4(a): zero guest offset vs 0x34 host offset",
        ["str r1, [r6]"],
        ["movl %eax, 0x34(%esi)"],
    )
    learn_pair(
        "Figure 4(b): two guest immediates OR-combined into one",
        ["mov r1, #983040", "orr r1, r1, #117440512"],
        ["movl $0x70f0000, %ecx"],  # NB: 983040|117440512 == 0x70f0000
    )


def figure_5() -> None:
    """Condition-code rule: cmp+beq <=> cmpl+je."""
    learn_pair(
        "Figure 5(a): compare-and-branch with condition codes",
        ["cmp r2, r3", "beq .L1"],
        ["cmpl %ecx, %edx", "je .L1"],
    )
    # The subtraction carry-polarity subtlety, checked symbolically.
    memory = SharedSymbolicMemory()
    p0, p1 = ir.sym(32, "p0"), ir.sym(32, "p1")
    guest = SymbolicState("g", {"r2": p0, "r3": p1}, memory)
    host = SymbolicState("h", {"edx": p0, "ecx": p1}, memory)
    run_snippet([parse_arm("cmp r2, r3")], execute_arm, guest)
    run_snippet([parse_x86("cmpl %ecx, %edx")], execute_x86, host)
    carry = check_equal(guest.flag_value("C"), host.flag_value("CF"))
    inverted = check_equal(
        guest.flag_value("C"),
        ir.xor(host.flag_value("CF"), ir.bv(1, 1)),
    )
    print("  ARM C == x86 CF after compare?     ", carry.verdict.value)
    print("  ARM C == NOT x86 CF after compare? ", inverted.verdict.value)


def figure_7() -> None:
    """-O0 vs -O2: the same source line is learnable only when
    optimized (locals promoted to registers)."""
    print("--- Figure 7: optimization level changes learnability ---")
    source = """
int f(int a, int b) {
  int c = a + b - 1;
  return c;
}
int main(void) { return f(3, 4); }
"""
    from repro.learning import learn_rules

    for level in (0, 2):
        guest, host = compile_pairs(source, level)["llvm"]
        outcome = learn_rules(guest, host)
        interesting = [r for r in outcome.rules if r.length >= 2]
        print(f"  -O{level}: {outcome.report.rules} rules, "
              f"{len(interesting)} with >= 2 guest instructions")
        for rule in interesting:
            print(f"    {rule}")


def main() -> None:
    figure_1()
    figure_2()
    figure_3()
    figure_4()
    figure_5()
    figure_7()


if __name__ == "__main__":
    main()
