"""Backend correctness: compiled ARM/x86 output vs. the TAC oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dbt.direct import run_arm_program, run_x86_program
from repro.minic import compile_source
from repro.minic.interp import run_tac
from repro.minic.lower import lower_program
from repro.minic.parser import parse
from repro.minic.passes import optimize_program


def oracle(source: str, level: int = 2) -> int:
    tac = lower_program(parse(source))
    optimize_program(tac, level)
    return run_tac(tac) & 0xFFFFFFFF


def check_all(source: str, levels=(0, 1, 2, 3), styles=("llvm", "gcc"),
              value: int | None = None):
    """Every build returns what its level's TAC does; with ``value``
    (C's result), the TAC must return that too."""
    for level in levels:
        expected = oracle(source, level)
        if value is not None:
            assert expected == value & 0xFFFFFFFF, level
        for style in styles:
            arm = compile_source(source, "arm", level, style)
            assert run_arm_program(arm).return_value == expected, \
                (level, style, "arm")
            x86 = compile_source(source, "x86", level, style)
            assert run_x86_program(x86).return_value == expected, \
                (level, style, "x86")


class TestPrograms:
    def test_loops_and_arrays(self):
        check_all("""
        int a[16];
        int main(void) {
          int i = 0;
          while (i < 16) { a[i] = i * 3; i += 1; }
          int s = 0;
          i = 0;
          while (i < 16) { s += a[i]; i += 1; }
          return s;
        }
        """)

    def test_calls_and_callee_saved(self):
        check_all("""
        int mix(int a, int b) { return a * 31 + b; }
        int main(void) {
          int x = 3;
          int y = 5;
          int z = mix(x, y);
          // x and y must survive the call
          return z + x * 100 + y * 10;
        }
        """)

    def test_division_via_runtime(self):
        check_all("""
        int main(void) {
          int total = 0;
          int i = 1;
          while (i < 30) {
            total += 1000 / i + 1000 % i;
            i += 1;
          }
          return total;
        }
        """)

    def test_negative_division(self):
        check_all("""
        int main(void) {
          int a = -17;
          int b = 5;
          return (a / b) * 1000 + (a % b) + 500;
        }
        """)

    def test_char_buffers(self):
        check_all("""
        char buf[32];
        int main(void) {
          int i = 0;
          while (i < 32) { buf[i] = (i * 7) & 255; i += 1; }
          int s = 0;
          i = 0;
          while (i < 32) { s += buf[i]; i += 1; }
          return s;
        }
        """)

    def test_four_arguments(self):
        check_all("""
        int f(int a, int b, int c, int d) { return a + b * 2 + c * 3 + d * 4; }
        int main(void) { return f(1, 2, 3, 4); }
        """)

    def test_deep_recursion_uses_stack(self):
        check_all("""
        int down(int n) {
          if (n == 0) { return 0; }
          return down(n - 1) + n;
        }
        int main(void) { return down(200); }
        """, levels=(0, 2))

    def test_shifts_by_variable(self):
        check_all("""
        int main(void) {
          int total = 0;
          int k = 0;
          while (k < 32) {
            total ^= (0x9e3779b9 >> k) + (1 << k);
            k += 1;
          }
          return total;
        }
        """, levels=(2,))

    def test_conditional_select_paths(self):
        check_all("""
        int clamp(int x, int lo, int hi) {
          if (x < lo) { x = lo; }
          if (x > hi) { x = hi; }
          return x;
        }
        int main(void) {
          return clamp(-5, 0, 10) + clamp(5, 0, 10) * 10
               + clamp(50, 0, 10) * 100;
        }
        """)

    def test_register_pressure_forces_spills(self):
        # 10 simultaneously-live values exceed both register files.
        check_all("""
        int main(void) {
          int a = 1; int b = 2; int c = 3; int d = 4; int e = 5;
          int f = 6; int g = 7; int h = 8; int i = 9; int j = 10;
          int k = a + b; int l = c + d; int m = e + f; int n = g + h;
          int o = i + j;
          return (a*b + c*d + e*f + g*h + i*j) ^ (k + l*2 + m*3 + n*4 + o*5);
        }
        """, levels=(2,))


INT_MIN = -2**31


@pytest.mark.parametrize("x", [INT_MIN, INT_MIN + 1, -1, 0, 1, 2**31 - 1])
def test_division_by_int_min(x):
    # 0x80000000 is INT_MIN to a signed division: the quotient is 1 for
    # INT_MIN itself and 0 for every other dividend.
    literal = "0x80000000" if x == INT_MIN else str(x)
    check_all(f"""
        int f(int x) {{ return x / 0x80000000; }}
        int main(void) {{ return f({literal}); }}
    """, value=1 if x == INT_MIN else 0)


class TestPostfixStep:
    """``x++``/``x--`` are valued as the old ``x``, ``++x`` as the new."""

    def test_post_increment_in_a_declaration(self):
        check_all("int main(void) { int i = 1; int j = i++; "
                  "return j * 10 + i; }", value=12)

    def test_post_decrement(self):
        check_all("int main(void) { int i = 5; int j = i--; "
                  "return j * 10 + i; }", value=54)

    def test_post_increment_as_an_index(self):
        check_all("""
            int a[4];
            int main(void) {
              a[0] = 7; a[1] = 8;
              int i = 0;
              int s = a[i++];
              return s * 10 + i;
            }""", value=71)

    def test_pointer_post_increment(self):
        check_all("""
            int a[3];
            int main(void) {
              a[0] = 3; a[1] = 4;
              int *p = a;
              int v = *p++;
              return v * 10 + *p;
            }""", value=34)

    def test_pre_increment_is_the_new_value(self):
        check_all("int main(void) { int i = 1; int j = ++i; "
                  "return j * 10 + i; }", value=22)

    def test_statement_steps(self):
        check_all("""
            int main(void) {
              int s = 0;
              for (int i = 0; i < 5; i++) { s += i; }
              int k = 3;
              k--;
              return s * 10 + k;
            }""", value=102)


@st.composite
def looped_program(draw):
    iterations = draw(st.integers(1, 12))
    seed = draw(st.integers(1, 10_000))
    op = draw(st.sampled_from(["+", "^", "*"]))
    shift = draw(st.integers(0, 4))
    return f"""
int main(void) {{
  int acc = {seed};
  int i = 0;
  while (i < {iterations}) {{
    acc = acc {op} (i << {shift});
    acc = acc + (acc >> 3);
    i += 1;
  }}
  return acc;
}}
"""


@settings(max_examples=25, deadline=None)
@given(source=looped_program())
def test_random_loops_match_oracle(source):
    expected = oracle(source, 2)
    arm = compile_source(source, "arm", 2, "llvm")
    x86 = compile_source(source, "x86", 2, "gcc")
    assert run_arm_program(arm).return_value == expected
    assert run_x86_program(x86).return_value == expected
