"""Quickstart: learn translation rules from a program and use them.

Walks the full pipeline on a small C program:

1. compile it for the ARM guest and the x86 host (dual compilation),
2. learn verified translation rules from the two binaries,
3. run the ARM binary under the QEMU-like DBT with and without the
   rules and compare the translated code quality.

Run with::

    python examples/quickstart.py
"""

from repro.dbt.engine import DBTEngine
from repro.dbt.perf import speedup
from repro.learning import learn_rules
from repro.learning.store import RuleStore
from repro.minic import compile_pairs

SOURCE = """
int values[64];

int checksum(int *data, int n) {
  int acc = 0;
  int i = 0;
  while (i < n) {
    acc = acc + data[i] - 1;
    acc = acc ^ (acc >> 3);
    i += 1;
  }
  return acc;
}

int main(void) {
  int i = 0;
  while (i < 64) {
    values[i] = i * 7 + 3;
    i += 1;
  }
  int total = 0;
  int round = 0;
  while (round < 50) {
    total += checksum(values, 64);
    round += 1;
  }
  return total & 0xffffff;
}
"""


def main() -> None:
    print("=== 1. dual compilation ===")
    # One front end, then the ARM guest and x86 host back ends.
    guest, host = compile_pairs(SOURCE, opt_level=2, styles=["llvm"])["llvm"]
    print(f"ARM guest: {len(guest.code)} instructions, "
          f"x86 host: {len(host.code)} instructions")

    print("\n=== 2. rule learning ===")
    outcome = learn_rules(guest, host, benchmark="quickstart")
    report = outcome.report
    print(f"{report.total_sequences} source-line snippet pairs, "
          f"{report.rules} verified rules "
          f"(yield {report.yield_fraction:.0%}, "
          f"{report.learn_seconds:.2f}s)")
    for rule in outcome.rules:
        print(f"  {rule}")

    print("\n=== 3. translate and run ===")
    store = RuleStore.from_rules(outcome.rules)
    baseline = DBTEngine(guest, "qemu").run()
    enhanced = DBTEngine(guest, "rules", store).run()
    assert baseline.return_value == enhanced.return_value
    print(f"guest result: {baseline.return_value}")
    print(f"QEMU baseline: {baseline.stats.dynamic_host_instructions} "
          f"dynamic host instructions")
    print(f"with rules:    {enhanced.stats.dynamic_host_instructions} "
          f"dynamic host instructions "
          f"({enhanced.stats.dynamic_coverage:.0%} dynamic coverage)")
    print(f"modeled speedup: "
          f"{speedup(baseline.stats.perf, enhanced.stats.perf):.2f}x")


if __name__ == "__main__":
    main()
