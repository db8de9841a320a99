"""The DBT system: a QEMU substitute plus the rule-enhanced translator.

Layers:

* :mod:`repro.dbt.machine` — concrete machine state (registers, flags,
  byte-addressed memory) shared by all interpreters.
* :mod:`repro.dbt.direct` — direct guest/host emulators (no
  translation); the correctness oracle for everything above.
* :mod:`repro.dbt.tcg` / :mod:`repro.dbt.frontend` /
  :mod:`repro.dbt.codegen` — the QEMU-like translator: the ARM
  semantics run to emit TCG micro-ops, lowered to x86 host code (block
  assembler, register allocation, peephole), with the guest register
  file kept in an in-memory CPU env.
* :mod:`repro.dbt.ruletrans` — the paper's contribution: rule-enhanced
  translation cooperating with TCG (with no rule table it is the QEMU
  baseline translator).
* :mod:`repro.dbt.llvmjit` — the HQEMU-style optimizing backend model.
* :mod:`repro.dbt.engine` — translation cache, dispatch loop, rule
  hot-install, dynamic statistics.
* :mod:`repro.dbt.fastexec` — host code compiled from the x86
  semantics: per-instruction steps, fused blocks and fused regions
  (the engine's fast path).
* :mod:`repro.dbt.guard` — differential execution guard that
  quarantines a rule whose translation diverges from the reference.
* :mod:`repro.dbt.perf` — the cycle model turning instruction counts
  into relative performance.
"""

from repro.dbt.machine import ConcreteState
from repro.dbt.direct import run_arm_program, run_x86_program

__all__ = [
    "ConcreteState",
    "run_arm_program",
    "run_x86_program",
]
