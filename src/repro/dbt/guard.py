"""Differential execution guard: self-healing rule quarantine.

Learned rules are *verified* before installation (symbolic execution +
BDD, Section 3.3), so in the paper's threat model they cannot be
wrong.  In practice a deployed DBT also has to survive everything the
proof did not cover: a corrupted rule file on disk, a stale cache
replaying verdicts across a semantics change, or a bug in the
rule-translation glue itself.  The guard is the engine's last line of
defense for exactly those cases.

Mechanism (opt-in via ``DBTEngine(guard=GuardPolicy(...))``, rules mode
only): for a sampled subset of dispatches of rule-covered blocks, the
engine executes the rule-translated block and a TCG-only reference
translation of the same guest block on *copies* of the machine state
and compares the results — the next guest pc and every memory effect
(guest registers and flags live in env memory, so this covers the full
architectural state).  On divergence the block's rules are quarantined
(removed from the :class:`~repro.learning.store.RuleStore`), every
cached block built from them is invalidated, and the block is
retranslated — degrading those blocks to baseline TCG correctness at
baseline TCG speed instead of computing a wrong answer.

The comparison deliberately ignores two things:

* the host's own registers/flags — both translations are free to use
  scratch state differently; only guest-visible effects matter;
* the guest condition-code slots (``ENV_BASE + FLAG_OFFSET``) — a rule
  may legitimately skip materializing guest flags its translation-time
  liveness analysis (Section 5) proved dead, while TCG always writes
  them.  A rule that *wrongly* skips live flags still diverges later,
  at the first block whose visible outputs consume them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dbt.codegen import (
    ENV_BASE,
    FLAG_OFFSET,
    NEXT_PC_OFFSET,
    REG_OFFSET,
)
from repro.dbt.machine import ConcreteState

#: Byte addresses of the guest condition-code slots in the CPU env.
FLAG_SLOT_ADDRS = frozenset(
    ENV_BASE + offset + i
    for offset in FLAG_OFFSET.values()
    for i in range(4)
)

#: The guest-architectural bytes of the CPU env: the register file and
#: the next-pc slot.  Everything else at/above ``ENV_BASE`` (the flag
#: slots, TCG's spill area) is translator-private scratch that the two
#: translations legitimately use differently.
ARCH_ENV_ADDRS = frozenset(
    ENV_BASE + offset + i
    for offset in list(REG_OFFSET.values()) + [NEXT_PC_OFFSET]
    for i in range(4)
)


@dataclass(frozen=True)
class GuardPolicy:
    """When to differentially check a rule-covered block.

    ``check_first`` checks the first N dispatches of every such block
    (cheap: most rules are exercised on their very first execution);
    ``check_interval > 0`` additionally re-checks every Nth dispatch
    thereafter, which catches data-dependent divergence at a bounded
    steady-state cost.
    """

    check_first: int = 1
    check_interval: int = 0

    def should_check(self, exec_count: int) -> bool:
        """``exec_count`` is the block's dispatch count so far (the
        pending dispatch is number ``exec_count + 1``)."""
        if exec_count < self.check_first:
            return True
        if self.check_interval > 0:
            return (exec_count + 1) % self.check_interval == 0
        return False


@dataclass
class GuardStats:
    checks: int = 0
    divergences: int = 0
    rules_quarantined: int = 0
    blocks_invalidated: int = 0
    retranslations: int = 0

    def count_fields(self) -> dict:
        return {
            "checks": self.checks,
            "divergences": self.divergences,
            "rules_quarantined": self.rules_quarantined,
            "blocks_invalidated": self.blocks_invalidated,
            "retranslations": self.retranslations,
        }


def copy_state(state: ConcreteState) -> ConcreteState:
    """Independent copy for a trial execution."""
    return ConcreteState(
        regs=dict(state.regs),
        flags=dict(state.flags),
        memory=dict(state.memory),
    )


def _visible_memory(state: ConcreteState) -> dict[int, int]:
    """Memory normalized for comparison: zero bytes are identical to
    absent bytes; of the CPU env only the guest-architectural bytes
    participate (see module docstring)."""
    return {
        addr: value
        for addr, value in state.memory.items()
        if value != 0 and (addr < ENV_BASE or addr in ARCH_ENV_ADDRS)
    }


def states_agree(trial: ConcreteState, reference: ConcreteState) -> bool:
    """Do two post-block states agree on every guest-visible effect?"""
    return _visible_memory(trial) == _visible_memory(reference)
