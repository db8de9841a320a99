"""The DBT execution engine: translation cache, dispatch loop, stats.

Three backends share the engine (paper Section 6):

* ``"qemu"``    — the baseline: every guest instruction through TCG
  (the rule translator with no rule table),
* ``"rules"``   — the paper's system: learned rules + TCG fallback,
* ``"llvmjit"`` — the HQEMU-style comparison: TCG ops through an
  optimizing middle-end with heavy translation cost.

Guest architectural state (r0-r15, NZCV) lives in the in-memory CPU env
at ``ENV_BASE``; translated host code reads/writes it there, and the
engine itself only touches it between blocks (dispatch, HALT check).

Statistics come in two explicit views (instead of the old implicit
reset-on-``run()`` convention):

* ``engine.lifetime`` — everything since engine construction:
  translation-side counters grow with the translation cache and
  dynamic counters sum over every completed run.
* ``engine.last_run`` — exactly one run: dynamic counters for the most
  recent completed ``run()`` plus the translation work that run itself
  triggered (zero blocks on a warm cache).

``engine.stats`` (and ``DBTRunResult.stats``) is the conventional
evaluation view the figures consume: cumulative translation-side
counters (a warm DBT process keeps its cache) combined with the most
recent run's dynamic counters.  It is a snapshot, not a live object.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from repro.guest_arm.isa import split_mnemonic
from repro.host_x86 import execute as execute_x86
from repro.isa.alu import ConcreteALU
from repro.isa.operands import Label
from repro.learning.rule import windows_in
from repro.learning.serialize import rule_digest
from repro.learning.store import RuleStore
from repro.minic.compile import (
    HALT_ADDRESS,
    STACK_TOP,
    CompiledProgram,
)
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.dbt import codegen, perf
from repro.dbt.codegen import (
    ENV_BASE,
    EXIT_LABEL,
    NEXT_PC_OFFSET,
    REG_OFFSET,
    TranslatedBlock,
)
from repro.dbt.fastexec import FastExecError, Region, fuse_block, fuse_region
from repro.dbt.frontend import discover_block, translate_block
from repro.dbt.guard import GuardPolicy, GuardStats, copy_state, states_agree
from repro.dbt.llvmjit import optimize_tcg
from repro.dbt.machine import ConcreteState
from repro.dbt.perf import PerfModel, instruction_cycles
from repro.dbt.ruletrans import translate_block_with_rules

_ALU = ConcreteALU()

MODES = ("qemu", "rules", "llvmjit")

_ENGINE_IDS = itertools.count()

#: Dispatch count at which a block leaves its steps for one fused
#: generated function (see DESIGN.md, "Execution tiers").
HOT_BLOCK_THRESHOLD = 64
#: Dispatch count at which a fused block seeds a fused region (see
#: DESIGN.md, "Fused regions").
HOT_REGION_THRESHOLD = 512
#: Most host instructions one fused region holds.
REGION_MAX_INSTRS = 768


class DBTError(Exception):
    """Engine-level failure (bad mode, runaway guest, ...)."""


@dataclass
class DBTStats:
    """Everything the evaluation figures need from one stats view."""

    dynamic_host_instructions: int = 0
    dynamic_guest_instructions: int = 0
    dynamic_rule_guest_instructions: int = 0
    static_guest_instructions: int = 0
    static_rule_guest_instructions: int = 0
    translated_blocks: int = 0
    hit_rule_lengths: dict[int, int] = field(default_factory=dict)
    hit_rules: set = field(default_factory=set)
    rule_miss_reasons: dict[str, int] = field(default_factory=dict)
    perf: PerfModel = field(default_factory=PerfModel)

    @property
    def static_coverage(self) -> float:
        """S_p from the paper (Figure 11)."""
        if not self.static_guest_instructions:
            return 0.0
        return (self.static_rule_guest_instructions
                / self.static_guest_instructions)

    @property
    def dynamic_coverage(self) -> float:
        """D_p from the paper (Figure 11)."""
        if not self.dynamic_guest_instructions:
            return 0.0
        return (self.dynamic_rule_guest_instructions
                / self.dynamic_guest_instructions)

    def count_fields(self) -> dict:
        """Flat numeric summary (trace payloads, reconciliation)."""
        return {
            "dynamic_host_instructions": self.dynamic_host_instructions,
            "dynamic_guest_instructions": self.dynamic_guest_instructions,
            "dynamic_rule_guest_instructions":
                self.dynamic_rule_guest_instructions,
            "static_guest_instructions": self.static_guest_instructions,
            "static_rule_guest_instructions":
                self.static_rule_guest_instructions,
            "translated_blocks": self.translated_blocks,
            "dispatches": self.perf.dispatches,
            "exec_cycles": self.perf.exec_cycles,
            "translation_cycles": self.perf.translation_cycles,
        }


@dataclass
class RuleProfile:
    """Lifetime profitability ledger for one learned rule.

    Recorded as the engine runs: each instantiation of the rule into a
    block (re-translations re-pay, which is correct — the costs really
    recur) and, at each run's end, that block's dispatches.  Every
    figure below, the digest included, is derived on read; "saved"
    always means *relative to the TCG counterfactual* of each hit,
    priced by :mod:`repro.dbt.perf`'s cycle model when first read.

    Lookup-cost attribution: every successful hit is charged exactly
    one probe at ``probe_cost``, the store matcher's
    :func:`~repro.dbt.perf.lookup_cost` — the same per-position charge
    the block's translation cost pays.  Probes that missed are real
    cost too, but belong to no rule — they are the store's overhead,
    already visible in ``translation_cycles``.
    """

    rule: object
    probe_cost: float              #: cycles per lookup probe
    #: Every instantiation -> dispatches of its block, over all runs.
    hit_execs: dict = field(default_factory=dict)

    @cached_property
    def digest(self) -> str:
        return rule_digest(self.rule)

    @property
    def hits(self) -> int:  # translate-time instantiations
        return len(self.hit_execs)

    @property
    def exec_hits(self) -> int:  # dispatches of blocks with this hit
        return sum(self.hit_execs.values())

    @property
    def guest_covered(self) -> int:  # guest instrs covered, translate-time
        return sum(hit.length for hit in self.hit_execs)

    @property
    def host_emitted(self) -> int:  # host template instrs emitted
        return sum(hit.rule_host_len for hit in self.hit_execs)

    @property
    def tcg_ops_avoided(self) -> int:  # TCG micro-ops never generated
        return sum(hit.tcg_ops for hit in self.hit_execs)

    @property
    def translation_cycles_saved(self) -> float:
        return (perf.TCG_OP_COST * self.tcg_ops_avoided
                - perf.RULE_EMIT_COST * self.host_emitted)

    @property
    def exec_cycles_saved(self) -> float:
        return sum((hit.tcg_host_cycles - hit.host_cycles) * count
                   for hit, count in self.hit_execs.items())

    @property
    def lookup_cost(self) -> float:
        return self.probe_cost * self.hits

    @property
    def cycles_saved(self) -> float:
        return self.translation_cycles_saved + self.exec_cycles_saved

    @property
    def net_cycles(self) -> float:
        return self.cycles_saved - self.lookup_cost

    @property
    def profitable(self) -> bool:
        return self.net_cycles > 0

    def count_fields(self) -> dict:
        """Flat numeric summary (trace payloads, report tables)."""
        return {name: getattr(self, name) for name in (
            "digest", "hits", "exec_hits", "guest_covered", "host_emitted",
            "tcg_ops_avoided", "translation_cycles_saved",
            "exec_cycles_saved", "lookup_cost", "cycles_saved",
            "net_cycles", "profitable",
        )}


@dataclass
class DBTRunResult:
    return_value: int
    stats: DBTStats


class DBTEngine:
    """Translate-and-run loop over a guest (ARM) program image."""

    def __init__(
        self,
        program: CompiledProgram,
        mode: str = "qemu",
        rule_store: RuleStore | None = None,
        fast: bool = True,
        guard: GuardPolicy | None = None,
        gap_sink=None,
    ) -> None:
        if mode not in MODES:
            raise DBTError(f"unknown mode {mode!r}")
        if program.options.target != "arm":
            raise DBTError("the DBT emulates ARM guests")
        if guard is not None and mode != "rules":
            raise DBTError(
                "the differential guard cross-checks learned rules; "
                f"it has nothing to check in {mode!r} mode"
            )
        if mode == "rules" and rule_store is None:
            rule_store = RuleStore()
        if rule_store is not None and len(rule_store) and \
                rule_store.direction != "arm-x86":
            raise DBTError(
                "the DBT executes ARM guests: rule store direction "
                f"{rule_store.direction!r} is not applicable"
            )
        self.program = program
        self.mode = mode
        self.rule_store = rule_store
        self.fast = fast
        self.guard = guard
        self.guard_stats = GuardStats()
        #: Translation-gap capture hook: called with the uncovered
        #: guest suffix at every rule-table miss (rules mode only).
        self.gap_sink = gap_sink
        #: Per-dispatch hook ``tick(engine)``; the rule-service client
        #: installs one to report gaps / pull deltas mid-run.
        self.tick = None
        #: Rules the guard caught diverging from the TCG reference.
        self.quarantined_rules: set = set()
        self.engine_id = next(_ENGINE_IDS)
        #: Every live block; its compiled forms live on it.
        self._cache: dict[int, TranslatedBlock] = {}
        #: Fused regions, and each member's ``(run, index)`` entry (None
        #: where a hot block seeded no region); see :meth:`_form_region`.
        self._regions: list[Region] = []
        self._region_entries: dict[int, tuple | None] = {}
        #: Host code of qemu-mode reference translations (guard
        #: comparisons).
        self._ref_cache: dict[int, list] = {}
        #: Blocks invalidated mid-run after executing: their dynamic
        #: counters must still be accounted at run end.
        self._retired_blocks: list[TranslatedBlock] = []
        self._runs_completed = 0
        #: Lifetime per-rule profitability ledgers, keyed by Rule
        #: (identity excludes provenance, so re-learned equal rules
        #: share one ledger).
        self.rule_profiles: dict = {}
        #: Cumulative since construction (never reset).
        self.lifetime = DBTStats()
        #: The most recent completed run (empty before the first).
        self.last_run = DBTStats()
        # Accumulator for the run in progress.
        self._active: DBTStats | None = None

    # -- stats views -----------------------------------------------------------

    @property
    def stats(self) -> DBTStats:
        """The conventional evaluation view: cumulative translation
        counters (the cache is warm across runs) + the most recent
        run's dynamic counters.  A detached snapshot."""
        lifetime, last = self.lifetime, self.last_run
        return DBTStats(
            dynamic_host_instructions=last.dynamic_host_instructions,
            dynamic_guest_instructions=last.dynamic_guest_instructions,
            dynamic_rule_guest_instructions=(
                last.dynamic_rule_guest_instructions
            ),
            static_guest_instructions=lifetime.static_guest_instructions,
            static_rule_guest_instructions=(
                lifetime.static_rule_guest_instructions
            ),
            translated_blocks=lifetime.translated_blocks,
            hit_rule_lengths=dict(lifetime.hit_rule_lengths),
            hit_rules=set(lifetime.hit_rules),
            rule_miss_reasons=dict(lifetime.rule_miss_reasons),
            perf=PerfModel(
                exec_cycles=last.perf.exec_cycles,
                translation_cycles=lifetime.perf.translation_cycles,
                dispatches=last.perf.dispatches,
            ),
        )

    def _translation_views(self) -> tuple[DBTStats, ...]:
        if self._active is not None:
            return (self.lifetime, self._active)
        return (self.lifetime,)

    # -- translation -----------------------------------------------------------

    def translate(self, guest_addr: int) -> TranslatedBlock:
        cached = self._cache.get(guest_addr)
        if cached is not None:
            return cached
        return self._translate_miss(guest_addr)

    def _translate_miss(self, guest_addr: int) -> TranslatedBlock:
        translate_t0 = time.perf_counter()
        start_index = self.program.index_of_addr(guest_addr)
        miss_reasons: dict[str, int] = {}
        if self.mode == "llvmjit":
            # The whole block's TCG ops through the optimizing
            # middle-end, which works across instructions.
            tcg_block, guest_instrs = translate_block(
                self.program, start_index
            )
            assembler = codegen.BlockAssembler()
            for op in optimize_tcg(tcg_block.ops):
                codegen.lower_tcg_op(assembler, op, optimized=True)
            translated = codegen.finalize_block(assembler, guest_addr)
            tb = TranslatedBlock(guest_addr, translated.host_instrs)
            tb.guest_length = len(guest_instrs)
            tb.rule_covered = [False] * len(guest_instrs)
            tb.translation_cost = (perf.LLVMJIT_BLOCK_COST
                                   + perf.LLVMJIT_OP_COST
                                   * len(tcg_block.ops))
        else:
            store = self.rule_store if self.mode == "rules" else None
            result = translate_block_with_rules(
                self.program, start_index, store, gap_sink=self.gap_sink,
            )
            tb = TranslatedBlock(guest_addr, result.host_instrs)
            tb.guest_length = len(result.guest_instrs)
            tb.rule_covered = result.rule_covered
            tb.hit_profiles = result.hit_profiles
            tb.translation_cost = perf.TCG_OP_COST * result.tcg_op_count
            if store is not None:
                tb.translation_cost += (
                    perf.lookup_cost(store.matcher) * result.lookup_attempts
                    + perf.RULE_EMIT_COST * sum(
                        hit.rule_host_len for hit in result.hit_profiles)
                )
            miss_reasons = result.miss_reasons
            for hit in result.hit_profiles:
                profile = self.rule_profiles.get(hit.rule)
                if profile is None:
                    profile = self.rule_profiles[hit.rule] = RuleProfile(
                        hit.rule, perf.lookup_cost(store.matcher))
                profile.hit_execs[hit] = 0
            for view in self._translation_views():
                for hit in result.hit_profiles:
                    view.hit_rules.add(hit.rule)
                    view.hit_rule_lengths[hit.length] = (
                        view.hit_rule_lengths.get(hit.length, 0) + 1
                    )
                for reason, count in miss_reasons.items():
                    view.rule_miss_reasons[reason] = (
                        view.rule_miss_reasons.get(reason, 0) + count
                    )
        cycle_sum = 0.0
        for instr in tb.host_instrs:
            cycle_sum += instruction_cycles(instr)
            tb.exit_cycles.append(cycle_sum)
        if self.fast:
            from repro.dbt.fastexec import compile_block

            tb.steps = compile_block(tb.host_instrs)
        self._cache[guest_addr] = tb
        covered = sum(tb.rule_covered)
        for view in self._translation_views():
            view.translated_blocks += 1
            view.static_guest_instructions += tb.guest_length
            view.static_rule_guest_instructions += covered
            view.perf.translation_cycles += tb.translation_cost
        metrics = get_metrics()
        metrics.inc("dbt.blocks.translated")
        metrics.observe_sketch(
            "dbt.translate.ms",
            (time.perf_counter() - translate_t0) * 1000.0,
        )
        if self.mode == "rules":
            metrics.inc("dbt.rule.hits", len(tb.hit_profiles))
            for hit in tb.hit_profiles:
                metrics.observe("dbt.rule.hit_length", hit.length)
            for reason, count in miss_reasons.items():
                metrics.inc(f"dbt.rule.miss.{reason}", count)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "dbt.translate",
                engine=self.engine_id,
                mode=self.mode,
                addr=guest_addr,
                guest_len=tb.guest_length,
                covered=covered,
                cost=tb.translation_cost,
                hit_lengths=[hit.length for hit in tb.hit_profiles],
                miss_reasons=miss_reasons,
            )
        return tb

    # -- per-rule profitability --------------------------------------------------

    def rule_profitability(self) -> list[RuleProfile]:
        """Lifetime per-rule ledgers, most profitable first."""
        return sorted(
            self.rule_profiles.values(),
            key=lambda p: (-p.net_cycles, p.digest),
        )

    # -- execution ---------------------------------------------------------------

    def _env_write(self, state: ConcreteState, offset: int, value: int) -> None:
        state.store(ENV_BASE + offset, value & 0xFFFFFFFF, 4)

    def _env_read(self, state: ConcreteState, offset: int) -> int:
        return state.load(ENV_BASE + offset, 4)

    def run(self, args: tuple[int, ...] = (),
            block_limit: int = 50_000_000) -> DBTRunResult:
        """Emulate the guest program's ``main`` until it returns.

        Repeated ``run()`` calls on one engine reuse the translation
        cache; each run accumulates into a fresh ``last_run`` view and
        folds into ``lifetime``, so back-to-back runs never
        double-count.  The returned ``stats`` snapshot is the
        conventional hybrid view (see the module docstring).
        """
        self._active = DBTStats()
        self._retired_blocks = []
        for tb in self._cache.values():
            tb.exec_count = 0
            tb.exec_cycles = 0.0
        state = ConcreteState(memory=dict(self.program.initial_memory()))
        self._env_write(state, REG_OFFSET["sp"], STACK_TOP)
        self._env_write(state, REG_OFFSET["lr"], HALT_ADDRESS)
        for i, arg in enumerate(args):
            self._env_write(state, REG_OFFSET[f"r{i}"], arg)
        guest_pc = self.program.addr_of(self.program.entry)
        dispatch = self._dispatch_fast if self.fast else \
            self._dispatch_generic
        try:
            dispatch(state, guest_pc, block_limit)
        finally:
            self._finalize_run()
        return_value = self._env_read(state, REG_OFFSET["r0"])
        self._emit_run_records(return_value)
        return DBTRunResult(return_value, self.stats)

    def _dispatch_generic(self, state: ConcreteState, pc: int,
                          block_limit: int) -> None:
        """Run the guest from ``pc`` until it halts, every host
        instruction through the generic semantics (the oracle)."""
        active = self._active
        while pc != HALT_ADDRESS:
            if active.perf.dispatches >= block_limit:
                raise DBTError("block limit exceeded")
            if self.tick is not None:
                self.tick(self)
            tb = self.translate(pc)
            if (
                self.guard is not None
                and tb.hit_profiles
                and self.guard.should_check(tb.exec_count)
            ):
                tb = self._guard_check(tb, state)
            tb.exec_count += 1
            active.perf.dispatches += 1
            index, next_pc = self._exec_block_raw(tb.host_instrs, state)
            cycle_sum = tb.exit_cycles[index]
            active.dynamic_host_instructions += index + 1
            active.perf.exec_cycles += cycle_sum
            tb.exec_cycles += cycle_sum
            pc = next_pc

    def _dispatch_fast(self, state: ConcreteState, pc: int,
                       block_limit: int) -> None:
        """Run the guest from ``pc`` until it halts: fused regions,
        fused blocks and step blocks, with the hot counters in locals
        until the loop ends.  Statistics match :meth:`_dispatch_generic`
        exactly.  Regions run only while no ``tick`` hook and no guard
        must see each dispatch."""
        active = self._active
        cache = self._cache
        guard = self.guard
        regions = self._region_entries if guard is None else {}
        region_threshold = HOT_REGION_THRESHOLD
        regs, flags, mem = state.regs, state.flags, state.memory
        dispatches = host_instrs = 0
        exec_cycles = 0.0
        try:
            while pc != HALT_ADDRESS:
                if dispatches >= block_limit:
                    raise DBTError("block limit exceeded")
                tick = self.tick
                if tick is not None:
                    tick(self)
                else:
                    entry = regions.get(pc)
                    if entry is not None:
                        run, start = entry
                        done = run(regs, flags, mem, start,
                                   block_limit - dispatches, exec_cycles)
                        if done is not None:
                            pc, count, instrs, exec_cycles = done
                            dispatches += count
                            host_instrs += instrs
                            continue
                tb = cache.get(pc)
                if tb is None:
                    tb = self.translate(pc)
                if (
                    guard is not None
                    and tb.hit_profiles
                    and guard.should_check(tb.exec_count)
                ):
                    tb = self._guard_check(tb, state)
                tb.exec_count += 1
                dispatches += 1
                fused = tb.fused
                if fused is None and tb.exec_count == HOT_BLOCK_THRESHOLD:
                    fused = self._fuse(tb)
                if fused is not None:
                    if tb.exec_count == region_threshold and \
                            tick is None and guard is None and \
                            pc not in regions:
                        self._form_region(tb, state)
                    next_pc, exit_index = fused(regs, flags, mem)
                    if next_pc is None:
                        raise DBTError(
                            f"translated block {pc:#x} fell off its end")
                    host_instrs += exit_index + 1
                    cycle_sum = tb.exit_cycles[exit_index]
                    exec_cycles += cycle_sum
                    tb.exec_cycles += cycle_sum
                    pc = next_pc
                    continue
                for index, step in enumerate(tb.steps):
                    target = step(regs, flags, mem)
                    if target is not None:
                        break
                else:
                    raise DBTError(
                        f"translated block {pc:#x} fell off its end")
                host_instrs += index + 1
                cycle_sum = tb.exit_cycles[index]
                exec_cycles += cycle_sum
                tb.exec_cycles += cycle_sum
                pc = self._exit_pc(target, state)
        finally:
            active.perf.dispatches += dispatches
            active.dynamic_host_instructions += host_instrs
            active.perf.exec_cycles += exec_cycles

    def _exit_pc(self, target, state: ConcreteState) -> int:
        """The guest pc a block exit branching to ``target`` (a
        ``Label`` or its name) continues at."""
        name = target.name if isinstance(target, Label) else target
        if name == EXIT_LABEL:
            return self._env_read(state, NEXT_PC_OFFSET)
        if isinstance(name, str) and name.startswith("TB@"):
            return int(name[3:], 16)
        raise DBTError(f"unexpected host branch target {target!r}")

    def _fuse(self, tb: TranslatedBlock) -> Callable | None:
        """Promote a hot block to the fused tier: its fused function, or
        None if it cannot be fused (it then stays on its steps)."""
        try:
            tb.fused = fuse_block(tb.host_instrs)
        except FastExecError:
            pass
        return tb.fused

    def _form_region(self, tb: TranslatedBlock,
                     state: ConcreteState) -> None:
        """Fuse ``tb`` and the fused blocks its exits reach (breadth
        first, at most ``REGION_MAX_INSTRS`` host instructions) into a
        region, and enter it from every member not already in one.  A
        block's successors are its ``TB@`` targets and, when it ends in
        a call, the return site."""
        members = [tb]
        seen = {tb.guest_start}
        room = REGION_MAX_INSTRS - len(tb.host_instrs)
        for member in members:
            for target in self._successors(member):
                if target in seen:
                    continue
                seen.add(target)
                succ = self._cache.get(target)
                if succ is not None and succ.fused is not None and \
                        succ.host_instrs[-1].mnemonic == "jmp" and \
                        len(succ.host_instrs) <= room:
                    members.append(succ)
                    room -= len(succ.host_instrs)
        addrs = {member.guest_start for member in members}
        if not any(target in addrs for member in members
                   for target in self._successors(member)):
            self._region_entries[tb.guest_start] = None
            return
        try:
            region = fuse_region(members,
                                 (state.regs, state.flags, state.memory))
        except FastExecError:
            self._region_entries[tb.guest_start] = None
            return
        self._regions.append(region)
        for index, addr in enumerate(region.members):
            if self._region_entries.get(addr) is None:
                self._region_entries[addr] = (region.run, index)

    def _successors(self, tb: TranslatedBlock) -> list[int]:
        """The guest addresses control may reach from ``tb``'s exits,
        as far as the code shows them."""
        targets = _tb_targets(tb.host_instrs)
        index = self.program.index_of_addr(tb.guest_start)
        last = self.program.code[index + tb.guest_length - 1]
        if split_mnemonic(last.mnemonic)[0] == "bl":
            targets.append(tb.guest_start + 4 * tb.guest_length)
        return targets

    # -- differential guard ------------------------------------------------------

    def _guard_check(self, tb: TranslatedBlock,
                     state: ConcreteState) -> TranslatedBlock:
        """Cross-check a rule-covered block against its TCG reference.

        On divergence the block's rules are quarantined, every cached
        block built from them is invalidated, and the block is
        retranslated; the loop repeats until the (re)translation agrees
        with the reference or uses no rules at all.  Returns the block
        the dispatch loop should actually execute.
        """
        metrics = get_metrics()
        while tb.hit_profiles:
            self.guard_stats.checks += 1
            metrics.inc("dbt.guard.checks")
            trial = copy_state(state)
            reference = copy_state(state)
            _, trial_pc = self._exec_block_raw(tb.host_instrs, trial)
            _, ref_pc = self._exec_block_raw(
                self._reference_block(tb.guest_start), reference)
            if trial_pc == ref_pc and states_agree(trial, reference):
                return tb
            suspects = {
                hit.rule for hit in tb.hit_profiles
                if hit.rule not in self.quarantined_rules
            }
            if not suspects:
                # Divergence with nothing left to quarantine means the
                # baseline itself is inconsistent — not recoverable.
                raise DBTError(
                    f"guard divergence at {tb.guest_start:#x} with no "
                    "quarantinable rules"
                )
            for rule in suspects:
                self.rule_store.remove(rule)
                self.quarantined_rules.add(rule)
            invalidated = self._invalidate_rule_blocks(suspects)
            self.guard_stats.divergences += 1
            self.guard_stats.rules_quarantined += len(suspects)
            self.guard_stats.retranslations += 1
            metrics.inc("dbt.guard.divergences")
            metrics.inc("dbt.guard.quarantined_rules", len(suspects))
            metrics.inc("dbt.guard.invalidated_blocks", invalidated)
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "dbt.guard.divergence",
                    engine=self.engine_id,
                    addr=tb.guest_start,
                    trial_pc=trial_pc,
                    ref_pc=ref_pc,
                    quarantined=len(suspects),
                    invalidated=invalidated,
                )
            tb = self.translate(tb.guest_start)
        return tb

    def _exec_block_raw(self, instrs, state: ConcreteState
                        ) -> tuple[int, int]:
        """Execute one translated block's host code on ``state`` through
        the generic semantics (the oracle), with no stats side effects:
        ``(exit index, next guest pc)``."""
        for index, instr in enumerate(instrs):
            branch = execute_x86(instr, state, _ALU).branch
            if branch is not None and branch.cond:
                return index, self._exit_pc(branch.target, state)
        raise DBTError("translated block fell off its end")

    def _reference_block(self, guest_addr: int) -> list:
        """The host code of the qemu-mode translation of the guest block
        at ``guest_addr`` (the guard's ground truth), cached separately
        from the main translation cache and charged to no stats view."""
        host_instrs = self._ref_cache.get(guest_addr)
        if host_instrs is None:
            index = self.program.index_of_addr(guest_addr)
            host_instrs = translate_block_with_rules(
                self.program, index, None).host_instrs
            self._ref_cache[guest_addr] = host_instrs
        return host_instrs

    def _retire_blocks(self, doomed: list[int]) -> int:
        """Drop cached blocks, and with them their compiled forms, by
        guest address (shared by the guard's quarantine path and
        hot-install).

        Blocks that already executed this run are retired, not
        forgotten: their dynamic counters still belong to the run."""
        for addr in doomed:
            tb = self._cache.pop(addr)
            if tb.exec_count:
                self._retired_blocks.append(tb)
        self._drop_regions(set(doomed))
        return len(doomed)

    def _drop_regions(self, doomed: set[int]) -> None:
        """Forget every region with a member in ``doomed``, and the
        entries of doomed blocks that seeded none."""
        dead = {region.run for region in self._regions
                if doomed.intersection(region.members)}
        self._regions = [region for region in self._regions
                         if region.run not in dead]
        entries = self._region_entries
        for addr, entry in list(entries.items()):
            if (entry[0] in dead) if entry else (addr in doomed):
                del entries[addr]

    def _invalidate_rule_blocks(self, rules: set) -> int:
        """Drop every cached block translated with any of ``rules``."""
        doomed = [
            addr for addr, tb in self._cache.items()
            if any(hit.rule in rules for hit in tb.hit_profiles)
        ]
        self._retire_blocks(doomed)
        self.guard_stats.blocks_invalidated += len(doomed)
        return len(doomed)

    # -- hot install ---------------------------------------------------------

    def hot_install(self, rules, source: str = "direct",
                    digest: str | None = None) -> tuple[int, int]:
        """Install freshly served rules into the live store mid-run.

        Exact duplicates are skipped by the store's idempotent
        :meth:`~repro.learning.store.RuleStore.install`, and rules the
        guard has quarantined this engine's lifetime are never
        re-admitted.  Cached blocks whose uncovered guest instructions
        contain a newly installed rule's mnemonic window are
        invalidated (through the same retire machinery the guard uses)
        so their next dispatch retranslates with the new rules.

        ``digest`` names the served bundle these rules came from; it is
        carried on the ``dbt.hot_install`` trace record so the report
        layer can join an install back to the publish (and, through the
        gap's trace id, to the miss that caused it).

        Returns ``(installed, invalidated)`` counts.
        """
        if self.mode != "rules":
            raise DBTError(
                f"hot-install needs a rules-mode engine, not {self.mode!r}"
            )
        offered = list(rules)
        fresh = [
            rule for rule in offered if rule not in self.quarantined_rules
        ]
        installed = self.rule_store.install(fresh)
        invalidated = 0
        if installed:
            windows = {
                tuple(i.mnemonic for i in rule.guest) for rule in installed
            }
            doomed = [
                addr for addr, tb in self._cache.items()
                if not all(tb.rule_covered)
                and self._block_matches_windows(addr, windows)
            ]
            invalidated = self._retire_blocks(doomed)
        metrics = get_metrics()
        metrics.inc("dbt.hot_install.offered", len(offered))
        metrics.inc("dbt.hot_install.rules", len(installed))
        metrics.inc("dbt.hot_install.blocks_invalidated", invalidated)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "dbt.hot_install",
                engine=self.engine_id,
                source=source,
                digest=digest,
                offered=len(offered),
                installed=len(installed),
                invalidated=invalidated,
            )
        return len(installed), invalidated

    def _block_matches_windows(self, guest_addr: int,
                               windows: set[tuple]) -> bool:
        """Could any mnemonic window cover part of this cached block?"""
        block = discover_block(
            self.program, self.program.index_of_addr(guest_addr)
        )
        mnemonics = tuple(instr.mnemonic for instr in block)
        lengths = {len(window) for window in windows}
        return any(True for _ in windows_in(mnemonics, windows, lengths))

    def _finalize_run(self) -> None:
        """Derive the run's guest-side dynamic counters, publish it as
        ``last_run`` and fold it into ``lifetime``."""
        active = self._active
        if active is None:
            return
        self._active = None
        for tb in list(self._cache.values()) + self._retired_blocks:
            active.dynamic_guest_instructions += \
                tb.exec_count * tb.guest_length
            active.dynamic_rule_guest_instructions += \
                tb.exec_count * sum(tb.rule_covered)
            if tb.exec_count:
                for hit in tb.hit_profiles:
                    self.rule_profiles[hit.rule].hit_execs[hit] += \
                        tb.exec_count
        lifetime = self.lifetime
        lifetime.dynamic_host_instructions += \
            active.dynamic_host_instructions
        lifetime.dynamic_guest_instructions += \
            active.dynamic_guest_instructions
        lifetime.dynamic_rule_guest_instructions += \
            active.dynamic_rule_guest_instructions
        lifetime.perf.exec_cycles += active.perf.exec_cycles
        lifetime.perf.dispatches += active.perf.dispatches
        self.last_run = active
        self._runs_completed += 1

    def _emit_run_records(self, return_value: int) -> None:
        metrics = get_metrics()
        metrics.inc("dbt.runs")
        metrics.inc("dbt.dispatches", self.last_run.perf.dispatches)
        metrics.inc("dbt.dynamic_host_instructions",
                    self.last_run.dynamic_host_instructions)
        tracer = get_tracer()
        if not tracer.enabled:
            return
        for tb in list(self._cache.values()) + self._retired_blocks:
            if not tb.exec_count:
                continue
            tracer.event(
                "dbt.block",
                engine=self.engine_id,
                addr=tb.guest_start,
                exec_count=tb.exec_count,
                exec_cycles=tb.exec_cycles,
                guest_len=tb.guest_length,
                covered=sum(tb.rule_covered),
            )
        # Lifetime-cumulative per-rule ledgers; the report aggregator
        # keeps the last record per (engine, digest), so repeated runs
        # on one engine never double-count.
        for profile in self.rule_profitability():
            tracer.event(
                "dbt.rule_profile",
                engine=self.engine_id,
                **profile.count_fields(),
            )
        tracer.event(
            "dbt.run",
            engine=self.engine_id,
            mode=self.mode,
            run=self._runs_completed,
            return_value=return_value,
            lifetime=self.lifetime.count_fields(),
            last_run=self.last_run.count_fields(),
        )


def _tb_targets(instrs) -> list[int]:
    """Guest addresses of the ``TB@`` labels a block's branches name."""
    return [
        int(instr.operands[0].name[3:], 16) for instr in instrs
        if instr.operands and isinstance(instr.operands[0], Label)
        and instr.operands[0].name.startswith("TB@")
    ]


def run_dbt(
    program: CompiledProgram,
    mode: str = "qemu",
    rule_store: RuleStore | None = None,
    args: tuple[int, ...] = (),
    guard: GuardPolicy | None = None,
) -> DBTRunResult:
    """Convenience wrapper: build an engine and run to completion."""
    return DBTEngine(program, mode, rule_store, guard=guard).run(args)
