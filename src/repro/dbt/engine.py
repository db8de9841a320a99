"""The DBT execution engine: translation cache, dispatch loop, stats.

Three backends share the engine (paper Section 6):

* ``"qemu"``    — the baseline: every guest instruction through TCG,
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

from repro.host_x86 import execute as execute_x86
from repro.isa.alu import ConcreteALU
from repro.isa.operands import Label
from repro.learning.store import RuleStore
from repro.minic.compile import (
    CODE_BASE,
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
    FLAG_OFFSET,
    NEXT_PC_OFFSET,
    REG_OFFSET,
    TranslatedBlock,
)
from repro.dbt.fastexec import FastExecError, FusedBlock, fuse_block
from repro.dbt.frontend import translate_block
from repro.dbt.guard import GuardPolicy, GuardStats, copy_state, states_agree
from repro.dbt.llvmjit import optimize_tcg
from repro.dbt.machine import ConcreteState
from repro.dbt.perf import PerfModel, instruction_cycles
from repro.dbt.ruletrans import COVER_MODES, translate_block_with_rules

_ALU = ConcreteALU()

MODES = ("qemu", "rules", "llvmjit")

_ENGINE_IDS = itertools.count()

#: Dispatch count at which a block's closures are fused into one
#: generated function (see DESIGN.md, "Execution tiers").
HOT_BLOCK_THRESHOLD = 64


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

    Translation-time entries accrue every time the rule is
    instantiated into a block (re-translations after invalidation
    re-pay, which is correct — the costs really recur); execution-time
    entries accrue per dispatch of a block containing the hit.  The
    cycle model is :mod:`repro.dbt.perf`'s; "saved" always means
    *relative to the TCG counterfactual captured at the hit site*.

    Lookup-cost attribution: every successful hit is charged exactly
    one :data:`~repro.dbt.perf.RULE_LOOKUP_COST` probe.  Probes that
    missed are real cost too, but belong to no rule — they are the
    store's overhead, already visible in ``translation_cycles``.
    """

    digest: str
    rule: object
    hits: int = 0                  #: translate-time instantiations
    exec_hits: int = 0             #: dispatches of blocks with this hit
    guest_covered: int = 0         #: guest instrs covered, translate-time
    host_emitted: int = 0          #: host template instrs emitted
    tcg_ops_avoided: int = 0       #: TCG micro-ops never generated
    translation_cycles_saved: float = 0.0
    exec_cycles_saved: float = 0.0
    #: Measured template-body cycles/visit summed over hits: the
    #: attribution signal that refines the DP cover's per-rule cost
    #: online.  Body cycles only (no first-touch register loads, no
    #: block-ending write-back) — a property of the rule itself, so
    #: engines with different translation histories still plan
    #: identical covers (the online/offline coverage-parity contract).
    host_cycles_observed: float = 0.0

    @property
    def mean_host_cycles(self) -> float | None:
        """Average measured cycles/visit (None before the first hit)."""
        if not self.hits:
            return None
        return self.host_cycles_observed / self.hits

    @property
    def lookup_cost(self) -> float:
        return perf.RULE_LOOKUP_COST * self.hits

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
        return {
            "digest": self.digest,
            "hits": self.hits,
            "exec_hits": self.exec_hits,
            "guest_covered": self.guest_covered,
            "host_emitted": self.host_emitted,
            "tcg_ops_avoided": self.tcg_ops_avoided,
            "translation_cycles_saved": self.translation_cycles_saved,
            "exec_cycles_saved": self.exec_cycles_saved,
            "host_cycles_observed": self.host_cycles_observed,
            "lookup_cost": self.lookup_cost,
            "cycles_saved": self.cycles_saved,
            "net_cycles": self.net_cycles,
            "profitable": self.profitable,
        }


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
        cover: str = "dp",
    ) -> None:
        if mode not in MODES:
            raise DBTError(f"unknown mode {mode!r}")
        if cover not in COVER_MODES:
            raise DBTError(f"unknown cover mode {cover!r}")
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
        #: Cover policy for rules-mode translation: ``"dp"`` (lowest
        #: modeled-cycle cover) or ``"greedy"`` (paper Section 4).
        self.cover = cover
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
        self._cache: dict[int, TranslatedBlock] = {}
        self._cycles_cache: dict[int, list[float]] = {}
        self._steps_cache: dict[int, list] = {}
        #: Hot blocks fused into one function; an entry lives and dies
        #: with the block's ``_steps_cache`` entry.
        self._fused_cache: dict[int, FusedBlock] = {}
        #: TCG-only reference translations (guard comparisons).
        self._ref_cache: dict[int, tuple] = {}
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
        if self.mode == "rules":
            result = translate_block_with_rules(
                self.program, start_index, self.rule_store,
                gap_sink=self.gap_sink,
                cover=self.cover,
                cost_hint=self._rule_cost_hint,
            )
            tb = TranslatedBlock(guest_addr, result.host_instrs)
            tb.guest_length = len(result.guest_instrs)
            tb.rule_covered = result.rule_covered
            tb.hit_rules = result.hit_rules
            tb.hit_profiles = result.hit_profiles
            for profile in result.hit_profiles:
                self._account_hit(profile)
            tb.translation_cost = (
                perf.TCG_OP_COST * result.tcg_op_count
                + perf.lookup_cost(self.rule_store.matcher)
                * result.lookup_attempts
                + perf.RULE_EMIT_COST
                * sum(len(rule.host) for rule, _ in result.hit_rules)
            )
            miss_reasons = result.miss_reasons
            for view in self._translation_views():
                for rule, length in result.hit_rules:
                    view.hit_rules.add(rule)
                    view.hit_rule_lengths[length] = (
                        view.hit_rule_lengths.get(length, 0) + 1
                    )
                for reason, count in miss_reasons.items():
                    view.rule_miss_reasons[reason] = (
                        view.rule_miss_reasons.get(reason, 0) + count
                    )
        else:
            tcg_block, guest_instrs = translate_block(
                self.program, start_index
            )
            ops = tcg_block.ops
            if self.mode == "llvmjit":
                cost = (perf.LLVMJIT_BLOCK_COST
                        + perf.LLVMJIT_OP_COST * len(ops))
                ops = optimize_tcg(ops)
            else:
                cost = perf.TCG_OP_COST * len(ops)
            assembler = codegen.BlockAssembler()
            for op in ops:
                codegen.lower_tcg_op(assembler, op,
                                     optimized=self.mode == "llvmjit")
            translated = codegen.finalize_block(assembler, guest_addr)
            tb = TranslatedBlock(guest_addr, translated.host_instrs)
            tb.guest_length = len(guest_instrs)
            tb.rule_covered = [False] * len(guest_instrs)
            tb.translation_cost = cost
        self._cache[guest_addr] = tb
        self._cycles_cache[guest_addr] = [
            instruction_cycles(instr) for instr in tb.host_instrs
        ]
        if self.fast:
            from repro.dbt.fastexec import compile_block

            self._steps_cache[guest_addr] = compile_block(tb.host_instrs)
            self._fused_cache.pop(guest_addr, None)
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
            metrics.inc("dbt.rule.hits", len(tb.hit_rules))
            for _, length in tb.hit_rules:
                metrics.observe("dbt.rule.hit_length", length)
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
                hit_lengths=[length for _, length in tb.hit_rules],
                miss_reasons=miss_reasons,
            )
        return tb

    # -- per-rule profitability --------------------------------------------------

    def _rule_profile(self, rule) -> RuleProfile:
        profile = self.rule_profiles.get(rule)
        if profile is None:
            from repro.learning.serialize import rule_digest

            profile = self.rule_profiles[rule] = RuleProfile(
                digest=rule_digest(rule), rule=rule
            )
        return profile

    def _account_hit(self, hit) -> None:
        """Fold one translate-time rule application into its ledger."""
        profile = self._rule_profile(hit.rule)
        profile.hits += 1
        profile.guest_covered += hit.length
        profile.host_emitted += hit.rule_host_len
        profile.tcg_ops_avoided += hit.tcg_ops
        profile.host_cycles_observed += hit.body_cycles
        profile.translation_cycles_saved += (
            perf.TCG_OP_COST * hit.tcg_ops
            - perf.RULE_EMIT_COST * hit.rule_host_len
        )

    def _rule_cost_hint(self, rule) -> float | None:
        """Measured cycles/visit for the DP cover's cost model (None
        until the rule has been instantiated at least once — the
        planner then falls back to the emitter's static template
        cycles)."""
        profile = self.rule_profiles.get(rule)
        if profile is None:
            return None
        return profile.mean_host_cycles

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
        active = self._active
        executed_blocks = 0
        try:
            while guest_pc != HALT_ADDRESS:
                if executed_blocks >= block_limit:
                    raise DBTError("block limit exceeded")
                executed_blocks += 1
                if self.tick is not None:
                    self.tick(self)
                tb = self.translate(guest_pc)
                if (
                    self.guard is not None
                    and tb.hit_rules
                    and self.guard.should_check(tb.exec_count)
                ):
                    tb = self._guard_check(tb, state)
                tb.exec_count += 1
                active.perf.dispatches += 1
                guest_pc = self._run_block(tb, state)
        finally:
            self._finalize_run()
        return_value = self._env_read(state, REG_OFFSET["r0"])
        self._emit_run_records(return_value)
        return DBTRunResult(return_value, self.stats)

    def _run_block(self, tb: TranslatedBlock, state: ConcreteState) -> int:
        if self.fast:
            return self._run_block_fast(tb, state)
        instrs = tb.host_instrs
        cycles = self._cycles_cache[tb.guest_start]
        active = self._active
        index = 0
        count = 0
        cycle_sum = 0.0
        while index < len(instrs):
            instr = instrs[index]
            count += 1
            cycle_sum += cycles[index]
            outcome = execute_x86(instr, state, _ALU)
            branch = outcome.branch
            if branch is None or not branch.cond:
                index += 1
                continue
            active.dynamic_host_instructions += count
            active.perf.exec_cycles += cycle_sum
            tb.exec_cycles += cycle_sum
            target = branch.target
            if isinstance(target, Label):
                name = target.name
                if name == EXIT_LABEL:
                    return self._env_read(state, NEXT_PC_OFFSET)
                if name.startswith("TB@"):
                    return int(name[3:], 16)
            raise DBTError(f"unexpected host branch target {target!r}")
        raise DBTError(
            f"translated block {tb.guest_start:#x} fell off its end"
        )

    def _run_block_fast(self, tb: TranslatedBlock, state: ConcreteState) -> int:
        fused = self._fused_cache.get(tb.guest_start)
        if fused is None and tb.exec_count == HOT_BLOCK_THRESHOLD:
            fused = self._fuse(tb)
        active = self._active
        regs, flags, mem = state.regs, state.flags, state.memory
        if fused is not None:
            run, exit_cycles = fused
            next_pc, exit_index = run(regs, flags, mem)
            if next_pc is None:
                raise DBTError(
                    f"translated block {tb.guest_start:#x} fell off its end"
                )
            active.dynamic_host_instructions += exit_index + 1
            cycle_sum = exit_cycles[exit_index]
            active.perf.exec_cycles += cycle_sum
            tb.exec_cycles += cycle_sum
            return next_pc
        steps = self._steps_cache[tb.guest_start]
        cycles = self._cycles_cache[tb.guest_start]
        index = 0
        count = 0
        cycle_sum = 0.0
        n = len(steps)
        while index < n:
            count += 1
            cycle_sum += cycles[index]
            target = steps[index](regs, flags, mem)
            if target is None:
                index += 1
                continue
            active.dynamic_host_instructions += count
            active.perf.exec_cycles += cycle_sum
            tb.exec_cycles += cycle_sum
            if target == EXIT_LABEL:
                return self._env_read(state, NEXT_PC_OFFSET)
            if target.startswith("TB@"):
                return int(target[3:], 16)
            raise DBTError(f"unexpected host branch target {target!r}")
        raise DBTError(
            f"translated block {tb.guest_start:#x} fell off its end"
        )

    def _fuse(self, tb: TranslatedBlock) -> FusedBlock | None:
        """Promote a hot block to the fused tier (None if it cannot be
        fused; it then stays on its closures)."""
        addr = tb.guest_start
        try:
            fused = fuse_block(tb.host_instrs, self._steps_cache[addr],
                               self._cycles_cache[addr])
        except FastExecError:
            return None
        self._fused_cache[addr] = fused
        return fused

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
        while tb.hit_rules:
            self.guard_stats.checks += 1
            metrics.inc("dbt.guard.checks")
            trial = copy_state(state)
            reference = copy_state(state)
            trial_pc = self._exec_block_raw(
                tb.host_instrs,
                self._steps_cache.get(tb.guest_start) if self.fast else None,
                trial,
            )
            ref_instrs, ref_steps = self._reference_block(tb.guest_start)
            ref_pc = self._exec_block_raw(ref_instrs, ref_steps, reference)
            if trial_pc == ref_pc and states_agree(trial, reference):
                return tb
            suspects = {
                rule for rule, _ in tb.hit_rules
                if rule not in self.quarantined_rules
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

    def _exec_block_raw(self, instrs, steps, state: ConcreteState) -> int:
        """Execute one translated block on ``state`` with no stats
        side effects; return the next guest pc."""
        if steps is not None:
            regs, flags, mem = state.regs, state.flags, state.memory
            index = 0
            n = len(steps)
            while index < n:
                target = steps[index](regs, flags, mem)
                if target is None:
                    index += 1
                    continue
                if target == EXIT_LABEL:
                    return self._env_read(state, NEXT_PC_OFFSET)
                if target.startswith("TB@"):
                    return int(target[3:], 16)
                raise DBTError(
                    f"unexpected host branch target {target!r}"
                )
        else:
            index = 0
            while index < len(instrs):
                outcome = execute_x86(instrs[index], state, _ALU)
                branch = outcome.branch
                if branch is None or not branch.cond:
                    index += 1
                    continue
                target = branch.target
                if isinstance(target, Label):
                    name = target.name
                    if name == EXIT_LABEL:
                        return self._env_read(state, NEXT_PC_OFFSET)
                    if name.startswith("TB@"):
                        return int(name[3:], 16)
                raise DBTError(
                    f"unexpected host branch target {target!r}"
                )
        raise DBTError("guard trial block fell off its end")

    def _reference_block(self, guest_addr: int) -> tuple:
        """A pure-TCG translation of the guest block at ``guest_addr``
        (the guard's ground truth), cached separately from the main
        translation cache and charged to no stats view."""
        cached = self._ref_cache.get(guest_addr)
        if cached is not None:
            return cached
        start_index = self.program.index_of_addr(guest_addr)
        tcg_block, _ = translate_block(self.program, start_index)
        assembler = codegen.BlockAssembler()
        for op in tcg_block.ops:
            codegen.lower_tcg_op(assembler, op)
        translated = codegen.finalize_block(assembler, guest_addr)
        steps = None
        if self.fast:
            from repro.dbt.fastexec import compile_block

            steps = compile_block(translated.host_instrs)
        reference = (translated.host_instrs, steps)
        self._ref_cache[guest_addr] = reference
        return reference

    def _retire_blocks(self, doomed: list[int]) -> int:
        """Drop cached blocks by guest address (shared by the guard's
        quarantine path and hot-install).

        Blocks that already executed this run are retired, not
        forgotten: their dynamic counters still belong to the run."""
        for addr in doomed:
            tb = self._cache.pop(addr)
            self._cycles_cache.pop(addr, None)
            self._steps_cache.pop(addr, None)
            self._fused_cache.pop(addr, None)
            if tb.exec_count:
                self._retired_blocks.append(tb)
        return len(doomed)

    def _invalidate_rule_blocks(self, rules: set) -> int:
        """Drop every cached block translated with any of ``rules``."""
        doomed = [
            addr for addr, tb in self._cache.items()
            if any(rule in rules for rule, _ in tb.hit_rules)
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
        from repro.dbt.frontend import discover_block

        block = discover_block(
            self.program, self.program.index_of_addr(guest_addr)
        )
        mnemonics = tuple(instr.mnemonic for instr in block)
        for window in windows:
            span = len(window)
            if span > len(mnemonics):
                continue
            for start in range(len(mnemonics) - span + 1):
                if mnemonics[start : start + span] == window:
                    return True
        return False

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
                    profile = self._rule_profile(hit.rule)
                    profile.exec_hits += tb.exec_count
                    profile.exec_cycles_saved += (
                        (hit.tcg_host_cycles - hit.host_cycles)
                        * tb.exec_count
                    )
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


def run_dbt(
    program: CompiledProgram,
    mode: str = "qemu",
    rule_store: RuleStore | None = None,
    args: tuple[int, ...] = (),
    guard: GuardPolicy | None = None,
) -> DBTRunResult:
    """Convenience wrapper: build an engine and run to completion."""
    return DBTEngine(program, mode, rule_store, guard=guard).run(args)
