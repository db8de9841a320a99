"""Shared experiment infrastructure: build/learn/run caching.

The evaluation protocol mirrors the paper's Section 6: rules applied to
benchmark *B* are those learned from the other eleven benchmarks
(leave-one-out), learning uses LLVM-style ``-O2`` builds, and guest
binaries come from either compiler style (Figure 8 vs Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.benchsuite import BENCHMARK_NAMES, build_benchmark
from repro.benchsuite import build_learning_pair
from repro.dbt.engine import DBTEngine, DBTRunResult
from repro.dbt.guard import GuardPolicy
from repro.dbt.perf import speedup
from repro.learning.cache import VerificationCache
from repro.learning.pipeline import (
    LearningOutcome,
    LearningReport,
    learn_corpus,
    learn_rules,
    leave_one_out,
)
from repro.learning.store import RuleStore
from repro.minic.compile import CompiledProgram

LEARN_OPT_LEVEL = 2
LEARN_STYLE = "llvm"


@dataclass
class ExperimentContext:
    """Caches everything the figure modules need.

    One context per process is enough; creating a fresh one simply
    recomputes from scratch (useful for isolation in tests).

    ``jobs`` > 1 fans corpus learning out over a process pool;
    ``cache`` (a :class:`VerificationCache`) lets repeated experiment
    runs skip already-settled verifications.  Both only affect
    wall-clock — learned rules and reports are deterministic.
    """

    benchmarks: tuple[str, ...] = BENCHMARK_NAMES
    jobs: int = 1
    cache: VerificationCache | None = None
    #: Differential execution guard for rules-mode runs (None = off).
    guard: GuardPolicy | None = None
    #: Pre-learned rules (``repro-experiments --rules``).  When set,
    #: rule stores come from here instead of inline learning; the
    #: leave-one-out protocol still applies via each rule's ``origin``.
    preloaded_rules: list | None = None
    _builds: dict = field(default_factory=dict)
    _learning: dict = field(default_factory=dict)
    _runs: dict = field(default_factory=dict)
    _stores: dict = field(default_factory=dict)

    # -- builds -------------------------------------------------------------

    def build(self, name: str, target: str, opt_level: int = LEARN_OPT_LEVEL,
              style: str = LEARN_STYLE, workload: str = "ref"
              ) -> CompiledProgram:
        key = (name, target, opt_level, style, workload)
        if key not in self._builds:
            self._builds[key] = build_benchmark(name, target, opt_level,
                                                style, workload)
        return self._builds[key]

    def build_pair(self, name: str, opt_level: int = LEARN_OPT_LEVEL,
                   style: str = LEARN_STYLE
                   ) -> tuple[CompiledProgram, CompiledProgram]:
        """(ARM guest, x86 host) from one front-end run, cached with
        the builds :meth:`run` reuses."""
        keys = [(name, t, opt_level, style, "ref") for t in ("arm", "x86")]
        if not all(key in self._builds for key in keys):
            pair = build_learning_pair(name, opt_level, style)
            for key, program in zip(keys, pair):
                self._builds.setdefault(key, program)
        return tuple(self._builds[key] for key in keys)

    # -- learning --------------------------------------------------------------

    def learning_outcome(self, name: str, opt_level: int = LEARN_OPT_LEVEL,
                         style: str = LEARN_STYLE) -> LearningOutcome:
        """Rules + Table 1 statistics for one benchmark."""
        key = (name, opt_level, style)
        outcome = self._learning.get(key)
        if outcome is None:
            guest, host = self.build_pair(name, opt_level, style)
            outcome = learn_rules(guest, host, benchmark=name,
                                  cache=self.cache)
            if self.cache is not None:
                self.cache.save()
            self._learning[key] = outcome
        return outcome

    def all_learning(self, opt_level: int = LEARN_OPT_LEVEL,
                     style: str = LEARN_STYLE) -> dict[str, LearningOutcome]:
        """Learning outcomes for the whole corpus (one shared dedup
        memo, parallel when ``jobs`` > 1)."""
        missing = [
            name for name in self.benchmarks
            if (name, opt_level, style) not in self._learning
        ]
        if missing:
            builds = {
                name: self.build_pair(name, opt_level, style)
                for name in missing
            }
            outcomes = learn_corpus(builds, cache=self.cache,
                                    jobs=self.jobs)
            for name, outcome in outcomes.items():
                self._learning[(name, opt_level, style)] = outcome
        return {
            name: self._learning[(name, opt_level, style)]
            for name in self.benchmarks
        }

    def learning_reports(self) -> list[LearningReport]:
        """The report of every learning run this context holds."""
        return [outcome.report for outcome in self._learning.values()]

    def rule_store_excluding(self, excluded: str) -> RuleStore:
        """Leave-one-out store, the paper's evaluation protocol.

        With preloaded rules, leave-one-out filters on the ``origin``
        each rule was serialized with — no learning runs at all.
        """
        store = self._stores.get(excluded)
        if store is None:
            if self.preloaded_rules is not None:
                store = RuleStore.from_rules([
                    rule for rule in self.preloaded_rules
                    if rule.origin != excluded
                ])
            else:
                outcomes = self.all_learning()
                store = RuleStore.from_rules(
                    leave_one_out(outcomes, excluded)
                )
            self._stores[excluded] = store
        return store

    # -- DBT runs ----------------------------------------------------------------

    def run(self, name: str, mode: str, workload: str,
            guest_style: str = LEARN_STYLE) -> DBTRunResult:
        """One emulation of a benchmark under one backend."""
        key = (name, mode, workload, guest_style)
        result = self._runs.get(key)
        if result is None:
            guest = self.build(name, "arm", LEARN_OPT_LEVEL, guest_style,
                               workload)
            store = (
                self.rule_store_excluding(name) if mode == "rules" else None
            )
            guard = self.guard if mode == "rules" else None
            engine = DBTEngine(guest, mode, store, guard=guard)
            result = engine.run()
            expected = self.run(name, "qemu", workload, guest_style) \
                if mode != "qemu" else None
            if expected is not None and \
                    expected.return_value != result.return_value:
                raise AssertionError(
                    f"{name}/{workload}: {mode} returned "
                    f"{result.return_value}, qemu {expected.return_value}"
                )
            self._runs[key] = result
        return result

    def speedup_over_qemu(self, name: str, mode: str, workload: str,
                          guest_style: str = LEARN_STYLE) -> float:
        baseline = self.run(name, "qemu", workload, guest_style)
        candidate = self.run(name, mode, workload, guest_style)
        return speedup(baseline.stats.perf, candidate.stats.perf)


_SHARED: ExperimentContext | None = None


def shared_context() -> ExperimentContext:
    """The process-wide cache used by the figure modules and benches."""
    global _SHARED
    if _SHARED is None:
        _SHARED = ExperimentContext()
    return _SHARED


def geometric_mean(values: list[float]) -> float:
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def render_table(headers: list[str], rows: list[list[str]],
                 title: str = "") -> str:
    """Plain-text table renderer used by every experiment."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
