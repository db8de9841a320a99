#!/usr/bin/env python
"""Chaos gate: end-to-end fault-tolerance check for CI.

Runs the learning pipeline twice over a small corpus — once clean and
sequential, once parallel under an injected fault plan (a worker
crash, a worker hang, and a torn cache write) — and asserts the
chaotic run converges to exactly the clean rule set, with the injected
faults surfacing only as EC/TO reclassifications of already-failing
candidates.  Then corrupts one learned rule's host template and checks
the differential guard quarantines it and restores the baseline
result.

Exit status 0 means the gate passed.  Run from the repo root:

    PYTHONPATH=src python scripts/chaos_gate.py

Set ``REPRO_GATE_ARTIFACT_DIR`` to write a full trace of the gate's
learning runs (``chaos.jsonl``) there for CI artifact upload on
failure; tracing is off by default.
"""

import contextlib
import os
import tempfile
from functools import partial
from pathlib import Path

import gate_harness

from repro.obs.trace import tracing

from repro.benchsuite import BENCHMARK_NAMES, build_learning_pair
from repro.dbt.engine import DBTEngine
from repro.dbt.guard import GuardPolicy
from repro.faults.deadline import DeadlineBudget
from repro.faults.plan import FaultPlan, corrupt_rule, fault_plan_scope
from repro.learning import parallel
from repro.learning.cache import VerificationCache
from repro.learning.journal import OutcomeJournal
from repro.learning.pipeline import learn_corpus
from repro.learning.store import RuleStore

GATE_BENCHMARKS = BENCHMARK_NAMES[:3]

fail = partial(gate_harness.fail, "chaos_gate")


def rule_strings(outcomes):
    return {
        name: [str(rule) for rule in outcome.rules]
        for name, outcome in outcomes.items()
    }


def failing_digests(cache: VerificationCache, count: int) -> list[str]:
    """Digests of candidates that yielded no rule in the clean run —
    injecting faults into these must not change the learned rule set."""
    chosen = []
    for digest in cache.digests():
        outcome = cache.peek(digest)
        if outcome is not None and outcome.rule is None:
            chosen.append(digest)
            if len(chosen) == count:
                return chosen
    fail(f"corpus has only {len(chosen)} failing candidates, need {count}")


def check_learning_chaos(builds, clean, clean_cache, workdir: Path) -> None:
    victims = failing_digests(clean_cache, 2)
    plan = FaultPlan(
        crash_digests=frozenset(victims[:1]),
        hang_digests=frozenset(victims[1:2]),
        corrupt_cache_on_save=1,
    )
    chaos_cache = VerificationCache.at_dir(workdir)
    journal = OutcomeJournal.at_dir(workdir)
    # Small chunks force multi-chunk scheduling on the small corpus.
    parallel.CHUNK_SIZE = 4
    parallel.BACKOFF_SECONDS = 0.0
    with fault_plan_scope(plan):
        chaotic = learn_corpus(
            builds, cache=chaos_cache,
            budget=DeadlineBudget(max_steps=100_000),
            journal=journal, jobs=2,
        )
    journal.close()

    if rule_strings(chaotic) != rule_strings(clean):
        fail("chaotic run learned a different rule set than the clean run")
    ec = sum(o.report.verify_ec for o in chaotic.values())
    to = sum(o.report.verify_to for o in chaotic.values())
    if ec < 1:
        fail(f"expected >= 1 EC outcome from the injected crash, got {ec}")
    if to < 1:
        fail(f"expected >= 1 TO outcome from the injected hang, got {to}")

    # The injected torn write corrupted the persisted cache; reloading
    # must quarantine it aside and start empty rather than crash.
    reloaded = VerificationCache.at_dir(workdir)
    if reloaded.stats.corrupt != 1:
        fail("torn cache write was not quarantined on reload")
    print(f"chaos_gate: learning OK ({ec} EC, {to} TO, "
          f"rules identical, torn cache quarantined)")


def check_guard_self_healing(builds) -> None:
    name = GATE_BENCHMARKS[0]
    guest, host = builds[name]
    from repro.learning import learn_rules
    rules = learn_rules(guest, host, benchmark=name).rules
    bad = None
    corrupted = list(rules)
    for index, rule in enumerate(rules):
        try:
            bad = corrupt_rule(rule)
        except ValueError:
            continue
        corrupted[index] = bad
        break
    if bad is None:
        fail("no corruptible rule learned for the guard check")

    baseline = DBTEngine(guest, "qemu").run().return_value
    # check_interval=1 re-checks every dispatch: an injected corruption
    # can be data-dependent (e.g. sub vs add agree while an operand is
    # zero), so first-dispatch sampling alone may miss it.
    engine = DBTEngine(guest, "rules", RuleStore.from_rules(corrupted),
                       guard=GuardPolicy(check_interval=1))
    result = engine.run()
    if result.return_value != baseline:
        fail(f"guarded run returned {result.return_value}, "
             f"baseline is {baseline}")
    unguarded = DBTEngine(guest, "rules",
                          RuleStore.from_rules(corrupted)).run()
    if unguarded.return_value != baseline \
            and engine.guard_stats.divergences < 1:
        fail("corruption was live but the guard saw no divergence")
    print(f"chaos_gate: guard OK (checks={engine.guard_stats.checks}, "
          f"divergences={engine.guard_stats.divergences}, "
          f"quarantined={len(engine.quarantined_rules)})")


def main() -> None:
    artifact_dir = os.environ.get("REPRO_GATE_ARTIFACT_DIR")
    if artifact_dir:
        Path(artifact_dir).mkdir(parents=True, exist_ok=True)
        trace_scope = tracing(Path(artifact_dir) / "chaos.jsonl")
    else:
        trace_scope = contextlib.nullcontext()
    with trace_scope:
        builds = {
            name: build_learning_pair(name) for name in GATE_BENCHMARKS
        }
        clean_cache = VerificationCache()
        clean = learn_corpus(builds, cache=clean_cache)
        with tempfile.TemporaryDirectory() as tmp:
            check_learning_chaos(builds, clean, clean_cache, Path(tmp))
        check_guard_self_healing(builds)
    print("chaos_gate: PASS")


if __name__ == "__main__":
    main()
