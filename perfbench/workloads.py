"""The benchmark's four workloads.

Each workload is a closed loop driven from one process and one thread
(``jobs=1``, no process pool, no socket): the next emulation, learning
pass or service request is issued only after the previous one has
completed.  A workload has

* ``setup()``   — the set-up users pay before the loop (learning the
  rule corpus, building the service); repeated and reported as
  ``setup_s``;
* ``prepare()`` — one-off benchmark apparatus that is not the system's
  set-up (the interpreter oracle, warming engines), timed separately;
* ``run_pass()`` — one pass of the closed loop, returning a
  :class:`PassResult`.

Every emulation's return value is checked against the MiniC
interpreter (``repro.minic.interp.run_tac``), never against another
DBT mode.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from random import Random

from hostclock import CLOCK, Timing
from repro.benchsuite import BENCHMARK_NAMES, benchmark_source
from repro.corpus.generate import generate_program
from repro.corpus.grammar import REGIONS
from repro.dbt.engine import DBTEngine
from repro.experiments.common import ExperimentContext
from repro.learning.cache import VerificationCache
from repro.learning.pipeline import learn_corpus
from repro.learning.serialize import rule_digest
from repro.learning.store import RuleStore
from repro.minic import compile as minic_compile
from repro.minic.interp import run_tac
from repro.minic.lower import lower_program
from repro.minic.parser import parse
from repro.service.gaps import GapRecorder
from repro.service.repo import verify_bundle
from repro.service.server import build_service

OPT_LEVEL = 2
STYLES = ("llvm", "gcc")
MODES = ("rules", "qemu")
#: ``learn-corpus`` draws PROGRAMS_PER_REGION of the POOL_PER_REGION
#: programs ``generate_program`` makes for each grammar region from
#: POOL_SEED; the workload seed picks which.  A fixed pool keeps a run's
#: cost nearly independent of the seed: some generation seeds yield a
#: program with one candidate that takes the verifier over a second
#: (a scaled-index memory access), which would make runs bimodal.
#: POOL_SEED's 44 programs learn in about 0.1 s each at most.
POOL_SEED = 2
POOL_PER_REGION = 4
PROGRAMS_PER_REGION = 3
#: ``dbt-ref-warm``'s programs: the six whose warm ref runs are
#: shortest (about 9 s for both modes on a 2-core x86 VM).  All twelve
#: take about 25 s a pass, and every run also needs an untimed warm-up
#: pass and two timed passes, which would not fit the benchmark's time
#: budget on a host in a slow phase.
REF_WARM_PROGRAMS = ("perlbench", "bzip2", "mcf", "hmmer", "sjeng",
                     "h264ref")
#: Dispatches between two client ticks (``RuleServiceClient.attach``'s
#: default).
TICK_EVERY = 256


def compile_program(source: str, target: str = "arm",
                    style: str = "llvm"):
    # Through the module attribute, so a traced pass sees the call.
    return minic_compile.compile_source(source, target, OPT_LEVEL, style)


@dataclass
class PassResult:
    """Everything one pass measured."""

    #: Timed operation label -> (metric group, seconds, wall seconds),
    #: seconds being host-speed normalised (``hostclock``).  A run
    #: reports each group as the sum over its operations of the
    #: per-operation median time across passes, so a noisy moment skews
    #: one sample of one operation instead of a whole total.
    ops: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    #: Exact counts: repeat identically for one seed.
    exact: dict = field(default_factory=dict)
    #: Translation counters of this pass (cold-translation self-test).
    translation: dict = field(default_factory=dict)
    #: Modeled cycles of every emulation: translation and total.
    model_translation: float = 0.0
    model_total: float = 0.0
    tick_ms: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def time(self, group: str, label: str, timing: Timing) -> None:
        self.ops[label] = (group, timing.seconds, timing.wall)

    def total(self, group: str) -> float:
        return sum(s for g, s, _ in self.ops.values() if g == group)

    def wall(self, group: str) -> float:
        return sum(w for g, _, w in self.ops.values() if g == group)


class _Emulations:
    """Accumulates DBT runs into one pass's exact and modeled counters."""

    def __init__(self, result: PassResult) -> None:
        self.result = result
        self.counts = {
            "rules_mcycles": 0.0, "dyn_guest": 0, "dyn_rule": 0,
            "static_guest": 0, "static_rule": 0,
            "dispatches": 0, "host_instrs": 0,
        }
        self.translation = {mode: [0, 0.0, 0] for mode in MODES}

    def add(self, engine: DBTEngine) -> None:
        run, lifetime = engine.last_run, engine.lifetime
        total = run.perf.total_cycles
        self.result.model_translation += run.perf.translation_cycles
        self.result.model_total += total
        self.counts["dispatches"] += run.perf.dispatches
        self.counts["host_instrs"] += run.dynamic_host_instructions
        counters = self.translation[engine.mode]
        counters[0] += run.translated_blocks
        counters[1] += run.perf.translation_cycles
        counters[2] += run.static_guest_instructions
        if engine.mode != "rules":
            return
        self.counts["rules_mcycles"] += total / 1e6
        self.counts["dyn_guest"] += run.dynamic_guest_instructions
        self.counts["dyn_rule"] += run.dynamic_rule_guest_instructions
        self.counts["static_guest"] += lifetime.static_guest_instructions
        self.counts["static_rule"] += lifetime.static_rule_guest_instructions

    def finish(self) -> None:
        c = self.counts
        exact = self.result.exact
        exact["model_mcycles"] = round(c["rules_mcycles"], 6)
        exact["dynamic_coverage"] = (
            c["dyn_rule"] / c["dyn_guest"] if c["dyn_guest"] else 0.0)
        exact["static_coverage"] = (
            c["static_rule"] / c["static_guest"] if c["static_guest"] else 0.0)
        exact["dispatches"] = c["dispatches"]
        exact["host_instrs"] = c["host_instrs"]
        self.result.translation = {
            mode: {"blocks": v[0], "cycles": v[1], "guest_instrs": v[2]}
            for mode, v in self.translation.items()
        }


def _emulate(engine: DBTEngine, expected: int, label: str,
             result: PassResult) -> Timing:
    """One timed emulation checked against the oracle."""
    result.attempted += 1
    value = error = None
    with CLOCK.measure() as timing:
        try:
            value = engine.run().return_value
        except Exception as exc:  # a failed run is counted, not fatal
            error = exc
    if error is not None:
        result.fail(f"{label}: {type(error).__name__}: {error}")
    elif value != expected & 0xFFFFFFFF:
        result.fail(f"{label}: returned {value}, oracle {expected}")
    return timing


class Workload:
    name = ""
    #: The op groups reported as ``rules_run_s`` and ``baseline_run_s``.
    rules_group = "rules_run_s"
    baseline_group = "qemu_run_s"
    #: True when a pass consumes the set-up state (a fresh one per pass).
    setup_per_pass = False

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.rules_learned = 0

    def provenance(self) -> dict:
        return {}

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def run_pass(self) -> PassResult:
        raise NotImplementedError


class _DbtWorkload(Workload):
    def provenance(self) -> dict:
        return {"emitter_memo": "dbt.emitter._EMITTERS is warmed in set-up "
                                "by rule-store construction, as users pay"}

    def setup(self) -> None:
        # The paper's protocol: rules for benchmark B are learned from
        # the other eleven (leave-one-out) from -O2 llvm-style builds.
        # Building each store also compiles every rule's emitter into
        # the process-global memo dbt.emitter._EMITTERS.
        context = ExperimentContext()
        self.stores = {
            name: context.rule_store_excluding(name)
            for name in BENCHMARK_NAMES
        }
        self.rules_learned = sum(
            len(outcome.rules) for outcome in context.all_learning().values()
        )


class DbtTestCold(_DbtWorkload):
    name = "dbt-test-cold"

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self.ops = [
            (name, style, mode)
            for name in BENCHMARK_NAMES for style in STYLES for mode in MODES
        ]
        Random(seed).shuffle(self.ops)

    def provenance(self) -> dict:
        return {**super().provenance(), "inputs": "test",
                "programs": [f"{n}/{s}/{m}" for n, s, m in self.ops]}

    def prepare(self) -> None:
        self.expected = {
            (name, style): run_tac(compile_program(
                benchmark_source(name, "test"), "arm", style).tac)
            for name in BENCHMARK_NAMES for style in STYLES
        }

    def run_pass(self) -> PassResult:
        result = PassResult()
        emulations = _Emulations(result)
        for name, style, mode in self.ops:
            # A freshly compiled program per run, outside the timed
            # region: the TCG-counterfactual memo lives on the program
            # object, so a reused one would translate warm.
            program = compile_program(benchmark_source(name, "test"),
                                      "arm", style)
            store = self.stores[name] if mode == "rules" else None
            engine = DBTEngine(program, mode, store)
            label = f"{name}/{style}/{mode}"
            result.time(f"{mode}_run_s", label, _emulate(
                engine, self.expected[(name, style)], label, result))
            emulations.add(engine)
        emulations.finish()
        return result


class DbtRefWarm(_DbtWorkload):
    name = "dbt-ref-warm"

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self.ops = [(name, mode) for name in REF_WARM_PROGRAMS
                    for mode in MODES]
        Random(seed).shuffle(self.ops)

    def provenance(self) -> dict:
        return {**super().provenance(), "inputs": "ref",
                "programs": [f"{n}/llvm/{m}" for n, m in self.ops]}

    def prepare(self) -> None:
        """Oracle values, then one untimed warm-up run per engine."""
        programs = {
            name: compile_program(benchmark_source(name, "ref"))
            for name in REF_WARM_PROGRAMS
        }
        self.expected = {name: run_tac(programs[name].tac)
                         for name in REF_WARM_PROGRAMS}
        self.engines = {}
        warmup = PassResult()
        for name, mode in self.ops:
            store = self.stores[name] if mode == "rules" else None
            engine = DBTEngine(programs[name], mode, store)
            _emulate(engine, self.expected[name], f"warm-up {name}/{mode}",
                     warmup)
            self.engines[(name, mode)] = engine
        if warmup.failed:
            raise RuntimeError(f"warm-up failed: {warmup.failures}")

    def run_pass(self) -> PassResult:
        result = PassResult()
        emulations = _Emulations(result)
        for name, mode in self.ops:
            engine = self.engines[(name, mode)]
            label = f"{name}/{mode}"
            result.time(f"{mode}_run_s", label, _emulate(
                engine, self.expected[name], label, result))
            if engine.last_run.translated_blocks:
                result.fail(f"{name}/{mode}: translated "
                            f"{engine.last_run.translated_blocks} blocks "
                            "on a warm cache")
            emulations.add(engine)
        emulations.finish()
        return result


class LearnCorpus(Workload):
    name = "learn-corpus"
    rules_group = "learn_cold_s"
    baseline_group = "learn_warm_s"

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self.sources: dict[str, str] = {}

    def provenance(self) -> dict:
        return {"programs": [
            f"{name}:{hashlib.sha256(source.encode()).hexdigest()[:12]}"
            for name, source in self.sources.items()
        ], "styles": list(STYLES)}

    def setup(self) -> None:
        """Generate the seeded corpus and parse every program once."""
        sources = {
            name: benchmark_source(name, "ref") for name in BENCHMARK_NAMES
        }
        rng = Random(self.seed)
        for region, config in REGIONS.items():
            picked = sorted(rng.sample(range(POOL_PER_REGION),
                                       PROGRAMS_PER_REGION))
            for index in picked:
                sources[f"{region}-{index}"] = generate_program(
                    config, POOL_SEED, region, index)
        for source in sources.values():
            lower_program(parse(source))
        self.sources = sources

    def _learn(self, phase: str, cache_dir: str, result: PassResult):
        """One learning pass: compile every source in both styles for
        both targets, then ``learn_corpus`` against the cache."""
        group = f"learn_{phase}_s"
        builds = {}
        for name, source in self.sources.items():
            for style in STYLES:
                key = f"{name}/{style}"
                with CLOCK.measure() as timing:
                    try:
                        builds[key] = (compile_program(source, "arm", style),
                                       compile_program(source, "x86", style))
                    except Exception as exc:  # counted, not fatal
                        result.attempted += 1
                        result.fail(f"{key}: {type(exc).__name__}: {exc}")
                result.time(group, f"{phase} compile {key}", timing)
        with CLOCK.measure() as timing:
            outcomes = learn_corpus(builds,
                                    cache=VerificationCache.at_dir(cache_dir))
        result.time(group, f"{phase} learn", timing)
        return outcomes

    def run_pass(self) -> PassResult:
        result = PassResult()
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        try:
            cold = self._learn("cold", cache_dir, result)
            warm = self._learn("warm", cache_dir, result)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        for key, outcome in cold.items():
            result.attempted += 2
            cold_rules = [rule_digest(rule) for rule in outcome.rules]
            warm_rules = [rule_digest(rule) for rule in warm[key].rules]
            if cold_rules != warm_rules:
                result.fail(f"{key}: warm pass learned {len(warm_rules)} "
                            f"rules, cold pass {len(cold_rules)}")
        reports = [outcome.report for outcome in cold.values()]
        self.rules_learned = sum(len(o.rules) for o in cold.values())
        result.exact = {
            "rules_learned": self.rules_learned,
            "solver_calls_cold": sum(r.verify_calls for r in reports),
            "solver_calls_warm": sum(
                o.report.verify_calls for o in warm.values()),
            "dedup_saved": sum(r.dedup_saved_calls for r in reports),
            "pairs": sum(r.total_sequences for r in reports),
        }
        return result


class OnlineHotInstall(Workload):
    name = "online-hotinstall"
    baseline_group = "second_run_s"
    setup_per_pass = True

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self.order = list(BENCHMARK_NAMES)
        Random(seed).shuffle(self.order)
        self.service = None

    def provenance(self) -> dict:
        return {"programs": [f"{n}/llvm/rules" for n in self.order],
                "inputs": "test", "tick_every_dispatches": TICK_EVERY}

    def setup(self) -> None:
        """A fresh in-process service with its learning corpus staged
        (staging is otherwise paid lazily by the first learning round)."""
        repo_dir = tempfile.mkdtemp(prefix="repo-", dir=self.scratch)
        self.service = build_service(repo_dir, corpus=BENCHMARK_NAMES)
        self.service.learner.staged_candidates()

    def prepare(self) -> None:
        self.expected = {
            name: run_tac(compile_program(
                benchmark_source(name, "test")).tac)
            for name in self.order
        }

    def _tick(self, engine, recorder, state, result: PassResult) -> None:
        """The steps of ``RuleServiceClient.sync``, in process."""
        service = self.service
        start = time.perf_counter()
        result.attempted += 1
        try:
            report = recorder.drain()
            if report:
                _ok(service.handle({"op": "report_gaps", "gaps": report}))
                _ok(service.handle({"op": "flush"}))
            delta = _ok(service.handle({"op": "delta",
                                        "since": state["generation"]}))
            for entry in delta["entries"]:
                digest = entry["digest"]
                if digest in state["installed"]:
                    continue
                bundle = _ok(service.handle({"op": "bundle",
                                             "digest": digest}))
                rules = verify_bundle(bundle["bundle"], digest)
                installed, invalidated = engine.hot_install(
                    rules, source="sync", digest=digest)
                state["installed"].add(digest)
                state["rules"] += installed
                state["invalidated"] += invalidated
            state["generation"] = delta["generation"]
        except Exception as exc:  # a failed tick is counted, not fatal
            result.fail(f"tick: {type(exc).__name__}: {exc}")
            return
        if report:
            # Install latency: gap report through hot-install.  Ticks
            # with nothing to report only poll the delta.
            result.tick_ms.append((time.perf_counter() - start) * 1000.0)

    def _published_rules(self) -> list:
        service = self.service
        delta = _ok(service.handle({"op": "delta", "since": 0}))
        rules = []
        for entry in delta["entries"]:
            bundle = _ok(service.handle({"op": "bundle",
                                         "digest": entry["digest"]}))
            rules.extend(verify_bundle(bundle["bundle"], entry["digest"]))
        return rules

    def run_pass(self) -> PassResult:
        result = PassResult()
        programs = {name: compile_program(benchmark_source(name, "test"))
                    for name in self.order}
        installed_rules = invalidated = 0
        for name in self.order:
            recorder = GapRecorder()
            engine = DBTEngine(programs[name], "rules", RuleStore(),
                               gap_sink=recorder)
            state = {"generation": 0, "installed": set(), "dispatches": 0,
                     "rules": 0, "invalidated": 0}

            def tick(eng, recorder=recorder, state=state):
                state["dispatches"] += 1
                if state["dispatches"] % TICK_EVERY == 0:
                    self._tick(eng, recorder, state, result)

            engine.tick = tick
            label = f"{name} (online)"
            result.time("rules_run_s", label, _emulate(
                engine, self.expected[name], label, result))
            installed_rules += state["rules"]
            invalidated += state["invalidated"]
        published = self._published_rules()
        self.service = None
        # The second run: the coverage the loop reached, as a client
        # starting afresh sees it, with every rule the service published
        # preinstalled.  Unlike the rules each engine ended the loop
        # with, the published set barely depends on the program order.
        emulations = _Emulations(result)
        for name in self.order:
            engine = DBTEngine(compile_program(benchmark_source(name, "test")),
                               "rules", RuleStore.from_rules(published))
            label = f"{name} (second run)"
            result.time("second_run_s", label, _emulate(
                engine, self.expected[name], label, result))
            emulations.add(engine)
        emulations.finish()
        self.rules_learned = len(published)
        result.exact.update({
            "rules_published": len(published),
            "rules_installed": installed_rules,
            "blocks_invalidated": invalidated,
            "ticks": len(result.tick_ms),
        })
        return result


def _ok(response: dict) -> dict:
    if not response.get("ok"):
        raise RuntimeError(response.get("error", "request failed"))
    return response


WORKLOADS = {
    cls.name: cls
    for cls in (DbtTestCold, DbtRefWarm, LearnCorpus, OnlineHotInstall)
}
