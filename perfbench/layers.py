"""Outside-in per-layer tracing for the benchmark.

Each layer is timed from outside: for the duration of one traced pass,
the public functions that enter a layer are replaced (at every module
attribute through which the system calls them) by a wrapper that
records a span, and the originals are restored afterwards.  Nothing
under ``src/`` is edited.

A span is ``(name, start, end, parent)``.  Spans are kept in memory in
compact arrays and written out once, when the pass ends.  A layer's
self time is the summed duration of its spans minus the time their
direct child spans cover; the pass itself is the root span, so its
self time is the ``other`` remainder and all self times sum exactly to
the traced wall time.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import defaultdict

def _peephole(counters, args, result):
    counters["dbt.codegen.peephole.instrs_removed"] += (
        len(args[0]) - len(result)
    )


def _dbt_regalloc(counters, args, result):
    counters["dbt.codegen.regalloc.host_instrs"] += len(args[0].instrs)


def _store_match(counters, args, result):
    counters["learning.store.match.hits"] += bool(result)


def _extract(counters, args, result):
    counters["learning.extract.pairs"] += len(result.pairs)


def _mappings(counters, args, result):
    counters["learning.paramize.candidates"] += result[1] is None


def _resolve_candidate(counters, args, result):
    counters["learning.verify.resolved"] += 1
    counters["learning.verify.rules"] += result.rule is not None


def _cache_get(counters, args, result):
    counters["learning.cache.get.hits"] += result is not None


def _gap_capture(counters, args, result):
    counters["service.gaps.captured"] += 1


def _gap_absorb(counters, args, result):
    counters["service.gaps.new"] += result


def _learner_match(counters, args, result):
    counters["service.learner.verify.matched_candidates"] += len(result)


def _hot_install(counters, args, result):
    installed, invalidated = result
    counters["dbt.engine.hot_install.rules_installed"] += installed
    counters["dbt.engine.hot_install.blocks_invalidated"] += invalidated


#: (layer, "module:attribute" or "module:Class.attribute", counter hook).
#: A hook is called as ``hook(counters, args, result)`` after each call.
#: Several targets feed one layer where the system binds a function by
#: name in more than one module.
TARGETS = (
    ("minic.compile", "repro.minic.compile:compile_source", None),
    ("minic.compile", "repro.benchsuite.suite:compile_source", None),
    ("minic.parse", "repro.minic.compile:parse", None),
    ("minic.parse", "repro.minic.compile:lower_program", None),
    ("minic.passes", "repro.minic.compile:optimize_program", None),
    ("minic.select", "repro.minic.backend.arm_backend:ArmSelector.select",
     None),
    ("minic.select", "repro.minic.backend.x86_backend:X86Selector.select",
     None),
    ("minic.regalloc", "repro.minic.backend.regalloc:allocate", None),
    ("dbt.frontend", "repro.dbt.engine:translate_block", None),
    ("dbt.frontend", "repro.dbt.ruletrans:discover_block", None),
    ("dbt.frontend", "repro.dbt.ruletrans:translate_instruction", None),
    ("dbt.codegen.lower", "repro.dbt.codegen:lower_tcg_op", None),
    ("dbt.codegen.peephole", "repro.dbt.codegen:peephole", _peephole),
    ("dbt.codegen.regalloc", "repro.dbt.codegen:allocate", _dbt_regalloc),
    ("dbt.ruletrans", "repro.dbt.engine:translate_block_with_rules", None),
    ("dbt.emitter", "repro.dbt.ruletrans:instantiate_host", None),
    ("learning.store.match", "repro.learning.store:RuleStore.matches_at",
     _store_match),
    ("dbt.fastexec.compile", "repro.dbt.fastexec:compile_block", None),
    ("dbt.engine.exec", "repro.dbt.engine:DBTEngine.run", None),
    ("dbt.engine.hot_install", "repro.dbt.engine:DBTEngine.hot_install",
     _hot_install),
    ("learning.extract", "repro.learning.pipeline:extract_pairs", _extract),
    ("learning.paramize", "repro.learning.pipeline:analyze_pair", None),
    ("learning.paramize", "repro.learning.pipeline:generate_mappings",
     _mappings),
    ("learning.canon", "repro.learning.pipeline:candidate_digest", None),
    ("learning.canon", "repro.learning.pipeline:resolve_candidate",
     _resolve_candidate),
    ("learning.canon", "repro.learning.parallel:resolve_candidate",
     _resolve_candidate),
    ("learning.verify", "repro.learning.canon:verify_candidate", None),
    ("solver.check", "repro.learning.verify:check_equal", None),
    ("learning.cache.get", "repro.learning.cache:VerificationCache.get",
     _cache_get),
    ("learning.cache.put", "repro.learning.cache:VerificationCache.put",
     None),
    ("learning.cache.save", "repro.learning.cache:VerificationCache.save",
     None),
    ("service.gaps", "repro.service.gaps:GapRecorder.__call__",
     _gap_capture),
    ("service.gaps", "repro.service.gaps:GapAggregator.absorb", _gap_absorb),
    ("service.learner.match",
     "repro.service.learner:OnlineLearner.match_candidates", _learner_match),
    ("service.learner.verify", "repro.service.learner:OnlineLearner.learn",
     None),
    ("service.repo.publish", "repro.service.repo:RuleRepository.publish",
     None),
)

#: Ops of ``RuleService.handle`` the client loop issues; each is its own
#: layer, ``service.server.handle.<op>``.
SERVICE_OPS = ("report_gaps", "flush", "delta", "bundle")

#: Every layer, in report order (``dbt.translate`` is the translation
#: miss path as a whole; its self time is the engine's bookkeeping).
LAYERS = tuple(dict.fromkeys(
    [layer for layer, _, _ in TARGETS[:8]]
    + ["dbt.translate"]
    + [layer for layer, _, _ in TARGETS[8:]]
    + [f"service.server.handle.{op}" for op in SERVICE_OPS]
))

ROOT = "other"


def _resolve(path: str):
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class SpanLog:
    """In-memory span store plus the counters the wrappers record."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: (engine id, guest address) pairs translated so far, to count
        #: retranslations after hot-install invalidation.
        self._translated: set = set()

    def _id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, args, kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # -- wrappers ------------------------------------------------------------

    def _wrapper(self, name, fn, hook):
        log = self

        def traced(*args, **kwargs):
            index = log.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.close(index)
            if hook is not None:
                hook(log.counters, args, result)
            return result

        return traced

    def _translate_wrapper(self, fn):
        log = self

        def translate(engine, guest_addr):
            # Cache hits are dispatches, not translations: no span.  The
            # engine exposes no public cache probe, so read its cache.
            if guest_addr in engine._cache:
                return fn(engine, guest_addr)
            key = (engine.engine_id, guest_addr)
            if key in log._translated:
                log.counters["dbt.retranslated_blocks"] += 1
            log._translated.add(key)
            return log.call("dbt.translate", fn, (engine, guest_addr), {})

        return translate

    def _handle_wrapper(self, fn):
        log = self

        def handle(service, request):
            op = request.get("op") if isinstance(request, dict) else None
            return log.call(f"service.server.handle.{op}", fn,
                            (service, request), {})

        return handle

    def install(self) -> list:
        """Wrap every target; returns the undo list for :meth:`remove`."""
        undo = []
        for layer, path, hook in TARGETS:
            owner, attr = _resolve(path)
            original = owner.__dict__[attr]
            undo.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(layer, original, hook))
        owner, attr = _resolve("repro.dbt.engine:DBTEngine.translate")
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, self._translate_wrapper(owner.__dict__[attr]))
        owner, attr = _resolve("repro.service.server:RuleService.handle")
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, self._handle_wrapper(owner.__dict__[attr]))
        return undo

    @staticmethod
    def remove(undo: list) -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def layer_times(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        count = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(count)]
        covered = [0.0] * count
        parent = self.parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                covered[p] += duration[i]
        totals: dict[str, dict] = {
            name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
            for name in self.names
        }
        names = self.names
        ids = self.name_id
        for i in range(count):
            entry = totals[names[ids[i]]]
            entry["calls"] += 1
            entry["incl_s"] += duration[i]
            entry["self_s"] += duration[i] - covered[i]
        return totals

    def write(self, path) -> None:
        """Write every span as one JSON line ``[name, start, end, parent]``
        (times relative to the first span), after a header line."""
        base = self.start[0] if len(self.start) else 0.0
        names = self.names
        with open(path, "w") as handle:
            handle.write(json.dumps({"spans": len(self.start),
                                     "fields": ["name", "start_s", "end_s",
                                                "parent"]}) + "\n")
            handle.writelines(
                f'["{names[n]}",{s - base:.7f},{e - base:.7f},{p}]\n'
                for n, s, e, p in zip(self.name_id, self.start, self.end,
                                      self.parent)
            )


def traced_pass(run_pass, trace_path):
    """Run ``run_pass()`` once with every layer wrapped.

    Returns ``(pass result, per-layer metrics, per-name span times,
    traced wall)``; the spans are written to ``trace_path``.
    """
    log = SpanLog()
    undo = log.install()
    try:
        root = log.open(ROOT)
        try:
            result = run_pass()
        finally:
            log.close(root)
    finally:
        SpanLog.remove(undo)
    wall = log.end[0] - log.start[0]
    times = log.layer_times()
    log.write(trace_path)
    return result, layer_metrics(times, log.counters, wall), times, wall


def layer_metrics(times: dict, counters: dict, wall: float) -> dict:
    """``calls``/``self_s``/``share`` for every layer, plus ``other``."""
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS + (ROOT,):
        entry = times.get(layer, {"calls": 0, "self_s": 0.0})
        if layer != ROOT:
            metrics[f"{layer}.calls"] = (entry["calls"], "count")
        metrics[f"{layer}.self_s"] = (entry["self_s"], "s")
        metrics[f"{layer}.share"] = (
            entry["self_s"] / wall if wall else 0.0, "ratio"
        )

    def ratio(num, den):
        return num / den if den else 0.0

    match_calls = times.get("learning.store.match", {}).get("calls", 0)
    metrics["learning.store.match.hit_ratio"] = (
        ratio(counters["learning.store.match.hits"], match_calls), "ratio")
    metrics["dbt.codegen.peephole.instrs_removed"] = (
        counters["dbt.codegen.peephole.instrs_removed"], "count")
    metrics["dbt.codegen.regalloc.host_instrs"] = (
        counters["dbt.codegen.regalloc.host_instrs"], "count")
    pairs = counters["learning.extract.pairs"]
    candidates = counters["learning.paramize.candidates"]
    metrics["learning.extract.pairs"] = (pairs, "count")
    metrics["learning.paramize.candidates"] = (candidates, "count")
    metrics["learning.paramize.yield"] = (ratio(candidates, pairs), "ratio")
    metrics["learning.verify.solver_calls"] = (
        times.get("solver.check", {}).get("calls", 0), "count")
    get_calls = times.get("learning.cache.get", {}).get("calls", 0)
    metrics["learning.cache.hit_rate"] = (
        ratio(counters["learning.cache.get.hits"], get_calls), "ratio")
    captured = counters["service.gaps.captured"]
    metrics["service.gaps.captured"] = (captured, "count")
    metrics["service.gaps.unique_ratio"] = (
        ratio(counters["service.gaps.new"], captured), "ratio")
    metrics["learning.verify.rules_per_candidate"] = (
        ratio(counters["learning.verify.rules"],
              counters["learning.verify.resolved"]), "ratio")
    metrics["service.learner.verify.matched_candidates"] = (
        counters["service.learner.verify.matched_candidates"], "count")
    metrics["dbt.engine.hot_install.rules_installed"] = (
        counters["dbt.engine.hot_install.rules_installed"], "count")
    metrics["dbt.engine.hot_install.blocks_invalidated"] = (
        counters["dbt.engine.hot_install.blocks_invalidated"], "count")
    translated = times.get("dbt.translate", {}).get("calls", 0)
    metrics["dbt.engine.hot_install.wasted_ratio"] = (
        ratio(counters["dbt.retranslated_blocks"], translated), "ratio")
    exec_incl = times.get("dbt.engine.exec", {}).get("incl_s", 0.0)
    metrics["dbt.translate_share"] = (
        ratio(times.get("dbt.translate", {}).get("incl_s", 0.0), exec_incl),
        "ratio")
    return metrics
