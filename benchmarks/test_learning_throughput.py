"""Bench: rule-learning throughput — sequential vs parallel vs cached.

Emits ``BENCH_learning.json`` at the repo root (candidates/sec, solver
invocations, dedup savings, cache hit rate, sequential vs parallel
wall-clock) so future PRs have a perf trajectory to compare against.
"""

import gc
import io
import json
import os
import statistics
import sys
import time
from pathlib import Path

from benchmarks.conftest import run_once
from repro.benchsuite import BENCHMARK_NAMES, build_learning_pair
from repro.learning.cache import VerificationCache
from repro.learning.pipeline import learn_corpus
from repro.obs.profiler import SamplingProfiler, phase
from repro.obs.trace import NULL_TRACER, tracing

#: ``REPRO_BENCH_OUT_DIR`` redirects payloads (CI artifact staging,
#: bench_compare fresh runs) without touching the committed baselines.
_OUT_DIR = Path(
    os.environ.get("REPRO_BENCH_OUT_DIR")
    or Path(__file__).resolve().parent.parent
)
_OUT_DIR.mkdir(parents=True, exist_ok=True)
OUTPUT = _OUT_DIR / "BENCH_learning.json"
OVERHEAD_OUTPUT = _OUT_DIR / "BENCH_trace_overhead.json"
PROFILER_OUTPUT = _OUT_DIR / "BENCH_profiler_overhead.json"
#: Oversubscribing a box with more worker processes than cores only
#: adds scheduling churn (the learners are CPU-bound), so the default
#: matches the machine; ``cpus``/``jobs`` in the payload record the
#: provenance so bench_compare can annotate rather than flag runs
#: whose parallel figures merely reflect the host's core count.
JOBS = os.cpu_count() or 1
#: Acceptance gate: the disabled tracer may cost at most this fraction
#: of sequential learning wall-clock.
MAX_DISABLED_OVERHEAD = 0.02
#: The disabled-tracer gate's learning time and per-site guard cost are
#: each the median of this many runs.
OVERHEAD_REPEATS = 5
#: Acceptance gate: a *running* sampling profiler may cost at most
#: this fraction of sequential learning wall-clock.
MAX_PROFILER_OVERHEAD = 0.03
#: Sampling rate the profiler-overhead gate runs at (the default).
PROFILER_HZ = 97


def _total(outcomes, field):
    return sum(getattr(o.report, field) for o in outcomes.values())


def _candidates(outcomes):
    """Snippet pairs that reached the verify stage."""
    return sum(
        o.report.rules + o.report.verify_failures for o in outcomes.values()
    )


def _parallel_speedup(sequential_seconds, parallel_seconds) -> dict:
    """The parallel figure, or why there is none: with one worker the
    "parallel" run is a second sequential run, and its ratio to the
    first is noise."""
    if JOBS == 1:
        return {"speedup_over_sequential": None, "measured": False,
                "reason": "jobs == 1: one worker process measures no "
                          "parallelism"}
    return {"speedup_over_sequential": round(
        sequential_seconds / parallel_seconds, 2), "measured": True}


def test_learning_throughput(benchmark, tmp_path):
    builds = {name: build_learning_pair(name) for name in BENCHMARK_NAMES}

    def measure():
        # Each window starts from a fresh collection, so a full
        # collection owed by earlier allocation never lands in it.
        gc.collect()
        t0 = time.perf_counter()
        sequential = learn_corpus(builds)
        sequential_seconds = time.perf_counter() - t0

        gc.collect()
        t0 = time.perf_counter()
        cold = learn_corpus(builds, cache=VerificationCache.at_dir(tmp_path))
        cold_seconds = time.perf_counter() - t0

        warm_cache = VerificationCache.at_dir(tmp_path)
        gc.collect()
        t0 = time.perf_counter()
        warm = learn_corpus(builds, cache=warm_cache)
        warm_seconds = time.perf_counter() - t0

        gc.collect()
        t0 = time.perf_counter()
        parallel = learn_corpus(builds, jobs=JOBS)
        parallel_seconds = time.perf_counter() - t0

        candidates = _candidates(sequential)
        return {
            "bench": "learning_throughput",
            "python": sys.version.split()[0],
            "cpus": os.cpu_count(),
            "jobs": JOBS,
            "benchmarks": len(builds),
            "rules": _total(sequential, "rules"),
            "candidates": candidates,
            "sequential": {
                "seconds": round(sequential_seconds, 3),
                "candidates_per_second": round(
                    candidates / sequential_seconds, 1
                ),
                "verify_calls": _total(sequential, "verify_calls"),
                "dedup_saved_calls": _total(sequential, "dedup_saved_calls"),
            },
            "cold_cache": {
                "seconds": round(cold_seconds, 3),
                "verify_calls": _total(cold, "verify_calls"),
                "cache_misses": _total(cold, "cache_misses"),
            },
            "warm_cache": {
                "seconds": round(warm_seconds, 3),
                "candidates_per_second": round(candidates / warm_seconds, 1),
                "verify_calls": _total(warm, "verify_calls"),
                "cache_hits": _total(warm, "cache_hits"),
                "hit_rate": round(warm_cache.stats.hit_rate, 4),
                "speedup_over_cold": round(cold_seconds / warm_seconds, 2),
            },
            "parallel": {
                "seconds": round(parallel_seconds, 3),
                **_parallel_speedup(sequential_seconds, parallel_seconds),
                "rules_match_sequential": all(
                    parallel[name].rules == sequential[name].rules
                    for name in builds
                ),
            },
        }

    payload = run_once(benchmark, measure)
    OUTPUT.write_text(json.dumps(payload, indent=1) + "\n")
    print()
    print(f"  wrote {OUTPUT}")
    print(f"  sequential: {payload['sequential']['seconds']}s "
          f"({payload['sequential']['candidates_per_second']} cand/s, "
          f"{payload['sequential']['verify_calls']} solver calls, "
          f"{payload['sequential']['dedup_saved_calls']} deduped)")
    print(f"  warm cache: {payload['warm_cache']['seconds']}s "
          f"({payload['warm_cache']['speedup_over_cold']}x over cold, "
          f"hit rate {payload['warm_cache']['hit_rate']:.0%})")
    parallel = payload["parallel"]
    print(f"  parallel (jobs={JOBS}): {parallel['seconds']}s, " + (
        f"{parallel['speedup_over_sequential']}x over sequential"
        if parallel["measured"] else
        f"speedup not measured ({parallel['reason']})"))

    # Pre-verification dedup pays on a cold run.
    assert payload["sequential"]["dedup_saved_calls"] > 0
    # A warm cache eliminates >= 90% of solver invocations.
    assert payload["warm_cache"]["verify_calls"] <= \
        0.1 * payload["cold_cache"]["verify_calls"]
    assert payload["warm_cache"]["hit_rate"] > 0.9
    # And is substantially faster than a cold run.
    assert payload["warm_cache"]["seconds"] < \
        payload["cold_cache"]["seconds"]
    # The parallel path stays equivalent.
    assert payload["parallel"]["rules_match_sequential"]

    benchmark.extra_info.update(
        rules=payload["rules"],
        candidates_per_second=payload["sequential"]["candidates_per_second"],
        warm_hit_rate=payload["warm_cache"]["hit_rate"],
    )


def test_disabled_tracer_overhead(benchmark):
    """Gate: tracing disabled (the default) costs <= 2% of learning.

    Every instrumentation site guards on ``tracer.enabled``, so a
    disabled run pays one attribute check (plus a no-op call at the few
    span sites) per site visit.  Rather than diffing two noisy
    wall-clock runs, bound the cost deterministically: count how many
    records a fully traced run emits (an upper bound on guarded-site
    visits that do any work), time the disabled-path guard in a tight
    loop, and require sites x per-site cost to stay under the budget
    with a generous safety factor.
    """
    builds = {name: build_learning_pair(name) for name in BENCHMARK_NAMES}

    def learning_seconds() -> float:
        t0 = time.perf_counter()
        learn_corpus(builds)
        return time.perf_counter() - t0

    def guard_seconds() -> float:
        trials = 200_000
        guard = NULL_TRACER
        t0 = time.perf_counter()
        for _ in range(trials):
            if guard.enabled:
                raise AssertionError("null tracer must stay disabled")
            guard.event("never.emitted")
        return (time.perf_counter() - t0) / trials

    def measure():
        # Medians of several repeats, each timing learning and the guard
        # back to back: a sub-second learning run swings by 2x on a
        # shared host, and the fraction divides one by the other.
        baselines, per_sites = [], []
        for _ in range(OVERHEAD_REPEATS):
            baselines.append(learning_seconds())
            per_sites.append(guard_seconds())
        baseline_seconds = statistics.median(baselines)
        per_site = statistics.median(per_sites)

        with tracing(io.StringIO()) as tracer:
            learn_corpus(builds)
        site_visits = tracer.records_written

        # 4x: spans guard twice and some sites check without emitting.
        overhead_seconds = 4 * site_visits * per_site
        return {
            "bench": "disabled_tracer_overhead",
            "python": sys.version.split()[0],
            "repeats": OVERHEAD_REPEATS,
            "baseline_seconds": round(baseline_seconds, 3),
            "trace_site_visits": site_visits,
            "per_site_seconds": per_site,
            "bounded_overhead_seconds": round(overhead_seconds, 6),
            "overhead_fraction": round(
                overhead_seconds / baseline_seconds, 6
            ),
            "budget_fraction": MAX_DISABLED_OVERHEAD,
        }

    payload = run_once(benchmark, measure)
    OVERHEAD_OUTPUT.write_text(json.dumps(payload, indent=1) + "\n")
    print()
    print(f"  wrote {OVERHEAD_OUTPUT}")
    print(f"  disabled-tracer overhead bound: "
          f"{payload['overhead_fraction']:.4%} of "
          f"{payload['baseline_seconds']}s learning "
          f"(budget {MAX_DISABLED_OVERHEAD:.0%})")

    assert payload["trace_site_visits"] > 0
    assert payload["overhead_fraction"] <= MAX_DISABLED_OVERHEAD
    benchmark.extra_info.update(
        overhead_fraction=payload["overhead_fraction"]
    )


def test_profiler_on_overhead(benchmark):
    """Gate: a live sampling profiler costs <= 3% of learning.

    The always-on profiler has two cost components: the sampler
    thread's duty cycle (``hz`` stack walks per second, each costing
    one ``sys._current_frames`` traversal) and the per-site ``phase``
    bookkeeping (one list append/pop per instrumented region).  Both
    are bounded deterministically — per-sample and per-site costs are
    timed in tight loops and multiplied out — because diffing two
    noisy wall-clock runs can't resolve a 3% budget on a shared box.
    A real profiled run still happens, to assert results are unchanged
    and the sampler actually collected data, and its measured delta is
    reported informationally.
    """
    builds = {name: build_learning_pair(name) for name in BENCHMARK_NAMES}

    def measure():
        t0 = time.perf_counter()
        baseline = learn_corpus(builds)
        baseline_seconds = time.perf_counter() - t0

        profiler = SamplingProfiler(hz=PROFILER_HZ)
        profiler.start()
        t0 = time.perf_counter()
        profiled = learn_corpus(builds)
        profiled_seconds = time.perf_counter() - t0
        profiler.stop()
        snapshot = profiler.snapshot()

        # Deterministic per-sample cost: a full sample of this very
        # process's thread stacks, on the profiler's own clock.
        trials = 2_000
        t0 = time.perf_counter()
        for _ in range(trials):
            profiler.sample_once()
        per_sample = (time.perf_counter() - t0) / trials

        # Deterministic per-site cost of the phase bookkeeping.
        trials = 200_000
        t0 = time.perf_counter()
        for _ in range(trials):
            with phase("bench.site"):
                pass
        per_site = (time.perf_counter() - t0) / trials

        # Sequential learning enters one phase per pipeline stage per
        # benchmark (learn.extract / learn.paramize / learn.verify).
        phase_site_visits = 3 * len(builds)
        duty_fraction = PROFILER_HZ * per_sample
        bounded = duty_fraction + (
            phase_site_visits * per_site / baseline_seconds
        )
        return {
            "bench": "profiler_overhead",
            "python": sys.version.split()[0],
            "hz": PROFILER_HZ,
            "baseline_seconds": round(baseline_seconds, 3),
            "profiled_seconds": round(profiled_seconds, 3),
            "measured_overhead_fraction": round(
                max(0.0, profiled_seconds / baseline_seconds - 1.0), 4
            ),
            "samples": snapshot["total_samples"],
            "per_sample_seconds": per_sample,
            "per_site_seconds": per_site,
            "phase_site_visits": phase_site_visits,
            "sampling_duty_fraction": round(duty_fraction, 6),
            "bounded_overhead_fraction": round(bounded, 6),
            "budget_fraction": MAX_PROFILER_OVERHEAD,
            "rules_match_baseline": all(
                profiled[name].rules == baseline[name].rules
                for name in builds
            ),
        }

    payload = run_once(benchmark, measure)
    PROFILER_OUTPUT.write_text(json.dumps(payload, indent=1) + "\n")
    print()
    print(f"  wrote {PROFILER_OUTPUT}")
    print(f"  profiler-on overhead bound: "
          f"{payload['bounded_overhead_fraction']:.4%} of "
          f"{payload['baseline_seconds']}s learning "
          f"(measured {payload['measured_overhead_fraction']:.2%}, "
          f"budget {MAX_PROFILER_OVERHEAD:.0%})")

    assert payload["samples"] > 0, "profiler collected no samples"
    assert payload["rules_match_baseline"]
    assert payload["bounded_overhead_fraction"] <= MAX_PROFILER_OVERHEAD
    benchmark.extra_info.update(
        bounded_overhead_fraction=payload["bounded_overhead_fraction"]
    )
