"""The repository benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dbt-test-cold --seed 1 \
        --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs one untraced pass and then one traced pass, and
reports the per-layer split (see ``layers.py``) with the tracing
overhead.  Human-readable provenance and metric lines come first; the
last line of standard output is the JSON result.  Spans and scratch
files go under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from hostclock import CLOCK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Nominal seconds of one pass of any workload; with ``--seconds`` it
#: fixes how many passes a run makes (two at the benchmark's 12).
PASS_SECONDS = 6.0


def tail(samples: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples) at the highest whole percentile
    that leaves at least ten samples beyond it (nearest rank); the
    maximum when there are too few samples for a percentile above 50."""
    n = len(samples)
    if n < 20:
        return (max(samples) if samples else 0.0), 100, n
    pct = math.floor(100 * (1 - 10 / n))
    rank = math.ceil(pct / 100 * n)
    return sorted(samples)[rank - 1], pct, n


def _metric(value, unit):
    return {"value": value, "unit": unit}


def group_seconds(passes, group: str) -> float:
    """Sum over the group's operations of each one's median normalised
    time across passes, so one badly normalised sample of one operation
    moves the total little."""
    labels = [label for label, (g, _, _) in passes[0].ops.items()
              if g == group]
    return sum(statistics.median(p.ops[label][1] for p in passes)
               for label in labels)


def _print_named(workload, passes, setups, prepare_s):
    print(f"setup_s: {statistics.median(setups):.4f} s "
          f"(median of {len(setups)}: "
          + ", ".join(f"{s:.4f}" for s in setups) + ")")
    print(f"prepare_s: {prepare_s:.4f} s (oracle and warm-up; not set-up)")
    groups = dict.fromkeys(g for g, _, _ in passes[0].ops.values())
    for group in groups:
        walls = ", ".join(f"{p.wall(group):.4f}" for p in passes)
        print(f"{group}: {group_seconds(passes, group):.4f} s "
              f"(per-operation median of {len(passes)} passes; "
              f"raw wall per pass: {walls})")
    for key, value in passes[-1].exact.items():
        print(f"{key}: {value}")
    ticks = [ms for p in passes for ms in p.tick_ms]
    if ticks:
        value, pct, n = tail(ticks)
        print(f"install_p50_ms: {statistics.median(ticks):.4f} ms")
        print(f"install_tail_ms: {value:.4f} ms (p{pct} of {n} ticks)")
    if workload.name.startswith("dbt-"):
        model = passes[-1]
        ratio = (group_seconds(passes, workload.baseline_group)
                 / group_seconds(passes, workload.rules_group))
        print(f"wall speedup qemu/rules: {ratio:.3f} (printed, not gated)")
        print(f"modeled translate share: "
              f"{model.model_translation / model.model_total:.4f}")


def _self_tests(workload, passes) -> list[str]:
    """Exact counters must repeat on every pass of one run."""
    problems = []
    first, last = passes[0], passes[-1]
    if first.exact != last.exact:
        problems.append(f"exact counters differ between passes: "
                        f"{first.exact} vs {last.exact}")
    if first.translation != last.translation:
        problems.append(f"translation counters differ between the first "
                        f"and last pass: {first.translation} vs "
                        f"{last.translation}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no system under test at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(have: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        return _run(args, WORKLOADS[args.workload], layers, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, workload_cls, layers, scratch) -> int:
    workload = workload_cls(args.seed, scratch)
    # A traced run reports plain wall seconds: host-speed probes would
    # land in the self time of whichever layer they interrupt.
    CLOCK.enabled = not args.trace
    setups = []
    for _ in range(SETUP_REPEATS):
        with CLOCK.measure() as timing:
            workload.setup()
        setups.append(timing.seconds)
    start = time.perf_counter()
    workload.prepare()
    prepare_s = time.perf_counter() - start

    provenance = {
        "workload": workload.name, "seed": args.seed,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "load": "closed loop, one process, one thread: jobs=1, "
                "no process pool, no socket",
        **workload.provenance(),
    }
    print("provenance: " + json.dumps(provenance))

    def next_pass():
        if workload.setup_per_pass and workload_passes:
            with CLOCK.measure() as timing:
                workload.setup()
            setups.append(timing.seconds)
        begin = time.perf_counter()
        result = workload.run_pass()
        elapsed = time.perf_counter() - begin
        workload_passes.append(result)
        print(f"pass {len(workload_passes)}: {elapsed:.4f} s wall, "
              f"{workload.rules_group} "
              f"{result.total(workload.rules_group):.4f} s, "
              f"{workload.baseline_group} "
              f"{result.total(workload.baseline_group):.4f} s")
        return elapsed

    workload_passes = []
    if args.trace:
        untraced = next_pass()
        if workload.setup_per_pass:
            workload.setup()
        trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl"
        traced, metrics, times, wall = layers.traced_pass(
            workload.run_pass, trace_path)
        workload_passes.append(traced)
        metrics = _trace_metrics(workload, workload_passes, metrics, times,
                                 wall, untraced)
        print(f"spans: {trace_path.relative_to(ROOT)}")
    else:
        # A pass count fixed by --seconds and the nominal pass length,
        # not by the clock, so every run does the same work.
        for _ in range(max(1, round(args.seconds / PASS_SECONDS))):
            next_pass()
        _print_named(workload, workload_passes, setups, prepare_s)
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "rules_run_s": _metric(group_seconds(
                workload_passes, workload.rules_group), "s"),
            "baseline_run_s": _metric(group_seconds(
                workload_passes, workload.baseline_group), "s"),
            "rules_learned": _metric(workload.rules_learned, "count"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
        }
        for name, entry in metrics.items():
            print(f"{name}: {entry['value']} {entry['unit']}")

    problems = _self_tests(workload, workload_passes)
    attempted = sum(p.attempted for p in workload_passes)
    failed = sum(p.failed for p in workload_passes)
    for p in workload_passes:
        for failure in p.failures:
            print(f"FAILED: {failure}")
    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}")
    print(f"failed_fraction: {failed / attempted if attempted else 0.0} "
          f"({failed} of {attempted} operations)")
    print("exact: " + json.dumps(workload_passes[-1].exact, sort_keys=True))
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _trace_metrics(workload, passes, metrics, times, wall, untraced):
    """Per-layer metrics plus the counts the pass itself reports."""
    traced = passes[-1]
    exact = traced.exact
    out = {name: _metric(value, unit)
           for name, (value, unit) in metrics.items()}
    modeled = (traced.model_translation / traced.model_total
               if traced.model_total else 0.0)
    out["dbt.perf.translate_share"] = _metric(modeled, "ratio")
    out["dbt.engine.dispatches"] = _metric(exact.get("dispatches", 0),
                                           "count")
    out["dbt.engine.host_instrs"] = _metric(exact.get("host_instrs", 0),
                                            "count")
    out["learning.verify.dedup_saved"] = _metric(
        exact.get("dedup_saved", 0), "count")
    for key, unit in (("model_mcycles", "Mcycles"),
                      ("dynamic_coverage", "ratio"),
                      ("static_coverage", "ratio")):
        out[key] = _metric(exact.get(key, 0.0), unit)
    ticks = passes[0].tick_ms
    out["install_p50_ms"] = _metric(
        statistics.median(ticks) if ticks else 0.0, "ms")
    out["install_tail_ms"] = _metric(tail(ticks)[0] if ticks else 0.0, "ms")
    out["traced_wall_s"] = _metric(wall, "s")
    out["untraced_wall_s"] = _metric(untraced, "s")
    out["trace_overhead_s"] = _metric(wall - untraced, "s")

    print(f"traced wall {wall:.4f} s, untraced wall {untraced:.4f} s, "
          f"tracing overhead {wall - untraced:.4f} s")
    print(f"{'layer':40} {'calls':>9} {'self_s':>10} {'share':>7}")
    rows = sorted(times.items(), key=lambda item: -item[1]["self_s"])
    for name, entry in rows:
        print(f"{name:40} {entry['calls']:>9} {entry['self_s']:>10.4f} "
              f"{entry['self_s'] / wall:>7.2%}")
    print(f"{'sum of shares':40} {'':>9} "
          f"{sum(e['self_s'] for _, e in rows):>10.4f} "
          f"{sum(e['self_s'] for _, e in rows) / wall:>7.2%}")
    if workload.name.startswith("dbt-"):
        measured = out["dbt.translate_share"]["value"]
        agree = (measured > 0.5) == (modeled > 0.5)
        print(f"translate share: measured {measured:.4f} "
              f"(dbt.translate / dbt.engine.exec wall), modeled "
              f"{modeled:.4f} (perf.py translation / total cycles): "
              + ("orderings agree" if agree else
                 "DISAGREE on whether translation outweighs execution"))
    return out


if __name__ == "__main__":
    sys.exit(main())
