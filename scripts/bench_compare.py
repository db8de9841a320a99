#!/usr/bin/env python3
"""Perf-regression gate: diff fresh bench payloads against baselines.

``BENCH_*.json`` files committed at the repo root are the perf
trajectory; a fresh run (``REPRO_BENCH_OUT_DIR=... pytest
benchmarks/test_learning_throughput.py``) writes candidate payloads
elsewhere, and this script diffs candidate against baseline with
per-metric tolerance bands:

    python scripts/bench_compare.py \
        --baseline BENCH_learning.json --candidate fresh/BENCH_learning.json
    python scripts/bench_compare.py --baseline-dir . --candidate-dir fresh

Each payload's ``bench`` field selects its check profile.  Wall-clock
metrics get wide bands (CI boxes are noisy); deterministic counter
metrics (solver calls, dedup savings, cache hit rate) get tight ones.
A metric that moves past its band in the *bad* direction is a
``regression`` and the exit code is 1; improvements are reported but
never fail.

Provenance-aware annotation: parallel speedup on a box with fewer
cores than worker processes measures scheduling churn, not the code
(the payload records ``cpus``/``jobs`` for exactly this reason).  Such
figures are downgraded to ``annotated`` — printed, kept in the JSON
verdict, but never a failure.

A payload section that says ``"measured": false`` (with a
``"reason"``) holds no figure: its metrics are reported as ``not
measured`` and never compared.  The learning bench writes that for its
parallel speedup when it ran one worker process.

The verdict is machine-readable with ``--json``:
``{"ok": bool, "regressions": N, "results": [...]}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Check:
    """One metric's tolerance band.

    ``direction`` is the *good* direction; the band is relative: a
    higher-is-better metric regresses below ``baseline * (1 - tol)``,
    a lower-is-better one above ``baseline * (1 + tol)``.
    """

    path: str            # dotted path into the payload
    direction: str       # "higher" | "lower"
    tolerance: float     # relative band


#: bench name (the payload's "bench" field) -> its check profile.
CHECKS: dict[str, tuple[Check, ...]] = {
    "learning_throughput": (
        # Wall-clock rates: wide bands, shared CI runners are noisy.
        Check("sequential.candidates_per_second", "higher", 0.30),
        Check("warm_cache.candidates_per_second", "higher", 0.30),
        Check("warm_cache.speedup_over_cold", "higher", 0.40),
        Check("parallel.speedup_over_sequential", "higher", 0.40),
        # Deterministic counters: tight bands — these only move when
        # the algorithm changes, and more solver work is a regression
        # regardless of how fast the box is.
        Check("sequential.verify_calls", "lower", 0.0),
        Check("sequential.dedup_saved_calls", "higher", 0.0),
        Check("warm_cache.verify_calls", "lower", 0.0),
        Check("warm_cache.hit_rate", "higher", 0.0),
        Check("rules", "higher", 0.0),
    ),
    "disabled_tracer_overhead": (
        # The bound itself is tiny and jittery; what must hold is the
        # budget, with headroom for timer noise.
        Check("overhead_fraction", "lower", 1.0),
        Check("trace_site_visits", "lower", 0.10),
    ),
    "profiler_overhead": (
        # The bound multiplies out two microsecond-scale timings, so
        # it jitters a few-x run to run; the hard <=3% gate lives in
        # the bench itself, and this band only catches
        # order-of-magnitude cost regressions.  The budget itself
        # must never be loosened, and the sampler must keep
        # collecting data.
        Check("bounded_overhead_fraction", "lower", 4.0),
        Check("budget_fraction", "lower", 0.0),
        Check("samples", "higher", 0.95),
    ),
    "fleet_gate": (
        # Deterministic shape of the chaos run: the schedule and the
        # client count are fixed, so these only move when the gate
        # itself changes.
        Check("shards", "higher", 0.0),
        Check("clients", "higher", 0.0),
        Check("kills", "higher", 0.0),
        # Throughput/latency under churn: wide bands — the run shares
        # a CI box with 12 client threads plus 3 shard processes, and
        # install latency includes the deliberate kill downtime.
        Check("gaps_per_second", "higher", 0.60),
        Check("sync_p99_ms", "lower", 2.0),
        Check("install_p99_ms", "lower", 2.0),
        # At least as many gaps must complete the stitched capture ->
        # settle -> hot-install journey; losing most of them means the
        # trace plumbing or the redelivery path broke.
        Check("stitched_installs", "higher", 0.50),
    ),
    "ingest_gate": (
        # The stream is seed-deterministic and the gate re-checks that
        # itself, so the counter metrics only move when the grammar,
        # dedup layer, or learning pipeline changes: tight bands.
        Check("programs", "higher", 0.0),
        Check("fed", "higher", 0.0),
        Check("novel_rules", "higher", 0.0),
        Check("verify_calls", "lower", 0.0),
        Check("warm_skip_rate", "higher", 0.0),
        Check("warm_verify_calls", "lower", 0.0),
        # Wall-clock yield: wide bands for shared CI runners.
        Check("novel_rules_per_min", "higher", 0.60),
        Check("elapsed_seconds", "lower", 1.50),
    ),
    "translate_throughput": (
        # Wall-clock throughput: wide bands for shared CI runners.
        Check("lookup.indexed.lookups_per_second", "higher", 0.40),
        Check("translate.indexed.blocks_per_second", "higher", 0.40),
        # The indexed-over-legacy ratio divides out box speed, so its
        # band is tight — and the >= 2x acceptance floor lives in the
        # bench itself.
        Check("lookup_speedup", "higher", 0.25),
        # Deterministic: both matchers must keep hitting the same
        # positions, and the rule population must not shrink.
        Check("lookup.indexed.hit_positions", "higher", 0.0),
        Check("rules", "higher", 0.0),
    ),
}

#: Metrics meaningless when the host is oversubscribed (jobs > cpus):
#: annotate instead of failing.
OVERSUBSCRIPTION_SENSITIVE = {"parallel.speedup_over_sequential"}


def _lookup(payload: dict, path: str):
    node = payload
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _unmeasured(payload: dict, path: str) -> str | None:
    """Why ``path``'s section holds no figure, if it says it holds none."""
    parent = path.rpartition(".")[0]
    section = _lookup(payload, parent) if parent else payload
    if isinstance(section, dict) and section.get("measured") is False:
        return section.get("reason") or "not measured"
    return None


def _oversubscribed(payload: dict) -> bool:
    cpus, jobs = payload.get("cpus"), payload.get("jobs")
    return isinstance(cpus, int) and isinstance(jobs, int) and jobs > cpus


def compare(baseline: dict, candidate: dict) -> list[dict]:
    """Per-metric verdicts for one baseline/candidate payload pair."""
    bench = candidate.get("bench") or baseline.get("bench") or ""
    checks = CHECKS.get(bench)
    if checks is None:
        return [{
            "bench": bench, "metric": None, "verdict": "skipped",
            "note": f"no check profile for bench {bench!r}",
        }]
    results = []
    for check in checks:
        base = _lookup(baseline, check.path)
        cand = _lookup(candidate, check.path)
        result = {
            "bench": bench,
            "metric": check.path,
            "baseline": base,
            "candidate": cand,
            "direction": check.direction,
            "tolerance": check.tolerance,
        }
        unmeasured = (_unmeasured(candidate, check.path)
                      or _unmeasured(baseline, check.path))
        if unmeasured:
            result.update(verdict="not measured", note=unmeasured)
        elif base is None:
            result.update(verdict="skipped",
                          note="metric absent from baseline")
        elif cand is None:
            result.update(verdict="regression",
                          note="metric vanished from candidate payload")
        else:
            if check.direction == "higher":
                bound = base * (1.0 - check.tolerance)
                bad = cand < bound
                good = cand > base
            else:
                bound = base * (1.0 + check.tolerance)
                bad = cand > bound
                good = cand < base
            result["bound"] = round(bound, 6)
            if bad and check.path in OVERSUBSCRIPTION_SENSITIVE and (
                    _oversubscribed(candidate)
                    or _oversubscribed(baseline)):
                result.update(
                    verdict="annotated",
                    note=(
                        "oversubscribed host (jobs "
                        f"{candidate.get('jobs', baseline.get('jobs'))}"
                        f" > cpus "
                        f"{candidate.get('cpus', baseline.get('cpus'))})"
                        " — parallel figure is informational only"
                    ),
                )
            elif bad:
                result["verdict"] = "regression"
            elif good:
                result["verdict"] = "improved"
            else:
                result["verdict"] = "ok"
        results.append(result)
    return results


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: bench payload must be a JSON object")
    return payload


def _pairs(args) -> list[tuple[Path, Path]]:
    if args.baseline and args.candidate:
        return [(Path(args.baseline), Path(args.candidate))]
    baseline_dir = Path(args.baseline_dir)
    candidate_dir = Path(args.candidate_dir)
    pairs = []
    for baseline in sorted(baseline_dir.glob("BENCH_*.json")):
        candidate = candidate_dir / baseline.name
        if candidate.exists():
            pairs.append((baseline, candidate))
    return pairs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_compare.py",
        description="Diff fresh BENCH_*.json payloads against committed "
                    "baselines with per-metric tolerance bands.",
    )
    parser.add_argument("--baseline", help="one baseline payload")
    parser.add_argument("--candidate", help="one candidate payload")
    parser.add_argument("--baseline-dir",
                        help="directory of committed BENCH_*.json")
    parser.add_argument("--candidate-dir",
                        help="directory of freshly written BENCH_*.json")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable verdict")
    args = parser.parse_args(argv)

    single = bool(args.baseline or args.candidate)
    if single and not (args.baseline and args.candidate):
        parser.error("--baseline and --candidate go together")
    if not single and not (args.baseline_dir and args.candidate_dir):
        parser.error("pass --baseline/--candidate or "
                     "--baseline-dir/--candidate-dir")

    try:
        pairs = _pairs(args)
        if not pairs:
            print("error: no baseline/candidate payload pairs found",
                  file=sys.stderr)
            return 2
        results = []
        for baseline_path, candidate_path in pairs:
            results.extend(
                compare(_load(baseline_path), _load(candidate_path))
            )
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    regressions = [r for r in results if r["verdict"] == "regression"]
    verdict = {
        "ok": not regressions,
        "regressions": len(regressions),
        "results": results,
    }
    if args.json:
        print(json.dumps(verdict, indent=1))
    else:
        width = max(
            (len(r["metric"]) for r in results if r["metric"]),
            default=10,
        )
        for r in results:
            if r["metric"] is None:
                print(f"SKIP  {r['note']}")
                continue
            line = (
                f"{r['verdict'].upper():<10s} "
                f"{r['bench']}:{r['metric']:<{width}s} "
                f"baseline {r['baseline']} -> candidate {r['candidate']}"
            )
            if r.get("note"):
                line += f"  [{r['note']}]"
            print(line)
        print(
            f"verdict: {'OK' if verdict['ok'] else 'REGRESSION'} "
            f"({len(regressions)} regression(s) across "
            f"{len(pairs)} payload(s))"
        )
    return 0 if verdict["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
