"""Bench: translate-path raw speed — legacy vs indexed matcher.

Emits ``BENCH_translate.json`` at the repo root: rule-lookup
throughput (lookups/sec, ns/lookup) for the paper's opcode-mean hash
matcher vs. the mnemonic-trie index, and whole-block translation
throughput (blocks/sec) under both matchers.  The acceptance gate is
the indexed matcher sustaining at least 2x the legacy matcher's
lookups/sec on the real learned-rule population.
"""

import json
import os
import sys
import time
from pathlib import Path

from benchmarks.conftest import run_once
from repro.dbt.frontend import discover_block
from repro.dbt.ruletrans import translate_block_with_rules
from repro.learning.store import RuleStore

_OUT_DIR = Path(
    os.environ.get("REPRO_BENCH_OUT_DIR")
    or Path(__file__).resolve().parent.parent
)
_OUT_DIR.mkdir(parents=True, exist_ok=True)
OUTPUT = _OUT_DIR / "BENCH_translate.json"

#: Workload the translate path is timed on (rules learned from the
#: other benchmarks, the cross-program evaluation split).
TARGET = "gcc"
#: Acceptance gate: indexed lookups/sec over legacy lookups/sec.
MIN_LOOKUP_SPEEDUP = 2.0
#: Repetitions — each full sweep walks every position of every block.
LOOKUP_REPS = 60
TRANSLATE_REPS = 12


def _blocks(program):
    starts = [
        start for start in sorted(set(program.labels.values()))
        if start < len(program.code)
    ]
    return starts, [discover_block(program, s) for s in starts]


def _time_lookups(store, blocks, reps):
    positions = sum(len(block) for block in blocks)
    hits = 0
    t0 = time.perf_counter()
    for _ in range(reps):
        hits = 0
        for block in blocks:
            match_at = store.match_at
            for i in range(len(block)):
                if match_at(block, i) is not None:
                    hits += 1
    seconds = time.perf_counter() - t0
    lookups = positions * reps
    return {
        "positions": positions,
        "hit_positions": hits,
        "seconds": round(seconds, 4),
        "lookups_per_second": round(lookups / seconds),
        "ns_per_lookup": round(seconds / lookups * 1e9, 1),
        "ns_per_hit": round(seconds / max(hits * reps, 1) * 1e9, 1),
    }


def _time_translation(program, starts, store, reps):
    t0 = time.perf_counter()
    for _ in range(reps):
        for start in starts:
            translate_block_with_rules(program, start, store)
    seconds = time.perf_counter() - t0
    blocks = len(starts) * reps
    return {
        "seconds": round(seconds, 4),
        "blocks_per_second": round(blocks / seconds, 1),
        "ms_per_block": round(seconds / blocks * 1e3, 4),
    }


def test_translate_throughput(benchmark, context):
    rules = context.rule_store_excluding(TARGET).all_rules()
    program = context.build(TARGET, "arm", workload="test")
    starts, blocks = _blocks(program)
    stores = {
        mode: RuleStore.from_rules(rules, matcher=mode)
        for mode in ("hash", "indexed")
    }

    def measure():
        lookup = {
            "legacy": _time_lookups(stores["hash"], blocks, LOOKUP_REPS),
            "indexed": _time_lookups(stores["indexed"], blocks,
                                     LOOKUP_REPS),
        }
        translate = {
            "legacy": _time_translation(
                program, starts, stores["hash"], TRANSLATE_REPS
            ),
            "indexed": _time_translation(
                program, starts, stores["indexed"], TRANSLATE_REPS
            ),
        }
        return {
            "bench": "translate_throughput",
            "python": sys.version.split()[0],
            "target": TARGET,
            "rules": len(rules),
            "blocks": len(starts),
            "guest_instructions": sum(len(b) for b in blocks),
            "lookup": lookup,
            "lookup_speedup": round(
                lookup["indexed"]["lookups_per_second"]
                / lookup["legacy"]["lookups_per_second"], 2
            ),
            "translate": translate,
        }

    payload = run_once(benchmark, measure)
    OUTPUT.write_text(json.dumps(payload, indent=1) + "\n")
    print()
    print(f"  wrote {OUTPUT}")
    for mode in ("legacy", "indexed"):
        row = payload["lookup"][mode]
        print(f"  {mode:>10s}: {row['lookups_per_second']:,} lookups/s "
              f"({row['ns_per_lookup']} ns/lookup)")
    print(f"  lookup speedup: {payload['lookup_speedup']}x "
          f"(gate: >= {MIN_LOOKUP_SPEEDUP}x)")
    for mode, row in payload["translate"].items():
        print(f"  {mode:>10s}: {row['blocks_per_second']} blocks/s")

    # Both matchers hit the same positions (they are exact).
    assert payload["lookup"]["legacy"]["hit_positions"] == \
        payload["lookup"]["indexed"]["hit_positions"]
    assert payload["lookup"]["legacy"]["hit_positions"] > 0
    # The tentpole gate: the index at least doubles lookup throughput.
    assert payload["lookup_speedup"] >= MIN_LOOKUP_SPEEDUP
    benchmark.extra_info.update(
        lookup_speedup=payload["lookup_speedup"],
        indexed_blocks_per_second=(
            payload["translate"]["indexed"]["blocks_per_second"]
        ),
    )
