"""Command-line entry point: regenerate any table/figure.

Usage::

    repro-experiments table1
    repro-experiments fig8 fig10
    repro-experiments all --jobs 8
    repro-experiments fig6 --cache-dir /tmp/verify-cache
    repro-experiments table1 --no-cache
    repro-experiments table1 fig11 --trace t.jsonl --metrics

With ``--trace``, every learning candidate and DBT block event lands
in the trace file; ``python -m repro.obs.report t.jsonl`` then
re-derives the Table 1 / Figure 11 / Figure 12 numbers from the trace
alone and cross-checks them against the ``LearningReport``/``DBTStats``
accounting embedded in the same trace.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

from repro.dbt.guard import GuardPolicy
from repro.experiments import fig6, fig8, fig9, fig10, fig11, fig12, table1
from repro.experiments.common import shared_context
from repro.learning.cache import VerificationCache
from repro.learning.cli import economy_block
from repro.learning.serialize import dump_rules, load_rules
from repro.obs.metrics import format_metrics, get_metrics, set_metrics
from repro.obs.trace import tracing

EXPERIMENTS = {
    "table1": table1,
    "fig6": fig6,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
}

DEFAULT_CACHE_DIR = ".repro-cache"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures."
    )
    parser.add_argument(
        "experiments", nargs="+",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for rule learning "
             "(default: 1 = sequential)",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help="persistent verification-cache directory "
             f"(default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="learn without the persistent verification cache",
    )
    parser.add_argument(
        "--guard", action="store_true",
        help="enable the differential execution guard: sampled "
             "rule-translated blocks are cross-checked against the TCG "
             "baseline, and diverging rules are quarantined at runtime",
    )
    parser.add_argument(
        "--rules", metavar="PATH",
        help="install pre-learned rules from this JSON repository "
             "(see --export-rules) instead of learning inline; "
             "leave-one-out still applies via each rule's origin. "
             "Experiments that measure learning itself (table1, fig6) "
             "still learn.",
    )
    parser.add_argument(
        "--export-rules", metavar="PATH",
        help="after running, write every learned rule (with origins) "
             "to this JSON file for later --rules runs or repro-serve "
             "seeding",
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="write a structured JSON-lines trace of learning + DBT "
             "execution here (inspect with `python -m repro.obs.report`)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="dump every metrics counter/histogram to stderr when done",
    )
    args = parser.parse_args(argv)

    set_metrics(None)  # a fresh registry per invocation
    context = shared_context()
    context.jobs = args.jobs
    if not args.no_cache:
        context.cache = VerificationCache.at_dir(args.cache_dir)
    if args.guard:
        context.guard = GuardPolicy()
    if args.rules:
        with open(args.rules) as fp:
            context.preloaded_rules = load_rules(fp)
        print(f"installed {len(context.preloaded_rules)} pre-learned "
              f"rule(s) from {args.rules}", file=sys.stderr)

    names = list(EXPERIMENTS) if "all" in args.experiments else \
        args.experiments
    trace_scope = tracing(args.trace) if args.trace \
        else contextlib.nullcontext()
    with trace_scope:
        for name in names:
            module = EXPERIMENTS[name]
            start = time.perf_counter()
            result = module.run()
            print(module.render(result))
            print(f"[{name} regenerated in "
                  f"{time.perf_counter() - start:.1f}s]\n")
    if args.export_rules:
        outcomes = context.all_learning()
        # Keep one copy per (rule, origin) — NOT deduped across
        # benchmarks: a rule learned from several benchmarks must
        # survive leave-one-out exclusion of any single one of them.
        exported = [
            rule for outcome in outcomes.values()
            for rule in outcome.rules
        ]
        with open(args.export_rules, "w") as fp:
            dump_rules(exported, fp)
        print(f"exported {len(exported)} rule(s) to {args.export_rules}",
              file=sys.stderr)
    if context.cache is not None:
        context.cache.save()
    print(economy_block(context.learning_reports(), context.cache),
          file=sys.stderr)
    if args.metrics:
        print(format_metrics(get_metrics()), file=sys.stderr)
    if args.trace:
        print(f"wrote trace to {args.trace}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
