"""``repro-learn``: learn translation rules from a MiniC source file.

Usage::

    repro-learn program.c -o rules.json --opt-level 2 --style llvm
    repro-learn program.c --print        # dump rules to stdout
    repro-learn program.c --jobs 8       # parallel verification
    repro-learn program.c --no-cache     # skip the persistent cache
    repro-learn program.c --trace t.jsonl --metrics
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from repro.faults.deadline import DeadlineBudget
from repro.learning.cache import VerificationCache
from repro.learning.journal import OutcomeJournal
from repro.learning.pipeline import LearningReport, learn_corpus
from repro.learning.serialize import dump_rules
from repro.minic import compile_pairs
from repro.obs.metrics import format_metrics, get_metrics, set_metrics
from repro.obs.profiler import (
    DEFAULT_HZ,
    SamplingProfiler,
    get_profiler,
    profile_report,
    set_profiler,
)
from repro.obs.trace import tracing

DEFAULT_CACHE_DIR = ".repro-cache"


def economy_block(reports, cache: VerificationCache | None) -> str:
    """The verification-economy block both learning CLIs print, read
    from the run's learning reports and the cache's own stats."""
    total = LearningReport()
    for report in reports:
        total.merge(report)
    counts = {
        "learning.verify.calls": total.verify_calls,
        "learning.verify.deduped": total.dedup_saved_calls,
    }
    if cache is not None:
        counts.update({
            "learning.cache.hits": total.cache_hits,
            "learning.cache.misses": total.cache_misses,
            "learning.cache.entries": len(cache),
            "learning.cache.stale": cache.stats.stale,
            "learning.cache.corrupt": cache.stats.corrupt,
        })
    return format_metrics({"counters": counts},
                          title="verification economy")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Learn verified ARM->x86 translation rules from a "
                    "MiniC source file (dual compilation + symbolic "
                    "verification).",
    )
    parser.add_argument("source", help="MiniC source file")
    parser.add_argument("-o", "--output", help="write rules as JSON here")
    parser.add_argument("--opt-level", type=int, default=2,
                        choices=(0, 1, 2, 3))
    parser.add_argument("--style", default="llvm", choices=("llvm", "gcc"))
    parser.add_argument("--print", dest="print_rules", action="store_true",
                        help="print each learned rule")
    parser.add_argument("--reformat", action="store_true",
                        help="reformat to one statement per line before "
                             "compiling (the paper's clang-format step)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for candidate verification "
                             "(default: 1 = sequential)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR",
                        help="persistent verification-cache directory "
                             f"(default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="learn without the persistent verification "
                             "cache")
    parser.add_argument("--deadline", type=int, default=None,
                        metavar="STEPS",
                        help="per-candidate verification budget in "
                             "deterministic solver steps; exhaustion "
                             "classifies the candidate as TO (timeout)")
    parser.add_argument("--deadline-seconds", type=float, default=None,
                        metavar="SECONDS",
                        help="per-candidate wall-clock ceiling backing up "
                             "--deadline (converts true hangs into TO)")
    parser.add_argument("--resume", action="store_true",
                        help="journal every settled verdict to the cache "
                             "directory so a killed run resumes without "
                             "re-verifying (journal cleared on success)")
    parser.add_argument("--trace", metavar="PATH",
                        help="write a structured JSON-lines trace here "
                             "(inspect with `python -m repro.obs.report`)")
    parser.add_argument("--metrics", action="store_true",
                        help="dump every metrics counter/histogram to "
                             "stderr when done")
    parser.add_argument("--profile", metavar="PATH",
                        help="run the sampling profiler and write the "
                             "merged phase profile (parent + workers) "
                             "as JSON here; '-' prints a text report "
                             "to stderr instead")
    parser.add_argument("--profile-hz", type=int, default=DEFAULT_HZ,
                        metavar="HZ",
                        help="profiler sampling rate (default: "
                             f"{DEFAULT_HZ})")
    args = parser.parse_args(argv)

    set_metrics(None)  # a fresh registry per invocation
    profiler = None
    if args.profile:
        profiler = SamplingProfiler(hz=args.profile_hz)
        set_profiler(profiler)  # workers' profiles merge into this one
        profiler.start()
    with open(args.source) as fp:
        source = fp.read()
    if args.reformat:
        from repro.minic.format import format_source

        source = format_source(source)

    trace_scope = tracing(args.trace) if args.trace \
        else contextlib.nullcontext()
    with trace_scope:
        guest, host = compile_pairs(source, args.opt_level,
                                    [args.style])[args.style]

        cache = None if args.no_cache else \
            VerificationCache.at_dir(args.cache_dir)
        budget = None
        if args.deadline is not None or args.deadline_seconds is not None:
            budget = DeadlineBudget(max_steps=args.deadline,
                                    max_seconds=args.deadline_seconds)
        journal = OutcomeJournal.at_dir(args.cache_dir) if args.resume \
            else None
        if journal is not None and journal.recovered:
            print(
                f"resuming: {journal.recovered} journaled verdict(s) "
                f"replayed ({journal.skipped} torn line(s) skipped)",
                file=sys.stderr,
            )
        outcome = learn_corpus(
            {args.source: (guest, host)}, cache=cache, budget=budget,
            journal=journal, jobs=args.jobs,
        )[args.source]
        if journal is not None:
            # The run completed; the cache owns every verdict now.
            journal.clear()

    if profiler is not None:
        profiler.stop()
        snapshot = get_profiler().snapshot()
        if args.profile == "-":
            print("\n".join(profile_report(snapshot)), file=sys.stderr)
        else:
            with open(args.profile, "w") as fp:
                json.dump(snapshot, fp, sort_keys=True)
            print(f"wrote profile to {args.profile}", file=sys.stderr)

    report = outcome.report
    print(
        f"{report.total_sequences} snippet pairs -> {report.rules} rules "
        f"(yield {report.yield_fraction:.0%}) in {report.learn_seconds:.2f}s",
        file=sys.stderr,
    )
    print(
        f"stages: extract {report.extract_seconds:.2f}s, "
        f"paramize {report.paramize_seconds:.2f}s, "
        f"verify {report.verify_seconds:.2f}s",
        file=sys.stderr,
    )
    print(
        f"failures: CI={report.prep_ci} PI={report.prep_pi} "
        f"MB={report.prep_mb} Num={report.param_num} "
        f"Name={report.param_name} FailG={report.param_failg} "
        f"Rg={report.verify_rg} Mm={report.verify_mm} "
        f"Br={report.verify_br} Other={report.verify_other} "
        f"TO={report.verify_to} EC={report.verify_ec}",
        file=sys.stderr,
    )
    print(economy_block([report], cache), file=sys.stderr)
    if args.metrics:
        print(format_metrics(get_metrics()), file=sys.stderr)
    if args.trace:
        print(f"wrote trace to {args.trace}", file=sys.stderr)
    if args.print_rules:
        for rule in outcome.rules:
            print(rule)
    if args.output:
        with open(args.output, "w") as fp:
            dump_rules(outcome.rules, fp)
        print(f"wrote {len(outcome.rules)} rules to {args.output}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
