"""Self-tests of the benchmark itself.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

* Determinism: two runs of every workload with the same seed print
  identical exact metrics (modeled cycles, coverages, rules learned,
  install and invalidation counts, solver calls) and ``rules_learned``.
* Seeds matter: another seed changes the ``learn-corpus`` program set.
* Cold means cold: ``dbt-test-cold`` runs two passes, and ``run.py``
  marks the result incorrect unless the translation counters of the
  first and last pass are identical.

Each run is a child process, waited for before the next starts.  Exits
0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dbt-test-cold", "dbt-ref-warm", "learn-corpus",
             "online-hotinstall")


def run(workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its result, exact metrics and provenance."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.splitlines()
    found = {}
    for line in lines:
        for key in ("exact", "provenance"):
            if line.startswith(key + ": "):
                found[key] = json.loads(line[len(key) + 2:])
    found["result"] = json.loads(lines[-1])
    return found


def main() -> int:
    failures = []

    def check(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        # Two passes for dbt-test-cold, so the first/last check runs.
        seconds = 14 if workload == "dbt-test-cold" else 1
        first = run(workload, 1, seconds)
        second = run(workload, 1, seconds)
        for label, result in (("first", first), ("second", second)):
            check(result["result"]["correct"],
                  f"{workload}: {label} run correct, no failed operations")
        check(first["exact"] == second["exact"],
              f"{workload}: same seed, same exact metrics "
              f"{first['exact']}")
        learned = [r["result"]["metrics"]["rules_learned"]["value"]
                   for r in (first, second)]
        check(learned[0] == learned[1],
              f"{workload}: same seed, same rules_learned {learned[0]}")
        if workload == "learn-corpus":
            other = run(workload, 2, seconds)
            check(other["provenance"]["programs"]
                  != first["provenance"]["programs"],
                  "learn-corpus: another seed changes the program set")
    print("selftest: " + ("OK" if not failures else
                          f"{len(failures)} check(s) failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
