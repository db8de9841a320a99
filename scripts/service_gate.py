#!/usr/bin/env python
"""Service gate: end-to-end rule-service integration check for CI.

Boots a real ``repro-serve`` server process on a unix socket with a
two-benchmark learning corpus, then drives two concurrent DBT clients
against it:

* each client runs its benchmark with an **empty** rule store,
  reports the translation gaps it hit, asks the server to learn, and
  cold-syncs the published bundles into its live engine;
* each client's second run must reach dynamic rule coverage within
  1% of offline leave-nothing-out learning for its benchmark;
* client A then delta-syncs the bundle client B's gaps produced
  (incremental sync moves only the new bundle, never re-transfers);
* the client-side trace must reconcile: every rule a sync claimed to
  install matches the engines' ``dbt.hot_install`` events;
* the client and server traces must **stitch**: at least one gap's
  trace id is observable in both files (capture client-side, settled
  server-side, hot-installed client-side) and the stitched timeline
  yields end-to-end gap-to-hot-install latency percentiles.

Exit status 0 means the gate passed.  Run from the repo root:

    PYTHONPATH=src python scripts/service_gate.py

Set ``REPRO_GATE_ARTIFACT_DIR`` to keep the working directory (trace
files included) at a known path for CI artifact upload; by default a
throwaway temp dir is used.
"""

import subprocess
import sys
import threading
from functools import partial

import gate_harness
from gate_harness import offline_coverage, stop_process

from repro.benchsuite import build_benchmark
from repro.dbt.engine import DBTEngine
from repro.obs.report import aggregate, reconcile, stitch
from repro.obs.trace import TraceError, read_trace, tracing
from repro.service.client import RuleServiceClient

GATE = "service_gate"
GATE_BENCHMARKS = ("mcf", "libquantum")
COVERAGE_TOLERANCE = 0.01

fail = partial(gate_harness.fail, GATE)


class ClientRun(threading.Thread):
    """One benchmark driven through the full gap -> rule cycle."""

    def __init__(self, name: str, socket_path: str) -> None:
        super().__init__(name=f"client-{name}")
        self.benchmark = name
        self.socket_path = socket_path
        self.error: str | None = None
        self.client: RuleServiceClient | None = None
        self.engine: DBTEngine | None = None
        self.online_coverage = 0.0

    def run(self) -> None:
        try:
            self._drive()
        except Exception as exc:  # surfaced by the main thread
            self.error = f"{type(exc).__name__}: {exc}"

    def _drive(self) -> None:
        guest = build_benchmark(self.benchmark)
        self.client = RuleServiceClient(socket_path=self.socket_path)
        self.engine = DBTEngine(guest, "rules",
                                gap_sink=self.client.recorder)
        first = self.engine.run()
        if self.engine.last_run.dynamic_coverage != 0.0:
            raise AssertionError("empty store should cover nothing")
        if self.client.report_gaps() == 0:
            raise AssertionError("no gaps captured")
        self.client.flush()
        result = self.client.sync(self.engine)
        if result.rules_installed == 0:
            raise AssertionError("sync installed no rules")
        second = self.engine.run()
        if second.return_value != first.return_value:
            raise AssertionError(
                f"hot-install changed the result: "
                f"{second.return_value} != {first.return_value}"
            )
        self.online_coverage = self.engine.last_run.dynamic_coverage


def main() -> None:
    tmp = gate_harness.work_dir(GATE)
    socket_path = tmp / "rules.sock"
    trace_path = tmp / "clients.jsonl"
    server_trace_path = tmp / "server.jsonl"
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service.server",
            "--repo", str(tmp / "repo"),
            "--socket", str(socket_path),
            "--corpus", ",".join(GATE_BENCHMARKS),
            "--no-auto-learn",
            "--no-cache",
            "--trace", str(server_trace_path),
        ],
    )
    try:
        gate_harness.wait_for_socket(GATE, socket_path, server)

        with tracing(str(trace_path)):
            clients = [
                ClientRun(name, str(socket_path))
                for name in GATE_BENCHMARKS
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=300)
                if client.is_alive():
                    fail(f"{client.name} timed out")
                if client.error:
                    fail(f"{client.name}: {client.error}")

            # incremental delta sync: client A picks up the bundle
            # client B's gaps produced without re-transferring its own.
            lead = clients[0]
            before = set(lead.client.installed_digests)
            delta = lead.client.sync(lead.engine)
            if delta.cold:
                fail("second sync should be incremental, not cold")
            if not set(delta.digests).isdisjoint(before):
                fail("delta sync re-transferred an installed bundle")
            for client in clients:
                client.client.close()

        for client in clients:
            offline = offline_coverage(client.benchmark)
            gap = abs(client.online_coverage - offline)
            print(
                f"service_gate: {client.benchmark}: online "
                f"{client.online_coverage:.4f} vs offline "
                f"{offline:.4f} (|delta| {gap:.4f})"
            )
            if gap > COVERAGE_TOLERANCE:
                fail(
                    f"{client.benchmark}: online coverage "
                    f"{client.online_coverage:.4f} not within "
                    f"{COVERAGE_TOLERANCE:.0%} of offline {offline:.4f}"
                )

        client_records = read_trace(str(trace_path))
        problems = reconcile(aggregate(client_records))
        if problems:
            fail("trace reconciliation: " + "; ".join(problems))
        print("service_gate: trace reconciliation OK")

        # The stitched-timeline check needs the server's flushed trace.
        stop_process(server)
        try:
            stitched = stitch([
                (str(trace_path), client_records),
                (str(server_trace_path),
                 read_trace(str(server_trace_path))),
            ])
        except TraceError as exc:
            fail(f"stitch: {exc}")
        summary = stitched.latency_summary()
        if summary["count"] < 1:
            fail(
                "stitch: no gap completed the capture -> settled -> "
                "hot-install journey across the client+server traces"
            )
        print(
            "service_gate: stitched gap->install latency: "
            f"count {summary['count']}, p50 {summary['p50']:.1f}ms, "
            f"p95 {summary['p95']:.1f}ms"
        )
    finally:
        stop_process(server)

    print("service_gate: PASS")


if __name__ == "__main__":
    main()
