#!/usr/bin/env python
"""SLO gate: burn-rate objectives hold on the service-gate workload.

Boots a real ``repro-serve`` process with the checked-in ``slo.toml``
and the sampling profiler on, drives one DBT client through the full
gap -> learn -> hot-install cycle, and then checks the production
observability surface end to end:

* the ``metrics`` op returns the full frame — metrics snapshot, live
  telemetry, the server-side SLO report, and the live profile;
* the frame renders as **valid Prometheus exposition text** (the
  strict parser from :mod:`repro.obs.export` must accept it);
* no server-side objective (per-op latency burn rates) is breaching;
* the client+server traces stitch, and the stitched gap->install
  latency sketch plus the verification throughput derived from the
  frame satisfy the offline objectives in ``slo.toml``
  (``hot-install-convergence``, ``verify-throughput``).

Exit status 0 means the gate passed.  Run from the repo root:

    PYTHONPATH=src python scripts/slo_gate.py

Set ``REPRO_GATE_ARTIFACT_DIR`` to keep the working directory at a
known path; the gate writes ``slo_report.json``, ``profile.json`` and
``exposition.txt`` there for CI artifact upload.
"""

import json
import subprocess
import sys
from functools import partial
from pathlib import Path

import gate_harness
from gate_harness import stop_process

from repro.benchsuite import build_benchmark
from repro.dbt.engine import DBTEngine
from repro.obs.export import (
    ExpositionError,
    parse_exposition,
    render_exposition,
)
from repro.obs.report import stitch
from repro.obs.trace import TraceError, read_trace, tracing
from repro.obs.slo import SloEngine, slo_report_lines
from repro.service.client import RuleServiceClient

GATE = "slo_gate"
GATE_BENCHMARK = "mcf"
SLO_TOML = Path("slo.toml")
PROFILE_HZ = 97

fail = partial(gate_harness.fail, GATE)


def drive_workload(socket_path: Path) -> None:
    """One client through the whole online-learning loop."""
    guest = build_benchmark(GATE_BENCHMARK)
    with RuleServiceClient(socket_path=str(socket_path)) as client:
        engine = DBTEngine(guest, "rules", gap_sink=client.recorder)
        first = engine.run()
        if client.report_gaps() == 0:
            fail("no gaps captured on the empty-store run")
        client.flush()
        result = client.sync(engine)
        if result.rules_installed == 0:
            fail("sync installed no rules")
        second = engine.run()
        if second.return_value != first.return_value:
            fail("hot-install changed the benchmark result")


def fetch_frame(socket_path: Path) -> dict:
    with RuleServiceClient(socket_path=str(socket_path)) as client:
        return client.metrics()


def throughput_gauges(frame: dict) -> dict:
    """Derive ``gauge:verified_per_s`` from the frame: the online
    learner's solver calls per second of verification wall-clock
    (both counters ride home in the worker snapshots)."""
    counters = frame["metrics"]["counters"]
    calls = counters.get("learning.worker.verify_calls", 0)
    seconds = counters.get("learning.worker.seconds", 0.0)
    if not calls or seconds <= 0:
        return {}
    return {"gauge:verified_per_s": calls / seconds}


def main() -> None:
    tmp = gate_harness.work_dir(GATE)
    if not SLO_TOML.exists():
        fail(f"{SLO_TOML} not found (run from the repo root)")
    socket_path = tmp / "rules.sock"
    trace_path = tmp / "clients.jsonl"
    server_trace_path = tmp / "server.jsonl"
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service.server",
            "--repo", str(tmp / "repo"),
            "--socket", str(socket_path),
            "--corpus", GATE_BENCHMARK,
            "--no-auto-learn",
            "--no-cache",
            "--trace", str(server_trace_path),
            "--slo", str(SLO_TOML),
            "--profile-hz", str(PROFILE_HZ),
        ],
    )
    try:
        gate_harness.wait_for_socket(GATE, socket_path, server)
        with tracing(str(trace_path)):
            drive_workload(socket_path)
            frame = fetch_frame(socket_path)
    finally:
        stop_process(server)

    # -- the frame must carry the whole observability surface ------------
    for key in ("metrics", "telemetry", "slo", "profile"):
        if key not in frame:
            fail(f"metrics op frame is missing {key!r}")
    (tmp / "slo_report.json").write_text(
        json.dumps(frame["slo"], indent=2, sort_keys=True)
    )
    (tmp / "profile.json").write_text(
        json.dumps(frame["profile"], indent=2, sort_keys=True)
    )

    # -- and render as valid Prometheus text -----------------------------
    text = render_exposition(
        metrics=frame["metrics"],
        telemetry=frame["telemetry"],
        slo=frame["slo"],
        profile=frame["profile"],
    )
    (tmp / "exposition.txt").write_text(text)
    try:
        samples = parse_exposition(text)
    except ExpositionError as exc:
        fail(f"exposition text invalid: {exc}")
    print(f"slo_gate: exposition OK ({len(samples)} samples)")

    # -- server-side burn rates must be under budget ----------------------
    print("slo_gate: server-side objectives:")
    for line in slo_report_lines(frame["slo"]):
        print(f"slo_gate:{line}")
    if frame["slo"]["breaches"]:
        fail(
            "server-side SLO breach: "
            + ", ".join(frame["slo"]["breaches"])
        )

    # -- offline objectives: stitch + throughput --------------------------
    try:
        client_records = read_trace(str(trace_path))
        server_records = read_trace(str(server_trace_path))
        stitched = stitch([
            (str(trace_path), client_records),
            (str(server_trace_path), server_records),
        ])
    except TraceError as exc:
        fail(f"stitch: {exc}")
    summary = stitched.latency_summary()
    if summary["count"] < 1:
        fail("no gap completed the capture -> install journey")
    print(
        "slo_gate: stitched gap->install latency: "
        f"count {summary['count']}, p99 {summary['p99']:.1f}ms"
    )
    offline = SloEngine.from_toml(str(SLO_TOML))
    report = offline.evaluate(
        sketches={"stitch:gap_install": stitched.latency_sketch()},
        gauges=throughput_gauges(frame),
    )
    print("slo_gate: offline objectives:")
    for line in slo_report_lines(report):
        print(f"slo_gate:{line}")
    # Latency objectives saw no offline events and stay quiet here;
    # the quantile/gauge objectives must hold.
    if report["breaches"]:
        fail("offline SLO breach: " + ", ".join(report["breaches"]))

    print("slo_gate: PASS")


if __name__ == "__main__":
    main()
