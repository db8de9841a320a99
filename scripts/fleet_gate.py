#!/usr/bin/env python
"""Fleet chaos gate: shard churn must not break the online contract.

Boots a 3-shard ``repro-serve`` fleet behind a ``repro-fleet``
coordinator, drives a dozen concurrent DBT clients through it, and —
mid-run — SIGKILLs shards on a deterministic
:class:`~repro.faults.plan.KillSchedule`, restarting each after its
downtime (one comes back with an **empty** repository, exercising the
full journal catch-up; one keeps its directory).  The run must end
with the single-server guarantees intact:

* no client ever raises out of ``engine.run()`` — ticks that cannot
  reach the fleet degrade to stale-rules mode and recover;
* every client's synced generation sequence is monotone (the
  coordinator's journal is the fleet generation);
* no client hot-installs the same bundle digest twice;
* after the churn settles, fresh engines reach dynamic rule coverage
  within 1% of offline leave-nothing-out learning per benchmark —
  gaps routed to a shard that died are redelivered, re-learned, and
  served by the survivors;
* at least two shard kills actually happened while clients were
  running, and the coordinator observed them;
* the client + shard + coordinator traces stitch into an end-to-end
  gap -> hot-install latency distribution.

Artifacts: ``fleet_report.json`` (full verdict), ``BENCH_fleet.json``
(throughput/latency baseline payload for ``bench_compare.py``), plus
per-shard-incarnation trace files.  Exit status 0 means the gate
passed.  Run from the repo root:

    PYTHONPATH=src python scripts/fleet_gate.py

Set ``REPRO_GATE_ARTIFACT_DIR`` to keep the working directory at a
known path for CI artifact upload.
"""

import json
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import gate_harness
from gate_harness import offline_coverage, stop_process

from repro.benchsuite import build_benchmark
from repro.dbt.engine import DBTEngine
from repro.faults import KillSchedule
from repro.obs.report import aggregate, reconcile, stitch
from repro.obs.trace import TraceError, read_trace, tracing
from repro.service.client import RuleServiceClient

GATE = "fleet_gate"
SHARD_IDS = ("a", "b", "c")
GATE_BENCHMARKS = ("mcf", "libquantum")
CLIENTS = 12
COVERAGE_TOLERANCE = 0.01
PHASE_TIMEOUT = 600
#: Two staggered kills while clients run; shard a returns with an
#: empty repository (full catch-up), shard b keeps its directory.
KILL_SCHEDULE = KillSchedule.staggered(("a", "b"), first=1.0,
                                       spacing=2.5, downtime=1.0)
FRESH_RESTART_SHARDS = {"a"}

fail = partial(gate_harness.fail, GATE)


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def read_trace_tolerant(path: Path) -> list:
    """A SIGKILLed shard leaves a torn trace tail; keep what parses."""
    records = []
    try:
        text = path.read_text()
    except OSError:
        return records
    from repro.obs.trace import decode_line

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            records.append(decode_line(line))
        except (TraceError, ValueError, KeyError):
            break  # torn tail: everything after is suspect
    return records


class ShardProc:
    """One shard's subprocess across kill/restart incarnations."""

    def __init__(self, tmp: Path, shard_id: str) -> None:
        self.tmp = tmp
        self.shard_id = shard_id
        self.socket_path = tmp / f"shard-{shard_id}.sock"
        self.repo_epoch = 0
        self.spawns = 0
        self.proc: subprocess.Popen | None = None
        self.trace_paths: list[Path] = []

    def spawn(self, fresh: bool = False,
              join_fleet: bool = False) -> None:
        if fresh:
            self.repo_epoch += 1
        trace = self.tmp / (
            f"shard-{self.shard_id}-{self.spawns}.jsonl"
        )
        self.trace_paths.append(trace)
        self.spawns += 1
        repo = self.tmp / (
            f"shard-{self.shard_id}-repo-{self.repo_epoch}"
        )
        args = [
            sys.executable, "-m", "repro.service.server",
            "--repo", str(repo),
            "--socket", str(self.socket_path),
            "--corpus", ",".join(GATE_BENCHMARKS),
            "--no-auto-learn", "--no-cache",
            "--trace", str(trace),
        ]
        if join_fleet:
            args.append("--join-fleet")
        self.proc = subprocess.Popen(args)

    def kill(self) -> None:
        """SIGKILL: no drain, no cleanup — a real crash."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def stop(self) -> None:
        """Graceful stop (SIGINT) so the trace tail flushes."""
        stop_process(self.proc, timeout=15)


class ChaosThread(threading.Thread):
    """Fires the kill schedule against live shard subprocesses."""

    def __init__(self, shards: dict[str, ShardProc],
                 schedule: KillSchedule) -> None:
        super().__init__(name="chaos")
        self.shards = shards
        self.schedule = schedule
        self.kills: list[str] = []
        self.restarts: list[str] = []
        self.abort = threading.Event()

    def run(self) -> None:
        start = time.monotonic()
        fired: set[int] = set()
        pending: list[tuple[float, str]] = []
        while (len(fired) < len(self.schedule.events) or pending):
            if self.abort.is_set():
                break
            elapsed = time.monotonic() - start
            for index, event in self.schedule.due(elapsed, fired):
                fired.add(index)
                self.shards[event.shard].kill()
                self.kills.append(event.shard)
                print(f"fleet_gate: killed shard {event.shard} at "
                      f"t+{elapsed:.1f}s", file=sys.stderr)
                pending.append((elapsed + event.downtime, event.shard))
            for item in list(pending):
                due_at, shard_id = item
                if elapsed >= due_at:
                    pending.remove(item)
                    fresh = shard_id in FRESH_RESTART_SHARDS
                    self.shards[shard_id].spawn(fresh=fresh,
                                                join_fleet=True)
                    self.restarts.append(shard_id)
                    print(f"fleet_gate: restarted shard {shard_id} "
                          f"({'fresh repo' if fresh else 'same repo'}, "
                          f"--join-fleet)", file=sys.stderr)
            time.sleep(0.05)


class ClientRun(threading.Thread):
    """One DBT client attached through the coordinator, under churn."""

    def __init__(self, index: int, benchmark: str,
                 fleet_socket: str) -> None:
        super().__init__(name=f"client-{index}")
        self.benchmark = benchmark
        self.fleet_socket = fleet_socket
        self.flushes = index % 3 == 0
        self.error: str | None = None
        self.generations: list[int] = []
        self.digests: list[str] = []
        self.sync_seconds: list[float] = []
        self.gaps_reported = 0
        self.was_degraded = False

    def _instrument(self, client: RuleServiceClient) -> None:
        original_sync = client.sync
        original_report = client.report_gaps

        def timed_sync(engine):
            begin = time.perf_counter()
            result = original_sync(engine)
            self.sync_seconds.append(time.perf_counter() - begin)
            self.generations.append(result.generation)
            self.digests.extend(result.digests)
            return result

        def counted_report():
            sent = original_report()
            self.gaps_reported += sent
            return sent

        client.sync = timed_sync
        client.report_gaps = counted_report

    def run(self) -> None:
        try:
            self._drive()
        except Exception as exc:  # surfaced by the main thread
            self.error = f"{type(exc).__name__}: {exc}"

    def _drive(self) -> None:
        guest = build_benchmark(self.benchmark)
        client = RuleServiceClient(
            socket_path=self.fleet_socket, retries=4,
            backoff_base=0.05, op_timeouts={"flush": 600.0},
        )
        self._instrument(client)
        try:
            engine = DBTEngine(guest, "rules")
            client.attach(engine, every=64, flush=self.flushes)
            result = engine.run()
            if result is None:
                raise AssertionError("engine produced no result")
            self.was_degraded = self.was_degraded or client.degraded
            # One more tick's worth of explicit traffic; every op here
            # rides the retry/degrade machinery under churn too.
            client.report_gaps()
            try:
                client.flush()
                client.sync(engine)
            except (ConnectionError, OSError):
                # Fleet momentarily unreachable past the retry budget:
                # that is what degraded mode is for; the convergence
                # phase below settles the rest.
                self.was_degraded = True
        finally:
            client.close()


class ConvergedRun(threading.Thread):
    """Post-churn client: fresh engine + recorder must reach parity.

    A fresh recorder re-captures whatever windows are *still*
    uncovered (per-session dedup never re-reports a drained digest),
    so this phase proves the fleet converges even if a shard died
    holding unlearned gaps.
    """

    def __init__(self, benchmark: str, fleet_socket: str) -> None:
        super().__init__(name=f"converge-{benchmark}")
        self.benchmark = benchmark
        self.fleet_socket = fleet_socket
        self.error: str | None = None
        self.generations: list[int] = []
        self.digests: list[str] = []
        self.sync_seconds: list[float] = []
        self.online_coverage = 0.0

    def run(self) -> None:
        try:
            self._drive()
        except Exception as exc:
            self.error = f"{type(exc).__name__}: {exc}"

    def _drive(self) -> None:
        guest = build_benchmark(self.benchmark)
        client = RuleServiceClient(
            socket_path=self.fleet_socket, retries=6,
            backoff_base=0.05, op_timeouts={"flush": 600.0},
        )
        try:
            engine = DBTEngine(guest, "rules",
                               gap_sink=client.recorder)
            first = engine.run()
            client.report_gaps()
            client.flush()
            begin = time.perf_counter()
            result = client.sync(engine)
            self.sync_seconds.append(time.perf_counter() - begin)
            self.generations.append(result.generation)
            self.digests.extend(result.digests)
            second = engine.run()
            if second.return_value != first.return_value:
                raise AssertionError(
                    f"hot-install changed the result: "
                    f"{second.return_value} != {first.return_value}"
                )
            self.online_coverage = engine.last_run.dynamic_coverage
        finally:
            client.close()


def wait_for_fleet_ready(socket_path: str, want_shards: int,
                         timeout: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout
    last = {}
    while time.monotonic() < deadline:
        try:
            with RuleServiceClient(socket_path=socket_path,
                                   retries=2) as client:
                last = client.health()
        except (ConnectionError, OSError):
            time.sleep(0.2)
            continue
        if last.get("ready_shards", 0) >= want_shards:
            return last
        time.sleep(0.2)
    fail(f"fleet never reached {want_shards} ready shard(s); "
         f"last health: {last}")
    raise AssertionError  # pragma: no cover


def main() -> None:
    tmp = gate_harness.work_dir(GATE)

    shards = {sid: ShardProc(tmp, sid) for sid in SHARD_IDS}
    for shard in shards.values():
        shard.spawn()
    fleet_socket = tmp / "fleet.sock"
    fleet_trace = tmp / "fleet.jsonl"
    clients_trace = tmp / "clients.jsonl"
    coordinator = None
    chaos = ChaosThread(shards, KILL_SCHEDULE)
    try:
        for shard in shards.values():
            gate_harness.wait_for_socket(GATE, shard.socket_path,
                                         shard.proc,
                                         f"shard {shard.shard_id}")
        coordinator = subprocess.Popen([
            sys.executable, "-m", "repro.service.fleet",
            "--dir", str(tmp / "journal"),
            "--socket", str(fleet_socket),
            "--reconnect-interval", "0.2",
            "--trace", str(fleet_trace),
            *(part
              for shard in shards.values()
              for part in ("--shard",
                           f"{shard.shard_id}={shard.socket_path}")),
        ])
        gate_harness.wait_for_socket(GATE, fleet_socket, coordinator,
                                     "coordinator")
        wait_for_fleet_ready(str(fleet_socket), len(SHARD_IDS))

        # -- churn phase: concurrent clients + scheduled kills --------
        churn_begin = time.monotonic()
        with tracing(str(clients_trace)):
            runs = [
                ClientRun(i, GATE_BENCHMARKS[i % len(GATE_BENCHMARKS)],
                          str(fleet_socket))
                for i in range(CLIENTS)
            ]
            chaos.start()
            for run in runs:
                run.start()
            for run in runs:
                run.join(timeout=PHASE_TIMEOUT)
                if run.is_alive():
                    fail(f"{run.name} timed out")
                if run.error:
                    fail(f"{run.name}: {run.error}")
            chaos.join(timeout=60)
            if chaos.is_alive():
                chaos.abort.set()
                chaos.join(timeout=10)
            churn_seconds = time.monotonic() - churn_begin

            # -- convergence phase: all shards back, parity required --
            wait_for_fleet_ready(str(fleet_socket), len(SHARD_IDS))
            converged = [
                ConvergedRun(name, str(fleet_socket))
                for name in GATE_BENCHMARKS
            ]
            for run in converged:
                run.start()
            for run in converged:
                run.join(timeout=PHASE_TIMEOUT)
                if run.is_alive():
                    fail(f"{run.name} timed out")
                if run.error:
                    fail(f"{run.name}: {run.error}")

            with RuleServiceClient(socket_path=str(fleet_socket),
                                   retries=2) as probe:
                health = probe.health()
                stats = probe.stats()

        # -- assertions -----------------------------------------------
        if len(chaos.kills) < 2:
            fail(f"only {len(chaos.kills)} shard kill(s) fired; "
                 f"need >= 2")
        if sorted(chaos.restarts) != sorted(chaos.kills):
            fail(f"kills {chaos.kills} vs restarts {chaos.restarts}")
        observed = sum(
            link.get("kills_observed", 0)
            for link in health.get("shards", {}).values()
        )
        if observed < len(chaos.kills):
            fail(f"coordinator observed {observed} kill(s), "
                 f"chaos fired {len(chaos.kills)}")
        if health.get("ready_shards") != len(SHARD_IDS):
            fail(f"fleet ended with {health.get('ready_shards')} "
                 f"ready shard(s)")

        everyone = list(runs) + list(converged)
        for run in everyone:
            if run.generations != sorted(run.generations):
                fail(f"{run.name}: synced generations not monotone: "
                     f"{run.generations}")
            if len(run.digests) != len(set(run.digests)):
                fail(f"{run.name}: duplicate hot-install digests")
        degraded_runs = sum(1 for run in runs if run.was_degraded)

        coverage = {}
        for run in converged:
            offline = offline_coverage(run.benchmark)
            delta = abs(run.online_coverage - offline)
            coverage[run.benchmark] = {
                "online": run.online_coverage,
                "offline": offline,
                "delta": delta,
            }
            print(f"fleet_gate: {run.benchmark}: online "
                  f"{run.online_coverage:.4f} vs offline "
                  f"{offline:.4f} (|delta| {delta:.4f})")
            if delta > COVERAGE_TOLERANCE:
                fail(f"{run.benchmark}: online coverage "
                     f"{run.online_coverage:.4f} not within "
                     f"{COVERAGE_TOLERANCE:.0%} of offline "
                     f"{offline:.4f}")

        client_records = read_trace(str(clients_trace))
        problems = reconcile(aggregate(client_records))
        if problems:
            fail("trace reconciliation: " + "; ".join(problems))

        # -- stitched latency + throughput ----------------------------
        for shard in shards.values():
            shard.stop()
        stop_process(coordinator, timeout=15)

        sources = [(str(clients_trace), client_records)]
        for shard in shards.values():
            for path in shard.trace_paths:
                records = read_trace_tolerant(path)
                if records:
                    sources.append((str(path), records))
        fleet_records = read_trace_tolerant(fleet_trace)
        if fleet_records:
            sources.append((str(fleet_trace), fleet_records))
        try:
            stitched = stitch(sources)
        except TraceError as exc:
            fail(f"stitch: {exc}")
        install_summary = stitched.latency_summary()
        if install_summary["count"] < 1:
            fail("stitch: no gap completed the capture -> settled -> "
                 "hot-install journey under churn")

        gaps_accepted = (stats.get("fleet", {}).get("gaps_routed", 0)
                         + stats.get("fleet", {})
                               .get("gaps_queued_total", 0))
        gaps_per_second = gaps_accepted / max(churn_seconds, 1e-9)
        sync_seconds = [
            s for run in everyone for s in run.sync_seconds
        ]
        sync_p99_ms = percentile(sync_seconds, 0.99) * 1000.0
        print(f"fleet_gate: {len(chaos.kills)} kill(s), "
              f"{degraded_runs}/{len(runs)} client(s) degraded, "
              f"{gaps_accepted} gaps in {churn_seconds:.1f}s "
              f"({gaps_per_second:.1f}/s), sync p99 "
              f"{sync_p99_ms:.1f}ms, install p99 "
              f"{install_summary['p99']:.1f}ms "
              f"(count {install_summary['count']})")

        report = {
            "shards": len(SHARD_IDS),
            "clients": CLIENTS,
            "kills": len(chaos.kills),
            "restarts": chaos.restarts,
            "fresh_restarts": sorted(FRESH_RESTART_SHARDS),
            "degraded_clients": degraded_runs,
            "churn_seconds": round(churn_seconds, 3),
            "gaps_accepted": gaps_accepted,
            "gaps_per_second": round(gaps_per_second, 3),
            "sync_p99_ms": round(sync_p99_ms, 3),
            "install_latency_ms": install_summary,
            "coverage": coverage,
            "generation": health.get("generation"),
            "catchups": stats.get("fleet", {}).get("catchups"),
            "health": health,
        }
        (tmp / "fleet_report.json").write_text(
            json.dumps(report, indent=1, default=str)
        )
        bench = {
            "bench": "fleet_gate",
            "shards": len(SHARD_IDS),
            "clients": CLIENTS,
            "kills": len(chaos.kills),
            "gaps_accepted": gaps_accepted,
            "gaps_per_second": round(gaps_per_second, 3),
            "sync_p99_ms": round(sync_p99_ms, 3),
            "install_p99_ms": round(install_summary["p99"], 3),
            "stitched_installs": install_summary["count"],
        }
        (tmp / "BENCH_fleet.json").write_text(
            json.dumps(bench, indent=1)
        )
        print(f"fleet_gate: artifacts in {tmp}")
    finally:
        chaos.abort.set()
        for shard in shards.values():
            shard.stop()
            shard.kill()
        stop_process(coordinator)

    print("fleet_gate: PASS")


if __name__ == "__main__":
    main()
