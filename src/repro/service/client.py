"""The DBT-side rule-service client: sync, gap upload, hot-install.

A :class:`RuleServiceClient` talks the length-prefixed JSON protocol
over a unix socket or TCP.  Its lifecycle against a live engine:

* **cold start** — :meth:`sync` with ``generation == 0`` fetches the
  manifest, verifies its signature when the client holds the shared
  repository key, and installs every compatible bundle;
* **gap reporting** — a :class:`~repro.service.gaps.GapRecorder`
  installed as the engine's ``gap_sink`` canonicalizes rule-table
  misses; :meth:`report_gaps` uploads the drained batch;
* **delta sync** — subsequent :meth:`sync` calls ask only for bundles
  newer than the client's generation and hot-install them into the
  engine (``engine.hot_install``), which invalidates and lazily
  retranslates affected cached blocks;
* **mid-run autosync** — :meth:`attach` wires the recorder plus a
  dispatch-loop ``tick`` that periodically reports gaps and pulls
  deltas *while the guest is running*.

Failover: with ``retries > 0`` every request retries transport
failures (reset, timeout, truncated frame, refused reconnect) with
exponential backoff plus deterministic jitter, reconnecting a fresh
socket per attempt; ``retries=0`` (the default) preserves single-shot
semantics.  All retried operations are idempotent by construction:
gap reports dedup server-side by digest, syncs dedup client-side by
installed digest, and reads are pure.  An attached engine **never**
errors out of ``run()`` because the service is unreachable: the tick
degrades to read-only stale mode (keep translating with the
last-synced rules, surfaced via the ``degraded`` flag and the
``service.client.degraded`` gauge metric) and recovers automatically
when a later tick reaches the fleet again.

Bundle compatibility: a bundle is installed only when its direction
matches and its semantics version equals the client's
:data:`~repro.learning.cache.SEMANTICS_VERSION` — the same staleness
rule the verification cache enforces on verdicts.  Every bundle body
is verified against its content digest before any rule is decoded.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass, field

from repro.learning.cache import SEMANTICS_VERSION
from repro.obs.trace import get_tracer
from repro.service.gaps import GapRecorder
from repro.service.protocol import (
    ProtocolError,
    attach_trace,
    recv_message,
    send_message,
)
from repro.service.repo import BundleError, verify_bundle, verify_manifest


class ServiceError(ConnectionError):
    """The server answered with an error envelope."""


@dataclass
class SyncResult:
    """Summary of one :meth:`RuleServiceClient.sync`."""

    cold: bool = False
    generation: int = 0
    bundles: int = 0
    rules_fetched: int = 0
    rules_installed: int = 0
    blocks_invalidated: int = 0
    skipped_incompatible: int = 0
    digests: list[str] = field(default_factory=list)


class RuleServiceClient:
    """One connection to a rule server, plus client-side sync state."""

    def __init__(
        self,
        socket_path: str | None = None,
        address: tuple[str, int] | None = None,
        direction: str = "arm-x86",
        semantics_version: int = SEMANTICS_VERSION,
        manifest_key: bytes | None = None,
        timeout: float | None = 30.0,
        retries: int = 0,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        backoff_jitter: float = 0.25,
        op_timeouts: dict[str, float] | None = None,
    ) -> None:
        if (socket_path is None) == (address is None):
            raise ValueError("pass exactly one of socket_path / address")
        if retries < 0:
            raise ValueError(f"retries must be >= 0: {retries}")
        self.direction = direction
        self.semantics_version = semantics_version
        self.manifest_key = manifest_key
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.backoff_jitter = backoff_jitter
        #: Per-op deadline overrides (e.g. ``{"flush": 600.0}``); ops
        #: not listed use ``timeout``.
        self.op_timeouts = dict(op_timeouts or {})
        #: Last manifest generation this client synced to.
        self.generation = 0
        #: Content digests already installed (idempotence guard).
        self.installed_digests: set[str] = set()
        #: True while an attached engine runs on stale rules because
        #: the service is unreachable (read-only degraded mode).
        self.degraded = False
        self.recorder = GapRecorder(direction)
        self._socket_path = socket_path
        self._address = address
        # Jitter is deterministic per endpoint so failure schedules
        # replay identically in the chaos gates.
        self._rng = random.Random(repr((socket_path, address)))
        self._sock: socket.socket | None = None
        # The initial connect honors the retry budget too, so a client
        # racing a (re)starting server comes up instead of erroring.
        for attempt in range(self.retries + 1):
            try:
                self._connect()
                break
            except OSError:
                if attempt == self.retries:
                    raise
                time.sleep(self._backoff(attempt))

    # -- plumbing ------------------------------------------------------------

    def _connect(self) -> None:
        if self._sock is not None:
            return
        if self._socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            try:
                sock.connect(self._socket_path)
            except OSError:
                sock.close()
                raise
            self._sock = sock
        else:
            self._sock = socket.create_connection(
                self._address, timeout=self.timeout
            )

    def _teardown(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _backoff(self, attempt: int) -> float:
        """Exponential backoff with deterministic jitter."""
        delay = min(self.backoff_max,
                    self.backoff_base * (2.0 ** attempt))
        return delay * (1.0 + self.backoff_jitter * self._rng.random())

    def request(self, op: str, **fields) -> dict:
        """One request/response exchange, with bounded retry.

        Transport failures (reset, timeout, truncated frame, refused
        reconnect) are retried up to ``retries`` times over fresh
        connections with exponential backoff + jitter; server-side
        error envelopes raise :class:`ServiceError` immediately — the
        connection is healthy, retrying cannot help.
        """
        message = {"op": op}
        message.update(fields)
        # Requests sent from inside a span carry its context, so the
        # server's handling span joins this client's trace.
        attach_trace(message, get_tracer().inject())
        deadline = self.op_timeouts.get(op, self.timeout)
        attempts = self.retries + 1
        for attempt in range(attempts):
            try:
                self._connect()
                if self._sock.gettimeout() != deadline:
                    self._sock.settimeout(deadline)
                send_message(self._sock, message)
                response = recv_message(self._sock)
                if response is None:
                    raise ProtocolError("server closed the connection")
            except OSError as exc:
                # ProtocolError and ConnectionError both subclass
                # OSError; ServiceError is raised below, outside this
                # try, so it never lands here.
                self._teardown()
                if attempt == attempts - 1:
                    raise
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.event(
                        "service.client.retry", op=op,
                        attempt=attempt + 1,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                time.sleep(self._backoff(attempt))
                continue
            if not response.get("ok"):
                raise ServiceError(
                    response.get("error", "unknown error")
                )
            return response
        raise AssertionError("unreachable")  # pragma: no cover

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "RuleServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- operations ----------------------------------------------------------

    def ping(self) -> dict:
        return self.request("ping")

    def stats(self) -> dict:
        return self.request("stats")

    def health(self) -> dict:
        """The server's liveness/readiness frame (fleet-aware servers
        also report per-shard state)."""
        return self.request("health")

    def metrics(self) -> dict:
        """The server's full observability frame: metrics snapshot,
        live telemetry, and (when enabled server-side) the SLO report
        and profiler snapshot — what ``python -m repro.obs.export``
        renders as Prometheus text."""
        return self.request("metrics")

    def manifest(self) -> dict:
        """The server's manifest payload (signature-verified when the
        client holds the repository key)."""
        manifest = self.request("manifest")["manifest"]
        if self.manifest_key is not None:
            return verify_manifest(manifest, self.manifest_key)
        payload = manifest.get("payload")
        if not isinstance(payload, dict):
            raise BundleError("manifest carries no payload")
        return payload

    def fetch_rules(self, digest: str) -> list:
        """One bundle's rules, verified against the content digest."""
        response = self.request("bundle", digest=digest)
        return verify_bundle(response["bundle"], digest)

    def report_gaps(self) -> int:
        """Upload the recorder's drained batch; returns gaps sent."""
        report = self.recorder.drain()
        if not report:
            return 0
        with get_tracer().span("service.report_gaps", gaps=len(report)):
            response = self.request("report_gaps", gaps=report)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "service.gap_report",
                gaps=len(report),
                new=response.get("new", 0),
            )
        return len(report)

    def flush(self) -> dict:
        """Ask the server to run a learning round now."""
        return self.request("flush")

    def ingest_source(self, source: str, origin: str | None = None,
                      styles: tuple[str, ...] = ("llvm", "gcc"),
                      opt_level: int = 2) -> dict:
        """Hand one corpus program to the server's online learner.

        The server compiles ``source`` in both codegen styles, stages
        its candidates under the ``corpus:<digest>`` origin, and queues
        synthetic whole-function gaps; a following :meth:`flush` (or
        the server's auto-learn scheduler) runs the verification round.
        """
        fields = {"source": source, "styles": list(styles),
                  "opt_level": opt_level}
        if origin is not None:
            fields["origin"] = origin
        with get_tracer().span("service.ingest_source"):
            return self.request("ingest_source", **fields)

    # -- sync + hot-install --------------------------------------------------

    def _compatible(self, entry: dict) -> bool:
        return (
            entry.get("direction") == self.direction
            and entry.get("semantics") == self.semantics_version
        )

    def sync(self, engine) -> SyncResult:
        """Pull new bundles and hot-install them into ``engine``.

        Cold start (generation 0) walks the full signed manifest;
        afterwards only the delta since the last synced generation
        moves over the wire.  Rules install through
        ``engine.hot_install``, so affected translated blocks are
        invalidated and retranslate lazily.
        """
        result = SyncResult(cold=self.generation == 0)
        tracer = get_tracer()
        with tracer.span("service.sync", cold=result.cold,
                         since=self.generation):
            if result.cold:
                payload = self.manifest()
                generation = payload["generation"]
                entries = payload["bundles"]
            else:
                response = self.request("delta", since=self.generation)
                generation = response["generation"]
                entries = response["entries"]
            installed = invalidated = fetched = 0
            for entry in entries:
                digest = entry.get("digest", "")
                if digest in self.installed_digests:
                    continue
                if not self._compatible(entry):
                    result.skipped_incompatible += 1
                    continue
                rules = self.fetch_rules(digest)
                fetched += len(rules)
                new_rules, newly_invalid = engine.hot_install(
                    rules, source="sync", digest=digest
                )
                installed += new_rules
                invalidated += newly_invalid
                self.installed_digests.add(digest)
                result.bundles += 1
                result.digests.append(digest)
            self.generation = max(self.generation, generation)
            result.generation = self.generation
            result.rules_fetched = fetched
            result.rules_installed = installed
            result.blocks_invalidated = invalidated
        if tracer.enabled:
            tracer.event(
                "service.sync_result",
                cold=result.cold,
                generation=result.generation,
                bundles=result.bundles,
                rules_fetched=result.rules_fetched,
                rules_installed=result.rules_installed,
                blocks_invalidated=result.blocks_invalidated,
            )
        return result

    # -- live-engine wiring --------------------------------------------------

    def attach(self, engine, every: int = 256,
               flush: bool = False) -> None:
        """Wire this client into a live engine.

        Installs the gap recorder as the engine's ``gap_sink`` and a
        dispatch-loop ``tick`` that, every ``every`` dispatches,
        uploads pending gaps and pulls + hot-installs any new bundles —
        the mid-run online-learning loop.  ``flush=True`` additionally
        asks the server to learn synchronously each tick (deterministic
        single-client runs; fleets rely on the server's own scheduler).

        Graceful degradation: a tick that cannot reach the service
        (even after the client's retry budget) never raises into the
        dispatch loop — the engine keeps translating with its
        last-synced rules, ``degraded`` flips on (traced as a
        ``service.client.degraded`` event), and a later successful tick
        flips it back off.
        """
        engine.gap_sink = self.recorder
        counter = {"dispatches": 0}

        def tick(eng) -> None:
            counter["dispatches"] += 1
            if counter["dispatches"] % every:
                return
            try:
                reported = self.report_gaps()
                if reported and flush:
                    self.flush()
                self.sync(eng)
            except (ServiceError, OSError) as exc:
                self._enter_degraded(exc)
                return
            if self.degraded:
                self._leave_degraded()

        engine.tick = tick

    def _enter_degraded(self, exc: Exception) -> None:
        if not self.degraded:
            self.degraded = True
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "service.client.degraded", entered=True,
                    error=f"{type(exc).__name__}: {exc}",
                )

    def _leave_degraded(self) -> None:
        self.degraded = False
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("service.client.degraded", entered=False)

    def detach(self, engine) -> None:
        engine.gap_sink = None
        engine.tick = None
