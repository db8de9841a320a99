"""The rule server: serve bundles, accept gap reports, learn online.

:class:`RuleService` is the transport-independent request handler —
every operation is a pure ``dict -> dict`` call, which is what the
unit tests exercise.  :class:`AsyncRuleServer` serves it over the
asyncio length-prefixed JSON transport (:class:`AsyncEndpoint`, unix
socket or TCP), and ``repro-serve`` (:func:`main`) is the CLI entry
point.  The fleet coordinator (:mod:`repro.service.fleet`) reuses all
three layers: a :class:`RuleService` over its journal answers the ops
it does not route, its own async ops run inside the same
:meth:`RuleService.envelope`, and it listens on the same transport and
run loop (:func:`serve_until_signal`).

Operations (requests are ``{"op": ...}``; responses ``{"ok": true}``
envelopes, see :mod:`repro.service.protocol`):

``ping``
    Liveness + the server's direction and semantics version.
``manifest``
    The signed repository manifest.
``bundle``
    One immutable bundle by content digest.
``delta``
    Manifest entries newer than the client's generation.
``report_gaps``
    Batched canonicalized translation gaps.  New gaps are queued for
    the online learning scheduler; with ``auto_learn`` the server
    coalesces reports for ``auto_learn_delay`` seconds and then runs a
    learning round in the event loop's default executor (so serving
    stays responsive while the solver grinds).
``flush``
    Run a learning round on the pending gaps *now* and publish the
    resulting bundle; the deterministic path tests and scripted
    clients use.
``stats``
    Gap/bundle/learning counters plus live windowed telemetry
    (:class:`~repro.obs.timeseries.ServiceTelemetry`): gaps/sec,
    rules published, per-op frame latency quantiles, learner queue
    depth.  ``repro-top`` polls this op.
``health``
    Liveness *and readiness*: a shard started with ``--join-fleet``
    reports ``ready: false`` until its fleet coordinator finishes the
    catch-up replay (``catchup_done``), so a supervisor can tell an
    alive-but-stale replica from one safe to take traffic.
``install_bundle``
    Publish one externally supplied bundle (digest-verified,
    idempotent by rule identity) — the catch-up/replication op the
    fleet coordinator replays its journal with.

A SIGTERM or SIGINT drains gracefully: the listener closes, a
pending/in-flight learning round finishes, and ``main()`` saves the
persistent verification cache before exiting — so supervisors and the
fleet gate can kill shards without losing settled verdicts.

Every request's handling is timed into the telemetry, and when a
request envelope carries a ``trace`` field the handler runs inside a
span parented on the client's context — so one trace id follows a gap
report from the client's engine into the learning round that settles
it.

The server is single-writer by construction: one asyncio loop owns the
repository and the gap aggregator, concurrent client connections are
interleaved per frame, and learning rounds are serialized by an
asyncio lock.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
import time
from types import SimpleNamespace

from repro.learning.cache import VerificationCache
from repro.obs.metrics import format_metrics, get_metrics, set_metrics
from repro.obs.profiler import (
    SamplingProfiler,
    get_profiler,
    phase,
    set_profiler,
)
from repro.obs.slo import SloEngine
from repro.obs.timeseries import ServiceTelemetry
from repro.obs.trace import get_tracer, tracing
from repro.service.gaps import GapAggregator
from repro.service.learner import OnlineLearner
from repro.service.protocol import (
    ProtocolError,
    error_response,
    extract_trace,
    ok_response,
    read_message,
    write_message,
)
from repro.service.repo import BundleError, RuleRepository, verify_bundle

DIRECTION = "arm-x86"


def remove_stale_socket(path: str) -> None:
    """Unlink a unix-socket file only if no server answers on it."""
    import os
    import socket as socket_module

    if not os.path.exists(path):
        return
    probe = socket_module.socket(socket_module.AF_UNIX,
                                 socket_module.SOCK_STREAM)
    try:
        probe.settimeout(1.0)
        probe.connect(path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(path)
    finally:
        probe.close()


def ingest_origin(request: dict) -> str:
    """The origin an ``ingest_source`` request stages under: the
    client's ``origin``, else ``corpus:<digest>`` of the source text.
    The fleet routes the request by this key, so both endpoints must
    derive it the same way."""
    from repro.corpus.pipeline import corpus_origin, program_digest

    source = request.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ValueError("ingest_source needs MiniC source text")
    return request.get("origin") or corpus_origin(program_digest(source))


def ingest_key(request: dict) -> tuple[str, tuple[str, ...]]:
    """The origin/styles pair an ``ingest_source`` request stages.  A
    server stages each pair once, and the fleet replays each pair it
    forwarded into an owner that restarted without them."""
    styles = request.get("styles") or ["llvm", "gcc"]
    if not isinstance(styles, list) or \
            not all(isinstance(style, str) for style in styles):
        raise ValueError("styles must be a list of codegen style names")
    return ingest_origin(request), tuple(styles)


class RuleService:
    """Transport-independent request handling + learning scheduling."""

    #: Namespace of the per-op spans and profiler phases
    #: (``service.op.<op>``); the fleet journal's service uses ``fleet``.
    prefix = "service"

    def __init__(
        self,
        repo: RuleRepository,
        learner: OnlineLearner | None = None,
        direction: str = DIRECTION,
        slo: SloEngine | None = None,
        ready: bool = True,
    ) -> None:
        self.repo = repo
        self.learner = learner
        self.direction = direction
        self.slo = slo
        self.gaps = GapAggregator()
        self.telemetry = ServiceTelemetry()
        self.learn_rounds = 0
        self.rules_published = 0
        self.bundles_published = 0
        #: False for a shard awaiting fleet catch-up (``--join-fleet``);
        #: flipped by the coordinator's ``catchup_done``.
        self.ready = ready
        self.learn_errors = 0
        #: Corpus-ingestion counters (``ingest_source`` op): programs
        #: accepted, synthetic gaps absorbed, and published rules whose
        #: origin is a ``corpus:`` tag.
        self.corpus_stats = {"programs": 0, "gaps": 0, "rules": 0}
        #: The origin/styles pairs ``ingest_source`` has staged.
        self.ingested: set[tuple[str, tuple[str, ...]]] = set()

    # -- request dispatch ----------------------------------------------------

    def handle(self, request: dict) -> dict:
        if not isinstance(request, dict):
            return error_response("request must be a JSON object")
        handler = getattr(self, f"_op_{request.get('op')}", None)
        if handler is None:
            return error_response(f"unknown op {request.get('op')!r}")
        with self.envelope(request) as reply:
            reply.response = handler(request)
        return reply.response

    @contextlib.contextmanager
    def envelope(self, request: dict):
        """The one per-op envelope, around the sync handlers here and
        the fleet coordinator's async ones alike.

        The body runs in a profiler phase and (when tracing) a span
        named ``<prefix>.op.<op>``, the span parented on the client's
        span when the request carried one.  The op's latency feeds the
        telemetry and, per frame, the burn-rate counters of any SLO
        objective on source ``op:<op>``.  A ``BundleError``,
        ``KeyError``, ``TypeError`` or ``ValueError`` becomes an error
        envelope.  The body stores its answer in ``reply.response``.
        """
        op = request.get("op")
        name = f"{self.prefix}.op.{op}"
        context = extract_trace(request)
        tracer = get_tracer()
        span = tracer.span(name, context=context) if tracer.enabled \
            else contextlib.nullcontext()
        reply = SimpleNamespace(response=None)
        start = time.perf_counter()
        try:
            with phase(name), span:
                yield reply
        except (BundleError, KeyError, TypeError, ValueError) as exc:
            reply.response = error_response(f"{type(exc).__name__}: {exc}")
        finally:
            elapsed = time.perf_counter() - start
            self.telemetry.observe_op(str(op), elapsed)
            if self.slo is not None:
                self.slo.record(f"op:{op}", elapsed * 1000.0)

    def queue_depth(self) -> int:
        """Gaps waiting for a learning round (the telemetry's queue)."""
        return self.gaps.pending

    def _op_ping(self, request: dict) -> dict:
        return ok_response(
            direction=self.direction,
            semantics=self.repo.semantics_version,
            generation=self.repo.generation,
        )

    def _op_health(self, request: dict) -> dict:
        """Alive vs caught-up, for supervisors and the fleet router."""
        return ok_response(
            alive=True,
            ready=self.ready,
            direction=self.direction,
            semantics=self.repo.semantics_version,
            generation=self.repo.generation,
            gaps_pending=self.gaps.pending,
            learn_errors=self.learn_errors,
        )

    def _op_catchup_done(self, request: dict) -> dict:
        """The coordinator finished replaying its journal into this
        shard; start taking traffic.  Idempotent."""
        self.ready = True
        return ok_response(ready=True, generation=self.repo.generation)

    def _op_install_bundle(self, request: dict) -> dict:
        """Publish one externally supplied bundle (catch-up replay).

        The body is verified against the supplied content digest, and
        publishing dedups by rule identity — replaying a bundle whose
        rules this shard already serves is a no-op.
        """
        digest = request["digest"]
        document = request["bundle"]
        rules = verify_bundle(document, digest)
        if document.get("semantics") != self.repo.semantics_version:
            raise BundleError(
                f"bundle semantics {document.get('semantics')} != "
                f"shard semantics {self.repo.semantics_version}"
            )
        direction = document.get("direction", self.direction)
        ref = self.repo.publish(rules, direction)
        if ref is not None:
            self.bundles_published += 1
        return ok_response(
            installed=ref is not None,
            rules=ref.rules if ref is not None else 0,
            generation=self.repo.generation,
        )

    def _op_manifest(self, request: dict) -> dict:
        return ok_response(manifest=self.repo.manifest())

    def _op_bundle(self, request: dict) -> dict:
        digest = request["digest"]
        return ok_response(digest=digest,
                           bundle=self.repo.load_bundle(digest))

    def _op_delta(self, request: dict) -> dict:
        since = int(request.get("since", 0))
        entries = self.repo.delta_since(since)
        return ok_response(
            generation=self.repo.generation,
            entries=[ref.to_json() for ref in entries],
        )

    def _op_report_gaps(self, request: dict) -> dict:
        report = request.get("gaps", [])
        if not isinstance(report, list):
            return error_response("gaps must be a list")
        new = self.gaps.absorb(report)
        self.telemetry.gaps.add(len(report))
        return ok_response(
            accepted=len(report),
            new=new,
            pending=self.gaps.pending,
        )

    def _op_ingest_source(self, request: dict) -> dict:
        """Ingest one corpus program into the online learner.

        Compiles the MiniC ``source`` in the requested codegen styles,
        stages the builds under the program's ``corpus:<digest>``
        origin, and absorbs one synthetic gap per compiled function —
        the whole-function window contains every candidate the program
        staged, so the next learning round (client ``flush``, or the
        auto-learn scheduler) verifies exactly this program's fresh
        candidates.  Learning itself stays on the serialized round
        path; this op never blocks serving on the solver.  A pair of
        origin and styles staged before is not staged again: the
        answer counts nothing, so a fleet replay into a shard that kept
        its state changes nothing.
        """
        if self.learner is None:
            return error_response(
                "server has no online learner (started without --corpus)"
            )
        from repro.minic.compile import compile_pairs
        from repro.minic.errors import MiniCError
        from repro.service.gaps import canonical_gap

        key = ingest_key(request)
        origin, styles = key
        if key in self.ingested:
            return ok_response(origin=origin, staged_candidates=0, gaps=0,
                               new_gaps=0, pending=self.gaps.pending)
        try:
            pairs = compile_pairs(request["source"],
                                  int(request.get("opt_level", 2)),
                                  list(styles))
        except MiniCError as exc:
            return error_response(f"{type(exc).__name__}: {exc}")
        self.ingested.add(key)
        staged = 0
        gaps: list[dict] = []
        for guest, host in pairs.values():
            staged += self.learner.add_build(origin, (guest, host))
            for name, function in guest.functions.items():
                if name in guest.runtime_functions:
                    continue
                gap = canonical_gap(function.instrs, self.direction)
                gaps.append(dict(gap.to_json(), count=1))
        new = self.gaps.absorb(gaps)
        self.corpus_stats["programs"] += 1
        self.corpus_stats["gaps"] += new
        self.telemetry.gaps.add(len(gaps))
        return ok_response(
            origin=origin,
            staged_candidates=staged,
            gaps=len(gaps),
            new_gaps=new,
            pending=self.gaps.pending,
        )

    def _op_flush(self, request: dict) -> dict:
        return self.flush_response(self.run_learning_round())

    def flush_response(self, published) -> dict:
        """The ``flush`` answer for a round that published ``published``
        (a bundle ref, or None when it yielded nothing new)."""
        return ok_response(
            generation=self.repo.generation,
            published=published is not None,
            rules=published.rules if published is not None else 0,
        )

    def _op_stats(self, request: dict) -> dict:
        extras = {}
        if self.slo is not None:
            extras["slo"] = self.slo_report()
        profile = self._profile_frame()
        if profile is not None:
            extras["profile"] = profile
        return ok_response(
            generation=self.repo.generation,
            bundles=len(self.repo.entries()),
            gaps={
                "seen": self.gaps.unique,
                "reported": self.gaps.reported,
                "pending": self.gaps.pending,
                "settled": self.gaps.settled,
            },
            gaps_reported=self.gaps.reported,
            gaps_unique=self.gaps.unique,
            gaps_pending=self.gaps.pending,
            gaps_settled=self.gaps.settled,
            learn_rounds=self.learn_rounds,
            rules_published=self.rules_published,
            bundles_published=self.bundles_published,
            corpus=dict(self.corpus_stats),
            telemetry=self.telemetry.snapshot(
                queue_depth=self.queue_depth(),
            ),
            **extras,
        )

    def _op_metrics(self, request: dict) -> dict:
        """Everything the Prometheus exposition renders, in one frame:
        the global metrics snapshot, windowed telemetry, the SLO report
        (when an SLO engine is loaded) and the live profile (when the
        sampling profiler runs)."""
        payload = {
            "metrics": get_metrics().snapshot(),
            "telemetry": self.telemetry.snapshot(
                queue_depth=self.queue_depth(),
            ),
        }
        if self.slo is not None:
            payload["slo"] = self.slo_report()
        profile = self._profile_frame()
        if profile is not None:
            payload["profile"] = profile
        return ok_response(**payload)

    @staticmethod
    def _profile_frame() -> dict | None:
        """The live profile, when the sampling profiler is on (or has
        collected samples before being stopped)."""
        profiler = get_profiler()
        snapshot = profiler.snapshot()
        if profiler.running or snapshot["total_samples"]:
            return snapshot
        return None

    def slo_report(self, gauges: dict | None = None) -> dict:
        """Evaluate the loaded objectives against live state: per-op
        latency streams fed by :meth:`envelope`, the per-op latency
        sketches for quantile objectives on ``op:`` sources, and any
        ``gauges`` the caller supplies."""
        assert self.slo is not None
        sketches = {
            f"op:{name}": sketch
            for name, sketch in self.telemetry.op_sketches().items()
        }
        return self.slo.evaluate(sketches=sketches, gauges=gauges)

    # -- online learning scheduler -------------------------------------------

    def run_learning_round(self, context=None):
        """Dedup pending gaps, learn on matching candidates, publish.

        Returns the published :class:`~repro.service.repo.BundleRef`
        (None when the round yielded nothing new).  Synchronous — the
        asyncio layer decides where it runs; ``context`` optionally
        parents the round's trace records on the triggering request's
        span (the async path runs off the requesting thread, so the
        ambient stack cannot carry it).
        """
        pending = self.gaps.take_pending()
        if not pending or self.learner is None:
            return None
        self.learn_rounds += 1
        with phase("service.learn"):
            round_ = self.learner.learn(pending)
        ref = None
        if round_.rules:
            ref = self.repo.publish(round_.rules, self.direction)
        if ref is not None:
            self.bundles_published += 1
            self.rules_published += ref.rules
            self.telemetry.rules.add(ref.rules)
            self.corpus_stats["rules"] += sum(
                1 for rule in round_.rules
                if str(rule.origin).startswith("corpus:")
            )
        tracer = get_tracer()
        if tracer.enabled:
            digest = ref.digest if ref is not None else None
            # One settlement record per gap, each on the trace the
            # capturing client rooted — the join point that lets the
            # stitched report connect a miss to the bundle (and so to
            # the hot-install) that closed it.
            for gap in pending:
                tracer.event(
                    "service.gap_settled",
                    context=gap.context,
                    digest=gap.digest,
                    bundle=digest,
                    rules=len(round_.rules),
                )
            tracer.event(
                "service.publish",
                context=context,
                gaps=round_.gaps,
                candidates=round_.matched_candidates,
                verify_calls=round_.verify_calls,
                rules=len(round_.rules),
                digest=digest,
                generation=self.repo.generation,
            )
        return ref


class AsyncEndpoint:
    """The asyncio transport both endpoints listen on.

    It runs the frame loop of every connection, listens on a unix
    socket (reclaiming a stale socket file) or a TCP port, and closes
    the listener.  Subclasses answer each decoded request frame in
    :meth:`respond`.
    """

    def __init__(self) -> None:
        self._server: asyncio.AbstractServer | None = None
        self._connections: set = set()

    async def respond(self, request: dict) -> dict:
        raise NotImplementedError

    async def handle_connection(self, reader, writer) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_message(reader)
                except ProtocolError as exc:
                    await write_message(writer, error_response(str(exc)))
                    break
                if request is None:
                    break
                await write_message(writer, await self.respond(request))
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop shutdown with the connection still open; exiting
            # normally here keeps the streams callback from logging a
            # spurious "Exception in callback" at teardown.
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def start_unix(self, path: str) -> None:
        # A SIGKILLed predecessor leaves its socket file behind; bind
        # would fail on it.  Only unlink when nothing answers — a stale
        # file refuses connections, a live server accepts them.
        remove_stale_socket(path)
        self._server = await asyncio.start_unix_server(
            self.handle_connection, path=path
        )

    async def start_tcp(self, host: str, port: int) -> None:
        self._server = await asyncio.start_server(
            self.handle_connection, host=host, port=port
        )

    async def start(self, socket_path: str | None = None,
                    port: int | None = None) -> None:
        """Listen on ``socket_path``, else on localhost ``port``."""
        if socket_path is not None:
            await self.start_unix(socket_path)
        else:
            await self.start_tcp("127.0.0.1", port)

    async def drain(self) -> None:
        """Finish in-flight work before :meth:`close` (nothing here)."""

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


class AsyncRuleServer(AsyncEndpoint):
    """Asyncio transport around a :class:`RuleService`."""

    def __init__(self, service: RuleService, auto_learn: bool = True,
                 auto_learn_delay: float = 0.2) -> None:
        super().__init__()
        self.service = service
        self.auto_learn = auto_learn
        self.auto_learn_delay = auto_learn_delay
        self._learn_lock = asyncio.Lock()
        self._scheduled: asyncio.Task | None = None

    async def respond(self, request: dict) -> dict:
        op = request.get("op")
        if op == "flush":
            return await self._flush_async(request)
        response = self.service.handle(request)
        if (
            op == "report_gaps"
            and response.get("ok")
            and response.get("new")
            and self.auto_learn
        ):
            self._schedule_learning()
        return response

    async def _flush_async(self, request: dict | None = None) -> dict:
        # Learning is CPU-bound; run it off-loop so concurrent clients
        # keep getting served, serialized so rounds never interleave.
        # The requesting client's trace context travels explicitly:
        # the executor thread has no ambient span stack.
        context = extract_trace(request) if request is not None else None
        start = time.perf_counter()
        async with self._learn_lock:
            loop = asyncio.get_running_loop()
            published = await loop.run_in_executor(
                None, lambda: self.service.run_learning_round(context)
            )
        self.service.telemetry.observe_op(
            "flush", time.perf_counter() - start
        )
        return self.service.flush_response(published)

    def _schedule_learning(self) -> None:
        if self._scheduled is not None and not self._scheduled.done():
            return  # a round is already pending; it will pick these up

        async def deferred() -> None:
            await asyncio.sleep(self.auto_learn_delay)
            await self._flush_async()

        self._scheduled = asyncio.ensure_future(deferred())
        self._scheduled.add_done_callback(self._observe_learn_task)

    def _observe_learn_task(self, task: asyncio.Task) -> None:
        """A background learning round must never fail silently: log
        it, trace it, count it — the fleet health op surfaces the
        counter."""
        if task.cancelled():
            return
        exc = task.exception()
        if exc is None:
            return
        detail = f"{type(exc).__name__}: {exc}"
        self.service.learn_errors += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("service.learn.error", error=detail)
        print(f"repro-serve: background learning round failed: {detail}",
              file=sys.stderr)

    async def abort(self) -> None:
        """Hard stop: drop every live connection and the listener
        without draining — what a crash looks like to peers.  The
        chaos tests use this to simulate a shard kill in-process."""
        for writer in list(self._connections):
            writer.close()
        await self.close()

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting connections, let a
        pending or in-flight learning round run to completion, release
        the learn lock.  ``close()`` afterwards is a no-op fast path.
        """
        await super().close()
        task = self._scheduled
        if task is not None and not task.done():
            with contextlib.suppress(Exception):
                await task
        # An explicit-flush round may still hold the lock; wait it out.
        async with self._learn_lock:
            pass

    async def close(self) -> None:
        if self._scheduled is not None:
            self._scheduled.cancel()
            # A round that already failed re-raises on await; the
            # done-callback observed it, nothing more to do here.
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await self._scheduled
        await super().close()


def build_service(
    repo_dir: str,
    corpus: tuple[str, ...] = (),
    cache: VerificationCache | None = None,
    jobs: int = 1,
    slo: SloEngine | None = None,
    ready: bool = True,
) -> RuleService:
    """Assemble a service: repository + (optional) corpus learner."""
    repo = RuleRepository(repo_dir)
    learner = None
    if corpus:
        from repro.benchsuite import build_learning_pair

        builds = {
            name: build_learning_pair(name) for name in corpus
        }
        learner = OnlineLearner(builds, cache=cache, jobs=jobs)
    return RuleService(repo, learner, slo=slo, ready=ready)


def serve_until_signal(prog: str, endpoint: AsyncEndpoint, args, status,
                       **start_options) -> None:
    """The run loop of ``repro-serve`` and ``repro-fleet``.

    Starts ``endpoint`` on ``args.socket`` or ``args.port`` and prints
    a banner ending in ``status()``.  SIGTERM (what supervisors and the
    fleet gate send) and SIGINT both drain the endpoint and close it,
    then return so the caller can persist its state.  With
    ``args.trace`` the whole run writes a JSON-lines trace there, and
    the trace scope closes after the loop, flushing its tail.
    """

    async def run() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signum, stop.set)
        await endpoint.start(args.socket, args.port, **start_options)
        where = args.socket or f"127.0.0.1:{args.port}"
        print(f"{prog}: listening on {where} ({status()})",
              file=sys.stderr)
        try:
            await stop.wait()
            print(f"{prog}: draining (signal received)", file=sys.stderr)
            await endpoint.drain()
        except asyncio.CancelledError:
            pass
        finally:
            await endpoint.close()

    trace_scope = tracing(args.trace) if args.trace \
        else contextlib.nullcontext()
    with trace_scope, contextlib.suppress(KeyboardInterrupt):
        asyncio.run(run())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve translation-rule bundles to DBT clients and "
                    "learn new rules online from their reported "
                    "translation gaps.",
    )
    parser.add_argument("--repo", required=True, metavar="DIR",
                        help="rule repository directory (created if absent)")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--socket", metavar="PATH",
                       help="serve on this unix socket")
    group.add_argument("--port", type=int, metavar="N",
                       help="serve on this TCP port (localhost)")
    parser.add_argument("--corpus", default="", metavar="NAMES",
                        help="comma-separated benchmark names to stage "
                             "for gap-driven learning (empty: serve the "
                             "repository read-only)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent verification-cache directory "
                             "(default: <repo>/verify-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="learn without the persistent cache")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for online verification")
    parser.add_argument("--no-auto-learn", action="store_true",
                        help="only learn on explicit client flush requests")
    parser.add_argument("--trace", metavar="PATH",
                        help="write a JSON-lines trace of service "
                             "activity here")
    parser.add_argument("--metrics", action="store_true",
                        help="dump metrics to stderr on shutdown")
    parser.add_argument("--slo", metavar="PATH",
                        help="load SLO objectives from this TOML file; "
                             "per-op latency feeds multi-window burn "
                             "rates, breaches emit slo.alert trace "
                             "events and surface in stats/metrics ops")
    parser.add_argument("--profile-hz", type=int, default=0, metavar="HZ",
                        help="run the sampling profiler at this rate; "
                             "the live profile rides in the stats and "
                             "metrics ops (0: off)")
    parser.add_argument("--join-fleet", action="store_true",
                        help="start not-ready: the health op reports "
                             "ready=false until a fleet coordinator "
                             "completes the catch-up replay")
    args = parser.parse_args(argv)

    set_metrics(None)
    cache = None
    if not args.no_cache:
        cache_dir = args.cache_dir or f"{args.repo}/verify-cache"
        cache = VerificationCache.at_dir(cache_dir)
    corpus = tuple(
        name for name in args.corpus.split(",") if name.strip()
    )
    slo = SloEngine.from_toml(args.slo) if args.slo else None
    profiler = None
    if args.profile_hz > 0:
        profiler = SamplingProfiler(hz=args.profile_hz)
        set_profiler(profiler)
        profiler.start()
    service = build_service(args.repo, corpus, cache=cache, jobs=args.jobs,
                            slo=slo, ready=not args.join_fleet)
    server = AsyncRuleServer(service, auto_learn=not args.no_auto_learn)
    serve_until_signal(
        "repro-serve", server, args,
        lambda: f"generation {service.repo.generation}, "
                f"{len(service.repo.entries())} bundle(s), "
                f"corpus {len(corpus)}",
    )
    if profiler is not None:
        profiler.stop()
    if cache is not None:
        cache.save()
    if args.metrics:
        print(format_metrics(get_metrics()), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
