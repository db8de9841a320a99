"""Sharded, replicated rule-service fleet: ring, router, catch-up.

One ``repro-serve`` process is a scaling *and* availability ceiling:
a crash loses gap aggregation, in-flight learning, and hot-install
delivery for every attached engine at once.  This module turns the
service layer into a fleet whose correctness contract — online
coverage equals offline coverage — holds while shards are killed and
restarted mid-run:

* :class:`HashRing` — consistent hashing of the content-addressed key
  space (gap-window digests, rule digests) across shard ids, with
  virtual nodes so load stays balanced and shard churn only moves the
  keys adjacent to the departed shard;
* :class:`ShardLink` — the coordinator's connection to one
  ``repro-serve`` shard: lazy connect, per-link request serialization,
  a queue for gap reports that arrive while the shard is down, and the
  alive/catching-up/ready state machine;
* :class:`FleetCoordinator` — an asyncio router on the single
  server's own transport, op envelope and run loop
  (:mod:`repro.service.server`), so an unmodified
  :class:`~repro.service.client.RuleServiceClient` talks to a fleet
  exactly as it talks to one server.  ``report_gaps`` fans gaps out
  by ring position and ``ingest_source`` goes to the ring owner of the
  program's origin; ``flush`` forwards to every ready shard and folds
  the resulting bundles back in.  Everything else — ``ping``,
  ``bundle``, ``metrics``, and the single generation-monotone merged
  view ``delta``/``manifest`` serve — is answered by a
  :class:`JournalService` over the coordinator's journal;
* **catch-up** — the coordinator journals every published bundle into
  its own signed :class:`~repro.service.repo.RuleRepository`.  A
  restarted or freshly added shard replays that journal (digest-
  verified ``install_bundle`` ops, idempotent by rule identity) until
  its generation converges, and only then is marked *ready* and given
  traffic — the ``health`` op distinguishes alive from caught-up.

The merged view is monotone by construction: shard bundles are folded
into the coordinator's repository, whose generation only advances, and
rule-identity dedup in :meth:`~repro.service.repo.RuleRepository.publish`
means a shard that restarts from an empty directory and re-learns the
same rules never produces a duplicate fleet bundle.

``repro-fleet`` (:func:`main`) is the CLI: point it at N shard
sockets, give it a journal directory and a listen socket, and attach
clients to the listen socket.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import contextlib
import hashlib
import sys

from repro.obs.metrics import set_metrics
from repro.obs.slo import SloEngine
from repro.obs.trace import get_tracer
from repro.service.protocol import (
    ProtocolError,
    error_response,
    ok_response,
    read_message,
    write_message,
)
from repro.service.repo import BundleError, RuleRepository, verify_bundle
from repro.service.server import (
    AsyncEndpoint,
    RuleService,
    ingest_key,
    serve_until_signal,
)

DEFAULT_VNODES = 256
#: Fast ops (ping, delta, report_gaps) forwarded to a shard.
SHARD_TIMEOUT = 30.0
#: ``flush`` runs a learning round on the shard; give it room.
FLUSH_TIMEOUT = 600.0


class HashRing:
    """Consistent hashing of string keys onto shard ids.

    Each shard contributes ``vnodes`` virtual points at
    ``sha256("<shard>#<i>")``; a key maps to the first point clockwise
    from ``sha256(key)``.  Deterministic across processes (no salted
    ``hash()``), balanced to a few percent at the default 256 vnodes,
    and minimal under churn: removing a shard only remaps keys that
    landed on its points.
    """

    def __init__(self, shards, vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1: {vnodes}")
        self.vnodes = vnodes
        self._shards: list[str] = []
        self._points: list[int] = []
        self._owners: list[str] = []
        for shard in shards:
            self.add(shard)

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(
            hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
        )

    def add(self, shard: str) -> None:
        if shard in self._shards:
            raise ValueError(f"duplicate shard id {shard!r}")
        self._shards.append(shard)
        for index in range(self.vnodes):
            point = self._hash(f"{shard}#{index}")
            at = bisect.bisect_left(self._points, point)
            self._points.insert(at, point)
            self._owners.insert(at, shard)

    def remove(self, shard: str) -> None:
        self._shards.remove(shard)
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != shard
        ]
        self._points = [point for point, _ in keep]
        self._owners = [owner for _, owner in keep]

    def shards(self) -> list[str]:
        return list(self._shards)

    def shard_for(self, key: str) -> str:
        """The shard owning ``key`` (ring must not be empty)."""
        if not self._points:
            raise ValueError("hash ring has no shards")
        at = bisect.bisect_right(self._points, self._hash(key))
        if at == len(self._points):
            at = 0
        return self._owners[at]

    def __len__(self) -> int:
        return len(self._shards)


class ShardLink:
    """The coordinator's stateful connection to one shard.

    States: ``down`` (unreachable), ``catching-up`` (alive, replaying
    the journal), ``ready`` (generation-converged, taking traffic).
    Gap reports routed here while the shard is not ready queue up and
    deliver on the next transition to ready, so churn loses no gaps.
    """

    def __init__(self, shard_id: str, socket_path: str | None = None,
                 address: tuple[str, int] | None = None) -> None:
        if (socket_path is None) == (address is None):
            raise ValueError("pass exactly one of socket_path / address")
        self.shard_id = shard_id
        self.socket_path = socket_path
        self.address = address
        self.state = "down"
        #: Shard-local repo generation the coordinator last absorbed.
        self.last_generation = 0
        #: Gap reports awaiting delivery (shard down or catching up).
        self.queued_gaps: list[dict] = []
        self._queued_digests: set[str] = set()
        #: Every gap ever accepted for this shard, by digest.  A shard
        #: restart loses the in-memory aggregator (and clients never
        #: re-report a drained digest), so on reattach the coordinator
        #: redelivers this backlog; shards that merely dropped the
        #: connection still hold their settled-set and absorb nothing.
        self.routed_gaps: dict[str, dict] = {}
        #: Every ``ingest_source`` request forwarded to this shard, by
        #: origin/styles pair.  A restarted shard lost the programs it
        #: staged, so reattach replays these before the gap backlog; a
        #: shard that kept them stages nothing twice.
        self.routed_sources: dict[tuple, dict] = {}
        self.kills_observed = 0
        self._reader = None
        self._writer = None
        self._lock = asyncio.Lock()

    @property
    def alive(self) -> bool:
        return self.state != "down"

    @property
    def ready(self) -> bool:
        return self.state == "ready"

    def queue_gaps(self, gaps: list[dict]) -> int:
        """Buffer a gap report for delivery once the shard is ready."""
        queued = 0
        for gap in gaps:
            digest = gap.get("digest")
            if digest in self._queued_digests:
                continue
            self._queued_digests.add(digest)
            self.queued_gaps.append(gap)
            self.routed_gaps.setdefault(digest, gap)
            queued += 1
        return queued

    def take_queued(self) -> list[dict]:
        gaps, self.queued_gaps = self.queued_gaps, []
        self._queued_digests.clear()
        return gaps

    async def _connect(self) -> None:
        if self._writer is not None:
            return
        if self.socket_path is not None:
            self._reader, self._writer = await asyncio.open_unix_connection(
                self.socket_path
            )
        else:
            host, port = self.address
            self._reader, self._writer = await asyncio.open_connection(
                host, port
            )

    def _teardown(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._reader = self._writer = None

    def mark_down(self) -> None:
        if self.state != "down":
            self.kills_observed += 1
        self.state = "down"
        self._teardown()

    async def request(self, op: str, timeout: float = SHARD_TIMEOUT,
                      **fields) -> dict:
        """One request/response round-trip on this link.

        Serialized per link (concurrent coordinator handlers share the
        connection); any transport failure tears the connection down
        and marks the shard dead so the reconnect loop takes over.
        """
        message = {"op": op}
        message.update(fields)
        async with self._lock:
            try:
                await self._connect()
                await write_message(self._writer, message)
                response = await asyncio.wait_for(
                    read_message(self._reader), timeout
                )
            except (OSError, ProtocolError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError) as exc:
                self.mark_down()
                raise ConnectionError(
                    f"shard {self.shard_id}: {type(exc).__name__}: {exc}"
                ) from exc
        if response is None:
            self.mark_down()
            raise ConnectionError(
                f"shard {self.shard_id} closed the connection"
            )
        if not response.get("ok"):
            raise BundleError(
                f"shard {self.shard_id}: {response.get('error')}"
            )
        return response

    def status(self) -> dict:
        return {
            "state": self.state,
            "alive": self.alive,
            "ready": self.ready,
            "generation": self.last_generation,
            "queued_gaps": len(self.queued_gaps),
            "routed_gaps": len(self.routed_gaps),
            "kills_observed": self.kills_observed,
        }


class JournalService(RuleService):
    """The coordinator's :class:`RuleService` over its journal.

    It answers ``ping`` (announcing the fleet), ``bundle``, ``metrics``
    and, once the coordinator has refreshed the journal, ``manifest``
    and ``delta``.  Its spans and phases are ``fleet.op.<op>``, its
    queue depth is the gaps waiting for down shards, and its SLO report
    carries the ``fleet_ready_fraction`` gauge.
    """

    prefix = "fleet"
    # Only folded shard bundles enter the journal, and readiness is per
    # shard: clients may neither publish into it nor flip it ready.
    _op_install_bundle = _op_catchup_done = None

    def __init__(self, repo: RuleRepository, links: dict,
                 slo: SloEngine | None) -> None:
        super().__init__(repo, slo=slo)
        self.links = links

    def queue_depth(self) -> int:
        return sum(len(link.queued_gaps) for link in self.links.values())

    def ready_shards(self) -> int:
        return sum(1 for link in self.links.values() if link.ready)

    def _op_ping(self, request: dict) -> dict:
        return dict(super()._op_ping(request), fleet=True,
                    shards=len(self.links))

    def slo_report(self) -> dict:
        return super().slo_report({
            "gauge:fleet_ready_fraction":
                self.ready_shards() / len(self.links),
        })


class FleetCoordinator(AsyncEndpoint):
    """Routes fleet traffic; owns the merged generation-monotone view.

    The coordinator is itself a wire-protocol server: clients attach to
    it exactly as they would to a single ``repro-serve``.  Internally
    it fans ``report_gaps`` out across the ring, forwards
    ``ingest_source`` to the ring owner of the program's origin and
    ``flush`` to every ready shard, folds shard deltas into its own
    journal repository (whose generation is the *fleet* generation
    clients sync against), and replays that journal into shards that
    come back empty — replica catch-up.  A :class:`JournalService`
    over the journal answers every op the coordinator does not route.
    """

    def __init__(self, repo_dir: str, links: list[ShardLink],
                 slo: SloEngine | None = None) -> None:
        if not links:
            raise ValueError("a fleet needs at least one shard")
        super().__init__()
        self.links = {link.shard_id: link for link in links}
        if len(self.links) != len(links):
            raise ValueError("duplicate shard ids")
        self.repo = RuleRepository(repo_dir)
        self.service = JournalService(self.repo, self.links, slo)
        self.ring = HashRing(self.links)
        self.gaps_routed = 0
        self.gaps_queued_total = 0
        self.catchups = 0
        self._refresh_lock = asyncio.Lock()
        self._reconnect_task: asyncio.Task | None = None

    # -- shard lifecycle -----------------------------------------------------

    async def attach_shard(self, link: ShardLink) -> bool:
        """Bring one shard from down to ready: probe, catch up, drain
        its queued gaps.  Returns True when the shard ended ready."""
        try:
            info = await link.request("ping")
            link.state = "catching-up"
            self._check_identity(link, info)
            await self._catch_up(link)
            for fields in list(link.routed_sources.values()):
                # A shard restarted without a learner refuses; that
                # must not keep it from serving.
                with contextlib.suppress(BundleError):
                    await link.request("ingest_source", **fields)
            # Ready only once its programs are back; gaps queued during
            # the replay are in the backlog below.
            link.state = "ready"
            link.take_queued()
            # Redeliver the full routed backlog, not just the queue: a
            # restarted shard lost its aggregator, and clients never
            # re-report a drained digest.  Shards that kept their
            # state dedup the repeats (settled gaps stay settled).
            backlog = list(link.routed_gaps.values())
            if backlog:
                await link.request("report_gaps", gaps=backlog)
            return True
        except (ConnectionError, BundleError) as exc:
            if link.state != "down":
                link.mark_down()
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event("fleet.shard_unreachable",
                             shard=link.shard_id, error=str(exc))
            return False

    def _check_identity(self, link: ShardLink, info: dict) -> None:
        shard = (info.get("direction"), info.get("semantics"))
        fleet = (self.service.direction, self.repo.semantics_version)
        if shard != fleet:
            raise BundleError(
                f"shard {link.shard_id} serves {shard[0]}/{shard[1]}, "
                f"fleet is {fleet[0]}/{fleet[1]}"
            )

    async def _catch_up(self, link: ShardLink) -> None:
        """Replay the journal into ``link`` until generation-converged.

        Every bundle the fleet has ever published is offered; the
        shard's rule-identity dedup makes replay idempotent (a shard
        that kept its directory republishes nothing).  Afterwards the
        shard's own manifest is absorbed, so rules it learned before
        dying but never delivered are not lost either.
        """
        manifest = await link.request("manifest")
        payload = manifest.get("manifest", {}).get("payload", {})
        have = {
            entry.get("digest")
            for entry in payload.get("bundles", [])
        }
        replayed = 0
        for ref in self.repo.entries():
            if ref.digest in have:
                continue
            document = self.repo.load_bundle(ref.digest)
            await link.request("install_bundle", digest=ref.digest,
                               bundle=document)
            replayed += 1
        # The shard may hold bundles the fleet never absorbed (it died
        # after publishing, before a refresh); start its delta cursor
        # at zero so the next refresh folds them in.
        link.last_generation = 0
        await link.request("catchup_done")
        self.catchups += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("fleet.catchup", shard=link.shard_id,
                         replayed=replayed,
                         generation=self.repo.generation)

    async def _reconnect_loop(self, interval: float) -> None:
        while True:
            for link in list(self.links.values()):
                if link.state == "down":
                    await self.attach_shard(link)
                else:
                    # Liveness probe: a shard killed and instantly
                    # restarted still *looks* connected, and would be
                    # routed traffic without having been caught up.
                    # Pinging every interval bounds how long a stale
                    # link can pose as ready; the failed ping marks it
                    # down and the next pass re-attaches it properly.
                    with contextlib.suppress(ConnectionError,
                                             BundleError):
                        await link.request("ping")
            await asyncio.sleep(interval)

    async def refresh(self) -> int:
        """Fold every ready shard's new bundles into the journal.

        Returns the number of fleet bundles published.  Serialized so
        concurrent client syncs cannot interleave repository writes.
        """
        published = 0
        async with self._refresh_lock:
            for link in list(self.links.values()):
                if not link.ready:
                    continue
                try:
                    response = await link.request(
                        "delta", since=link.last_generation
                    )
                except ConnectionError:
                    continue
                generation = response.get("generation", 0)
                for entry in response.get("entries", []):
                    digest = entry.get("digest", "")
                    try:
                        body = await link.request("bundle", digest=digest)
                    except ConnectionError:
                        break
                    rules = verify_bundle(body.get("bundle"), digest)
                    ref = self.repo.publish(
                        rules, entry.get("direction", self.service.direction)
                    )
                    if ref is not None:
                        published += 1
                        self.service.telemetry.rules.add(ref.rules)
                        await self._replicate(ref, exclude=link.shard_id)
                else:
                    link.last_generation = max(
                        link.last_generation, generation
                    )
        return published

    async def _replicate(self, ref, exclude: str) -> None:
        """Push one freshly folded bundle to the other ready shards so
        every shard converges on the full rule set live, not only at
        catch-up."""
        document = self.repo.load_bundle(ref.digest)
        for link in self.links.values():
            if link.shard_id == exclude or not link.ready:
                continue
            with contextlib.suppress(ConnectionError, BundleError):
                await link.request("install_bundle", digest=ref.digest,
                                   bundle=document)

    # -- request handling ----------------------------------------------------

    async def respond(self, request: dict) -> dict:
        """Run one of the coordinator's own ops inside the journal
        service's envelope, or hand the frame to the journal service
        (``ping``, ``bundle``, ``metrics`` and unknown ops)."""
        handler = getattr(self, f"_op_{request.get('op')}", None)
        if handler is None:
            return self.service.handle(request)
        with self.service.envelope(request) as reply:
            reply.response = await handler(request)
        return reply.response

    async def _refreshed(self, request: dict) -> dict:
        """``manifest``/``delta``: the journal service answers once
        every ready shard's new bundles are folded in."""
        await self.refresh()
        return getattr(self.service, f"_op_{request['op']}")(request)

    _op_manifest = _op_delta = _refreshed

    async def _op_report_gaps(self, request: dict) -> dict:
        report = request.get("gaps", [])
        if not isinstance(report, list):
            return error_response("gaps must be a list")
        self.service.telemetry.gaps.add(len(report))
        by_shard: dict[str, list[dict]] = {}
        for gap in report:
            digest = gap.get("digest")
            if not isinstance(digest, str) or not digest:
                return error_response("gap without digest")
            by_shard.setdefault(self.ring.shard_for(digest), []).append(gap)
        accepted = new = pending = queued = 0
        for shard_id, gaps in by_shard.items():
            link = self.links[shard_id]
            if link.ready:
                try:
                    response = await link.request("report_gaps",
                                                  gaps=gaps)
                    accepted += response.get("accepted", 0)
                    new += response.get("new", 0)
                    pending += response.get("pending", 0)
                    self.gaps_routed += len(gaps)
                    for gap in gaps:
                        link.routed_gaps.setdefault(gap["digest"], gap)
                    continue
                except ConnectionError:
                    pass  # fell to down mid-report: queue instead
            queued += link.queue_gaps(gaps)
            accepted += len(gaps)
        self.gaps_queued_total += queued
        return ok_response(accepted=accepted, new=new,
                           pending=pending, queued=queued)

    async def _op_ingest_source(self, request: dict) -> dict:
        """Forward one corpus program to the ring owner of its origin,
        which stages and learns it like a single server would."""
        key = ingest_key(request)
        origin = key[0]
        link = self.links[self.ring.shard_for(origin)]
        if not link.ready:
            return error_response(
                f"shard {link.shard_id} (owner of {origin}) is not ready"
            )
        fields = dict(request, origin=origin)
        del fields["op"]
        try:
            response = await link.request("ingest_source", **fields)
        except ConnectionError as exc:
            return error_response(str(exc))
        link.routed_sources.setdefault(key, fields)
        return response

    async def _op_flush(self, request: dict) -> dict:
        """Forward flush to every ready shard, then fold the resulting
        bundles into the journal.  Shards that are down keep their
        queued gaps; a later flush (after catch-up) learns them."""
        rules = 0
        flushed = 0
        for link in list(self.links.values()):
            if not link.ready:
                continue
            try:
                response = await link.request("flush",
                                              timeout=FLUSH_TIMEOUT)
                rules += response.get("rules", 0)
                flushed += 1
            except ConnectionError:
                continue
        published = await self.refresh()
        return ok_response(
            generation=self.repo.generation,
            published=published > 0,
            rules=rules,
            shards_flushed=flushed,
        )

    async def _op_health(self, request: dict) -> dict:
        shards = {
            shard_id: link.status()
            for shard_id, link in self.links.items()
        }
        ready = self.service.ready_shards()
        return ok_response(
            alive=True,
            ready=ready > 0,
            ready_shards=ready,
            shards=shards,
            generation=self.repo.generation,
        )

    async def _op_stats(self, request: dict) -> dict:
        ready = self.service.ready_shards()
        queued = self.service.queue_depth()
        extras = {}
        if self.service.slo is not None:
            extras["slo"] = self.service.slo_report()
        shard_stats = {}
        for shard_id, link in self.links.items():
            if not link.ready:
                continue
            with contextlib.suppress(ConnectionError, BundleError):
                stats = await link.request("stats")
                stats.pop("ok", None)
                shard_stats[shard_id] = stats
        return ok_response(
            generation=self.repo.generation,
            bundles=len(self.repo.entries()),
            fleet={
                "shards": {
                    shard_id: link.status()
                    for shard_id, link in self.links.items()
                },
                "ready_shards": ready,
                "total_shards": len(self.links),
                "vnodes": self.ring.vnodes,
                "gaps_routed": self.gaps_routed,
                "gaps_queued_total": self.gaps_queued_total,
                "queued_gaps": queued,
                "catchups": self.catchups,
            },
            shard_stats=shard_stats,
            telemetry=self.service.telemetry.snapshot(queue_depth=queued),
            **extras,
        )

    # -- transport -----------------------------------------------------------

    async def start(self, socket_path: str | None = None,
                    port: int | None = None,
                    reconnect_interval: float = 0.5) -> None:
        """Attach the shards, start the reconnect loop, listen."""
        for link in self.links.values():
            await self.attach_shard(link)
        self._reconnect_task = asyncio.ensure_future(
            self._reconnect_loop(reconnect_interval)
        )
        await super().start(socket_path, port)

    async def close(self) -> None:
        if self._reconnect_task is not None:
            # Re-cancel until the loop stops: on Python 3.11 a cancel
            # that lands as a ping's ``wait_for`` completes is
            # swallowed, and the loop would keep running forever.
            task = self._reconnect_task
            while not task.done():
                task.cancel()
                await asyncio.wait([task], timeout=0.1)
            with contextlib.suppress(asyncio.CancelledError):
                await task
        await super().close()
        for link in self.links.values():
            link._teardown()


def parse_shard(spec: str) -> ShardLink:
    """``id=/path/to.sock`` or ``id=host:port`` -> :class:`ShardLink`."""
    shard_id, sep, where = spec.partition("=")
    if not sep or not shard_id or not where:
        raise ValueError(f"bad shard spec {spec!r} (want id=socket "
                         "or id=host:port)")
    host, colon, port = where.rpartition(":")
    if colon and port.isdigit() and "/" not in host:
        return ShardLink(shard_id, address=(host, int(port)))
    return ShardLink(shard_id, socket_path=where)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-fleet",
        description="Route DBT clients across a fleet of repro-serve "
                    "shards: consistent-hash gap reports, merge delta "
                    "syncs into one generation-monotone view, and "
                    "catch restarted shards up from the journal.",
    )
    parser.add_argument("--dir", required=True, metavar="DIR",
                        help="coordinator journal directory (a rule "
                             "repository; created if absent)")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--socket", metavar="PATH",
                       help="listen on this unix socket")
    group.add_argument("--port", type=int, metavar="N",
                       help="listen on this TCP port (localhost)")
    parser.add_argument("--shard", action="append", default=[],
                        metavar="ID=ADDR", dest="shards",
                        help="one shard as id=socket-path or "
                             "id=host:port (repeat per shard)")
    parser.add_argument("--reconnect-interval", type=float, default=0.5,
                        metavar="SECONDS",
                        help="down-shard reattach probe interval")
    parser.add_argument("--trace", metavar="PATH",
                        help="write a JSON-lines trace of fleet "
                             "activity here")
    parser.add_argument("--slo", metavar="PATH",
                        help="load SLO objectives from this TOML file")
    args = parser.parse_args(argv)
    if not args.shards:
        parser.error("pass at least one --shard id=addr")

    set_metrics(None)
    links = [parse_shard(spec) for spec in args.shards]
    slo = SloEngine.from_toml(args.slo) if args.slo else None
    coordinator = FleetCoordinator(args.dir, links, slo=slo)
    serve_until_signal(
        "repro-fleet", coordinator, args,
        lambda: f"{coordinator.service.ready_shards()}/{len(links)} "
                f"shard(s) ready, generation {coordinator.repo.generation}",
        reconnect_interval=args.reconnect_interval,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
