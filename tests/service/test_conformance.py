"""Protocol conformance: every client op against both endpoint kinds.

One ``AsyncRuleServer`` and one ``FleetCoordinator`` over two
in-process shards are driven through the same scripted run of
every public :class:`RuleServiceClient` op.  Every op must answer
``ok`` on both, and an unknown op must answer an error envelope.  The
fields both endpoints' responses share must match: present on both,
same JSON types, and equal values wherever the answer does not depend
on how gaps were split across shards.  Feeding one corpus program
through ``RemoteFeed`` must publish the same rule identities on both,
and a malformed ``ingest_source`` must answer an error envelope on both
without dropping the connection.
"""

import contextlib

import pytest

from repro.corpus.dedup import SeenStore
from repro.corpus.feed import RemoteFeed
from repro.corpus.generate import generate_program
from repro.corpus.grammar import REGIONS
from repro.corpus.pipeline import (
    IngestPipeline,
    corpus_origin,
    program_digest,
)
from repro.dbt.engine import DBTEngine
from repro.service.client import RuleServiceClient, ServiceError
from repro.service.learner import OnlineLearner

from tests.service.conftest import Fleet, LoopThread, Shard, wait_until

ENDPOINTS = ("server", "fleet")

#: Wire ops of the scripted run, in the order it issues them.
OPS = ("ping", "health", "stats", "metrics", "manifest", "report_gaps",
       "flush", "delta", "bundle", "ingest_source", "flush_ingest")

#: Fields every endpoint must return for each op.
REQUIRED = {
    "ping": {"direction", "semantics", "generation"},
    "health": {"alive", "ready", "generation"},
    "stats": {"generation", "bundles", "telemetry"},
    "metrics": {"metrics", "telemetry"},
    "manifest": {"manifest"},
    "report_gaps": {"accepted", "new", "pending"},
    "flush": {"generation", "published", "rules"},
    "delta": {"generation", "entries"},
    "bundle": {"digest", "bundle"},
    "ingest_source": {"origin", "staged_candidates", "gaps", "new_gaps",
                      "pending"},
    "flush_ingest": {"generation", "published", "rules"},
}

#: Shared fields whose values cannot depend on the shard split.
SAME_VALUE = {
    "ping": ("ok", "direction", "semantics"),
    "health": ("ok", "alive", "ready"),
    "report_gaps": ("ok", "accepted", "new"),
    "flush": ("ok", "published"),
    "ingest_source": ("ok", "origin", "staged_candidates", "gaps",
                      "new_gaps"),
    "flush_ingest": ("ok", "published"),
}


def corpus_program(index: int):
    source = generate_program(REGIONS["mixed"], 17, "mixed", index)
    return IngestPipeline(SeenStore()).process(source, region="mixed",
                                               seed=17, index=index)


@contextlib.contextmanager
def endpoint(kind, loop_thread, tmp_path, builds):
    """A running endpoint whose every learner stages ``builds``;
    yields its socket path."""
    if kind == "server":
        server = Shard(loop_thread, tmp_path, "solo",
                       learner=OnlineLearner(dict(builds)))
        server.start()
        try:
            yield server.path
        finally:
            server.stop()
        return
    fleet = Fleet(loop_thread, tmp_path, ["a", "b"], learners={
        shard_id: OnlineLearner(dict(builds)) for shard_id in ("a", "b")
    })
    try:
        yield fleet.path
    finally:
        fleet.stop()


def run_script(path: str, guest, program) -> dict:
    """Every public client op against one endpoint: the wire response
    of each op in :data:`OPS` (an error envelope when the client raised
    :class:`ServiceError`), the unknown op's, and the sync result."""
    answers: dict = {}

    def record(name, call):
        try:
            answers[name] = call()
        except ServiceError as exc:
            answers[name] = {"ok": False, "error": str(exc)}

    with RuleServiceClient(socket_path=path) as client:
        engine = DBTEngine(guest, "rules", gap_sink=client.recorder)
        engine.run()
        record("ping", client.ping)
        record("health", client.health)
        record("stats", client.stats)
        record("metrics", client.metrics)
        record("manifest", lambda: client.request("manifest"))
        gaps = client.recorder.drain()
        record("report_gaps",
               lambda: client.request("report_gaps", gaps=gaps))
        record("flush", client.flush)
        record("delta", lambda: client.request("delta", since=0))
        entries = answers["delta"].get("entries") or [{}]
        record("bundle", lambda: client.request(
            "bundle", digest=entries[0].get("digest", "")))
        answers["sync"] = client.sync(engine)
        answers["rules"] = [
            rule
            for digest in answers["sync"].digests
            for rule in client.fetch_rules(digest)
        ]
        record("ingest_source", lambda: client.ingest_source(
            program.source, origin=program.origin))
        record("flush_ingest", client.flush)
        record("no_such_op", lambda: client.request("no_such_op"))
    return answers


@pytest.fixture(scope="module")
def transcripts(tmp_path_factory, mcf_pair):
    """Both endpoints' answers to the same scripted run: mcf's gaps
    from an empty-store run, then one corpus program ingested."""
    guest, _ = mcf_pair
    program = corpus_program(1)
    loop_thread = LoopThread()
    try:
        answers = {}
        for kind in ENDPOINTS:
            with endpoint(kind, loop_thread, tmp_path_factory.mktemp(kind),
                          {"mcf": mcf_pair}) as path:
                answers[kind] = run_script(path, guest, program)
        return answers
    finally:
        loop_thread.stop()


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("kind", ENDPOINTS)
def test_op_answers_ok(transcripts, kind, op):
    response = transcripts[kind][op]
    assert response["ok"] is True, response
    missing = REQUIRED[op] - set(response)
    assert not missing, f"{kind} {op} lacks {sorted(missing)}"


@pytest.mark.parametrize("kind", ENDPOINTS)
def test_unknown_op_is_an_error_envelope(transcripts, kind):
    response = transcripts[kind]["no_such_op"]
    assert response["ok"] is False
    assert "unknown op 'no_such_op'" in response["error"]


@pytest.mark.parametrize("op", OPS)
def test_common_fields_match(transcripts, op):
    server = transcripts["server"][op]
    fleet = transcripts["fleet"][op]
    for field in set(server) & set(fleet):
        assert type(server[field]) is type(fleet[field]), (op, field)
    for field in SAME_VALUE.get(op, ()):
        assert server[field] == fleet[field], (op, field)


@pytest.mark.parametrize("kind", ENDPOINTS)
def test_sync_installs_the_fetched_rules(transcripts, kind):
    result = transcripts[kind]["sync"]
    assert result.bundles >= 1
    assert result.rules_installed > 0
    assert len(transcripts[kind]["rules"]) == result.rules_fetched


def test_sync_serves_the_same_rule_identities(transcripts):
    server = set(transcripts["server"]["rules"])
    assert server == set(transcripts["fleet"]["rules"])


def test_remote_feed_publishes_same_rule_identities(loop_thread,
                                                    tmp_path):
    program = corpus_program(2)
    published = {}
    for kind in ENDPOINTS:
        (tmp_path / kind).mkdir()
        with endpoint(kind, loop_thread, tmp_path / kind, {}) as path:
            with RuleServiceClient(socket_path=path) as client:
                fed = RemoteFeed(client).feed(program)
                assert fed.published > 0, kind
                published[kind] = {
                    rule
                    for entry in client.manifest()["bundles"]
                    for rule in client.fetch_rules(entry["digest"])
                }
    assert published["server"]
    assert published["server"] == published["fleet"]


def test_fleet_ingest_to_a_down_owner_names_the_shard(loop_thread,
                                                      tmp_path):
    """Without an ``origin`` the fleet routes by the origin the shard
    would derive from the source, and refuses while that owner is down."""
    program = corpus_program(3)
    fleet = Fleet(loop_thread, tmp_path, ["a", "b"])
    try:
        owner = fleet.coordinator.ring.shard_for(
            corpus_origin(program_digest(program.source)))
        fleet.shards[owner].kill()
        with fleet.client() as client:
            wait_until(
                lambda: not client.health()["shards"][owner]["ready"],
                message=f"coordinator noticing shard {owner} down",
            )
            with pytest.raises(ServiceError, match=f"shard {owner} "):
                client.ingest_source(program.source)
    finally:
        fleet.stop()


#: Requests ``ingest_source`` must refuse with an error envelope (and
#: keep the connection): source that fails to parse, source that fails
#: to type-check, and ``styles`` that is not a list.
BAD_INGESTS = (
    ({"source": "int main(void) { return 1 + ; }\n"}, "ParseError"),
    ({"source": "int main(void) { return missing; }\n"}, "SemanticError"),
    ({"source": "int main(void) { return 1; }\n", "styles": "llvm"},
     "styles must be a list"),
)


@pytest.mark.parametrize("kind", ENDPOINTS)
def test_bad_ingest_source_is_an_error_envelope(loop_thread, tmp_path,
                                                kind):
    with endpoint(kind, loop_thread, tmp_path, {}) as path:
        with RuleServiceClient(socket_path=path) as client:
            for fields, error in BAD_INGESTS:
                with pytest.raises(ServiceError, match=error):
                    client.request("ingest_source", **fields)
            assert client.ping()["ok"] is True
            program = corpus_program(4)
            assert client.ingest_source(program.source)["ok"] is True
