"""The sharded rule-service fleet: ring, routing, churn, catch-up.

Everything runs in-process: N real ``AsyncRuleServer`` shards plus a
``FleetCoordinator`` share one background event loop, clients talk
real unix sockets, and a shard "kill" is ``AsyncRuleServer.abort()``
(listener and live connections dropped without draining — exactly
what a crash looks like to the coordinator).  The subprocess flavour
of the same scenarios lives in ``scripts/fleet_gate.py``.
"""

import pytest

from repro.dbt.engine import DBTEngine
from repro.learning.store import RuleStore
from repro.service.client import ServiceError
from repro.service.fleet import HashRing, parse_shard
from repro.service.learner import OnlineLearner

from tests.service.conftest import Fleet, wait_until


def fake_gap(index: int) -> dict:
    return {
        "digest": f"{index:064x}",
        "direction": "arm-x86",
        "text": f"window {index}",
        "mnemonics": ["add", "sub"],
    }


class TestHashRing:
    def test_deterministic_across_instances(self):
        keys = [f"key-{i}" for i in range(200)]
        one = HashRing(["a", "b", "c"])
        two = HashRing(["a", "b", "c"])
        assert [one.shard_for(k) for k in keys] == \
            [two.shard_for(k) for k in keys]

    def test_balanced_at_default_vnodes(self):
        ring = HashRing(["a", "b", "c"])
        counts = {"a": 0, "b": 0, "c": 0}
        total = 3000
        for i in range(total):
            counts[ring.shard_for(f"key-{i}")] += 1
        for shard, count in counts.items():
            assert count > total * 0.2, (shard, counts)
            assert count < total * 0.5, (shard, counts)

    def test_removal_only_remaps_departed_shards_keys(self):
        ring = HashRing(["a", "b", "c", "d"])
        keys = [f"key-{i}" for i in range(500)]
        before = {k: ring.shard_for(k) for k in keys}
        ring.remove("c")
        for key in keys:
            if before[key] != "c":
                assert ring.shard_for(key) == before[key]
            else:
                assert ring.shard_for(key) in {"a", "b", "d"}

    def test_membership_errors(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError):
            ring.add("a")
        with pytest.raises(ValueError):
            HashRing([], vnodes=0)
        empty = HashRing([])
        with pytest.raises(ValueError):
            empty.shard_for("key")

    def test_parse_shard_specs(self):
        unix = parse_shard("a=/tmp/a.sock")
        assert unix.shard_id == "a"
        assert unix.socket_path == "/tmp/a.sock"
        tcp = parse_shard("b=localhost:7000")
        assert tcp.address == ("localhost", 7000)
        with pytest.raises(ValueError):
            parse_shard("no-address")


class TestFleetRouting:
    def test_ping_announces_the_fleet(self, loop_thread, tmp_path):
        fleet = Fleet(loop_thread, tmp_path, ["a", "b", "c"])
        try:
            with fleet.client() as client:
                info = client.ping()
                assert info["fleet"] is True
                assert info["shards"] == 3
        finally:
            fleet.stop()

    def test_gap_reports_partition_by_ring(self, loop_thread, tmp_path):
        fleet = Fleet(loop_thread, tmp_path, ["a", "b", "c"])
        try:
            gaps = [fake_gap(i) for i in range(12)]
            expected: dict[str, int] = {}
            for gap in gaps:
                owner = fleet.coordinator.ring.shard_for(gap["digest"])
                expected[owner] = expected.get(owner, 0) + 1
            with fleet.client() as client:
                response = client.request("report_gaps", gaps=gaps)
            assert response["accepted"] == 12
            assert response["queued"] == 0
            for shard_id, shard in fleet.shards.items():
                assert shard.service.gaps.pending == \
                    expected.get(shard_id, 0), shard_id
        finally:
            fleet.stop()

    def test_gap_without_digest_is_rejected(self, loop_thread,
                                            tmp_path):
        fleet = Fleet(loop_thread, tmp_path, ["a", "b"])
        try:
            with fleet.client() as client:
                with pytest.raises(ServiceError):
                    client.request("report_gaps",
                                   gaps=[{"direction": "arm-x86"}])
                assert client.ping()["ok"] is True
        finally:
            fleet.stop()


class TestShardChurn:
    def test_gaps_queue_while_down_and_redeliver(self, loop_thread,
                                                 tmp_path):
        fleet = Fleet(loop_thread, tmp_path, ["a", "b"])
        try:
            # Find a gap owned by shard a, then kill a.
            gap = next(
                fake_gap(i) for i in range(64)
                if fleet.coordinator.ring.shard_for(
                    fake_gap(i)["digest"]) == "a"
            )
            fleet.shards["a"].kill()
            with fleet.client() as client:
                response = client.request("report_gaps", gaps=[gap])
                assert response["accepted"] == 1
                assert response["queued"] == 1

                health = client.health()
                assert health["alive"] is True
                assert health["ready"] is True  # b still serves
                assert health["shards"]["a"]["alive"] is False
                assert health["shards"]["a"]["queued_gaps"] == 1
                assert health["shards"]["a"]["kills_observed"] == 1

                # Same digest again: deduped in the queue.
                again = client.request("report_gaps", gaps=[gap])
                assert again["queued"] == 0

                fleet.shards["a"].start()
                wait_until(
                    lambda: client.health()["ready_shards"] == 2,
                    message="shard a back to ready",
                )
                wait_until(
                    lambda: fleet.shards["a"].service.gaps.pending == 1,
                    message="queued gap redelivered",
                )
        finally:
            fleet.stop()

    def test_forwarded_gaps_survive_fresh_restart(self, loop_thread,
                                                  tmp_path):
        fleet = Fleet(loop_thread, tmp_path, ["a", "b"])
        try:
            gap = next(
                fake_gap(i) for i in range(64)
                if fleet.coordinator.ring.shard_for(
                    fake_gap(i)["digest"]) == "a"
            )
            with fleet.client() as client:
                response = client.request("report_gaps", gaps=[gap])
                assert response["queued"] == 0
                assert fleet.shards["a"].service.gaps.pending == 1

                # The shard dies with the gap in its in-memory
                # aggregator and comes back empty; the coordinator's
                # routed backlog re-reports it on reattach.
                fleet.shards["a"].kill()
                wait_until(
                    lambda: not client.health()["shards"]["a"]["alive"],
                    message="coordinator noticing the kill",
                )
                fleet.shards["a"].start(fresh=True)
                wait_until(
                    lambda: fleet.shards["a"].service.gaps.pending == 1,
                    message="routed gap redelivered after restart",
                )
        finally:
            fleet.stop()

    def test_catch_up_replays_journal_into_fresh_shard(
            self, loop_thread, tmp_path, mcf_rules):
        fleet = Fleet(loop_thread, tmp_path, ["a", "b"],
                      start_shards=False)
        try:
            fleet.shards["a"].start()
            fleet.shards["a"].service.repo.publish(
                list(mcf_rules), "arm-x86"
            )
            with fleet.client() as client:
                # A delta sync folds shard a's bundle into the journal.
                wait_until(
                    lambda: client.health()["shards"]["a"]["ready"],
                    message="shard a attached",
                )
                delta = client.request("delta", since=0)
                assert delta["generation"] >= 1
                assert len(delta["entries"]) == 1
                journal_bundles = len(fleet.coordinator.repo.entries())
                assert journal_bundles == 1

                # Shard b starts empty; the reconnect loop catches it
                # up from the journal before marking it ready.
                fleet.shards["b"].start()
                wait_until(
                    lambda: client.health()["ready_shards"] == 2,
                    message="shard b caught up",
                )
                assert len(fleet.shards["b"].service.repo.entries()) == 1
                assert fleet.coordinator.catchups >= 2

                # b re-offering the replayed bundle publishes nothing
                # new to the fleet (rule-identity dedup).
                after = client.request("delta", since=0)
                assert after["generation"] == delta["generation"]
                assert len(fleet.coordinator.repo.entries()) == \
                    journal_bundles
        finally:
            fleet.stop()

    def test_generation_monotone_across_fresh_restart(
            self, loop_thread, tmp_path, mcf_pair, mcf_rules,
            libquantum_rules):
        fleet = Fleet(loop_thread, tmp_path, ["a", "b"])
        try:
            guest, _ = mcf_pair
            fleet.shards["a"].service.repo.publish(
                list(mcf_rules), "arm-x86"
            )
            with fleet.client() as client:
                engine = DBTEngine(guest, "rules", RuleStore())
                generations = []
                first = client.sync(engine)
                assert first.rules_installed > 0
                generations.append(first.generation)

                # Kill a and bring it back with an empty directory —
                # the catch-up replay restores its rule set, and the
                # fleet view neither regresses nor duplicates.
                fleet.shards["a"].kill()
                wait_until(
                    lambda: not client.health()["shards"]["a"]["alive"],
                    message="coordinator noticing the kill",
                )
                fleet.shards["a"].start(fresh=True)
                wait_until(
                    lambda: client.health()["ready_shards"] == 2,
                    message="shard a caught up after fresh restart",
                )
                assert len(
                    fleet.shards["a"].service.repo.entries()
                ) >= 1
                second = client.sync(engine)
                assert second.bundles == 0
                generations.append(second.generation)

                # New rules from shard b advance the fleet generation.
                fleet.shards["b"].service.repo.publish(
                    list(libquantum_rules), "arm-x86"
                )
                third = client.sync(engine)
                assert third.bundles >= 1
                generations.append(third.generation)

            assert generations == sorted(generations)
            assert generations[0] == generations[1]
            assert generations[2] > generations[1]
        finally:
            fleet.stop()


class TestFleetEndToEnd:
    def test_coverage_parity_through_coordinator(
            self, loop_thread, tmp_path, mcf_pair, mcf_rules):
        # Every shard stages the full corpus: gaps are sharded, so any
        # shard must be able to learn whichever gaps it is routed.
        learners = {
            shard_id: OnlineLearner({"mcf": mcf_pair})
            for shard_id in ("a", "b")
        }
        fleet = Fleet(loop_thread, tmp_path, ["a", "b"],
                      learners=learners)
        try:
            guest, _ = mcf_pair
            with fleet.client() as client:
                engine = DBTEngine(guest, "rules",
                                   gap_sink=client.recorder)
                first = engine.run()
                assert engine.last_run.dynamic_coverage == 0.0

                assert client.report_gaps() > 0
                flushed = client.flush()
                assert flushed["published"] is True
                assert flushed["shards_flushed"] == 2

                result = client.sync(engine)
                assert result.rules_installed > 0

                second = engine.run()
                assert second.return_value == first.return_value
                online = engine.last_run.dynamic_coverage

            offline_engine = DBTEngine(
                guest, "rules", RuleStore.from_rules(list(mcf_rules))
            )
            offline_engine.run()
            offline = offline_engine.last_run.dynamic_coverage
            assert online == pytest.approx(offline, abs=0.01)
        finally:
            fleet.stop()
