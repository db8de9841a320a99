"""Shared fixtures and harnesses for the rule-service tests."""

import asyncio
import threading
import time

import pytest

from repro.benchsuite import build_learning_pair
from repro.learning.pipeline import learn_rules
from repro.service.client import RuleServiceClient
from repro.service.fleet import FleetCoordinator, ShardLink
from repro.service.repo import RuleRepository
from repro.service.server import AsyncRuleServer, RuleService


class LoopThread:
    """An asyncio event loop running forever on a daemon thread.

    The fleet and retry tests start/stop asyncio servers from
    synchronous test code; ``call(coro)`` runs one coroutine on the
    loop and blocks for its result.
    """

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self.loop)
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert started.wait(10), "loop thread failed to start"

    def call(self, coro, timeout: float = 60.0):
        return asyncio.run_coroutine_threadsafe(
            coro, self.loop
        ).result(timeout)

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


def wait_until(predicate, timeout: float = 20.0,
               interval: float = 0.05, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


class Shard:
    """One in-process shard on the shared loop."""

    def __init__(self, loop_thread, tmp_path, shard_id: str,
                 learner=None) -> None:
        self.lt = loop_thread
        self.base = tmp_path
        self.shard_id = shard_id
        self.path = str(tmp_path / f"{shard_id}.sock")
        self.learner = learner
        self.incarnation = 0
        self.service: RuleService | None = None
        self.server: AsyncRuleServer | None = None

    @property
    def repo_dir(self):
        return self.base / f"{self.shard_id}-repo-{self.incarnation}"

    def start(self, fresh: bool = False) -> None:
        if fresh:
            self.incarnation += 1
        self.service = RuleService(
            RuleRepository(self.repo_dir), self.learner
        )
        self.server = AsyncRuleServer(self.service, auto_learn=False)
        self.lt.call(self.server.start_unix(self.path))

    def kill(self) -> None:
        self.lt.call(self.server.abort())

    def stop(self) -> None:
        if self.server is not None:
            self.lt.call(self.server.close())
            self.server = None


class Fleet:
    """Shards + coordinator + journal, all on one loop thread."""

    def __init__(self, loop_thread, tmp_path, shard_ids,
                 learners=None, start_shards=True) -> None:
        self.lt = loop_thread
        learners = learners or {}
        self.shards = {
            shard_id: Shard(loop_thread, tmp_path, shard_id,
                            learner=learners.get(shard_id))
            for shard_id in shard_ids
        }
        if start_shards:
            for shard in self.shards.values():
                shard.start()
        links = [
            ShardLink(shard_id, socket_path=shard.path)
            for shard_id, shard in self.shards.items()
        ]
        self.coordinator = FleetCoordinator(
            str(tmp_path / "journal"), links
        )
        self.path = str(tmp_path / "fleet.sock")
        self.lt.call(self.coordinator.start(
            socket_path=self.path, reconnect_interval=0.05,
        ))

    def client(self, **kwargs) -> RuleServiceClient:
        return RuleServiceClient(socket_path=self.path, **kwargs)

    def stop(self) -> None:
        self.lt.call(self.coordinator.close())
        for shard in self.shards.values():
            shard.stop()


@pytest.fixture
def loop_thread():
    thread = LoopThread()
    yield thread
    thread.stop()


@pytest.fixture(scope="session")
def mcf_pair():
    return build_learning_pair("mcf")


@pytest.fixture(scope="session")
def libquantum_pair():
    return build_learning_pair("libquantum")


@pytest.fixture(scope="session")
def mcf_rules(mcf_pair):
    guest, host = mcf_pair
    return learn_rules(guest, host, benchmark="mcf").rules


@pytest.fixture(scope="session")
def libquantum_rules(libquantum_pair):
    guest, host = libquantum_pair
    return learn_rules(guest, host, benchmark="libquantum").rules
