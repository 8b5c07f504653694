"""Memory bounds of the lock managers: the event log keeps only the
newest events, and the sharded core's first-lock sequence map only the
live resources."""

import random
import sys
import threading

import pytest

from repro.core.modes import LockMode
from repro.lockmgr.events import EVENT_LOG_CAPACITY, Blocked, Granted
from repro.lockmgr.manager import LockManager
from repro.lockmgr.sharded import ShardedLockCore, ShardedLockManager


def managers():
    return [
        pytest.param(lambda listener: LockManager(listener=listener),
                     id="monolithic"),
        pytest.param(lambda listener: ShardedLockCore(
            shards=1, listener=listener, policy="periodic"), id="1-shard"),
        pytest.param(lambda listener: ShardedLockCore(
            shards=4, listener=listener, policy="periodic"), id="4-shard"),
    ]


@pytest.mark.parametrize("make", managers())
def test_event_log_keeps_the_newest_events_and_counts_all(make):
    published = []
    manager = make(published.append)
    for tid in range(1, 701):
        manager.lock(tid, "R{}".format(tid % 7), LockMode.S)
        manager.lock(tid + 10000, "R{}".format(tid % 7), LockMode.X)
        manager.finish(tid)  # grants the X waiter
        manager.finish(tid + 10000)
    assert len(published) > EVENT_LOG_CAPACITY
    assert manager.log.total == len(published)
    assert len(manager.log) == EVENT_LOG_CAPACITY
    assert list(manager.log) == published[-EVENT_LOG_CAPACITY:]
    assert manager.log.tail(3) == published[-3:]
    assert manager.log.tail(0) == published[-EVENT_LOG_CAPACITY:]


def test_event_log_below_capacity_keeps_everything():
    manager = LockManager()
    manager.lock(1, "R", LockMode.X)
    manager.lock(2, "R", LockMode.S)
    assert manager.log.total == len(manager.log) == 2
    assert [type(event) for event in manager.log] == [Granted, Blocked]


@pytest.mark.parametrize("shards", [1, 4])
def test_sequence_map_holds_only_live_resources(shards):
    core = ShardedLockCore(shards=shards, policy="periodic")
    for tid in range(1, 2501):
        for k in range(4):
            core.lock(tid, "R{}".format(tid * 4 + k), LockMode.X)
        core.finish(tid)
    # 10k distinct rids locked and released: none is remembered.
    assert core.sequence_map() == {}
    core.lock(1, "A", LockMode.S)
    core.lock(1, "B", LockMode.S)
    core.lock(2, "B", LockMode.X)  # blocked: B stays live
    core.finish(1)
    assert len(core.sequence_map()) == len(core.table) == 1
    assert set(core.sequence_map()) == {"B"}


def test_relock_after_release_draws_a_fresh_number():
    core = ShardedLockCore(shards=4, policy="periodic")
    core.lock(1, "A", LockMode.S)
    core.lock(1, "B", LockMode.S)
    first = core.sequence_of("A")
    core.finish(1)
    assert core.sequence_of("A") is None
    core.lock(2, "B", LockMode.S)
    core.lock(2, "A", LockMode.S)
    assert core.sequence_of("A") > core.sequence_of("B") > first
    assert core.table.resource_ids() == ["B", "A"]


def test_sequence_map_stays_exact_under_threads():
    """More threads than cores lock, release and re-lock a small pool of
    rids while a detector thread merges snapshots: no snapshot meets a
    live resource without a sequence number, and none outlives its
    resource."""
    manager = ShardedLockManager(shards=4, policy="periodic")
    core = manager._core
    errors = []
    stop = threading.Event()

    def worker(index):
        rng = random.Random(index)
        try:
            for n in range(300):
                tid = index * 100000 + n
                rids = sorted(rng.sample(range(32), 3))
                for rid in rids:
                    mode = LockMode.X if rng.random() < 0.3 else LockMode.S
                    assert manager.acquire(tid, "R{}".format(rid), mode,
                                           timeout=10.0)
                manager.commit(tid)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    def detector():
        try:
            while not stop.is_set():
                core.detect()
                core.table.resource_ids()
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        watcher = threading.Thread(target=detector)
        watcher.start()
        workers = [threading.Thread(target=worker, args=(i,))
                   for i in range(1, 7)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60.0)
        stop.set()
        watcher.join(timeout=10.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in workers + [watcher])
    assert errors == []
    assert core.sequence_map() == {}
    assert len(core.table) == 0
