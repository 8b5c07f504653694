"""The closed-loop load generator.

One process, one asyncio loop, ``CONNECTIONS`` :class:`AsyncLockClient`
sessions with ``TASKS_PER_CONNECTION`` transactions in flight on each.
Every transaction follows the paper's sequential model: ``begin``, one
``lock`` frame at a time, then ``commit``; a deadlock victim sends
``abort`` and restarts the same access list under a fresh transaction
id.  Each task starts its next transaction only when the previous one
committed (a closed loop), so a slow server receives less load.

Every grant feeds the :class:`~oracle.ShadowTable`; after the run the
generator reconciles its commit and victim counts with the server's
``stats`` op and checks that only ballast locks remain.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.core.errors import TransactionAborted
from repro.core.modes import compatible, convert, parse_mode
from repro.service.client import AsyncLockClient
from repro.service.protocol import ServiceError

from oracle import ShadowTable

CONNECTIONS = 2
TASKS_PER_CONNECTION = 8
#: Session lease asked for at hello.  Long enough that the ballast
#: session survives the kill-and-restart of ``ballast-durable``.
LEASE = 120.0
#: A lock wait longer than this is a failed operation.
LOCK_TIMEOUT = 30.0
#: Any reply later than this is a failed operation (the server answers
#: a lock wait by ``LOCK_TIMEOUT`` at the latest).
REPLY_TIMEOUT = LOCK_TIMEOUT + 15.0

clock = time.monotonic

COMMITTED, RETRY, FAILED = "committed", "retry", "failed"


class RunLog:
    """What the clients saw: per-event timestamps and latencies."""

    def __init__(self) -> None:
        self.commits: List[Tuple[float, float]] = []  # (done, txn latency)
        self.locks: List[Tuple[float, float]] = []  # (done, round trip)
        self.attempts: List[float] = []  # begin time of every attempt
        self.victims: List[float] = []  # time each victim abort was seen
        self.ops = 0
        self.failed = 0
        self.failures: List[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)


class LoadGenerator:
    """Drive one server with the closed loop (see module docstring)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.clients: List[AsyncLockClient] = []
        self.shadow = ShadowTable(compatible, convert)
        self.log = RunLog()
        #: Ballast reader tid -> {rid: mode name} it was granted.
        self.ballast: Dict[int, Dict[str, str]] = {}
        self._stop = False
        self._tasks: List[asyncio.Task] = []

    async def connect(self) -> None:
        for _ in range(CONNECTIONS):
            self.clients.append(
                await AsyncLockClient.connect(
                    self.host, self.port, lease=LEASE, wire="json"
                )
            )

    async def preload(self, readers: Sequence[Sequence[Tuple[str, str]]]):
        """Open idle reader transactions on the first connection (whose
        heartbeats keep their lease alive) and grant them their rows."""
        client = self.clients[0]
        for accesses in readers:
            tid = await client.begin()
            pairs = [(rid, parse_mode(mode)) for rid, mode in accesses]
            if not await client.acquire_many(tid, pairs):
                raise RuntimeError("ballast reader T{} was not granted".format(tid))
            for rid, mode in pairs:
                self.shadow.granted(tid, rid, mode)
            self.ballast[tid] = dict(accesses)

    def start(self, streams: Sequence[Iterator[List[Tuple[str, str]]]]):
        for index, accesses in enumerate(streams):
            client = self.clients[index % len(self.clients)]
            self._tasks.append(
                asyncio.ensure_future(self._task(client, accesses))
            )

    async def drain(self, timeout: float = 60.0) -> None:
        """Let every task finish its current transaction, then stop."""
        self._stop = True
        done, pending = await asyncio.wait(self._tasks, timeout=timeout)
        for task in pending:
            task.cancel()
            self.log.fail("task still running at drain timeout")
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for task in done:
            if task.exception() is not None:
                self.log.fail("task crashed: {!r}".format(task.exception()))

    async def _task(self, client: AsyncLockClient, accesses) -> None:
        log = self.log
        while not self._stop:
            plan = [(rid, parse_mode(mode)) for rid, mode in next(accesses)]
            started = clock()
            outcome = RETRY
            while outcome is RETRY:
                outcome = await self._attempt(client, plan)
            if outcome is COMMITTED:
                done = clock()
                log.commits.append((done, done - started))

    async def _attempt(self, client: AsyncLockClient, plan) -> object:
        """One try at a transaction: COMMITTED, RETRY after a victim
        abort (same access list, fresh tid) or FAILED."""
        log = self.log
        log.attempts.append(clock())
        log.ops += 1
        try:
            tid = await asyncio.wait_for(client.begin(), REPLY_TIMEOUT)
        except (ServiceError, ConnectionError, asyncio.TimeoutError) as exc:
            log.fail("begin: {!r}".format(exc))
            return FAILED
        rid = mode = None
        try:
            for rid, mode in plan:
                log.ops += 1
                sent = clock()
                granted = await asyncio.wait_for(
                    client.acquire(tid, rid, mode, timeout=LOCK_TIMEOUT),
                    REPLY_TIMEOUT,
                )
                if not granted:
                    raise ServiceError("timeout", "lock wait timed out")
                got = clock()
                log.locks.append((got, got - sent))
                self.shadow.granted(tid, rid, mode)
        except TransactionAborted:
            log.victims.append(clock())
            self.shadow.aborted(tid)
            await self._finish(client, tid, abort=True)
            return RETRY
        except (ServiceError, ConnectionError, asyncio.TimeoutError) as exc:
            log.fail("lock T{} {} {}: {!r}".format(tid, rid, mode.name, exc))
            self.shadow.finishing(tid)
            await self._finish(client, tid, abort=True)
            return FAILED
        self.shadow.finishing(tid)
        if await self._finish(client, tid, abort=False):
            return COMMITTED
        return FAILED

    async def _finish(self, client, tid: int, abort: bool) -> bool:
        self.log.ops += 1
        call = client.abort(tid) if abort else client.commit(tid)
        try:
            await asyncio.wait_for(call, REPLY_TIMEOUT)
        except (ServiceError, ConnectionError, TransactionAborted,
                asyncio.TimeoutError) as exc:
            self.log.fail("{} T{}: {!r}".format(
                "abort" if abort else "commit", tid, exc
            ))
            return False
        return True

    # -- end-of-run checks -------------------------------------------------

    async def verify(self) -> List[str]:
        """The oracle's verdict after :meth:`drain`; [] when all holds."""
        problems = ["failed op: " + what for what in self.log.failures]
        problems += self.shadow.violations[:3]
        if self.shadow.violations:
            problems.insert(
                0, "{} conflicting grants".format(len(self.shadow.violations))
            )
        stray = self.shadow.live() - set(self.ballast)
        if stray:
            problems.append(
                "shadow still holds locks for {} workload "
                "transactions".format(len(stray))
            )
        stats = await self.clients[0].stats()
        commits = len(self.log.commits)
        if stats.get("commits") != commits:
            problems.append(
                "server counted {} commits, clients {}".format(
                    stats.get("commits"), commits
                )
            )
        if stats.get("victims_aborted") != len(self.log.victims):
            problems.append(
                "server counted {} victims, clients {}".format(
                    stats.get("victims_aborted"), len(self.log.victims)
                )
            )
        leftover = table_tids(await self.clients[0].snapshot())
        extra = sorted(set(leftover) - set(self.ballast))
        if extra:
            problems.append(
                "workload locks remain in the table: {}".format(
                    {tid: leftover[tid] for tid in extra[:5]}
                )
            )
        return problems

    async def close(self) -> None:
        for client in self.clients:
            await client.close()


def table_tids(snapshot: Dict) -> Dict[int, Dict[str, str]]:
    """tid -> {rid: granted mode} over a snapshot's holders and queues
    (queued entries show as mode ``"queued"``)."""
    tids: Dict[int, Dict[str, str]] = {}
    for state in snapshot["table"]["resources"]:
        for holder in state["holders"]:
            tids.setdefault(holder["tid"], {})[state["rid"]] = holder["granted"]
        for waiter in state["queue"]:
            tids.setdefault(waiter["tid"], {})[state["rid"]] = "queued"
    return tids


def in_window(samples, start: float, end: float) -> List[float]:
    return [value for when, value in samples if start <= when < end]
