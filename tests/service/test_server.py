"""End-to-end lock service tests: real sockets, real asyncio server.

Each test spins up a :class:`LockServer` on an ephemeral loopback port
inside one ``asyncio.run`` and drives it purely through the public
:class:`AsyncLockClient` API — the same path external processes use.
"""

import asyncio
import contextlib
import struct

import pytest

from repro.core.errors import TransactionAborted
from repro.core.modes import LockMode
from repro.lockmgr.events import EVENT_LOG_CAPACITY
from repro.service import AsyncLockClient, LockServer, ServiceError
from repro.service.protocol import (
    MAX_BATCH_OPS,
    encode_frame,
    read_frame,
    request,
)

#: The scripted request order that reaches the paper's Example 4.1 state
#: (mirrors tests.conftest.build_example_41_by_requests): (tid, rid,
#: mode, granted?).
EXAMPLE_41_REQUESTS = [
    (7, "R2", "IS", True),
    (1, "R1", "IX", True),
    (2, "R1", "IS", True),
    (3, "R1", "IX", True),
    (4, "R1", "IS", True),
    (1, "R1", "S", False),
    (2, "R1", "S", False),
    (5, "R1", "IX", False),
    (6, "R1", "S", False),
    (7, "R1", "IX", False),
    (8, "R2", "X", False),
    (9, "R2", "IX", False),
    (3, "R2", "S", False),
    (4, "R2", "X", False),
]


@contextlib.asynccontextmanager
async def running_server(**kwargs):
    server = LockServer(**kwargs)
    await server.start("127.0.0.1", 0)
    try:
        yield server
    finally:
        await server.aclose()


@contextlib.asynccontextmanager
async def connected(server, **kwargs):
    client = await AsyncLockClient.connect(
        server.host, server.port, **kwargs
    )
    try:
        yield client
    finally:
        await client.close()


class TestHandshake:
    def test_hello_reports_session_and_server(self):
        async def go():
            async with running_server(period=None) as server:
                async with connected(server) as client:
                    assert client.session == "S1"
                    assert client.lease == server.lease
                    # Capability advertisement: JSON v1 is the only
                    # wire the server speaks.
                    assert client.server_info["wire"] == 1
                    assert client.server_info["period"] is None

        asyncio.run(go())

    def test_first_frame_must_be_hello(self):
        async def go():
            async with running_server(period=None) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(encode_frame(request(1, "stats")))
                await writer.drain()
                response = await read_frame(reader)
                writer.close()
                return response

        response = asyncio.run(go())
        assert response["ok"] is False
        assert response["error"]["code"] == "handshake"

    def test_wrong_wire_version_answered_with_protocol_error(self):
        async def go():
            async with running_server(period=None) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                payload = b'{"v": 99, "id": 1, "op": "hello"}'
                writer.write(struct.pack(">I", len(payload)) + payload)
                await writer.drain()
                response = await read_frame(reader)
                writer.close()
                assert server.stats.protocol_errors == 1
                return response

        response = asyncio.run(go())
        assert response["ok"] is False
        assert response["error"]["code"] == "protocol"
        assert "version" in response["error"]["message"]


class TestTransactions:
    def test_begin_assigns_distinct_tids(self):
        async def go():
            async with running_server(period=None) as server:
                async with connected(server) as one:
                    async with connected(server) as two:
                        first = await one.begin()
                        second = await two.begin()
                        chosen = await two.begin(tid=40)
                        assert first != second
                        assert chosen == 40

        asyncio.run(go())

    def test_not_owner_rejected(self):
        async def go():
            async with running_server(period=None) as server:
                async with connected(server) as one:
                    async with connected(server) as two:
                        assert await one.acquire(1, "R1", LockMode.S)
                        with pytest.raises(ServiceError) as excinfo:
                            await two.commit(1)
                        assert excinfo.value.code == "not-owner"
                        # the rightful owner can still commit
                        await one.commit(1)

        asyncio.run(go())

    def test_commit_releases_and_grants_waiter(self):
        async def go():
            async with running_server(period=None) as server:
                async with connected(server) as one:
                    async with connected(server) as two:
                        assert await one.acquire(1, "R", LockMode.X)
                        waiter = asyncio.ensure_future(
                            two.acquire(2, "R", LockMode.X)
                        )
                        await asyncio.sleep(0.05)
                        assert not waiter.done()
                        await one.commit(1)
                        assert await asyncio.wait_for(waiter, 5.0) is True
                        assert await two.holding(2) == {"R": LockMode.X}

        asyncio.run(go())


class TestDeadlockResolution:
    @pytest.fixture(autouse=True)
    def _detector_lane(self, monkeypatch):
        # These tests stage deadlocks for the detector; the
        # REPRO_POLICY=nowait CI leg would abort the staging waits.
        monkeypatch.setenv("REPRO_POLICY", "periodic")

    def test_periodic_detector_resolves_two_client_deadlock(self):
        async def go():
            async with running_server(period=0.05) as server:
                async with connected(server) as one:
                    async with connected(server) as two:
                        assert await one.acquire(1, "R1", LockMode.S)
                        assert await two.acquire(2, "R2", LockMode.S)
                        results = await asyncio.gather(
                            one.acquire(1, "R2", LockMode.X),
                            two.acquire(2, "R1", LockMode.X),
                            return_exceptions=True,
                        )
                        kinds = sorted(type(r).__name__ for r in results)
                        assert kinds == ["TransactionAborted", "bool"]
                        assert server.stats.victims_aborted == 1
                        assert server.stats.deadlocks_resolved == 1
                        assert not await one.deadlocked()

        asyncio.run(go())

    def test_example_41_abort_free_over_the_wire(self):
        """The paper's Example 4.1 driven by two network clients: the
        detection pass repositions R2's queue and aborts nobody."""

        async def go():
            async with running_server(period=None) as server:
                async with connected(server) as odd:
                    async with connected(server) as even:
                        for tid, rid, mode, expect in EXAMPLE_41_REQUESTS:
                            client = odd if tid % 2 else even
                            got = await client.acquire(
                                tid, rid, mode, wait=False
                            )
                            assert got is expect, (tid, rid, mode)
                        assert await odd.deadlocked()
                        result = await odd.detect()
                        assert result.deadlock_found
                        assert result.abort_free
                        assert result.aborted == []
                        assert [
                            e.rid for e in result.repositions
                        ] == ["R2"]
                        assert not await even.deadlocked()
                        stats = await even.stats()
                        assert stats["abort_free_resolutions"] == 1
                        assert stats["victims_aborted"] == 0

        asyncio.run(go())

    def test_continuous_server_resolves_on_block(self):
        async def go():
            async with running_server(
                period=None, continuous=True
            ) as server:
                async with connected(server) as client:
                    assert await client.acquire(1, "R1", LockMode.S)
                    assert await client.acquire(2, "R2", LockMode.S)
                    assert not await client.acquire(
                        1, "R2", LockMode.X, wait=False
                    )
                    # closing the cycle triggers immediate resolution:
                    # the victim is either the requester (raises) or the
                    # other party (frees R1, so the request is granted)
                    try:
                        assert await client.acquire(2, "R1", LockMode.X)
                        victim = 1
                    except TransactionAborted:
                        victim = 2
                    assert server.manager.was_aborted(victim)
                    assert not await client.deadlocked()

        asyncio.run(go())


    def test_detector_survives_a_failing_pass(self, capsys):
        """Passes that raise are counted and reported on stderr (the
        first with its traceback, later ones in one line each); the
        next pass still runs and resolves a freshly staged 2-cycle."""

        async def go():
            async with running_server(period=0.05) as server:
                detect_step = server.core.detect_step
                calls = []

                def flaky():
                    calls.append(len(calls))
                    if len(calls) <= 2:
                        raise RuntimeError("injected pass failure")
                    return detect_step()

                server.core.detect_step = flaky
                while len(calls) < 2:
                    await asyncio.sleep(0.01)
                async with connected(server) as one:
                    async with connected(server) as two:
                        assert await one.acquire(1, "R1", LockMode.S)
                        assert await two.acquire(2, "R2", LockMode.S)
                        results = await asyncio.wait_for(
                            asyncio.gather(
                                one.acquire(1, "R2", LockMode.X),
                                two.acquire(2, "R1", LockMode.X),
                                return_exceptions=True,
                            ),
                            timeout=5.0,
                        )
                        kinds = sorted(type(r).__name__ for r in results)
                        assert kinds == ["TransactionAborted", "bool"]
                errors = server.core.telemetry.registry.get(
                    "repro_detector_pass_errors_total"
                )
                assert errors.value == 2
                assert server.stats.deadlocks_resolved == 1

        asyncio.run(go())
        err = capsys.readouterr().err
        assert err.count("Traceback") == 1
        assert err.splitlines()[-1] == (
            "detector pass failed (2 failures so far): "
            "RuntimeError('injected pass failure')"
        )


class TestWaitSemantics:
    def test_timeout_then_reacquire_resumes_same_request(self):
        """A timed-out wait leaves the request queued; retrying resumes
        the same queue position instead of enqueueing a duplicate."""

        async def go():
            async with running_server(period=None) as server:
                async with connected(server) as one:
                    async with connected(server) as two:
                        assert await one.acquire(1, "R", LockMode.X)
                        assert not await two.acquire(
                            2, "R", LockMode.S, timeout=0.05
                        )

                        def queue_of(dump):
                            (resource,) = dump["table"]["resources"]
                            return [
                                entry["tid"] for entry in resource["queue"]
                            ]

                        assert queue_of(await two.dump()) == [2]
                        # a second timed-out wait must not duplicate
                        assert not await two.acquire(
                            2, "R", LockMode.S, timeout=0.05
                        )
                        assert queue_of(await two.dump()) == [2]
                        # the retried wait resumes and gets the grant
                        waiter = asyncio.ensure_future(
                            two.acquire(2, "R", LockMode.S)
                        )
                        await asyncio.sleep(0.02)
                        await one.commit(1)
                        assert await asyncio.wait_for(waiter, 5.0)
                        assert server.stats.wait_timeouts == 2

        asyncio.run(go())

    def test_concurrent_wait_for_same_tid_rejected(self):
        async def go():
            async with running_server(period=None) as server:
                async with connected(server) as one:
                    async with connected(server) as two:
                        assert await one.acquire(1, "R", LockMode.X)
                        waiter = asyncio.ensure_future(
                            two.acquire(2, "R", LockMode.S)
                        )
                        await asyncio.sleep(0.05)
                        with pytest.raises(ServiceError) as excinfo:
                            await two.acquire(2, "R", LockMode.S)
                        assert excinfo.value.code == "already-waiting"
                        await one.commit(1)
                        assert await asyncio.wait_for(waiter, 5.0)

        asyncio.run(go())


class TestLeases:
    def test_lease_expiry_frees_locks_within_one_interval(self):
        """A silent client's transactions are aborted and its locks
        freed within (about) one lease interval."""

        async def go():
            async with running_server(period=None) as server:
                silent = await AsyncLockClient.connect(
                    server.host,
                    server.port,
                    lease=0.3,
                    heartbeat=False,
                )
                async with connected(server) as live:
                    assert await silent.acquire(1, "R", LockMode.X)
                    started = asyncio.get_running_loop().time()
                    granted = await live.acquire(
                        2, "R", LockMode.X, timeout=5.0
                    )
                    waited = asyncio.get_running_loop().time() - started
                    assert granted
                    assert waited < 0.3 * 2 + 0.2
                    assert server.stats.lease_expiries == 1
                    assert 1 not in server._owners
                await silent.close()

        asyncio.run(go())

    def test_heartbeats_keep_session_alive(self):
        async def go():
            async with running_server(period=None) as server:
                async with connected(server, lease=0.2) as client:
                    assert await client.acquire(1, "R", LockMode.X)
                    await asyncio.sleep(0.6)  # > 2 leases, heartbeat on
                    assert await client.holding(1) == {"R": LockMode.X}
                    assert server.stats.lease_expiries == 0

        asyncio.run(go())

    def test_rude_disconnect_frees_locks(self):
        async def go():
            async with running_server(period=None) as server:
                rude = await AsyncLockClient.connect(
                    server.host, server.port
                )
                async with connected(server) as live:
                    assert await rude.acquire(1, "R", LockMode.X)
                    # drop the TCP connection with no goodbye
                    rude._writer.transport.abort()
                    granted = await live.acquire(
                        2, "R", LockMode.X, timeout=5.0
                    )
                    assert granted
                    assert server.stats.rude_disconnects == 1
                    assert 1 not in server._owners

        asyncio.run(go())

    def test_clean_goodbye_is_not_rude(self):
        async def go():
            async with running_server(period=None) as server:
                async with connected(server) as client:
                    assert await client.acquire(1, "R", LockMode.S)
                await asyncio.sleep(0.05)
                assert server.stats.rude_disconnects == 0
                assert server.stats.sessions_closed == 1
                # goodbye still sweeps the session's transactions
                assert 1 not in server._owners

        asyncio.run(go())


class TestIntrospectionOps:
    def test_inspect_graph_and_log(self):
        async def go():
            async with running_server(period=None) as server:
                async with connected(server) as client:
                    assert await client.acquire(1, "R1", LockMode.S)
                    assert not await client.acquire(
                        2, "R1", LockMode.X, wait=False
                    )
                    inspect = await client.inspect()
                    assert inspect["resources"] == 1
                    assert inspect["blocked"] == [2]
                    graph = await client.graph(dot=True)
                    # the H-edge points holder -> waiter: T1 -H-> T2
                    assert {"source": 1, "target": 2, "label": "H"}.items() <= graph["edges"][0].items()
                    assert graph["dot"].startswith("digraph")
                    log = await client.log()
                    assert [e["type"] for e in log["events"]] == [
                        "granted",
                        "blocked",
                    ]

        asyncio.run(go())

    def test_log_counts_every_event_and_returns_a_bounded_tail(self):
        async def go():
            async with running_server(period=None) as server:
                async with connected(server) as client:
                    tid = await client.begin()
                    count = EVENT_LOG_CAPACITY + 100
                    rids = ["R{}".format(n) for n in range(count)]
                    for start in range(0, count, MAX_BATCH_OPS):
                        assert await client.acquire_many(tid, [
                            (rid, LockMode.S)
                            for rid in rids[start:start + MAX_BATCH_OPS]
                        ])
                    tail = await client.log(limit=5)
                    assert tail["total"] == count
                    assert [e["rid"] for e in tail["events"]] == rids[-5:]
                    everything = await client.log(limit=0)
                    assert everything["total"] == count
                    assert len(everything["events"]) == EVENT_LOG_CAPACITY
                    assert everything["events"][-5:] == tail["events"]

        asyncio.run(go())

    def test_unknown_op_rejected(self):
        async def go():
            async with running_server(period=None) as server:
                async with connected(server) as client:
                    with pytest.raises(ServiceError) as excinfo:
                        await client._call("frobnicate")
                    assert excinfo.value.code == "bad-op"

        asyncio.run(go())


class TestDeadConnection:
    def test_send_after_idle_eof_fails_fast(self):
        """EOF arriving while *no* request is pending must not leave the
        client looking healthy: the read loop is gone, so a later call
        would park a response future nobody can ever complete.  The
        client remembers the terminal error and fails the send
        immediately instead of hanging until some outer timeout."""

        async def go():
            server = LockServer(period=None)
            await server.start("127.0.0.1", 0)
            client = await AsyncLockClient.connect(
                server.host, server.port, heartbeat=False
            )
            try:
                await server.aclose()  # drops the idle connection
                await asyncio.wait_for(client._reader_task, timeout=5.0)
                loop = asyncio.get_event_loop()
                start = loop.time()
                with pytest.raises(ConnectionError):
                    await client.stats()
                assert loop.time() - start < 1.0
            finally:
                await client.close()

        asyncio.run(go())
