"""The JSON v1 transport: handshake, frame guards, sockets, embed facade.

Covers the edges the codec unit tests in ``test_protocol.py`` cannot:
a hello asking for the retired binary wire landing safely on JSON,
oversized/truncated frames answering clean protocol errors, the
UNIX-domain listener, a client resuming by token across a restart
(epoch bump), and the zero-serialization embedded facade.
"""

import asyncio
import contextlib
import struct
import threading

import pytest

from repro.core.errors import TransactionAborted
from repro.core.modes import LockMode
from repro.service import (
    AsyncLockClient,
    EmbeddedLockManager,
    LockServer,
    LoopbackServer,
    ServiceError,
)
from repro.service.protocol import (
    ProtocolError,
    encode_frame,
    read_frame,
    request,
)
from repro.service.wire import JsonCodec


@contextlib.asynccontextmanager
async def running_server(**kwargs):
    unix = kwargs.pop("unix", None)
    server = LockServer(**kwargs)
    if unix is not None:
        await server.start(unix=unix)
    else:
        await server.start("127.0.0.1", 0)
    try:
        yield server
    finally:
        await server.aclose()


@contextlib.asynccontextmanager
async def connected(server, **kwargs):
    if server.unix is not None:
        client = await AsyncLockClient.connect(unix=server.unix, **kwargs)
    else:
        client = await AsyncLockClient.connect(
            server.host, server.port, **kwargs
        )
    try:
        yield client
    finally:
        await client.close()


async def raw_hello(server, **fields):
    """Open a bare socket and send one hello; returns the reply and
    the open streams."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write(encode_frame(request(1, "hello", **fields)))
    await writer.drain()
    return await read_frame(reader), reader, writer


class TestNegotiation:
    def test_json_client_sees_no_wire_field(self):
        """An unmodified v1 client's handshake reply carries no
        top-level ``wire`` key; the capability says JSON v1."""

        async def go():
            async with running_server(period=None) as server:
                reply, _, writer = await raw_hello(server)
                assert reply["ok"] is True
                assert "wire" not in reply
                assert reply["server"]["wire"] == 1
                writer.close()

        asyncio.run(go())

    def test_unknown_version_hello_stays_json(self):
        """A hello asking for the retired binary wire (``"wire": 2``)
        gets no grant and the connection keeps working on JSON."""

        async def go():
            async with running_server(period=None) as server:
                reply, reader, writer = await raw_hello(server, wire=2)
                assert reply["ok"] is True
                assert "wire" not in reply
                assert reply["server"]["wire"] == 1
                writer.write(encode_frame(request(2, "begin", tid=5)))
                await writer.drain()
                begun = await read_frame(reader)
                assert begun["ok"] is True and begun["tid"] == 5
                writer.write(encode_frame(
                    request(3, "lock", tid=5, rid="R1", mode="X")
                ))
                await writer.drain()
                locked = await read_frame(reader)
                assert locked["status"] == "granted"
                writer.close()

        asyncio.run(go())

    def test_binary_wire_request_raises_value_error(self):
        async def go():
            async with running_server(period=None) as server:
                with pytest.raises(ValueError, match="binary framing"):
                    await AsyncLockClient.connect(
                        server.host, server.port, wire="binary"
                    )
                # The accepted spellings of the one wire still connect.
                for wire in (None, 1, "json"):
                    async with connected(server, wire=wire) as client:
                        tid = await client.begin()
                        await client.commit(tid)

        asyncio.run(go())


class TestFrameGuards:
    def test_oversized_json_frame_answers_frame_too_large(self):
        async def go():
            async with running_server(period=None) as server:
                server.max_frame = 4096
                async with connected(server) as client:
                    tid = await client.begin()
                    with pytest.raises(ServiceError) as err:
                        await client.acquire(
                            tid, "R" * 8192, LockMode.X
                        )
                    assert err.value.code == "frame-too-large"
                    # The server cannot resync past the unread payload:
                    # the refusal is followed by a close, and the next
                    # call fails fast instead of hanging.
                    with pytest.raises(ConnectionError):
                        await client.acquire(tid, "R1", LockMode.X)
                # A fresh connection works; the server is unharmed.
                async with connected(server) as fresh:
                    tid = await fresh.begin()
                    assert await fresh.acquire(tid, "R1", LockMode.X)

        asyncio.run(go())

    def test_oversized_announcement_rejected_before_buffering(self):
        """A length prefix over the cap is refused without reading the
        payload — the guard against unbounded buffering."""

        async def go():
            async with running_server(period=None) as server:
                server.max_frame = 4096
                reply, reader, writer = await raw_hello(server)
                assert reply["ok"]
                # Announce a 64 MiB JSON frame, send no payload.
                writer.write(struct.pack(">I", 64 * 1024 * 1024))
                await writer.drain()
                answer = await read_frame(reader)
                assert answer["ok"] is False
                assert answer["error"]["code"] == "frame-too-large"
                writer.close()

        asyncio.run(go())

    def test_truncated_header_is_a_clean_close(self):
        """Half a length prefix then EOF: the server drops the
        connection without a partial parse and keeps serving."""

        async def go():
            async with running_server(period=None) as server:
                _, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(b"\x00\x00")  # 2 of 4 header bytes
                writer.close()
                await asyncio.sleep(0.05)
                async with connected(server) as client:
                    tid = await client.begin()
                    await client.commit(tid)

        asyncio.run(go())

    def test_truncated_header_raises_protocol_error(self):
        """EOF *between* frames is a clean close; EOF *inside* a header
        or body is a protocol violation — on the server's metered
        read path."""

        async def go():
            frame = JsonCodec.encode({"v": 1, "id": 3, "op": "heartbeat"})

            reader = asyncio.StreamReader()
            reader.feed_eof()
            assert await JsonCodec.read_metered(reader) == (None, 0, 0.0)

            reader = asyncio.StreamReader()
            reader.feed_data(frame)
            reader.feed_eof()
            message, nbytes, _ = await JsonCodec.read_metered(reader)
            assert message["op"] == "heartbeat"
            assert nbytes == len(frame)

            for cut in (2, len(frame) - 1):  # inside header, inside body
                reader = asyncio.StreamReader()
                reader.feed_data(frame[:cut])
                reader.feed_eof()
                with pytest.raises(ProtocolError):
                    await JsonCodec.read_metered(reader)

        asyncio.run(go())


class TestUnixSocket:
    def test_end_to_end_over_unix_socket(self, tmp_path):
        path = str(tmp_path / "lock.sock")

        async def go():
            async with running_server(period=0.05, unix=path) as server:
                assert server.unix == path
                assert server.host is None
                async with connected(server) as client:
                    tid = await client.begin()
                    assert await client.acquire(tid, "R1", LockMode.X)
                    results = await client.batch(
                        [
                            {
                                "op": "lock",
                                "tid": tid,
                                "rid": "R2",
                                "mode": "S",
                            }
                        ]
                    )
                    assert results[0]["ok"]
                    await client.commit(tid)

        asyncio.run(go())

    def test_loopback_server_binds_unix(self, tmp_path):
        path = str(tmp_path / "loop.sock")
        with LoopbackServer(unix=path, period=None) as server:
            assert server.unix == path
            assert server.port is None

            async def go():
                client = await AsyncLockClient.connect(
                    unix=path, heartbeat=False
                )
                tid = await client.begin()
                assert await client.acquire(tid, "R", LockMode.X)
                await client.commit(tid)
                await client.close()

            asyncio.run(go())


class TestResumeAcrossRestart:
    def test_client_resumes_by_token_after_epoch_bump(self, tmp_path):
        journal = str(tmp_path / "sessions.jsonl")

        async def go():
            server = LockServer(period=None, journal_path=journal)
            await server.start("127.0.0.1", 0)
            client = await AsyncLockClient.connect(
                server.host, server.port, lease=60.0
            )
            sid, token = client.session, client.token
            first_epoch = client.epoch
            tid = await client.begin()
            assert await client.acquire(tid, "R1", LockMode.X)
            await server.crash()
            with contextlib.suppress(Exception):
                await client.close()

            async with running_server(
                period=None, journal_path=journal
            ) as reborn:
                resumed = await AsyncLockClient.resume(
                    reborn.host, reborn.port, sid, token
                )
                try:
                    assert resumed.session == sid
                    assert resumed.resumed_tids == [tid]
                    # The epoch bump arrived with the resume reply.
                    assert resumed.last_epoch == reborn.restart_epoch
                    assert resumed.last_epoch > first_epoch
                    # The journaled lock survived; release it over the
                    # resumed connection.
                    async with connected(reborn) as other:
                        t2 = await other.begin()
                        assert not await other.acquire(
                            t2, "R1", LockMode.S, wait=False
                        )
                        await resumed.commit(tid)
                finally:
                    await resumed.close()

        asyncio.run(go())


class TestEmbeddedManager:
    def test_embed_facade_matches_remote_contract(self):
        # Stages a contended wait=False request; pinned to the detector
        # lane so the REPRO_POLICY=nowait leg does not abort it.
        with LoopbackServer(period=0.05, policy="periodic") as server:
            with EmbeddedLockManager(server) as m1, EmbeddedLockManager(
                server
            ) as m2:
                t1, t2 = m1.begin(), m2.begin()
                assert m1.acquire(t1, "A", LockMode.X)
                assert m2.acquire(t2, "B", LockMode.X)
                assert m1.holding(t1) == {"A": LockMode.X}
                res = m1.batch(
                    [
                        {
                            "op": "lock",
                            "tid": t1,
                            "rid": "C",
                            "mode": "S",
                        }
                    ]
                )
                assert res[0]["status"] == "granted"
                # wait=False on a contended lock: immediate False.
                assert (
                    m1.acquire(t1, "B", LockMode.X, wait=False) is False
                )
                stats = m1.stats()
                assert stats["requests"] >= 5
                m2.commit(t2)
                m1.commit(t1)

    def test_embed_deadlock_resolves_across_threads(self):
        with LoopbackServer(period=0.05) as server:
            with EmbeddedLockManager(server) as m1, EmbeddedLockManager(
                server
            ) as m2:
                t1, t2 = m1.begin(), m2.begin()
                assert m1.acquire(t1, "A", LockMode.X)
                assert m2.acquire(t2, "B", LockMode.X)
                outcome = {}

                def cross():
                    try:
                        outcome["t1"] = m1.acquire(
                            t1, "B", LockMode.X, timeout=10
                        )
                    except TransactionAborted:
                        outcome["t1"] = "aborted"

                thread = threading.Thread(target=cross)
                thread.start()
                try:
                    outcome["t2"] = m2.acquire(
                        t2, "A", LockMode.X, timeout=10
                    )
                except TransactionAborted:
                    outcome["t2"] = "aborted"
                thread.join(timeout=15)
                assert sorted(
                    str(v) for v in outcome.values()
                ) == ["True", "aborted"]
