"""The service's one wire codec: length-prefixed JSON (wire version 1).

Every frame is a 4-byte big-endian payload length followed by that
many bytes of UTF-8 JSON carrying the versioned ``{"v": 1, ...}``
envelope (see :mod:`.protocol` for the message vocabulary)::

    offset  size  field
    0       4     payload length (big-endian u32, at most ``max_frame``)
    4       n     UTF-8 JSON object

The frame-size guard applies both ways: an announced length over the
connection's ``max_frame`` (``serve --max-frame``, default
:data:`MAX_FRAME`) is refused before any payload is buffered, and an
outgoing message that would exceed it is never written.  Either side
answers a ``frame-too-large`` error and closes the connection.

Handshake
---------

The first frame is ``hello`` or ``resume``.  The reply advertises
``"server": {"wire": 1, ...}``.  A ``wire`` field in the request is
ignored and no grant is ever sent back, so a client that asks for the
retired binary dialect (``"wire": 2``) sees the documented fallback:
it stays on JSON v1 for the whole connection.

Why one codec
-------------

An earlier binary wire v2 (struct header plus hand-rolled per-field
codecs) was removed.  Pure-Python encoding lost to the C ``json``
module on lock responses (encode 11.84 vs 6.65 us, decode 12.52 vs
4.80 us), and on a 2048-resource ``snapshot`` reply a binary round
trip took about 67 ms against about 15 ms for JSON.  Frames get smaller
by shipping less (``batch``), not by encoding more cleverly.

:class:`JsonCodec` is the per-frame path of the server.  It is looked
up on the class at call time, so an out-of-tree profiler can wrap
``JsonCodec.encode`` and ``JsonCodec.read_metered`` without touching
the server.
"""

from __future__ import annotations

import asyncio
import json
from time import perf_counter
from typing import Any, Dict, Optional, Tuple

from .protocol import (
    MAX_FRAME,
    decode_payload,
    encode_frame,
    read_payload,
)

__all__ = ["JsonCodec", "MAX_FRAME", "wire_roundtrip"]


class JsonCodec:
    """Wire v1: length-prefixed JSON (see :mod:`.protocol`).

    >>> frame = JsonCodec.encode({"v": 1, "id": 1, "op": "heartbeat"})
    >>> int.from_bytes(frame[:4], "big"), frame[4:]
    (31, b'{"v":1,"id":1,"op":"heartbeat"}')
    """

    @staticmethod
    def encode(
        message: Dict[str, Any], max_frame: int = MAX_FRAME
    ) -> bytes:
        """One message as a frame; raises ``FrameTooLarge`` over
        ``max_frame``."""
        return encode_frame(message, max_frame=max_frame)

    @staticmethod
    async def read_metered(
        reader: asyncio.StreamReader, max_frame: int = MAX_FRAME
    ) -> Tuple[Optional[Dict[str, Any]], int, float]:
        """Read one frame: ``(message, wire bytes, decode seconds)``.

        ``(None, 0, 0.0)`` on a clean EOF between frames.  The seconds
        cover only the JSON parse, not the wait for the bytes.
        """
        payload = await read_payload(reader, max_frame)
        if payload is None:
            return None, 0, 0.0
        started = perf_counter()
        message = decode_payload(payload)
        return message, 4 + len(payload), perf_counter() - started


def wire_roundtrip(message: Any) -> Any:
    """``message`` as the peer would see it after one trip through the
    wire: the explorer's and the in-process cluster's proof that every
    payload is JSON-shaped (string keys, lists, no tuples).

    >>> wire_roundtrip({"seq": (1, 2), 3: None})
    {'seq': [1, 2], '3': None}
    """
    return json.loads(json.dumps(message, separators=(",", ":")))
