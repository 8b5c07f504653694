"""repro.service — the lock manager as a networked service.

Turns the in-process :class:`~repro.lockmgr.manager.LockManager` into
infrastructure: an asyncio TCP server
(:class:`~repro.service.server.LockServer`) speaking a length-prefixed
JSON protocol (:mod:`repro.service.protocol`), with per-connection
sessions and leases so crashed clients cannot wedge the lock table, a
periodic-detector background task, and remote introspection
(:mod:`repro.service.admin`).  Clients come in two flavors:
:class:`~repro.service.client.AsyncLockClient` for asyncio code and the
blocking :class:`~repro.service.client.RemoteLockManager`, a drop-in
mirror of :class:`~repro.lockmgr.concurrent.ConcurrentLockManager`.

    # server (or: python -m repro serve --port 7411)
    server = await serve(port=7411, period=0.5, lease=5.0)

    # client — identical code runs against ConcurrentLockManager
    with RemoteLockManager("127.0.0.1", 7411) as manager:
        manager.acquire(1, "R1", LockMode.X)
        manager.commit(1)
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".admin": ("ServiceStats", "render_stats"),
        ".client": ("AsyncLockClient", "RemoteLockManager"),
        ".core": ("ParkedWait", "ServiceCore", "Session"),
        ".journal": ("RecoveryReport", "SessionJournal", "recover_into"),
        ".loopback": ("EmbeddedLockManager", "LoopbackServer"),
        ".protocol": (
            "MAX_FRAME",
            "FrameTooLarge",
            "ProtocolError",
            "RemoteDetectionResult",
            "ServiceError",
            "WIRE_VERSION",
        ),
        ".server": ("LockServer", "serve"),
    },
)

__all__ = [
    "AsyncLockClient",
    "EmbeddedLockManager",
    "FrameTooLarge",
    "LockServer",
    "LoopbackServer",
    "MAX_FRAME",
    "ParkedWait",
    "ProtocolError",
    "RecoveryReport",
    "RemoteDetectionResult",
    "RemoteLockManager",
    "ServiceCore",
    "ServiceError",
    "ServiceStats",
    "Session",
    "SessionJournal",
    "WIRE_VERSION",
    "recover_into",
    "render_stats",
    "serve",
]
