"""The lock manager substrate: lock table, Section-3 scheduler and the
LockManager façade."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".concurrent": ("ConcurrentLockManager",),
        ".events": ("Aborted", "Blocked", "Granted", "Repositioned"),
        ".introspect": (
            "BlockExplanation",
            "explain_block",
            "render_report",
            "wait_graph_summary",
        ),
        ".lock_table": ("LockTable",),
        ".manager": ("LockManager",),
        ".sharded": (
            "MergedTableView",
            "ShardedLockCore",
            "ShardedLockManager",
            "ShardedPass",
            "resolve_shard_count",
            "shard_of",
        ),
        ".scheduler": (
            "RequestOutcome",
            "conversion_grantable",
            "release_all",
            "remove_holder",
            "remove_waiter",
            "reposition_queue",
            "request",
            "sweep",
        ),
    },
)

__all__ = [
    "Aborted",
    "Blocked",
    "BlockExplanation",
    "ConcurrentLockManager",
    "Granted",
    "LockManager",
    "LockTable",
    "MergedTableView",
    "Repositioned",
    "RequestOutcome",
    "ShardedLockCore",
    "ShardedLockManager",
    "ShardedPass",
    "conversion_grantable",
    "explain_block",
    "release_all",
    "remove_holder",
    "remove_waiter",
    "render_report",
    "reposition_queue",
    "request",
    "resolve_shard_count",
    "shard_of",
    "sweep",
    "wait_graph_summary",
]
