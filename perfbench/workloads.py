"""Seeded traffic generators for the lock-service benchmark.

Each workload turns ``(seed, task index)`` into an endless, repeatable
stream of access lists.  An access list is what one transaction locks,
in order: ``[(rid, mode), ...]`` with ``mode`` ``"S"`` or ``"X"``.  The
server sees only these generated operations.

Why each workload exists (``BENCHMARK.json`` carries a one-line form):

* ``spread`` — 8 locks per transaction, uniform over 4096 rows, taken in
  sorted rid order, 80% S / 20% X.  Rows far outnumber the 16 live
  transactions, so waits are rare and no cycle can form (ordered
  locking); detector passes are clean and cheap and there is no
  journal.  Cost sits in the per-request path: codec, writer queue,
  service core steps, scheduler grants and telemetry hooks.
* ``hotspot`` — 2 to 4 accesses in random order; each access lands on
  one of 32 hot rows with probability 1/2, else on one of 4096 cold
  rows; 30% X, and a quarter of the S reads later upgrade to X (a
  conversion).  It produces H-edges, UPR placement, real cycles, TDR-1
  victims and TDR-2 repositionings every period, plus many parked
  waiters for the pump.
* ``ballast-durable`` — ``spread`` traffic against a journaled server
  (``--journal``, fsync ``batch``) whose table also holds 2048 idle S
  locks (8 reader transactions x 256 rows).  Every periodic pass scans
  the whole table, each pass that sees a blocked transaction renders it
  for its incident record, and every writer pass pays a group-commit
  fsync.  After the run the server is killed and restarted on its
  journal.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

Access = Tuple[str, str]

#: Rows of the uniform (cold) key space shared by every workload.
ROWS = 4096
#: Locks per ``spread`` transaction.
SPREAD_LOCKS = 8
SPREAD_WRITE = 0.2

HOT_ROWS = 32
HOT_SHARE = 0.5
HOTSPOT_MIN, HOTSPOT_MAX = 2, 4
HOTSPOT_WRITE = 0.3
HOTSPOT_UPGRADE = 0.25

#: Idle readers preloaded by ``ballast-durable``: 8 x 256 = 2048 rows,
#: each reader's lock set fits one 256-op batch frame.  At 16384 rows
#: the periodic pass took most of the writer's time, and small swings
#: in machine speed moved throughput by up to 2x between runs.
BALLAST_READERS = 8
BALLAST_ROWS_PER_READER = 256

#: The knobs stamped into every record, per workload.
PARAMS: Dict[str, Dict[str, object]] = {
    "spread": {
        "rows": ROWS,
        "locks_per_txn": SPREAD_LOCKS,
        "write_share": SPREAD_WRITE,
        "order": "sorted",
    },
    "hotspot": {
        "rows": ROWS,
        "hot_rows": HOT_ROWS,
        "hot_share": HOT_SHARE,
        "accesses": [HOTSPOT_MIN, HOTSPOT_MAX],
        "write_share": HOTSPOT_WRITE,
        "upgrade_share": HOTSPOT_UPGRADE,
        "order": "random",
    },
    "ballast-durable": {
        "rows": ROWS,
        "locks_per_txn": SPREAD_LOCKS,
        "write_share": SPREAD_WRITE,
        "order": "sorted",
        "ballast_rows": BALLAST_READERS * BALLAST_ROWS_PER_READER,
        "ballast_readers": BALLAST_READERS,
        "journal_fsync": "batch",
    },
}

WORKLOADS = tuple(PARAMS)


def _row(index: int) -> str:
    return "r{:05d}".format(index)


def spread_txn(rng: random.Random) -> List[Access]:
    rows = sorted(rng.sample(range(ROWS), SPREAD_LOCKS))
    return [
        (_row(row), "X" if rng.random() < SPREAD_WRITE else "S")
        for row in rows
    ]


def hotspot_txn(rng: random.Random) -> List[Access]:
    count = rng.randint(HOTSPOT_MIN, HOTSPOT_MAX)
    rids: List[str] = []
    while len(rids) < count:
        if rng.random() < HOT_SHARE:
            rid = "h{:02d}".format(rng.randrange(HOT_ROWS))
        else:
            rid = _row(rng.randrange(ROWS))
        if rid not in rids:
            rids.append(rid)
    accesses: List[Access] = []
    upgrades: List[str] = []
    for rid in rids:
        if rng.random() < HOTSPOT_WRITE:
            accesses.append((rid, "X"))
            continue
        accesses.append((rid, "S"))
        if rng.random() < HOTSPOT_UPGRADE:
            upgrades.append(rid)
    for rid in upgrades:
        # The upgrade lands anywhere after its read.
        read = accesses.index((rid, "S"))
        accesses.insert(rng.randint(read + 1, len(accesses)), (rid, "X"))
    return accesses


_GENERATORS = {
    "spread": spread_txn,
    "hotspot": hotspot_txn,
    "ballast-durable": spread_txn,
}


def stream(workload: str, seed: int, task: int) -> Iterator[List[Access]]:
    """The endless access-list stream of one closed-loop task."""
    generate = _GENERATORS[workload]
    rng = random.Random("{}:{}:{}".format(workload, seed, task))
    while True:
        yield generate(rng)


def ballast() -> List[List[Access]]:
    """The idle readers' lock sets (disjoint from the workload rows)."""
    return [
        [
            ("b{:05d}".format(reader * BALLAST_ROWS_PER_READER + i), "S")
            for i in range(BALLAST_ROWS_PER_READER)
        ]
        for reader in range(BALLAST_READERS)
    ]
