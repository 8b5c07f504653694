"""Metrics equivalence oracle: a scripted service run must expose the
same metrics, byte for byte, as the committed golden files.

The script drives one :class:`~repro.service.core.ServiceCore` through
every metric-bearing path: immediate and waited grants, queue and
conversion blocks, a TDR-1 victim, a TDR-2 repositioning (Example 4.1),
a batch frame and a client wait timeout.  A stand-alone
``ServiceStats`` block covers ``ServiceStats(grants=3)``, ``+=``,
``repr`` and ``as_dict``.  Clocks are virtual and the detector's pass
timer ticks a fixed step, so the exposition text, the registry
snapshot and the ``stats`` payload are deterministic.  Any change to
how instruments are created, bound or read must leave them all
unchanged.

Regenerate the golden files (only when a metric is meant to change)::

    PYTHONPATH=src python tests/obs/test_metrics_oracle.py
"""

import json
import os
import sys
import time

from repro.core.modes import LockMode
from repro.obs.metrics import MetricsRegistry
from repro.service.admin import ServiceStats, metrics_payload
from repro.service.core import ServiceCore

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


class Ticker:
    """A clock that advances only when told (or by ``step`` per read)."""

    def __init__(self, start: float = 100.0, step: float = 0.0) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def scripted_core() -> ServiceCore:
    clock = Ticker()
    tokens = iter(range(1000))
    core = ServiceCore(
        clock=clock,
        wall=Ticker(start=1.0e9),
        token_source=lambda: "tok{}".format(next(tokens)),
        shards=1,
        policy="periodic",
    )
    s1, s2, s3 = (core.open_session(lease=60.0) for _ in range(3))
    X, S, IS, IX = LockMode.X, LockMode.S, LockMode.IS, LockMode.IX

    def lock(session, tid, rid, mode, wait=False):
        core.begin_step(session, tid)
        return core.lock_step(session, tid, rid, mode, wait=wait)[0]

    # Immediate grants, then a two-resource embrace of queue blocks.
    assert lock(s1, 1, "R1", S) == "granted"
    assert lock(s2, 2, "R2", S) == "granted"
    assert lock(s1, 1, "R2", X, wait=True) == "parked"
    clock.now += 0.004
    assert lock(s2, 2, "R1", X, wait=True) == "parked"
    clock.now += 0.003
    # TDR-1: one victim aborts, the survivor is granted after waiting.
    result = core.detect_step()
    assert result.aborted and not result.repositions
    core.pump()
    for tid in (1, 2):
        core.finish_step(s1 if tid == 1 else s2, tid, aborting=False)

    # A conversion block that times out, then a waited grant.
    assert lock(s1, 3, "R3", S) == "granted"
    assert lock(s2, 4, "R3", S) == "granted"
    status, _, parked = core.lock_step(s1, 3, "R3", X, wait=True)
    assert status == "parked"
    clock.now += 0.3
    assert core.cancel_wait(3, parked) == "timeout"
    core.finish_step(s2, 4, aborting=False)
    core.pump()
    core.finish_step(s1, 3, aborting=False)

    # Example 4.1 (tids 1..9 shifted to 11..19): TDR-2 repositions.
    for tid, rid, mode in (
        (17, "A2", IS), (11, "A1", IX), (12, "A1", IS), (13, "A1", IX),
        (14, "A1", IS), (11, "A1", S), (12, "A1", S), (15, "A1", IX),
        (16, "A1", S), (17, "A1", IX), (18, "A2", X), (19, "A2", IX),
        (13, "A2", S), (14, "A2", X),
    ):
        lock(s3, tid, rid, mode)
    clock.now += 0.02
    result = core.detect_step()
    assert result.repositions and result.abort_free
    core.pump()
    for tid in range(11, 20):
        core.finish_step(s3, tid, aborting=tid % 2 == 0)

    # A batch frame and a clean detector pass.
    core.batch_step(
        s1,
        [
            {"op": "begin", "tid": 30},
            {"op": "lock", "tid": 30, "rid": "R9", "mode": "X"},
            {"op": "commit", "tid": 30},
        ],
    )
    core.detect_step()
    return core


def stats_block() -> ServiceStats:
    stats = ServiceStats(registry=MetricsRegistry(), grants=3, commits=1)
    stats.grants += 2
    stats.blocks += 1
    return stats


def render_all() -> dict:
    """Every golden file's contents, by file name."""
    started = time.perf_counter
    ticks = Ticker(start=0.0, step=0.0005)
    time.perf_counter = ticks
    try:
        core = scripted_core()
    finally:
        time.perf_counter = started
    payload = metrics_payload(core)
    stats = stats_block()
    return {
        "service_core.prom": payload["text"],
        "service_core_snapshot.json": json.dumps(
            payload["metrics"], indent=1
        ) + "\n",
        "service_core_stats.json": json.dumps(
            core.stats_payload(), indent=1
        ) + "\n",
        "service_stats_block.txt": "{!r}\n{}\n{}".format(
            stats, json.dumps(stats.as_dict()), stats.registry.render()
        ),
    }


def test_exposition_snapshot_and_stats_match_the_golden_files():
    for name, text in render_all().items():
        with open(os.path.join(GOLDEN, name)) as handle:
            assert text == handle.read(), name


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, text in render_all().items():
        with open(os.path.join(GOLDEN, name), "w") as handle:
            handle.write(text)
        print("wrote", os.path.join(GOLDEN, name), file=sys.stderr)
