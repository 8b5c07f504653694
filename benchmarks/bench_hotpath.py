"""Hot-path fast lanes: what the bitmask algebra and batching buy.

Two measurements, one per tentpole of the fast-lane work:

* **Grantability/queue-scan microbench.**  The scheduler's innermost
  loop asks two questions constantly: "is this request compatible with
  the resource's total mode?" and "where does the AV prefix of this
  queue end?".  The reference path answers them the way the seed code
  did — rebuild the total by folding the ``CONVERSION`` matrix over
  every holder's ``(granted, blocked)`` pair, then walk the queue doing
  ``COMPATIBILITY`` dict lookups.  The fast lane reads the memoized
  summaries (:attr:`ResourceState.total` maintained via ``SUP_OF_MASK``,
  :meth:`ResourceState.av_prefix_length`) and answers with one integer
  AND against ``CONFLICT_MASKS``.  Headline claim: **>= 1.5x**; the
  measured gap is one-or-two orders of magnitude because O(holders +
  queue) work became O(1).

* **Pipelined batch closed loop.**  The same transaction stream driven
  through the lock service twice: one frame per operation (``begin``,
  eight ``lock``s, ``commit`` = ten round-trips per transaction) versus
  one ``batch`` frame per transaction (one round-trip, blocked locks
  falling back to individual waits).  Headline claim: **>= 1.3x**
  closed-loop throughput at batch size 8; loopback TCP shows several
  times that because the round-trip dominates an uncontended grant.

Both record ``repro.bench/1`` metrics (``--metrics-out``); the committed
baseline lives in ``benchmarks/results/BENCH_hotpath.json``.
"""

import asyncio
import random
import time

from repro.core.modes import (
    COMPATIBILITY,
    CONFLICT_MASKS,
    CONVERSION,
    LockMode,
)
from repro.core.requests import HolderEntry, QueueEntry, ResourceState
from repro.service import AsyncLockClient, LockServer

# -- microbench: grantability + queue scan ---------------------------------

HOLDERS = 48
QUEUE = 24
MICRO_ITERATIONS = 2000
REPEATS = 3

#: The modes the scheduler probes for grantability each iteration.
PROBES = (LockMode.IS, LockMode.IX, LockMode.S, LockMode.SIX, LockMode.X)


def build_state() -> ResourceState:
    """A busy resource: a large compatible holder group (intention
    modes, a couple of blocked conversions) and a mixed queue."""
    state = ResourceState(rid="R")
    for i in range(HOLDERS):
        granted = LockMode.IX if i % 6 == 0 else LockMode.IS
        blocked = LockMode.S if i < 2 else LockMode.NL
        state.holders.append(
            HolderEntry(tid=i, granted=granted, blocked=blocked)
        )
    for i in range(QUEUE):
        mode = LockMode.IS if i < 4 else (
            LockMode.S if i % 2 else LockMode.IX
        )
        state.queue.append(QueueEntry(tid=1000 + i, blocked=mode))
    state.recompute_total()
    return state


def reference_pass(state: ResourceState) -> int:
    """The seed's per-iteration work: fold the conversion matrix over
    every holder to rebuild the total, dict-lookup each grantability
    probe, then walk the queue against the compatibility matrix."""
    total = LockMode.NL
    for holder in state.holders:
        total = CONVERSION[(total, holder.granted)]
        total = CONVERSION[(total, holder.blocked)]
    grantable = 0
    for mode in PROBES:
        if COMPATIBILITY[(total, mode)]:
            grantable += 1
    boundary = 0
    for entry in state.queue:
        if not COMPATIBILITY[(total, entry.blocked)]:
            break
        boundary += 1
    return grantable * 1000 + boundary


def fast_pass(state: ResourceState) -> int:
    """The fast lane: cached total, conflict-mask tests, memoized
    AV-prefix boundary."""
    total_bit = 1 << state.total
    grantable = 0
    for mode in PROBES:
        if not (CONFLICT_MASKS[mode] & total_bit):
            grantable += 1
    return grantable * 1000 + state.av_prefix_length()


def best_time(fn, state) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        for _ in range(MICRO_ITERATIONS):
            fn(state)
        best = min(best, time.perf_counter() - started)
    return best


def test_grantability_queue_scan_microbench(record_result, record_metrics):
    """Mask algebra + cached summaries vs matrix folds + rescans."""
    state = build_state()
    assert reference_pass(state) == fast_pass(state)

    reference = best_time(reference_pass, state)
    fast = best_time(fast_pass, state)
    speedup = reference / fast

    per_iter_ref = reference / MICRO_ITERATIONS * 1e6
    per_iter_fast = fast / MICRO_ITERATIONS * 1e6
    lines = [
        "grantability + queue-scan microbench ({} holders, {} queued, "
        "{} probes/iter, best of {})".format(
            HOLDERS, QUEUE, len(PROBES), REPEATS
        ),
        "{:>10} {:>14} {:>10}".format("path", "us/iter", "speedup"),
        "{:>10} {:>14.2f} {:>10}".format("matrix", per_iter_ref, ""),
        "{:>10} {:>14.2f} {:>9.1f}x".format(
            "bitmask", per_iter_fast, speedup
        ),
    ]
    record_result("X8_hotpath_micro", "\n".join(lines))
    record_metrics(
        "hotpath_micro",
        {
            "matrix_us_per_iter": round(per_iter_ref, 3),
            "bitmask_us_per_iter": round(per_iter_fast, 3),
            "speedup": round(speedup, 2),
        },
        params={
            "holders": HOLDERS,
            "queue": QUEUE,
            "iterations": MICRO_ITERATIONS,
        },
    )
    # Headline claim; the measured gap is far larger (O(n) became O(1)).
    assert speedup >= 1.5, (reference, fast)


# -- closed loop: batch frames vs one frame per op -------------------------

CLIENTS = 4
TXNS_PER_CLIENT = 120
BATCH_SIZE = 8
LOOP_RESOURCES = 256
LOOP_REPEATS = 2


def _accesses(rng: random.Random):
    # Sorted rids = a global lock order, so the workload contends
    # (S/IX conflicts block) but never deadlocks — the comparison
    # measures frame round-trips, not victim aborts.
    rids = sorted(rng.sample(range(LOOP_RESOURCES), BATCH_SIZE))
    return [
        (
            "R{}".format(rid),
            LockMode.IX if rng.random() < 0.2 else LockMode.S,
        )
        for rid in rids
    ]


async def _run_client_sequential(client, base_tid, seed):
    rng = random.Random(seed)
    for offset in range(TXNS_PER_CLIENT):
        tid = base_tid + offset
        await client.begin(tid)
        for rid, mode in _accesses(rng):
            assert await client.acquire(tid, rid, mode, timeout=30.0)
        await client.commit(tid)


async def _run_client_batched(client, base_tid, seed):
    rng = random.Random(seed)
    for offset in range(TXNS_PER_CLIENT):
        tid = base_tid + offset
        accesses = _accesses(rng)
        results = await client.batch(
            [{"op": "begin", "tid": tid}]
            + [
                {"op": "lock", "tid": tid, "rid": rid, "mode": mode.name}
                for rid, mode in accesses
            ]
        )
        assert results[0]["ok"]
        for (rid, mode), result in zip(accesses, results[1:]):
            assert result["ok"]
            if result["status"] == "blocked":
                assert await client.acquire(tid, rid, mode, timeout=30.0)
            else:
                assert result["status"] == "granted"
        await client.commit(tid)


async def _closed_loop(runner) -> float:
    server = LockServer(period=0.05)
    await server.start("127.0.0.1", 0)
    try:
        clients = [
            await AsyncLockClient.connect(server.host, server.port)
            for _ in range(CLIENTS)
        ]
        try:
            started = time.perf_counter()
            await asyncio.gather(*[
                runner(client, 1 + index * 10000, 97 + index)
                for index, client in enumerate(clients)
            ])
            elapsed = time.perf_counter() - started
        finally:
            for client in clients:
                await client.close()
    finally:
        await server.aclose()
    return CLIENTS * TXNS_PER_CLIENT / elapsed


def test_batch_closed_loop_throughput(record_result, record_metrics):
    """One batch frame per transaction vs one frame per operation."""
    sequential = 0.0
    batched = 0.0
    for _ in range(LOOP_REPEATS):
        sequential = max(
            sequential, asyncio.run(_closed_loop(_run_client_sequential))
        )
        batched = max(
            batched, asyncio.run(_closed_loop(_run_client_batched))
        )
    speedup = batched / sequential

    lines = [
        "batched service closed loop ({} clients x {} txns, batch size "
        "{}, {} resources, best of {})".format(
            CLIENTS, TXNS_PER_CLIENT, BATCH_SIZE, LOOP_RESOURCES,
            LOOP_REPEATS,
        ),
        "{:>12} {:>12} {:>10}".format("frames", "txn/s", "speedup"),
        "{:>12} {:>12} {:>10}".format(
            "per-op", round(sequential), ""
        ),
        "{:>12} {:>12} {:>9.1f}x".format(
            "batched", round(batched), speedup
        ),
    ]
    record_result("X9_hotpath_batch", "\n".join(lines))
    record_metrics(
        "hotpath_batch",
        {
            "sequential_txn_s": round(sequential, 1),
            "batched_txn_s": round(batched, 1),
            "speedup": round(speedup, 2),
        },
        params={
            "clients": CLIENTS,
            "txns_per_client": TXNS_PER_CLIENT,
            "batch_size": BATCH_SIZE,
            "resources": LOOP_RESOURCES,
        },
    )
    # Headline claim is >= 1.3x at batch size 8; loopback TCP shows
    # several times that because the round-trip dominates.
    assert speedup >= 1.3, (sequential, batched)
