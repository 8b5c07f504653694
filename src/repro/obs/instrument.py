"""The telemetry hub: one object wiring the lock stack's seams into a
:class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.spans.TraceLog`.

The lock manager already reports every observable mutation as an event
(:mod:`repro.lockmgr.events`); :meth:`Telemetry.on_event` is the
listener a :class:`~repro.lockmgr.manager.LockManager` calls for each
one, feeding the per-mode/per-resource wait-time histograms and the
block/grant/reposition counters.  The service layer adds the pieces only
it knows — frame arrival (:meth:`request`), resumed waits
(:meth:`resume`), client timeouts (:meth:`wait_timeout`), transaction
end (:meth:`finish`) — and the detector reports each pass through
:meth:`detection`.

``enabled=False`` turns every hook into an early return while keeping
the registry alive (the service's ``ServiceStats`` counters still
work), which is how the ``<=5%`` instrumentation-overhead budget is
enforced: the disabled path costs one attribute load and a branch.

The per-request and per-pass hooks hold their instruments in
:class:`~repro.obs.metrics.ChildCache` maps: each child is bound
through the registry on first use, and every later call is one dict
lookup and an add.  Families still appear, in the exposition and at
all, exactly when they first get a value.

The metric catalog lives in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from ..core.victim import AbortCandidate
from ..lockmgr.events import Aborted, Blocked, Granted, Repositioned
from .metrics import (
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
    DURATION_BUCKETS,
    ChildCache,
    MetricsRegistry,
)
from .spans import TraceLog

__all__ = ["Telemetry"]


class Telemetry:
    """Registry + trace log + the instrumentation hooks (see module
    docstring).  ``clock`` is the owning service's (possibly virtual)
    clock; wall time is always stamped alongside it."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = True,
        trace_capacity: int = 4096,
        registry: Optional[MetricsRegistry] = None,
        origin: Optional[str] = None,
    ) -> None:
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry()
        self._clock = clock if clock is not None else time.monotonic
        self.trace = TraceLog(
            clock=self._clock, capacity=trace_capacity, origin=origin
        )
        #: tid -> (virtual time of first block, mode name, wait kind).
        #: Survives client timeouts (the request stays queued), so the
        #: wait histogram measures time from first block to grant.
        self._blocked_since: Dict[int, Tuple[float, str, str]] = {}

        counter, gauge = self.registry.counter, self.registry.gauge
        histogram = self.registry.histogram
        # Service-layer and lock-manager event instruments.
        self._requests = ChildCache(
            counter, "repro_lock_requests_total",
            help="lock frames issued to the manager",
        )
        self._batch_size = ChildCache(
            histogram, "repro_batch_size",
            help="sub-operations per batch frame",
            buckets=COUNT_BUCKETS,
        )
        self._batch_saved = ChildCache(
            counter, "repro_batch_saved_roundtrips_total",
            help="network round-trips avoided by batching (size-1 "
            "per batch)",
        )
        self._grants = ChildCache(
            counter, "repro_lock_grants_total", ("path",),
            help="granted lock requests by grant path",
        )
        self._waits = ChildCache(
            histogram, "repro_lock_wait_seconds", ("mode", "kind"),
            help="time from first block to grant",
            buckets=DEFAULT_BUCKETS,
        )
        self._blocks = ChildCache(
            counter, "repro_lock_blocks_total", ("kind",),
            help="blocked lock requests by wait kind",
        )
        self._resource_blocks = ChildCache(
            counter, "repro_resource_blocks_total", ("rid",),
            help="blocked lock requests per resource (contention "
            "hot spots)",
        )
        self._victims = ChildCache(
            counter, "repro_txn_victims_total",
            help="transactions aborted by deadlock resolution",
        )
        self._repositions = ChildCache(
            counter, "repro_tdr2_repositions_total",
            help="queue repositionings performed by TDR-2",
        )
        self._delayed = ChildCache(
            counter, "repro_tdr2_delayed_requests_total",
            help="requests moved behind the AV prefix by TDR-2",
        )
        # Detector-pass instruments.
        self._passes = ChildCache(
            counter, "repro_detector_passes_total",
            help="detection passes run",
        )
        self._cycles_found = ChildCache(
            counter, "repro_detector_cycles_found_total",
            help="deadlock cycles found (the paper's c')",
        )
        self._edges_examined = ChildCache(
            counter, "repro_detector_edges_examined_total",
            help="edges examined by Step-2 walks",
        )
        self._tdr1 = ChildCache(
            counter, "repro_detector_tdr1_total",
            help="cycles resolved by abort",
        )
        self._tdr2 = ChildCache(
            counter, "repro_detector_tdr2_total",
            help="cycles resolved by queue repositioning",
        )
        self._deadlock_passes = ChildCache(
            counter, "repro_detector_deadlock_passes_total",
            help="passes that found at least one cycle",
        )
        self._abort_free_passes = ChildCache(
            counter, "repro_detector_abort_free_passes_total",
            help="deadlock passes resolved without any abort",
        )
        self._pass_seconds = ChildCache(
            histogram, "repro_detector_pass_seconds",
            help="wall-clock duration of one detection pass",
            buckets=DURATION_BUCKETS,
        )
        self._graph_transactions = ChildCache(
            histogram, "repro_detector_graph_transactions",
            help="H/W-TWBG size (transactions) per pass",
            buckets=COUNT_BUCKETS,
        )
        self._cycles_per_pass = ChildCache(
            histogram, "repro_detector_cycles_per_pass",
            help="cycles found per pass",
            buckets=COUNT_BUCKETS,
        )
        self._trrps_per_cycle = ChildCache(
            histogram, "repro_detector_trrps_per_cycle",
            help="TRRP junctions per resolved cycle",
            buckets=COUNT_BUCKETS,
        )
        self._last_pass_seconds = ChildCache(
            gauge, "repro_detector_last_pass_seconds",
            help="duration of the most recent pass",
        )
        self._last_cycles = ChildCache(
            gauge, "repro_detector_last_cycles",
            help="cycles found by the most recent pass",
        )
        self._last_graph_transactions = ChildCache(
            gauge, "repro_detector_last_graph_transactions",
            help="graph size of the most recent pass",
        )
        self._last_run = ChildCache(
            gauge, "repro_detector_last_run",
            help="virtual-clock time of the most recent pass",
        )

    # -- service-layer hooks ----------------------------------------------

    def request(
        self,
        tid: int,
        rid: str,
        mode,
        trace: Optional[str] = None,
        parent: Optional[str] = None,
    ) -> None:
        """A fresh lock frame is about to hit the manager.  ``trace``
        and ``parent`` are the client-stamped trace context (trace id +
        parent span ref) propagated from the request frame."""
        if not self.enabled:
            return
        self._requests[()].inc()
        self.trace.begin(tid, rid, _mode_name(mode), trace=trace,
                         parent=parent)

    def resume(self, tid: int, rid: str, mode) -> None:
        """A lock frame arrived for a transaction already blocked (the
        request-stays-queued resume path after a client timeout)."""
        if not self.enabled:
            return
        self._requests[()].inc()
        self.trace.resumed(tid, rid, _mode_name(mode))

    def wait_timeout(self, tid: int) -> None:
        """The client gave up waiting; the request stays queued."""
        if not self.enabled:
            return
        self.registry.counter(
            "repro_lock_wait_timeouts_total",
            help="parked waits abandoned by client timeout",
        ).inc()
        self.trace.timed_out(tid)

    def batch(self, size: int) -> None:
        """One ``batch`` frame carrying ``size`` pipelined sub-ops."""
        if not self.enabled:
            return
        self._batch_size[()].observe(size)
        self._batch_saved[()].inc(max(size - 1, 0))

    def finish(self, tid: int, aborted: bool = False) -> None:
        """Transaction end: close its spans, forget its pending wait."""
        if not self.enabled:
            return
        self._blocked_since.pop(tid, None)
        self.trace.finished(tid, aborted=aborted)

    def resolution(
        self,
        action: str,
        tid: int,
        rid: Optional[str],
        applied: bool,
        trace: Optional[str] = None,
        parent: Optional[str] = None,
    ) -> None:
        """One coordinator-routed resolution item landed (or went
        stale) on this worker: a ``resolution`` span parented to the
        coordinator's pass span, so ``trace-export`` links the worker's
        side of the resolution to the pass that staged it."""
        if not self.enabled:
            return
        self.registry.counter(
            "repro_resolution_items_total",
            labels={
                "action": action,
                "outcome": "applied" if applied else "stale",
            },
            help="coordinator resolution items by action and outcome",
        ).inc()
        self.trace.record(
            tid,
            rid or "",
            action,
            "resolution",
            "applied" if applied else "stale",
            trace=trace,
            parent=parent,
        )

    def pass_span(
        self,
        status: str,
        trace: Optional[str] = None,
        parent: Optional[str] = None,
    ):
        """Record a detector-pass span and return its cross-process ref
        (None with telemetry disabled)."""
        if not self.enabled:
            return None
        span = self.trace.record(
            0, "", "", "pass", status, trace=trace, parent=parent
        )
        return self.trace.span_ref(span)

    def pending_waits(self) -> List[int]:
        """Transactions blocked without a terminal outcome yet (the
        span-completeness oracle checks this drains to empty)."""
        return sorted(self._blocked_since)

    # -- lock-manager event stream ----------------------------------------

    def on_event(self, event) -> None:
        """Listener for :class:`~repro.lockmgr.manager.LockManager`."""
        if not self.enabled:
            return
        if isinstance(event, Granted):
            self._on_granted(event)
        elif isinstance(event, Blocked):
            self._on_blocked(event)
        elif isinstance(event, Aborted):
            self._on_aborted(event)
        elif isinstance(event, Repositioned):
            self._on_repositioned(event)

    def _on_granted(self, event: Granted) -> None:
        self._grants["immediate" if event.immediate else "waited"].inc()
        if not event.immediate:
            since = self._blocked_since.pop(event.tid, None)
            if since is not None:
                started, mode_name, kind = since
                self._waits[mode_name, kind].observe(
                    max(self._clock() - started, 0.0)
                )
        self.trace.granted(
            event.tid, event.rid, event.mode.name, event.immediate
        )

    def _on_blocked(self, event: Blocked) -> None:
        kind = "conversion" if event.conversion else "queue"
        self._blocks[kind].inc()
        self._resource_blocks[event.rid].inc()
        self._blocked_since.setdefault(
            event.tid, (self._clock(), event.mode.name, kind)
        )
        self.trace.blocked(
            event.tid, event.rid, event.mode.name, event.conversion
        )

    def _on_aborted(self, event: Aborted) -> None:
        self._victims[()].inc()
        self._blocked_since.pop(event.tid, None)
        self.trace.aborted(event.tid)

    def _on_repositioned(self, event: Repositioned) -> None:
        self._repositions[()].inc()
        self._delayed[()].inc(len(event.delayed))

    # -- detector ----------------------------------------------------------

    def detection(self, result, duration: float) -> None:
        """One detection pass: ``result`` is a
        :class:`~repro.core.detection.DetectionResult`, ``duration`` its
        wall-clock cost in seconds."""
        if not self.enabled:
            return
        stats = result.stats
        self._passes[()].inc()
        self._cycles_found[()].inc(stats.cycles_found)
        self._edges_examined[()].inc(stats.edges_examined)
        self._tdr1[()].inc(stats.tdr1_applied)
        self._tdr2[()].inc(stats.tdr2_applied)
        if result.deadlock_found:
            self._deadlock_passes[()].inc()
            if result.abort_free:
                self._abort_free_passes[()].inc()
        self._pass_seconds[()].observe(duration)
        self._graph_transactions[()].observe(stats.transactions)
        self._cycles_per_pass[()].observe(stats.cycles_found)
        trrps = self._trrps_per_cycle[()]
        for resolution in result.resolutions:
            trrps.observe(
                sum(
                    1
                    for candidate in resolution.candidates
                    if isinstance(candidate, AbortCandidate)
                )
            )
        self._last_pass_seconds[()].set(duration)
        self._last_cycles[()].set(stats.cycles_found)
        self._last_graph_transactions[()].set(stats.transactions)
        self._last_run[()].set(self._clock())
        sharding = getattr(result, "sharding", None)
        if sharding is not None:
            self._detection_sharding(sharding)

    def _detection_sharding(self, sharding) -> None:
        """Shard-level figures of one cross-shard pass (a
        :class:`~repro.lockmgr.sharded.ShardedPass`)."""
        reg = self.registry
        for index, seconds in enumerate(sharding.snapshot_seconds):
            reg.histogram(
                "repro_shard_snapshot_seconds",
                labels={"shard": str(index)},
                help="time one shard's mutex was held for its snapshot",
                buckets=DURATION_BUCKETS,
            ).observe(seconds)
        reg.counter(
            "repro_detector_cross_shard_cycles_total",
            help="resolved cycles whose resources span multiple shards",
        ).inc(sharding.cross_shard_cycles)
        stale = sharding.stale_victims + sharding.stale_repositions
        reg.counter(
            "repro_detector_stale_resolutions_total",
            help="staged resolutions dropped because the live shard "
            "state moved on between snapshot and resolution",
        ).inc(stale)
        reg.gauge(
            "repro_detector_last_epoch_drift",
            help="shards mutated between snapshot and resolution in "
            "the most recent pass",
        ).set(sharding.epoch_drift)


def _mode_name(mode) -> str:
    return mode.name if hasattr(mode, "name") else str(mode)
