"""The cross-process periodic detection-resolution pass.

The paper's periodic scheme never needs the request path and the
detector to share memory — the detector only needs RST/TST snapshots
that are *consistent enough* for cycles, and cycles are stable until a
resolution acts.  The sharded manager already exploits that split
inside one process; this module lifts it over the wire:

1. **Snapshot** — ask every worker for its RST slice (the ``snapshot``
   op: epoch-stamped deep copies plus each live resource's cluster-wide
   first-lock sequence number).
2. **Merge** — sort the slices into one
   :class:`~repro.lockmgr.lock_table.LockTable` by that global
   sequence, so the merged RST iterates exactly like a single-process
   table fed the same request stream (workers share one sequence
   counter, see :mod:`repro.cluster.worker`).
3. **Detect** — run the unchanged Section-5 machinery
   (:class:`~repro.core.detection.PeriodicDetector`: TST walk, TRRP,
   TDR-1/TDR-2) on the merged snapshot.
4. **Resolve** — route the staged resolutions back to the owning
   workers (the ``resolve`` op) with the same staleness re-checks the
   sharded manager applies: a TDR-2 repositioning is re-validated
   against the live queue, a victim is confirmed still blocked where
   the snapshot saw it; stale resolutions are dropped and counted,
   never guessed at.

Victims are processed **sequentially** in the order the detector staged
them: each victim is confirmed at the worker owning its blocked
resource, then its locks on every other worker are released, before the
next victim is considered.  (Batch-confirming victims up front could
abort a transaction whose deadlock an earlier victim's release already
broke — a transaction the single-process detector would spare.)

The transport is abstract: the supervisor and the cluster client bind
it to :class:`~repro.service.client.AsyncLockClient` calls;
:class:`~repro.cluster.local.LocalCluster` binds it to in-process cores
through the same JSON plan/reply shapes.  ``apply_resolution_plan`` is
the *worker-side* half — :meth:`ServiceCore.resolve_step
<repro.service.core.ServiceCore.resolve_step>` and the local transport
both execute plans through it, so wire and in-process clusters run
identical resolution code.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from ..core.detection import DetectionStats, PeriodicDetector
from ..core.serialize import state_from_dict
from ..core.victim import CostTable, RepositionCandidate
from ..lockmgr.events import Granted, Repositioned
from ..lockmgr.lock_table import LockTable, merge_cut
from ..lockmgr.partition import partition_of
from ..service.protocol import event_from_dict, event_to_dict


def worker_of(rid: str, workers: int) -> int:
    """Which worker owns ``rid`` — the shard router
    (:func:`~repro.lockmgr.partition.partition_of`), one level up."""
    return partition_of(rid, workers)


@dataclass
class ClusterPass:
    """What one cross-process pass did, beyond the detection result
    itself (attached as :attr:`ClusterDetection.cluster`)."""

    workers: int
    #: Trace id minted for this pass; every resolution plan routed to a
    #: worker carries it, so worker-side resolution spans and the
    #: incident record share one trace.
    trace: Optional[str] = None
    #: Cross-process ref of the coordinator's pass span.
    span: Optional[str] = None
    #: Seconds each worker spent serializing its slice (self-reported).
    snapshot_seconds: List[float] = field(default_factory=list)
    #: Workers whose snapshot could not be fetched this pass.
    unreachable_workers: List[int] = field(default_factory=list)
    #: Resources in the merged snapshot.
    merged_resources: int = 0
    #: Cycles whose blocked resources span more than one worker.
    cross_worker_cycles: int = 0
    #: Victims no longer blocked where the snapshot saw them (spared).
    stale_victims: int = 0
    #: TDR-2 repositionings whose live queue no longer matched.
    stale_repositions: int = 0
    #: Wall-clock seconds for the whole pass.
    pass_seconds: float = 0.0


@dataclass
class ClusterDetection:
    """Outcome of one cross-process pass — the attribute surface of
    :class:`~repro.core.detection.DetectionResult` plus the
    :class:`ClusterPass` bookkeeping."""

    aborted: List[int] = field(default_factory=list)
    spared: List[int] = field(default_factory=list)
    grants: List[Granted] = field(default_factory=list)
    repositions: List[Repositioned] = field(default_factory=list)
    resolutions: List[object] = field(default_factory=list)
    stats: DetectionStats = field(default_factory=DetectionStats)
    cluster: Optional[ClusterPass] = None
    #: Kept for interface parity with ``DetectionResult`` consumers.
    sharding: Optional[object] = None

    @property
    def deadlock_found(self) -> bool:
        return bool(self.resolutions)

    @property
    def abort_free(self) -> bool:
        return self.deadlock_found and not self.aborted


# -- worker side -----------------------------------------------------------


def apply_resolution_plan(core, plan: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one coordinator resolution plan against a worker core.

    ``core`` is a :class:`~repro.lockmgr.sharded.ShardedLockCore`;
    ``plan`` may carry four JSON-ready lists, applied in this order:

    * ``repositions`` — ``{"rid", "av", "st"}`` TDR-2 repositionings,
      re-validated against the live queue (``applied: false`` = stale);
    * ``victims`` — ``{"tid", "rid"}`` abort victims, confirmed still
      blocked at ``rid`` (``confirmed: false`` = stale);
    * ``releases`` — transaction ids whose locks this worker frees
      because another worker confirmed them as victims;
    * ``sweeps`` — resource ids to run the change-list sweep on after
      their repositioning.

    Returns one reply entry per item, with any resulting grant events
    as wire dicts.
    """
    reply: Dict[str, Any] = {
        "repositions": [],
        "victims": [],
        "releases": [],
        "sweeps": [],
    }
    for item in plan.get("repositions") or ():
        rid = str(item["rid"])
        event = core.apply_reposition(
            rid,
            [int(tid) for tid in item.get("av", ())],
            [int(tid) for tid in item.get("st", ())],
        )
        entry: Dict[str, Any] = {"rid": rid, "applied": event is not None}
        if event is not None:
            entry["delayed"] = list(event.delayed)
        reply["repositions"].append(entry)
    for item in plan.get("victims") or ():
        tid = int(item["tid"])
        confirmed, grants = core.abort_victim(tid, item.get("rid"))
        reply["victims"].append(
            {
                "tid": tid,
                "confirmed": confirmed,
                "grants": [event_to_dict(event) for event in grants],
            }
        )
    for tid in plan.get("releases") or ():
        grants = core.release_victim(int(tid))
        reply["releases"].append(
            {
                "tid": int(tid),
                "grants": [event_to_dict(event) for event in grants],
            }
        )
    for rid in plan.get("sweeps") or ():
        grants = core.sweep_resource(str(rid))
        reply["sweeps"].append(
            {
                "rid": str(rid),
                "grants": [event_to_dict(event) for event in grants],
            }
        )
    return reply


# -- coordinator side ------------------------------------------------------


def merge_snapshots(
    payloads: List[Optional[Dict[str, Any]]],
) -> Tuple[LockTable, List[int], List[float]]:
    """Merge worker ``snapshot`` payloads into one RST.

    ``payloads`` is index-aligned with the workers; ``None`` marks a
    worker whose snapshot could not be fetched (its slice is simply
    absent — cycles wholly among reachable workers still resolve).
    Returns ``(merged table, unreachable worker indexes, per-worker
    snapshot seconds)``.  Resources sort by their cluster-wide
    first-lock sequence number, which reproduces the iteration order of
    a single-process table fed the same request stream.  A transaction
    seen waiting on two workers of one cut is mid-move and left out of
    the merged waits (:func:`~repro.lockmgr.lock_table.merge_cut`).
    """
    unreachable: List[int] = []
    seconds = [0.0] * len(payloads)
    entries: List[Tuple[Tuple[int, int], int, int, Dict[str, Any]]] = []
    for index, payload in enumerate(payloads):
        if payload is None:
            unreachable.append(index)
            continue
        seconds[index] = float(payload.get("seconds", 0.0))
        sequence = payload.get("sequence") or {}
        table = payload.get("table") or {}
        for position, entry in enumerate(table.get("resources", ())):
            raw = sequence.get(entry["rid"])
            key = (0, int(raw)) if raw is not None else (1, 0)
            entries.append((key, index, position, entry))
    entries.sort(key=lambda item: (item[0], item[1], item[2]))
    merged = merge_cut(state_from_dict(entry[-1]) for entry in entries)
    return merged, unreachable, seconds


def run_cluster_pass(
    transport,
    workers: int,
    costs: CostTable,
    incident_sink=None,
    epoch: Optional[int] = None,
    policy=None,
) -> ClusterDetection:
    """One snapshot-merge-detect-resolve pass over a worker fleet.

    ``transport`` provides the two wire rounds::

        snapshot_all() -> List[Optional[dict]]   # None = unreachable
        resolve(worker_index, plan) -> Optional[dict]

    The pass mirrors :meth:`ShardedLockCore._detect_sharded
    <repro.lockmgr.sharded.ShardedLockCore>` step for step — same
    staged order, same staleness accounting — which is what the
    cluster-vs-sharded equivalence oracle pins down.

    Every pass mints a trace id and a coordinator pass-span ref; each
    resolution plan carries them as ``plan["ctx"]`` so worker-side
    resolution spans parent to this pass across the process hop.  When
    ``incident_sink`` (an :class:`~repro.obs.incidents.IncidentLog`) is
    given, a deadlock-resolving pass appends a ``repro.incident/1``
    record built from the pre-detection merged snapshot.

    ``policy`` (a bound
    :class:`~repro.policy.base.DetectionPolicy`, optional) hooks the
    coordinator's pass: its pre-pass runs over the merged snapshot
    (the predictive policy's near-cycle scan sees the *cluster-wide*
    graph), the pass outcome feeds ``observe_pass`` (the adaptive
    controller), and any warnings it raises land in ``incident_sink``
    as ``kind: "near-cycle"`` records.
    """
    started = perf_counter()
    suffix = os.urandom(4).hex()
    info = ClusterPass(
        workers=workers,
        trace="trace-" + suffix,
        span="coord:pass-" + suffix,
    )
    ctx = {"trace": info.trace, "span": info.span}
    merged, unreachable, seconds = merge_snapshots(transport.snapshot_all())
    info.unreachable_workers = unreachable
    info.snapshot_seconds = seconds
    info.merged_resources = len(merged)
    # Capture blocked/held positions BEFORE the detector runs: the
    # detector resolves cycles on the merged copy itself, so afterwards
    # a victim's holds are already gone from ``merged``.
    blocked_at_snapshot = {
        tid: merged.blocked_at(tid) for tid in merged.blocked_tids()
    }
    held_at_snapshot = {
        tid: merged.held_by(tid) for tid in merged.blocked_tids()
    }
    # The incident's table render must pre-date detection too (the
    # detector mutates the merged copy while resolving).
    merged_text = (
        str(merged)
        if incident_sink is not None and merged.blocked_count()
        else None
    )
    if policy is not None:
        policy.pre_pass(list(merged.resources()))
    detect_started = perf_counter()
    staged = PeriodicDetector(merged, costs).run()
    if policy is not None:
        policy.observe_pass(staged, perf_counter() - detect_started)
    for resolution in staged.resolutions:
        rids = {
            blocked_at_snapshot.get(tid) for tid in resolution.cycle
        } - {None}
        if len({worker_of(rid, workers) for rid in rids}) > 1:
            info.cross_worker_cycles += 1
    result = ClusterDetection(
        spared=list(staged.spared),
        resolutions=list(staged.resolutions),
        stats=staged.stats,
        cluster=info,
    )
    # Round 1 — repositionings, grouped per owning worker with the
    # staged order preserved inside each group (two repositionings of
    # one resource always meet the same worker in order).
    staged_repositions = [
        resolution.chosen
        for resolution in staged.resolutions
        if isinstance(resolution.chosen, RepositionCandidate)
    ]
    plans: Dict[int, List[Tuple[int, RepositionCandidate]]] = {}
    for slot, chosen in enumerate(staged_repositions):
        plans.setdefault(worker_of(chosen.rid, workers), []).append(
            (slot, chosen)
        )
    applied: Dict[int, Repositioned] = {}
    for index in sorted(plans):
        items = plans[index]
        reply = transport.resolve(
            index,
            {
                "repositions": [
                    {
                        "rid": chosen.rid,
                        "av": list(chosen.av),
                        "st": list(chosen.st),
                    }
                    for _, chosen in items
                ],
                "ctx": ctx,
            },
        )
        rows = (reply or {}).get("repositions", [])
        for (slot, chosen), row in zip(items, rows):
            if row.get("applied"):
                applied[slot] = Repositioned(
                    rid=chosen.rid,
                    delayed=tuple(
                        int(tid) for tid in row.get("delayed", chosen.st)
                    ),
                )
    for slot in range(len(staged_repositions)):
        if slot in applied:
            result.repositions.append(applied[slot])
        else:
            info.stale_repositions += 1
    # Round 2 — victims, strictly sequential in staged order: confirm
    # at the owner of the blocked resource, then release the victim's
    # locks on every other worker, before the next victim.
    for tid in staged.aborted:
        snap_rid = blocked_at_snapshot.get(tid)
        if snap_rid is None:
            info.stale_victims += 1
            result.spared.append(tid)
            continue
        owner = worker_of(snap_rid, workers)
        reply = transport.resolve(
            owner,
            {"victims": [{"tid": tid, "rid": snap_rid}], "ctx": ctx},
        )
        rows = (reply or {}).get("victims", [])
        row = rows[0] if rows else {}
        if not row.get("confirmed"):
            info.stale_victims += 1
            result.spared.append(tid)
            continue
        grants = [event_from_dict(event) for event in row.get("grants", ())]
        held = held_at_snapshot.get(tid, set())
        for index in sorted(
            {worker_of(rid, workers) for rid in held} - {owner}
        ):
            release = transport.resolve(
                index, {"releases": [tid], "ctx": ctx}
            )
            for entry in (release or {}).get("releases", ()):
                grants.extend(
                    event_from_dict(event)
                    for event in entry.get("grants", ())
                )
        result.grants.extend(grants)
        result.aborted.append(tid)
    # Round 3 — change-list sweeps of the applied repositionings, in
    # staged order, grouped per owning worker.
    sweeps: Dict[int, List[str]] = {}
    for slot in sorted(applied):
        rid = staged_repositions[slot].rid
        sweeps.setdefault(worker_of(rid, workers), []).append(rid)
    for index in sorted(sweeps):
        reply = transport.resolve(
            index, {"sweeps": sweeps[index], "ctx": ctx}
        )
        for entry in (reply or {}).get("sweeps", ()):
            result.grants.extend(
                event_from_dict(event) for event in entry.get("grants", ())
            )
    info.pass_seconds = perf_counter() - started
    if incident_sink is not None and result.deadlock_found:
        from ..obs.incidents import build_incident

        incident_sink.append(
            build_incident(
                result,
                source="cluster",
                table_text=merged_text,
                blocked_at=blocked_at_snapshot,
                trace=info.trace,
                span=info.span,
                epoch=epoch,
                workers=workers,
                policy=policy.name if policy is not None else None,
            )
        )
    if policy is not None and incident_sink is not None:
        from ..obs.incidents import build_near_cycle_incident

        for report in policy.take_warnings():
            if int(report.get("count", 0)) <= 0:
                continue
            incident_sink.append(
                build_near_cycle_incident(
                    report,
                    source="cluster",
                    policy=policy.name,
                    trace=info.trace,
                    span=info.span,
                    epoch=epoch,
                )
            )
    return result
