"""Lock-table records: holder entries, queue entries and resource state.

The paper's lock table (Section 2) keeps, for every locked resource:

* a **holder list** — entries ``(tid, gm, bm)`` where ``gm`` is the granted
  mode and ``bm`` is the blocked (conversion) mode, ``NL`` when the holder
  is not waiting on a conversion;
* a **queue** — entries ``(tid, bm)`` of new requestors waiting FIFO;
* the **total mode** ``tm`` of the holders —
  ``Conv(...Conv(Conv(gm1, bm1), gm2)..., bmn)``.

These records are plain data plus consistency helpers; the scheduling
policy that mutates them according to Section 3 lives in
:mod:`repro.lockmgr.scheduler`.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from .errors import LockTableError
from .modes import (
    CONFLICT_MASKS,
    MODE_COUNT,
    SUP_OF_MASK,
    LockMode,
    compatible,
)


class _Record:
    """Field-wise ``__eq__`` and ``Name(field=value, ...)`` ``__repr__``
    over ``_fields`` — what ``@dataclass`` generates.  The records are
    slotted classes instead (no per-instance dict: the lock table holds
    one of each per lock), which ``dataclass`` cannot make before
    Python 3.10."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    __hash__ = None  # type: ignore[assignment]  # mutable, like a dataclass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return "{}({})".format(
            self.__class__.__qualname__,
            ", ".join(
                "{}={!r}".format(name, value)
                for name, value in zip(self._fields, self._values())
            ),
        )


class HolderEntry(_Record):
    """One member of a resource's holder list: ``(tid, gm, bm)``.

    ``blocked`` is ``NL`` while the holder is not waiting; when a lock
    conversion cannot be granted, ``blocked`` records the *target* mode
    ``Conv(gm, requested)`` the holder is waiting to reach.
    """

    __slots__ = _fields = ("tid", "granted", "blocked")

    def __init__(
        self, tid: int, granted: LockMode, blocked: LockMode = LockMode.NL
    ) -> None:
        self.tid = tid
        self.granted = granted
        self.blocked = blocked

    @property
    def is_blocked(self) -> bool:
        """True while this holder waits on a lock conversion."""
        return self.blocked is not LockMode.NL

    def copy(self) -> "HolderEntry":
        return HolderEntry(self.tid, self.granted, self.blocked)

    def __str__(self) -> str:
        return "({}, {}, {})".format(
            _tname(self.tid), self.granted.name, self.blocked.name
        )


class QueueEntry(_Record):
    """One member of a resource's queue: ``(tid, bm)``."""

    __slots__ = _fields = ("tid", "blocked")

    def __init__(self, tid: int, blocked: LockMode) -> None:
        self.tid = tid
        self.blocked = blocked

    def copy(self) -> "QueueEntry":
        return QueueEntry(self.tid, self.blocked)

    def __str__(self) -> str:
        return "({}, {})".format(_tname(self.tid), self.blocked.name)


def _tname(tid: int) -> str:
    """Render a transaction id in the paper's ``T<i>`` style."""
    return "T{}".format(tid)


class ResourceState(_Record):
    """Complete lock-table entry for one resource.

    The ``total`` field caches the paper's total mode.  Beyond it, the
    state memoizes three queue summaries so the scheduler's hot path is
    O(1) instead of a holder-list scan:

    * per-mode **counts** of granted and blocked holder modes, kept
      incrementally by the mutator methods below;
    * the **granted-group / blocked-group masks** (bit sets over the mode
      values) derived from the counts — one AND against a conflict mask
      answers "compatible with every other holder?", and
      ``SUP_OF_MASK[granted | blocked]`` *is* the total mode (the
      conversion fold equals the join of the set of modes present,
      because ``Conv`` is a lattice join);
    * the **AV-prefix boundary** — the leading run of queue entries
      compatible with the total mode (TDR-2's AV set) — cached lazily
      and keyed by ``(total, len(queue))``, so it survives unrelated
      mutations and self-invalidates on grants and repositionings.

    Mutation must go through the mutator methods (``add_holder``,
    ``set_holder_modes``, ``enqueue`` …).  Code that performs direct
    list surgery instead (the notation/serialize loaders, the baseline
    policies) must call :meth:`recompute_total`, which resynchronizes
    every summary from scratch — the long-standing convention for
    out-of-band edits, now load-bearing.  ``verify_table`` cross-checks
    all summaries against a rescan.
    """

    _fields = ("rid", "holders", "queue", "total")
    __slots__ = _fields + (
        "_granted_counts",
        "_blocked_counts",
        "_granted_mask",
        "_blocked_mask",
        "_av_cache",
    )

    def __init__(
        self,
        rid: str,
        holders: Optional[List[HolderEntry]] = None,
        queue: Optional[List[QueueEntry]] = None,
        total: LockMode = LockMode.NL,
    ) -> None:
        self.rid = rid
        self.holders: List[HolderEntry] = [] if holders is None else holders
        self.queue: List[QueueEntry] = [] if queue is None else queue
        self.total = total
        # The summaries always describe ``holders``/``queue``; ``total``
        # is left exactly as passed (tests build deliberately
        # inconsistent totals to exercise the verifier).
        self._resync_summaries()

    # -- cached summaries -------------------------------------------------

    def _resync_summaries(self) -> None:
        """Rebuild every summary from the lists (O(holders))."""
        granted = [0] * MODE_COUNT
        blocked = [0] * MODE_COUNT
        granted_mask = 0
        blocked_mask = 0
        for entry in self.holders:
            granted[entry.granted] += 1
            granted_mask |= 1 << entry.granted
            if entry.blocked is not LockMode.NL:
                blocked[entry.blocked] += 1
                blocked_mask |= 1 << entry.blocked
        self._granted_counts = granted
        self._blocked_counts = blocked
        self._granted_mask = granted_mask
        self._blocked_mask = blocked_mask
        self._av_cache: Optional[Tuple[LockMode, int, int]] = None

    def _count_granted(self, mode: LockMode, delta: int) -> None:
        counts = self._granted_counts
        counts[mode] += delta
        if counts[mode]:
            self._granted_mask |= 1 << mode
        else:
            self._granted_mask &= ~(1 << mode)

    def _count_blocked(self, mode: LockMode, delta: int) -> None:
        if mode is LockMode.NL:
            return
        counts = self._blocked_counts
        counts[mode] += delta
        if counts[mode]:
            self._blocked_mask |= 1 << mode
        else:
            self._blocked_mask &= ~(1 << mode)

    def _refresh_total(self) -> None:
        """Recompute the total mode from the masks — O(1), exact (the
        join of the set of granted and blocked modes present)."""
        self.total = SUP_OF_MASK[self._granted_mask | self._blocked_mask]

    @property
    def granted_mask(self) -> int:
        """Bit set of the granted modes present in the holder list."""
        return self._granted_mask

    @property
    def blocked_mask(self) -> int:
        """Bit set of the blocked conversion modes present."""
        return self._blocked_mask

    def granted_mask_excluding(self, holder: HolderEntry) -> int:
        """The granted-group mask with ``holder``'s own contribution
        removed — the *other* holders' granted modes, O(1)."""
        mask = self._granted_mask
        if self._granted_counts[holder.granted] == 1:
            mask &= ~(1 << holder.granted)
        return mask

    def conversion_compatible(
        self, holder: HolderEntry, wanted: LockMode
    ) -> bool:
        """True when ``wanted`` is compatible with the granted mode of
        every holder other than ``holder`` (one AND)."""
        return not (
            CONFLICT_MASKS[wanted] & self.granted_mask_excluding(holder)
        )

    def av_prefix_length(self) -> int:
        """Length of the leading queue run compatible with the total
        mode (TDR-2's AV prefix), memoized until the total mode or the
        queue length changes; repositionings invalidate explicitly."""
        cache = self._av_cache
        if (
            cache is not None
            and cache[0] is self.total
            and cache[1] == len(self.queue)
        ):
            return cache[2]
        total = self.total
        boundary = 0
        for entry in self.queue:
            if not compatible(total, entry.blocked):
                break
            boundary += 1
        self._av_cache = (total, len(self.queue), boundary)
        return boundary

    def summary_snapshot(self) -> dict:
        """The raw cached summaries (for the verifier and debugging)."""
        return {
            "granted_counts": tuple(self._granted_counts),
            "blocked_counts": tuple(self._blocked_counts),
            "granted_mask": self._granted_mask,
            "blocked_mask": self._blocked_mask,
            "av_cache": self._av_cache,
        }

    # -- lookups ---------------------------------------------------------

    def holder_entry(self, tid: int) -> Optional[HolderEntry]:
        """The holder entry of ``tid``, or ``None`` if not a holder."""
        for entry in self.holders:
            if entry.tid == tid:
                return entry
        return None

    def queue_entry(self, tid: int) -> Optional[QueueEntry]:
        """The queue entry of ``tid``, or ``None`` if not queued."""
        for entry in self.queue:
            if entry.tid == tid:
                return entry
        return None

    def queue_position(self, tid: int) -> int:
        """Index of ``tid`` in the queue, or -1."""
        for index, entry in enumerate(self.queue):
            if entry.tid == tid:
                return index
        return -1

    def is_held_by(self, tid: int) -> bool:
        return self.holder_entry(tid) is not None

    def blocked_holders(self) -> List[HolderEntry]:
        """Holders currently waiting on a conversion, in list order."""
        return [entry for entry in self.holders if entry.is_blocked]

    def unblocked_holders(self) -> List[HolderEntry]:
        """Holders not waiting, in list order."""
        return [entry for entry in self.holders if not entry.is_blocked]

    def waiting_tids(self) -> List[int]:
        """All transactions blocked at this resource (conversions first,
        then queue, each in list order)."""
        tids = [entry.tid for entry in self.blocked_holders()]
        tids.extend(entry.tid for entry in self.queue)
        return tids

    @property
    def is_free(self) -> bool:
        """True when no holder and no waiter remains."""
        return not self.holders and not self.queue

    # -- mutation helpers (summary maintenance) --------------------------

    def recompute_total(self) -> LockMode:
        """Resynchronize every cached summary from the lists and return
        the recomputed total mode (paper §3 names this for holder
        deletion; it is also the mandatory resync after direct list
        surgery).  Queue entries do not contribute — the total mode
        summarizes *holders* only."""
        self._resync_summaries()
        self._refresh_total()
        return self.total

    def raise_total(self, mode: LockMode) -> None:
        """Join ``mode`` into the cached total mode (manual maintenance
        for callers doing their own surgery; the mutators below keep the
        total fresh on their own)."""
        from .modes import convert

        self.total = convert(self.total, mode)

    def add_holder(self, entry: HolderEntry, index: Optional[int] = None) -> None:
        """Insert ``entry`` into the holder list (append when ``index``
        is ``None``), updating counts, masks and the total mode."""
        if index is None:
            self.holders.append(entry)
        else:
            self.holders.insert(index, entry)
        self._count_granted(entry.granted, +1)
        self._count_blocked(entry.blocked, +1)
        self._refresh_total()

    def set_holder_modes(
        self,
        entry: HolderEntry,
        granted: Optional[LockMode] = None,
        blocked: Optional[LockMode] = None,
    ) -> None:
        """Change a holder's granted and/or blocked mode through the
        summaries (grant-conversion, block-conversion and the sweep's
        ``bm -> gm`` swap all come through here)."""
        if granted is not None and granted is not entry.granted:
            self._count_granted(entry.granted, -1)
            entry.granted = granted
            self._count_granted(granted, +1)
        if blocked is not None and blocked is not entry.blocked:
            self._count_blocked(entry.blocked, -1)
            entry.blocked = blocked
            self._count_blocked(blocked, +1)
        self._refresh_total()

    def move_holder(self, entry: HolderEntry, index: int) -> None:
        """Reposition ``entry`` within the holder list (UPR surgery);
        membership is unchanged, so every summary stays valid."""
        self.holders.remove(entry)
        self.holders.insert(index, entry)

    def remove_holder(self, tid: int) -> HolderEntry:
        """Delete ``tid`` from the holder list and refresh the total
        from the counts — O(1), no holder-list rescan.

        Raises :class:`LockTableError` if ``tid`` is not a holder.
        """
        for index, entry in enumerate(self.holders):
            if entry.tid == tid:
                removed = self.holders.pop(index)
                self._count_granted(removed.granted, -1)
                self._count_blocked(removed.blocked, -1)
                self._refresh_total()
                return removed
        raise LockTableError(
            "transaction {} is not a holder of {}".format(tid, self.rid)
        )

    def enqueue(self, entry: QueueEntry) -> None:
        """Append ``entry`` to the FIFO queue."""
        self.queue.append(entry)
        self._av_cache = None

    def popleft_queue(self) -> QueueEntry:
        """Remove and return the queue's front entry (grant path)."""
        entry = self.queue.pop(0)
        self._av_cache = None
        return entry

    def set_queue_order(self, entries: List[QueueEntry]) -> None:
        """Replace the queue with a reordering of itself (TDR-2's
        repositioning) and drop the AV-prefix memo — same length and
        total, so the keyed cache cannot see the change on its own."""
        self.queue = list(entries)
        self._av_cache = None

    def remove_from_queue(self, tid: int) -> QueueEntry:
        """Delete ``tid`` from the queue.

        Raises :class:`LockTableError` if ``tid`` is not queued.
        """
        position = self.queue_position(tid)
        if position < 0:
            raise LockTableError(
                "transaction {} is not queued at {}".format(tid, self.rid)
            )
        entry = self.queue.pop(position)
        self._av_cache = None
        return entry

    # -- presentation ----------------------------------------------------

    def copy(self) -> "ResourceState":
        """Deep copy (for snapshots taken by detectors and tests)."""
        return ResourceState(
            rid=self.rid,
            holders=[entry.copy() for entry in self.holders],
            queue=[entry.copy() for entry in self.queue],
            total=self.total,
        )

    def __str__(self) -> str:
        holders = " ".join(str(entry) for entry in self.holders)
        queue = " ".join(str(entry) for entry in self.queue)
        return "{}({}): Holder({}) Queue({})".format(
            self.rid, self.total.name, holders, queue
        )

    def __iter__(self) -> Iterator[HolderEntry]:
        return iter(self.holders)
