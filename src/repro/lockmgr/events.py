"""Event records emitted by the lock manager.

The scheduler and the deadlock detector are pure data-structure code; they
communicate outcomes to the transaction layer and to the simulator through
these small event objects instead of callbacks.  Every mutation of the
lock table that a transaction could observe (a request granted late, a
transaction chosen as deadlock victim, a queue repositioned by TDR-2)
is reported as an event.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, List

from ..core.modes import LockMode


@dataclass(frozen=True)
class Granted:
    """A previously blocked request of ``tid`` on ``rid`` was granted.

    ``mode`` is the mode now held (for conversions, the converted target
    mode).  ``immediate`` is True when the grant happened at request time
    rather than by a later release/resolution sweep.
    """

    tid: int
    rid: str
    mode: LockMode
    immediate: bool = False


@dataclass(frozen=True)
class Blocked:
    """The request of ``tid`` on ``rid`` could not be granted.

    ``conversion`` tells whether the transaction waits inside the holder
    list (lock conversion) or in the FIFO queue.
    """

    tid: int
    rid: str
    mode: LockMode
    conversion: bool


@dataclass(frozen=True)
class Aborted:
    """``tid`` was aborted, e.g. as a deadlock victim."""

    tid: int
    reason: str


@dataclass(frozen=True)
class Repositioned:
    """TDR-2 reordered the queue of ``rid`` (deadlock resolved without
    aborting anyone).  ``delayed`` lists the transactions in ST whose
    requests were moved behind the AV prefix."""

    rid: str
    delayed: tuple


#: How many of the newest events an :class:`EventLog` retains.  The
#: periodic Steps 1-3 read only the current RST/TST, never past events,
#: so the log is an operator's window, not a history.
EVENT_LOG_CAPACITY = 1024


class EventLog:
    """The newest :data:`EVENT_LOG_CAPACITY` events a manager published,
    oldest first, plus :attr:`total`, the count of every event ever
    published.  Bounded so a long-running manager's memory stays flat."""

    __slots__ = ("_events", "total")

    def __init__(self) -> None:
        self._events: Deque[object] = deque(maxlen=EVENT_LOG_CAPACITY)
        self.total = 0

    def append(self, event: object) -> None:
        self._events.append(event)
        self.total += 1

    def tail(self, limit: int = 0) -> List[object]:
        """The newest ``limit`` retained events (all of them when
        ``limit`` is 0), oldest first."""
        events = list(self._events)
        return events[-limit:] if limit > 0 else events

    def __iter__(self) -> Iterator[object]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)
