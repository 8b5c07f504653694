"""External safety oracle: a shadow lock table kept by the load generator.

The generator records every grant the server reports, across all of its
connections, and checks it against the modes other live transactions
hold under the paper's compatibility matrix (``repro.core.modes``).

Replies from two connections can arrive out of server order, so one
case needs care: the detector aborts a victim, frees its locks and
grants them on, and the grant can reach the generator before the
victim's own ``aborted`` reply does.  A conflicting grant is therefore
held as a *suspect* against the holder and settled by what happens to
the holder next: if the server reports the holder aborted, the grant
was legal; if the holder goes on to commit, the server granted a
conflicting mode while the holder still held its lock, and that is a
violation.  A holder's locks are dropped from the shadow when its
commit is *sent*, since the server may release them from that moment.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set, Tuple

Suspect = Tuple[str, str, int, str]


class SafetyViolation(AssertionError):
    """The server granted a lock that conflicts with a live holder."""


class ShadowTable:
    """Shadow of the server's granted modes, per resource and holder.

    ``compatible(held, requested)`` and ``convert(granted, requested)``
    are the lock-mode algebra (``repro.core.modes.compatible`` /
    ``convert``); modes are whatever those functions take.
    """

    def __init__(self, compatible: Callable, convert: Callable) -> None:
        self._compatible = compatible
        self._convert = convert
        self.held: Dict[str, Dict[int, object]] = {}
        self._rids: Dict[int, Set[str]] = {}
        self._suspects: Dict[int, List[Suspect]] = {}
        self.violations: List[str] = []
        self.grants = 0
        self.excused = 0

    def granted(self, tid: int, rid: str, mode) -> None:
        """The server reported ``mode`` on ``rid`` granted to ``tid``."""
        self.grants += 1
        holders = self.held.setdefault(rid, {})
        previous = holders.get(tid)
        mode = mode if previous is None else self._convert(previous, mode)
        for other, held in holders.items():
            if other != tid and not self._compatible(held, mode):
                self._suspects.setdefault(other, []).append(
                    (rid, str(held), tid, str(mode))
                )
        holders[tid] = mode
        self._rids.setdefault(tid, set()).add(rid)

    def aborted(self, tid: int) -> None:
        """The server reported ``tid`` aborted as a deadlock victim: its
        locks were freed at the abort, so grants made over them stand."""
        self.excused += len(self._suspects.pop(tid, ()))
        self._release(tid)

    def finishing(self, tid: int) -> None:
        """``tid`` is about to send its commit (or abort): it held every
        shadowed lock until now, so any grant suspected against it was a
        real conflict."""
        for rid, held, other, mode in self._suspects.pop(tid, ()):
            self.violations.append(
                "T{} was granted {} on {} while T{} held {} and later "
                "committed".format(other, mode, rid, tid, held)
            )
        self._release(tid)

    def _release(self, tid: int) -> None:
        for rid in self._rids.pop(tid, ()):
            holders = self.held.get(rid)
            if holders is not None:
                holders.pop(tid, None)
                if not holders:
                    del self.held[rid]

    def live(self) -> Set[int]:
        """Transactions the shadow still believes hold a lock."""
        return set(self._rids)

    def check(self) -> None:
        """Raise :class:`SafetyViolation` if any grant conflicted."""
        if self.violations:
            raise SafetyViolation(
                "{} conflicting grant(s); first: {}".format(
                    len(self.violations), self.violations[0]
                )
            )
