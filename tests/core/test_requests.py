"""ResourceState / HolderEntry / QueueEntry record behavior."""

import copy
import pickle

import pytest

from repro.core.errors import LockTableError
from repro.core.modes import LockMode
from repro.core.requests import HolderEntry, QueueEntry, ResourceState
from repro.core.verify import verify_table
from repro.lockmgr.lock_table import LockTable

NL, IS, IX, S, SIX, X = (
    LockMode.NL,
    LockMode.IS,
    LockMode.IX,
    LockMode.S,
    LockMode.SIX,
    LockMode.X,
)


def make_state() -> ResourceState:
    state = ResourceState(rid="R1")
    state.holders = [
        HolderEntry(1, IX, SIX),
        HolderEntry(2, IS, S),
        HolderEntry(3, IX),
        HolderEntry(4, IS),
    ]
    state.queue = [QueueEntry(5, IX), QueueEntry(6, S), QueueEntry(7, IX)]
    state.recompute_total()
    return state


class TestHolderEntry:
    def test_default_not_blocked(self):
        assert not HolderEntry(1, S).is_blocked

    def test_blocked(self):
        assert HolderEntry(1, IS, S).is_blocked

    def test_copy_is_independent(self):
        entry = HolderEntry(1, IS, S)
        clone = entry.copy()
        clone.granted = X
        assert entry.granted is IS

    def test_str_matches_paper_notation(self):
        assert str(HolderEntry(1, IX, SIX)) == "(T1, IX, SIX)"
        assert str(HolderEntry(3, IX)) == "(T3, IX, NL)"


class TestQueueEntry:
    def test_str(self):
        assert str(QueueEntry(5, IX)) == "(T5, IX)"

    def test_copy(self):
        entry = QueueEntry(5, IX)
        clone = entry.copy()
        clone.blocked = X
        assert entry.blocked is IX


class TestResourceState:
    def test_total_mode_recompute(self):
        state = make_state()
        # Conv over (IX,SIX),(IS,S),(IX,NL),(IS,NL) = SIX.
        assert state.total is SIX

    def test_holder_entry_lookup(self):
        state = make_state()
        assert state.holder_entry(2).granted is IS
        assert state.holder_entry(99) is None

    def test_queue_entry_lookup(self):
        state = make_state()
        assert state.queue_entry(6).blocked is S
        assert state.queue_entry(1) is None

    def test_queue_position(self):
        state = make_state()
        assert state.queue_position(5) == 0
        assert state.queue_position(7) == 2
        assert state.queue_position(1) == -1

    def test_is_held_by(self):
        state = make_state()
        assert state.is_held_by(4)
        assert not state.is_held_by(5)

    def test_blocked_and_unblocked_holders(self):
        state = make_state()
        assert [h.tid for h in state.blocked_holders()] == [1, 2]
        assert [h.tid for h in state.unblocked_holders()] == [3, 4]

    def test_waiting_tids_conversions_first(self):
        state = make_state()
        assert state.waiting_tids() == [1, 2, 5, 6, 7]

    def test_is_free(self):
        assert ResourceState(rid="R").is_free
        assert not make_state().is_free

    def test_remove_holder_recomputes_total(self):
        state = make_state()
        removed = state.remove_holder(1)
        assert removed.blocked is SIX
        # Remaining: (IS,S),(IX,NL),(IS,NL) -> SIX.
        assert state.total is SIX
        state.remove_holder(2)
        # Remaining: (IX,NL),(IS,NL) -> IX.
        assert state.total is IX

    def test_remove_unknown_holder_raises(self):
        with pytest.raises(LockTableError):
            make_state().remove_holder(42)

    def test_remove_from_queue(self):
        state = make_state()
        entry = state.remove_from_queue(6)
        assert entry.tid == 6
        assert [q.tid for q in state.queue] == [5, 7]

    def test_remove_unknown_waiter_raises(self):
        with pytest.raises(LockTableError):
            make_state().remove_from_queue(42)

    def test_raise_total(self):
        state = ResourceState(rid="R")
        state.raise_total(IS)
        state.raise_total(IX)
        assert state.total is IX

    def test_copy_deep(self):
        state = make_state()
        clone = state.copy()
        clone.holders[0].granted = X
        clone.queue.pop()
        assert state.holders[0].granted is IX
        assert len(state.queue) == 3

    def test_str_round_trips_paper_layout(self):
        state = make_state()
        text = str(state)
        assert text.startswith("R1(SIX): Holder((T1, IX, SIX)")
        assert text.endswith("Queue((T5, IX) (T6, S) (T7, IX))")

    def test_iter_yields_holders(self):
        assert [h.tid for h in make_state()] == [1, 2, 3, 4]


class TestSlottedRecords:
    """The records are slotted classes: dataclass behaviour without a
    per-instance dict."""

    def test_repr_is_the_dataclass_repr(self):
        assert repr(HolderEntry(1, IX)) == (
            "HolderEntry(tid=1, granted=<LockMode.IX: 2>, "
            "blocked=<LockMode.NL: 0>)"
        )
        assert repr(QueueEntry(5, S)) == (
            "QueueEntry(tid=5, blocked=<LockMode.S: 3>)"
        )
        assert repr(ResourceState("R9", [HolderEntry(2, S)], [], S)) == (
            "ResourceState(rid='R9', holders=[HolderEntry(tid=2, "
            "granted=<LockMode.S: 3>, blocked=<LockMode.NL: 0>)], "
            "queue=[], total=<LockMode.S: 3>)"
        )

    def test_equality_is_field_wise_and_class_strict(self):
        assert HolderEntry(1, IX, SIX) == HolderEntry(1, IX, SIX)
        assert HolderEntry(1, IX, SIX) != HolderEntry(1, IX)
        assert QueueEntry(1, S) != HolderEntry(1, S)
        assert make_state() == make_state()
        other = make_state()
        other.queue.pop()
        assert make_state() != other
        # Mutable records stay unhashable, as dataclasses are.
        with pytest.raises(TypeError):
            hash(make_state())

    def test_default_lists_are_fresh(self):
        first, second = ResourceState("A"), ResourceState("B")
        first.holders.append(HolderEntry(1, S))
        assert second.holders == [] and second.queue == []
        assert first.total is NL  # total is left exactly as passed

    @pytest.mark.parametrize("clone", [
        lambda state: state.copy(),
        copy.deepcopy,
        lambda state: pickle.loads(pickle.dumps(state)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_clones_are_equal_deep_and_consistent(self, clone):
        state = make_state()
        state.av_prefix_length()
        twin = clone(state)
        assert twin == state and repr(twin) == repr(state)
        assert twin.holders[0] is not state.holders[0]
        assert twin.queue is not state.queue
        table = LockTable()
        table.install(twin)
        assert [v for v in verify_table(table)
                if v.rule.startswith("cache-")] == []
        twin.add_holder(HolderEntry(8, IS))
        assert state.holder_entry(8) is None

    def test_cache_rules_still_fire(self):
        state = make_state()
        state.holders.append(HolderEntry(9, X))  # surgery, no resync
        table = LockTable()
        table.install(state)
        rules = {v.rule for v in verify_table(table)}
        assert {"cache-granted-counts", "cache-granted-mask"} <= rules

    def test_undeclared_attributes_are_rejected(self):
        for record in (make_state(), HolderEntry(1, S), QueueEntry(1, S)):
            assert not hasattr(record, "__dict__")
            with pytest.raises(AttributeError):
                record.note = "scratch"
