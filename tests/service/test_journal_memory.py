"""The service's memory stays flat over time: a file-backed journal keeps
no per-record copy of what it wrote, and the manager's event log keeps
only its newest events."""

from repro.core.modes import LockMode
from repro.lockmgr.events import EVENT_LOG_CAPACITY
from repro.service.core import ServiceCore
from repro.service.journal import SessionJournal, encode_record, recover_into


def feed(journals, *records):
    for kind, fields in records:
        for journal in journals:
            journal.append(kind, **fields)


def assert_same(file_journal, memory_journal):
    assert file_journal.records() == memory_journal.records()
    assert file_journal.to_text() == memory_journal.to_text()
    assert len(file_journal) == len(memory_journal)
    assert file_journal.epoch == memory_journal.epoch


def test_file_journal_reads_like_an_in_memory_one_across_restarts(tmp_path):
    path = str(tmp_path / "sessions.jsonl")
    memory = SessionJournal()
    journal = SessionJournal(path)
    assert_same(journal, memory)
    feed((journal, memory),
         ("boot", {}),
         ("open", {"sid": "S1", "token": "t", "lease": 5.0, "expires": 9.5}),
         ("begin", {"sid": "S1", "tid": 1}))
    assert_same(journal, memory)  # all three still unflushed
    journal.flush()
    feed((journal, memory),
         ("lock", {"sid": "S1", "tid": 1, "rid": "R1", "mode": "X",
                   "seq": 0}))
    assert_same(journal, memory)  # flushed prefix plus pending tail
    journal.close()

    for restart in range(2):
        journal = SessionJournal(path)
        assert journal._records is None
        assert_same(journal, memory)
        feed((journal, memory),
             ("boot", {}),
             ("finish", {"sid": "S1", "tid": 1 + restart, "ab": False}))
        journal.flush()
        assert_same(journal, memory)
        journal.close()
    assert memory.epoch == 3


def test_torn_tail_is_cut_so_later_records_survive(tmp_path):
    path = tmp_path / "sessions.jsonl"
    good = encode_record({"kind": "boot"})
    path.write_text(good + "\n" + good[:12])  # torn second line
    journal = SessionJournal(str(path))
    assert journal.corrupt_tail == 1
    assert len(journal) == journal.epoch == 1
    journal.append("boot")
    journal.close()
    reopened = SessionJournal(str(path))
    assert reopened.corrupt_tail == 0
    assert reopened.epoch == 2
    assert reopened.to_text() == good + "\n" + good


def test_line_without_newline_is_kept_and_terminated(tmp_path):
    path = tmp_path / "sessions.jsonl"
    good = encode_record({"kind": "boot"})
    path.write_text(good)  # torn right before its newline
    journal = SessionJournal(str(path))
    journal.append("boot")
    journal.close()
    assert SessionJournal(str(path)).records() == [{"kind": "boot"}] * 2


def test_recovery_drops_the_loaded_prefix(tmp_path):
    path = str(tmp_path / "sessions.jsonl")
    first = ServiceCore(journal=SessionJournal(path))
    session = first.open_session()
    tid = first.begin_step(session)
    first.lock_step(session, tid, "R1", LockMode.X, wait=False)
    first.journal.close()

    journal = SessionJournal(path)
    replica = ServiceCore()
    report = recover_into(replica, journal)
    assert report.replayed == 3  # open, begin, lock; no boot yet
    assert journal._loaded == [] and journal._records is None
    assert replica.manager.holding(tid) == {"R1": LockMode.X}
    assert len(journal) == 4 and journal.epoch == 1
    journal.close()


def test_long_running_core_retains_bounded_state(tmp_path):
    """20k transactions through one in-process core: the event log
    keeps only its newest events and the file journal holds no list of
    the records it wrote."""
    journal = SessionJournal(str(tmp_path / "sessions.jsonl"), fsync="never")
    core = ServiceCore(journal=journal, shards=1, policy="periodic")
    session = core.open_session()
    for n in range(20000):
        tid = core.begin_step(session)
        core.lock_step(session, tid, "R{}".format(n % 64), LockMode.S,
                       wait=False)
        core.finish_step(session, tid, aborting=False)
        if n % 500 == 0:
            journal.flush()
    journal.flush()
    manager = core.manager
    assert manager.log.total >= 20000
    assert len(manager.log) <= EVENT_LOG_CAPACITY
    assert journal._records is None and journal._loaded == []
    assert journal._pending == []
    assert len(journal) == 1 + 3 * 20000
    assert len(manager.sequence_map()) == len(manager.table) == 0
    journal.close()
