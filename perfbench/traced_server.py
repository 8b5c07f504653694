"""Traced lock-server entry point for the benchmark's per-layer run.

    python perfbench/traced_server.py SPANS_PATH serve [repro serve flags]

Before handing its arguments to ``repro.cli.main`` it wraps the public
calls of every layer the benchmark reports on, from the outside, so the
server code itself is unchanged:

============  ===========================================================
layer         wrapped calls (span names)
============  ===========================================================
wire          ``JSON_CODEC.encode`` / ``read_metered`` (``wire.encode``,
              ``wire.decode``; the decode span covers only the parse)
server        the writer-queue hop (``server.writer_op``: from the
              frame's core step starting to its end; carries the wait
              since the frame was decoded and the queue depth it met)
core          ``ServiceCore.begin_step/lock_step/finish_step/pump/
              detect_step``
lockmgr       ``ShardedLockCore.lock/finish/detect``
detection     ``TST(...)`` (``detect.step1``), ``candidates_for_cycle``
              and ``select_victim`` (``detect.victim``), and the
              scheduler's ``release_all/sweep/reposition_queue``
              (``sched.*``; Step 3 when inside a detector pass)
obs           ``Telemetry.request/on_event/finish/detection``
              (``obs.hook``) and ``LockTable.__str__``
              (``obs.incident_capture``)
journal       ``SessionJournal.append/flush``
============  ===========================================================

A span is ``[name, start, end, parent, request, value]``: ``parent`` is
the index of the enclosing span (-1 at top level), ``request`` one id
per decoded frame (or per background pass) shared by every span the
frame caused, and ``value`` the counter taken at the same boundary
(granted or not, waiters examined and resolved, bytes, ...).  Spans stay
in memory; SIGUSR1 writes them to SPANS_PATH as JSON.
"""

from __future__ import annotations

import contextvars
import json
import os
import signal
import sys
import time

clock = time.monotonic

#: (request id, time the frame finished decoding) of the frame a task
#: is serving; tasks spawned per frame inherit it.
REQUEST = contextvars.ContextVar("perfbench_request", default=None)


class Tracer:
    """In-memory span recorder.  The traced calls are synchronous and
    the server runs one thread, so a plain stack gives the nesting."""

    def __init__(self) -> None:
        self.spans = []
        self.stack = []
        #: Request the writer task is serving (its own context is the
        #: server's, so top-level writer spans read it from here).
        self.writer_request = None
        self._next_request = 0

    def new_request(self) -> int:
        self._next_request += 1
        return self._next_request

    def wrap(self, name, fn, value=None, before=None):
        """A traced stand-in for ``fn``.  ``before(args)`` and
        ``value(result, args, before_value)`` supply the span's counter."""

        def traced(*args, **kwargs):
            return self.call(
                name, fn, args, kwargs,
                before(args) if before is not None else None, value,
            )

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, args, kwargs, initial=None, value=None):
        """Run ``fn`` inside a span named ``name``."""
        spans, stack = self.spans, self.stack
        parent = stack[-1] if stack else -1
        if parent >= 0:
            request = spans[parent][4]
        else:
            ctx = REQUEST.get()
            request = ctx[0] if ctx is not None else self.writer_request
        record = [name, 0.0, 0.0, parent, request, initial]
        stack.append(len(spans))
        spans.append(record)
        record[1] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = clock()
            stack.pop()
        if value is not None:
            record[5] = value(result, args, initial)
        return result

    def dump(self, path: str) -> None:
        """Write every span (still-open ones keep end 0) to ``path``."""
        partial = path + ".partial"
        with open(partial, "w") as handle:
            json.dump({"spans": self.spans}, handle, separators=(",", ":"))
        os.replace(partial, path)


def _kind(resolution) -> int:
    chosen = resolution.chosen
    return 1 if chosen is not None and chosen.kind == "reposition" else 0


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary listed in the module docstring."""
    from repro.core import detection, tst
    from repro.lockmgr import lock_table, scheduler
    from repro.lockmgr.sharded import ShardedLockCore
    from repro.obs.instrument import Telemetry
    from repro.service import wire
    from repro.service.core import ServiceCore
    from repro.service.journal import SessionJournal
    from repro.service.server import LockServer

    wrap = tracer.wrap
    codec = wire.JsonCodec
    codec.encode = staticmethod(
        wrap("wire.encode", codec.encode,
             value=lambda data, args, _: len(data))
    )
    read_metered = codec.read_metered

    async def traced_read(reader, max_frame=wire.MAX_FRAME):
        frame, nbytes, seconds = await read_metered(reader, max_frame)
        if frame is not None:
            done = clock()
            request = tracer.new_request()
            REQUEST.set((request, done))
            tracer.spans.append(
                ["wire.decode", done - seconds, done, -1, request, nbytes]
            )
        return frame, nbytes, seconds

    codec.read_metered = staticmethod(traced_read)

    submit = LockServer._submit

    async def traced_submit(self, fn):
        ctx = REQUEST.get()
        depth = self._ops.qsize()

        def step():
            started = clock()
            if ctx is None:  # a detector pass or a lease sweep
                tracer.writer_request = tracer.new_request()
                waited = None
            else:
                tracer.writer_request = ctx[0]
                waited = started - ctx[1]
            return tracer.call("server.writer_op", fn, (), {}, [waited, depth])

        return await submit(self, step)

    LockServer._submit = traced_submit

    for method in ("begin_step", "lock_step", "finish_step", "detect_step"):
        setattr(ServiceCore, method,
                wrap("core." + method, getattr(ServiceCore, method)))
    ServiceCore.pump = wrap(
        "core.pump", ServiceCore.pump,
        before=lambda args: len(args[0].waiters),
        value=lambda resolved, args, examined: [examined, len(resolved)],
    )

    ShardedLockCore.lock = wrap(
        "lockmgr.lock", ShardedLockCore.lock,
        value=lambda outcome, args, _: 1 if outcome.granted else 0,
    )
    ShardedLockCore.finish = wrap("lockmgr.finish", ShardedLockCore.finish)
    ShardedLockCore.detect = wrap(
        "lockmgr.detect", ShardedLockCore.detect,
        value=lambda result, args, _: [
            len(result.resolutions),
            sum(_kind(r) for r in result.resolutions),
        ],
    )

    tst.TST.__init__ = wrap("detect.step1", tst.TST.__init__)
    for name in ("candidates_for_cycle", "select_victim"):
        setattr(detection, name, wrap("detect.victim", getattr(detection, name)))
    scheduler.release_all = wrap("sched.release_all", scheduler.release_all)
    scheduler.sweep = wrap("sched.sweep", scheduler.sweep)
    scheduler.reposition_queue = wrap(
        "sched.reposition", scheduler.reposition_queue
    )

    for name in ("request", "on_event", "finish", "detection"):
        setattr(Telemetry, name, wrap("obs.hook", getattr(Telemetry, name)))
    lock_table.LockTable.__str__ = wrap(
        "obs.incident_capture", lock_table.LockTable.__str__
    )

    SessionJournal.append = wrap("journal.append", SessionJournal.append)
    SessionJournal.flush = wrap(
        "journal.flush", SessionJournal.flush,
        value=lambda lines, args, _: lines,
    )


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: traced_server.py SPANS_PATH serve [flags]",
              file=sys.stderr)
        return 2
    path, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.dump(path))
    from repro.cli import main as cli_main

    return cli_main(serve_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
