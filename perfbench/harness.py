"""The lock-service benchmark: one command, three closed-loop workloads.

It starts the real server (``python -m repro serve``: JSON wire v1 over
loopback TCP, telemetry on, ``periodic`` policy, one shard, one worker,
``--period 0.1``) as a child process and drives it from this process
with the closed loop of :mod:`loadgen` (2 connections x 8 transactions).
Workloads are described in :mod:`workloads`.

``--trace 0`` measures the end-to-end metrics with nothing but the
server itself running.  ``--trace 1`` makes the same untraced run and
then a second, traced one against :mod:`traced_server`, which wraps the
public calls of each layer, keeps spans in memory and writes them out
when asked; :mod:`layers` turns the spans into the per-layer metrics.

Every metric is printed by name with its unit, then one provenance
record, and last one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  The run exits 1 when an oracle fails: a conflicting
grant, a count the server disagrees with, a leftover lock, a failed
operation, or a ballast lock lost (or a finished transaction's lock
resurrected) by the kill-and-restart.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import layers
import workloads
from layers import percentile
from loadgen import (
    CONNECTIONS,
    TASKS_PER_CONNECTION,
    LoadGenerator,
    in_window,
    table_tids,
)
from repro.service.client import AsyncLockClient

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")

PERIOD = 0.1
#: Closed-loop warm-up before the measured window (connections open,
#: the table and the server's caches reach their steady size).
WARMUP = 2.0
#: Server start-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 5
#: Throughput and server CPU are read in slices this long; the reported
#: figure is the median slice, so one stall does not move the run.
SLICE = 0.5
#: The generator counts as saturated (flagged in the record) above this
#: share of one core.
LOADGEN_SATURATED = 0.9

clock = time.monotonic


# -- the server process ------------------------------------------------------


class ServerProcess:
    """One ``repro serve`` child; its banner names the bound port."""

    def __init__(self, argv: List[str], log_path: str) -> None:
        env = dict(os.environ)
        for name in ("REPRO_POLICY", "REPRO_SHARDS", "REPRO_WIRE"):
            env.pop(name, None)
        env["PYTHONPATH"] = SRC
        env["PYTHONUNBUFFERED"] = "1"
        self.log_path = log_path
        self._log = open(log_path, "w")
        self.process = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.pid = self.process.pid

    async def ready(self, timeout: float = 60.0) -> int:
        """Wait for the listening banner; returns the bound port."""
        marker = "listening on 127.0.0.1:"
        deadline = clock() + timeout
        while clock() < deadline:
            with open(self.log_path) as log:
                for line in log:
                    if marker in line:
                        return int(line.split(marker)[1].split()[0])
            if self.process.poll() is not None:
                break
            await asyncio.sleep(0.002)
        with open(self.log_path) as log:
            raise RuntimeError("server did not start:\n" + log.read()[-2000:])

    def cpu_seconds(self) -> float:
        with open("/proc/{}/stat".format(self.pid)) as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open("/proc/{}/status".format(self.pid)) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def signal(self, signum: int) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signum)

    def kill(self) -> None:
        self.signal(signal.SIGKILL)
        self.process.wait()
        self._log.close()


def host_steal() -> float:
    """CPU seconds the hypervisor has taken from this machine so far
    (the ``steal`` column of ``/proc/stat``, summed over CPUs)."""
    with open("/proc/stat") as stat:
        fields = stat.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def serve_argv(journal: Optional[str], spans: Optional[str]) -> List[str]:
    entry = (
        [os.path.join(HERE, "traced_server.py"), spans]
        if spans is not None
        else ["-m", "repro"]
    )
    argv = [
        sys.executable, *entry, "serve",
        "--host", "127.0.0.1", "--port", "0",
        "--period", str(PERIOD), "--policy", "periodic",
        "--shards", "1", "--workers", "1",
    ]
    if journal is not None:
        argv += ["--journal", journal, "--journal-fsync", "batch"]
    return argv


# -- one measured phase --------------------------------------------------------


class Phase:
    """Set up a server, run the closed loop, check the oracles."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 workdir: str, setups: int, spans: Optional[str] = None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.setups = setups
        self.spans = spans
        self.durable = workload == "ballast-durable"
        self.journal = (
            os.path.join(workdir, "journal.jsonl") if self.durable else None
        )
        self.problems: List[str] = []
        self.raw: Dict[str, object] = {}
        self.gen: Optional[LoadGenerator] = None

    async def _start(self, attempt: int):
        if self.journal is not None and os.path.exists(self.journal):
            os.remove(self.journal)
        started = clock()
        server = ServerProcess(
            serve_argv(self.journal, self.spans),
            os.path.join(self.workdir, "server-{}.log".format(attempt)),
        )
        try:
            port = await server.ready()
            gen = LoadGenerator("127.0.0.1", port)
            await gen.connect()
            if self.durable:
                await gen.preload(workloads.ballast())
        except BaseException:
            server.kill()
            raise
        return server, gen, clock() - started

    async def run(self) -> None:
        setup_times = []
        for attempt in range(self.setups):
            server, gen, seconds = await self._start(attempt)
            setup_times.append(seconds)
            if attempt < self.setups - 1:
                await gen.close()
                server.kill()
        self.raw["setup_times"] = setup_times
        self.gen = gen
        try:
            await self._measure(server, gen)
        finally:
            # A crash, not a shutdown: the sessions stay attached, so
            # the journal must bring the ballast back on its own.
            server.kill()
            for client in gen.clients:
                await client.close()
        if self.durable and self.spans is None:
            await self._recover(gen)

    async def _measure(self, server: ServerProcess, gen: LoadGenerator):
        tasks = CONNECTIONS * TASKS_PER_CONNECTION
        gen.start(
            [workloads.stream(self.workload, self.seed, k) for k in range(tasks)]
        )
        await asyncio.sleep(WARMUP)
        self.raw.update(await self._window(server, gen))
        self.raw["rss_mb"] = server.peak_rss_mb()
        await gen.drain()
        self.problems += await gen.verify()
        if self.spans is not None:
            # The traced server writes its spans on SIGUSR1.
            server.signal(signal.SIGUSR1)
            deadline = clock() + 60.0
            while not os.path.exists(self.spans) and clock() < deadline:
                await asyncio.sleep(0.05)

    async def _window(self, server: ServerProcess, gen: LoadGenerator):
        """Measure one ``--seconds`` window of the running closed loop."""
        slices = []
        start = clock()
        cpu0, gen_cpu0, steal0 = (
            server.cpu_seconds(), time.process_time(), host_steal()
        )
        journal0 = self._journal_size()
        end = start + self.seconds
        now, cpu = start, cpu0
        while now < end:
            await asyncio.sleep(min(SLICE, end - now))
            was, was_cpu = now, cpu
            now, cpu = clock(), server.cpu_seconds()
            commits = len(in_window(gen.log.commits, was, now))
            slices.append((now - was, commits, cpu - was_cpu))
        return {
            "window": (start, now),
            "slices": slices,
            "server_cpu": cpu - cpu0,
            "loadgen_cpu": time.process_time() - gen_cpu0,
            "journal_bytes": self._journal_size() - journal0,
            "steal": (host_steal() - steal0) / ((now - start) * os.cpu_count()),
        }

    def _journal_size(self) -> int:
        if self.journal is None or not os.path.exists(self.journal):
            return 0
        return os.path.getsize(self.journal)

    async def _recover(self, gen: LoadGenerator) -> None:
        """The server was SIGKILLed with its sessions attached: restart
        it on the same journal, time it to ready, and check that every
        ballast holding (and nothing else) came back."""
        started = clock()
        server = ServerProcess(
            serve_argv(self.journal, None),
            os.path.join(self.workdir, "server-recovered.log"),
        )
        try:
            port = await server.ready()
            self.raw["recovery_s"] = clock() - started
            client = await AsyncLockClient.connect(
                "127.0.0.1", port, wire="json"
            )
            try:
                held = table_tids(await client.snapshot())
            finally:
                await client.close()
        finally:
            server.kill()
        lost = [tid for tid, rows in gen.ballast.items() if held.get(tid) != rows]
        if lost:
            self.problems.append(
                "recovery lost ballast holdings of T{}".format(lost[:5])
            )
        back = sorted(set(held) - set(gen.ballast))
        if back:
            self.problems.append(
                "recovery brought back locks of finished transactions "
                "T{}".format(back[:5])
            )

    # -- figures ------------------------------------------------------------

    def figures(self) -> Dict[str, float]:
        log = self.gen.log
        start, end = self.raw["window"]
        wall = end - start
        commits = in_window(log.commits, start, end)
        locks = in_window(log.locks, start, end)
        attempts = [t for t in log.attempts if start <= t < end]
        victims = [t for t in log.victims if start <= t < end]
        slices = self.raw["slices"]
        rates = [n / dt for dt, n, _ in slices if dt > 0]
        cpu_per_txn = [cpu / n * 1e6 for _, n, cpu in slices if n]
        return {
            "setup_s": statistics.median(self.raw["setup_times"]),
            "commit_tps": statistics.median(rates),
            "txn_p50_ms": percentile(commits, 0.50) * 1e3,
            "txn_p99_ms": percentile(commits, 0.99) * 1e3,
            "lock_p50_ms": percentile(locks, 0.50) * 1e3,
            "lock_p99_ms": percentile(locks, 0.99) * 1e3,
            "server_cpu_us_per_txn": statistics.median(cpu_per_txn),
            "server_rss_mb": self.raw["rss_mb"],
            "abort_ratio": len(victims) / max(len(attempts), 1),
            "error_ratio": log.failed / max(log.ops, 1),
            "recovery_s": self.raw.get("recovery_s", 0.0),
            "proc.server_cpu_util": self.raw["server_cpu"] / wall,
            "proc.loadgen_cpu_util": self.raw["loadgen_cpu"] / wall,
            "journal.bytes_per_txn": self.raw["journal_bytes"]
            / max(len(commits), 1),
            "proc.host_steal_share": self.raw["steal"],
            "samples.txn": len(commits),
            "samples.lock": len(locks),
        }


# -- the command -----------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, when it is a git work tree of its own (git
    is kept from searching the directories above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(args, figures: Dict[str, float]) -> Dict[str, object]:
    return {
        "schema": "perfbench/1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workloads.PARAMS[args.workload],
        "period": PERIOD,
        "connections": CONNECTIONS,
        "tasks_per_connection": TASKS_PER_CONNECTION,
        "warmup_s": WARMUP,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "event_loop": "asyncio",
        "git_commit": git_commit(),
        "loadgen_saturated": figures["proc.loadgen_cpu_util"]
        > LOADGEN_SATURATED,
        # CPU time the hypervisor took from this machine during the
        # window: on a shared host it comes in bursts that can halve
        # throughput, so timing figures from a high-share run are suspect.
        "host_steal_share": round(figures["proc.host_steal_share"], 4),
        "samples": {
            "txn": figures["samples.txn"],
            "lock": figures["samples.lock"],
        },
    }


async def bench(args, workdir: str):
    """Returns (figures, per-layer or None, problems, attempted, failed)."""
    plain = Phase(args.workload, args.seed, args.seconds, workdir,
                  setups=1 if args.trace else SETUPS)
    await plain.run()
    figures = plain.figures()
    problems = list(plain.problems)
    attempted, failed = plain.gen.log.ops, plain.gen.log.failed
    if not args.trace:
        return figures, None, problems, attempted, failed
    spans = os.path.join(workdir, "spans.json")
    traced = Phase(args.workload, args.seed, args.seconds, workdir,
                   setups=1, spans=spans)
    await traced.run()
    problems += traced.problems
    attempted += traced.gen.log.ops
    failed += traced.gen.log.failed
    if not os.path.exists(spans):
        problems.append("the traced server wrote no spans")
        return figures, {}, problems, attempted, failed
    with open(spans) as handle:
        dump = json.load(handle)
    traced_figures = traced.figures()
    per_layer = layers.per_layer(
        dump, window=traced.raw["window"], commits=traced_figures["samples.txn"]
    )
    for name in ("commit_tps", "txn_p50_ms", "txn_p99_ms", "lock_p50_ms",
                 "lock_p99_ms", "server_cpu_us_per_txn", "abort_ratio",
                 "error_ratio", "recovery_s", "proc.server_cpu_util",
                 "proc.loadgen_cpu_util", "proc.host_steal_share",
                 "journal.bytes_per_txn"):
        per_layer[name] = figures[name]
    per_layer["bench.trace_overhead"] = (
        1.0 - traced_figures["commit_tps"] / figures["commit_tps"]
    )
    return figures, per_layer, problems, attempted, failed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="closed-loop lock-service benchmark"
    )
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workdir = os.path.join(
        ROOT, ".perfbench-run", "{}-{}".format(args.workload, os.getpid())
    )
    os.makedirs(workdir, exist_ok=True)
    try:
        figures, per_layer, problems, attempted, failed = asyncio.run(
            bench(args, workdir)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = per_layer if args.trace else figures
    metrics = {}
    for entry in wanted:
        value = source.get(entry["name"])
        if value is None:
            problems.append("metric {} was not measured".format(entry["name"]))
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    units = {
        entry["name"]: entry["unit"]
        for entry in spec["end_to_end"] + spec["per_layer"]
    }
    shown = dict(figures, **(per_layer or {}))
    for name in sorted(shown):
        print("{:<34} {:>14.6g} {}".format(name, shown[name], units.get(name, "")))
    if failed:
        problems.append("{} failed operations".format(failed))
    for problem in problems:
        print("ORACLE FAILED: {}".format(problem))
    print(json.dumps({"provenance": provenance(args, figures)}))
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1
