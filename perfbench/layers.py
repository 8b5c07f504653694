"""Per-layer metrics from the traced server's spans.

Spans come from :mod:`traced_server` as ``[name, start, end, parent,
request, value]``.  Only spans that start inside the measured window
count.  A layer's *self* time is a span's duration minus the time its
child spans cover; the traced calls nest synchronously, so that is the
duration minus the children's durations.

:data:`METRICS` lists every per-layer metric with its unit, which way
is better, and the end-to-end metric (on which workload) it is expected
to move; ``BENCHMARK.json`` carries the first three columns.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

#: (name, unit, better, moves) — the last column is documentation.
METRICS: List[Tuple[str, str, str, str]] = [
    ("wire.encode_us", "us", "lower", "commit_tps, server_cpu_us_per_txn on spread"),
    ("wire.decode_us", "us", "lower", "commit_tps, server_cpu_us_per_txn on spread"),
    ("wire.frames_per_txn", "count", "lower", "commit_tps, server_cpu_us_per_txn on spread"),
    ("wire.bytes_per_txn", "B", "lower", "commit_tps, server_cpu_us_per_txn on spread"),
    ("server.queue_wait_p50_us", "us", "lower", "commit_tps on spread"),
    ("server.queue_wait_p99_us", "us", "lower", "lock_p99_ms on ballast-durable"),
    ("server.queue_depth_max", "count", "lower", "lock_p99_ms on ballast-durable"),
    ("server.writer_busy_frac", "ratio", "lower", "commit_tps on spread"),
    ("core.lock_step_us", "us", "lower", "txn_p99_ms, commit_tps on hotspot"),
    ("core.finish_step_us", "us", "lower", "txn_p99_ms, commit_tps on hotspot"),
    ("core.pump_us", "us", "lower", "txn_p99_ms, commit_tps on hotspot"),
    ("core.pump_useful_ratio", "ratio", "higher", "txn_p99_ms, commit_tps on hotspot"),
    ("lockmgr.lock_us", "us", "lower", "commit_tps on spread and hotspot"),
    ("lockmgr.finish_us", "us", "lower", "commit_tps on spread and hotspot"),
    ("lockmgr.block_ratio", "ratio", "lower", "commit_tps on spread and hotspot"),
    ("detect.pass_p50_ms", "ms", "lower", "lock_p99_ms, commit_tps on ballast-durable"),
    ("detect.pass_p99_ms", "ms", "lower", "lock_p99_ms, commit_tps on ballast-durable"),
    ("detect.step1_ms", "ms", "lower", "lock_p99_ms, commit_tps on ballast-durable"),
    ("detect.step2_ms", "ms", "lower", "abort_ratio, txn_p99_ms on hotspot"),
    ("detect.step3_ms", "ms", "lower", "abort_ratio, txn_p99_ms on hotspot"),
    ("detect.useful_pass_ratio", "ratio", "higher", "abort_ratio, txn_p99_ms on hotspot"),
    ("detect.tdr2_ratio", "ratio", "higher", "abort_ratio, txn_p99_ms on hotspot"),
    ("obs.hook_us_per_txn", "us", "lower", "commit_tps on spread"),
    ("obs.incident_capture_ms", "ms", "lower", "lock_p99_ms on ballast-durable"),
    ("journal.append_us", "us", "lower", "commit_tps, lock_p99_ms on ballast-durable"),
    ("journal.flush_p50_ms", "ms", "lower", "commit_tps, lock_p99_ms on ballast-durable"),
    ("journal.flush_p99_ms", "ms", "lower", "commit_tps, lock_p99_ms on ballast-durable"),
    ("journal.bytes_per_txn", "B", "lower", "commit_tps, recovery_s on ballast-durable"),
    ("journal.flushes_per_txn", "count", "lower", "commit_tps, lock_p99_ms on ballast-durable"),
    ("self.wire_us_per_txn", "us", "lower", "server_cpu_us_per_txn on spread"),
    ("self.server_us_per_txn", "us", "lower", "server_cpu_us_per_txn on spread"),
    ("self.core_us_per_txn", "us", "lower", "server_cpu_us_per_txn on hotspot"),
    ("self.lockmgr_us_per_txn", "us", "lower", "server_cpu_us_per_txn on spread"),
    ("self.detect_us_per_txn", "us", "lower", "server_cpu_us_per_txn on ballast-durable"),
    ("self.obs_us_per_txn", "us", "lower", "server_cpu_us_per_txn on spread"),
    ("self.journal_us_per_txn", "us", "lower", "server_cpu_us_per_txn on ballast-durable"),
    # Client-side figures of the untraced run.  They are what a user
    # feels, but on a shared 2-vCPU host they swing by more than the
    # 0.25 bound between runs, so they carry no regression bound here.
    ("commit_tps", "1/s", "higher", "throughput, every workload"),
    ("txn_p50_ms", "ms", "lower", "latency, every workload"),
    ("txn_p99_ms", "ms", "lower", "tail latency, every workload"),
    ("lock_p50_ms", "ms", "lower", "latency, every workload"),
    ("lock_p99_ms", "ms", "lower", "tail latency, every workload"),
    ("server_cpu_us_per_txn", "us", "lower", "server cost, every workload"),
    ("abort_ratio", "ratio", "lower", "commit_tps, txn_p99_ms on hotspot"),
    ("error_ratio", "ratio", "lower", "must stay 0"),
    ("recovery_s", "s", "lower", "setup after a crash on ballast-durable"),
    ("proc.server_cpu_util", "ratio", "higher", "benchmark health: the server is the bottleneck"),
    ("proc.loadgen_cpu_util", "ratio", "lower", "benchmark health: the generator is not saturated"),
    ("proc.host_steal_share", "ratio", "lower", "benchmark health: CPU the hypervisor took from the box"),
    ("bench.trace_overhead", "ratio", "lower", "benchmark health: traced vs untraced commit_tps"),
]

#: Span names whose top-level time is writer-task time.
WRITER_SPANS = ("server.writer_op", "core.pump", "journal.flush")
STEP3 = ("sched.release_all", "sched.sweep", "sched.reposition")


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(int(-(-share * len(ordered) // 1)), 1)
    return ordered[min(rank, len(ordered)) - 1]


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer(dump: Dict, window: Tuple[float, float], commits: int) -> Dict[str, float]:
    """Every span-derived metric of :data:`METRICS` over ``window``."""
    spans = dump["spans"]
    start, end = window
    txns = max(commits, 1)

    # Self time needs the children's durations; ancestry names the pass.
    # Spans still open at the dump (end 0) are skipped.
    children = [0.0] * len(spans)
    for span in spans:
        if span[2] and span[3] >= 0:
            children[span[3]] += span[2] - span[1]

    def ancestor_named(span, name: str) -> bool:
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    durations: Dict[str, List[float]] = defaultdict(list)
    values: Dict[str, List] = defaultdict(list)
    self_time: Dict[str, float] = defaultdict(float)
    writer_busy = 0.0
    step1 = step3 = incident = 0.0
    incidents = 0
    for position, span in enumerate(spans):
        name, began, ended, parent = span[0], span[1], span[2], span[3]
        if not ended or not start <= began < end:
            continue
        took = ended - began
        durations[name].append(took)
        values[name].append(span[5])
        layer = name.split(".")[0]
        if layer == "sched":
            layer = "detect" if ancestor_named(span, "lockmgr.detect") else "lockmgr"
        self_time[layer] += took - children[position]
        if parent == -1 and name in WRITER_SPANS:
            writer_busy += took
        if name == "detect.step1":
            step1 += took
        elif name in STEP3 and ancestor_named(span, "lockmgr.detect"):
            step3 += took
        elif name == "obs.incident_capture" and ancestor_named(span, "core.detect_step"):
            incident += took
            incidents += 1

    passes = durations["lockmgr.detect"]
    npass = max(len(passes), 1)
    pass_values = values["lockmgr.detect"]
    resolutions = sum(v[0] for v in pass_values)
    abort_free = sum(v[1] for v in pass_values)
    useful = sum(1 for v in pass_values if v[0])
    pumps = values["core.pump"]
    examined = sum(v[0] for v in pumps)
    resolved = sum(v[1] for v in pumps)
    grants = values["lockmgr.lock"]
    writer_ops = [v for v in values["server.writer_op"] if v[0] is not None]
    flushes = [
        took for took, lines in zip(durations["journal.flush"], values["journal.flush"])
        if lines
    ]
    frames = len(durations["wire.encode"]) + len(durations["wire.decode"])
    wire_bytes = sum(values["wire.encode"]) + sum(values["wire.decode"])
    figures = {
        "wire.encode_us": _mean(durations["wire.encode"]) * 1e6,
        "wire.decode_us": _mean(durations["wire.decode"]) * 1e6,
        "wire.frames_per_txn": frames / txns,
        "wire.bytes_per_txn": wire_bytes / txns,
        "server.queue_wait_p50_us": percentile([v[0] for v in writer_ops], 0.5) * 1e6,
        "server.queue_wait_p99_us": percentile([v[0] for v in writer_ops], 0.99) * 1e6,
        "server.queue_depth_max": float(max((v[1] for v in values["server.writer_op"]), default=0)),
        "server.writer_busy_frac": writer_busy / (end - start),
        "core.lock_step_us": _mean(durations["core.lock_step"]) * 1e6,
        "core.finish_step_us": _mean(durations["core.finish_step"]) * 1e6,
        "core.pump_us": _mean(durations["core.pump"]) * 1e6,
        "core.pump_useful_ratio": resolved / examined if examined else 0.0,
        "lockmgr.lock_us": _mean(durations["lockmgr.lock"]) * 1e6,
        "lockmgr.finish_us": _mean(durations["lockmgr.finish"]) * 1e6,
        "lockmgr.block_ratio": (len(grants) - sum(grants)) / len(grants) if grants else 0.0,
        "detect.pass_p50_ms": percentile(passes, 0.5) * 1e3,
        "detect.pass_p99_ms": percentile(passes, 0.99) * 1e3,
        "detect.step1_ms": step1 / npass * 1e3,
        "detect.step2_ms": (sum(passes) - step1 - step3) / npass * 1e3,
        "detect.step3_ms": step3 / npass * 1e3,
        "detect.useful_pass_ratio": useful / npass,
        "detect.tdr2_ratio": abort_free / resolutions if resolutions else 0.0,
        "obs.hook_us_per_txn": sum(durations["obs.hook"]) / txns * 1e6,
        "obs.incident_capture_ms": incident / incidents * 1e3 if incidents else 0.0,
        "journal.append_us": _mean(durations["journal.append"]) * 1e6,
        "journal.flush_p50_ms": percentile(flushes, 0.5) * 1e3,
        "journal.flush_p99_ms": percentile(flushes, 0.99) * 1e3,
        "journal.flushes_per_txn": len(flushes) / txns,
    }
    for layer in ("wire", "server", "core", "lockmgr", "detect", "obs", "journal"):
        figures["self.{}_us_per_txn".format(layer)] = self_time[layer] / txns * 1e6
    return figures
