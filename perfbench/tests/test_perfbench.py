"""Self-test of the lock-service benchmark.

    python -m pytest perfbench/tests -q

A tiny-duration run of every workload must emit every metric named in
``BENCHMARK.json`` with its unit (both the end-to-end and the traced
per-layer set), the safety oracle must reject a conflicting grant, and
the command must refuse to run outside a repository checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import layers  # noqa: E402
import workloads  # noqa: E402
from oracle import SafetyViolation, ShadowTable  # noqa: E402
from repro.core.modes import LockMode, compatible, convert  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _run(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", seconds,
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", [entry["name"] for entry in SPEC["workloads"]]
)
def test_smoke_emits_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {entry["name"]: entry["unit"] for entry in wanted}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        for entry in wanted:
            assert result["metrics"][entry["name"]]["value"] > 0, entry


def test_spec_matches_the_layer_table():
    assert [
        (entry["name"], entry["unit"], entry["better"])
        for entry in SPEC["per_layer"]
    ] == [(name, unit, better) for name, unit, better, _ in layers.METRICS]
    assert [entry["name"] for entry in SPEC["workloads"]] == list(
        workloads.WORKLOADS
    )


def _shadow():
    return ShadowTable(compatible, convert)


def test_oracle_rejects_a_conflicting_grant():
    shadow = _shadow()
    shadow.granted(1, "r1", LockMode.S)
    shadow.granted(2, "r1", LockMode.X)  # X over a live S holder
    shadow.finishing(1)  # T1 commits: it really held S all along
    assert shadow.violations
    with pytest.raises(SafetyViolation):
        shadow.check()


def test_oracle_rejects_a_conflicting_conversion():
    shadow = _shadow()
    shadow.granted(1, "r1", LockMode.S)
    shadow.granted(2, "r1", LockMode.S)
    shadow.granted(2, "r1", LockMode.X)  # S->X upgrade beside T1's S
    shadow.finishing(1)
    with pytest.raises(SafetyViolation):
        shadow.check()


def test_oracle_excuses_grants_over_a_victim():
    shadow = _shadow()
    shadow.granted(1, "r1", LockMode.X)
    shadow.granted(2, "r1", LockMode.X)  # arrived before T1's abort reply
    shadow.aborted(1)
    shadow.finishing(2)
    shadow.check()
    assert shadow.excused == 1 and not shadow.live()


def test_oracle_accepts_compatible_grants():
    shadow = _shadow()
    for tid in (1, 2, 3):
        shadow.granted(tid, "r1", LockMode.S)
    for tid in (1, 2, 3):
        shadow.finishing(tid)
    shadow.granted(4, "r1", LockMode.X)
    shadow.finishing(4)
    shadow.check()


def test_streams_are_seeded():
    for name in workloads.WORKLOADS:
        first = workloads.stream(name, 3, 5)
        again = workloads.stream(name, 3, 5)
        other = workloads.stream(name, 4, 5)
        a = [next(first) for _ in range(50)]
        assert a == [next(again) for _ in range(50)]
        assert a != [next(other) for _ in range(50)]


def test_hotspot_upgrades_follow_their_read():
    stream = workloads.stream("hotspot", 1, 0)
    upgrades = 0
    for _ in range(500):
        accesses = next(stream)
        for position, (rid, mode) in enumerate(accesses):
            if mode == "X" and (rid, "S") in accesses:
                assert accesses.index((rid, "S")) < position
                upgrades += 1
    assert upgrades > 0


def test_self_time_excludes_children():
    spans = [
        ["server.writer_op", 1.0, 1.010, -1, 1, [0.001, 0]],
        ["core.lock_step", 1.001, 1.009, 0, 1, None],
        ["lockmgr.lock", 1.002, 1.006, 1, 1, 1],
        ["obs.hook", 1.0065, 1.0075, 1, 1, None],
    ]
    figures = layers.per_layer({"spans": spans}, window=(0.0, 2.0), commits=1)
    assert figures["self.server_us_per_txn"] == pytest.approx(2000)
    assert figures["self.core_us_per_txn"] == pytest.approx(3000)
    assert figures["self.lockmgr_us_per_txn"] == pytest.approx(4000)
    assert figures["self.obs_us_per_txn"] == pytest.approx(1000)
    assert figures["server.queue_wait_p50_us"] == pytest.approx(1000)
    assert figures["server.writer_busy_frac"] == pytest.approx(0.005)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run(str(tmp_path), "spread", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
