"""Starting the lock server loads only what it runs.

The ``serve`` path imports neither the analysis package nor numpy, and
the lazy package exports (PEP 562) keep the client, the loopback
harness, the introspection and verification tools, the paper-notation
parser, the cluster package, the simulator and the baseline strategies
out of a server process — a plain boot and a journaled one alike.  The
probes build the CLI parser and parse a ``serve`` command line, as
``python -m repro serve`` does, since the parser reads the simulator's
workload presets for another command's choices.  The detector's own modules still load at
start, so their compile cost never lands on the first periodic pass.
"""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: Modules a lock server never runs.
NOT_SERVED = (
    "numpy",
    "repro.analysis",
    "repro.cluster",
    "repro.service.client",
    "repro.service.loopback",
    "repro.lockmgr.introspect",
    "repro.core.verify",
    "repro.core.trace",
    "repro.core.notation",
    "repro.sim.runner",
    "repro.sim.system",
    "repro.sim.realtime",
    "repro.sim.engine",
    "repro.sim.metrics",
    "repro.baselines",
)

#: Modules the periodic detector runs, loaded before the first pass.
DETECTOR = ("repro.core.detection", "repro.core.tst")

LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.lockmgr",
    "repro.service",
    "repro.cluster",
    "repro.sim",
)

REPORT = (
    "print(sorted(m for m in {!r} if m in sys.modules))\n"
    "print(sorted(m for m in {!r} if m in sys.modules))\n"
).format(NOT_SERVED, DETECTOR)

SERVE_ARGV = (
    "import repro.cli, repro.service.server\n"
    "repro.cli.build_parser().parse_args(['serve', '--port', '0'])\n"
)

IMPORT_PROBE = "import sys\n" + SERVE_ARGV + REPORT

JOURNALED_BOOT_PROBE = (
    """
import asyncio, sys, time
"""
    + SERVE_ARGV
    + """
from repro.service.journal import encode_record
from repro.service.server import LockServer

path = sys.argv[1]
records = [
    {"kind": "boot"},
    {"kind": "open", "sid": "S1", "token": "t", "lease": 60.0,
     "expires": time.time() + 600.0},
    {"kind": "begin", "sid": "S1", "tid": 1},
    {"kind": "lock", "tid": 1, "rid": "R1", "mode": "X", "seq": 0},
    {"kind": "detect"},
]
with open(path, "w") as handle:
    handle.write("".join(encode_record(r) + "\\n" for r in records))


async def boot():
    server = LockServer(journal_path=path)
    await server.start("127.0.0.1", 0)
    assert server.recovery.replayed == len(records)
    assert server.recovery.replay_errors == 0
    await server.aclose()


asyncio.run(boot())
"""
    + REPORT
)


def run_probe(source, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", source] + list(args),
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    loaded_unused, loaded_detector = out.strip().splitlines()
    return loaded_unused, loaded_detector


def test_serve_path_imports_neither_analysis_nor_numpy():
    """Nor anything else in NOT_SERVED; the detector modules do load."""
    unused, detector = run_probe(IMPORT_PROBE)
    assert unused == "[]"
    assert detector == repr(sorted(DETECTOR))


def test_journaled_boot_loads_only_what_it_runs(tmp_path):
    unused, detector = run_probe(
        JOURNALED_BOOT_PROBE, str(tmp_path / "sessions.jsonl")
    )
    assert unused == "[]"
    assert detector == repr(sorted(DETECTOR))


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_lazy_export_resolves(name):
    package = importlib.import_module(name)
    assert len(set(package.__all__)) == len(package.__all__)
    for export in package.__all__:
        assert getattr(package, export) is not None, export
        assert export in dir(package)
    with pytest.raises(AttributeError):
        getattr(package, "no_such_export")


def test_star_import_binds_every_public_name():
    import repro

    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["LockManager"] is repro.lockmgr.manager.LockManager
    assert namespace["__version__"] == repro.__version__


def test_policy_package_stays_eager():
    from repro.policy import POLICIES

    assert POLICIES and all(inspect.isclass(v) for v in POLICIES.values())
