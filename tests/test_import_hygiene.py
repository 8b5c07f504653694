"""Starting the lock server loads only what it runs: neither the
analysis package nor numpy is imported on the ``serve`` path."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def test_serve_path_imports_neither_analysis_nor_numpy():
    probe = (
        "import sys\n"
        "import repro.cli, repro.service.server\n"
        "print(sorted(m for m in ('numpy', 'repro.analysis')"
        " if m in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"
