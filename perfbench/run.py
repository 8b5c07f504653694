#!/usr/bin/env python3
"""Entry point of the lock-service benchmark (see ``harness.py``).

Run from the repository root::

    python3 perfbench/run.py --workload spread --seed 1 --seconds 10 --trace 0

Exits 2 without a result when the tree it is run in lacks the package
sources (``src/repro``) or ``BENCHMARK.json``.
"""

import os
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
#: Every process of a run (this one and the servers it starts) hashes
#: strings with the same seed, so dict and set layouts, and with them
#: the cost of the lock table's string-keyed maps, repeat run to run.
HASH_SEED = "0"


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    missing = [
        path
        for path in (os.path.join("src", "repro", "__init__.py"),
                     "BENCHMARK.json")
        if not os.path.isfile(os.path.join(ROOT, path))
    ]
    if missing:
        print(
            "perfbench: run from the repository root; missing {}".format(
                ", ".join(missing)
            ),
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import harness

    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
