"""Repository benchmark: ``semimatch serve`` under two named workloads.

Run from the root of a checkout::

    python3 servebench/run.py --workload mixed_closed --seed 1 --seconds 50 --trace 0

Each run starts a fresh ``semimatch serve`` subprocess (the checkout's
``src/`` on its ``PYTHONPATH``), drives it from this process over one
connection, checks every answer, prints a human-readable table and, as
its last line, one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer ledger with ``--trace 1``.  The exit code is non-zero when
any answer fails its check.  See ``servebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("large_closed", "mixed_closed")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            "servebench: no src/repro under the working directory; run "
            "from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, src)
    # a terminated run still stops the server it started (the cleanup
    # lives in finally blocks, which SIGTERM would otherwise skip)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import procs
    import workloads

    procs.adopt_orphans()
    run = workloads.traced if args.trace else workloads.timed
    try:
        outcome = run(args.workload, args.seed, args.seconds, root)
    finally:
        procs.reap()
    for line in outcome.lines:
        print(line)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }), flush=True)
    return 0 if outcome.correct and outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
