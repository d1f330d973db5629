"""Benchmark of the client-assignment system's two end-to-end paths.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload serve-volatile --seed 1 \\
        --seconds 20 --trace 0

Workloads:

- ``serve-volatile``: churn over the wire protocol, volatile sessions;
- ``serve-wal``: the same churn with a write-ahead log, group-commit
  fsync and periodic checkpoints;
- ``solve-meridian``: Meridian-size dense instances through the lower
  bound and the paper's four heuristics;
- ``solve-coreset``: 5 x 10^4-client coordinate instances through the
  coreset pipeline.

The program under test is imported from ``src/`` of the checkout (an
absent program fails the imports below, before anything runs). The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer breakdown with ``--trace 1`` (see
``common.py`` and ``README.md``).
"""

from __future__ import annotations

import argparse
import json
import sys

import serve
import solve

WORKLOADS = {
    "serve-volatile": lambda seed, seconds, trace: serve.run(
        "off", seed, seconds, trace
    ),
    "serve-wal": lambda seed, seconds, trace: serve.run("wal", seed, seconds, trace),
    "solve-meridian": solve.run_meridian,
    "solve-coreset": solve.run_coreset,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="client-assignment benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
