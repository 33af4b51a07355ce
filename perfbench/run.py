#!/usr/bin/env python3
"""The repository's benchmark: one workload per process, checked against the
delta-engine oracle.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload line-pts-steady --seed 1 --seconds 12 --trace 0

The program is driven only through its public entry points
(``Session.prepare``, ``Session.run``, ``packet_id_scope``; sharded specs go
through ``Session.run`` to ``run_sharded``), straight from ``src/``.  A run
repeats *passes* of the workload — every scenario of it, in one fresh
``Session`` — until ``--seconds`` have gone by, and reports medians over
the passes.  Each scenario runs inside a fresh ``packet_id_scope`` as
``prepare`` followed by ``Session.run(prepared)``, so set-up (``prepare``
plus engine construction) is timed apart from execution.

Times are reported in *reference seconds*.  The host this benchmark was
written on changes speed by up to half within a second (other tenants share
its cores), which moved raw pass times by up to 27% between quartiles.  So
while a pass runs, a ``SIGALRM`` every 50 ms times a fixed pure-Python loop
(``tracing.HostSpeed``), and every time measured in the pass is scaled by
``REFERENCE_SAMPLE_S / mean sample``: the seconds the pass would have taken
had the loop run at its reference speed throughout.  That cut the spread to
about 6%.  Set-up and execution are scaled apart, each by the samples taken
while it ran.  Sharded passes use the samples their workers take, since the
workers do the work while the coordinator waits.  The raw seconds of every
pass are kept in the record line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half traced, with timed wrappers around each layer's
public calls (see ``tracing.py``), and prints the per-layer metrics; the
traced passes must compute the same digests as the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the host, the engine each pass ran on, the sample counts and the
oracle check.  A run fails when it raises, when its result differs from the
delta engine's, or when its measured occupancy exceeds the algorithm's
bound; ``failed / attempted`` is the failure rate.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="recompute digests.json at the default seed and exit")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench

    try:
        if args.record_digests:
            return bench.record_digests()
        if args.workload not in bench.WORKLOADS:
            parser.error(f"--workload must be one of {sorted(bench.WORKLOADS)}")
        return bench.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """Stop and reap the resource-tracker process that the shared-memory
    rings of sharded runs start.  Python lets it outlive its parent, which
    would leave it running (and then unreaped) after the benchmark exits."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
