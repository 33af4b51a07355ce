#!/usr/bin/env python3
"""Sharded execution: split one line across worker processes, identically.

The sharded engine (``docs/SHARDING.md``) partitions a line scenario into
contiguous segments, runs the batch kernel over each segment in its own
worker process, and hands at most one boundary packet per segment edge per
round to the right neighbour.  The batch kernel is the only segment engine,
so a sharded run asks for ``engine="auto"`` (or ``"batch"``).  The headline
property is *bit-identical results*: ``shards=k`` computes exactly what
``shards=1`` computes.  This example

1. runs a multi-destination streaming scenario single-process,
2. re-runs it with ``shards=2`` and ``shards=4`` — same spec, one policy
   field — and verifies every result is identical.

The same switch is available from the shell::

    python -m repro simulate --algorithm greedy --nodes 4096 \
        --rounds 1500 --seed 7 --shards 4 --engine auto

Run with::

    python examples/sharded_run.py
"""

from __future__ import annotations

from repro import Scenario, Session
from repro.network.sharded import plan_segments


def build_scenario(shards: int | None = None):
    """A streaming greedy run with enough traffic to keep rounds busy."""
    scenario = (
        Scenario.line(2048)
        .algorithm("greedy")
        .adversary(
            "trickle", rho=1.0, sigma=1.0, rounds=1200, stream=True,
            destinations=[512, 1024, 2047],
        )
        .policy(history="streaming", drain=False, seed=7, engine="auto")
        .named("sharded-demo")
    )
    if shards is not None:
        scenario.policy(shards=shards)
    return scenario.build()


def main() -> None:
    session = Session()

    print("=== 1. single-process reference ===")
    reference = session.run(build_scenario()).result
    print(f"    injected={reference.packets_injected} "
          f"delivered={reference.packets_delivered} "
          f"max_occupancy={reference.max_occupancy}")

    print("=== 2. the same scenario, sharded ===")
    for shards in (2, 4):
        segments = plan_segments(2048, shards)
        report = session.run(build_scenario(shards=shards))
        identical = report.result == reference
        print(f"    shards={shards}: segments={segments[:2]}... "
              f"identical={identical}")
        assert identical
    print("    sharded results are bit-identical to the single-process run")


if __name__ == "__main__":
    main()
