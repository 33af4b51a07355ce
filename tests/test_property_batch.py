"""Property-based (Hypothesis) checks for the batch-round kernel.

Two laws, fuzzed over random scenario shapes:

1. **Degenerate window**: with ``batch_rounds=1`` the batch engine performs
   one sync per round, so it must equal the per-round object engine exactly
   — for any (n, rho, sigma, rounds, algorithm) the full results agree.

2. **Checkpoint interchange**: cutting a run at a random round (including
   rounds that land mid-batch-window), snapshotting, and resuming — in any
   engine pairing (batch→delta, delta→batch, batch→batch) — produces the
   same result as the uninterrupted run.
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import given, settings, strategies as st

from repro.adversary.generators import trickle_adversary
from repro.baselines.greedy import GreedyForwarding
from repro.checkpoint import load_checkpoint, restore_into
from repro.core.local import DownhillForwarding, LocalThresholdForwarding
from repro.core.packet import packet_id_scope
from repro.core.pts import PeakToSink
from repro.network.batch import BatchSimulator
from repro.network.simulator import Simulator
from repro.network.topology import LineTopology

ALGORITHMS = ("pts", "local", "downhill", "greedy")


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    rho = draw(
        st.floats(min_value=0.1, max_value=1.0, allow_nan=False, allow_infinity=False)
    )
    sigma = draw(st.integers(min_value=0, max_value=6))
    rounds = draw(st.integers(min_value=1, max_value=60))
    algorithm = draw(st.sampled_from(ALGORITHMS))
    locality = draw(st.integers(min_value=0, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return n, rho, float(sigma), rounds, algorithm, locality, seed


def _build(scenario, engine, *, batch_rounds=64):
    n, rho, sigma, rounds, algorithm, locality, seed = scenario
    topology = LineTopology(n)
    adversary = trickle_adversary(
        topology, rho, sigma, rounds, destination=n - 1, seed=seed
    )
    if algorithm == "pts":
        algo = PeakToSink(topology, destination=n - 1)
    elif algorithm == "local":
        algo = LocalThresholdForwarding(topology, locality, destination=n - 1)
    elif algorithm == "downhill":
        algo = DownhillForwarding(topology, destination=n - 1)
    else:
        algo = GreedyForwarding(topology)
    if engine == "delta":
        return Simulator(topology, algo, adversary)
    return BatchSimulator(topology, algo, adversary, batch_rounds=batch_rounds)


@settings(max_examples=40, deadline=None)
@given(scenario=scenarios())
def test_batch_window_of_one_equals_delta(scenario):
    with packet_id_scope():
        expected = _build(scenario, "delta").run()
    with packet_id_scope():
        actual = _build(scenario, "batch", batch_rounds=1).run()
    assert actual == expected


@settings(max_examples=40, deadline=None)
@given(
    scenario=scenarios(),
    batch_rounds=st.integers(min_value=1, max_value=16),
    cut_fraction=st.floats(min_value=0.0, max_value=1.0),
    pairing=st.sampled_from(
        (("batch", "delta"), ("delta", "batch"), ("batch", "batch"))
    ),
)
def test_checkpoint_resume_equals_straight_run(
    scenario, batch_rounds, cut_fraction, pairing
):
    rounds = scenario[3]
    cut = max(1, min(rounds, int(round(cut_fraction * rounds))))
    first, second = pairing

    with packet_id_scope():
        expected = _build(scenario, "delta").run(rounds)

    fd, path = tempfile.mkstemp(suffix=".ckpt")
    os.close(fd)
    try:
        with packet_id_scope():
            head = _build(scenario, first, batch_rounds=batch_rounds)
            head.run(cut, drain=False)
            head.save_checkpoint(path)
        checkpoint = load_checkpoint(path)
        with packet_id_scope():
            tail = _build(scenario, second, batch_rounds=batch_rounds)
            restore_into(tail, checkpoint)
            resumed = tail.run(rounds)
    finally:
        os.unlink(path)

    assert resumed == expected
