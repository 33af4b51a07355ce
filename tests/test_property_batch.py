"""Property-based (Hypothesis) checks for the batch-round kernel.

Three laws, fuzzed over random scenario shapes:

1. **Degenerate window**: with ``batch_rounds=1`` the batch engine advances
   one round per window, and it must equal the per-round object engine
   exactly — for any (n, rho, sigma, rounds, algorithm) the full results
   agree.

2. **Checkpoint interchange**: cutting a run at a random round (including
   rounds that land mid-batch-window), snapshotting, and resuming — in any
   engine pairing (batch→delta, delta→batch, batch→batch) — produces the
   same result as the uninterrupted run.

3. **Checkpoint bytes**: at a random injection-round cut, taken by
   ``save_checkpoint`` or by ``checkpoint_every``, the two engines write the
   same file, under every history mode.

All three laws cover every kernel kind, PPTS and HPTS included; HPTS lines are
``m ** ell`` long, and a deterministic companion cuts HPTS runs mid-phase,
with staged packets in flight, in every pairing.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.generators import trickle_adversary
from repro.baselines.greedy import GreedyForwarding
from repro.checkpoint import load_checkpoint, restore_into
from repro.core.hpts import HierarchicalPeakToSink
from repro.core.local import DownhillForwarding, LocalThresholdForwarding
from repro.core.packet import packet_id_scope
from repro.core.ppts import ParallelPeakToSink
from repro.core.pts import PeakToSink
from repro.network.batch import BatchSimulator
from repro.network.simulator import Simulator
from repro.network.topology import LineTopology

ALGORITHMS = ("pts", "local", "downhill", "greedy", "ppts", "hpts")
#: ``(n, ell)`` line shapes HPTS accepts (``n = m ** ell``).
HPTS_SHAPES = ((4, 2), (8, 3), (9, 2), (16, 2), (16, 4), (25, 2), (27, 3))


@st.composite
def scenarios(draw, algorithms=ALGORITHMS):
    n = draw(st.integers(min_value=2, max_value=24))
    rho = draw(
        st.floats(min_value=0.1, max_value=1.0, allow_nan=False, allow_infinity=False)
    )
    sigma = draw(st.integers(min_value=0, max_value=6))
    rounds = draw(st.integers(min_value=1, max_value=60))
    algorithm = draw(st.sampled_from(algorithms))
    # The locality knob doubles as HPTS's level count.
    locality = draw(st.integers(min_value=0, max_value=3))
    if algorithm == "hpts":
        n, locality = draw(st.sampled_from(HPTS_SHAPES))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return n, rho, float(sigma), rounds, algorithm, locality, seed


def _build(scenario, engine, *, batch_rounds=64, **history):
    n, rho, sigma, rounds, algorithm, locality, seed = scenario
    topology = LineTopology(n)
    if algorithm in ("ppts", "hpts"):
        adversary = trickle_adversary(
            topology, rho, sigma, rounds,
            destinations=sorted({n // 2, n - 1}), seed=seed,
        )
    else:
        adversary = trickle_adversary(
            topology, rho, sigma, rounds, destination=n - 1, seed=seed
        )
    if algorithm == "ppts":
        algo = ParallelPeakToSink(topology)
    elif algorithm == "hpts":
        algo = HierarchicalPeakToSink(topology, levels=locality)
    elif algorithm == "pts":
        algo = PeakToSink(topology, destination=n - 1)
    elif algorithm == "local":
        algo = LocalThresholdForwarding(topology, locality, destination=n - 1)
    elif algorithm == "downhill":
        algo = DownhillForwarding(topology, destination=n - 1)
    else:
        algo = GreedyForwarding(topology)
    if engine == "delta":
        return Simulator(topology, algo, adversary, **history)
    return BatchSimulator(
        topology, algo, adversary, batch_rounds=batch_rounds, **history
    )


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


def _hpts_scenario(n, levels):
    return n, 0.9, 3.0, 40, "hpts", levels, 11


@pytest.mark.parametrize(
    "pairing", (("batch", "delta"), ("delta", "batch"), ("batch", "batch"))
)
@pytest.mark.parametrize("n, levels, cut", ((16, 2, 21), (27, 3, 22), (27, 3, 23)))
def test_hpts_checkpoint_cut_mid_phase_with_staged_packets(n, levels, cut, pairing):
    """A cut off a phase boundary, with packets staged at the cut, resumes
    to the uninterrupted result in every engine pairing."""
    scenario = _hpts_scenario(n, levels)
    assert cut % levels
    first, second = pairing
    with packet_id_scope():
        expected = _build(scenario, "delta").run(scenario[3])

    fd, path = tempfile.mkstemp(suffix=".ckpt")
    os.close(fd)
    try:
        with packet_id_scope():
            head = _build(scenario, first, batch_rounds=4)
            head.run(cut, drain=False)
            assert head.algorithm.staged_count() > 0
            head.save_checkpoint(path)
        checkpoint = load_checkpoint(path)
        with packet_id_scope():
            tail = _build(scenario, second, batch_rounds=4)
            restore_into(tail, checkpoint)
            resumed = tail.run(scenario[3])
    finally:
        os.unlink(path)

    assert resumed == expected


HISTORY_MODES = {
    "summary": {},
    "full": {"record_history": True, "record_occupancy_vectors": True},
    "streaming": {"history": "streaming"},
}


@pytest.mark.parametrize("periodic", (False, True), ids=("save", "every"))
@pytest.mark.parametrize("history", sorted(HISTORY_MODES))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@settings(max_examples=8, deadline=None)
@given(
    data=st.data(),
    batch_rounds=st.integers(min_value=1, max_value=16),
    cut_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_checkpoint_bytes_do_not_depend_on_the_engine(
    algorithm, history, periodic, data, batch_rounds, cut_fraction
):
    """A checkpoint is a function of the configuration: cut at a random
    injection round — by ``run(cut, drain=False)`` and ``save_checkpoint``,
    or as the last file ``checkpoint_every=cut`` writes — the delta engine
    and the batch kernel write the same bytes."""
    scenario = data.draw(scenarios((algorithm,)))
    rounds = scenario[3]
    cut = min(rounds, int(round(cut_fraction * rounds)))
    blobs = {}
    with tempfile.TemporaryDirectory() as scratch:
        for engine in ("delta", "batch"):
            path = os.path.join(scratch, f"{engine}.ckpt")
            with packet_id_scope():
                simulator = _build(
                    scenario, engine, batch_rounds=batch_rounds,
                    **HISTORY_MODES[history],
                )
                if periodic:
                    simulator.run(
                        rounds, checkpoint_every=max(cut, 1), checkpoint_path=path
                    )
                else:
                    simulator.run(cut, drain=False)
                    simulator.save_checkpoint(path)
            with open(path, "rb") as handle:
                blobs[engine] = handle.read()
    assert blobs["batch"] == blobs["delta"]
