"""Property-based (Hypothesis) checks for the columnar boundary hand-off.

The shared-memory rings are a *transport*: the sequence of ingested
boundary blocks must be fully determined by the per-round boundary
protocol, never by ring timing or by how the rounds are grouped into
windows.  Each batch segment worker records every block it ingests in a
flat int64 trace (6 words per hand-off: round, packet id, source,
destination, injected round, arrival round), shipped back to the
coordinator as ``extras["handoff_traces"]``.

Fuzzed law: for random scenario shapes x random segmentations x random
window lengths — including horizons that tear the last window, drain
tails that stop mid-window and checkpoint cuts that clamp windows — the
per-segment traces are byte-identical to those of one-round windows (the
lockstep schedule), and every run produces the delta oracle's
:class:`SimulationResult`.
"""

from __future__ import annotations

import os

from hypothesis import given, settings, strategies as st

from repro.api import Scenario, Session
from repro.network.sharded import run_sharded

ALGORITHMS = ("pts", "pts_wc", "local", "downhill", "greedy")

#: Six little-endian int64 words per ingested hand-off block.
TRACE_WORDS = 6


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=4, max_value=20))
    shards = draw(st.integers(min_value=2, max_value=min(5, n)))
    batch_rounds = draw(st.integers(min_value=1, max_value=16))
    rho = draw(st.floats(min_value=0.3, max_value=1.0,
                         allow_nan=False, allow_infinity=False))
    sigma = draw(st.integers(min_value=0, max_value=5))
    rounds = draw(st.integers(min_value=1, max_value=48))
    algorithm = draw(st.sampled_from(ALGORITHMS))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return n, shards, batch_rounds, rho, float(sigma), rounds, algorithm, seed


def _build_spec(scenario):
    n, shards, batch_rounds, rho, sigma, rounds, algorithm, seed = scenario
    builder = Scenario.line(n)
    if algorithm == "pts":
        builder.algorithm("pts")
    elif algorithm == "pts_wc":
        builder.algorithm("pts", work_conserving=True)
    elif algorithm == "local":
        builder.algorithm("local", locality=2)
    elif algorithm == "downhill":
        builder.algorithm("downhill")
    else:
        builder.algorithm("greedy")
    builder.adversary("trickle", rho=rho, sigma=sigma, rounds=rounds)
    builder.policy(seed=seed, engine="batch", batch_rounds=batch_rounds)
    return builder.build()


def _traces(extras):
    traces = extras["handoff_traces"]
    assert all(trace is not None for trace in traces), (
        "batch workers must ship a hand-off trace"
    )
    return [trace.tolist() for trace in traces]


def _delta_oracle(spec):
    return Session().run(
        Scenario.from_spec(spec).policy(engine="delta").build()
    ).result


@settings(max_examples=10, deadline=None)
@given(scenario=scenarios())
def test_shm_ingested_blocks_independent_of_window_length(scenario):
    """The law: any window length ingests the same blocks as one-round
    windows, block for block and field for field, and both runs match the
    delta oracle."""
    n, shards, *_ = scenario
    spec = _build_spec(scenario)
    lockstep_spec = Scenario.from_spec(spec).policy(batch_rounds=1).build()

    result, extras = run_sharded(spec, shards=shards)
    lockstep_result, lockstep_extras = run_sharded(
        lockstep_spec, shards=shards
    )

    oracle = _delta_oracle(spec)
    assert result == oracle
    assert lockstep_result == oracle
    assert extras["engine"]["transport"] == "shm"

    traces = _traces(extras)
    assert traces == _traces(lockstep_extras)

    # Trace shape sanity: 6-word stride of (round, packet id, source,
    # destination, injected round, arrival round).  Hand-offs only flow
    # left-to-right, so segment 0 (no left neighbour) never ingests.
    rounds_executed = result.rounds_executed
    assert traces[0] == []
    for trace in traces:
        assert len(trace) % TRACE_WORDS == 0
        for base in range(0, len(trace), TRACE_WORDS):
            round_number, pid, src, dst, injected, arrival = (
                trace[base:base + TRACE_WORDS]
            )
            assert 0 <= round_number < rounds_executed
            assert pid >= 0
            assert 0 <= src < n
            assert 0 <= dst <= n
            assert 0 <= injected <= round_number
            assert 0 <= arrival <= round_number


@settings(max_examples=6, deadline=None)
@given(
    scenario=scenarios(),
    checkpoint_every=st.integers(min_value=1, max_value=12),
)
def test_checkpoint_cuts_tear_windows_identically(
    scenario, checkpoint_every, tmp_path_factory
):
    """Checkpoint cuts clamp windows mid-flight; the torn windows must
    ingest the same blocks as the uncut run, and the stitched cut must
    resume to the uninterrupted result."""
    n, shards, *_ = scenario
    directory = tmp_path_factory.mktemp("shm-handoff")
    base_spec = _build_spec(scenario)
    _uncut_result, uncut_extras = run_sharded(base_spec, shards=shards)

    def checkpointed(path, **policy):
        return Scenario.from_spec(base_spec).policy(
            checkpoint_every=checkpoint_every, checkpoint_path=path, **policy
        ).build()

    delta_path = str(directory / "delta.ckpt")
    uninterrupted = Session().run(
        checkpointed(delta_path, engine="delta")
    ).result

    shm_path = str(directory / "shm.ckpt")
    result, extras = run_sharded(checkpointed(shm_path), shards=shards)
    assert result == uninterrupted
    assert _traces(extras) == _traces(uncut_extras)
    # A degenerate horizon (no injections, zero rounds executed) writes no
    # cut on any engine; the sharded run must agree with the oracle on that.
    assert os.path.exists(shm_path) == os.path.exists(delta_path)
    if os.path.exists(shm_path):
        resumed = Session().resume(shm_path)
        assert resumed.result == uninterrupted
