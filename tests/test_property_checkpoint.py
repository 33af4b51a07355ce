"""Property-based checkpoint tests: random cut points, double resume, and
restored index structures.

Hypothesis drives the checkpoint round (anywhere in ``[0, T]``), the seed and
the algorithm family; for every example:

* the resumed run's :class:`SimulationResult` is bit-identical to the
  uninterrupted run's (the differential property, at fuzzed cut points);
* *double resume* — save at ``k1``, restore, run on to ``k2``, save again,
  restore again — also lands on the identical result, and the second save of
  an untouched restored engine is **byte-identical** to the file it was
  loaded from (snapshot idempotence: restoring is lossless and the format is
  deterministic);
* the incremental :class:`~repro.core.indexset.BufferIndex` bad sets match
  a from-scratch recomputation over the buffers after random traffic, after
  empty-queue GC and after a restore, position for position and in sorted
  order.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario, ScenarioSpec, Session
from repro.checkpoint import load_checkpoint, restore_into, save_checkpoint
from repro.core.packet import packet_id_scope
from repro.network.simulator import Simulator

N = 16
ROUNDS = 30


def _spec(algorithm: str, seed: int, history: str) -> ScenarioSpec:
    scenario = Scenario.line(N)
    if algorithm == "hpts":
        scenario.algorithm("hpts", levels=2)
        scenario.adversary("bounded", rho=0.5, sigma=2.0, rounds=ROUNDS,
                           num_destinations=3)
    elif algorithm == "greedy":
        scenario.algorithm("greedy")
        scenario.adversary("bounded", rho=0.8, sigma=3.0, rounds=ROUNDS,
                           num_destinations=3)
    else:
        scenario.algorithm("ppts")
        scenario.adversary("bounded", rho=0.8, sigma=3.0, rounds=ROUNDS,
                           num_destinations=3)
    scenario.policy(history=history, seed=seed, engine="delta")
    return scenario.build()


def _build_simulator(session: Session, spec: ScenarioSpec) -> Simulator:
    prepared = session.prepare(spec)
    policy = spec.policy
    return Simulator(
        prepared.topology, prepared.algorithm, prepared.adversary,
        record_history=policy.record_history,
        record_occupancy_vectors=policy.record_occupancy_vectors,
        history=policy.history,
        validate_capacity=policy.validate_capacity,
    )


def _index_views(algorithm):
    """The live bad sets as ``{key: sorted positions}``."""
    return {key: list(positions) for key, positions in algorithm._index._bad.items()}


def _index_from_scratch(algorithm):
    """The same view, recomputed from the buffer contents alone."""
    threshold = algorithm._index.bad_threshold
    bad = {}
    for node, node_buffer in algorithm.buffers.items():
        for key in node_buffer.keys():
            if node_buffer.load_of(key) >= threshold:
                bad.setdefault(key, []).append(node)
    # Buffers iterate in node order, so the lists arrive sorted.
    return bad


@settings(max_examples=25, deadline=None)
@given(
    algorithm=st.sampled_from(["ppts", "hpts", "greedy"]),
    k=st.integers(min_value=0, max_value=ROUNDS),
    seed=st.integers(min_value=0, max_value=2**16),
    history=st.sampled_from(["summary", "streaming", "full"]),
)
def test_random_cut_points_resume_bit_identically(tmp_path_factory, algorithm,
                                                  k, seed, history):
    tmp_path = tmp_path_factory.mktemp("ckpt")
    path = str(tmp_path / "cut.ckpt")
    spec = _spec(algorithm, seed, history)
    full = Session().run(spec)
    session = Session()
    with packet_id_scope():
        simulator = _build_simulator(session, spec)
        horizon = simulator.adversary.horizon
        simulator.run(min(k, horizon), drain=False)
        save_checkpoint(simulator, path, spec=spec)
    resumed = Session().resume(path)
    assert resumed.result == full.result


@settings(max_examples=15, deadline=None)
@given(
    cuts=st.tuples(
        st.integers(min_value=0, max_value=ROUNDS),
        st.integers(min_value=0, max_value=ROUNDS),
    ).map(sorted),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_double_resume_is_idempotent(tmp_path_factory, cuts, seed):
    """save -> restore -> save -> restore: still the uninterrupted result,
    and an untouched restored engine re-saves byte-identically."""
    k1, k2 = cuts
    tmp_path = tmp_path_factory.mktemp("ckpt")
    first = str(tmp_path / "first.ckpt")
    echo = str(tmp_path / "echo.ckpt")
    second = str(tmp_path / "second.ckpt")
    spec = _spec("ppts", seed, "summary")
    full = Session().run(spec)

    session = Session()
    with packet_id_scope():
        simulator = _build_simulator(session, spec)
        horizon = simulator.adversary.horizon
        simulator.run(min(k1, horizon), drain=False)
        save_checkpoint(simulator, first, spec=spec)

    with packet_id_scope():
        restored = _build_simulator(Session(), spec)
        restore_into(restored, load_checkpoint(first))
        # Idempotence: nothing ran since the restore, so saving again must
        # reproduce the file bit for bit (deterministic format, lossless
        # restore).
        save_checkpoint(restored, echo, spec=spec)
        assert open(echo, "rb").read() == open(first, "rb").read()
        restored.run(min(k2, horizon), drain=False)
        save_checkpoint(restored, second, spec=spec)

    resumed_once = Session().resume(second)
    assert resumed_once.result == full.result
    # And resuming the *first* checkpoint still works after all of that.
    assert Session().resume(first).result == full.result


@settings(max_examples=15, deadline=None)
@given(
    algorithm=st.sampled_from(["ppts", "hpts", "greedy"]),
    k=st.integers(min_value=1, max_value=ROUNDS),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_restored_indexsets_match_from_scratch_rebuild(tmp_path_factory,
                                                       algorithm, k, seed):
    tmp_path = tmp_path_factory.mktemp("ckpt")
    path = str(tmp_path / "index.ckpt")
    spec = _spec(algorithm, seed, "summary")
    session = Session()
    with packet_id_scope():
        simulator = _build_simulator(session, spec)
        simulator.run(min(k, simulator.adversary.horizon), drain=False)
        live_views = _index_views(simulator.algorithm)
        assert live_views == _index_from_scratch(simulator.algorithm)
        save_checkpoint(simulator, path, spec=spec)
        # Empty-queue GC drops pseudo-buffers without notifications; the
        # derived structures must not notice.
        for node_buffer in simulator.algorithm.buffers.values():
            node_buffer.drop_empty()
        assert _index_views(simulator.algorithm) == live_views
    with packet_id_scope():
        restored = _build_simulator(Session(), spec)
        restore_into(restored, load_checkpoint(path))
        assert _index_views(restored.algorithm) == live_views
        assert _index_views(restored.algorithm) == _index_from_scratch(
            restored.algorithm
        )

