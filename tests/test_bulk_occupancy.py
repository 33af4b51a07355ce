"""Numpy-backed bulk occupancy snapshots (``record_occupancy_vectors`` runs).

``OccupancyTimeline`` grows a dense maxima vector fed by
``observe_bulk`` (one numpy ``maximum``), and ``ForwardingAlgorithm`` maintains a dense
occupancy mirror so the per-round fold is vectorized.  The contract is
bit-identical results: the dense paths must report exactly the maxima the
sparse dict paths report.
"""

from __future__ import annotations

import random

import numpy
import pytest

from repro.api import Scenario, Session
from repro.core.pts import PeakToSink
from repro.network.errors import ConfigurationError
from repro.network.events import OccupancyTimeline
from repro.network.simulator import Simulator
from repro.network.topology import LineTopology, TreeTopology


def _random_snapshots(num_nodes: int, rounds: int, seed: int):
    rng = random.Random(seed)
    for _ in range(rounds):
        yield (
            {node: rng.randrange(0, 6) for node in range(num_nodes)},
            rng.randrange(0, 4),
        )


def test_dense_and_sparse_timelines_agree_on_random_feeds():
    sparse = OccupancyTimeline()
    dense = OccupancyTimeline(dense_size=24)
    for snapshot, staged in _random_snapshots(24, 200, seed=11):
        sparse.observe(snapshot, staged)
        dense.observe(snapshot, staged)
    assert dense.max_occupancy == sparse.max_occupancy
    assert dense.max_staged == sparse.max_staged
    assert dense.per_node_maxima() == sparse.per_node_maxima()


def test_observe_bulk_matches_observe_with_numpy():
    sparse = OccupancyTimeline()
    dense = OccupancyTimeline(dense_size=24)
    for snapshot, staged in _random_snapshots(24, 200, seed=13):
        sparse.observe(snapshot, staged)
        loads = numpy.zeros(24, dtype=numpy.int64)
        for node, load in snapshot.items():
            loads[node] = load
        dense.observe_bulk(loads, staged)
    assert dense.max_occupancy == sparse.max_occupancy
    assert dense.per_node_maxima() == sparse.per_node_maxima()


def test_observe_bulk_requires_dense_mode():
    with pytest.raises(ValueError):
        OccupancyTimeline().observe_bulk([0, 1, 2])


def test_dense_mirror_tracks_buffer_mutations():
    topology = LineTopology(8)
    algorithm = PeakToSink(topology)
    algorithm.enable_dense_occupancy()
    from repro.core.packet import make_injection, Packet

    packets = [
        Packet.from_injection(make_injection(0, source, 7))
        for source in (2, 2, 5)
    ]
    algorithm.on_inject(0, packets)
    mirror = algorithm.occupancy_array()
    assert list(mirror) == [0, 0, 2, 0, 0, 1, 0, 0]
    assert {node: load for node, load in algorithm.occupancy_vector().items()
            if load} == {2: 2, 5: 1}


def test_dense_occupancy_requires_contiguous_nodes():
    tree = TreeTopology({0: None, 1: 0, 2: 0})
    from repro.core.tree import TreePeakToSink

    algorithm = TreePeakToSink(tree)
    with pytest.raises(ConfigurationError):
        algorithm.enable_dense_occupancy()


def test_occupancy_vector_run_results_unchanged_by_bulk_path():
    """An occupancy-vectors run (dense) must report exactly the same result
    as the same scenario observed through the sparse full-history path."""

    def build(record_vectors):
        scenario = (
            Scenario.line(24)
            .algorithm("ppts")
            .adversary("bounded", rho=0.9, sigma=3.0, rounds=40,
                       num_destinations=4)
            .policy(seed=19, record_history=True,
                    record_occupancy_vectors=record_vectors)
        )
        return scenario.build()

    with_vectors = Session().run(build(True)).result
    without_vectors = Session().run(build(False)).result
    assert with_vectors.max_occupancy == without_vectors.max_occupancy
    assert (
        with_vectors.max_occupancy_per_node
        == without_vectors.max_occupancy_per_node
    )
    assert with_vectors.max_staged == without_vectors.max_staged
    # The vector run additionally carries per-round occupancy dicts.
    assert with_vectors.history[0].occupancy is not None
    assert without_vectors.history[0].occupancy is None
    for dense_record, sparse_record in zip(
        with_vectors.history, without_vectors.history
    ):
        assert dense_record.max_occupancy == sparse_record.max_occupancy
        assert dense_record.forwarded == sparse_record.forwarded


def test_checkpoint_roundtrip_preserves_dense_timeline(tmp_path):
    """Saving and restoring an occupancy-vectors run keeps the dense maxima
    (checkpoint restore goes through load_maxima)."""
    from repro.checkpoint import load_checkpoint, restore_into
    from repro.core.packet import packet_id_scope

    spec = (
        Scenario.line(16)
        .algorithm("ppts")
        .adversary("bounded", rho=0.8, sigma=3.0, rounds=30,
                   num_destinations=3)
        .policy(seed=31, record_history=True, record_occupancy_vectors=True)
        .build()
    )
    full = Session().run(spec)
    path = str(tmp_path / "dense.ckpt")
    session = Session()
    with packet_id_scope():
        prepared = session.prepare(spec)
        simulator = Simulator(
            prepared.topology, prepared.algorithm, prepared.adversary,
            record_history=True, record_occupancy_vectors=True,
        )
        simulator.run(15, drain=False)
        simulator.save_checkpoint(path, spec=spec)
    resumed = Session().resume(path)
    assert resumed.result == full.result
