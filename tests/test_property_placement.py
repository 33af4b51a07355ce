"""``ForwardingAlgorithm.place_buffers`` against the store replay it replaces.

The batch kernel's sync and checkpoint restore set every node's
pseudo-buffers from ``(node, key, packets in queue order)`` in one bulk
placement.  Its oracle is the per-move path kept here: empty every queue
packet by packet, drop the empty pseudo-buffers, then store each packet in
turn, one listener call each.  From random starting buffers and random
placements, over PTS, PPTS, HPTS (tuple keys), local with a bad threshold of
3 and greedy, in LIFO and FIFO, both must leave the same per-node loads, key
order and queues, the same stored total, dirty-node set and bad positions.

The batch case syncs twice on one kernel, the second time after the kernel
emptied a key the first sync placed: the second placement must leave no
stale queue and no stale bad position.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary.generators import random_line_adversary
from repro.baselines.greedy import GreedyForwarding
from repro.core.hpts import HierarchicalPeakToSink
from repro.core.local import LocalThresholdForwarding
from repro.core.packet import Packet, make_injection, packet_id_scope
from repro.core.ppts import ParallelPeakToSink
from repro.core.pseudobuffer import QueueDiscipline
from repro.core.pts import PeakToSink
from repro.network.batch import BatchSimulator
from repro.network.simulator import Simulator
from repro.network.topology import LineTopology

N = 16
KINDS = ("pts", "ppts", "hpts", "local", "greedy")


def _algorithm(kind, discipline):
    topology = LineTopology(N, allow_virtual_sink=kind != "local")
    if kind == "pts":
        return PeakToSink(topology, destination=N, discipline=discipline)
    if kind == "ppts":
        return ParallelPeakToSink(topology, discipline=discipline)
    if kind == "hpts":
        return HierarchicalPeakToSink(topology, levels=2, discipline=discipline)
    if kind == "local":
        return LocalThresholdForwarding(
            topology, 2, destination=N - 1, threshold=3, discipline=discipline
        )
    return GreedyForwarding(topology, discipline=discipline)


def _nodes(kind):
    """The nodes a packet may sit at (local's destination is node N - 1)."""
    return range(N - 1) if kind == "local" else range(N)


def _random_queue(rng, algorithm, kind, node, size):
    """``size`` packets at ``node`` for one destination, and their key."""
    if kind == "pts":
        destination = N
    elif kind == "local":
        destination = N - 1
    else:
        destination = rng.randint(node + 1, N)
    packets = [
        Packet.from_injection(make_injection(0, node, destination))
        for _ in range(size)
    ]
    probe = Packet.from_injection(make_injection(0, node, destination))
    return algorithm.classify(probe, node), packets


def _random_placements(rng, algorithm, kind):
    """Random ``(node, key, packets)`` triples in a random order, some with
    no packet (an emptied pseudo-buffer in an old checkpoint) and some
    naming a ``(node, key)`` again."""
    placements = []
    for _ in range(rng.randrange(1, 2 * N)):
        node = rng.choice(_nodes(kind))
        size = rng.choice((0, 1, 1, 2, 3, 5))
        key, packets = _random_queue(rng, algorithm, kind, node, size)
        placements.append((node, key, packets))
    if rng.random() < 0.5:
        node, key, packets = rng.choice(placements)
        extra = [
            Packet.from_injection(make_injection(0, node, packet.destination))
            for packet in packets[:2]
        ]
        placements.append((node, key, extra))
    rng.shuffle(placements)
    return placements


def _fill(rng, algorithm, kind):
    """Random starting buffers, a partly consumed dirty set and some empty
    pseudo-buffers left behind."""
    for _ in range(rng.randrange(3 * N)):
        node = rng.choice(_nodes(kind))
        key, packets = _random_queue(rng, algorithm, kind, node, 1)
        algorithm.buffers[node].store(packets[0], key)
    if rng.random() < 0.5:
        algorithm.occupancy_delta()
    for node in rng.sample(list(_nodes(kind)), 4):
        buffer = algorithm.buffers[node]
        for key in buffer.keys():
            while buffer.take(key) is not None:
                pass


def _replay(algorithm, placements):
    """The per-move oracle: take every packet, drop the emptied queues,
    then store each placed packet in turn."""
    for buffer in algorithm.buffers.values():
        keys = buffer.keys()
        for key in keys:
            while buffer.take(key) is not None:
                pass
        if keys:
            buffer.drop_empty()
    for node, key, packets in placements:
        for packet in packets:
            algorithm.buffers[node].store(packet, key)


def _state(algorithm):
    index = algorithm._index
    return {
        "buffers": {
            node: (
                buffer.load,
                buffer.keys(),
                [
                    [packet.packet_id for packet in pseudo.packets()]
                    for pseudo in buffer.pseudo_buffers()
                ],
            )
            for node, buffer in algorithm.buffers.items()
        },
        "total": algorithm.total_stored(),
        "dirty": set(algorithm._changes.dirty),
        "bad": {key: list(index.bad(key)) for key in index.bad_keys()},
    }


def _bad_from_scratch(algorithm):
    threshold = algorithm._index.bad_threshold
    bad = {}
    for node, buffer in algorithm.buffers.items():
        for pseudo in buffer.pseudo_buffers():
            if len(pseudo) >= threshold:
                bad.setdefault(pseudo.key, []).append(node)
    return bad


def _setup(kind, discipline, seed):
    """One algorithm with random buffers and a random placement over it."""
    rng = random.Random(seed)
    with packet_id_scope():
        algorithm = _algorithm(kind, discipline)
        _fill(rng, algorithm, kind)
        placements = _random_placements(rng, algorithm, kind)
    return algorithm, placements


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("discipline", list(QueueDiscipline))
@pytest.mark.parametrize("kind", KINDS)
def test_placement_equals_store_replay(kind, discipline, seed):
    placed, placements = _setup(kind, discipline, seed)
    replayed, replay_placements = _setup(kind, discipline, seed)
    assert _state(placed) == _state(replayed)
    placed.place_buffers(placements)
    _replay(replayed, replay_placements)
    state = _state(placed)
    assert state == _state(replayed)
    assert state["bad"] == _bad_from_scratch(placed)
    assert state["total"] == sum(b.recount_load() for b in placed.buffers.values())
    for buffer in placed.buffers.values():
        assert all(pseudo for pseudo in buffer.pseudo_buffers())


def test_placement_of_nothing_empties_every_buffer():
    algorithm, _ = _setup("ppts", QueueDiscipline.LIFO, 3)
    held = {node for node, load in algorithm.occupancy_vector().items() if load}
    assert held
    algorithm.place_buffers([])
    assert algorithm.total_stored() == 0
    assert algorithm._index.bad_keys() == []
    assert held <= algorithm._changes.dirty
    assert all(buffer.keys() == [] for buffer in algorithm.buffers.values())


# ---------------------------------------------------------------------------
# Two syncs of one batch kernel
# ---------------------------------------------------------------------------

ROUNDS = 60
#: Sync points of the batch case: between them the kernel empties a key the
#: first sync placed and clears a bad position it had.
FIRST, SECOND = 12, 17


def _ppts_run(engine):
    topology = LineTopology(N, allow_virtual_sink=True)
    adversary = random_line_adversary(topology, 1.0, 4.0, ROUNDS, 3, seed=11)
    return engine(topology, ParallelPeakToSink(topology), adversary)


def _bad_pairs(algorithm):
    return {
        (key, node)
        for key, nodes in _bad_from_scratch(algorithm).items()
        for node in nodes
    }


def _layout(algorithm):
    return {
        node: {
            key: [packet.packet_id for packet in buffer.existing(key).packets()]
            for key in buffer.nonempty_keys()
        }
        for node, buffer in algorithm.buffers.items()
    }


def test_second_sync_leaves_no_stale_queue_or_bad_position():
    with packet_id_scope():
        batch = _ppts_run(BatchSimulator)
        batch.run(FIRST, drain=False)
        algorithm = batch.algorithm
        placed = {
            (node, key)
            for node, buffer in algorithm.buffers.items()
            for key in buffer.keys()
        }
        bad_before = _bad_pairs(algorithm)
        batch.run(SECOND, drain=False)
    with packet_id_scope():
        delta = _ppts_run(Simulator)
        delta.run(SECOND, drain=False)
    emptied = placed - {
        (node, key)
        for node, buffer in algorithm.buffers.items()
        for key in buffer.nonempty_keys()
    }
    assert emptied and bad_before - _bad_pairs(algorithm)
    for buffer in algorithm.buffers.values():
        assert all(pseudo for pseudo in buffer.pseudo_buffers())
    for node, key in emptied:
        assert algorithm.buffers[node].existing(key) is None
    assert _layout(algorithm) == _layout(delta.algorithm)
    index = algorithm._index
    assert {key: list(index.bad(key)) for key in index.bad_keys()} == (
        _bad_from_scratch(algorithm)
    )
    assert _bad_pairs(algorithm) == _bad_pairs(delta.algorithm)
    assert algorithm.total_stored() == delta.algorithm.total_stored()
