"""Property tests for the delta-driven engine's incremental bookkeeping.

Three layers of cached state must exactly track a from-scratch recount after
*any* mutation sequence:

* ``NodeBuffer.load`` (updated by ``store``/``take``),
* ``ForwardingAlgorithm``'s dirty-node set and ``total_stored`` counter,
* the sorted bad position sets (``repro.core.indexset``) the peak-to-sink
  algorithms start their selection from, and HPTS's grouping of the keys
  with a bad buffer by interval.

And the index-driven ``select_activations`` of every algorithm must produce
exactly the activation lists of the seed engine's linear scans on the same
configuration.  The scans live here, as the ``Scan*`` oracle subclasses
(:data:`SCAN_ORACLES`), which ``test_perf_equivalence`` also runs end to end.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Callable, Hashable, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.greedy import GreedyForwarding
from repro.core.hpts import HierarchicalPeakToSink
from repro.core.indexset import BufferIndex, SortedIndexSet
from repro.core.packet import Packet, make_injection, packet_id_scope
from repro.core.pseudobuffer import NodeBuffer, QueueDiscipline
from repro.core.pts import PeakToSink
from repro.core.ppts import ParallelPeakToSink
from repro.core.scheduler import Activation, ForwardingAlgorithm
from repro.core.tree import TreeParallelPeakToSink, TreePeakToSink
from repro.network.topology import (
    LineTopology,
    binary_tree,
    caterpillar_tree,
    random_tree,
    star_tree,
)


# ---------------------------------------------------------------------------
# SortedIndexSet
# ---------------------------------------------------------------------------


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 30)), max_size=200))
def test_sorted_index_set_matches_reference_set(operations):
    index = SortedIndexSet()
    reference: set = set()
    for add, value in operations:
        if add:
            index.add(value)
            reference.add(value)
        else:
            index.discard(value)
            reference.discard(value)
        assert list(index) == sorted(reference)
        assert len(index) == len(reference)
        for probe in (0, 7, 29):
            assert (probe in index) == (probe in reference)
    in_window = [v for v in sorted(reference) if 5 <= v <= 20]
    assert index.first_in(5, 20) == (in_window[0] if in_window else None)


@given(
    st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 3), st.integers(0, 4)),
        max_size=150,
    )
)
def test_buffer_index_matches_recount(length_changes):
    """Feed arbitrary length transitions; the bad sets must match a recount."""
    index = BufferIndex()
    lengths = {}
    for node, key, new_len in length_changes:
        old_len = lengths.get((node, key), 0)
        lengths[(node, key)] = new_len
        index.update(node, key, old_len, new_len)
    keys = {key for _, key in lengths}
    for key in keys:
        expected_bad = sorted(
            node for (node, k), length in lengths.items() if k == key and length >= 2
        )
        assert list(index.bad(key)) == expected_bad
    assert sorted(index.bad_keys()) == sorted(
        {key for (_, key), length in lengths.items() if length >= 2}
    )


# ---------------------------------------------------------------------------
# NodeBuffer cached counters
# ---------------------------------------------------------------------------


def _random_node_buffer_ops(seed: int, rounds: int = 300) -> NodeBuffer:
    rng = random.Random(seed)
    buffer = NodeBuffer(node=0)
    stored: List[tuple] = []  # (key, packet)
    with packet_id_scope():
        for _ in range(rounds):
            action = rng.random()
            key = rng.randrange(4)
            if action < 0.5 or not stored:
                packet = Packet.from_injection(make_injection(0, 0, 5))
                buffer.store(packet, key)
                stored.append((key, packet))
            elif action < 0.8:
                keys = [k for k, _ in stored]
                key = rng.choice(keys)
                popped = buffer.take(key)
                stored.remove((key, popped))
            else:
                key, packet = stored.pop(rng.randrange(len(stored)))
                buffer.take(key, packet)
            if rng.random() < 0.05:
                buffer.drop_empty()
            assert buffer.load == buffer.recount_load()
    return buffer


@pytest.mark.parametrize("seed", range(5))
def test_node_buffer_cached_counters_track_recount(seed):
    buffer = _random_node_buffer_ops(seed)
    assert buffer.load == buffer.recount_load()
    assert buffer.total_bad == sum(
        max(len(pseudo) - 1, 0) for pseudo in buffer.pseudo_buffers()
    )


# ---------------------------------------------------------------------------
# Algorithm-level occupancy delta
# ---------------------------------------------------------------------------


class _SingleQueue(ForwardingAlgorithm):
    name = "single-queue"

    def classify(self, packet: Packet, node: int) -> Hashable:
        return "q"

    def select_activations(self, round_number: int) -> List[Activation]:
        return []


@pytest.mark.parametrize("seed", range(3))
def test_occupancy_delta_matches_full_snapshots(seed):
    rng = random.Random(seed)
    line = LineTopology(12)
    algorithm = _SingleQueue(line)
    shadow = {node: 0 for node in line.nodes}  # folded from deltas only
    with packet_id_scope():
        for round_number in range(120):
            for _ in range(rng.randrange(3)):
                source = rng.randrange(11)
                packet = Packet.from_injection(make_injection(round_number, source, 11))
                algorithm.on_inject(round_number, [packet])
            # Pop from a random nonempty node now and then.
            nonempty = [n for n, load in algorithm.occupancy_vector().items() if load]
            if nonempty and rng.random() < 0.7:
                node = rng.choice(nonempty)
                algorithm.buffers[node].take("q")
            delta = algorithm.occupancy_delta()
            shadow.update(delta)
            assert shadow == algorithm.occupancy_vector()
            assert algorithm.total_stored() == sum(shadow.values())
            assert algorithm.occupancy_delta() == {}  # dirty set was consumed


# ---------------------------------------------------------------------------
# Scan oracles: the seed engine's linear-scan selection
# ---------------------------------------------------------------------------


def _first_bad(algorithm, key, start: int, last: int) -> Optional[int]:
    """The left-most position in ``[start, last]`` whose ``key`` queue is bad."""
    return next(
        (i for i in range(start, last + 1) if algorithm.buffers[i].load_of(key) >= 2),
        None,
    )


class ScanPeakToSink(PeakToSink):
    """PTS selecting by an O(n) scan of the buffers instead of the index."""

    def select_activations(self, round_number: int) -> List[Activation]:
        w = self.destination
        last = min(w - 1, self.topology.num_nodes - 1)
        start = _first_bad(self, w, 0, last)
        if start is None:
            if not self.work_conserving:
                return []
            start = 0
        return [
            Activation(node=i, key=w)
            for i in range(start, last + 1)
            if self.buffers[i].load_of(w) > 0
        ]


class ScanParallelPeakToSink(ParallelPeakToSink):
    """PPTS selecting by an O(n * d) scan of the buffers."""

    def select_activations(self, round_number: int) -> List[Activation]:
        destinations = self.destinations()
        activations: List[Activation] = []
        frontier = max([self.topology.num_nodes, *destinations])
        for w in reversed(destinations):
            last = min(frontier - 1, w - 1, self.topology.num_nodes - 1)
            bad = _first_bad(self, w, 0, last)
            if bad is None:
                continue
            activations.extend(
                Activation(node=i, key=w)
                for i in range(bad, last + 1)
                if self.buffers[i].load_of(w) > 0
            )
            frontier = bad
        return activations


class ScanHierarchicalPeakToSink(HierarchicalPeakToSink):
    """HPTS finding occupied intervals and bad buffers by interval scans."""

    def _occupied_intervals(self, level: int):
        occupied = []
        for rank, (start, end) in enumerate(self.partition.level_partition(level)):
            destinations = sorted(
                {
                    key[1]
                    for i in range(start, end + 1)
                    for key in self.buffers[i].nonempty_keys()
                    if key[0] == level
                }
            )
            if destinations:
                occupied.append((rank, destinations))
        return occupied

    def _leftmost_bad(self, key, start: int, last: int) -> Optional[int]:
        return _first_bad(self, key, start, last)


class ScanGreedyForwarding(GreedyForwarding):
    """Greedy reading every node's queue, not the node's cached load."""

    def select_activations(self, round_number: int) -> List[Activation]:
        activations: List[Activation] = []
        for node, node_buffer in self.buffers.items():
            pseudo = node_buffer.existing("queue")
            if not pseudo:
                continue
            chosen = min(
                pseudo.packets(),
                key=lambda packet: self.policy(
                    packet, self._arrival_round.get(packet.packet_id, 0)
                ),
            )
            activations.append(Activation(node=node, key="queue", packet=chosen))
        return activations


def _activate_paths(algorithm, bad_nodes, w, activated, activations) -> None:
    """Activate every nonempty ``w`` queue on the paths from ``bad_nodes`` to ``w``."""
    for bad in bad_nodes:
        for node in algorithm.tree.path(bad, w)[:-1]:
            if node in activated:
                continue
            activated.add(node)
            if algorithm.buffers[node].load_of(w) > 0:
                activations.append(Activation(node=node, key=w))


class ScanTreePeakToSink(TreePeakToSink):
    """Tree PTS finding bad buffers by a full-network scan."""

    def select_activations(self, round_number: int) -> List[Activation]:
        w = self.destination
        bad_nodes = [
            node
            for node, node_buffer in self.buffers.items()
            if node_buffer.load >= 2 and node != w
        ]
        activations: List[Activation] = []
        _activate_paths(self, bad_nodes, w, set(), activations)
        return activations


def _definition_antichain(tree, bad_nodes) -> List[int]:
    """``min(B)`` by its definition: the bad nodes with no other bad node
    strictly below them, in the order given."""
    return [
        candidate
        for candidate in bad_nodes
        if not any(
            other != candidate and tree.is_upstream(other, candidate)
            for other in bad_nodes
        )
    ]


class ScanTreeParallelPeakToSink(TreeParallelPeakToSink):
    """Tree PPTS finding each destination's bad buffers by a full-network
    scan, its antichain by the definition and its paths by ``tree.path``."""

    def select_activations(self, round_number: int) -> List[Activation]:
        activations: List[Activation] = []
        activated: set = set()
        for w in reversed(self.destinations()):
            bad_nodes = [
                node
                for node, node_buffer in self.buffers.items()
                if node != w
                and node_buffer.load_of(w) >= 2
                and self.tree.is_upstream(node, w)
            ]
            if bad_nodes:
                _activate_paths(
                    self, _definition_antichain(self.tree, bad_nodes), w,
                    activated, activations,
                )
        return activations


#: Production algorithm class -> its scan oracle.
SCAN_ORACLES = {
    oracle.__mro__[1]: oracle
    for oracle in (
        ScanPeakToSink,
        ScanParallelPeakToSink,
        ScanHierarchicalPeakToSink,
        ScanGreedyForwarding,
        ScanTreePeakToSink,
        ScanTreeParallelPeakToSink,
    )
}


@contextmanager
def as_scan_oracle(algorithm: ForwardingAlgorithm):
    """Run this one instance as its scan oracle for the block's duration.

    The oracles add no state, so rebinding the instance's class swaps only
    the selection path; the indices stay maintained either way.
    """
    production = type(algorithm)
    algorithm.__class__ = SCAN_ORACLES[production]
    try:
        yield algorithm
    finally:
        algorithm.__class__ = production


# ---------------------------------------------------------------------------
# Incremental selection == seed scan selection
# ---------------------------------------------------------------------------


def _drive_and_compare(
    algorithm,
    inject,
    rounds: int,
    seed: int,
    check: Optional[Callable[[ForwardingAlgorithm], None]] = None,
) -> None:
    """Run random inject/forward traffic; compare both selection paths.

    ``check`` runs on the algorithm after every round's forwarding step.
    """
    rng = random.Random(seed)
    with packet_id_scope():
        for round_number in range(rounds):
            inject(rng, algorithm, round_number)
            incremental = algorithm.select_activations(round_number)
            with as_scan_oracle(algorithm):
                scan = algorithm.select_activations(round_number)
            assert incremental == scan, f"round {round_number}: {incremental} != {scan}"
            # Apply the activations the way the simulator would (pop all,
            # then re-store at next hops) so later rounds see evolving state.
            moves = []
            for activation in incremental:
                node_buffer = algorithm.buffers[activation.node]
                if not node_buffer.load_of(activation.key):
                    continue
                packet = node_buffer.take(activation.key, activation.packet)
                next_hop = algorithm.topology.next_hop(activation.node)
                moves.append((packet, next_hop))
            for packet, next_hop in moves:
                packet.advance(next_hop)
                if next_hop != packet.destination:
                    algorithm.on_arrival(packet, next_hop, round_number)
            algorithm.on_round_end(round_number)
            if check is not None:
                check(algorithm)


def _line_injector(destinations):
    def inject(rng, algorithm, round_number):
        for _ in range(rng.randrange(3)):
            destination = rng.choice(destinations)
            source = rng.randrange(destination)
            packet = Packet.from_injection(
                make_injection(round_number, source, destination)
            )
            algorithm.on_inject(round_number, [packet])

    return inject


@pytest.mark.parametrize("seed", range(4))
def test_pts_incremental_selection_equals_scan(seed):
    line = LineTopology(24)
    algorithm = PeakToSink(line)
    _drive_and_compare(algorithm, _line_injector([23]), rounds=150, seed=seed)


@pytest.mark.parametrize("seed", range(4))
def test_ppts_incremental_selection_equals_scan(seed):
    line = LineTopology(24)
    algorithm = ParallelPeakToSink(line)
    _drive_and_compare(algorithm, _line_injector([6, 13, 23]), rounds=150, seed=seed)


@pytest.mark.parametrize("seed", range(4))
def test_greedy_incremental_selection_equals_scan(seed):
    line = LineTopology(24)
    algorithm = GreedyForwarding(line)
    _drive_and_compare(algorithm, _line_injector([6, 13, 23]), rounds=150, seed=seed)


def _tree_injector(tree, destinations):
    def inject(rng, algorithm, round_number):
        for _ in range(rng.randrange(3)):
            destination = rng.choice(destinations)
            candidates = [
                node
                for node in tree.nodes
                if node != destination and tree.is_upstream(node, destination)
            ]
            if not candidates:
                continue
            source = rng.choice(candidates)
            packet = Packet.from_injection(
                make_injection(round_number, source, destination)
            )
            algorithm.on_inject(round_number, [packet])

    return inject


#: Tree families for the scan-oracle comparisons: deep and shallow, narrow
#: and wide, with several possible destinations on most of them.
TREES = {
    "random": lambda seed: random_tree(30, seed=seed),
    "caterpillar": lambda seed: caterpillar_tree(8, 2),
    "star": lambda seed: star_tree(12),
    "binary": lambda seed: binary_tree(4),
}
DISCIPLINES = [QueueDiscipline.LIFO, QueueDiscipline.FIFO]


def _tree_destinations(tree, seed: int) -> List[int]:
    """Up to five nodes that have a strict descendant, the root among them."""
    interior = [node for node in tree.nodes if tree.children(node)]
    others = [node for node in interior if node != tree.root]
    rng = random.Random(seed)
    return [tree.root] + rng.sample(others, min(4, len(others)))


@pytest.mark.parametrize("discipline", DISCIPLINES, ids=lambda d: d.value)
@pytest.mark.parametrize("family", sorted(TREES))
@pytest.mark.parametrize("seed", range(2))
def test_tree_pts_incremental_selection_equals_scan(seed, family, discipline):
    tree = TREES[family](seed)
    algorithm = TreePeakToSink(tree, discipline=discipline)
    _drive_and_compare(algorithm, _tree_injector(tree, [tree.root]), rounds=120, seed=seed)


@pytest.mark.parametrize("declared", [False, True], ids=["discovered", "declared"])
@pytest.mark.parametrize("discipline", DISCIPLINES, ids=lambda d: d.value)
@pytest.mark.parametrize("family", sorted(TREES))
@pytest.mark.parametrize("seed", range(3))
def test_tree_ppts_incremental_selection_equals_scan(seed, family, discipline, declared):
    tree = TREES[family](seed)
    destinations = _tree_destinations(tree, seed)
    algorithm = TreeParallelPeakToSink(
        tree, destinations if declared else None, discipline=discipline
    )
    _drive_and_compare(
        algorithm, _tree_injector(tree, destinations), rounds=160, seed=seed
    )


def test_tree_ppts_restore_replaces_the_cached_destination_order():
    """A restored destination set is what the next selection walks, not the
    order cached before the restore."""
    tree = caterpillar_tree(6, 1)  # spine 5 -> 4 -> ... -> 0; leaf 11 hangs off 5
    algorithm = TreeParallelPeakToSink(tree)
    leaf, spine_top, spine_mid = 11, 0, 3
    with packet_id_scope():
        for _ in range(2):
            algorithm.on_inject(0, [Packet.from_injection(make_injection(0, leaf, spine_top))])
        assert algorithm.select_activations(0)
        algorithm.restore_checkpoint_state({"observed": [spine_mid]}, {})
        assert algorithm.destinations() == [spine_mid]
        # The two root-bound packets are no longer in the destination set.
        assert algorithm.select_activations(1) == []
        for _ in range(2):
            algorithm.on_inject(1, [Packet.from_injection(make_injection(1, leaf, spine_mid))])
        assert [a.key for a in algorithm.select_activations(2)] == [spine_mid]


def _check_bad_key_grouping(algorithm) -> None:
    """HPTS groups exactly the keys with a bad buffer: the scan oracle's
    grouping by nonempty buffers, less the destinations with none bad."""
    last = algorithm.topology.num_nodes - 1
    for level in range(algorithm.levels):
        grouping = algorithm._occupied_intervals(level)
        with as_scan_oracle(algorithm):
            by_nonempty = algorithm._occupied_intervals(level)
        expected = []
        for rank, destinations in by_nonempty:
            bad = [
                w
                for w in destinations
                if _first_bad(algorithm, (level, w), 0, last) is not None
            ]
            if bad:
                expected.append((rank, bad))
        assert grouping == expected


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("levels, branching", [(2, 5), (3, 3)])
def test_hpts_incremental_selection_equals_scan(seed, levels, branching):
    line = LineTopology(branching**levels)
    algorithm = HierarchicalPeakToSink(line, levels, branching)
    _drive_and_compare(
        algorithm,
        # Every destination, the virtual sink n included.
        _line_injector(list(range(1, line.num_nodes + 1))),
        rounds=150,
        seed=seed,
        check=_check_bad_key_grouping,
    )
