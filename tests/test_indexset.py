"""Edge-case tests for repro.core.indexset and its GC interaction.

Covers the satellite checklist of the memory-lean engine PR: remove-absent /
duplicate-add idempotence, left-most-bad queries after interleaved
garbage-collection, and ``NodeBuffer.drop_empty`` running against the
incremental selection indices.
"""

from __future__ import annotations

import random

import pytest

from repro.core.indexset import BufferIndex, SortedIndexSet
from repro.core.packet import Packet, make_injection, packet_id_scope
from repro.core.ppts import ParallelPeakToSink
from repro.core.pseudobuffer import NodeBuffer
from repro.adversary.generators import random_line_adversary
from repro.network.simulator import Simulator
from repro.network.topology import LineTopology


class TestSortedIndexSet:
    def test_remove_absent_is_a_noop(self):
        index_set = SortedIndexSet()
        index_set.discard(5)
        assert len(index_set) == 0
        index_set.add(3)
        index_set.discard(5)
        assert list(index_set) == [3]

    def test_duplicate_add_is_idempotent(self):
        index_set = SortedIndexSet()
        index_set.add(7)
        index_set.add(7)
        index_set.add(7)
        assert len(index_set) == 1
        index_set.discard(7)
        assert len(index_set) == 0
        assert 7 not in index_set

    def test_interleaved_adds_and_discards_keep_sorted_order(self):
        index_set = SortedIndexSet()
        rng = random.Random(3)
        reference = set()
        for _ in range(500):
            value = rng.randrange(40)
            if rng.random() < 0.5:
                index_set.add(value)
                reference.add(value)
            else:
                index_set.discard(value)
                reference.discard(value)
        assert list(index_set) == sorted(reference)

    def test_first_and_range_queries_on_empty_set(self):
        index_set = SortedIndexSet()
        assert index_set.first_in(0, 100) is None
        assert list(index_set) == []

    def test_first_in_respects_both_bounds(self):
        index_set = SortedIndexSet()
        for value in (2, 5, 9):
            index_set.add(value)
        assert index_set.first_in(0, 1) is None
        assert index_set.first_in(3, 4) is None
        assert index_set.first_in(3, 5) == 5
        assert index_set.first_in(9, 9) == 9
        assert index_set.first_in(10, 20) is None


class TestBufferIndex:
    def test_update_for_never_seen_key_going_empty_is_a_noop(self):
        index = BufferIndex()
        # A pseudo-buffer that was already empty "changes" 0 -> 0, and a
        # never-bad one drops from 1 to 0: no entry may materialise.
        index.update(node=4, key="w", old_len=0, new_len=0)
        index.update(node=4, key="w", old_len=1, new_len=0)
        assert not index.bad("w")
        assert index.bad_keys() == []

    def test_threshold_crossings_in_both_directions(self):
        index = BufferIndex()
        index.update(0, "w", 0, 1)
        assert not index.bad("w")
        index.update(0, "w", 1, 2)
        assert list(index.bad("w")) == [0]
        assert index.bad_keys() == ["w"]
        index.update(0, "w", 2, 3)
        assert list(index.bad("w")) == [0]
        index.update(0, "w", 3, 2)
        assert list(index.bad("w")) == [0]
        index.update(0, "w", 2, 1)
        assert not index.bad("w")
        # The key's last bad position went, so the key goes too.
        assert index.bad_keys() == []

    def test_jump_across_both_thresholds_at_once(self):
        # HPTS phase acceptance can push an empty queue straight to k >= 2.
        index = BufferIndex()
        index.update(3, "w", 0, 4)
        assert list(index.bad("w")) == [3]
        index.update(5, "w", 0, 2)
        assert list(index.bad("w")) == [3, 5]
        index.update(3, "w", 4, 0)
        assert list(index.bad("w")) == [5]
        index.update(5, "w", 2, 0)
        assert not index.bad("w")
        assert index.bad_keys() == []

    def test_leftmost_bad_after_interleaved_gc(self):
        """drop_empty on a NodeBuffer must leave the owning index exact."""
        events = []
        node = NodeBuffer(0, on_change=lambda *a: events.append(a))
        index = BufferIndex()
        wired = NodeBuffer(
            1, on_change=lambda n, k, old, new: index.update(n, k, old, new)
        )
        with packet_id_scope():
            first = Packet.from_injection(make_injection(0, 1, 9))
            second = Packet.from_injection(make_injection(0, 1, 9))
            wired.store(first, 9)
            wired.store(second, 9)
            assert index.leftmost_bad(9, 0, 8) == 1
            wired.take(9)
            wired.take(9)
            # The queue is empty (not bad) but still allocated.
            assert index.leftmost_bad(9, 0, 8) is None
            wired.drop_empty()
            assert wired.existing(9) is None
            # Re-materialising the queue after GC must re-wire notifications.
            third = Packet.from_injection(make_injection(1, 1, 9))
            fourth = Packet.from_injection(make_injection(1, 1, 9))
            wired.store(third, 9)
            wired.store(fourth, 9)
            assert index.leftmost_bad(9, 0, 8) == 1
        assert not events  # the unwired buffer saw no traffic

    def test_custom_bad_threshold(self):
        index = BufferIndex(bad_threshold=3)
        index.update(2, "w", 0, 2)
        assert not index.bad("w")
        index.update(2, "w", 2, 3)
        assert list(index.bad("w")) == [2]


class TestDropEmptyWithIncrementalSelection:
    def test_aggressive_gc_does_not_change_results(self):
        """Forcing drop_empty every round must be invisible to PPTS."""
        line = LineTopology(32)
        with packet_id_scope():
            pattern = random_line_adversary(
                line, 0.9, 3.0, 120, num_destinations=5, seed=13
            )
            reference = Simulator(line, ParallelPeakToSink(line), pattern).run()
        with packet_id_scope():
            pattern = random_line_adversary(
                line, 0.9, 3.0, 120, num_destinations=5, seed=13
            )
            algorithm = ParallelPeakToSink(line)
            algorithm._gc_interval = 1  # drop empty queues after every round
            aggressive = Simulator(line, algorithm, pattern).run()
        assert reference.max_occupancy == aggressive.max_occupancy
        assert reference.max_occupancy_per_node == aggressive.max_occupancy_per_node
        assert reference.packets_delivered == aggressive.packets_delivered
        assert reference.mean_latency == aggressive.mean_latency
        assert reference.rounds_executed == aggressive.rounds_executed

    def test_gc_then_incremental_selection_still_finds_bad_buffers(self):
        line = LineTopology(16)
        algorithm = ParallelPeakToSink(line)
        with packet_id_scope():
            packets = [
                Packet.from_injection(make_injection(0, 2, 9)) for _ in range(2)
            ]
            algorithm.on_inject(0, packets)
            # Empty, stale queues at other nodes, then GC them away.
            algorithm.buffers[5].pseudo_buffer(9)
            algorithm.buffers[7].pseudo_buffer(9)
            for buffer in algorithm.buffers.values():
                buffer.drop_empty()
            activations = algorithm.select_activations(0)
        assert [a.node for a in activations] == [2]
        assert all(a.key == 9 for a in activations)


class TestNodeBufferCounters:
    def test_load_and_bad_counters_survive_gc_churn(self):
        node = NodeBuffer(0)
        with packet_id_scope():
            for key in (3, 5):
                for _ in range(3):
                    node.store(Packet.from_injection(make_injection(0, 0, key)), key)
            assert node.load == node.recount_load() == 6
            assert node.total_bad == 4
            for _ in range(3):
                node.take(3)
            node.drop_empty()
            assert node.load == node.recount_load() == 3
            assert node.total_bad == 2
            assert node.keys() == [5]

    def test_take_from_missing_or_empty_key_returns_none(self):
        node = NodeBuffer(0)
        assert node.take("nope") is None
        node.pseudo_buffer("empty")
        assert node.take("empty") is None
        assert node.load == node.recount_load() == 0
