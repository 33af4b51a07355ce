"""Unit tests for buffers and pseudo-buffers (repro.core.pseudobuffer)."""

from __future__ import annotations

import pytest

from repro.core.packet import Packet, make_injection
from repro.core.pseudobuffer import NodeBuffer, PseudoBuffer, QueueDiscipline


def _packet(destination: int = 5, source: int = 0) -> Packet:
    return Packet.from_injection(make_injection(0, source, destination))


class TestPseudoBuffer:
    """A pseudo-buffer changes only through its node buffer's methods."""

    def test_push_pop_lifo(self):
        node = NodeBuffer(node=0, discipline=QueueDiscipline.LIFO)
        first, second = _packet(), _packet()
        node.store(first, key=5)
        node.store(second, key=5)
        assert node.take(5) is second
        assert node.take(5) is first

    def test_push_pop_fifo(self):
        node = NodeBuffer(node=0, discipline=QueueDiscipline.FIFO)
        first, second = _packet(), _packet()
        node.store(first, key=5)
        node.store(second, key=5)
        assert node.take(5) is first
        assert node.take(5) is second

    def test_take_from_empty_returns_none(self):
        events = []
        node = NodeBuffer(node=0, on_change=lambda *event: events.append(event))
        node.pseudo_buffer(0)
        assert node.take(0) is None
        assert node.load == 0
        assert events == []

    def test_peek_matches_pop_without_removing(self):
        node = NodeBuffer(node=0)
        first, second = _packet(), _packet()
        node.store(first, key=1)
        node.store(second, key=1)
        buffer = node.existing(1)
        assert buffer.peek() is second
        assert len(buffer) == 2
        assert node.take(1) is second

    def test_peek_empty_returns_none(self):
        assert PseudoBuffer(key=0).peek() is None

    def test_badness_definition(self):
        node = NodeBuffer(node=0)
        buffer = node.pseudo_buffer(3)
        assert not buffer.is_bad
        assert buffer.bad_packet_count == 0
        node.store(_packet(), key=3)
        assert not buffer.is_bad
        assert buffer.bad_packet_count == 0
        node.store(_packet(), key=3)
        assert buffer.is_bad
        assert buffer.bad_packet_count == 1
        node.store(_packet(), key=3)
        assert buffer.bad_packet_count == 2

    def test_take_specific_packet(self):
        node = NodeBuffer(node=0)
        keep, remove = _packet(), _packet()
        node.store(keep, key=0)
        node.store(remove, key=0)
        assert node.take(0, remove) is remove
        assert node.existing(0).packets() == [keep]
        assert node.load == 1

    def test_take_absent_packet(self):
        """An empty or missing queue gives ``None``; a packet not stored in
        a nonempty queue raises ``ValueError`` and leaves the load as is."""
        node = NodeBuffer(node=0)
        assert node.take(0, _packet()) is None
        node.store(_packet(), key=0)
        with pytest.raises(ValueError):
            node.take(0, _packet())
        assert node.load == 1

    def test_contains_and_iteration(self):
        node = NodeBuffer(node=0)
        packet = _packet()
        node.store(packet, key=0)
        buffer = node.existing(0)
        assert packet in buffer
        assert list(buffer) == [packet]

    def test_has_no_public_mutators(self):
        buffer = PseudoBuffer(key=0)
        for name in ("push", "pop", "remove"):
            assert not hasattr(buffer, name)


class TestNodeBuffer:
    def test_lazy_pseudo_buffer_creation(self):
        node = NodeBuffer(node=3)
        assert node.keys() == []
        node.store(_packet(destination=7), key=7)
        assert node.keys() == [7]

    def test_load_aggregates_pseudo_buffers(self):
        node = NodeBuffer(node=0)
        node.store(_packet(destination=4), key=4)
        node.store(_packet(destination=4), key=4)
        node.store(_packet(destination=6), key=6)
        assert node.load == 3
        assert node.load_of(4) == 2
        assert node.load_of(6) == 1
        assert node.load_of(9) == 0

    def test_bad_count_per_key(self):
        node = NodeBuffer(node=0)
        node.store(_packet(destination=4), key=4)
        assert node.bad_count(4) == 0
        node.store(_packet(destination=4), key=4)
        assert node.bad_count(4) == 1
        assert node.is_bad_for(4)
        assert not node.is_bad_for(6)

    def test_total_bad_sums_over_keys(self):
        node = NodeBuffer(node=0)
        for _ in range(3):
            node.store(_packet(destination=4), key=4)
        for _ in range(2):
            node.store(_packet(destination=6), key=6)
        assert node.total_bad == (3 - 1) + (2 - 1)

    def test_take_from_missing_key_returns_none(self):
        node = NodeBuffer(node=0)
        assert node.take(5) is None
        assert node.keys() == []

    def test_nonempty_keys_and_drop_empty(self):
        node = NodeBuffer(node=0)
        node.store(_packet(destination=4), key=4)
        popped = node.take(4)
        assert popped is not None
        assert node.nonempty_keys() == []
        assert node.keys() == [4]
        node.drop_empty()
        assert node.keys() == []

    def test_all_packets_snapshot(self):
        node = NodeBuffer(node=0)
        packets = [_packet(destination=4), _packet(destination=6)]
        node.store(packets[0], key=4)
        node.store(packets[1], key=6)
        assert set(id(p) for p in node.all_packets()) == set(id(p) for p in packets)

    def test_len_matches_load(self):
        node = NodeBuffer(node=0)
        node.store(_packet(destination=2), key=2)
        assert len(node) == node.load == 1

    def test_every_change_makes_one_notification(self):
        events = []
        node = NodeBuffer(node=2, on_change=lambda *event: events.append(event))
        first, second = _packet(), _packet()
        node.store(first, key=4)
        node.store(second, key=4)
        node.take(4, first)
        node.take(4)
        assert events == [(2, 4, 0, 1), (2, 4, 1, 2), (2, 4, 2, 1), (2, 4, 1, 0)]
        assert node.load == 0

    def test_discipline_propagates_to_pseudo_buffers(self):
        node = NodeBuffer(node=0, discipline=QueueDiscipline.FIFO)
        first, second = _packet(destination=4), _packet(destination=4)
        node.store(first, key=4)
        node.store(second, key=4)
        assert node.take(4) is first
