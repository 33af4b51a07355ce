"""Buffers and pseudo-buffers ("virtual output queuing").

The paper lets every node partition its buffer into *pseudo-buffers* keyed by
destination (PPTS, Section 3.2) or by ``(level, intermediate destination)``
(HPTS, Definition 4.3).  All pseudo-buffers use LIFO priority "for
concreteness" (Section 2); the bounds do not depend on the within-queue
priority, so the discipline is configurable here.

:class:`PseudoBuffer` is a single queue, read-only to everyone but its node.
:class:`NodeBuffer` is a node's whole buffer: a dictionary of pseudo-buffers
keyed by an arbitrary hashable key, with helpers for the load/badness
quantities the analysis needs.  It is the only thing that changes a buffer:
:meth:`NodeBuffer.store` and :meth:`NodeBuffer.take` each update the node's
load, the engine's one count of ``|L(i)|``, and make one ``(node, key,
old_len, new_len)`` call into the node's change listener;
:meth:`NodeBuffer.clear` and :meth:`NodeBuffer.place`, which empty a node and
set a whole queue at once, call no listener: their one caller,
:meth:`~repro.core.scheduler.ForwardingAlgorithm.place_buffers`, rebuilds
the counts.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import (
    Callable, Deque, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence,
)

from .packet import Packet

__all__ = ["QueueDiscipline", "PseudoBuffer", "NodeBuffer"]

#: Change listener signature: ``(node, key, old_len, new_len)``.
NodeChangeListener = Callable[[int, Hashable, int, int], None]


class QueueDiscipline(Enum):
    """Priority order within a single pseudo-buffer."""

    LIFO = "lifo"
    FIFO = "fifo"


class PseudoBuffer:
    """A single pseudo-buffer holding packets for one (virtual) destination.

    Parameters
    ----------
    key:
        Identifier of this pseudo-buffer within its node (e.g. a destination
        index, or a ``(level, destination)`` pair for HPTS).
    discipline:
        Queue discipline :meth:`NodeBuffer.take` follows for this queue.

    A pseudo-buffer has no mutators of its own: its :class:`NodeBuffer`
    changes it, so that the node's load and change notification can never
    be skipped.
    """

    __slots__ = ("key", "discipline", "_packets")

    def __init__(
        self, key: Hashable, discipline: QueueDiscipline = QueueDiscipline.LIFO
    ) -> None:
        self.key = key
        self.discipline = discipline
        self._packets: Deque[Packet] = deque()

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._packets)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self._packets)

    def __bool__(self) -> bool:
        return bool(self._packets)

    def __contains__(self, packet: Packet) -> bool:
        return packet in self._packets

    def peek(self) -> Optional[Packet]:
        """Return the packet that :meth:`NodeBuffer.take` would take next."""
        if not self._packets:
            return None
        if self.discipline is QueueDiscipline.LIFO:
            return self._packets[-1]
        return self._packets[0]

    def packets(self) -> List[Packet]:
        """Snapshot of the stored packets, oldest first."""
        return list(self._packets)

    # -- analysis quantities ---------------------------------------------------

    @property
    def load(self) -> int:
        """``|L_k(i)|`` — number of stored packets."""
        return len(self._packets)

    @property
    def is_bad(self) -> bool:
        """Definition 3.3 / 4.4: a pseudo-buffer is *bad* if it holds >= 2 packets."""
        return len(self._packets) >= 2

    @property
    def bad_packet_count(self) -> int:
        """``beta`` — number of packets stored at position >= 2 (max(load - 1, 0))."""
        return max(len(self._packets) - 1, 0)


class NodeBuffer:
    """The complete buffer of one node, partitioned into pseudo-buffers.

    The node lazily creates pseudo-buffers on first use, mirroring the paper's
    remark that PPTS need not know the destination set in advance: only
    destinations that actually receive packets ever materialise a queue.

    ``load`` is a cached counter, updated by :meth:`store`, :meth:`take`,
    :meth:`clear` and :meth:`place` (the only methods that change a
    pseudo-buffer), so reading it is O(1) regardless of how many
    pseudo-buffers the node has accumulated; ``total_bad`` (read only by analyses) is summed on demand.
    An optional ``on_change`` listener receives ``(node, key, old_len,
    new_len)`` after each :meth:`store` and :meth:`take` — the forwarding
    algorithm uses it to keep its dirty-node set and bad-buffer index live.

    Both buffer classes are slotted: a million-node network materialises one
    :class:`NodeBuffer` per node up front, so the per-instance ``__dict__``
    would dominate the engine's idle footprint.
    """

    __slots__ = ("node", "discipline", "_pseudo", "_load", "_on_change")

    def __init__(
        self,
        node: int,
        discipline: QueueDiscipline = QueueDiscipline.LIFO,
        *,
        on_change: Optional[NodeChangeListener] = None,
    ) -> None:
        self.node = node
        self.discipline = discipline
        self._pseudo: Dict[Hashable, PseudoBuffer] = {}
        self._load = 0
        self._on_change = on_change

    # -- pseudo-buffer management ----------------------------------------------

    def pseudo_buffer(self, key: Hashable) -> PseudoBuffer:
        """Return (creating if necessary) the pseudo-buffer for ``key``.

        For analyses and tests; the node's own methods read ``_pseudo`` and
        the queues' deques directly, since they run once per packet moved.
        """
        pb = self._pseudo.get(key)
        if pb is None:
            pb = self._new_queue(key)
        return pb

    def _new_queue(self, key: Hashable) -> PseudoBuffer:
        pb = self._pseudo[key] = PseudoBuffer(key, self.discipline)
        return pb

    def existing(self, key: Hashable) -> Optional[PseudoBuffer]:
        """Return the pseudo-buffer for ``key`` if it exists, else ``None``."""
        return self._pseudo.get(key)

    def keys(self) -> List[Hashable]:
        """Keys of all (possibly empty) pseudo-buffers created so far."""
        return list(self._pseudo.keys())

    def nonempty_keys(self) -> List[Hashable]:
        """Keys of pseudo-buffers currently holding at least one packet."""
        return [key for key, pb in self._pseudo.items() if pb._packets]

    def pseudo_buffers(self) -> Iterable[PseudoBuffer]:
        return self._pseudo.values()

    def drop_empty(self) -> None:
        """Garbage-collect empty pseudo-buffers (keeps long runs lean)."""
        self._pseudo = {k: pb for k, pb in self._pseudo.items() if pb._packets}

    # -- packet operations -----------------------------------------------------

    def store(self, packet: Packet, key: Hashable) -> None:
        """Store ``packet`` under pseudo-buffer ``key`` (arrival by injection
        or by forwarding)."""
        pb = self._pseudo.get(key)
        if pb is None:
            pb = self._new_queue(key)
        packets = pb._packets
        packets.append(packet)
        self._load += 1
        if self._on_change is not None:
            new_len = len(packets)
            self._on_change(self.node, key, new_len - 1, new_len)

    def take(self, key: Hashable, packet: Optional[Packet] = None) -> Optional[Packet]:
        """Take the next packet from pseudo-buffer ``key``, by its discipline,
        or the specific ``packet`` when given; ``None`` if the queue is empty.

        The forwarding step's one read of an activated pseudo-buffer (the
        paper's "each nonempty activated buffer forwards"), and the one
        removal path.  Raises :class:`ValueError` if ``packet`` is not
        stored in a nonempty queue.
        """
        pb = self._pseudo.get(key)
        if pb is None:
            return None
        packets = pb._packets
        if not packets:
            return None
        if packet is not None:
            packets.remove(packet)
        elif pb.discipline is QueueDiscipline.LIFO:
            packet = packets.pop()
        else:
            packet = packets.popleft()
        self._load -= 1
        if self._on_change is not None:
            new_len = len(packets)
            self._on_change(self.node, key, new_len + 1, new_len)
        return packet

    def clear(self) -> None:
        """Empty this node at once, with no listener call (see :meth:`place`)."""
        self._pseudo.clear()
        self._load = 0

    def place(self, key: Hashable, packets: Sequence[Packet]) -> int:
        """Append the nonempty ``packets``, in queue order, to pseudo-buffer
        ``key`` and return its new length: the bulk form of :meth:`store`,
        with no listener call.  Like :meth:`clear`, it is called only by
        :meth:`~repro.core.scheduler.ForwardingAlgorithm.place_buffers`,
        which rebuilds the counts and the index itself.
        """
        pb = self._pseudo.get(key)
        if pb is None:
            pb = self._pseudo[key] = PseudoBuffer(key, self.discipline)
        pb._packets.extend(packets)
        self._load += len(packets)
        return len(pb._packets)

    def all_packets(self) -> List[Packet]:
        """All packets stored at this node, grouped by pseudo-buffer."""
        result: List[Packet] = []
        for pb in self._pseudo.values():
            result.extend(pb.packets())
        return result

    # -- analysis quantities ---------------------------------------------------

    @property
    def load(self) -> int:
        """``|L(i)|`` — total number of packets stored at this node (cached)."""
        return self._load

    def load_of(self, key: Hashable) -> int:
        """``|L_k(i)|`` for pseudo-buffer ``key`` (0 if it does not exist)."""
        pb = self._pseudo.get(key)
        return len(pb._packets) if pb is not None else 0

    def bad_count(self, key: Hashable) -> int:
        """``beta_k(i)`` — bad packets in pseudo-buffer ``key``."""
        pb = self._pseudo.get(key)
        return pb.bad_packet_count if pb is not None else 0

    def is_bad_for(self, key: Hashable) -> bool:
        """Whether the pseudo-buffer ``key`` holds >= 2 packets."""
        pb = self._pseudo.get(key)
        return pb.is_bad if pb is not None else False

    @property
    def total_bad(self) -> int:
        """Total bad packets at this node, over all pseudo-buffers."""
        return sum(pb.bad_packet_count for pb in self._pseudo.values())

    def recount_load(self) -> int:
        """From-scratch recount of :attr:`load` (tests / debugging only)."""
        return sum(len(pb._packets) for pb in self._pseudo.values())

    def __len__(self) -> int:
        return self.load

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        loads = {k: len(pb._packets) for k, pb in self._pseudo.items() if pb._packets}
        return f"NodeBuffer(node={self.node}, load={self.load}, pseudo={loads})"
