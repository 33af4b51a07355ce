"""The forwarding-algorithm interface shared by PTS, PPTS, HPTS and baselines.

The AQT execution model (Section 2) separates each round into an injection
step and a forwarding step.  A forwarding algorithm owns the buffers: it
decides under which pseudo-buffer an arriving packet is stored (``classify``)
and which pseudo-buffers are *activated* each round (``select_activations``).
The simulator performs the actual packet movement, enforcing the capacity
constraint of one packet per directed edge per round.

The paper's "implementation convention" (Section 3) — buffers start inactive,
algorithms activate a family ``A`` of (pseudo-)buffers, and all active buffers
forward simultaneously — maps onto :class:`Activation` records returned by
``select_activations``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    Dict, Hashable, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

from ..network.errors import SpentAlgorithmError
from ..network.topology import Topology
from .indexset import BufferIndex
from .packet import Packet
from .pseudobuffer import NodeBuffer, QueueDiscipline

__all__ = ["Activation", "ForwardingAlgorithm"]


class _BufferChanges:
    """The node buffers' change listener: the total stored count, the
    dirty-node set and the bad-position index that every store and take
    updates.

    It is its own object, not a method of the algorithm, so the algorithm's
    node buffers hold no reference back to the algorithm: with none, a
    finished run's buffers and packets are freed as soon as the run is
    dropped, not at the cyclic collector's next full pass.
    """

    __slots__ = ("total", "dirty", "index", "threshold")

    def __init__(self, index: BufferIndex) -> None:
        self.total = 0
        self.dirty: Set[int] = set()
        self.index = index
        self.threshold = index.bad_threshold

    def changed(self, node: int, key: Hashable, old_len: int, new_len: int) -> None:
        self.total += new_len - old_len
        self.dirty.add(node)
        # The crossing test lives here, not in the index: most changes stay
        # on one side of the bad threshold, and those need no index call.
        threshold = self.threshold
        if (old_len < threshold) != (new_len < threshold):
            self.index.update(node, key, old_len, new_len)


class Activation(NamedTuple):
    """One activated pseudo-buffer: node ``node`` forwards from queue ``key``.

    ``packet`` optionally names the exact packet to forward (used by greedy
    baselines whose priority is not the pseudo-buffer's own discipline);
    when ``None`` the pseudo-buffer pops according to its queue discipline.
    A named tuple: immutable and dict-free, and built without the frozen
    dataclass's guarded ``__setattr__``, because peak-to-sink algorithms
    allocate one per activated buffer per round, the hottest allocation
    site after packets themselves.
    """

    node: int
    key: Hashable
    packet: Optional[Packet] = None


class ForwardingAlgorithm(ABC):
    """Base class for all forwarding algorithms.

    Subclasses must implement :meth:`classify` (how a packet at a node is
    assigned to a pseudo-buffer) and :meth:`select_activations` (which
    pseudo-buffers forward this round).  The default injection handling stores
    packets immediately; algorithms that batch acceptance (HPTS) override
    :meth:`on_inject` and :meth:`staged_count`.

    Each node's load lives in one place, its :class:`NodeBuffer`, and only
    the node buffer changes its pseudo-buffers.  Every per-move store and
    take makes one call into the node buffers' change listener
    (``_BufferChanges.changed``), which updates the total stored count and a
    dirty-node set.  The one bulk writer is :meth:`place_buffers`, not the
    listener: it sets every node's queues at once (the batch kernel's sync,
    checkpoint restore) and rebuilds the count, the set and the index once.
    :meth:`occupancy_delta` hands the simulator just the
    nodes whose load changed since the last call, so per-round measurement
    cost is proportional to the number of packets that moved, not to the
    network size; :meth:`occupancy_vector` is the full snapshot that
    per-round history records and adaptive adversaries read.

    The same call feeds ``self._index``, a
    :class:`~repro.core.indexset.BufferIndex` of sorted bad buffer positions
    per pseudo-buffer key, from which the peak-to-sink algorithms find the
    left-most bad buffer in O(log n).
    """

    #: Human-readable identifier used in result tables.
    name: str = "abstract"

    def __init__(
        self,
        topology: Topology,
        *,
        discipline: QueueDiscipline = QueueDiscipline.LIFO,
        bad_threshold: int = 2,
    ) -> None:
        self.topology = topology
        self.discipline = discipline
        self._index = BufferIndex(bad_threshold)
        self._changes = _BufferChanges(self._index)
        #: Empty pseudo-buffers are garbage-collected every ``_gc_interval``
        #: rounds (multi-destination runs otherwise leak one queue per
        #: destination per node over a long horizon).
        self._gc_interval = max(topology.num_nodes, 1)
        changed = self._changes.changed
        self.buffers: Dict[int, NodeBuffer] = {
            node: NodeBuffer(node, discipline, on_change=changed)
            for node in topology.nodes
        }

    # -- packet placement --------------------------------------------------------

    @abstractmethod
    def classify(self, packet: Packet, node: int) -> Hashable:
        """The pseudo-buffer key under which ``packet`` is stored at ``node``."""

    def on_inject(self, round_number: int, packets: List[Packet]) -> None:
        """Handle the injection step: store newly injected packets.

        The default accepts every packet immediately at its injection site,
        which is what PTS, PPTS, the tree algorithms and all greedy baselines
        do.  HPTS overrides this to stage packets until the next phase start.
        """
        for packet in packets:
            packet.accept(round_number)
            self.buffers[packet.location].store(
                packet, self.classify(packet, packet.location)
            )

    def on_arrival(self, packet: Packet, node: int, round_number: int) -> None:
        """Handle a packet forwarded into ``node`` (not its destination)."""
        self.buffers[node].store(packet, self.classify(packet, node))

    def place_buffers(
        self, placements: Iterable[Tuple[int, Hashable, Sequence[Packet]]]
    ) -> None:
        """Set every node's pseudo-buffers from ``(node, key, packets in queue
        order)`` triples, read once; a node named by none is emptied.

        Leaves the state that taking every packet and then storing each
        placed packet in turn would: each node's keys in the order given,
        no empty pseudo-buffer, every node filled or emptied marked dirty,
        the total stored count and the bad-position index rebuilt from the
        new queues.  Staged packets are not touched.
        """
        changes = self._changes
        dirty = changes.dirty
        buffers = self.buffers
        for node, buffer in buffers.items():
            if buffer.load:
                dirty.add(node)
            buffer.clear()
        index = self._index
        index.clear()
        threshold = changes.threshold
        total = 0
        for node, key, packets in placements:
            if packets:
                length = buffers[node].place(key, packets)
                dirty.add(node)
                total += len(packets)
                if length >= threshold:
                    index.update(node, key, 0, length)
        changes.total = total

    # -- forwarding decisions ------------------------------------------------------

    @abstractmethod
    def select_activations(self, round_number: int) -> List[Activation]:
        """The family ``A`` of pseudo-buffers that forward this round."""

    def on_round_end(self, round_number: int) -> None:
        """Hook called after the forwarding step completes.

        The default garbage-collects empty pseudo-buffers once every
        ``num_nodes`` rounds, a function of the round number alone;
        subclasses overriding this hook should call
        ``super().on_round_end(round_number)`` to keep long multi-destination
        runs from leaking empty queues.
        """
        if (round_number + 1) % self._gc_interval == 0:
            for buffer in self.buffers.values():
                buffer.drop_empty()

    # -- occupancy queries -----------------------------------------------------------

    def occupancy(self, node: int) -> int:
        """``|L(node)|`` — packets currently stored (accepted) at ``node``."""
        return self.buffers[node].load

    def occupancy_vector(self) -> Dict[int, int]:
        """Occupancy of every node, in ``topology.nodes`` order.

        Does *not* consume the dirty-node set — adaptive adversaries may call
        this mid-round without disturbing the simulator's delta accounting.
        """
        return {node: buffer.load for node, buffer in self.buffers.items()}

    def occupancy_delta(self) -> Dict[int, int]:
        """Current load of every node whose load changed since the last call.

        Consumes the dirty-node set.  The simulator folds this into its
        running occupancy maxima: a node absent from the delta has the same
        load it had at the previous measurement, which is already folded in.
        """
        dirty = self._changes.dirty
        if not dirty:
            return {}
        buffers = self.buffers
        delta = {node: buffers[node].load for node in dirty}
        dirty.clear()
        return delta

    def max_occupancy(self) -> int:
        """The largest buffer occupancy right now."""
        return max((buffer.load for buffer in self.buffers.values()), default=0)

    def total_stored(self) -> int:
        """Total packets stored across all buffers (excluding staged packets)."""
        return self._changes.total

    def staged_count(self) -> int:
        """Packets injected but not yet accepted (0 for immediate-accept algorithms)."""
        return 0

    def pending_packets(self) -> int:
        """All undelivered packets this algorithm is responsible for."""
        return self.total_stored() + self.staged_count()

    def check_unspent(self, action: str) -> None:
        """Refuse ``action`` if an earlier run left packets in this algorithm.

        Raises :class:`~repro.network.errors.SpentAlgorithmError`; an
        algorithm that holds no packet (never run, or drained) passes.
        """
        pending = self.pending_packets()
        if pending:
            raise SpentAlgorithmError(
                f"{action} needs an algorithm holding no packets, but this "
                f"{self.name} still holds {pending} from an earlier run; "
                f"build fresh ingredients"
            )

    def theoretical_bound(self, sigma: float) -> Optional[float]:
        """The paper's space bound for this algorithm, if one applies.

        Returns ``None`` for algorithms with no stated bound (e.g. greedy
        baselines).  Subclasses with a bound override this.
        """
        return None

    # -- checkpoint support -----------------------------------------------------------

    def checkpoint_state(self) -> Dict:
        """Mutable algorithm state *beyond* the buffer contents.

        The checkpoint layer (:mod:`repro.checkpoint`) serialises the buffers
        itself (per-node pseudo-buffer keys and packet ids, in queue order)
        and sets them back with :meth:`place_buffers`, which rebuilds the
        node loads and the :class:`BufferIndex`.  Algorithms carrying extra
        mutable state —
        staged packets, discovered destination sets, per-packet bookkeeping —
        override this pair of hooks to round-trip it.  The returned mapping must be
        JSON-serialisable; packets are referenced by id.
        """
        return {}

    def restore_checkpoint_state(
        self, state: Dict, packets: Dict[int, Packet]
    ) -> None:
        """Restore :meth:`checkpoint_state` output (``packets`` maps ids to
        the already-rematerialised packet objects)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self.topology.num_nodes})"
