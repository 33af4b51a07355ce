"""Packet model for the Adversarial Queuing Theory (AQT) simulator.

A packet in the paper (Section 2) is a triple ``(t, i_P, w_P)``: the round in
which it is injected, its injection site, and its destination.  For the
simulator we additionally carry a unique identifier (so multisets of packets
injected at the same place and time remain distinguishable), and mutable
bookkeeping used by the engine and by the lower-bound analysis (current
location, delivery round, fresh/stale status).

The immutable "injection record" lives in :class:`Injection`; the mutable
in-flight object is :class:`Packet`.  Both are ``__slots__`` classes: a
million-packet run allocates millions of them, and the per-instance ``__dict__``
would dominate the engine's footprint.  Large schedules are stored columnar in
a :class:`PacketStore` — four flat integer arrays instead of one boxed record
object per injection — and materialise :class:`Injection` views on demand.
"""

from __future__ import annotations

import contextvars
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional

__all__ = [
    "Injection",
    "Packet",
    "PacketState",
    "PacketStore",
    "PacketIdAllocator",
    "packet_id_scope",
    "packet_id_counter",
]


class PacketIdAllocator:
    """A scoped source of unique packet ids.

    One process-wide allocator exists by default (ids shared by everything
    built outside a scope, as before); :class:`packet_id_scope` installs a
    fresh allocator for the current context so each :class:`repro.api.Session`
    run numbers its packets from 0 independently — deterministic regardless of
    what ran before, and safe under thread-pool fan-out because the scope is
    backed by a :class:`contextvars.ContextVar` (per-thread by default).

    The counter is a plain integer so the next value can be *observed*
    without being consumed (:attr:`next_value`) — checkpoints record it and
    restore it with :meth:`reset`, keeping resumed runs id-aligned with their
    uninterrupted counterparts.
    """

    __slots__ = ("_next",)

    def __init__(self, start: int = 0) -> None:
        self._next = start

    def next_id(self) -> int:
        value = self._next
        self._next = value + 1
        return value

    def take(self, count: int) -> int:
        """Consume a block of ``count`` consecutive ids; returns the first.

        The block holds exactly the ids ``count`` :meth:`next_id` calls
        would return, in the same order.
        """
        first = self._next
        self._next = first + count
        return first

    @property
    def next_value(self) -> int:
        """The id the next :meth:`next_id` call will return (not consumed)."""
        return self._next

    def reset(self, start: int = 0) -> None:
        self._next = start

    # Iterator protocol, so the historical `next(packet_id_counter)` usage
    # keeps working now that the module global is an allocator.
    def __next__(self) -> int:
        return self.next_id()

    def __iter__(self) -> "PacketIdAllocator":
        return self


#: Process-wide fallback allocator (kept under the historical name).
packet_id_counter = PacketIdAllocator()

_active_allocator: contextvars.ContextVar[Optional[PacketIdAllocator]] = (
    contextvars.ContextVar("repro_packet_id_allocator", default=None)
)


def current_allocator() -> PacketIdAllocator:
    """The allocator for the current context (scoped if inside one)."""
    return _active_allocator.get() or packet_id_counter


class packet_id_scope:
    """Context manager installing a fresh packet-id counter for this context.

    >>> with packet_id_scope():
    ...     first = make_injection(0, 0, 1)
    >>> first.packet_id
    0
    """

    __slots__ = ("allocator", "_token")

    def __init__(self, start: int = 0) -> None:
        self.allocator = PacketIdAllocator(start)
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> PacketIdAllocator:
        self._token = _active_allocator.set(self.allocator)
        return self.allocator

    def __exit__(self, *exc_info: object) -> None:
        if self._token is not None:
            _active_allocator.reset(self._token)
            self._token = None


def reset_packet_ids() -> None:
    """Reset the current context's packet-id counter (deterministic tests)."""
    current_allocator().reset()


class PacketState(Enum):
    """Lifecycle of a packet inside the simulator."""

    #: Created by an adversary but not yet accepted by the algorithm
    #: (relevant for HPTS, which batches injections per phase).
    STAGED = "staged"
    #: Stored in some buffer and awaiting forwarding.
    IN_TRANSIT = "in_transit"
    #: Absorbed at its destination.
    DELIVERED = "delivered"


@dataclass(frozen=True, order=True, slots=True)
class Injection:
    """An immutable injection record ``(round, source, destination)``.

    This mirrors the paper's packet triple ``P = (t, i_P, w_P)``.  Ordering is
    lexicographic on ``(round, source, destination, packet_id)`` which makes
    injection patterns sortable and hashable for set-based reasoning in tests.
    """

    round: int
    source: int
    destination: int
    packet_id: int = field(default=-1, compare=True)

    def __post_init__(self) -> None:
        if self.round < 0:
            raise ValueError(f"injection round must be non-negative, got {self.round}")

    @property
    def path_length(self) -> int:
        """Number of edges the packet must traverse on a line topology."""
        return abs(self.destination - self.source)

    def with_round(self, new_round: int) -> "Injection":
        """Return a copy of this injection re-timed to ``new_round``.

        Used by the :math:`\\ell`-reduction (Definition 2.4), which re-times
        packets to phase boundaries without changing source or destination.
        """
        return Injection(new_round, self.source, self.destination, self.packet_id)


class Packet:
    """A mutable in-flight packet tracked by the simulation engine.

    The injection triple is stored *unboxed* — four int slots instead of a
    nested :class:`Injection` record — so an in-flight packet is one small
    object; :attr:`injection` materialises the immutable record on demand.
    Packets compare by identity: the engine moves the exact objects it
    stored, and two packets are never interchangeable even when injected at
    the same place and time.

    Attributes
    ----------
    packet_id, source, destination, injected_round:
        The unboxed injection record ``(t, i_P, w_P)`` plus its unique id.
    location:
        The node currently storing this packet (meaningful only while the
        packet is ``IN_TRANSIT``).
    state:
        Lifecycle state.
    accepted_round:
        Round in which the algorithm accepted the packet into a buffer.  For
        most algorithms this equals ``injected_round``; for HPTS it is the
        first round of the following phase.
    delivered_round:
        Round in which the packet reached its destination, or ``None``.
    hops:
        Number of forwarding steps the packet has taken so far.
    """

    __slots__ = (
        "packet_id",
        "source",
        "destination",
        "injected_round",
        "location",
        "state",
        "accepted_round",
        "delivered_round",
        "hops",
    )

    def __init__(
        self,
        injection: Injection,
        location: int,
        state: PacketState = PacketState.IN_TRANSIT,
    ) -> None:
        self.packet_id = injection.packet_id
        self.source = injection.source
        self.destination = injection.destination
        self.injected_round = injection.round
        self.location = location
        self.state = state
        self.accepted_round = None
        self.delivered_round = None
        self.hops = 0

    @classmethod
    def from_injection(cls, injection: Injection, *, staged: bool = False) -> "Packet":
        """Create an in-flight packet at its injection site."""
        state = PacketState.STAGED if staged else PacketState.IN_TRANSIT
        return cls(injection, injection.source, state)

    @classmethod
    def from_row(
        cls,
        packet_id: int,
        source: int,
        destination: int,
        injected_round: int,
        location: int,
        state: PacketState,
        accepted_round: Optional[int],
        delivered_round: Optional[int],
        hops: int,
    ) -> "Packet":
        """A packet from one row of column data, its slots in order.

        Sets the slots directly, with no intermediate :class:`Injection`:
        the batch kernel and checkpoint restore build packets from int
        columns by the thousand.
        """
        packet = object.__new__(cls)
        packet.packet_id = packet_id
        packet.source = source
        packet.destination = destination
        packet.injected_round = injected_round
        packet.location = location
        packet.state = state
        packet.accepted_round = accepted_round
        packet.delivered_round = delivered_round
        packet.hops = hops
        return packet

    # -- convenience accessors ------------------------------------------------

    @property
    def injection(self) -> Injection:
        """The immutable injection record, materialised from the int slots."""
        return Injection(
            self.injected_round, self.source, self.destination, self.packet_id
        )

    @property
    def delivered(self) -> bool:
        return self.state is PacketState.DELIVERED

    @property
    def latency(self) -> Optional[int]:
        """Rounds from injection to delivery, or ``None`` if undelivered."""
        if self.delivered_round is None:
            return None
        return self.delivered_round - self.injected_round

    @property
    def remaining_distance(self) -> int:
        """Edges left to traverse on a line topology (0 when delivered)."""
        if self.delivered:
            return 0
        return abs(self.destination - self.location)

    # -- engine hooks ----------------------------------------------------------

    def accept(self, round_number: int) -> None:
        """Mark a staged packet as accepted into a buffer."""
        self.state = PacketState.IN_TRANSIT
        self.accepted_round = round_number

    def advance(self, new_location: int) -> None:
        """Move the packet one hop to ``new_location``."""
        self.location = new_location
        self.hops += 1

    def deliver(self, round_number: int) -> None:
        """Absorb the packet at its destination."""
        self.state = PacketState.DELIVERED
        self.delivered_round = round_number

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(id={self.packet_id}, src={self.source}, dst={self.destination}, "
            f"t={self.injected_round}, at={self.location}, state={self.state.value})"
        )


class PacketStore:
    """A compact columnar store of immutable injection records.

    Rows are ``(round, source, destination, packet_id)`` int quadruples kept
    in four flat ``array('q')`` columns — roughly 32 bytes per injection
    instead of one boxed :class:`Injection` (plus container references) each.
    Rows are append-only and keep insertion order; :meth:`injection`
    materialises an :class:`Injection` view on demand.

    Used by :class:`repro.adversary.base.InjectionPattern` to hold large
    schedules, and by the streaming simulator to log what was injected
    without retaining delivered :class:`Packet` objects.
    """

    __slots__ = ("_rounds", "_sources", "_destinations", "_ids")

    def __init__(self) -> None:
        self._rounds = array("q")
        self._sources = array("q")
        self._destinations = array("q")
        self._ids = array("q")

    def append(self, round: int, source: int, destination: int, packet_id: int) -> int:
        """Append one record; returns its row index."""
        self._rounds.append(round)
        self._sources.append(source)
        self._destinations.append(destination)
        self._ids.append(packet_id)
        return len(self._ids) - 1

    def append_injection(self, injection: Injection) -> int:
        return self.append(
            injection.round, injection.source, injection.destination,
            injection.packet_id,
        )

    def injection(self, row: int) -> Injection:
        """Materialise the :class:`Injection` stored at ``row``."""
        return Injection(
            self._rounds[row], self._sources[row], self._destinations[row],
            self._ids[row],
        )

    def row_tuple(self, row: int) -> tuple:
        """``(round, source, destination, packet_id)`` without boxing."""
        return (
            self._rounds[row], self._sources[row], self._destinations[row],
            self._ids[row],
        )

    #: The :class:`Injection` lexicographic order key for a row — identical
    #: to the row's tuple form by construction.
    sort_key = row_tuple

    @classmethod
    def from_columns(
        cls, rounds: array, sources: array, destinations: array, ids: array
    ) -> "PacketStore":
        """Rebuild a store from four equal-length ``array('q')`` columns.

        Used by checkpoint restore.  The columns are *copied*: the store
        keeps appending as the resumed run injects, and sharing the caller's
        arrays would mutate the loaded checkpoint in place (breaking a second
        restore from the same object).
        """
        return cls.adopt(
            array("q", rounds), array("q", sources), array("q", destinations),
            array("q", ids),
        )

    @classmethod
    def adopt(
        cls, rounds: array, sources: array, destinations: array, ids: array
    ) -> "PacketStore":
        """A store *owning* four equal-length ``array('q')`` columns, uncopied.

        For a builder that filled the columns itself and keeps no other
        reference to them.
        """
        lengths = {len(rounds), len(sources), len(destinations), len(ids)}
        if len(lengths) != 1:
            raise ValueError(f"PacketStore columns disagree on length: {lengths}")
        store = cls()
        store._rounds = rounds
        store._sources = sources
        store._destinations = destinations
        store._ids = ids
        return store

    # -- column views (read-only by convention) ---------------------------------

    @property
    def rounds(self) -> array:
        return self._rounds

    @property
    def sources(self) -> array:
        return self._sources

    @property
    def destinations(self) -> array:
        return self._destinations

    @property
    def packet_ids(self) -> array:
        return self._ids

    @property
    def nbytes(self) -> int:
        """Approximate payload size of the four columns, in bytes."""
        return sum(
            column.buffer_info()[1] * column.itemsize
            for column in (self._rounds, self._sources, self._destinations, self._ids)
        )

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[Injection]:
        """Materialise every record, in insertion order."""
        for row in range(len(self._ids)):
            yield self.injection(row)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PacketStore(records={len(self._ids)}, nbytes={self.nbytes})"


def make_injection(round: int, source: int, destination: int) -> Injection:
    """Create an :class:`Injection` with a fresh unique packet id.

    Ids come from the current :class:`packet_id_scope` if one is active, and
    from the process-wide counter otherwise.
    """
    return Injection(round, source, destination, current_allocator().next_id())
